#!/usr/bin/env python
"""Micro-benchmark: sequential vs parallel rank execution wall-clock.

Runs the Fig. 6 benchmark workload (small Table I datasets, 16 Summit
nodes, CPU baseline + GPU k-mer + GPU supermer variants) through the BSP
engine twice — once with the sequential per-rank loop, once with the
thread-pool engine — verifies the two produce bit-identical results, and
records wall-clock times, speedup, and per-phase overlap factors into
``BENCH_parallel.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--out BENCH_parallel.json]
        [--workers N] [--nodes 16] [--datasets ecoli30x,...] [--repeats 2]

Model times (the paper's metrics) are identical between the two engines by
construction; this benchmark measures only *host* execution time.  The
achievable speedup depends on host cores — the recorded ``cpu_count``
field gives the context for the number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.bench.runner import dataset_with_multiplier  # noqa: E402
from repro.core.config import PipelineConfig  # noqa: E402
from repro.core.engine import EngineOptions, run_pipeline  # noqa: E402
from repro.core.parallel import resolve_workers  # noqa: E402
from repro.dna.datasets import SMALL_DATASETS  # noqa: E402
from repro.mpi.topology import summit_cpu, summit_gpu  # noqa: E402
from repro.telemetry.spans import SpanRecorder  # noqa: E402

#: The Fig. 6 variant grid: (backend, mode, minimizer_len).
VARIANTS = [("cpu", "kmer", 7), ("gpu", "kmer", 7), ("gpu", "supermer", 7)]


def _assert_identical(a, b, label: str) -> None:
    ok = (
        a.spectrum.equals(b.spectrum)
        and a.timing == b.timing
        and np.array_equal(a.per_rank_parse, b.per_rank_parse)
        and np.array_equal(a.per_rank_count, b.per_rank_count)
        and np.array_equal(a.counts_matrix, b.counts_matrix)
        and a.exchanged_items == b.exchanged_items
        and a.exchanged_bytes == b.exchanged_bytes
        and a.insert_stats == b.insert_stats
    )
    if not ok:
        raise AssertionError(f"parallel engine diverged from sequential on {label}")


def _run_grid(datasets, nodes, parallel, repeats, recorder=None):
    """Best-of-``repeats`` wall time per (dataset, variant) cell."""
    cells = {}
    for name in datasets:
        reads, mult = dataset_with_multiplier(name)
        for backend, mode, m in VARIANTS:
            cluster = summit_gpu(nodes) if backend == "gpu" else summit_cpu(nodes)
            config = PipelineConfig(k=17, mode=mode, minimizer_len=m)
            options = EngineOptions(work_multiplier=mult, parallel=parallel, trace=recorder)
            best, result = float("inf"), None
            for _ in range(repeats):
                t0 = perf_counter()
                result = run_pipeline(reads, cluster, config, backend=backend, options=options)
                best = min(best, perf_counter() - t0)
            cells[f"{name}/{backend}-{mode}-m{m}"] = (best, result)
    return cells


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default="BENCH_parallel.json", help="output JSON path")
    ap.add_argument("--workers", type=int, default=0, help="parallel worker count (0 = auto)")
    ap.add_argument("--nodes", type=int, default=16, help="simulated Summit node count")
    ap.add_argument("--datasets", default=",".join(SMALL_DATASETS), help="comma-separated Table I names")
    ap.add_argument("--repeats", type=int, default=2, help="take the best of N runs per cell")
    args = ap.parse_args(argv)

    datasets = [d for d in args.datasets.split(",") if d]
    workers = args.workers if args.workers > 0 else resolve_workers("auto")
    world = summit_gpu(args.nodes).n_ranks

    print(f"fig6 workload: {datasets} on {args.nodes} nodes ({world} GPU ranks), {workers} workers")
    seq_cells = _run_grid(datasets, args.nodes, 1, args.repeats)
    recorder = SpanRecorder()
    par_cells = _run_grid(datasets, args.nodes, workers, args.repeats, recorder=recorder)

    rows = []
    for key, (seq_s, seq_result) in seq_cells.items():
        par_s, par_result = par_cells[key]
        _assert_identical(seq_result, par_result, key)
        rows.append(
            {
                "cell": key,
                "sequential_s": round(seq_s, 4),
                "parallel_s": round(par_s, 4),
                "speedup": round(seq_s / par_s, 3) if par_s > 0 else float("inf"),
            }
        )
        print(f"  {key:45s} seq {seq_s:7.3f}s  par {par_s:7.3f}s  {seq_s / par_s:5.2f}x")

    total_seq = sum(r["sequential_s"] for r in rows)
    total_par = sum(r["parallel_s"] for r in rows)
    overlap = {name: round(recorder.overlap_factor(name), 3) for name in recorder.phases()}
    payload = {
        "workload": "fig6",
        "datasets": datasets,
        "n_nodes": args.nodes,
        "world_size_gpu": world,
        "variants": [f"{b}-{m}-m{mm}" for b, m, mm in VARIANTS],
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "results_identical": True,
        "sequential_total_s": round(total_seq, 4),
        "parallel_total_s": round(total_par, 4),
        "speedup": round(total_seq / total_par, 3) if total_par > 0 else float("inf"),
        "phase_overlap_factor": overlap,
        "cells": rows,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2))
    print(
        f"total: seq {total_seq:.3f}s  par {total_par:.3f}s  "
        f"{payload['speedup']}x with {workers} workers on {os.cpu_count()} core(s) -> {out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
