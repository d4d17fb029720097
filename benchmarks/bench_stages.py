"""The fig6 grid runner behind ``bench_guard.py``.

Runs the Fig. 6 workload (small Table I datasets, 16 Summit nodes, CPU
baseline + GPU k-mer + GPU supermer variants) through every execution
path — per-rank sequential, fused whole-cluster, both out-of-core paths
and explicit execution substrates — timed back to back, and compares the
paths' results field by field.  Host wall-clock is recorded by
``benchmarks/perf/run.py`` (BENCHMARK.json), not here.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.bench.runner import dataset_with_multiplier  # noqa: E402
from repro.core.config import PipelineConfig  # noqa: E402
from repro.core.engine import EngineOptions, run_pipeline  # noqa: E402
from repro.mpi.topology import summit_cpu, summit_gpu  # noqa: E402

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
        raise AssertionError(f"pooled staged engine diverged from sequential on {label}")


def _run_grid(datasets, nodes, repeats, arena, spill_dir=None, substrates=()):
    """Best-of-``repeats`` wall time per (dataset, variant, execution-path) cell.

    The execution paths are timed back-to-back inside every repeat
    (paired measurement): comparing separate full-grid passes lets slow
    drift in machine state (clock throttling, allocator growth) land
    entirely on whichever path happens to run last.  When ``spill_dir``
    is given, the two out-of-core paths spool exchange partitions there
    and are timed alongside the in-memory ones.  ``substrates`` adds one
    path per explicit execution-substrate setting (``"thread:2"``,
    ``"process:2"``, ...) keyed ``substrate:<setting>`` so substrate
    overhead is measured under the same pairing.
    """
    cells = {}
    for name in datasets:
        reads, mult = dataset_with_multiplier(name)
        for backend, mode, m in VARIANTS:
            cluster = summit_gpu(nodes) if backend == "gpu" else summit_cpu(nodes)
            config = PipelineConfig(k=17, mode=mode, minimizer_len=m)
            paths = {
                "sequential": EngineOptions(work_multiplier=mult, parallel=1),
                "fused": EngineOptions(work_multiplier=mult, parallel=1, fused=True, arena=arena),
            }
            for setting in substrates:
                paths[f"substrate:{setting}"] = EngineOptions(
                    work_multiplier=mult, parallel=setting
                )
            if spill_dir is not None:
                paths["spill"] = EngineOptions(
                    work_multiplier=mult, parallel=1, spill_dir=spill_dir
                )
                paths["fused-spill"] = EngineOptions(
                    work_multiplier=mult, parallel=1, fused=True, arena=arena, spill_dir=spill_dir
                )
            best = dict.fromkeys(paths, float("inf"))
            results = {}
            for _ in range(repeats):
                for path, options in paths.items():
                    t0 = perf_counter()
                    results[path] = run_pipeline(
                        reads, cluster, config, backend=backend, options=options
                    )
                    best[path] = min(best[path], perf_counter() - t0)
            cells[f"{name}/{backend}-{mode}-m{m}"] = (best, results)
    return cells
