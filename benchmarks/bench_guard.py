#!/usr/bin/env python
"""CI guard: every execution path must stay identical, the model exact.

Runs a deliberately small slice of the fig6 grid (one Table I dataset,
all three variants) through the staged-sequential, fused, spilled and
process-substrate paths, then enforces these gates — all exact
comparisons, none depending on how fast the host is:

1. **identity** — the fused results must be bit-identical to the staged
   results (spectrum, timing floats, traffic, insert statistics), and so
   must the out-of-core spill paths (staged: exchange partitions spooled
   to disk + external merge; blocked fused×spill: ``fused=True`` +
   ``spill_dir``) and the process execution substrate
   (``parallel="process:2"``, forked workers + shared-memory transport;
   skipped only where ``os.fork`` does not exist).  Any divergence is an
   immediate failure; there is no tolerance.
2. *(retired)* — the fused path's host cost is bounded in absolute
   seconds by the ``grid-staged`` / ``grid-fused`` workloads of
   ``benchmarks/perf`` (``wall_s``); the staged/fused *ratio* floor
   skipped itself on one-core hosts and bounded nothing those two
   numbers do not.
3. **calibration drift** — each cell's *modeled* phase seconds (parse,
   exchange, count) must equal the ``model_times`` recorded in
   ``BENCH_fused.json`` before the machine-model refactor, exactly.
   Model times are deterministic functions of the data and the Summit
   calibration constants, so any difference — float-level included —
   means the summit presets no longer encode the paper's machine.
4. *(retired)* — the spool path's host cost is bounded in absolute
   seconds by the ``ooc-cpu-kmer`` / ``stream-ooc`` workloads of
   ``benchmarks/perf`` (``wall_s``); a spill/sequential *ratio* moved
   whenever the sequential denominator got faster.
5. **figure calibration** — the fig8 alltoallv seconds/speedups and
   fig9 insertion rates recaptured via
   ``tools/capture_bench_figures.py`` must equal the committed
   ``BENCH_figures.json`` record float for float.  This is the
   communication-model analogue of gate 3: the hierarchical network
   layer must stay a *bit-exact* superset of the flat alpha-beta model
   under the default Summit presets.

Usage::

    PYTHONPATH=src python benchmarks/bench_guard.py [--bench BENCH_fused.json]
        [--datasets vvulnificus30x] [--nodes 16] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_stages import _assert_identical, _run_grid  # noqa: E402

from repro.core.memory import ScratchArena  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--bench", default="BENCH_fused.json", help="committed benchmark JSON")
    ap.add_argument(
        "--figures-bench", default="BENCH_figures.json", help="committed fig8/fig9 model record"
    )
    ap.add_argument("--datasets", default="vvulnificus30x", help="comma-separated Table I names")
    ap.add_argument("--nodes", type=int, default=16, help="simulated Summit node count")
    ap.add_argument("--repeats", type=int, default=3, help="take the best of N paired runs per cell")
    args = ap.parse_args(argv)

    committed = json.loads(Path(args.bench).read_text())

    datasets = [d for d in args.datasets.split(",") if d]
    substrates = ("process:2",) if hasattr(os, "fork") else ()
    with tempfile.TemporaryDirectory(prefix="guard-spool-") as spool:
        cells = _run_grid(
            datasets, args.nodes, args.repeats, ScratchArena(), spill_dir=spool, substrates=substrates
        )

    committed_model = committed.get("model_times", {})
    drifted: list[str] = []
    for key, (best, results) in cells.items():
        _assert_identical(results["sequential"], results["fused"], f"{key} (fused)")
        _assert_identical(results["sequential"], results["spill"], f"{key} (spill)")
        _assert_identical(results["sequential"], results["fused-spill"], f"{key} (fused-spill)")
        for setting in substrates:
            _assert_identical(
                results["sequential"], results[f"substrate:{setting}"], f"{key} ({setting})"
            )
        timing = results["sequential"].timing
        expected = committed_model.get(key)
        if expected is not None:
            got = {
                "parse_s": timing.parse,
                "exchange_s": timing.exchange,
                "count_s": timing.count,
                "total_s": timing.total,
            }
            for phase, want in expected.items():
                if got[phase] != want:
                    drifted.append(f"{key}: {phase} modeled {got[phase]!r}, committed {want!r}")
        print(
            f"  {key:45s} seq {best['sequential']:7.3f}s  fused {best['fused']:7.3f}s "
            f"({best['sequential'] / best['fused']:.2f}x)"
        )

    if drifted:
        for line in drifted:
            print(f"FAIL: {line}", file=sys.stderr)
        print(
            f"FAIL: {len(drifted)} modeled phase time(s) drifted from the pre-refactor "
            "summit calibration (BENCH_fused.json model_times)",
            file=sys.stderr,
        )
        return 1
    checked = sum(1 for key in cells if key in committed_model)
    print(f"model-time calibration: OK ({checked} cells exact vs pre-refactor record)")

    # Gate 5: fig8/fig9 figure observables, replayed exactly.
    figures_bench = Path(args.figures_bench)
    if figures_bench.exists():
        from capture_bench_figures import capture

        committed_figures = json.loads(figures_bench.read_text())
        replayed = capture()
        fig_drift: list[str] = []
        for fig in ("fig8", "fig9"):
            for variant, expected in committed_figures.get(fig, {}).items():
                got = replayed.get(fig, {}).get(variant)
                if got is None:
                    fig_drift.append(f"{fig}/{variant}: missing from replay")
                    continue
                for metric, want in expected.items():
                    if got.get(metric) != want:
                        fig_drift.append(
                            f"{fig}/{variant}: {metric} modeled {got.get(metric)!r}, committed {want!r}"
                        )
        if fig_drift:
            for line in fig_drift:
                print(f"FAIL: {line}", file=sys.stderr)
            print(
                f"FAIL: {len(fig_drift)} figure observable(s) drifted from the committed "
                "BENCH_figures.json record (fig8 alltoallv / fig9 insertion rates)",
                file=sys.stderr,
            )
            return 1
        n_metrics = sum(
            len(v) for fig in ("fig8", "fig9") for v in committed_figures.get(fig, {}).values()
        )
        print(f"figure calibration: OK ({n_metrics} fig8/fig9 observables exact vs committed record)")
    else:
        print(f"figure calibration: {figures_bench} not found; gate skipped")

    substrate_label = " + ".join(substrates) if substrates else "no process substrate (no fork)"
    print(f"fused + spill + {substrate_label} identity: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
