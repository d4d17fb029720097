"""Record the golden fixture for the staged-pipeline differential suite.

Run from the repo root with ``PYTHONPATH=src:. python tools/capture_golden.py``.
The committed ``tests/golden/engine_golden.json`` was captured against the
*pre-refactor* engine (commit with the monolithic ``run_pipeline``), so the
suite in ``tests/test_stages_golden.py`` proves the staged execution core is
bit-identical to the original.  ``tests/golden/model_cells.json`` is the
model-clock pin of the paper's figures (``MODEL_CASES``: full-scale Table I
cells behind Figs. 6, 8, 9); its floats were first checked equal to the
``BENCH_fused.json`` / ``BENCH_figures.json`` records it replaced.  Re-run
this tool only when a change is *intended* to alter model outputs, and say so
in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.spmd import count_spmd
from repro.mpi.topology import summit_gpu
from repro.telemetry import MetricRegistry

from tests.golden_cases import (
    COUNTER_CASES,
    ENGINE_CASES,
    GOLDEN_PATH,
    MODEL_CASES,
    MODEL_GOLDEN_PATH,
    MODEL_STAGED_ONLY_CASES,
    SPMD_CASES,
    TELEMETRY_CASES,
    batch_reads,
    build_cluster,
    golden_reads,
    run_model_case,
    snapshot_digest,
    spectrum_digest,
    summarize_counter,
    summarize_model_cell,
    summarize_result,
)


def _write(path: str, record: dict) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


def main() -> None:
    reads = golden_reads()
    golden: dict[str, dict] = {"engine": {}, "telemetry": {}, "counter": {}, "spmd": {}}

    for name, case in ENGINE_CASES.items():
        cluster = build_cluster(*case["cluster"])
        config = PipelineConfig(**case["config"])
        options = EngineOptions(**case["options"])
        result = run_pipeline(reads, cluster, config, backend=case["backend"], options=options)
        golden["engine"][name] = summarize_result(result)
        print(f"engine {name}: {result.spectrum.n_distinct} distinct, total_s={result.timing.total:.6f}")

    for name in TELEMETRY_CASES:
        case = ENGINE_CASES[name]
        cluster = build_cluster(*case["cluster"])
        config = PipelineConfig(**case["config"])
        registry = MetricRegistry()
        options = EngineOptions(telemetry=registry, **case["options"])
        run_pipeline(reads, cluster, config, backend=case["backend"], options=options)
        golden["telemetry"][name] = snapshot_digest(registry)
        print(f"telemetry {name}: {golden['telemetry'][name][:16]}")

    batches = batch_reads()
    for name, case in COUNTER_CASES.items():
        counter = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"]
        )
        for batch in batches:
            counter.add_reads(batch)
        golden["counter"][name] = summarize_counter(counter)
        print(f"counter {name}: {counter.total_kmers} kmers over {counter.n_batches} batches")

    for name, case in SPMD_CASES.items():
        spectrum = count_spmd(reads, case["n_ranks"], PipelineConfig(**case["config"]))
        golden["spmd"][name] = spectrum_digest(spectrum)
        print(f"spmd {name}: {spectrum.n_distinct} distinct")

    _write(GOLDEN_PATH, golden)

    cases = MODEL_CASES | MODEL_STAGED_ONLY_CASES
    results = {name: run_model_case(case) for name, case in cases.items()}
    cells = {}
    for name, case in cases.items():
        cells[name] = summarize_model_cell(results[name], results.get(case["baseline"]))
        print(f"model {name}: total_s={results[name].timing.total!r}")
    _write(MODEL_GOLDEN_PATH, cells)


if __name__ == "__main__":
    main()
