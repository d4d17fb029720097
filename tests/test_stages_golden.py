"""Golden differential suite: the staged pipeline vs the pre-refactor engine.

``tests/golden/engine_golden.json`` was recorded by
``tools/capture_golden.py`` against the monolithic pre-refactor engine
(commit 766892f).  These tests replay the same case matrix on the staged
execution core and require every bit-identity-relevant field to match
exactly: spectrum hashes, model phase timings, per-rank arrays, traffic
accounting, insert statistics, and the telemetry model-metric snapshot.

Also proves checkpoint/resume through the round scheduler is equivalent to
an uninterrupted streamed run (the scheduler now owns checkpointing), and
pins the model clock of the paper's figures at full scale
(``tests/golden/model_cells.json``, :class:`TestModelCellsGolden`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.spmd import count_spmd
from repro.mpi.topology import summit_gpu
from repro.telemetry import MetricRegistry

from .golden_cases import (
    COUNTER_CASES,
    ENGINE_CASES,
    GOLDEN_PATH,
    MODEL_CASES,
    MODEL_GOLDEN_PATH,
    MODEL_STAGED_ONLY_CASES,
    MODEL_STRATEGY_CASES,
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

pytestmark = pytest.mark.engines


@pytest.fixture(scope="module")
def golden() -> dict:
    path = Path(__file__).resolve().parent.parent / GOLDEN_PATH
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def reads():
    return golden_reads()


def _assert_same(expected: dict, actual: dict, context: str) -> None:
    for key in expected:
        assert actual[key] == expected[key], f"{context}: field {key!r} diverged from golden"


class TestEngineGolden:
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_engine_case_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(**case["options"]),
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"engine[{name}]")

    @pytest.mark.parametrize("name", TELEMETRY_CASES)
    def test_telemetry_model_metrics_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        registry = MetricRegistry()
        run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(telemetry=registry, **case["options"]),
        )
        assert snapshot_digest(registry) == golden["telemetry"][name], f"telemetry[{name}] diverged"


class TestCounterGolden:
    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_counter_case_bit_identical(self, golden, name):
        case = COUNTER_CASES[name]
        counter = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"]
        )
        for batch in batch_reads():
            counter.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(counter), f"counter[{name}]")

    @pytest.mark.parametrize("cut", [1, 2], ids=["cut1", "cut2"])
    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_checkpoint_resume_mid_stream_equivalent(self, golden, name, cut, tmp_path):
        """Save after batch 1 or 2 of 3, resume in a fresh counter: the whole golden."""
        case = COUNTER_CASES[name]
        batches = batch_reads()
        first = DistributedCounter(summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"])
        for batch in batches[:cut]:
            first.add_reads(batch)
        ckpt = first.save(tmp_path / "mid.npz")

        resumed = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"]
        )
        resumed.load(ckpt)
        assert resumed.n_batches == cut
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(resumed), f"counter-resume[{name}]")


class TestFusedGolden:
    """The fused exchange must match the same golden records.

    Same case matrix, same expected fields, but executed with
    ``EngineOptions(fused=True)`` — proving the exchange gathered straight
    out of the send array is bit-identical to the staged path all the way
    back to the pre-refactor engine.
    """

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_engine_case_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(fused=True, **case["options"]),
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"fused-engine[{name}]")

    @pytest.mark.parametrize("name", TELEMETRY_CASES)
    def test_telemetry_model_metrics_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        registry = MetricRegistry()
        run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(telemetry=registry, fused=True, **case["options"]),
        )
        assert snapshot_digest(registry) == golden["telemetry"][name], f"fused-telemetry[{name}] diverged"

    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_counter_case_bit_identical(self, golden, name):
        case = COUNTER_CASES[name]
        counter = DistributedCounter(
            summit_gpu(1),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(fused=True),
        )
        for batch in batch_reads():
            counter.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(counter), f"fused-counter[{name}]")

    @pytest.mark.parametrize("cut", [1, 2], ids=["cut1", "cut2"])
    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_checkpoint_resume_mid_stream_equivalent(self, golden, name, cut, tmp_path):
        """Fused save after batch 1 or 2 of 3, fused resume: the whole golden."""
        case = COUNTER_CASES[name]
        batches = batch_reads()
        opts = EngineOptions(fused=True)
        first = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts
        )
        for batch in batches[:cut]:
            first.add_reads(batch)
        ckpt = first.save(tmp_path / "mid-fused.npz")

        resumed = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts
        )
        resumed.load(ckpt)
        assert resumed.n_batches == cut
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(resumed), f"fused-counter-resume[{name}]")

    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_staged_to_fused_adoption_mid_stream(self, golden, name):
        """Batch 1 staged, batches 2-3 fused via from_tables: same golden."""
        case = COUNTER_CASES[name]
        batches = batch_reads()
        counter = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"]
        )
        counter.add_reads(batches[0])
        counter._scheduler.opts = EngineOptions(fused=True)  # switch paths mid-stream
        for batch in batches[1:]:
            counter.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(counter), f"fused-adopt[{name}]")


class TestFusedSpillGolden:
    """Blocked fused×spill must replay the same golden records.

    ``EngineOptions(fused=True, spill_dir=...)`` streams the fused
    supersteps' send buffers through disk partitions and counts them into
    the segmented table one rank block at a time — and still has to match
    the pre-refactor engine bit for bit, with or without the mmap-backed
    table slabs (``table_dir``).
    """

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_engine_case_bit_identical(self, golden, reads, name, tmp_path):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(fused=True, spill_dir=tmp_path, **case["options"]),
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"fused-spill-engine[{name}]")

    @pytest.mark.parametrize("name", TELEMETRY_CASES)
    def test_telemetry_model_metrics_bit_identical(self, golden, reads, name, tmp_path):
        case = ENGINE_CASES[name]
        registry = MetricRegistry()
        run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(telemetry=registry, fused=True, spill_dir=tmp_path, **case["options"]),
        )
        assert snapshot_digest(registry) == golden["telemetry"][name], (
            f"fused-spill-telemetry[{name}] diverged"
        )

    @pytest.mark.parametrize("name", ("gpu-kmer", "gpu-supermer-m7"))
    def test_mmap_table_case_bit_identical(self, golden, reads, name, tmp_path):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(
                fused=True,
                spill_dir=tmp_path / "spool",
                table_dir=tmp_path / "table",
                **case["options"],
            ),
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"mmap-table-engine[{name}]")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="process substrate needs os.fork")
    @pytest.mark.parametrize("name", ("gpu-kmer", "gpu-supermer-m7"))
    def test_process_substrate_case_bit_identical(self, golden, reads, name, tmp_path):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(
                fused=True, spill_dir=tmp_path, parallel="process:2", **case["options"]
            ),
        )
        _assert_same(
            golden["engine"][name], summarize_result(result), f"process-fused-spill[{name}]"
        )

    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_counter_case_bit_identical(self, golden, name, tmp_path):
        case = COUNTER_CASES[name]
        counter = DistributedCounter(
            summit_gpu(1),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(fused=True, spill_dir=tmp_path),
        )
        for batch in batch_reads():
            counter.add_reads(batch)
        _assert_same(
            golden["counter"][name], summarize_counter(counter), f"fused-spill-counter[{name}]"
        )

    @pytest.mark.parametrize("cut", [1, 2], ids=["cut1", "cut2"])
    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_checkpoint_resume_mid_stream_equivalent(self, golden, name, cut, tmp_path):
        """Fused×spill save after batch 1 or 2 of 3, resume: the whole golden."""
        case = COUNTER_CASES[name]
        batches = batch_reads()
        opts = lambda sub: EngineOptions(fused=True, spill_dir=tmp_path / sub)  # noqa: E731
        first = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts("a")
        )
        for batch in batches[:cut]:
            first.add_reads(batch)
        ckpt = first.save(tmp_path / "mid-fused-spill.npz")

        resumed = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts("b")
        )
        resumed.load(ckpt)
        assert resumed.n_batches == cut
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(resumed), f"fused-spill-counter-resume[{name}]")


class TestModelCellsGolden:
    """The model clock of the paper's figures, pinned to exact floats.

    ``tests/golden/model_cells.json`` holds full-scale Table I cells — the
    twelve Fig. 6 bars, Fig. 8's alltoallv seconds and speedups, Fig. 9's
    compute seconds and insertion rates.  Modeled seconds are deterministic
    functions of the data and the Summit calibration, so any difference,
    float-level included, means the presets no longer encode the paper's
    machine — or a strategy left the bit-identity contract at full scale.
    The substrate is whatever ``REPRO_PARALLEL`` selects (the CI engines and
    substrates jobs replay this class on the thread and process pools).
    """

    ALL_CASES = MODEL_CASES | MODEL_STAGED_ONLY_CASES

    @pytest.fixture(scope="class")
    def model_golden(self) -> dict:
        path = Path(__file__).resolve().parent.parent / MODEL_GOLDEN_PATH
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def staged(self):
        """Staged results by case name, run once (Fig. 8 cells need their baseline)."""
        results: dict = {None: None}  # a cell without a baseline

        def get(name: str | None):
            if name not in results:
                results[name] = run_model_case(self.ALL_CASES[name])
            return results[name]

        return get

    def test_record_covers_exactly_the_case_matrix(self, model_golden):
        assert sorted(model_golden) == sorted(self.ALL_CASES)

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_staged_cell_bit_identical(self, model_golden, staged, name):
        summary = summarize_model_cell(staged(name), staged(self.ALL_CASES[name]["baseline"]))
        _assert_same(model_golden[name], summary, f"model[{name}]")

    @pytest.mark.parametrize("strategy", ("fused", "spill", "fused-spill"))
    @pytest.mark.parametrize("name", MODEL_STRATEGY_CASES)
    def test_strategy_cell_bit_identical(self, model_golden, staged, name, strategy, tmp_path):
        options: dict = {"fused": True} if "fused" in strategy else {}
        if "spill" in strategy:
            options["spill_dir"] = tmp_path
        result = run_model_case(MODEL_CASES[name], **options)
        summary = summarize_model_cell(result, staged(MODEL_CASES[name]["baseline"]))
        _assert_same(model_golden[name], summary, f"{strategy}-model[{name}]")


class TestSpmdGolden:
    @pytest.mark.parametrize("name", sorted(SPMD_CASES))
    def test_spmd_case_bit_identical(self, golden, reads, name):
        case = SPMD_CASES[name]
        spectrum = count_spmd(reads, case["n_ranks"], PipelineConfig(**case["config"]))
        assert spectrum_digest(spectrum) == golden["spmd"][name], f"spmd[{name}] diverged"


class TestTracedGolden:
    """Tracing on (``EngineOptions(trace=True)``) must not move a single bit.

    Same golden records, same case matrix, with the hierarchical span
    recorder threaded through the run — spans carry host timestamps only,
    so every deterministic observable must still match the pre-refactor
    engine exactly.
    """

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_engine_case_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        options = EngineOptions(trace=True, **case["options"])
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=options,
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"traced-engine[{name}]")
        assert len(options.trace) > 0  # the run actually recorded spans

    @pytest.mark.parametrize("name", TELEMETRY_CASES)
    def test_telemetry_model_metrics_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        registry = MetricRegistry()
        run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(telemetry=registry, trace=True, **case["options"]),
        )
        assert snapshot_digest(registry) == golden["telemetry"][name], (
            f"traced-telemetry[{name}] diverged"
        )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="process substrate needs os.fork")
class TestProcessGolden:
    """The process substrate must replay the whole golden matrix bit for bit.

    Same cases, same expected records, but every per-rank phase runs in
    forked worker processes (``EngineOptions(parallel="process:2")``) with
    results shipped back through shared memory — proving that crossing a
    process boundary moves no deterministic observable: staged, fused, and
    spilled engines, streamed counter batches, checkpoint/resume, and the
    model-metric telemetry snapshot all still match the sequential golden.
    """

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_engine_case_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(parallel="process:2", **case["options"]),
        )
        _assert_same(golden["engine"][name], summarize_result(result), f"process-engine[{name}]")

    @pytest.mark.parametrize("name", TELEMETRY_CASES)
    def test_telemetry_model_metrics_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        registry = MetricRegistry()
        run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(telemetry=registry, parallel="process:2", **case["options"]),
        )
        assert snapshot_digest(registry) == golden["telemetry"][name], (
            f"process-telemetry[{name}] diverged"
        )

    @pytest.mark.parametrize("name", ("gpu-kmer", "gpu-supermer-m7"))
    def test_fused_case_bit_identical(self, golden, reads, name):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(fused=True, parallel="process:2", **case["options"]),
        )
        _assert_same(
            golden["engine"][name], summarize_result(result), f"process-fused[{name}]"
        )

    @pytest.mark.parametrize("name", ("gpu-kmer", "gpu-supermer-m7"))
    def test_spill_case_bit_identical(self, golden, reads, name, tmp_path):
        case = ENGINE_CASES[name]
        result = run_pipeline(
            reads,
            build_cluster(*case["cluster"]),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(spill_dir=tmp_path, parallel="process:2", **case["options"]),
        )
        _assert_same(
            golden["engine"][name], summarize_result(result), f"process-spill[{name}]"
        )

    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_counter_case_bit_identical(self, golden, name):
        case = COUNTER_CASES[name]
        counter = DistributedCounter(
            summit_gpu(1),
            PipelineConfig(**case["config"]),
            backend=case["backend"],
            options=EngineOptions(parallel="process:2"),
        )
        for batch in batch_reads():
            counter.add_reads(batch)
        _assert_same(
            golden["counter"][name], summarize_counter(counter), f"process-counter[{name}]"
        )

    @pytest.mark.parametrize("cut", [1, 2], ids=["cut1", "cut2"])
    @pytest.mark.parametrize("name", sorted(COUNTER_CASES))
    def test_checkpoint_resume_mid_stream_equivalent(self, golden, name, cut, tmp_path):
        """Process-substrate save after batch 1 or 2 of 3, resume: the whole golden."""
        case = COUNTER_CASES[name]
        batches = batch_reads()
        opts = EngineOptions(parallel="process:2")
        first = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts
        )
        for batch in batches[:cut]:
            first.add_reads(batch)
        ckpt = first.save(tmp_path / "mid-process.npz")

        resumed = DistributedCounter(
            summit_gpu(1), PipelineConfig(**case["config"]), backend=case["backend"], options=opts
        )
        resumed.load(ckpt)
        assert resumed.n_batches == cut
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        _assert_same(golden["counter"][name], summarize_counter(resumed), f"process-counter-resume[{name}]")
