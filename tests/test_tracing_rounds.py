"""Tests for trace export and memory-bounded automatic rounds."""

from __future__ import annotations

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.kmers.spectrum import count_kmers_exact
from repro.machines import get_machine, v100
from repro.mpi.topology import summit_gpu
from repro.telemetry import trace_events, write_run_trace


@pytest.fixture(scope="module")
def result(genome_reads):
    return run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))


class TestTraceEvents:
    def test_phases_present(self, result):
        events = trace_events(result)
        names = {e["name"] for e in events}
        assert {"parse", "exchange", "count", "thread_name"} <= names

    def test_span_count(self, result):
        events = trace_events(result)
        p = result.cluster.n_ranks
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 3 * p  # parse + exchange + count per rank

    def test_phase_ordering_in_time(self, result):
        events = {("parse", 0): None, ("exchange", 0): None, ("count", 0): None}
        for e in trace_events(result):
            if e["ph"] == "X" and e["tid"] == 0:
                events[(e["name"], 0)] = e
        parse, exch, count = events[("parse", 0)], events[("exchange", 0)], events[("count", 0)]
        assert parse["ts"] == 0
        assert exch["ts"] >= parse["ts"] + parse["dur"] - 1e-6
        assert count["ts"] >= exch["ts"] + exch["dur"] - 1e-6

    def test_max_ranks_caps_rows_but_keeps_critical_path(self, genome_reads):
        big = run_pipeline(genome_reads, summit_gpu(8), PipelineConfig(k=17))
        events = trace_events(big, max_ranks=10)
        tids = {e["tid"] for e in events}
        assert len(tids) <= 12
        assert int(big.per_rank_count.argmax()) in tids

    def test_durations_microseconds(self, result):
        events = [e for e in events_list(result) if e["name"] == "exchange"]
        assert events[0]["dur"] == pytest.approx(result.timing.exchange * 1e6)

    def test_write_run_trace_of_model_timeline(self, result, tmp_path):
        """The model timeline alone is a valid run trace (no recorder)."""
        path = write_run_trace(tmp_path / "run.json", None, result=result)
        payload = json.loads(path.read_text())
        assert payload["traceEvents"] == trace_events(result)
        assert payload["metadata"]["run"]["backend"] == "gpu"
        assert payload["metadata"]["phases"]["total_s"] == pytest.approx(result.timing.total)


def events_list(result):
    return trace_events(result)


def tiny_machine(hbm_bytes: int):
    """``summit-gpu`` with a device of ``hbm_bytes`` HBM, so auto rounds split."""
    return get_machine("summit-gpu").with_overrides(device=v100().with_overrides(hbm_bytes=hbm_bytes))


class TestAutoRounds:
    def test_tiny_device_forces_rounds(self, genome_reads):
        opts = EngineOptions(machine=tiny_machine(1 * 1024**2), auto_rounds=True, work_multiplier=50.0)
        result = run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=17), options=opts)
        assert result.n_rounds_used > 1
        result.validate_against(count_kmers_exact(genome_reads, 17))

    def test_big_device_single_round(self, genome_reads):
        opts = EngineOptions(auto_rounds=True)
        result = run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=17), options=opts)
        assert result.n_rounds_used == 1

    def test_auto_rounds_respects_explicit_minimum(self, genome_reads):
        opts = EngineOptions(auto_rounds=True)
        result = run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=17, n_rounds=3), options=opts)
        assert result.n_rounds_used >= 3

    def test_cpu_backend_ignores_auto_rounds(self, genome_reads):
        from repro.mpi.topology import summit_cpu

        opts = EngineOptions(machine=tiny_machine(1 * 1024**2), auto_rounds=True, work_multiplier=50.0)
        result = run_pipeline(genome_reads, summit_cpu(1), PipelineConfig(k=17), backend="cpu", options=opts)
        assert result.n_rounds_used == 1

    def test_budget_fraction_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(memory_budget_fraction=0)

    def test_more_rounds_with_tighter_budget(self, genome_reads):
        tiny = tiny_machine(4 * 1024**2)
        loose = run_pipeline(
            genome_reads,
            summit_gpu(1),
            PipelineConfig(k=17),
            options=EngineOptions(machine=tiny, auto_rounds=True, work_multiplier=100.0, memory_budget_fraction=1.0),
        )
        tight = run_pipeline(
            genome_reads,
            summit_gpu(1),
            PipelineConfig(k=17),
            options=EngineOptions(
                machine=tiny, auto_rounds=True, work_multiplier=100.0, memory_budget_fraction=0.25
            ),
        )
        assert tight.n_rounds_used >= loose.n_rounds_used
        assert tight.n_rounds_used > 1
