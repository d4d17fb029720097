"""Cross-engine differential tests: parallel rank execution vs sequential.

The determinism contract (docs/MODEL.md "Parallel execution"): the worker
pool may only change wall-clock time, never any payload of the
:class:`CountResult` — spectra, per-rank model times, exchange volumes,
insert statistics.  These tests pin that contract for every pipeline
variant and world sizes 1-16, plus the pool/switch machinery itself.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.parallel import (
    ENV_VAR,
    ParallelSpec,
    ProcessPool,
    SequentialPool,
    ThreadPool,
    get_pool,
    parallel_map,
    resolve_spec,
    resolve_workers,
    shutdown_pools,
    substrate_kinds,
)
from repro.core.stages import scheduler
from repro.core.tracing import run_trace_payload, wall_trace_events
from repro.telemetry.spans import SpanRecorder
from repro.dna.datasets import load_dataset
from repro.gpu import segmented
from repro.mpi.collectives import alltoallv_segments
from repro.mpi.topology import ClusterSpec

from .conftest import assert_block_leaves_tile

pytestmark = pytest.mark.engines


@pytest.fixture(scope="module")
def reads():
    return load_dataset("ecoli30x", scale=0.15)


def _cluster(p: int) -> ClusterSpec:
    return ClusterSpec(name=f"test-{p}r", n_nodes=1, ranks_per_node=p)


def assert_results_identical(a, b):
    """Every payload of two CountResults must match bit for bit."""
    assert a.spectrum.equals(b.spectrum)
    assert a.timing == b.timing
    assert np.array_equal(a.per_rank_parse, b.per_rank_parse)
    assert np.array_equal(a.per_rank_count, b.per_rank_count)
    assert np.array_equal(a.received_kmers, b.received_kmers)
    assert np.array_equal(a.counts_matrix, b.counts_matrix)
    assert a.exchanged_items == b.exchanged_items
    assert a.exchanged_bytes == b.exchanged_bytes
    assert a.insert_stats == b.insert_stats
    assert a.mean_supermer_length == b.mean_supermer_length
    assert a.staging_seconds == b.staging_seconds
    assert a.alltoallv_seconds == b.alltoallv_seconds
    assert a.n_rounds_used == b.n_rounds_used
    assert a.load_stats() == b.load_stats()


class TestCrossEngineDifferential:
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("p", [1, 2, 8, 16])
    def test_parallel_matches_sequential(self, reads, backend, mode, p):
        config = PipelineConfig(k=17, mode=mode)
        cluster = _cluster(p)
        seq = run_pipeline(reads, cluster, config, backend=backend, options=EngineOptions(parallel=1))
        par = run_pipeline(reads, cluster, config, backend=backend, options=EngineOptions(parallel=4))
        assert_results_identical(seq, par)

    def test_parallel_matches_sequential_multi_round(self, reads):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=3)
        cluster = _cluster(6)
        seq = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=1))
        par = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=3))
        assert_results_identical(seq, par)
        assert seq.n_rounds_used == 3

    def test_parallel_matches_sequential_canonical(self, reads):
        config = PipelineConfig(k=17, mode="supermer", canonical=True)
        cluster = _cluster(5)
        seq = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=1))
        par = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=4))
        assert_results_identical(seq, par)

    def test_repeated_parallel_runs_are_stable(self, reads):
        """Thread scheduling across runs must not leak into any payload."""
        config = PipelineConfig(k=17, mode="supermer")
        cluster = _cluster(8)
        runs = [
            run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=4))
            for _ in range(3)
        ]
        for other in runs[1:]:
            assert_results_identical(runs[0], other)


class TestIncrementalCounterParallel:
    def test_batched_counting_matches_sequential(self, reads):
        """The incremental counter (the CLI `count` path) honours the same
        determinism contract as the engine."""
        from repro.core.incremental import DistributedCounter

        batches = reads.shard(3)
        counters = {}
        for setting in (1, 4):
            c = DistributedCounter(
                _cluster(6), PipelineConfig(k=17, mode="supermer"), backend="gpu",
                options=EngineOptions(parallel=setting),
            )
            for b in batches:
                c.add_reads(b)
            counters[setting] = c
        seq, par = counters[1], counters[4]
        assert seq.spectrum().equals(par.spectrum())
        assert seq.timing == par.timing
        assert np.array_equal(seq.received_kmers, par.received_kmers)
        assert seq.exchanged_items == par.exchanged_items
        assert seq.insert_stats == par.insert_stats


class TestSegmentPackingPool:
    def test_pooled_packing_matches_serial(self):
        rng = np.random.default_rng(7)
        p = 9
        send_data, send_counts = [], []
        for _src in range(p):
            counts = rng.integers(0, 40, size=p)
            send_counts.append(counts)
            send_data.append(rng.integers(0, 2**60, size=int(counts.sum())).astype(np.uint64))
        serial, cm1 = alltoallv_segments(send_data, send_counts)
        pooled, cm2 = alltoallv_segments(send_data, send_counts, pool=get_pool(4))
        assert np.array_equal(cm1, cm2)
        for d in range(p):
            assert np.array_equal(serial[d], pooled[d])


class TestPoolMachinery:
    def test_resolve_workers_vocabulary(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers("off") == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(6) == 6
        assert resolve_workers("6") == 6
        assert resolve_workers("auto") >= 1
        assert resolve_workers(True) >= 1
        assert resolve_workers(False) == 1
        with pytest.raises(ValueError):
            resolve_workers("sideways")

    def test_env_variable_drives_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "5")
        assert resolve_workers(None) == 5
        pool = get_pool(None)
        assert pool.workers == 5
        monkeypatch.setenv(ENV_VAR, "off")
        assert isinstance(get_pool(None), SequentialPool)

    def test_explicit_setting_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        assert resolve_workers(2) == 2

    def test_map_preserves_order(self):
        items = list(range(64))
        assert parallel_map(lambda x: x * x, items, setting=4) == [x * x for x in items]
        assert SequentialPool().map(lambda x: -x, items) == [-x for x in items]

    def test_pool_cache_reuses_instances(self):
        assert get_pool(3) is get_pool(3)
        assert get_pool(0) is get_pool("off")

    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 5:
                raise ValueError("item 5")
            return x

        with pytest.raises(ValueError, match="item 5"):
            parallel_map(boom, range(8), setting=4)

    def test_worker_exception_waits_for_every_chunk(self):
        """Nothing still runs once a raise surfaces: the caller's cleanup may remove what closures write to."""
        import threading
        import time

        finished = []
        started = threading.Barrier(2)

        def slow_or_boom(x):
            started.wait(timeout=5)  # both chunks are running before either ends
            if x == 0:
                raise ValueError("item 0")
            time.sleep(0.2)
            finished.append(x)
            return x

        with pytest.raises(ValueError, match="item 0"):
            ThreadPool(2).map(slow_or_boom, range(2))
        assert finished == [1]

    def test_threadpool_rejects_single_worker(self):
        with pytest.raises(ValueError):
            ThreadPool(1)

    def test_resolve_spec_vocabulary(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_spec(None) == ParallelSpec("seq", 1)
        assert resolve_spec("thread:3") == ParallelSpec("thread", 3)
        assert resolve_spec("threads:3") == ParallelSpec("thread", 3)
        assert resolve_spec("process:2") == ParallelSpec("process", 2)
        assert resolve_spec("processes:2") == ParallelSpec("process", 2)
        assert resolve_spec(4) == ParallelSpec("thread", 4)
        # A one-worker request of any kind collapses to the sequential spec.
        assert resolve_spec("process:1") == ParallelSpec("seq", 1)
        auto = resolve_spec("process")
        assert auto.kind in ("process", "seq") and auto.workers >= 1

    def test_substrate_registry_lists_builtins(self):
        kinds = substrate_kinds()
        assert {"seq", "thread", "process"} <= set(kinds)

    def test_env_error_names_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sideways")
        with pytest.raises(ValueError, match="unrecognized REPRO_PARALLEL setting"):
            resolve_workers(None)

    def test_explicit_error_names_argument(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "4")
        with pytest.raises(ValueError, match=r"parallel= setting") as exc:
            resolve_workers("sideways")
        assert "EngineOptions" in str(exc.value)
        assert "not the REPRO_PARALLEL environment variable" in str(exc.value)

    def test_unknown_substrate_kind(self):
        with pytest.raises(ValueError, match="no execution substrate registered"):
            get_pool(ParallelSpec("fiber", 4))


requires_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process substrate needs os.fork"
)


@requires_fork
class TestProcessPoolMachinery:
    def test_map_preserves_order(self):
        pool = get_pool("process:2")
        assert isinstance(pool, ProcessPool)
        items = list(range(37))
        assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    def test_large_array_roundtrip(self):
        pool = get_pool("process:2")
        arrays = pool.map(
            lambda n: np.arange(n, dtype=np.uint64) * np.uint64(3), [50_000, 70_000, 90_000]
        )
        for n, arr in zip([50_000, 70_000, 90_000], arrays):
            assert arr.dtype == np.uint64 and arr.shape == (n,)
            assert int(arr[-1]) == (n - 1) * 3

    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 5:
                raise ValueError("item 5")
            return x

        with pytest.raises(ValueError, match="item 5"):
            get_pool("process:2").map(boom, range(8))
        # The pool must remain usable after a failed map.
        assert get_pool("process:2").map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError):
            ProcessPool(1)

    def test_shutdown_pools_allows_reuse(self):
        first = get_pool("process:2")
        shutdown_pools()
        again = get_pool("process:2")
        assert again is not first
        assert again.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]

    def test_engine_process_matches_sequential(self, reads):
        config = PipelineConfig(k=17, mode="supermer")
        cluster = _cluster(6)
        seq = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(parallel=1))
        par = run_pipeline(
            reads, cluster, config, backend="gpu", options=EngineOptions(parallel="process:2")
        )
        assert_results_identical(seq, par)

    def test_process_span_recorder(self, reads, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)  # two of the six ranks per block
        monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", 1 << 17)  # three of the six shards per block
        rec = SpanRecorder()
        p = 6
        run_pipeline(
            reads,
            _cluster(p),
            PipelineConfig(k=17, mode="supermer"),
            backend="gpu",
            options=EngineOptions(parallel="process:2", trace=rec),
        )
        assert 1 < len(rec.spans("parse")) < p  # one leaf per parse block, shipped back from the workers
        assert 1 < len(rec.spans("count")) < p  # one leaf per rank block, shipped back from the workers
        assert_block_leaves_tile(rec.spans("parse"), p)
        assert_block_leaves_tile(rec.spans("count"), p)


class TestWallClockRecorder:
    """Wall-clock work leaves: the flat view of the engine's one ``SpanRecorder``."""

    def test_engine_records_spans(self, reads, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)  # two of the six ranks per block
        monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", 1 << 17)  # three of the six shards per block
        rec = SpanRecorder()
        p = 6
        run_pipeline(
            reads,
            _cluster(p),
            PipelineConfig(k=17, mode="supermer"),
            backend="gpu",
            options=EngineOptions(parallel=3, trace=rec),
        )
        assert 1 < len(rec.spans("parse")) < p  # one leaf per block of whole shards
        assert 1 < len(rec.spans("count")) < p  # one leaf per rank block
        assert_block_leaves_tile(rec.spans("parse"), p)
        assert_block_leaves_tile(rec.spans("count"), p)
        assert all(s.end_s >= s.start_s for s in rec.spans())
        assert rec.busy_seconds() > 0
        assert rec.overlap_factor() >= 1.0 or rec.elapsed_seconds() == 0

    def test_multi_round_span_labels(self, reads):
        rec = SpanRecorder()
        run_pipeline(
            reads,
            _cluster(4),
            PipelineConfig(k=17, n_rounds=2),
            backend="gpu",
            options=EngineOptions(parallel=2, trace=rec),
        )
        assert "count-round0" in rec.phases() and "count-round1" in rec.phases()

    def test_wall_trace_export(self, reads):
        rec = SpanRecorder()
        run_pipeline(
            reads,
            _cluster(4),
            PipelineConfig(k=17),
            backend="cpu",
            options=EngineOptions(parallel=2, trace=rec),
        )
        events = wall_trace_events(rec)
        assert any(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0.0
        payload = run_trace_payload(rec)
        assert payload["metadata"]["wall"]["busy_seconds"] > 0
        assert [e for e in payload["traceEvents"] if e["pid"] == 1] == events

    def test_empty_recorder(self):
        rec = SpanRecorder()
        assert rec.spans() == []
        # Neutral concurrency on an empty recorder: ratio consumers must
        # never divide by zero or see a bogus 0x overlap.
        assert rec.overlap_factor() == 1.0
        assert wall_trace_events(rec) == []
