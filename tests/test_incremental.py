"""Tests for incremental counting and checkpoint/resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.incremental import DistributedCounter
from repro.dna.reads import ReadSet
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu


@pytest.fixture(scope="module")
def batches(genome_reads):
    """The genome read set split into three streaming batches."""
    n = genome_reads.n_reads
    idx = list(range(n))
    return [
        genome_reads.select(idx[: n // 3]),
        genome_reads.select(idx[n // 3 : 2 * n // 3]),
        genome_reads.select(idx[2 * n // 3 :]),
    ]


class TestIncrementalCounting:
    def test_batches_equal_single_shot(self, genome_reads, batches):
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        for batch in batches:
            counter.add_reads(batch)
        assert counter.spectrum().equals(count_kmers_exact(genome_reads, 17))
        assert counter.n_batches == 3
        assert counter.total_kmers == count_kmers_exact(genome_reads, 17).n_total

    def test_supermer_mode(self, genome_reads, batches):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        counter = DistributedCounter(summit_gpu(2), cfg)
        for batch in batches:
            counter.add_reads(batch)
        assert counter.spectrum().equals(count_kmers_exact(genome_reads, 17))

    def test_timing_accumulates(self, batches):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        t1 = counter.add_reads(batches[0])
        total_after_one = counter.timing.total
        counter.add_reads(batches[1])
        assert counter.timing.total > total_after_one
        assert t1.total <= counter.timing.total

    def test_cpu_backend(self, batches):
        from repro.mpi.topology import summit_cpu

        counter = DistributedCounter(summit_cpu(1), PipelineConfig(k=17), backend="cpu")
        counter.add_reads(batches[0])
        partial = count_kmers_exact(batches[0], 17)
        assert counter.spectrum().equals(partial)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            DistributedCounter(summit_gpu(1), backend="fpga")

    def test_empty_batch(self):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(ReadSet.empty())
        assert counter.total_kmers == 0


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, genome_reads, batches, tmp_path):
        cfg = PipelineConfig(k=17)
        cluster = summit_gpu(2)

        # Uninterrupted run.
        full = DistributedCounter(cluster, cfg)
        for batch in batches:
            full.add_reads(batch)

        # Interrupted after batch 1, checkpointed, resumed in a new counter.
        first = DistributedCounter(cluster, cfg)
        first.add_reads(batches[0])
        ckpt = first.save(tmp_path / "state.npz")

        resumed = DistributedCounter(cluster, cfg)
        resumed.load(ckpt)
        assert resumed.n_batches == 1
        for batch in batches[1:]:
            resumed.add_reads(batch)

        assert resumed.spectrum().equals(full.spectrum())
        assert np.array_equal(resumed.received_kmers, full.received_kmers)
        assert resumed.exchanged_items == full.exchanged_items

    def test_timing_restored(self, batches, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        other = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        other.load(path)
        assert other.timing.total == pytest.approx(counter.timing.total)

    def test_k_mismatch_rejected(self, batches, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        wrong = DistributedCounter(summit_gpu(1), PipelineConfig(k=19))
        with pytest.raises(ValueError, match="k="):
            wrong.load(path)

    def test_rank_mismatch_rejected(self, batches, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        wrong = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        with pytest.raises(ValueError, match="ranks"):
            wrong.load(path)

    def test_checkpoint_empty_counter(self, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        path = counter.save(tmp_path / "empty.npz")
        other = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        other.load(path)
        assert other.total_kmers == 0

    def test_suffixless_path_round_trips(self, batches, tmp_path):
        """Regression: numpy appended ``.npz`` to the name, so the returned
        path did not exist and ``repro count --checkpoint ckpt`` never resumed."""
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "ckpt")
        assert path == tmp_path / "ckpt" and [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        other = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        other.load(path)
        assert other.spectrum().equals(counter.spectrum())

    def test_failed_save_keeps_the_previous_checkpoint(self, batches, tmp_path, monkeypatch):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        before = counter.spectrum()
        counter.add_reads(batches[1])

        def short_write(file, **arrays):
            (file if hasattr(file, "write") else open(file, "wb")).write(b"PK\x03\x04 truncated")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez_compressed", short_write)
        with pytest.raises(OSError, match="No space left"):
            counter.save(path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]  # no temp file left behind
        other = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        other.load(path)
        assert other.n_batches == 1 and other.spectrum().equals(before)


class TestCheckpointAccounting:
    """Regression: checkpoint v1 dropped insert_stats and the traffic log,
    so a resumed run under-reported both.  Version 2 persists them."""

    @pytest.mark.parametrize("fused", [False, None], ids=["staged", "default"])
    def test_resume_reproduces_full_accounting(self, batches, tmp_path, fused):
        from repro.core.engine import EngineOptions

        cfg = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        opts = EngineOptions(fused=fused)

        full = DistributedCounter(cluster, cfg, options=opts)
        for batch in batches:
            full.add_reads(batch)

        first = DistributedCounter(cluster, cfg, options=opts)
        first.add_reads(batches[0])
        ckpt = first.save(tmp_path / "state.npz")
        resumed = DistributedCounter(cluster, cfg, options=opts)
        resumed.load(ckpt)
        for batch in batches[1:]:
            resumed.add_reads(batch)

        assert resumed.spectrum().equals(full.spectrum())
        assert resumed.insert_stats == full.insert_stats
        assert resumed.timing == full.timing
        assert np.array_equal(resumed.received_kmers, full.received_kmers)
        assert len(resumed.traffic.records) == len(full.traffic.records)
        for a, b in zip(resumed.traffic.records, full.traffic.records):
            assert a.op == b.op and a.label == b.label
            assert np.array_equal(a.bytes_matrix, b.bytes_matrix)
            assert (a.items_matrix is None) == (b.items_matrix is None)
            if a.items_matrix is not None:
                assert np.array_equal(a.items_matrix, b.items_matrix)

    def test_fused_resume_reproduces_full_accounting(self, batches, tmp_path):
        from repro.core.engine import EngineOptions

        cfg = PipelineConfig(k=17)
        cluster = summit_gpu(2)
        opts = EngineOptions(fused=True)
        full = DistributedCounter(cluster, cfg, options=opts)
        for batch in batches:
            full.add_reads(batch)
        first = DistributedCounter(cluster, cfg, options=opts)
        first.add_reads(batches[0])
        ckpt = first.save(tmp_path / "state.npz")
        resumed = DistributedCounter(cluster, cfg, options=opts)
        resumed.load(ckpt)
        for batch in batches[1:]:
            resumed.add_reads(batch)
        assert resumed.spectrum().equals(full.spectrum())
        assert resumed.insert_stats == full.insert_stats
        assert len(resumed.traffic.records) == len(full.traffic.records)

    def test_version_1_checkpoint_still_loads(self, batches, tmp_path):
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "v2.npz")

        # Rewrite the file as a version-1 checkpoint: the layout that
        # predates the insert-stats/traffic payload.
        with np.load(path) as data:
            payload = {
                key: data[key]
                for key in data.files
                if key != "insert_stats" and not key.startswith("traffic_")
            }
        payload["version"] = np.array([1])
        v1_path = tmp_path / "v1.npz"
        np.savez_compressed(v1_path, **payload)

        resumed = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        resumed.load(v1_path)
        assert resumed.spectrum().equals(counter.spectrum())
        assert resumed.timing == counter.timing
        # v1 never carried stats: they come back zeroed/empty, not garbage.
        assert resumed.insert_stats.n_instances == 0
        assert len(resumed.traffic.records) == 0

    def test_load_resets_stale_accounting(self, batches, tmp_path):
        """Regression: load() kept the in-object insert_stats/traffic of the
        current run, splicing one run's accounting onto another's tables."""
        fresh = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        path = fresh.save(tmp_path / "empty.npz")

        dirty = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        dirty.add_reads(batches[0])
        assert dirty.insert_stats.n_instances > 0
        assert len(dirty.traffic.records) > 0
        dirty.load(path)
        assert dirty.insert_stats.n_instances == 0
        assert len(dirty.traffic.records) == 0
        assert dirty.total_kmers == 0

    def test_unsupported_version_rejected(self, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        path = counter.save(tmp_path / "c.npz")
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["version"] = np.array([99])
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **payload)
        with pytest.raises(ValueError, match="version"):
            counter.load(bad)


class TestBatchPluginOrdering:
    """Regression: run_batch sharded the reads BEFORE running the plugins'
    one-time prepare pass, while run() prepares first — a plugin whose
    ``prepare`` influences partitioning saw different state per surface."""

    @pytest.mark.parametrize("fused", [False, True], ids=["staged", "fused"])
    def test_prepare_runs_before_shard(self, batches, fused):
        from repro.core.engine import EngineOptions

        counter = DistributedCounter(
            summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(fused=fused)
        )
        sched = counter._scheduler
        order: list[str] = []
        orig_prepare, orig_shard = sched._prepare_plugins, sched._shard

        def record_prepare(reads):
            order.append("prepare")
            return orig_prepare(reads)

        def record_shard(reads):
            order.append("shard")
            return orig_shard(reads)

        sched._prepare_plugins, sched._shard = record_prepare, record_shard
        counter.add_reads(batches[0])
        assert order == ["prepare", "shard"]

    def test_balanced_plugin_sees_first_batch(self, batches):
        """End to end: the balanced partitioner samples the reads it is
        given in prepare(); streamed and one-shot counting over the same
        first batch must route identically."""
        from repro.core.engine import EngineOptions, run_pipeline

        cfg = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        streamed = DistributedCounter(cluster, cfg, options=EngineOptions(stages=("balanced",)))
        streamed.add_reads(batches[0])
        oneshot = run_pipeline(
            batches[0], cluster, cfg, backend="gpu", options=EngineOptions(stages=("balanced",))
        )
        assert np.array_equal(streamed.received_kmers, oneshot.received_kmers)
        assert streamed.spectrum().equals(oneshot.spectrum)
