"""Tests for the out-of-core execution tier (spill-to-disk + external merge).

The spill path's contract is bit-identity with the in-memory staged
scheduler on every deterministic observable — spectrum, timing floats,
per-rank model times, traffic records, counts matrices, insert
statistics, round counts, and the model-metric telemetry snapshot.  Only
``wall=True`` families (the ``spill_*`` counters) may differ.
"""

from __future__ import annotations

import builtins
import io
import logging
import os
import random

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages.spill import (
    MERGE_BLOCK_KEYS,
    SpillExchange,
    SpillSpool,
    Spooled,
    external_merge,
    supports_spill,
)
from repro.dna.simulate import GenomeSimulator, ReadLengthProfile, ReadSimulator, simulate_dataset
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.collectives import alltoallv_segments
from repro.mpi.topology import summit_cpu, summit_gpu
from repro.telemetry import MetricRegistry

from .golden_cases import snapshot_digest, summarize_counter, summarize_result


def _run_pair(reads, cluster, config, backend, tmp_path, **option_kw):
    """One in-memory run and one spilled run with identical knobs."""
    reg_mem, reg_spill = MetricRegistry(), MetricRegistry()
    mem = run_pipeline(
        reads, cluster, config, backend=backend, options=EngineOptions(telemetry=reg_mem, **option_kw)
    )
    spill_dir = tmp_path / "spool"
    spilled = run_pipeline(
        reads,
        cluster,
        config,
        backend=backend,
        options=EngineOptions(telemetry=reg_spill, spill_dir=spill_dir, **option_kw),
    )
    return mem, spilled, reg_mem, reg_spill, spill_dir


class TestSpillIdentity:
    @pytest.mark.parametrize(
        "mode,canonical,n_rounds",
        [
            ("kmer", False, 1),
            ("kmer", True, 3),
            ("supermer", False, 2),
            ("supermer", True, 1),
        ],
    )
    def test_matches_in_memory(self, genome_reads, tmp_path, mode, canonical, n_rounds):
        config = PipelineConfig(k=17, mode=mode, canonical=canonical, n_rounds=n_rounds)
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_gpu(2), config, "gpu", tmp_path
        )
        expected, actual = summarize_result(mem), summarize_result(spilled)
        for key in expected:
            assert actual[key] == expected[key], f"field {key!r} diverged"
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_matches_exact_reference(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        spilled = run_pipeline(
            genome_reads,
            summit_gpu(2),
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path),
        )
        assert spilled.spectrum.equals(count_kmers_exact(genome_reads, 17))

    def test_cpu_backend(self, genome_reads, tmp_path):
        config = PipelineConfig(k=15, mode="kmer")
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_cpu(2), config, "cpu", tmp_path
        )
        assert summarize_result(spilled) == summarize_result(mem)
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_with_plugins(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer")
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_gpu(2), config, "gpu", tmp_path, stages=("bloom", "balanced")
        )
        assert summarize_result(spilled) == summarize_result(mem)
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_traffic_records_identical(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        mem, spilled, _, _, _ = _run_pair(genome_reads, summit_gpu(2), config, "gpu", tmp_path)
        assert len(mem.traffic.records) == len(spilled.traffic.records)
        for a, b in zip(mem.traffic.records, spilled.traffic.records):
            assert a.op == b.op and a.label == b.label
            assert np.array_equal(a.bytes_matrix, b.bytes_matrix)
            assert (a.items_matrix is None) == (b.items_matrix is None)
            if a.items_matrix is not None:
                assert np.array_equal(a.items_matrix, b.items_matrix)

    def test_spill_wall_metrics_recorded(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        _, _, _, reg_spill, _ = _run_pair(genome_reads, summit_gpu(2), config, "gpu", tmp_path)
        snap = reg_spill.snapshot()
        for name in (
            "spill_bytes_written_total",
            "spill_bytes_read_total",
            "spill_partitions_total",
            "spill_merge_runs_total",
        ):
            assert name in snap, name
            assert snap[name]["wall"] is True
            assert sum(s["value"] for s in snap[name]["samples"]) > 0
        # ...and none of them leak into the model snapshot.
        assert not any(k.startswith("spill_") for k in reg_spill.snapshot(include_wall=False))

    def test_spool_directory_cleaned_up(self, genome_reads, tmp_path):
        config = PipelineConfig(k=15, mode="kmer")
        _, _, _, _, spill_dir = _run_pair(genome_reads, summit_gpu(1), config, "gpu", tmp_path)
        assert spill_dir.exists()  # the user-provided root stays
        assert list(spill_dir.iterdir()) == []  # per-run spools are removed

    def test_verify_exchange_runs_on_spilled_partitions(self, genome_reads, tmp_path):
        # verify_exchange checksums the memmapped partition files; a run
        # with verification on must still succeed and stay identical.
        config = PipelineConfig(k=17, mode="kmer", n_rounds=2)
        mem, spilled, _, _, _ = _run_pair(
            genome_reads, summit_gpu(2), config, "gpu", tmp_path, verify_exchange=True
        )
        assert summarize_result(spilled) == summarize_result(mem)


class TestHostMemoryBudget:
    def test_budget_splits_rounds_identically_on_all_paths(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=1)
        cluster = summit_gpu(2)
        budget = dict(host_memory_budget=16_000)
        staged = run_pipeline(
            genome_reads, cluster, config, backend="gpu", options=EngineOptions(**budget)
        )
        spilled = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path, **budget),
        )
        fused = run_pipeline(
            genome_reads, cluster, config, backend="gpu", options=EngineOptions(fused=True, **budget)
        )
        assert staged.n_rounds_used > 1
        assert staged.n_rounds_used == spilled.n_rounds_used == fused.n_rounds_used
        assert summarize_result(spilled) == summarize_result(staged)
        assert summarize_result(fused) == summarize_result(staged)

    def test_budget_applies_to_cpu_backend(self, genome_reads):
        config = PipelineConfig(k=15, mode="kmer", n_rounds=1)
        tight = run_pipeline(
            genome_reads,
            summit_cpu(2),
            config,
            backend="cpu",
            options=EngineOptions(host_memory_budget=16_000),
        )
        free = run_pipeline(genome_reads, summit_cpu(2), config, backend="cpu", options=EngineOptions())
        assert tight.n_rounds_used > free.n_rounds_used
        assert tight.spectrum.equals(free.spectrum)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="host_memory_budget"):
            EngineOptions(host_memory_budget=0)
        with pytest.raises(ValueError, match="host_memory_budget"):
            EngineOptions(host_memory_budget=-1)


class TestSpillFallbacks:
    def test_custom_exchange_falls_back_in_memory(self, caplog, tmp_path):
        import dataclasses

        from repro.core.stages.registry import resolve
        from repro.core.stages.scheduler import RoundScheduler
        from repro.core.stages.standard import AlltoallvExchange

        class CustomExchange(AlltoallvExchange):
            pass

        config = PipelineConfig(k=15, mode="kmer")
        opts = EngineOptions(spill_dir=tmp_path)
        comp = resolve("gpu:kmer", config, opts)
        custom = dataclasses.replace(comp, exchange=CustomExchange())
        assert supports_spill(comp)
        assert not supports_spill(custom)

        reads = simulate_dataset(genome_length=3000, coverage=3, seed=5)
        cluster = summit_gpu(1)
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            fallback = RoundScheduler(cluster, config, custom, opts).run(reads)
        assert any("engine.spill.fallback" in rec.message for rec in caplog.records)
        mem = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions())
        assert fallback.spectrum.equals(mem.spectrum)
        assert list(tmp_path.iterdir()) == []  # nothing was spooled

    def test_spill_plus_fused_runs_blocked_composition(self, caplog, genome_reads, tmp_path):
        """``fused=True`` + ``spill_dir`` is a real strategy, not a fallback."""
        from repro.telemetry.spans import SpanRecorder

        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        cluster = summit_gpu(2)
        mem = run_pipeline(genome_reads, cluster, config, backend="gpu", options=EngineOptions())
        rec = SpanRecorder()
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            both = run_pipeline(
                genome_reads,
                cluster,
                config,
                backend="gpu",
                options=EngineOptions(spill_dir=tmp_path, fused=True, trace=rec),
            )
        assert not any("engine.spill.fallback" in rec_.message for rec_ in caplog.records)
        assert not any("engine.fused.fallback" in rec_.message for rec_ in caplog.records)
        assert summarize_result(both) == summarize_result(mem)
        run_span = next(s for s in rec.all_spans() if s.name == "run")
        assert run_span.meta["strategy"] == "fused-spill"
        names = {s.name.split("-round")[0] for s in rec.all_spans()}
        # The residency, not the fused switch, decides: one-shot block tables are dumped as runs.
        assert {"spill:spool", "spill:read", "fused:count", "spill:run-write", "spill:merge"} <= names
        assert list(tmp_path.iterdir()) == []  # spool cleaned up

    def test_fused_spill_custom_count_stage_stays_fused_spill(self, caplog, genome_reads, tmp_path):
        """Custom count stage: no fallback — a fused exchange replaces only the exchange stage."""
        import dataclasses

        from repro.core.stages.registry import resolve
        from repro.core.stages.scheduler import RoundScheduler
        from repro.core.stages.standard import TableCount

        class CustomCount(TableCount):
            pass

        config = PipelineConfig(k=15, mode="kmer")
        opts = EngineOptions(spill_dir=tmp_path, fused=True)
        custom = dataclasses.replace(resolve("gpu:kmer", config, opts), count=CustomCount())
        cluster = summit_gpu(1)
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            scheduler = RoundScheduler(cluster, config, custom, opts)
            spilled = scheduler.run(genome_reads)
        assert not any(".fallback" in rec.message for rec in caplog.records)
        assert scheduler.resolve_strategy().name == "fused-spill"
        mem = run_pipeline(genome_reads, cluster, config, backend="gpu", options=EngineOptions())
        assert spilled.spectrum.equals(mem.spectrum)


class TestFusedSpillIdentity:
    """Blocked fused×spill vs the in-memory fused path: bit-identical."""

    @pytest.mark.parametrize(
        "mode,canonical,n_rounds",
        [
            ("kmer", False, 1),
            ("kmer", True, 3),
            ("supermer", False, 2),
            ("supermer", True, 1),
        ],
    )
    def test_matches_in_memory_fused(self, genome_reads, tmp_path, mode, canonical, n_rounds):
        config = PipelineConfig(k=17, mode=mode, canonical=canonical, n_rounds=n_rounds)
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_gpu(2), config, "gpu", tmp_path, fused=True
        )
        expected, actual = summarize_result(mem), summarize_result(spilled)
        for key in expected:
            assert actual[key] == expected[key], f"field {key!r} diverged"
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_matches_exact_reference(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        spilled = run_pipeline(
            genome_reads,
            summit_gpu(2),
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path, fused=True),
        )
        assert spilled.spectrum.equals(count_kmers_exact(genome_reads, 17))

    def test_cpu_backend(self, genome_reads, tmp_path):
        config = PipelineConfig(k=15, mode="kmer")
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_cpu(2), config, "cpu", tmp_path, fused=True
        )
        assert summarize_result(spilled) == summarize_result(mem)
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_with_plugins(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer")
        mem, spilled, reg_mem, reg_spill, _ = _run_pair(
            genome_reads, summit_gpu(2), config, "gpu", tmp_path, fused=True, stages=("bloom", "balanced")
        )
        assert summarize_result(spilled) == summarize_result(mem)
        assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem)

    def test_matches_staged_spill(self, genome_reads, tmp_path):
        """The two out-of-core strategies agree with each other too."""
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        cluster = summit_gpu(2)
        staged = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path / "a"),
        )
        fused = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path / "b", fused=True),
        )
        assert summarize_result(fused) == summarize_result(staged)

    def test_host_budget_splits_rounds_identically(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=1)
        cluster = summit_gpu(2)
        staged = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(host_memory_budget=16_000),
        )
        spilled = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(spill_dir=tmp_path, fused=True, host_memory_budget=16_000),
        )
        assert staged.n_rounds_used > 1
        assert spilled.n_rounds_used == staged.n_rounds_used
        assert summarize_result(spilled) == summarize_result(staged)

    def test_streamed_batches_identical(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        n = genome_reads.n_reads
        batches = [
            genome_reads.select(range(n // 2)),
            genome_reads.select(range(n // 2, n)),
        ]
        mem = DistributedCounter(cluster, config, options=EngineOptions(fused=True))
        spilled = DistributedCounter(
            cluster, config, options=EngineOptions(fused=True, spill_dir=tmp_path)
        )
        for batch in batches:
            mem.add_reads(batch)
            spilled.add_reads(batch)
        assert summarize_counter(spilled) == summarize_counter(mem)
        assert spilled.insert_stats == mem.insert_stats
        assert spilled.spectrum().equals(mem.spectrum())

    def test_checkpoint_resumes_into_in_memory_counter(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="kmer")
        cluster = summit_gpu(2)
        spilled = DistributedCounter(
            cluster, config, options=EngineOptions(fused=True, spill_dir=tmp_path / "s")
        )
        spilled.add_reads(genome_reads)
        ckpt = spilled.save(tmp_path / "ckpt.npz")
        resumed = DistributedCounter(cluster, config)
        resumed.load(ckpt)
        assert resumed.spectrum().equals(spilled.spectrum())
        assert resumed.insert_stats == spilled.insert_stats


class TestMmapTable:
    """File-backed segmented-table slabs: same bits, reclaimable footprint."""

    def _case(self, seed=31):
        rng = np.random.default_rng(seed)
        segments = [
            rng.integers(0, 4096, size=n, dtype=np.uint64) for n in (700, 0, 350)
        ]
        offs = np.concatenate([[0], np.cumsum([s.size for s in segments])]).astype(np.int64)
        return np.concatenate(segments), offs

    def test_insert_and_regrow_identical_to_resident(self, tmp_path):
        from repro.gpu.segmented import SegmentedHashTable

        flat, offs = self._case()
        hints = [8, 8, 8]  # tiny: forces several regrows (slab generations)
        resident = SegmentedHashTable(hints, seed=3)
        mapped = SegmentedHashTable(hints, seed=3, table_dir=tmp_path)
        assert mapped.backing_dir is not None and mapped.backing_dir.exists()
        assert mapped.insert_flat(flat, offs) == resident.insert_flat(flat, offs)
        assert isinstance(mapped.keys, np.memmap)
        assert np.array_equal(np.asarray(mapped.keys), resident.keys)
        assert np.array_equal(np.asarray(mapped.counts), resident.counts)
        for r in range(3):
            mk, mc = mapped.items_of(r)
            rk, rc = resident.items_of(r)
            assert np.array_equal(mk, rk) and np.array_equal(mc, rc)
        # Exactly one live slab generation per array on disk.
        names = sorted(p.name for p in mapped.backing_dir.iterdir())
        assert len(names) == 2
        assert names[0].startswith("counts.g") and names[1].startswith("keys.g")

    def test_close_and_finalizer_remove_slabs(self, tmp_path):
        from repro.gpu.segmented import SegmentedHashTable

        flat, offs = self._case(seed=37)
        mapped = SegmentedHashTable([64, 64, 64], seed=1, table_dir=tmp_path)
        mapped.insert_flat(flat, offs)
        slab_dir = mapped.backing_dir
        assert slab_dir.exists()
        mapped.close()
        assert not slab_dir.exists()
        assert tmp_path.exists()  # the user-provided root stays

    def test_from_slots_restores_into_mmap_backing(self, tmp_path):
        from repro.gpu.hashtable import DeviceHashTable, dump_slots
        from repro.gpu.segmented import SegmentedHashTable

        rng = np.random.default_rng(41)
        tables = [DeviceHashTable(64, seed=7) for _ in range(2)]
        for t in tables:
            t.insert_batch(rng.integers(0, 999, size=200, dtype=np.uint64))
        dumps = [dump_slots(t.keys, t.counts) for t in tables]
        mapped = SegmentedHashTable.from_slots(
            [t.capacity for t in tables], *map(np.concatenate, zip(*dumps)), seed=7, table_dir=tmp_path
        )
        assert mapped.backing_dir is not None and isinstance(mapped.keys, np.memmap)
        for r, t in enumerate(tables):
            mk, mc = mapped.items_of(r)
            rk, rc = t.items()
            assert np.array_equal(mk, rk) and np.array_equal(mc, rc)
        mapped.close()
        assert list(tmp_path.iterdir()) == []

    def test_table_dir_backs_the_staged_layout(self, genome_reads, tmp_path, monkeypatch):
        """``table_dir`` backs the staged strategy's block tables too, resident and
        spilled, on every substrate: bit-identical, file-backed, nothing left behind.

        Under ``process:2`` a forked worker counts into its block's slab files,
        which both processes map; a regrow in the worker writes a new slab
        generation and unlinks the driving process's, whose table then maps
        that generation instead of adopting RAM copies of it.
        """
        import gc

        from repro.core.stages.spill import Resident
        from repro.gpu import segmented

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)  # several blocks, so pools fork
        config = PipelineConfig(k=15, mode="kmer", n_rounds=2)
        cluster = summit_gpu(2)
        mem = summarize_result(run_pipeline(genome_reads, cluster, config, backend="gpu", options=EngineOptions()))
        n = genome_reads.n_reads
        halves = [genome_reads.select(range(n // 2)), genome_reads.select(range(n // 2, n))]
        in_ram = DistributedCounter(cluster, config)
        for half in halves:
            in_ram.add_reads(half)
        mapped_after_round: list[bool] = []
        count_round = Resident.count_round

        def checked(self, tables, *args):
            count_round(self, tables, *args)
            mapped_after_round.extend(getattr(t.parent.keys, "filename", None) is not None for t in tables)

        monkeypatch.setattr(Resident, "count_round", checked)
        for parallel in (1, "thread:2", "process:2"):
            for spill in (False, True):
                table_dir = tmp_path / f"tables-{parallel}-{spill}".replace(":", "")
                options = EngineOptions(
                    parallel=parallel, table_dir=table_dir, spill_dir=tmp_path / "spool" if spill else None
                )
                result = run_pipeline(genome_reads, cluster, config, backend="gpu", options=options)
                assert summarize_result(result) == mem, (parallel, spill)
                assert list(table_dir.iterdir()) == [], (parallel, spill)

                counter = DistributedCounter(cluster, config, options=options)
                for half in halves:  # a 128-slot state: every block regrows, in a worker under process:2
                    counter.add_reads(half)
                    blocks = segmented.view_blocks(counter.tables)
                    assert len(blocks) > 1
                    for _, _, table in blocks:  # mapped from one live slab generation, not RAM copies of it
                        counts_file, keys_file = sorted(table.backing_dir.iterdir())
                        mapped = getattr(table.keys, "filename", None), getattr(table.counts, "filename", None)
                        assert mapped == (keys_file, counts_file)
                assert summarize_counter(counter) == summarize_counter(in_ram), (parallel, spill)
                del counter, blocks, table
                gc.collect()
                assert list(table_dir.iterdir()) == [], (parallel, spill)
        assert mapped_after_round and all(mapped_after_round)

    @pytest.mark.parametrize("spill", [False, True])
    def test_engine_identity_with_table_dir(self, genome_reads, tmp_path, spill):
        config = PipelineConfig(k=17, mode="supermer", n_rounds=2)
        cluster = summit_gpu(2)
        reg_mem, reg_map = MetricRegistry(), MetricRegistry()
        option_kw = dict(fused=True)
        if spill:
            option_kw["spill_dir"] = tmp_path / "spool"
        mem = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(telemetry=reg_mem, **option_kw),
        )
        mapped = run_pipeline(
            genome_reads,
            cluster,
            config,
            backend="gpu",
            options=EngineOptions(telemetry=reg_map, table_dir=tmp_path / "table", **option_kw),
        )
        assert summarize_result(mapped) == summarize_result(mem)
        assert snapshot_digest(reg_map) == snapshot_digest(reg_mem)
        assert list((tmp_path / "table").iterdir()) == []  # slabs reclaimed


class TestSpillCleanupOnFailure:
    """A raise anywhere inside the counting loop must not leak spool files."""

    def _assert_cleanup(self, caplog, spill_dir, run):
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            with pytest.raises(RuntimeError, match="boom"):
                run()
        cleanup = [rec.message for rec in caplog.records if "engine.spill.cleanup" in rec.message]
        assert cleanup, "no engine.spill.cleanup event was emitted"
        assert "files=" in cleanup[0]
        assert list(spill_dir.iterdir()) == []  # spool removed despite the raise

    def test_staged_spill_raise_removes_spool(self, caplog, genome_reads, tmp_path, monkeypatch):
        import repro.core.stages.spill as spill_mod

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # external_merge runs after the run files are written: the spool is
        # at its fullest when the failure lands.
        monkeypatch.setattr(spill_mod, "external_merge", boom)
        config = PipelineConfig(k=15, mode="kmer")
        self._assert_cleanup(
            caplog,
            tmp_path,
            lambda: run_pipeline(
                genome_reads,
                summit_gpu(1),
                config,
                backend="gpu",
                options=EngineOptions(spill_dir=tmp_path),
            ),
        )

    def test_fused_spill_raise_removes_spool(self, caplog, genome_reads, tmp_path, monkeypatch):
        import repro.core.stages.spill as spill_mod

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # The streamed count gives birth to each block's table after every round has spooled.
        monkeypatch.setattr(spill_mod, "block_table", boom)
        config = PipelineConfig(k=15, mode="kmer")
        self._assert_cleanup(
            caplog,
            tmp_path,
            lambda: run_pipeline(
                genome_reads,
                summit_gpu(1),
                config,
                backend="gpu",
                options=EngineOptions(spill_dir=tmp_path, fused=True),
            ),
        )


    @pytest.mark.parametrize("spill", [False, True], ids=["fused", "fused-spill"])
    def test_fused_table_dir_raise_removes_slabs(self, genome_reads, tmp_path, monkeypatch, spill):
        """A raise after the last mmap table exists must still reclaim its slab
        files: the driver's cleanup scope (or, for a spilled one-shot block,
        the block's own stream) closes the table on any exit, not on the
        success path only (where the slabs outlived the traceback)."""
        from repro.core.stages.standard import SpectrumMerge

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # Resident: the merge runs once every round is counted, the tables at their
        # fullest.  Spilled: the last block's run dump, its table still open.
        if spill:
            monkeypatch.setattr(SpillSpool, "write_runs", boom)
        else:
            monkeypatch.setattr(SpectrumMerge, "merge_items", boom)
        table_dir = tmp_path / "table"
        options = EngineOptions(
            fused=True, table_dir=table_dir, spill_dir=tmp_path / "spool" if spill else None
        )
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            run_pipeline(
                genome_reads, summit_gpu(1), PipelineConfig(k=15, mode="kmer"), backend="gpu", options=options
            )
        assert excinfo.traceback  # the frames (and their locals) are still alive here
        assert list(table_dir.iterdir()) == []


class TestTruncatedSpoolFiles:
    """A spool or run file cut short mid-run is one descriptive ``OSError``.

    The index knows every partition's extent, so a short file can no
    longer be counted silently with fewer items; the failed drive still
    announces and removes its spool.
    """

    def _assert_truncation(self, caplog, reads, spill_dir, options, match):
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            with pytest.raises(OSError, match=match):
                run_pipeline(
                    reads,
                    summit_gpu(1),
                    PipelineConfig(k=15, mode="kmer", n_rounds=2),
                    backend="gpu",
                    options=options,
                )
        assert any("engine.spill.cleanup" in rec.message for rec in caplog.records)
        assert list(spill_dir.iterdir()) == []  # no spool-* directory left

    @pytest.mark.parametrize("fused", [False, True], ids=["spill", "fused-spill"])
    def test_truncated_round_file(self, caplog, genome_reads, tmp_path, monkeypatch, fused):
        count = Spooled.count

        def truncate_then_count(self, *args, **kwargs):
            # Every round is on disk and the send buffers are gone: cut the
            # last round's file in half before the first read-back.
            path = self.spool.dir / f"{self.labels[-1]}.data"
            os.truncate(path, path.stat().st_size // 2 // 8 * 8)
            return count(self, *args, **kwargs)

        monkeypatch.setattr(Spooled, "count", truncate_then_count)
        self._assert_truncation(
            caplog,
            genome_reads,
            tmp_path,
            EngineOptions(spill_dir=tmp_path, fused=fused),
            r"kmer-exchange-round1\.data \(label 'kmer-exchange-round1', ranks? [\d.]+\) "
            r"is truncated: expected \d+ bytes, found \d+",
        )

    def _assert_resized_run_file(self, caplog, reads, tmp_path, monkeypatch, delta):
        map_runs = SpillSpool.map_runs

        def resize_then_map(self, rank0):
            path = self.dir / f"run.r{rank0}.bin"
            os.truncate(path, path.stat().st_size + delta)
            return map_runs(self, rank0)

        monkeypatch.setattr(SpillSpool, "map_runs", resize_then_map)
        self._assert_truncation(
            caplog,
            reads,
            tmp_path,
            EngineOptions(spill_dir=tmp_path),
            r"run\.r0\.bin \(ranks? [\d.]+\) is truncated or overlong: expected \d+ bytes, found \d+",
        )

    def test_truncated_run_file(self, caplog, genome_reads, tmp_path, monkeypatch):
        self._assert_resized_run_file(caplog, genome_reads, tmp_path, monkeypatch, -8)

    @pytest.mark.parametrize("delta", [-16, 16])
    def test_run_file_resized_by_whole_entries(self, caplog, genome_reads, tmp_path, monkeypatch, delta):
        """Cut (or padded) at an entry boundary the file still holds whole
        16-byte entries, but the keys and counts halves no longer sit where
        the runs' lengths put them: the index's expected length catches it."""
        self._assert_resized_run_file(caplog, genome_reads, tmp_path, monkeypatch, delta)


class TestHostBudgetFloor:
    """A budget below one received item's working set must fail loudly."""

    @pytest.mark.parametrize(
        "option_kw",
        [
            {},
            {"fused": True},
            {"spill": True},
            {"fused": True, "spill": True},
        ],
        ids=["staged", "fused", "spill", "fused-spill"],
    )
    def test_sub_floor_budget_raises_with_floor(self, genome_reads, tmp_path, option_kw):
        kw = dict(option_kw)
        if kw.pop("spill", False):
            kw["spill_dir"] = tmp_path
        config = PipelineConfig(k=17, mode="kmer")
        with pytest.raises(ValueError, match="working-set floor") as excinfo:
            run_pipeline(
                genome_reads,
                summit_gpu(2),
                config,
                backend="gpu",
                options=EngineOptions(host_memory_budget=16, **kw),
            )
        # The message reports the computed floor (one received item's
        # working set — ~47 B for 8-byte k-mer wire items at multiplier 1).
        msg = str(excinfo.value)
        floor = int(msg.split("floor of one received item: ")[1].split(" bytes")[0])
        assert floor > 16

    def test_streamed_counter_reports_floor(self, genome_reads, tmp_path):
        # The CLI counts through DistributedCounter.run_batch, which is
        # single-round by construction — the floor must still be
        # reported there, not silently ignored.
        config = PipelineConfig(k=17, mode="kmer")
        counter = DistributedCounter(
            summit_gpu(2),
            config,
            options=EngineOptions(host_memory_budget=16, spill_dir=tmp_path),
        )
        with pytest.raises(ValueError, match="working-set floor"):
            counter.add_reads(genome_reads)

    def test_floor_scales_with_work_multiplier(self, genome_reads):
        # 2 kB/rank is plenty at scale 1 but under the ~3 kB floor one
        # received item costs at work_multiplier 64.
        config = PipelineConfig(k=17, mode="kmer")
        with pytest.raises(ValueError, match="work_multiplier 64"):
            run_pipeline(
                genome_reads,
                summit_gpu(2),
                config,
                backend="gpu",
                options=EngineOptions(host_memory_budget=2_000, work_multiplier=64.0),
            )


class TestSpillBatches:
    def test_streamed_batches_identical(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        n = genome_reads.n_reads
        batches = [
            genome_reads.select(range(n // 3)),
            genome_reads.select(range(n // 3, 2 * n // 3)),
            genome_reads.select(range(2 * n // 3, n)),
        ]
        mem = DistributedCounter(cluster, config)
        spilled = DistributedCounter(cluster, config, options=EngineOptions(spill_dir=tmp_path))
        for batch in batches:
            mem.add_reads(batch)
            spilled.add_reads(batch)
        assert summarize_counter(spilled) == summarize_counter(mem)
        assert spilled.insert_stats == mem.insert_stats
        assert spilled.spectrum().equals(mem.spectrum())

    def test_spilled_checkpoint_resumes_into_in_memory_counter(self, genome_reads, tmp_path):
        config = PipelineConfig(k=17, mode="kmer")
        cluster = summit_gpu(2)
        spilled = DistributedCounter(cluster, config, options=EngineOptions(spill_dir=tmp_path / "s"))
        spilled.add_reads(genome_reads)
        ckpt = spilled.save(tmp_path / "ckpt.npz")
        resumed = DistributedCounter(cluster, config)
        resumed.load(ckpt)
        assert resumed.spectrum().equals(spilled.spectrum())
        assert resumed.insert_stats == spilled.insert_stats


class TestExternalMerge:
    def _reference(self, runs, k):
        from repro.core.stages.standard import SpectrumMerge

        return SpectrumMerge().merge_items([(k_, c_) for k_, c_ in runs], k)

    def test_empty(self):
        spec = external_merge([], 15)
        assert spec.n_distinct == 0 and spec.n_total == 0

    def test_empty_runs(self):
        runs = [(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))] * 3
        assert external_merge(runs, 15).n_distinct == 0

    @pytest.mark.parametrize("block", [1, 2, 7, MERGE_BLOCK_KEYS])
    def test_matches_unique_reference(self, block):
        rng = np.random.default_rng(11)
        runs = []
        for _ in range(5):
            keys = np.unique(rng.integers(0, 500, size=rng.integers(0, 120), dtype=np.uint64))
            counts = rng.integers(1, 50, size=keys.size, dtype=np.int64)
            runs.append((keys, counts))
        merged = external_merge(runs, 15, block=block)
        ref = self._reference(runs, 15)
        assert np.array_equal(merged.values, ref.values)
        assert np.array_equal(merged.counts, ref.counts)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_duplicate_keys_across_runs_aggregate(self, block):
        # Canonical supermer mode can split one canonical k-mer across two
        # owners — equal keys across runs must sum.
        runs = [
            (np.array([1, 5, 9], dtype=np.uint64), np.array([2, 3, 4], dtype=np.int64)),
            (np.array([5, 9, 12], dtype=np.uint64), np.array([10, 1, 1], dtype=np.int64)),
            (np.array([9], dtype=np.uint64), np.array([100], dtype=np.int64)),
        ]
        merged = external_merge(runs, 15, block=block)
        assert merged.values.tolist() == [1, 5, 9, 12]
        assert merged.counts.tolist() == [2, 13, 105, 1]

    def test_single_run_passthrough(self):
        keys = np.arange(10, dtype=np.uint64)
        counts = np.arange(1, 11, dtype=np.int64)
        merged = external_merge([(keys, counts)], 15, block=4)
        assert np.array_equal(merged.values, keys)
        assert np.array_equal(merged.counts, counts)

    def test_duplicate_key_straddles_block_boundary(self):
        # One key repeated across runs so its occurrences land on both
        # sides of an emission block boundary — the safe-emission bound
        # must hold the key back until every run has drained it.
        runs = [
            (np.array([0, 7], dtype=np.uint64), np.array([1, 10], dtype=np.int64)),
            (np.array([7], dtype=np.uint64), np.array([20], dtype=np.int64)),
            (np.array([7, 8], dtype=np.uint64), np.array([30], dtype=np.int64)[[0, 0]]),
        ]
        merged = external_merge(runs, 15, block=2)
        assert merged.values.tolist() == [0, 7, 8]
        assert merged.counts.tolist() == [1, 60, 30]

    @pytest.mark.parametrize("block", [1, MERGE_BLOCK_KEYS])
    def test_counts_past_2_53_aggregate_exactly(self, block):
        """Both merges sum in int64: a float64 sum rounds 2**53 + 1 down to 2**53."""
        runs = [
            (np.array([3, 7], dtype=np.uint64), np.array([2**53, 5], dtype=np.int64)),
            (np.array([3], dtype=np.uint64), np.array([1], dtype=np.int64)),
        ]
        for merged in (external_merge(runs, 15, block=block), self._reference(runs, 15)):
            assert merged.values.tolist() == [3, 7]
            assert merged.counts.tolist() == [2**53 + 1, 5]

    @pytest.mark.parametrize("trial", range(4))
    def test_property_overlapping_runs_with_empties(self, trial):
        # Randomized: runs share keys (forcing cross-run aggregation) and
        # some runs are empty; every block size must match the in-memory
        # reference merge.
        rng = np.random.default_rng(0xE4 + trial)
        runs = []
        for _ in range(rng.integers(1, 7)):
            if rng.random() < 0.25:
                runs.append((np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)))
                continue
            # A small key space guarantees heavy overlap between runs.
            keys = np.unique(rng.integers(0, 64, size=rng.integers(1, 80), dtype=np.uint64))
            counts = rng.integers(1, 1000, size=keys.size, dtype=np.int64)
            runs.append((keys, counts))
        ref = self._reference(runs, 15)
        for block in (1, 2, 3, 16, MERGE_BLOCK_KEYS):
            merged = external_merge(runs, 15, block=block)
            assert np.array_equal(merged.values, ref.values), f"block={block}"
            assert np.array_equal(merged.counts, ref.counts), f"block={block}"


class TestSpillSpool:
    def test_missing_partition_maps_empty(self, tmp_path):
        spool = SpillSpool(tmp_path)
        try:
            arr = spool.map_partition("x", 0, np.uint64)
            assert arr.size == 0 and arr.dtype == np.uint64
        finally:
            spool.close()

    def test_partition_roundtrip_in_source_order(self, tmp_path):
        spool = SpillSpool(tmp_path)
        try:
            segs = [np.array([1, 2], dtype=np.uint64), np.array([], dtype=np.uint64), np.array([3], dtype=np.uint64)]
            spool.write_partition("lbl", 1, segs)
            assert spool.map_partition("lbl", 1, np.uint64).tolist() == [1, 2, 3]
        finally:
            spool.close()

    def test_close_removes_spool(self, tmp_path):
        spool = SpillSpool(tmp_path)
        spool.write_partition("lbl", 0, [np.array([7], dtype=np.uint64)])
        assert spool.dir.exists()
        spool.close()
        assert not spool.dir.exists()
        assert tmp_path.exists()


def _random_send(rng: np.random.Generator, p: int, with_lengths: bool, empty_round: bool):
    """Destination-ordered send buffers with empty rows, columns and segments."""
    counts = rng.integers(0, 9, size=(p, p))
    counts[rng.random((p, p)) < 0.3] = 0
    if p > 1:
        counts[rng.integers(p)] = 0  # a source with nothing to send
        counts[:, rng.integers(p)] = 0  # a destination that receives nothing
    if empty_round:
        counts[:] = 0
    send_data = [rng.integers(0, 1 << 63, size=int(row.sum()), dtype=np.uint64) for row in counts]
    send_lengths = (
        [rng.integers(1, 200, size=d.shape[0]).astype(np.uint8) for d in send_data]
        if with_lengths
        else None
    )
    return send_data, send_lengths, counts.astype(np.int64)


class TestSpoolRoundTrip:
    """What comes back from the segment file is ``alltoallv_segments``' ``recv_data``."""

    def _assert_reads_back(self, spool, label, expected, dtype, lens, rng):
        p = len(expected)
        for r in range(p):
            assert spool.read_partition(label, r, dtype, lens=lens).tobytes() == expected[r].tobytes()
            mapped = spool.map_partition(label, r, dtype, lens=lens)
            assert mapped.dtype == dtype and mapped.tobytes() == expected[r].tobytes()
        for _ in range(8):
            r0, r1 = sorted(rng.integers(0, p + 1, size=2))
            whole = b"".join(part.tobytes() for part in expected[r0:r1])
            assert spool.read_range(label, r0, r1, dtype, lens=lens).tobytes() == whole
            out = np.empty(len(whole) // np.dtype(dtype).itemsize + 3, dtype=dtype)
            got = spool.read_range(label, r0, r1, dtype, lens=lens, out=out)
            assert got.tobytes() == whole and (got.size == 0 or np.shares_memory(got, out))

    @pytest.mark.parametrize("p", [1, 2, 7, 64])
    @pytest.mark.parametrize("with_lengths", [False, True], ids=["kmer", "supermer"])
    @pytest.mark.parametrize("block_items", [1, 5, 40, 1 << 18])
    def test_bulk_append_matches_alltoallv(self, tmp_path, monkeypatch, p, with_lengths, block_items):
        import repro.mpi.collectives as collectives_mod

        # A few items per block: boundaries fall inside, at and across ranks.
        monkeypatch.setattr(collectives_mod, "SEGMENT_BLOCK_BYTES", block_items * (9 if with_lengths else 8))
        rng = np.random.default_rng(1000 * p + block_items)
        spool = SpillSpool(tmp_path)
        try:
            for rnd, empty_round in enumerate((False, True, False)):
                send_data, send_lengths, counts = _random_send(rng, p, with_lengths, empty_round)
                label = f"round{rnd}"
                SpillExchange(spool)._spool_round(send_data, send_lengths, counts, label)
                assert spool.pending_files()[0] <= (rnd + 1) * (2 if with_lengths else 1)
                recv, _ = alltoallv_segments(send_data, list(counts))
                self._assert_reads_back(spool, label, recv, np.uint64, False, rng)
                if with_lengths:
                    recv_lens, _ = alltoallv_segments(send_lengths, list(counts))
                    self._assert_reads_back(spool, label, recv_lens, np.uint8, True, rng)
            expected_bytes = sum(p.stat().st_size for p in spool.dir.iterdir())
            assert spool.bytes_written == expected_bytes
        finally:
            spool.close()

    @pytest.mark.parametrize("p", [1, 2, 7, 64])
    def test_write_partition_in_shuffled_rank_order(self, tmp_path, p):
        rng = np.random.default_rng(p)
        send_data, send_lengths, counts = _random_send(rng, p, True, False)
        offsets = np.zeros((p, p + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=offsets[:, 1:])
        spool = SpillSpool(tmp_path)
        try:
            for dst in rng.permutation(p):
                for send, lens in ((send_data, False), (send_lengths, True)):
                    segs = [send[src][offsets[src, dst] : offsets[src, dst + 1]] for src in range(p)]
                    spool.write_partition("lbl", int(dst), segs, lens=lens)
            assert spool.pending_files()[0] <= 2
            recv, _ = alltoallv_segments(send_data, list(counts))
            self._assert_reads_back(spool, "lbl", recv, np.uint64, False, rng)
            recv_lens, _ = alltoallv_segments(send_lengths, list(counts))
            self._assert_reads_back(spool, "lbl", recv_lens, np.uint8, True, rng)
        finally:
            spool.close()


    def test_concurrent_reads_share_one_descriptor(self, tmp_path):
        """More reader threads than cores on one segment file: every byte and the tally exact."""
        import sys
        import threading

        p, n_threads = 64, 8
        rng = np.random.default_rng(7)
        send_data, _, counts = _random_send(rng, p, False, False)
        recv, _ = alltoallv_segments(send_data, list(counts))
        spool = SpillSpool(tmp_path)
        SpillExchange(spool)._spool_round(send_data, None, counts, "lbl")
        wrong: list[int] = []

        def reader(seed: int) -> None:
            for r in np.random.default_rng(seed).permutation(p):
                if spool.read_partition("lbl", int(r), np.uint64).tobytes() != recv[r].tobytes():
                    wrong.append(int(r))

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            alive = [t for t in threads if t.is_alive()]
            spool.close()
        assert not alive and not wrong
        assert spool.bytes_read == n_threads * spool.bytes_written


class TestSpoolFileCount:
    """The spool is a handful of files: counted, not timed.

    A round is one segment file (two in supermer mode) whatever the rank
    count, and the opens made on spool files grow with rounds and runs,
    never with ranks × rounds.  Under a process substrate the workers'
    opens are not seen from here, which only loosens the same bounds.
    """

    def _run_counting(self, monkeypatch, reads, cluster, config, backend, options):
        opened: list[str] = []
        pending: list[int] = []

        def counting(real):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    opened.append(os.path.basename(os.fspath(file)))
                return real(file, *args, **kwargs)

            return wrapper

        exchange = Spooled.exchange

        def exchange_then_list(self, *args, **kwargs):
            outcome = exchange(self, *args, **kwargs)
            pending.append(self.spool.pending_files()[0])
            return outcome

        monkeypatch.setattr(Spooled, "exchange", exchange_then_list)
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(io, "open", counting(io.open))
        monkeypatch.setattr(os, "open", counting(os.open))
        result = run_pipeline(reads, cluster, config, backend=backend, options=options)
        monkeypatch.undo()
        rounds = [name for name in opened if name.endswith((".data", ".lens"))]
        runs = [name for name in opened if name.startswith("run.r")]
        return result, pending, rounds, runs

    def test_per_rank_spill_two_rounds(self, genome_reads, tmp_path, monkeypatch):
        cluster = summit_cpu(2)
        assert cluster.n_ranks >= 64
        result, pending, rounds, runs = self._run_counting(
            monkeypatch,
            genome_reads,
            cluster,
            PipelineConfig(k=15, mode="kmer", n_rounds=2),
            "cpu",
            EngineOptions(spill_dir=tmp_path),
        )
        assert result.n_rounds_used == 2 and result.spectrum.equals(count_kmers_exact(genome_reads, 15))
        assert pending == [1, 2]  # one file per round so far
        assert len(rounds) <= 2 * 2  # per round: the descriptor and the checksum map
        assert len(runs) <= 2 * cluster.n_ranks  # per run: written once, mapped once

    def test_fused_spill_supermer_two_rounds(self, genome_reads, tmp_path, monkeypatch):
        cluster = summit_cpu(2)
        result, pending, rounds, runs = self._run_counting(
            monkeypatch,
            genome_reads,
            cluster,
            PipelineConfig(k=17, mode="supermer", n_rounds=2),
            "cpu",
            EngineOptions(spill_dir=tmp_path, fused=True),
        )
        assert result.n_rounds_used == 2 and result.spectrum.equals(count_kmers_exact(genome_reads, 17))
        assert pending == [2, 4]  # payload + length bytes per round
        assert len(rounds) <= 2 * 4
        assert runs and len(runs) <= 2 * cluster.n_ranks  # per run file: written once, mapped once


# ---------------------------------------------------------------------------
# randomized differential suite (mirrors tests/test_fused_property.py)
# ---------------------------------------------------------------------------

N_TRIALS = 6


def _random_case(rng: random.Random) -> tuple[dict, dict, str, int]:
    mode = rng.choice(["kmer", "supermer"])
    k = rng.choice([13, 15, 17, 21])
    config: dict = {"k": k, "mode": mode}
    if mode == "supermer":
        m = rng.choice([5, 7])
        config["minimizer_len"] = m
        config["window"] = min(rng.choice([k - m + 1, 2 * (k - m + 1) - 1]), 33 - k)
    if rng.random() < 0.4:
        config["canonical"] = True
    if rng.random() < 0.4:
        config["n_rounds"] = rng.choice([2, 3])
    options: dict = {}
    if rng.random() < 0.4:
        options["work_multiplier"] = rng.choice([4.0, 64.0])
    if rng.random() < 0.5:
        options["host_memory_budget"] = rng.choice([8_000, 50_000, 1_000_000])
    if rng.random() < 0.5:
        options["fused"] = True  # spilled side becomes blocked fused×spill
    backend = rng.choice(["gpu", "gpu", "cpu"])
    nodes = rng.choice([1, 2, 3])
    return config, options, backend, nodes


def _reads(rng: random.Random):
    genome = GenomeSimulator(
        rng.choice([3_000, 8_000]), repeat_fraction=rng.uniform(0.0, 0.3), seed=rng.randrange(1 << 16)
    ).generate_codes()
    return ReadSimulator(
        genome,
        coverage=rng.choice([3, 5]),
        length_profile=ReadLengthProfile(kind="lognormal", mean=rng.choice([250, 400]), sigma=0.4, min_len=60),
        error_rate=rng.choice([0.0, 0.01]),
        seed=rng.randrange(1 << 16),
    ).generate()


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_spill_equals_in_memory_on_random_configuration(trial, tmp_path):
    rng = random.Random(0x5B111 + trial)
    config_kw, option_kw, backend, nodes = _random_case(rng)
    reads = _reads(rng)
    config = PipelineConfig(**config_kw)
    cluster = summit_gpu(nodes) if backend == "gpu" else summit_cpu(nodes)
    label = f"trial {trial}: {backend}x{nodes} {config_kw} {option_kw}"

    mem, spilled, reg_mem, reg_spill, _ = _run_pair(
        reads, cluster, config, backend, tmp_path, **option_kw
    )
    expected, actual = summarize_result(mem), summarize_result(spilled)
    for key in expected:
        assert actual[key] == expected[key], f"{label}: field {key!r} diverged"
    assert snapshot_digest(reg_spill) == snapshot_digest(reg_mem), f"{label}: telemetry diverged"
