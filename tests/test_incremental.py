"""Tests for incremental counting and checkpoint/resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions
from repro.core.incremental import DistributedCounter
from repro.dna.reads import ReadSet
from repro.kmers.kmerdb import write_kmerdb
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


def _assert_same_slots(a: DistributedCounter, b: DistributedCounter) -> None:
    """Every rank's table of ``a`` is ``b``'s, slot for slot."""
    assert len(a.tables) == len(b.tables)
    for ta, tb in zip(a.tables, b.tables):
        assert (ta.capacity, ta.n_entries) == (tb.capacity, tb.n_entries)
        assert np.array_equal(ta.keys, tb.keys) and np.array_equal(ta.counts, tb.counts)


def _assert_same_observables(a: DistributedCounter, b: DistributedCounter) -> None:
    """Everything a counter reports, tables included: nothing is excused."""
    _assert_same_slots(a, b)
    assert a.insert_stats == b.insert_stats
    assert a.timing == b.timing
    assert (a.n_batches, a.exchanged_items) == (b.n_batches, b.exchanged_items)
    assert np.array_equal(a.received_kmers, b.received_kmers)
    assert len(a.traffic.records) == len(b.traffic.records)
    for ra, rb in zip(a.traffic.records, b.traffic.records):
        assert (ra.op, ra.label) == (rb.op, rb.label)
        assert np.array_equal(ra.bytes_matrix, rb.bytes_matrix)
        assert (ra.items_matrix is None) == (rb.items_matrix is None)
        if ra.items_matrix is not None:
            assert np.array_equal(ra.items_matrix, rb.items_matrix)


def _rewrite(src, dst, **changes):
    """Copy the checkpoint ``src`` to ``dst`` with members replaced (``None`` drops one)."""
    with np.load(src) as data:
        payload = {key: data[key] for key in data.files}
    payload.update(changes)
    np.savez(dst, **{key: value for key, value in payload.items() if value is not None})
    return dst


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


class TestBatchConservation:
    """Every streamed batch is checked: the state's table counts grow by exactly the batch's parsed k-mers."""

    @staticmethod
    def _batches() -> tuple[ReadSet, ReadSet]:
        """One 18-base read (two k-mers over 12 ranks, so most ranks stay empty), then 40 reads of 100 bases."""
        rng = np.random.default_rng(6)
        tiny = ReadSet.from_strings(["".join(rng.choice(list("ACGT"), 18))])
        reads = ReadSet.from_strings(["".join(rng.choice(list("ACGT"), 100)) for _ in range(40)])
        return tiny, reads

    def test_a_state_holding_keys_born_again_raises(self, monkeypatch):
        """The fault: a state in which some rank is still empty is born again (``any`` -> ``all``),
        dropping the keys the other ranks held."""
        from repro.core.stages import spill

        monkeypatch.setattr(spill, "any", all, raising=False)
        tiny, reads = self._batches()
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        counter.add_reads(tiny)
        with pytest.raises(AssertionError, match="pipeline lost k-mers: parsed 3360, counted 3358"):
            counter.add_reads(reads)

    def test_the_same_batches_count_exactly(self):
        tiny, reads = self._batches()
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        counter.add_reads(tiny)
        counter.add_reads(reads)
        assert counter.spectrum().equals(count_kmers_exact(ReadSet.concat([tiny, reads]), 17))


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

    @pytest.mark.parametrize("saved", [False, True], ids=["forward-saved", "canonical-saved"])
    def test_canonical_mismatch_rejected(self, batches, tmp_path, saved):
        """Resuming forward counts as canonical ones (or the other way round) would mix both in one spectrum."""
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17, canonical=saved))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        wrong = DistributedCounter(summit_gpu(1), PipelineConfig(k=17, canonical=not saved))
        wrong.add_reads(batches[1])
        before = wrong.spectrum()
        with pytest.raises(ValueError) as excinfo:
            wrong.load(path)
        assert str(excinfo.value) == f"{path}: checkpoint canonical={saved} != config canonical={not saved}"
        assert wrong.n_batches == 1 and wrong.spectrum().equals(before)
        resumed = DistributedCounter(summit_gpu(1), PipelineConfig(k=17, canonical=saved))
        resumed.load(path)
        assert resumed.spectrum().equals(counter.spectrum())

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
        _assert_same_observables(other, counter)

    def test_more_ranks_than_reads_round_trips(self, genome_reads, tmp_path):
        cluster = summit_gpu(2)
        counter = DistributedCounter(cluster, PipelineConfig(k=17))
        counter.add_reads(genome_reads.select(range(cluster.n_ranks // 2)))  # half the shards are empty
        assert counter.total_kmers > 0
        other = DistributedCounter(cluster, PipelineConfig(k=17))
        other.load(counter.save(tmp_path / "sparse.npz"))
        _assert_same_observables(other, counter)

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

    def test_save_syncs_the_file_then_the_rename(self, batches, tmp_path, monkeypatch):
        """Durable: the temp file reaches the disk before the rename, the rename before save returns."""
        import os
        import stat

        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("dir-fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file-fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        counter.save(tmp_path / "c.npz")
        assert calls == ["file-fsync", "replace", "dir-fsync"]

    def test_failed_save_keeps_the_previous_checkpoint(self, batches, tmp_path, monkeypatch):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        path = counter.save(tmp_path / "c.npz")
        before = counter.spectrum()
        counter.add_reads(batches[1])

        def short_write(file, **arrays):
            (file if hasattr(file, "write") else open(file, "wb")).write(b"PK\x03\x04 truncated")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", short_write)
        with pytest.raises(OSError, match="No space left"):
            counter.save(path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]  # no temp file left behind
        other = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        other.load(path)
        assert other.n_batches == 1 and other.spectrum().equals(before)


class TestCheckpointAccounting:
    """A checkpoint carries the whole accounting and the tables slot for
    slot, so a resumed run equals the uninterrupted one on every observable."""

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
        _assert_same_observables(resumed, full)

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
        _assert_same_observables(resumed, full)

    @pytest.mark.parametrize("fused", [False, True], ids=["staged", "fused"])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_resume_after_the_second_batch_is_bit_identical(self, mode, fused, tmp_path):
        """ecoli30x x 0.05 in three batches, cut after two: the cut where a
        table with an arrival history differs from one bulk-loaded from its
        sorted items (capacity and slot order), which every probe count of
        the third batch then shows."""
        from repro.bench import dataset_with_multiplier
        from repro.core.engine import EngineOptions

        reads, _ = dataset_with_multiplier("ecoli30x", 0.05)
        parts = [reads.select(list(idx)) for idx in np.array_split(np.arange(reads.n_reads), 3)]
        cfg = PipelineConfig(k=17, mode=mode)
        cluster = summit_gpu(1)
        opts = EngineOptions(fused=fused)

        full = DistributedCounter(cluster, cfg, options=opts)
        for part in parts:
            full.add_reads(part)
        first = DistributedCounter(cluster, cfg, options=opts)
        for part in parts[:2]:
            first.add_reads(part)
        resumed = DistributedCounter(cluster, cfg, options=opts)
        resumed.load(first.save(tmp_path / "cut2.npz"))
        _assert_same_slots(resumed, first)
        resumed.add_reads(parts[2])
        _assert_same_observables(resumed, full)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_per_rank_state_is_block_views_and_resumes_at_every_cut(self, batches, tmp_path, monkeypatch, cut):
        """After its first batch a per-rank counter holds views of the
        block-local segmented tables that batch gave birth to (several ranks
        per table here); a checkpoint of them loads straight into block
        views of the same slots, in blocks of the loader's choosing — and
        nothing observable can tell."""
        from repro.gpu import segmented
        from repro.gpu.hashtable import DeviceHashTable

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)
        cfg = PipelineConfig(k=17)
        cluster = summit_gpu(2)
        full = DistributedCounter(cluster, cfg)
        assert not any(isinstance(t, DeviceHashTable) or t.n_entries for t in full.tables)
        for batch in batches:
            full.add_reads(batch)
        blocks = segmented.view_blocks(full.tables)
        assert 1 < len(blocks) < cluster.n_ranks
        assert [r1 - r0 for r0, r1, _ in blocks] == [table.n_ranks for _, _, table in blocks]

        first = DistributedCounter(cluster, cfg)
        for batch in batches[:cut]:
            first.add_reads(batch)
        resumed = DistributedCounter(cluster, cfg)
        resumed.load(first.save(tmp_path / f"cut{cut}.npz"))
        loaded = segmented.view_blocks(resumed.tables)
        assert not any(isinstance(t, DeviceHashTable) for t in resumed.tables)
        assert [r1 - r0 for r0, r1, _ in loaded] == [table.n_ranks for _, _, table in loaded]
        _assert_same_slots(resumed, first)
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        assert all(a[2] is b[2] for a, b in zip(loaded, segmented.view_blocks(resumed.tables)))
        _assert_same_observables(resumed, full)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_resume_on_the_other_layout_at_every_cut(self, batches, tmp_path, monkeypatch, cut):
        """Saved by one layout, resumed by the other: the uninterrupted run, whichever way round."""
        from repro.core.engine import EngineOptions
        from repro.gpu import segmented

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)
        cfg = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        for saver, resumer in ((False, True), (True, False)):
            full = DistributedCounter(cluster, cfg, options=EngineOptions(fused=saver))
            first = DistributedCounter(cluster, cfg, options=EngineOptions(fused=saver))
            for i, batch in enumerate(batches):
                full.add_reads(batch)
                if i < cut:
                    first.add_reads(batch)
            resumed = DistributedCounter(cluster, cfg, options=EngineOptions(fused=resumer))
            resumed.load(first.save(tmp_path / f"cut{cut}-{saver}.npz"))
            for batch in batches[cut:]:
                resumed.add_reads(batch)
            _assert_same_observables(resumed, full)

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_a_state_born_at_its_size_resumes_at_every_cut(self, batches, tmp_path, monkeypatch, cut):
        """Under a host budget the state is born at its first batch's parsed k-mers (no regrow after it);
        a checkpoint at any cut, an empty one included, resumes on the other layout to the uninterrupted run."""
        from repro.gpu import segmented

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)
        cfg = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        budgeted = EngineOptions(host_memory_budget=1 << 30)
        full = DistributedCounter(cluster, cfg, options=budgeted)
        first = DistributedCounter(cluster, cfg, options=budgeted)
        for i, batch in enumerate(batches):
            full.add_reads(batch)
            if i < cut:
                first.add_reads(batch)
        unbudgeted = DistributedCounter(cluster, cfg)
        for batch in batches:
            unbudgeted.add_reads(batch)
        assert full.insert_stats.resizes < unbudgeted.insert_stats.resizes
        resumed = DistributedCounter(cluster, cfg, options=EngineOptions(host_memory_budget=1 << 30, fused=True))
        resumed.load(first.save(tmp_path / f"cut{cut}.npz"))
        for batch in batches[cut:]:
            resumed.add_reads(batch)
        _assert_same_observables(resumed, full)

    @pytest.mark.parametrize("fused", [False, True], ids=["staged", "fused"])
    def test_a_state_without_keys_is_born_again_in_the_drives_blocks(self, batches, monkeypatch, fused):
        """A fresh state is one table of empty 128-slot regions; each batch until one holds keys
        re-births it at those capacities, in its own blocks, which every later batch keeps."""
        from repro.core.engine import EngineOptions
        from repro.gpu import segmented

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 19)
        cluster = summit_gpu(2)
        counter = DistributedCounter(cluster, PipelineConfig(k=17), options=EngineOptions(fused=fused))
        fresh = counter.tables
        assert len(segmented.view_blocks(fresh)) == 1 and {t.capacity for t in fresh} == {128}
        counter.add_reads(ReadSet.empty())
        assert counter.tables[0] is not fresh[0] and {t.capacity for t in counter.tables} == {128}
        counter.add_reads(batches[0])
        born = segmented.view_blocks(counter.tables)
        assert 1 < len(born) < cluster.n_ranks
        counter.add_reads(batches[1])
        assert all(a[2] is b[2] for a, b in zip(born, segmented.view_blocks(counter.tables)))
        reference = DistributedCounter(cluster, PipelineConfig(k=17))
        for batch in batches[:2]:
            reference.add_reads(batch)
        assert counter.insert_stats == reference.insert_stats  # resizes counted from 128 slots, as ever

    def test_staged_fused_staged_flip_equals_the_unflipped_run(self, batches, monkeypatch):
        """Both layouts count through the blocks batch 1 gave birth to: a flip copies nothing."""
        from repro.core.engine import EngineOptions
        from repro.gpu import segmented

        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)
        cfg = PipelineConfig(k=17, mode="supermer")
        cluster = summit_gpu(2)
        plain = DistributedCounter(cluster, cfg)
        flipped = DistributedCounter(cluster, cfg)
        births = []
        real_init = segmented.SegmentedHashTable.__init__

        def counting_init(self, *args, **kwargs):
            births.append(1)
            real_init(self, *args, **kwargs)

        parents = []
        for batch, fused in zip(batches, (False, True, False)):
            plain.add_reads(batch)
            flipped._scheduler.opts = EngineOptions(fused=fused)
            flipped.add_reads(batch)
            parents.append([table for _, _, table in segmented.view_blocks(flipped.tables)])
            monkeypatch.setattr(segmented.SegmentedHashTable, "__init__", counting_init)
        assert len(parents[0]) > 1
        assert all(a is b for later in parents[1:] for a, b in zip(parents[0], later, strict=True))
        assert births == []  # no table is born after batch 1
        _assert_same_observables(flipped, plain)

    def test_mmap_backed_flat_state_round_trips_through_ram(self, batches, tmp_path):
        """Views of file-backed slabs save through the same path: into an
        in-RAM per-rank counter, and back into a fresh ``table_dir`` one,
        whose loaded tables are file-backed from the start."""
        from repro.core.engine import EngineOptions

        cfg = PipelineConfig(k=17)
        cluster = summit_gpu(2)
        mapped = lambda sub: EngineOptions(fused=True, table_dir=tmp_path / sub)  # noqa: E731
        on_disk = DistributedCounter(cluster, cfg, options=mapped("a"))
        for batch in batches[:2]:
            on_disk.add_reads(batch)
        assert isinstance(on_disk.tables[0].keys, np.memmap)

        in_ram = DistributedCounter(cluster, cfg)
        in_ram.load(on_disk.save(tmp_path / "mapped.npz"))
        _assert_same_observables(in_ram, on_disk)
        back = DistributedCounter(cluster, cfg, options=mapped("b"))
        back.load(in_ram.save(tmp_path / "ram.npz"))
        assert isinstance(back.tables[0].keys, np.memmap)  # a resumed state is born with its backing
        _assert_same_observables(back, on_disk)
        assert (tmp_path / "mapped.npz").read_bytes() == (tmp_path / "ram.npz").read_bytes()

        for counter in (on_disk, in_ram, back):
            counter.add_reads(batches[2])
        _assert_same_observables(in_ram, on_disk)
        _assert_same_observables(back, on_disk)

    def test_older_versions_are_rejected_by_name(self, batches, tmp_path):
        """Versions 1 and 2 stored each rank's sorted items, not its slots; version 3 did not record ``canonical``."""
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        before = counter.spectrum()
        payload = {
            "k": np.array([17]),
            "n_ranks": np.array([len(counter.tables)]),
            "n_batches": np.array([1]),
            "exchanged_items": np.array([counter.exchanged_items]),
            "received": counter.received_kmers,
            "timing": np.array([0.1, 0.2, 0.3]),
        }
        for r, table in enumerate(counter.tables):
            payload[f"keys_{r}"], payload[f"counts_{r}"] = table.items()
        current = counter.save(tmp_path / "current.npz")
        for version in (1, 2, 3):
            old = tmp_path / f"v{version}.npz"
            if version < 3:
                np.savez_compressed(old, version=np.array([version]), **payload)
            else:  # the slot layout, without ``canonical``
                _rewrite(current, old, version=np.array([version]), canonical=None)
            with pytest.raises(
                ValueError,
                match=rf"v{version}\.npz: not a usable checkpoint: .*version {version}\b.*recount the inputs",
            ):
                counter.load(old)
        assert counter.n_batches == 1 and counter.spectrum().equals(before)

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


class TestUnusableCheckpoint:
    """A file that cannot be read back whole is one ``ValueError`` naming it,
    and the counter that tried to load it is left exactly as it was."""

    @pytest.fixture
    def saved(self, batches, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[0])
        return counter, counter.save(tmp_path / "good.npz")

    @staticmethod
    def _damaged(kind: str, good):
        raw = good.read_bytes()
        bad = good.with_name(f"{kind}.npz")
        if kind == "half":
            bad.write_bytes(raw[: len(raw) // 2])
        elif kind == "minus10":
            bad.write_bytes(raw[:-10])
        elif kind == "empty":
            bad.write_bytes(b"")
        elif kind == "bitflip":
            mid = len(raw) // 2
            bad.write_bytes(raw[:mid] + bytes([raw[mid] ^ 0x40]) + raw[mid + 1 :])
        elif kind == "no-occupancy":
            _rewrite(good, bad, occupancy=None)
        else:
            with np.load(good) as data:
                short = {"short-counts": "counts", "short-received": "received"}[kind]
                _rewrite(good, bad, **{short: data[short][:-1]})
        return bad

    @pytest.mark.parametrize(
        "kind", ["half", "minus10", "empty", "bitflip", "no-occupancy", "short-counts", "short-received"]
    )
    def test_one_error_that_names_the_file(self, saved, kind):
        counter, good = saved
        bad = self._damaged(kind, good)
        fresh = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        with pytest.raises(ValueError, match=rf"{kind}\.npz: not a usable checkpoint: \S"):
            fresh.load(bad)

    @pytest.mark.parametrize(
        "member, value, why",
        [
            ("capacities", np.full(6, 96), "power of two"),
            ("capacities", np.full(5, 64), r"'capacities' is int64\(5,\)"),
            ("occupancy", np.zeros(7, dtype=np.uint8), "'occupancy'"),
            ("keys", np.zeros(3, dtype=np.uint64), "'keys'"),
            ("timing", np.zeros(3, dtype=np.int64), "'timing' is int64"),
            ("insert_stats", np.zeros(6, dtype=np.int64), "'insert_stats'"),
            ("traffic_bytes", np.zeros((1, 6, 5), dtype=np.int64), "'traffic_bytes'"),
            ("traffic_has_items", np.zeros(2, dtype=bool), "'traffic_has_items'"),
        ],
    )
    def test_structural_mismatch_is_named(self, saved, member, value, why):
        counter, good = saved
        bad = _rewrite(good, good.with_name("bad.npz"), **{member: value})
        with pytest.raises(ValueError, match=rf"bad\.npz: not a usable checkpoint: .*{why}"):
            counter.load(bad)

    def test_sentinel_key_or_zero_count_is_rejected(self, saved):
        counter, good = saved
        with np.load(good) as data:
            keys, counts = data["keys"].copy(), data["counts"].copy()
        keys[0], counts[-1] = np.uint64(2**64 - 1), 0
        for change in ({"keys": keys}, {"counts": counts}):
            bad = _rewrite(good, good.with_name("bad.npz"), **change)
            with pytest.raises(ValueError, match="bad.npz: not a usable checkpoint: an occupied slot"):
                counter.load(bad)

    def test_missing_file_is_still_file_not_found(self, tmp_path):
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        with pytest.raises(FileNotFoundError, match="absent.npz"):
            counter.load(tmp_path / "absent.npz")

    def test_failed_load_leaves_the_counter_untouched(self, batches, saved):
        """Regression: ``load`` had replaced the tables before it reached the
        member that was missing."""
        _, good = saved
        counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        counter.add_reads(batches[1])
        reference = DistributedCounter(summit_gpu(1), PipelineConfig(k=17))
        reference.add_reads(batches[1])
        for dropped in ("traffic_items", "insert_stats", "counts"):
            with pytest.raises(ValueError, match="not a usable checkpoint"):
                counter.load(_rewrite(good, good.with_name("partial.npz"), **{dropped: None}))
            assert counter.spectrum().equals(reference.spectrum())
            _assert_same_observables(counter, reference)


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


class TestRoundsWithinABatch:
    """Metamorphic (ROADMAP item 3(b)): how many rounds a batch takes, and where they live, changes no k-mer."""

    MODES = {"kmer": {"k": 17}, "supermer": {"k": 17, "mode": "supermer", "minimizer_len": 7, "window": 15}}

    @staticmethod
    def _db(counter: DistributedCounter, path) -> bytes:
        write_kmerdb(path, counter.spectrum())
        return path.read_bytes()

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_rounds_and_residency_change_no_kmer(self, batches, tmp_path, mode):
        dbs = set()
        for n_rounds in (1, 2, 3):
            for spooled in (False, True):
                config = PipelineConfig(n_rounds=n_rounds, **self.MODES[mode])
                options = EngineOptions(spill_dir=tmp_path / "spool" if spooled else None)
                counter = DistributedCounter(summit_gpu(2), config, options=options)
                for batch in batches[:2]:
                    counter.add_reads(batch)
                assert len(counter.traffic.records) == 2 * n_rounds
                dbs.add(self._db(counter, tmp_path / f"r{n_rounds}-{spooled}.rkdb"))
        assert counter.spectrum().equals(count_kmers_exact(ReadSet.concat(batches[:2]), 17))
        assert len(dbs) == 1

    def test_a_checkpoint_saved_at_one_round_resumes_at_three(self, batches, tmp_path):
        plain = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        for batch in batches:
            plain.add_reads(batch)
        first = DistributedCounter(summit_gpu(2), PipelineConfig(k=17))
        first.add_reads(batches[0])
        first.save(tmp_path / "ck.npz")
        resumed = DistributedCounter(summit_gpu(2), PipelineConfig(k=17, n_rounds=3))
        resumed.load(tmp_path / "ck.npz")
        for batch in batches[1:]:
            resumed.add_reads(batch)
        assert [rec.label for rec in resumed.traffic.records] == [
            "kmer-batch0",
            *(f"kmer-batch{b}-round{r}" for b in (1, 2) for r in range(3)),
        ]
        assert resumed.total_kmers == plain.total_kmers
        assert self._db(resumed, tmp_path / "resumed.rkdb") == self._db(plain, tmp_path / "plain.rkdb")

    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    def test_more_rounds_than_a_segment_has_items(self, tmp_path, spooled):
        """Eight k-mers on 12 ranks in 7 rounds: round 0 is empty everywhere, most ranks receive nothing."""
        reads = ReadSet.from_strings(["ACGTTGCAAGGCTTACGATC", "TTGACCGTAGGCATCAGTCA"])
        options = EngineOptions(spill_dir=tmp_path / "spool" if spooled else None)
        one = DistributedCounter(summit_gpu(2), PipelineConfig(k=17), options=options)
        seven = DistributedCounter(summit_gpu(2), PipelineConfig(k=17, n_rounds=7), options=options)
        for counter in (one, seven):
            counter.add_reads(reads)
        items = [rec.total_items for rec in seven.traffic.records]
        assert len(items) == 7 and items[0] == 0 and sum(items) == 8
        assert (seven.received_kmers == 0).sum() >= 4
        assert seven.spectrum().equals(count_kmers_exact(reads, 17))
        assert self._db(seven, tmp_path / "seven.rkdb") == self._db(one, tmp_path / "one.rkdb")
