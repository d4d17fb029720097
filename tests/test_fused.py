"""Unit tests for the engine's block building blocks and the ``fused`` switch.

Covers the scratch-buffer arena, the segmented hash table against the
scalar per-rank reference, the doubling window pack, fused-mode resolution (flag/fallback), and the CLI
surface (``--fused``, ``--profile``).  The end-to-end bit-identity of
fused runs is proven by the golden suite (``test_stages_golden.py``) and
the randomized differential suite (``test_fused_property.py``).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core.memory import ScratchArena
from repro.gpu.hashtable import DeviceHashTable, InsertStats
from repro.gpu.segmented import SegmentedHashTable
from repro.kmers.extract import extract_kmers_scalar, window_values
from repro.telemetry import MetricRegistry, session

from .test_hashtable import ScalarTable


def _random_keys(rng: np.random.Generator, n: int, space: int = 512) -> np.ndarray:
    return rng.integers(0, space, size=n).astype(np.uint64)


# -- scratch arena ------------------------------------------------------------


class TestScratchArena:
    def test_take_returns_requested_length_and_dtype(self):
        arena = ScratchArena()
        buf = arena.take(100, np.int64)
        assert buf.shape == (100,) and buf.dtype == np.int64

    def test_release_then_take_reuses_block(self):
        arena = ScratchArena()
        buf = arena.take(2000, np.uint64)
        base = buf.base
        arena.release(buf)
        again = arena.take(1500, np.uint64)
        assert again.base is base
        assert arena.bytes_reused == 1500 * 8

    def test_capacity_rounds_to_power_of_two(self):
        arena = ScratchArena()
        buf = arena.take(1025, np.uint8)
        assert buf.base.shape == (2048,)
        assert arena.footprint_bytes == 2048

    def test_dtype_pools_are_separate(self):
        arena = ScratchArena()
        a = arena.take(10, np.int64)
        arena.release(a)
        b = arena.take(10, np.uint64)
        assert b.base is not a.base  # no cross-dtype reuse
        assert arena.bytes_reused == 0

    def test_double_release_raises(self):
        arena = ScratchArena()
        buf = arena.take(10, np.int64)
        arena.release(buf)
        with pytest.raises(ValueError, match="twice"):
            arena.release(buf)

    def test_release_ignores_none_and_foreign_arrays(self):
        arena = ScratchArena()
        arena.release(None, np.empty(5), np.empty(5)[1:])  # no-op, no error

    def test_negative_take_raises(self):
        arena = ScratchArena()
        with pytest.raises(ValueError, match="negative"):
            arena.take(-1, np.int64)

    def test_reset_drops_pooled_blocks(self):
        arena = ScratchArena()
        arena.release(arena.take(10, np.int64))
        arena.reset()
        assert arena.footprint_bytes == 0
        arena.take(10, np.int64)  # allocates fresh
        assert arena.bytes_reused == 0

    def test_dead_borrow_is_forgotten_not_adopted(self):
        """Regression: a borrowed block that dies unreleased must leave the
        owned registry, so an unrelated array reusing its ``id()`` can never
        be adopted into the free lists."""
        import gc

        arena = ScratchArena()
        view = arena.take(2000, np.uint64)
        block_id = id(view.base)
        nbytes = view.base.nbytes
        before = arena.footprint_bytes
        del view
        gc.collect()
        assert block_id not in arena._owned
        assert arena.footprint_bytes == before - nbytes

    def test_id_reuse_cannot_smuggle_foreign_array_into_pool(self):
        """Regression: ScratchArena._owned used to store bare ids with no
        reference; after the borrowed block was collected, a foreign array
        allocated at the same id could be released into the free lists and
        handed to a later take() while its real owner still used it."""
        import gc

        arena = ScratchArena()
        view = arena.take(2000, np.uint64)
        del view
        gc.collect()
        # Whatever array we allocate now — even at a recycled id — must be
        # rejected: the weakref registry no longer claims it.
        foreign = np.zeros(4096, dtype=np.uint64)
        arena.release(foreign)
        assert all(foreign is not b for blocks in arena._free.values() for b in blocks)
        taken = arena.take(2000, np.uint64)
        assert taken.base is not foreign

    def test_reset_survives_outstanding_borrow_death(self):
        """A block borrowed across reset() must not double-decrement the
        footprint when it finally dies."""
        import gc

        arena = ScratchArena()
        view = arena.take(2000, np.uint64)
        held = arena.take(3000, np.int64)
        arena.release(view)
        arena.reset()  # drops the pooled uint64 block, held stays borrowed
        footprint_after_reset = arena.footprint_bytes
        del held
        gc.collect()
        assert arena.footprint_bytes == footprint_after_reset - 4096 * 8
        del view
        gc.collect()
        assert arena.footprint_bytes >= 0

    def test_telemetry_counters_are_wall_only(self):
        reg = MetricRegistry()
        with session(reg):
            arena = ScratchArena()
            buf = arena.take(10, np.int64)
            arena.release(buf)
            arena.take(10, np.int64)
        wall = set(reg.snapshot(include_wall=True))
        model = set(reg.snapshot(include_wall=False))
        arena_names = {"arena_bytes_allocated_total", "arena_bytes_reused_total", "arena_peak_bytes"}
        assert arena_names <= wall
        assert not model & arena_names


# -- segmented hash table -----------------------------------------------------


def _per_rank_reference(
    segments: list[np.ndarray], hints: list[int], **kw
) -> tuple[list[DeviceHashTable], list[InsertStats]]:
    tables = [DeviceHashTable(h, **kw) for h in hints]
    stats = [
        t.insert_batch(seg) if seg.size else InsertStats.zero() for t, seg in zip(tables, segments)
    ]
    return tables, stats


def _offsets(segments: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum([s.shape[0] for s in segments])]).astype(np.int64)


@pytest.mark.parametrize("probing", ["linear", "quadratic", "double"])
def test_insert_flat_matches_per_rank_tables(probing):
    """The segmented table ≡ P per-rank tables: stats, slabs and lookups
    against the independent scalar reference, telemetry against P
    one-region tables inserted one at a time.

    Three inserts into the same tables: a plain one, a weighted one, and
    one that regrows two regions mid-stream while the other ranks'
    segments are zero-width.  Rank 1 never receives a key.
    """
    rng = np.random.default_rng(7)
    hints = [64, 64, 8, 128, 1]
    seg = SegmentedHashTable(hints, seed=3, probing=probing)
    refs = [ScalarTable(h, seed=3, probing=probing) for h in hints]
    tables = [DeviceHashTable(h, seed=3, probing=probing) for h in hints]
    resizes = []
    for sizes, weighted in (
        ((300, 0, 57, 1000, 40), False),
        ((120, 0, 30, 0, 25), True),
        ((0, 0, 900, 0, 700), False),
    ):
        segments = [_random_keys(rng, n, space=4096) for n in sizes]
        weights = [rng.integers(1, 9, size=n) for n in sizes] if weighted else [None] * len(sizes)
        with session(MetricRegistry()) as flat_reg:
            stats = seg.insert_flat(
                np.concatenate(segments),
                _offsets(segments),
                weights=np.concatenate(weights) if weighted else None,
            )
        with session(MetricRegistry()) as ref_reg:
            for t, s, w in zip(tables, segments, weights):
                if s.size:
                    t.insert_batch(s, w)
        ref_stats = [
            ref.insert_batch(s, w) if s.size else InsertStats.zero() for ref, s, w in zip(refs, segments, weights)
        ]
        assert stats == ref_stats  # dataclass equality: every InsertStats field
        # Every hashtable_* family, the hashtable_probe_length histogram included.
        assert flat_reg.snapshot() == ref_reg.snapshot()
        assert "hashtable_probe_length" in flat_reg.snapshot()
        resizes.append(sum(s.resizes for s in stats))
    assert resizes[-1] > 0, "the last insert must regrow"
    for r, ref in enumerate(refs):
        # Layouts (not just sorted items) must agree byte for byte.
        lo, hi = int(seg.region_base[r]), int(seg.region_base[r + 1])
        assert (seg.keys[lo:hi].tobytes(), seg.counts[lo:hi].tobytes()) == ref.slab()
        present, counts = ref.items()
        absent = present + np.uint64(1 << 40)
        found = seg.lookup_of(r, np.concatenate([present, absent]))
        assert np.array_equal(found, np.concatenate([counts, np.zeros_like(counts)]))


def test_insert_flat_resize_path_matches_repeated_doubling():
    rng = np.random.default_rng(11)
    # Tiny hints force several growth events inside one flat insert.
    segments = [_random_keys(rng, 900, space=4096), _random_keys(rng, 500, space=4096)]
    hints = [1, 1]
    seg = SegmentedHashTable(hints, seed=0)
    stats = seg.insert_flat(np.concatenate(segments), _offsets(segments))
    tables, ref_stats = _per_rank_reference(segments, hints, seed=0)
    assert [s.resizes for s in stats] == [s.resizes for s in ref_stats]
    assert stats == ref_stats
    for r, table in enumerate(tables):
        lo, hi = int(seg.region_base[r]), int(seg.region_base[r + 1])
        assert np.array_equal(seg.keys[lo:hi], table.keys)
        assert np.array_equal(seg.counts[lo:hi], table.counts)


def test_insert_flat_over_multiple_rounds_matches():
    rng = np.random.default_rng(13)
    hints = [32, 32, 32]
    seg = SegmentedHashTable(hints, seed=5)
    tables = [DeviceHashTable(h, seed=5) for h in hints]
    for _ in range(4):
        segments = [_random_keys(rng, int(n)) for n in rng.integers(0, 400, size=3)]
        stats = seg.insert_flat(np.concatenate(segments), _offsets(segments))
        for r, segment in enumerate(segments):
            ref = tables[r].insert_batch(segment) if segment.size else InsertStats.zero()
            assert stats[r] == ref
    for r, table in enumerate(tables):
        keys, counts = seg.items_of(r)
        rkeys, rcounts = table.items()
        assert np.array_equal(keys, rkeys) and np.array_equal(counts, rcounts)


def test_insert_flat_weights_and_validation():
    seg = SegmentedHashTable([64, 64])
    vals = np.array([5, 5, 9], dtype=np.uint64)
    offs = np.array([0, 2, 3], dtype=np.int64)
    seg.insert_flat(vals, offs, weights=np.array([2, 3, 4], dtype=np.int64))
    keys0, counts0 = seg.items_of(0)
    assert keys0.tolist() == [5] and counts0.tolist() == [5]
    keys1, counts1 = seg.items_of(1)
    assert keys1.tolist() == [9] and counts1.tolist() == [4]
    with pytest.raises(ValueError, match="seg_offsets"):
        seg.insert_flat(vals, np.array([0, 3], dtype=np.int64))
    with pytest.raises(ValueError, match="span"):
        seg.insert_flat(vals, np.array([0, 2, 4], dtype=np.int64))
    with pytest.raises(ValueError, match=">= 1"):
        seg.insert_flat(vals, offs, weights=np.array([1, 0, 1], dtype=np.int64))


def test_from_slots_preserves_layout_and_future_stats():
    """A table restored from its slot dump continues as the one it was dumped from."""
    from repro.gpu.hashtable import dump_slots

    rng = np.random.default_rng(17)
    segments = [_random_keys(rng, 200), _random_keys(rng, 350)]
    seg = SegmentedHashTable([64, 64], seed=9)
    seg.insert_flat(np.concatenate(segments), _offsets(segments))
    twin = SegmentedHashTable.from_slots(seg.capacities, *dump_slots(seg.keys, seg.counts), seed=9)
    assert np.array_equal(twin.keys, seg.keys) and np.array_equal(twin.counts, seg.counts)
    assert np.array_equal(twin.n_entries_per_rank, seg.n_entries_per_rank)
    # Future inserts produce the same probe statistics either way.
    more = [_random_keys(rng, 150), _random_keys(rng, 150)]
    assert twin.insert_flat(np.concatenate(more), _offsets(more)) == seg.insert_flat(
        np.concatenate(more), _offsets(more)
    )
    assert np.array_equal(twin.keys, seg.keys) and np.array_equal(twin.counts, seg.counts)


def test_rank_view_duck_types_device_table():
    rng = np.random.default_rng(19)
    segments = [_random_keys(rng, 100), _random_keys(rng, 100)]
    seg = SegmentedHashTable([64, 64], seed=2)
    seg.insert_flat(np.concatenate(segments), _offsets(segments))
    ref, _ = _per_rank_reference(segments, [64, 64], seed=2)
    for r, view in enumerate(seg.views()):
        assert view.capacity == ref[r].capacity
        assert view.n_entries == ref[r].n_entries
        assert view.load_factor == ref[r].load_factor
        assert view.table_bytes == ref[r].table_bytes
        assert np.array_equal(view.items()[0], ref[r].items()[0])
        probe = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(view.lookup_batch(probe), ref[r].lookup_batch(probe))


def test_rank_view_insert_batch_routes_to_parent_region():
    """A staged batch over adopted views must keep counting correctly."""
    rng = np.random.default_rng(23)
    segments = [_random_keys(rng, 120), _random_keys(rng, 80)]
    seg = SegmentedHashTable([64, 64], seed=4)
    seg.insert_flat(np.concatenate(segments), _offsets(segments))
    ref, _ = _per_rank_reference(segments, [64, 64], seed=4)
    extra = [_random_keys(rng, 60), _random_keys(rng, 60)]
    for r, view in enumerate(seg.views()):
        assert view.insert_batch(extra[r]) == ref[r].insert_batch(extra[r])
        assert np.array_equal(view.items()[1], ref[r].items()[1])


# -- doubling window pack -----------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 11, 16, 17, 23, 31, 32])
def test_window_values_matches_scalar_reference(width):
    from repro.dna.encoding import string_to_codes

    rng = np.random.default_rng(width)
    bases = "ACGTN"
    read = "".join(bases[i] for i in rng.integers(0, 5, size=200))
    windows = window_values(string_to_codes(read), width)
    assert windows.compact().tolist() == extract_kmers_scalar(read, width)


def test_window_values_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        window_values(np.zeros(4, dtype=np.uint8), 33)


# -- fused-mode resolution ----------------------------------------------------


def _resolved(**opt_kw) -> str:
    """Strategy name the scheduler resolves for a standard gpu:kmer composition."""
    from repro.core.config import PipelineConfig
    from repro.core.engine import EngineOptions
    from repro.core.stages.registry import build_composition
    from repro.core.stages.scheduler import RoundScheduler
    from repro.mpi.topology import summit_gpu

    config = PipelineConfig(k=15, mode="kmer")
    opts = EngineOptions(**opt_kw)
    comp = build_composition("gpu:kmer", config, opts)
    return RoundScheduler(summit_gpu(1), config, comp, opts).resolve_strategy().name


def test_resolve_fused_explicit_flag_wins(monkeypatch):
    """``EngineOptions(fused=)`` is the one switch: a stale REPRO_FUSED is not read."""
    monkeypatch.setenv("REPRO_FUSED", "1")
    assert _resolved(fused=False) == "staged"
    monkeypatch.setenv("REPRO_FUSED", "0")
    assert _resolved(fused=True) == "fused"


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("on", True), ("TRUE", True), ("auto", True), ("fused", True),
    ("", False), ("0", False), ("off", False), ("no", False), ("none", False),
])
def test_resolve_fused_env_values(monkeypatch, value, expected):
    """Whatever the retired variable holds, the default is off and the flag decides."""
    monkeypatch.setenv("REPRO_FUSED", value)
    assert _resolved() == "staged"
    assert _resolved(fused=expected) == ("fused" if expected else "staged")


def test_resolve_fused_unset_env_defaults_off(monkeypatch):
    from repro.core.engine import EngineOptions

    monkeypatch.delenv("REPRO_FUSED", raising=False)
    assert EngineOptions().fused is False
    assert _resolved() == "staged"


def test_custom_stages_resolve_to_the_cell_asked_for(caplog):
    """The exchange and the merge are the residency's: custom stages run on every cell, unannounced."""
    import dataclasses

    from repro.core.config import PipelineConfig
    from repro.core.engine import EngineOptions, run_pipeline
    from repro.core.stages.registry import build_composition
    from repro.core.stages.scheduler import RoundScheduler
    from repro.core.stages.standard import KmerParse, TableCount
    from repro.dna.simulate import simulate_dataset
    from repro.mpi.topology import summit_gpu

    config = PipelineConfig(k=15, mode="kmer")
    reads = simulate_dataset(genome_length=3000, coverage=3, seed=5)
    cluster = summit_gpu(1)
    staged = run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions())
    comp = build_composition("gpu:kmer", config, EngineOptions())
    custom = dataclasses.replace(
        comp, parse=type("CustomParse", (KmerParse,), {})(), count=type("CustomCount", (TableCount,), {})()
    )
    with caplog.at_level(logging.INFO, logger="repro.telemetry"):
        scheduler = RoundScheduler(cluster, config, custom, EngineOptions(fused=True))
        fused = scheduler.run(reads)
    assert scheduler.resolve_strategy().name == "fused"
    assert not any(".fallback" in rec.message for rec in caplog.records)
    assert np.array_equal(fused.spectrum.values, staged.spectrum.values)
    assert np.array_equal(fused.spectrum.counts, staged.spectrum.counts)


def test_fused_then_staged_batches_share_one_table_state():
    """Flipping fused off mid-stream continues on the blocks the first batch left."""
    from repro.core.config import PipelineConfig
    from repro.core.engine import EngineOptions
    from repro.core.incremental import DistributedCounter
    from repro.dna.simulate import simulate_dataset
    from repro.mpi.topology import summit_gpu

    config = PipelineConfig(k=15, mode="kmer")
    batches = [simulate_dataset(genome_length=3000, coverage=3, seed=s) for s in (1, 2)]

    mixed = DistributedCounter(summit_gpu(1), config, backend="gpu", options=EngineOptions(fused=True))
    mixed.add_reads(batches[0])
    mixed._scheduler.opts = EngineOptions(fused=False)
    mixed.add_reads(batches[1])

    plain = DistributedCounter(summit_gpu(1), config, backend="gpu")
    for batch in batches:
        plain.add_reads(batch)

    a, b = mixed.spectrum(), plain.spectrum()
    assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)
    assert mixed.timing == plain.timing


# -- CLI surface --------------------------------------------------------------


def test_cli_fused_and_profile_smoke(tmp_path, capsys):
    from repro.cli import main

    fastq = tmp_path / "reads.fastq"
    assert main(["simulate", "--out", str(fastq), "--genome-length", "4000", "--coverage", "3", "--seed", "2"]) == 0
    db_fused = tmp_path / "fused.db"
    db_staged = tmp_path / "staged.db"
    rc = main(
        ["count", "--input", str(fastq), "-k", "15", "--nodes", "1",
         "--fused", "--profile", "5", "--out-db", str(db_fused)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "host-time profile" in out
    assert "cumulative" in out
    assert main(["count", "--input", str(fastq), "-k", "15", "--nodes", "1", "--out-db", str(db_staged)]) == 0
    assert db_fused.read_bytes() == db_staged.read_bytes()
