"""Tests for the open-addressing device hash table (emulated atomics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import segmented
from repro.gpu.hashtable import (
    EMPTY_KEY,
    DeviceHashTable,
    InsertStats,
    dedup_batch,
    dump_slots,
    fit_capacity,
    initial_capacity,
    merge_counts,
    probe_insert,
    sort_pairs,
)
from repro.gpu.segmented import SegmentedHashTable
from repro.hashing.murmur3 import hash_kmers_batch

key_batches = st.lists(st.integers(min_value=0, max_value=2**62), min_size=0, max_size=300)


class TestCorrectness:
    @given(key_batches)
    @settings(max_examples=80)
    def test_counts_match_unique_oracle(self, keys):
        table = DeviceHashTable(16)
        arr = np.array(keys, dtype=np.uint64)
        table.insert_batch(arr)
        got_vals, got_counts = table.items()
        exp_vals, exp_counts = np.unique(arr, return_counts=True)
        assert np.array_equal(got_vals, exp_vals)
        assert np.array_equal(got_counts, exp_counts)

    @given(st.lists(key_batches, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_incremental_batches_accumulate(self, batches):
        table = DeviceHashTable(16)
        for b in batches:
            table.insert_batch(np.array(b, dtype=np.uint64))
        everything = np.array([k for b in batches for k in b], dtype=np.uint64)
        exp_vals, exp_counts = np.unique(everything, return_counts=True)
        got_vals, got_counts = table.items()
        assert np.array_equal(got_vals, exp_vals)
        assert np.array_equal(got_counts, exp_counts)

    def test_weights(self):
        table = DeviceHashTable(16)
        table.insert_batch(np.array([5, 5, 9], dtype=np.uint64), weights=np.array([3, 2, 10]))
        assert table.lookup_batch(np.array([5, 9], dtype=np.uint64)).tolist() == [5, 10]

    def test_weights_sum_exactly_past_2_53(self):
        """A weighted dedup folds in int64: a float64 ``bincount`` rounded 2**53 + 1 down to 2**53."""
        table = DeviceHashTable(64)
        table.insert_batch(np.array([5, 5], dtype=np.uint64), weights=np.array([2**53, 1]))
        assert table.lookup_batch(np.array([5], dtype=np.uint64)).tolist() == [2**53 + 1]

    def test_weights_validation(self):
        table = DeviceHashTable(16)
        with pytest.raises(ValueError):
            table.insert_batch(np.array([1], dtype=np.uint64), weights=np.array([1, 2]))
        with pytest.raises(ValueError):
            table.insert_batch(np.array([1], dtype=np.uint64), weights=np.array([0]))

    def test_lookup_missing_is_zero(self):
        table = DeviceHashTable(16)
        table.insert_batch(np.arange(10, dtype=np.uint64))
        out = table.lookup_batch(np.array([3, 99, 5], dtype=np.uint64))
        assert out.tolist() == [1, 0, 1]

    def test_lookup_empty_table(self):
        table = DeviceHashTable(16)
        assert table.lookup_batch(np.array([1, 2], dtype=np.uint64)).tolist() == [0, 0]

    def test_empty_insert(self):
        table = DeviceHashTable(16)
        stats = table.insert_batch(np.empty(0, dtype=np.uint64))
        assert stats.n_instances == 0 and table.n_entries == 0

    def test_empty_key_rejected(self):
        table = DeviceHashTable(16)
        with pytest.raises(ValueError, match="EMPTY sentinel"):
            table.insert_batch(np.array([EMPTY_KEY], dtype=np.uint64))


class TestResize:
    def test_grows_under_load(self):
        table = DeviceHashTable(64)
        cap0 = table.capacity
        stats = table.insert_batch(np.arange(10_000, dtype=np.uint64))
        assert table.capacity > cap0
        assert stats.resizes > 0
        assert table.n_entries == 10_000
        assert table.load_factor <= table.max_load_factor + 1e-9

    def test_counts_survive_resize(self):
        table = DeviceHashTable(64)
        table.insert_batch(np.array([7] * 50, dtype=np.uint64))
        table.insert_batch(np.arange(5000, dtype=np.uint64))
        assert table.lookup_batch(np.array([7], dtype=np.uint64))[0] == 51

    @pytest.mark.parametrize("capacity", [64, 1024])
    def test_fit_capacity_boundary_at_half_load(self, capacity):
        """At ``max_load_factor=0.5`` a full load is an integer: exactly that many keys fit, one more doubles."""
        full = capacity // 2
        assert fit_capacity(capacity, full, 0.5) == (capacity, 0)
        assert fit_capacity(capacity, full + 1, 0.5) == (2 * capacity, 1)

    def test_capacity_is_power_of_two(self):
        for hint in (1, 63, 64, 65, 1000):
            t = DeviceHashTable(hint)
            assert t.capacity & (t.capacity - 1) == 0
            assert t.capacity * t.max_load_factor >= hint


class TestStats:
    def test_probe_statistics_sane(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 50_000, size=100_000).astype(np.uint64)
        table = DeviceHashTable(80_000)
        stats = table.insert_batch(vals)
        assert stats.n_instances == 100_000
        assert stats.total_probes >= stats.n_instances  # at least one probe each
        assert stats.mean_probes < 4.0  # moderate load factor
        assert stats.max_probe >= 1

    def test_duplicates_share_probe_path(self):
        """Instances of one key are pre-aggregated but the weighted probe
        count charges per instance."""
        table = DeviceHashTable(64)
        stats = table.insert_batch(np.full(100, 42, dtype=np.uint64))
        assert stats.n_distinct == 1
        assert stats.total_probes == 100  # 1 probe x 100 instances

    def test_combined(self):
        a = InsertStats(10, 2, 15, 3, 1, 2, 0)
        b = InsertStats(5, 1, 6, 5, 0, 1, 1)
        c = a.combined(b)
        assert c.n_instances == 15 and c.total_probes == 21
        assert c.max_probe == 5 and c.rounds == 2 and c.resizes == 1

    def test_zero(self):
        z = InsertStats.zero()
        assert z.mean_probes == 0.0

    def test_cas_conflicts_on_crowded_table(self):
        """Distinct keys colliding on probe chains produce CAS losses."""
        table = DeviceHashTable(64, max_load_factor=0.95)
        stats = table.insert_batch(np.arange(48, dtype=np.uint64))
        # Not deterministic in magnitude, but the counter must be tracked.
        assert stats.cas_conflicts >= 0
        assert table.n_entries == 48


class TestProbingSchemes:
    """Section III-B3: "a probe sequence (linear, quadratic, etc)"."""

    @pytest.mark.parametrize("probing", ["linear", "quadratic", "double"])
    @given(keys=key_batches)
    @settings(max_examples=25)
    def test_all_schemes_count_exactly(self, probing, keys):
        table = DeviceHashTable(16, probing=probing)
        arr = np.array(keys, dtype=np.uint64)
        table.insert_batch(arr)
        got_vals, got_counts = table.items()
        exp_vals, exp_counts = np.unique(arr, return_counts=True)
        assert np.array_equal(got_vals, exp_vals)
        assert np.array_equal(got_counts, exp_counts)

    @pytest.mark.parametrize("probing", ["quadratic", "double"])
    def test_lookup_and_resize(self, probing):
        table = DeviceHashTable(64, probing=probing)
        table.insert_batch(np.arange(5000, dtype=np.uint64))
        assert table.lookup_batch(np.array([4999, 10**9], dtype=np.uint64)).tolist() == [1, 0]
        assert table.n_entries == 5000

    def test_linear_clusters_worst_at_high_load(self):
        """The textbook result: primary clustering makes linear probing's
        probe chains longest at high load factors."""
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 2**62, size=6000).astype(np.uint64))
        stats = {}
        for probing in ("linear", "quadratic", "double"):
            table = DeviceHashTable(keys.shape[0], probing=probing, max_load_factor=0.95)
            assert table.capacity == 8192  # ~0.73 load, no resize on the way
            stats[probing] = table.insert_batch(keys)
        assert stats["linear"].total_probes > stats["quadratic"].total_probes
        assert stats["linear"].total_probes > stats["double"].total_probes

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="probing"):
            DeviceHashTable(16, probing="cuckoo")


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            DeviceHashTable(0)
        with pytest.raises(ValueError):
            DeviceHashTable(10, max_load_factor=1.5)

    def test_table_bytes(self):
        t = DeviceHashTable(64)
        assert t.table_bytes == t.capacity * 16  # 8B key + 8B count


# ---------------------------------------------------------------------------
# Claim arbitration against a scalar reference
# ---------------------------------------------------------------------------

_EMPTY = int(EMPTY_KEY)


class ScalarTable:
    """One region, one Python loop: the insert the vectorized probe loop must equal.

    Rounds of concurrent threads, as the module docstring describes them:
    every pending key reads its slot as the round began; a key that finds
    itself adds its weight; the *first claimant in key order* takes an
    empty slot and every other claimant of that slot loses once and
    re-probes, as does a key that found someone else.
    """

    def __init__(self, capacity_hint, *, seed=0, max_load_factor=0.7, probing="linear"):
        self.seed, self.max_load_factor, self.probing = seed, max_load_factor, probing
        self.capacity = initial_capacity(capacity_hint, max_load_factor)
        self.keys, self.counts = [_EMPTY] * self.capacity, [0] * self.capacity
        self.n_entries = 0

    def _probe(self, uniq, w):
        mask = self.capacity - 1
        home = (hash_kmers_batch(np.array(uniq, dtype=np.uint64), seed=self.seed) & np.uint64(mask)).tolist()
        stride = (
            (hash_kmers_batch(np.array(uniq, dtype=np.uint64), seed=self.seed + 0x9E3779B9) | np.uint64(1))
            & np.uint64(mask)
        ).tolist()
        n = len(uniq)
        step, claimed, lost = [0] * n, [False] * n, [0] * n
        pending = list(range(n))
        while pending:
            slot = {}
            for i in pending:
                t = step[i]
                offset = {"linear": t, "quadratic": t * (t + 1) // 2, "double": t * stride[i]}[self.probing]
                slot[i] = (home[i] + offset) & mask
            seen = {i: self.keys[slot[i]] for i in pending}  # the round's snapshot
            still = []
            for i in pending:  # key order
                if seen[i] == uniq[i]:
                    self.counts[slot[i]] += w[i]
                elif seen[i] == _EMPTY and self.keys[slot[i]] == _EMPTY:
                    self.keys[slot[i]] = uniq[i]
                    self.counts[slot[i]] += w[i]
                    claimed[i] = True
                else:
                    lost[i] += seen[i] == _EMPTY
                    step[i] += 1
                    still.append(i)
            pending = still
        return [t + 1 for t in step], claimed, lost

    def insert_batch(self, values, weights=None) -> InsertStats:
        uniq, inverse = np.unique(np.asarray(values, dtype=np.uint64), return_inverse=True)
        w = np.bincount(inverse, weights=weights).astype(np.int64)
        uniq, w = uniq.tolist(), w.tolist()
        capacity, resizes = fit_capacity(self.capacity, self.n_entries + len(uniq), self.max_load_factor)
        if resizes:
            items = sorted((k, c) for k, c in zip(self.keys, self.counts) if k != _EMPTY)
            self.capacity = capacity
            self.keys, self.counts = [_EMPTY] * capacity, [0] * capacity
            self._probe([k for k, _ in items], [c for _, c in items])
        probes, claimed, lost = self._probe(uniq, w)
        self.n_entries += sum(claimed)
        return InsertStats(
            n_instances=sum(w),
            n_distinct=sum(claimed),
            total_probes=sum(p * m for p, m in zip(probes, w)),
            max_probe=max(probes),
            cas_conflicts=sum(lost),
            rounds=max(probes),
            resizes=resizes,
        )

    def slab(self) -> tuple[bytes, bytes]:
        return np.array(self.keys, dtype=np.uint64).tobytes(), np.array(self.counts, dtype=np.int64).tobytes()

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        items = sorted((k, c) for k, c in zip(self.keys, self.counts) if k != _EMPTY)
        return np.array([k for k, _ in items], dtype=np.uint64), np.array([c for _, c in items], dtype=np.int64)


def _same_home_trio(seed: int, probing: str) -> np.ndarray:
    """Three sorted keys hashing to one slot of a 64-slot region, their later probes collision-free."""
    cands = np.arange(1, 20000, dtype=np.uint64)
    home = hash_kmers_batch(cands, seed=seed) & np.uint64(63)
    stride = (hash_kmers_batch(cands, seed=seed + 0x9E3779B9) | np.uint64(1)) & np.uint64(63)
    for h in range(64):
        same = cands[home == h]
        if probing == "double":  # distinct strides: the two losers part ways after the first round
            same = same[np.unique(stride[home == h], return_index=True)[1]]
            same.sort()
        if same.shape[0] >= 3:
            return same[:3]
    raise AssertionError("no three candidates share a home slot")


class TestClaimArbitration:
    """One empty slot, several claimants: the smallest key wins, the others lose once and re-probe."""

    @pytest.mark.parametrize(
        "probing, probes, lost",
        [
            ("linear", [1, 2, 3], [0, 1, 2]),  # the two losers collide again one slot on
            ("quadratic", [1, 2, 3], [0, 1, 2]),  # ... and again at the next triangular offset
            ("double", [1, 2, 2], [0, 1, 1]),  # each loser follows its own stride
        ],
    )
    def test_three_keys_contend_for_one_slot(self, probing, probes, lost):
        seed = 5
        trio = _same_home_trio(seed, probing)
        home = int(hash_kmers_batch(trio[:1], seed=seed)[0] & np.uint64(63))
        keys = np.full(64, EMPTY_KEY, dtype=np.uint64)
        counts = np.zeros(64, dtype=np.int64)
        w = np.array([2, 3, 5], dtype=np.int64)
        got_probes, claimed, got_lost = probe_insert(
            keys, counts, trio, w, seed, probing, np.uint64(63), np.uint64(0)
        )
        assert keys[home] == trio[0] and counts[home] == 2  # winner: the smallest key
        assert got_probes.tolist() == probes
        assert got_lost.tolist() == lost
        assert claimed.all()
        assert sorted(keys[keys != EMPTY_KEY].tolist()) == trio.tolist()
        assert counts.sum() == 10

        ref = ScalarTable(16, seed=seed, probing=probing)  # 64 slots
        assert ref.capacity == 64
        ref.insert_batch(np.repeat(trio, w))
        assert (keys.tobytes(), counts.tobytes()) == ref.slab()

    def test_unsorted_keys_rejected(self):
        keys = np.full(64, EMPTY_KEY, dtype=np.uint64)
        with pytest.raises(AssertionError, match="sorted"):
            probe_insert(
                keys,
                np.zeros(64, dtype=np.int64),
                np.array([9, 3], dtype=np.uint64),
                np.ones(2, dtype=np.int64),
                0,
                "linear",
                np.uint64(63),
                np.uint64(0),
            )

    @pytest.mark.parametrize("probing", ["linear", "quadratic", "double"])
    @given(
        batches=st.lists(st.lists(st.integers(0, 400), max_size=120), min_size=1, max_size=3),
        seed=st.integers(0, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_device_table_equals_scalar_reference(self, probing, batches, seed):
        """Crowded key space, a 64-slot start: contention, re-probes and both rehash paths."""
        table = DeviceHashTable(16, seed=seed, probing=probing)
        ref = ScalarTable(16, seed=seed, probing=probing)
        for batch in batches:
            arr = np.array(batch, dtype=np.uint64)
            if arr.size:
                assert table.insert_batch(arr) == ref.insert_batch(arr)
            assert (table.keys.tobytes(), table.counts.tobytes()) == ref.slab()

    @pytest.mark.parametrize("mapped", [False, True], ids=["ram", "mmap"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_segmented_table_equals_scalar_reference(self, tmp_path_factory, mapped, data):
        p = data.draw(st.integers(1, 4))
        probing = data.draw(st.sampled_from(["linear", "quadratic", "double"]))
        table = SegmentedHashTable(
            [16] * p, seed=3, probing=probing, table_dir=tmp_path_factory.mktemp("slab") if mapped else None
        )
        refs = [ScalarTable(16, seed=3, probing=probing) for _ in range(p)]
        try:
            assert isinstance(table.keys, np.memmap) == mapped
            for _ in range(data.draw(st.integers(1, 3))):
                segments = [
                    np.array(data.draw(st.lists(st.integers(0, 300), max_size=100)), dtype=np.uint64)
                    for _ in range(p)
                ]
                offsets = np.concatenate(([0], np.cumsum([seg.shape[0] for seg in segments])))
                stats = table.insert_flat(np.concatenate(segments), offsets)
                for r in range(p):
                    expected = refs[r].insert_batch(segments[r]) if segments[r].size else InsertStats.zero()
                    assert stats[r] == expected
                    lo, hi = table.region_base[r], table.region_base[r + 1]
                    assert (table.keys[lo:hi].tobytes(), table.counts[lo:hi].tobytes()) == refs[r].slab()
        finally:
            table.close()


class TestRankBlockTables:
    """Block-local segmented tables ≡ one scalar reference table per rank.

    Both layouts keep consecutive ranks in one segmented table and insert
    a block per call.  Regions are slot-disjoint, so *any* partition of the
    ranks into consecutive blocks — and any split of a block's keys over
    ``INSERT_BLOCK_BYTES`` sub-blocks, in the insert as in the regrow
    rehash — must leave every rank with the statistics, capacity and slots
    of its own private table, here the independent :class:`ScalarTable`.
    """

    @pytest.mark.parametrize("probing", ["linear", "quadratic", "double"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_block_partition_equals_per_rank_tables(self, probing, data):
        p = data.draw(st.integers(1, 9), label="ranks")
        cuts = sorted(data.draw(st.sets(st.integers(1, max(p - 1, 1)), max_size=p - 1), label="cuts")) if p > 1 else []
        blocks = list(zip([0, *cuts], [*cuts, p]))
        # 2 KiB makes two 64-slot regions a probe sub-block of their own; 2 MiB keeps a block whole.
        block_bytes = data.draw(st.sampled_from([1 << 11, 1 << 21]), label="INSERT_BLOCK_BYTES")
        seed = data.draw(st.integers(0, 5), label="seed")
        per_rank = [ScalarTable(16, seed=seed, probing=probing) for _ in range(p)]
        tables = [SegmentedHashTable([16] * (r1 - r0), seed=seed, probing=probing) for r0, r1 in blocks]
        big = data.draw(st.integers(0, p - 1), label="oversized rank")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segmented, "INSERT_BLOCK_BYTES", block_bytes)
            for rnd in range(3):
                quiet = data.draw(st.integers(0, len(blocks) - 1), label=f"round {rnd}: empty block")
                segments = []
                for r in range(p):
                    # Few keys over many ranks (P > keys), one rank far past its 64 slots, one block idle.
                    top = 400 if r == big else data.draw(st.sampled_from([0, 3, 120]))
                    keys = data.draw(st.lists(st.integers(0, 600), max_size=top))
                    if blocks[quiet][0] <= r < blocks[quiet][1] and len(blocks) > 1:
                        keys = []
                    segments.append(np.array(keys, dtype=np.uint64))
                for (r0, r1), table in zip(blocks, tables):
                    offsets = np.concatenate(([0], np.cumsum([seg.shape[0] for seg in segments[r0:r1]])))
                    stats = table.insert_flat(np.concatenate(segments[r0:r1]), offsets)
                    for r in range(r0, r1):
                        want = per_rank[r].insert_batch(segments[r]) if segments[r].size else InsertStats.zero()
                        assert stats[r - r0] == want
                        view = table.view(r - r0)
                        assert (view.capacity, view.n_entries) == (per_rank[r].capacity, per_rank[r].n_entries)
                        assert (view.keys.tobytes(), view.counts.tobytes()) == per_rank[r].slab()

    @pytest.mark.parametrize("probing", ["linear", "quadratic", "double"])
    def test_blocked_regrow_rehash_equals_per_rank_rehash(self, probing, monkeypatch):
        """Several full regions grow in one call: one blocked rehash, the slots of five private ones."""
        rng = np.random.default_rng(11)
        p = 5
        first = [rng.integers(0, 5000, size=40).astype(np.uint64) for _ in range(p)]  # fills the 64-slot regions
        second = [rng.integers(0, 5000, size=n).astype(np.uint64) for n in (300, 0, 90, 2, 700)]
        table = SegmentedHashTable([16] * p, seed=2, probing=probing)
        per_rank = [ScalarTable(16, seed=2, probing=probing) for _ in range(p)]
        calls = []
        real = segmented.probe_insert
        monkeypatch.setattr(segmented, "probe_insert", lambda *a, **k: calls.append(1) or real(*a, **k))
        for segments in (first, second):
            calls.clear()
            offsets = np.concatenate(([0], np.cumsum([seg.shape[0] for seg in segments])))
            stats = table.insert_flat(np.concatenate(segments), offsets)
            assert stats == [t.insert_batch(seg) if seg.size else InsertStats.zero() for t, seg in zip(per_rank, segments)]
        assert sum(ins.resizes > 0 for ins in stats) == 3 and len(calls) == 2  # one rehash + one insert
        for r, ref in enumerate(per_rank):
            assert (table.view(r).keys.tobytes(), table.view(r).counts.tobytes()) == ref.slab()


class TestSlotDump:
    """``dump_slots`` / ``restore_slots`` / ``SegmentedHashTable.from_slots``:
    a table restored from its dump is the same table — same arrays now,
    same statistics for whatever is inserted next — with no probe in
    between; any run of regions restores from slices of the slab's dump."""

    histories = st.lists(st.lists(st.integers(0, 300), max_size=120), min_size=1, max_size=4)

    @staticmethod
    def _rebuilt(table, probing: str):
        bitmap, keys, counts = dump_slots(table.keys, table.counts)
        assert bitmap.dtype == np.uint8 and bitmap.shape[0] * 8 == table.capacity
        assert keys.shape[0] == counts.shape[0] == table.n_entries
        twin = SegmentedHashTable.from_slots(
            [table.capacity], bitmap, keys, counts, seed=table.seed, probing=probing
        ).view(0)
        assert (twin.capacity, twin.n_entries) == (table.capacity, table.n_entries)
        assert np.array_equal(twin.keys, table.keys) and np.array_equal(twin.counts, table.counts)
        return twin

    @given(
        probing=st.sampled_from(["linear", "quadratic", "double"]),
        history=histories,
        following=st.lists(st.integers(0, 300), min_size=1, max_size=200),
        seed=st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_rebuilt_device_table_continues_identically(self, probing, history, following, seed):
        table = DeviceHashTable(16, seed=seed, probing=probing)
        for batch in history:  # duplicates, and growth across calls from a 64-slot start
            table.insert_batch(np.array(batch, dtype=np.uint64))
        twin = self._rebuilt(table, probing)
        nxt = np.array(following, dtype=np.uint64)
        assert twin.insert_batch(nxt) == table.insert_batch(nxt)
        assert np.array_equal(twin.keys, table.keys) and np.array_equal(twin.counts, table.counts)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rebuilt_rank_view_continues_identically(self, data):
        p = data.draw(st.integers(1, 4))
        probing = data.draw(st.sampled_from(["linear", "quadratic", "double"]))
        table = SegmentedHashTable([16] * p, seed=5, probing=probing)
        for _ in range(data.draw(st.integers(1, 3))):
            segments = [
                np.array(data.draw(st.lists(st.integers(0, 300), max_size=100)), dtype=np.uint64)
                for _ in range(p)
            ]
            offsets = np.concatenate(([0], np.cumsum([seg.shape[0] for seg in segments])))
            table.insert_flat(np.concatenate(segments), offsets)
        rank = data.draw(st.integers(0, p - 1))
        view = table.view(rank)
        twin = self._rebuilt(view, probing)
        nxt = np.array(data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=200)), dtype=np.uint64)
        assert twin.insert_batch(nxt) == view.insert_batch(nxt)
        assert np.array_equal(twin.keys, view.keys) and np.array_equal(twin.counts, view.counts)

    def test_region_bitmaps_concatenate_to_the_slab_bitmap(self):
        table = SegmentedHashTable([16, 200, 16], seed=1)
        table.insert_flat(np.arange(300, dtype=np.uint64), np.array([0, 40, 290, 300]))
        parts = [dump_slots(*table.slots_of(r)) for r in range(3)]
        whole = dump_slots(table.keys, table.counts)
        for i in range(3):
            assert np.array_equal(np.concatenate([part[i] for part in parts]), whole[i])

    @pytest.mark.parametrize("mapped", [False, True], ids=["ram", "mmap"])
    def test_any_run_of_regions_restores_from_slices_of_the_slab_dump(self, tmp_path, mapped):
        """What a checkpoint load does: one dump of P regions, restored as blocks of its choosing."""
        rng = np.random.default_rng(3)
        hints = [16, 200, 16, 900, 40]
        table = SegmentedHashTable(hints, seed=4)
        sizes = [30, 250, 0, 1500, 61]
        table.insert_flat(rng.integers(0, 5000, size=sum(sizes)).astype(np.uint64), np.cumsum([0, *sizes]))
        bitmap, keys, counts = dump_slots(table.keys, table.counts)
        filled = np.concatenate([[0], np.cumsum(table.n_entries_per_rank)])
        base = table.region_base
        for r0, r1 in ((0, 5), (0, 1), (1, 4), (3, 5), (4, 5)):
            block = SegmentedHashTable.from_slots(
                table.capacities[r0:r1],
                bitmap[base[r0] // 8 : base[r1] // 8],
                keys[filled[r0] : filled[r1]],
                counts[filled[r0] : filled[r1]],
                seed=4,
                table_dir=tmp_path if mapped else None,
            )
            assert isinstance(block.keys, np.memmap) == mapped
            assert np.array_equal(block.capacities, table.capacities[r0:r1])
            assert np.array_equal(block.n_entries_per_rank, table.n_entries_per_rank[r0:r1])
            assert np.array_equal(block.keys, table.keys[base[r0] : base[r1]])
            assert np.array_equal(block.counts, table.counts[base[r0] : base[r1]])
            block.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [0, 32, 96])
    def test_from_slots_rejects_a_region_that_is_not_one(self, n):
        with pytest.raises(ValueError, match="power of two"):
            SegmentedHashTable.from_slots(
                [n], np.zeros(n // 8, dtype=np.uint8), np.empty(0, np.uint64), np.empty(0, np.int64)
            )
        with pytest.raises(ValueError, match="parallel"):
            SegmentedHashTable.from_slots(
                [64], np.zeros(8, dtype=np.uint8), np.empty(0, np.uint64), np.zeros(1, np.int64)
            )


class TestPairSort:
    """``sort_pairs`` packs key and count into one word up to 64 bits and argsorts past them."""

    @staticmethod
    def _argsorts(monkeypatch) -> list[int]:
        calls: list[int] = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @pytest.mark.parametrize(
        "key_bits, count_bits, argsorts", [(40, 24, 0), (41, 24, 1), (10, 54, 0), (11, 54, 1), (1, 63, 0)]
    )
    def test_packed_up_to_64_bits_argsort_past_them(self, monkeypatch, key_bits, count_bits, argsorts):
        rng = np.random.default_rng(key_bits * 100 + count_bits)
        keys = np.unique(rng.integers(0, 2**key_bits, size=500, dtype=np.uint64))
        keys[-1] = 2**key_bits - 1  # the widest key and count set the word
        counts = rng.integers(1, 2**count_bits, size=keys.shape[0], dtype=np.int64)
        counts[0] = 2**count_bits - 1
        shuffle = rng.permutation(keys.shape[0])
        keys, counts = keys[shuffle], counts[shuffle]
        order = np.argsort(keys, kind="stable")
        calls = self._argsorts(monkeypatch)
        got_keys, got_counts = sort_pairs(keys, counts)
        assert len(calls) == argsorts
        assert got_keys.dtype == np.uint64 and got_counts.dtype == np.int64
        assert np.array_equal(got_keys, keys[order]) and np.array_equal(got_counts, counts[order])

    @pytest.mark.parametrize("key_top, argsorts", [(2**10 - 1, 0), (2**10, 1)])
    def test_duplicate_keys_sum_exactly_past_2_53(self, monkeypatch, key_top, argsorts):
        """Canonical supermer mode splits a k-mer over two owners; its partial counts add in int64.

        Counts of 2**53 + 1 take 54 bits: with a 10-bit key that is one
        64-bit word, with an 11-bit key it is the argsort fallback.
        """
        keys = np.array([key_top, 3, key_top, 3, 7], dtype=np.uint64)
        counts = np.array([2**53 + 1, 1, 2**53 + 1, 2, 5], dtype=np.int64)
        calls = self._argsorts(monkeypatch)
        uniq, summed = merge_counts(keys, counts)
        assert len(calls) == argsorts
        assert uniq.tolist() == [3, 7, key_top] and summed.tolist() == [3, 5, 2**54 + 2]

    def test_empty(self):
        keys, counts = sort_pairs(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        assert (keys.dtype, counts.dtype, keys.size, counts.size) == (np.uint64, np.int64, 0, 0)


class TestDedupBatch:
    """The unweighted dedup (one sort and a run count) equals ``np.unique(return_counts=True)``."""

    @pytest.mark.parametrize("shape", ["one", "all-equal", "sorted", "reverse-sorted", "random"])
    def test_equals_np_unique(self, shape):
        rng = np.random.default_rng(3)
        top = 2**62 - 1
        ascending = np.sort(np.append(rng.integers(0, 2**62, size=300), [top, top, 0])).astype(np.uint64)
        keys = {
            "one": np.array([top], dtype=np.uint64),
            "all-equal": np.full(64, top, dtype=np.uint64),
            "sorted": ascending,
            "reverse-sorted": ascending[::-1].copy(),
            "random": rng.choice(ascending[:40], size=400),
        }[shape]
        before = keys.copy()
        uniq, weights = dedup_batch(keys, None)
        ref_uniq, ref_weights = np.unique(keys, return_counts=True)
        assert uniq.dtype == np.uint64 and weights.dtype == np.int64
        assert np.array_equal(uniq, ref_uniq) and np.array_equal(weights, ref_weights)
        assert np.array_equal(keys, before)  # the batch is a view of the caller's array: sorted in a copy
