"""Tests for the open-addressing device hash table (emulated atomics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.hashtable import EMPTY_KEY, DeviceHashTable, InsertStats

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
            stats[probing] = table.insert_batch(keys, assume_unique=True)
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
