"""Tests for the KMC-style sort-based counting backend."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ext.sortcount import SortingCounter, sort_count

key_batches = st.lists(st.integers(min_value=0, max_value=2**62), min_size=0, max_size=400)


class TestSortCount:
    @given(keys=key_batches)
    @settings(max_examples=60)
    def test_matches_unique_oracle(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        vals, counts = sort_count(arr)
        exp_vals, exp_counts = np.unique(arr, return_counts=True)
        assert np.array_equal(vals, exp_vals)
        assert np.array_equal(counts, exp_counts)

    def test_empty(self):
        vals, counts = sort_count(np.empty(0, dtype=np.uint64))
        assert vals.shape == (0,) and counts.shape == (0,)

    def test_full_width_values(self):
        arr = np.array([2**63 + 5, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        vals, counts = sort_count(arr)
        assert vals.tolist() == [1, 2**63 + 5, 2**64 - 1]
        assert counts.tolist() == [1, 2, 1]


class TestSortingCounter:
    @given(batches=st.lists(key_batches, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_batch_accumulation_matches_oracle(self, batches):
        counter = SortingCounter()
        for batch in batches:
            counter.insert_batch(np.array(batch, dtype=np.uint64))
        everything = np.array([x for b in batches for x in b], dtype=np.uint64)
        exp_vals, exp_counts = np.unique(everything, return_counts=True)
        vals, counts = counter.items()
        assert np.array_equal(vals, exp_vals)
        assert np.array_equal(counts, exp_counts)

    def test_agrees_with_hash_table(self, genome_reads):
        """The two counting backends must produce identical histograms."""
        from repro.gpu.hashtable import DeviceHashTable
        from repro.kmers import extract_kmers

        kmers = extract_kmers(genome_reads, 17)
        hash_table = DeviceHashTable(64)
        hash_table.insert_batch(kmers)
        sorter = SortingCounter()
        sorter.insert_batch(kmers)
        hv, hc = hash_table.items()
        sv, sc = sorter.items()
        assert np.array_equal(hv, sv)
        assert np.array_equal(hc, sc)

    def test_lookup(self):
        counter = SortingCounter()
        counter.insert_batch(np.array([5, 5, 9], dtype=np.uint64))
        assert counter.lookup_batch(np.array([5, 9, 100], dtype=np.uint64)).tolist() == [2, 1, 0]
        assert counter.n_entries == 2

    def test_counts_sum_exactly_past_2_53(self):
        """The fold of state and batch is int64: a float64 ``bincount`` held 2**53 after one more 5."""
        counter = SortingCounter()
        counter.values, counter.counts = np.array([5], dtype=np.uint64), np.array([2**53], dtype=np.int64)
        counter.insert_batch(np.array([5], dtype=np.uint64))
        assert counter.items()[1].tolist() == [2**53 + 1]

    def test_lookup_empty(self):
        counter = SortingCounter()
        assert counter.lookup_batch(np.array([1], dtype=np.uint64)).tolist() == [0]
