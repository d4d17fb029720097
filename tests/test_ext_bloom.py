"""Tests for the Bloom-filter singleton prefilter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ext.bloom import BloomFilter, count_with_prefilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**62, size=5000).astype(np.uint64)
        bf = BloomFilter(5000)
        bf.add(keys)
        assert bf.contains(keys).all()

    def test_false_positive_rate_bounded(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 2**62, size=50_000).astype(np.uint64)
        bf = BloomFilter(50_000, bits_per_key=10, n_hashes=4)
        bf.add(keys)
        other = rng.integers(2**62, 2**63, size=50_000).astype(np.uint64)
        fpr = bf.contains(other).mean()
        assert fpr < 0.05
        assert abs(fpr - bf.false_positive_rate()) < 0.02

    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(100)
        assert not bf.contains(np.arange(10, dtype=np.uint64)).any()
        assert bf.fill_fraction() == 0.0

    def test_add_if_absent_first_vs_repeat(self):
        bf = BloomFilter(100)
        keys = np.array([5, 5, 7], dtype=np.uint64)
        present = bf.add_if_absent(keys)
        # first 5 absent, second 5 sees the first (intra-batch), 7 absent
        assert present.tolist() == [False, True, False]
        again = bf.add_if_absent(np.array([5, 7, 9], dtype=np.uint64))
        assert again.tolist() == [True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_key=0)
        with pytest.raises(ValueError):
            BloomFilter(10, n_hashes=0)

    def test_power_of_two_bits(self):
        bf = BloomFilter(1000, bits_per_key=10)
        assert bf.n_bits & (bf.n_bits - 1) == 0
        assert bf.n_bits >= 10_000


class TestPrefilterCounting:
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=0, max_size=2000))
    @settings(max_examples=40)
    def test_nonsingletons_counted_exactly(self, keys):
        """With ample filter bits, counts of every k-mer seen >= 2 times are
        exact and singletons are suppressed."""
        arr = np.array(keys, dtype=np.uint64)
        result = count_with_prefilter(arr, bits_per_key=30, n_hashes=6)
        got_vals, got_counts = result.items()
        exp_vals, exp_counts = np.unique(arr, return_counts=True)
        keep = exp_counts >= 2
        assert np.array_equal(got_vals, exp_vals[keep])
        assert np.array_equal(got_counts, exp_counts[keep])

    def test_singleton_accounting(self):
        arr = np.array([1, 2, 2, 3, 3, 3, 4], dtype=np.uint64)
        result = count_with_prefilter(arr, bits_per_key=30)
        assert result.n_instances == 7
        assert result.n_suppressed_singletons == 2  # keys 1 and 4

    def test_memory_savings_on_error_heavy_data(self, genome_reads):
        """On coverage data with errors, the prefiltered table is much
        smaller than the all-k-mers table (the HipMer motivation)."""
        from repro.kmers.extract import extract_kmers

        kmers = extract_kmers(genome_reads, 17)
        result = count_with_prefilter(kmers)
        distinct_all = np.unique(kmers).shape[0]
        assert result.n_entries < 0.8 * distinct_all

    def test_empty(self):
        result = count_with_prefilter(np.empty(0, dtype=np.uint64))
        assert result.n_instances == 0
        assert result.items()[0].shape == (0,)
