"""Tests for hash-based processor partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.murmur3 import fmix64, hash_kmer
from repro.hashing.partition import KmerPartitioner, MinimizerPartitioner, owner_of, owners_of


class TestOwnersOf:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=10),
    )
    def test_vector_matches_scalar(self, values, p, seed):
        arr = np.array(values, dtype=np.uint64)
        vec = owners_of(arr, p, seed=seed)
        assert vec.tolist() == [owner_of(v, p, seed=seed) for v in values]

    @given(st.integers(min_value=1, max_value=1000))
    def test_range(self, p):
        vals = np.arange(200, dtype=np.uint64)
        owners = owners_of(vals, p)
        assert owners.min() >= 0 and owners.max() < p

    def test_deterministic_same_kmer_same_owner(self):
        """Algorithm 1's invariant: every instance of a k-mer has one owner."""
        v = np.array([42, 42, 42], dtype=np.uint64)
        assert len(set(owners_of(v, 96).tolist())) == 1

    def test_near_uniform_distribution(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 2**62, size=200_000).astype(np.uint64)
        counts = np.bincount(owners_of(vals, 64), minlength=64)
        assert counts.max() / counts.mean() < 1.1

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 96, 672, 2**31 - 1])
    def test_reduction_is_exact_for_hashes_near_the_top_of_uint64(self, p):
        """``h - (h // P) * P`` equals ``h % P`` where the hash is within 2**20 of 2**64 - 1."""
        mask = 2**64 - 1
        c1, c2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

        def unmix(h: int) -> int:  # fmix64's inverse: x ^= x >> 33 is an involution
            h ^= h >> 33
            h = h * pow(c2, -1, 2**64) & mask
            h ^= h >> 33
            h = h * pow(c1, -1, 2**64) & mask
            return h ^ (h >> 33)

        hashes = [mask - d for d in (0, 1, 2, 95, 96, 671, 672, 2**31 - 2, 2**31 - 1, 2**20)]
        values = [unmix(h) ^ fmix64(5) for h in hashes]  # hash_kmer(v, seed=5) == h
        assert [hash_kmer(v, seed=5) for v in values] == hashes
        assert owners_of(np.array(values, dtype=np.uint64), p, seed=5).tolist() == [h % p for h in hashes]

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            owners_of(np.array([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            owner_of(1, 0)


class TestKmerPartitioner:
    def test_owners(self):
        part = KmerPartitioner(17)
        vals = np.arange(100, dtype=np.uint64)
        assert np.array_equal(part.owners(vals), owners_of(vals, 17))

    def test_seed_changes_layout(self):
        vals = np.arange(100, dtype=np.uint64)
        a = KmerPartitioner(16, seed=0).owners(vals)
        b = KmerPartitioner(16, seed=1).owners(vals)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            KmerPartitioner(0)


class TestMinimizerPartitioner:
    def test_hash_mode(self):
        part = MinimizerPartitioner(9, m=5)
        vals = np.arange(50, dtype=np.uint64)
        assert np.array_equal(part.owners(vals), owners_of(vals, 9))
        assert part.owner(7) == owner_of(7, 9)

    def test_assignment_table_mode(self):
        m = 3
        assignment = np.arange(4**m, dtype=np.int32) % 5
        part = MinimizerPartitioner(5, m=m, assignment=assignment)
        vals = np.array([0, 1, 63], dtype=np.uint64)
        assert part.owners(vals).tolist() == [0, 1, 63 % 5]
        assert part.owner(10) == 10 % 5

    def test_assignment_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            MinimizerPartitioner(4, m=3, assignment=np.zeros(10, dtype=np.int32))

    def test_assignment_rank_range_checked(self):
        bad = np.zeros(4**2, dtype=np.int32)
        bad[0] = 99
        with pytest.raises(ValueError, match="ranks outside"):
            MinimizerPartitioner(4, m=2, assignment=bad)

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            MinimizerPartitioner(4, m=0)
        with pytest.raises(ValueError):
            MinimizerPartitioner(4, m=17)

    def test_locality_invariant(self):
        """All supermers sharing a minimizer go to one rank (Section IV-A)."""
        part = MinimizerPartitioner(24, m=7)
        minimizer = np.uint64(12345)
        owners = part.owners(np.full(10, minimizer, dtype=np.uint64))
        assert len(set(owners.tolist())) == 1
