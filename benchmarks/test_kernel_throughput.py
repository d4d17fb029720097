"""Wall-clock micro-benchmarks of the actual vectorized kernels.

Unlike the figure reproductions (which report *model* seconds), these
measure the real NumPy throughput of the library's hot paths with
pytest-benchmark — the numbers a user of this library on real data cares
about, and a regression guard for the vectorized implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dna.datasets import load_dataset
from repro.gpu.hashtable import DeviceHashTable
from repro.hashing.murmur3 import hash_kmers_batch
from repro.kmers.extract import extract_kmers
from repro.kmers.supermers import build_supermers


@pytest.fixture(scope="module")
def reads():
    return load_dataset("abaumannii30x", scale=0.5)


@pytest.fixture(scope="module")
def kmers(reads):
    return extract_kmers(reads, 17)


def test_bench_extract_kmers(benchmark, reads):
    out = benchmark(extract_kmers, reads, 17)
    assert out.shape[0] == reads.kmer_count(17)


def test_bench_build_supermers(benchmark, reads):
    batch = benchmark(build_supermers, reads, 17, 7, window=15)
    assert batch.total_kmers == reads.kmer_count(17)


def test_bench_murmur_hash(benchmark, kmers):
    out = benchmark(hash_kmers_batch, kmers)
    assert out.shape == kmers.shape


def test_bench_hashtable_insert(benchmark, kmers):
    def insert():
        table = DeviceHashTable(capacity_hint=kmers.shape[0])
        table.insert_batch(kmers)
        return table

    table = benchmark(insert)
    assert table.n_entries == np.unique(kmers).shape[0]


def test_bench_supermer_extract(benchmark, reads):
    batch = build_supermers(reads, 17, 7, window=15)
    out = benchmark(batch.extract_kmers)
    assert out.shape[0] == batch.total_kmers


def test_bench_hashtable_vs_sort_counting(benchmark, kmers):
    """Counting-backend comparison: hash table vs KMC-style sorting."""
    from repro.ext.sortcount import sort_count

    vals, counts = benchmark(sort_count, kmers)
    assert int(counts.sum()) == kmers.shape[0]


def test_bench_alltoallv_segments(benchmark):
    from repro.mpi.collectives import alltoallv_segments

    rng = np.random.default_rng(0)
    p = 384
    n = 200_000
    owners = rng.integers(0, p, size=n)
    order = np.argsort(owners, kind="stable")
    data = rng.integers(0, 2**62, size=n).astype(np.uint64)[order]
    counts = np.bincount(owners, minlength=p).astype(np.int64)
    send_data = [data.copy() for _ in range(p)]
    send_counts = [counts.copy() for _ in range(p)]

    recv, matrix = benchmark(alltoallv_segments, send_data, send_counts)
    assert int(matrix.sum()) == n * p
