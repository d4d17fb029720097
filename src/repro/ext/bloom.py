"""Bloom-filter prefilter for singleton suppression (HipMer/diBELLA heritage).

The lineage this paper builds on (HipMer's k-mer analysis [12], diBELLA [7])
uses Bloom filters so that k-mers seen only once — overwhelmingly sequencing
errors in long-read data — never enter the counting hash table, cutting its
memory by the singleton fraction (often 50-80%).  The paper's GPU counter
omits this step; we provide it as an extension usable both standalone and
inside a counting pass.

Implementation: a standard Bloom filter over packed k-mer words with
``n_hashes`` MurmurHash3-derived probes, fully vectorized (bit array as
uint64 words).  :func:`count_with_prefilter` is the classic two-action pass:
for each k-mer, if the filter already contains it, count it; otherwise only
set it in the filter.  The counted repeats hold exact counts minus exactly
one occurrence for every k-mer (the occurrence that armed the filter), so
callers asking for "k-mers with count >= 2" add one back —
:func:`count_with_prefilter` does this reconstruction and reports exact
counts for every non-singleton k-mer, assuming no false positives flipped a
singleton in (the false-positive rate is reported so callers can size for
their tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.hashtable import dedup_batch
from ..hashing.murmur3 import hash_kmers_batch

__all__ = ["BloomFilter", "PrefilterResult", "count_with_prefilter"]


class BloomFilter:
    """Vectorized Bloom filter over uint64 keys."""

    def __init__(self, capacity: int, *, bits_per_key: int = 10, n_hashes: int = 4, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if bits_per_key < 1 or n_hashes < 1:
            raise ValueError("bits_per_key and n_hashes must be positive")
        self.n_bits = 64  # at least one word
        while self.n_bits < capacity * bits_per_key:
            self.n_bits *= 2
        self.n_hashes = n_hashes
        self.seed = seed
        self._words = np.zeros(self.n_bits // 64, dtype=np.uint64)
        self._mask = np.uint64(self.n_bits - 1)

    def _bit_positions(self, keys: np.ndarray, i: int) -> np.ndarray:
        return hash_kmers_batch(keys, seed=self.seed + 7919 * i) & self._mask

    def add(self, keys: np.ndarray) -> None:
        """Set all probe bits for a batch of keys."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        for i in range(self.n_hashes):
            bits = self._bit_positions(keys, i)
            np.bitwise_or.at(self._words, (bits >> np.uint64(6)).astype(np.int64), np.uint64(1) << (bits & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership test -> bool array (false positives possible)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.ones(keys.shape[0], dtype=bool)
        for i in range(self.n_hashes):
            bits = self._bit_positions(keys, i)
            word = self._words[(bits >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (bits & np.uint64(63))) & np.uint64(1) != 0
        return out

    def add_if_absent(self, keys: np.ndarray) -> np.ndarray:
        """Atomically (per batch round) test-and-set; returns was-present mask.

        Duplicate keys *within* the batch are handled like concurrent GPU
        threads racing the filter: the first instance arms the filter, later
        instances observe it set.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        present = self.contains(keys)
        # For correctness under intra-batch duplicates, also mark duplicates
        # of a key first seen earlier in this same batch as present.
        uniq, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
        dup_of_earlier = first_idx[inverse] != np.arange(keys.shape[0])
        present |= dup_of_earlier
        self.add(keys[~present])
        return present

    def fill_fraction(self) -> float:
        """Fraction of bits set (drives the false-positive rate)."""
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return set_bits / self.n_bits

    def false_positive_rate(self) -> float:
        """Estimated FPR at the current fill: fill^n_hashes."""
        return self.fill_fraction() ** self.n_hashes


@dataclass(frozen=True)
class PrefilterResult:
    """Outcome of a Bloom-prefiltered counting pass: the k-mers with count >= 2, sorted."""

    values: np.ndarray
    counts: np.ndarray  # exact, the arming occurrence restored
    n_instances: int
    n_suppressed_singletons: int  # k-mers that never re-occurred
    false_positive_rate: float

    @property
    def n_entries(self) -> int:
        return int(self.values.shape[0])

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, exact counts) of all k-mers with count >= 2."""
        return self.values, self.counts


def count_with_prefilter(
    kmers: np.ndarray,
    *,
    bits_per_key: int = 12,
    n_hashes: int = 4,
    seed: int = 0,
) -> PrefilterResult:
    """Count k-mers with count >= 2 exactly, suppressing singletons.

    Classic HipMer-style pass over the instance stream: the first occurrence
    of a k-mer arms the Bloom filter; subsequent occurrences are counted
    (one run count, :func:`~repro.gpu.hashtable.dedup_batch`).  Afterwards,
    every entry's count is incremented by one to restore the armed
    occurrence — the bloom stage's ``adjust_merge_items`` rule — making
    counts exact for all non-singletons (modulo Bloom false positives,
    whose expected rate is reported).
    """
    kmers = np.ascontiguousarray(kmers, dtype=np.uint64)
    bloom = BloomFilter(max(int(kmers.shape[0]), 1), bits_per_key=bits_per_key, n_hashes=n_hashes, seed=seed)
    repeats = kmers[bloom.add_if_absent(kmers)]
    values, counts = dedup_batch(repeats, None)
    # First occurrences number n - repeats; of those, one per entry re-occurred.
    n_singletons = int(kmers.shape[0]) - int(repeats.shape[0]) - int(values.shape[0])
    return PrefilterResult(
        values=values,
        counts=counts + 1,
        n_instances=int(kmers.shape[0]),
        n_suppressed_singletons=max(n_singletons, 0),
        false_positive_rate=bloom.false_positive_rate(),
    )
