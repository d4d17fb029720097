"""Sort-based k-mer counting (the KMC-style alternative to hash tables).

The paper's related work contrasts its hash-table counter with KMC3 [14],
which counts by *sorting*: sort the packed k-mers, then run-length
encode.  Sorting has no collisions, no load factor, perfect memory
predictability, and sequential memory traffic — at the cost of O(n log n)
instead of O(n) expected.

Both entry points count packed uint64 k-mers with the hash table's own
folds:

* :func:`sort_count` — one sort and a run-length pass (the table's run
  count, :func:`~repro.gpu.hashtable.dedup_batch`);
* :class:`SortingCounter` — a batch accumulator with the same ``items()``
  contract as :class:`repro.gpu.DeviceHashTable`, folding each batch into
  its sorted state with the pair fold,
  :func:`~repro.gpu.hashtable.merge_counts`.

The micro-benchmark ``benchmarks/test_kernel_throughput.py`` compares the
throughputs of the two counting strategies on real k-mer batches.
"""

from __future__ import annotations

import numpy as np

from ..gpu.hashtable import dedup_batch, merge_counts

__all__ = ["sort_count", "SortingCounter"]


def sort_count(kmers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count by sorting: returns (unique sorted values, counts)."""
    return dedup_batch(np.ascontiguousarray(kmers, dtype=np.uint64), None)


class SortingCounter:
    """Batch accumulator counting by sorted-run merging (KMC-style).

    Holds its state as sorted (values, counts) arrays; each
    :meth:`insert_batch` folds the state and the new batch with one
    :func:`~repro.gpu.hashtable.merge_counts` — sequential memory traffic
    throughout, no hash table, and exact int64 sums at any count.
    """

    def __init__(self) -> None:
        self.values = np.empty(0, dtype=np.uint64)
        self.counts = np.empty(0, dtype=np.int64)

    def insert_batch(self, kmers: np.ndarray) -> None:
        kmers = np.ascontiguousarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return
        self.values, self.counts = merge_counts(
            np.concatenate([self.values, kmers]),
            np.concatenate([self.counts, np.ones(kmers.shape[0], dtype=np.int64)]),
            consume=True,
        )

    @property
    def n_entries(self) -> int:
        return int(self.values.shape[0])

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, counts), sorted — same contract as DeviceHashTable."""
        return self.values, self.counts

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.zeros(keys.shape[0], dtype=np.int64)
        if self.values.size == 0 or keys.size == 0:
            return out
        idx = np.clip(np.searchsorted(self.values, keys), 0, self.n_entries - 1)
        hit = self.values[idx] == keys
        out[hit] = self.counts[idx[hit]]
        return out
