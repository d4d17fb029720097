"""Hash-based assignment of k-mers / minimizers to owner processors.

Two partitioning schemes appear in the paper:

* **k-mer partitioning** (Algorithm 1, line 5): every k-mer instance is sent
  to ``HASH(kmer) mod P``.  A uniform hash gives near-perfect balance
  (Table III measures 1.13-1.16) but each k-mer travels individually.
* **minimizer partitioning** (Section IV-A): a supermer is sent to
  ``HASH(minimizer) mod P``.  All k-mers sharing a minimizer land on one
  rank, enabling supermer transport at the cost of skew (Table III: up to
  2.37), because minimizer frequencies are far from uniform.

Both reduce to :func:`owners_of`, differing only in which word is hashed.
:class:`MinimizerPartitioner` additionally supports a pluggable
minimizer->rank *assignment table*, the hook used by the balanced
partitioning extension (:mod:`repro.ext.balanced`) that the paper's
conclusion calls for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .murmur3 import fmix64, hash_with_scratch

__all__ = ["owner_of", "owners_of", "KmerPartitioner", "MinimizerPartitioner"]


def owner_of(value: int, n_procs: int, seed: int = 0) -> int:
    """Owner rank of one packed word: ``murmur-hash mod P`` (scalar)."""
    if n_procs < 1:
        raise ValueError("n_procs must be positive")
    return fmix64((value ^ fmix64(seed)) & 0xFFFFFFFFFFFFFFFF) % n_procs


def owners_of(values: np.ndarray, n_procs: int, seed: int = 0) -> np.ndarray:
    """Vectorized owner ranks for an array of packed words -> int32 array.

    ``hash mod P`` as ``h - (h // P) * P``, in place: NumPy vectorises a
    uint64 floor division by a scalar but not the remainder (~0.5 against
    ~3.5 ns per word).  The quotient goes into the hash's spent scratch
    array, so the reduction holds two uint64 arrays, not three.
    """
    if n_procs < 1:
        raise ValueError("n_procs must be positive")
    (h, q), p = hash_with_scratch(values, seed), np.uint64(n_procs)
    np.floor_divide(h, p, out=q)
    q *= p
    h -= q
    del q
    return h.astype(np.int32)


@dataclass(frozen=True)
class KmerPartitioner:
    """Algorithm 1's destination function: hash the k-mer itself."""

    n_procs: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be positive")

    def owners(self, kmer_values: np.ndarray) -> np.ndarray:
        return owners_of(kmer_values, self.n_procs, seed=self.seed)


class MinimizerPartitioner:
    """Section IV-A's destination function: hash the minimizer.

    With ``assignment=None`` the owner is ``hash(minimizer) mod P`` (the
    paper's scheme).  An explicit ``assignment`` array of shape ``(4**m,)``
    maps each possible m-mer value directly to a rank, allowing frequency-
    aware balanced assignments; it must cover every m-mer value.
    """

    def __init__(self, n_procs: int, m: int, seed: int = 0, assignment: np.ndarray | None = None) -> None:
        if n_procs < 1:
            raise ValueError("n_procs must be positive")
        if not 1 <= m <= 16:
            raise ValueError("minimizer length m must be in [1, 16]")
        self.n_procs = n_procs
        self.m = m
        self.seed = seed
        if assignment is not None:
            assignment = np.ascontiguousarray(assignment, dtype=np.int32)
            if assignment.shape != (4**m,):
                raise ValueError(f"assignment must have shape ({4**m},), got {assignment.shape}")
            if assignment.size and (assignment.min() < 0 or assignment.max() >= n_procs):
                raise ValueError("assignment contains ranks outside [0, n_procs)")
        self.assignment = assignment

    def owners(self, minimizer_values: np.ndarray) -> np.ndarray:
        """Owner ranks for an array of packed m-mer values."""
        vals = np.asarray(minimizer_values, dtype=np.uint64)
        if self.assignment is not None:
            return self.assignment[vals.astype(np.int64)]
        return owners_of(vals, self.n_procs, seed=self.seed)

    def owner(self, minimizer_value: int) -> int:
        """Scalar convenience form of :meth:`owners`."""
        if self.assignment is not None:
            return int(self.assignment[minimizer_value])
        return owner_of(minimizer_value, self.n_procs, seed=self.seed)
