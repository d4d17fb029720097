"""Minimizer computation over k-mer windows.

The minimizer of a k-mer is its smallest m-mer (m < k) under a chosen
ordering (Section II-B).  For supermer construction the pipeline needs, for
*every* k-mer window position in a read array, the packed value of that
k-mer's minimizer — adjacent k-mers sharing a minimizer value is precisely
the condition that lets them merge into one supermer (Section IV-A).

The vectorized path computes all m-mer ranks once in the narrowest dtype
that holds them, then takes a sliding leftmost argmin of width
``k - m + 1`` over them by doubling, so the whole scan is O(log(k-m))
full-array NumPy passes with no Python per-position loop.  A scalar
reference (:func:`minimizer_scalar`) implements the textbook definition for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import MinimizerOrdering, get_ordering
from ..dna.encoding import canonical_batch, string_to_codes
from .extract import mask_codes, pack_windows, sliding_reduce, valid_windows

__all__ = ["KmerMinimizers", "sliding_minimizers", "minimizers_for_windows", "minimizer_scalar"]


@dataclass(frozen=True)
class KmerMinimizers:
    """Per-k-mer-window minimizer data over a code array.

    Arrays are aligned with the k-mer window positions of the same code
    array (length ``len(codes) - k + 1``):

    ``valid``
        whether all k bases of the window are real (as in
        :class:`~repro.kmers.extract.KmerWindows`);
    ``minimizer_values``
        packed m-mer value of each k-mer's minimizer (garbage where invalid);
    ``minimizer_positions``
        absolute start offset of the winning m-mer in the code array —
        adjacent k-mers share a minimizer *occurrence* iff these match.
    """

    k: int
    m: int
    ordering_name: str
    valid: np.ndarray  # bool
    minimizer_values: np.ndarray  # uint64
    minimizer_positions: np.ndarray  # int64

    @property
    def n_windows(self) -> int:
        return int(self.valid.shape[0])


def _uint_for_bits(bits: int) -> type[np.unsignedinteger]:
    """Narrowest of uint16/32/64 holding ``bits`` bits."""
    return np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64


def sliding_minimizers(
    safe: np.ndarray,
    k: int,
    m: int,
    ordering: MinimizerOrdering,
    *,
    canonical: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer of every k-window of masked codes: ``(values, positions)``.

    ``safe`` is the uint8 output of :func:`~repro.kmers.extract.mask_codes`
    with at least ``k`` entries.  ``values`` are the winning packed m-mers
    in the narrowest unsigned dtype holding a rank (``2m + 1`` bits: the
    KMC2 bias doubles the range) — uint64 for canonical minimizers;
    ``positions`` (int64) are their absolute start offsets.
    """
    span = k - m + 1  # number of m-mers inside one k-mer
    if canonical:
        mvalues = canonical_batch(pack_windows(safe.astype(np.uint64), m), m)
        ranks = ordering.rank_array(mvalues, m)
    else:
        # Ranks at the base level: remapping each base and packing equals
        # remapping each 2-bit field of the packed m-mer (rank_array).
        rank_dt = _uint_for_bits(2 * m + 1)
        mvalues = pack_windows(safe.astype(rank_dt), m)
        ranks = pack_windows(np.take(ordering.remap.astype(rank_dt), safe), m)
        bias = ordering.bias_array(mvalues, m)
        if bias is not None:
            if int(bias.max()) > 4**m:
                raise ValueError(f"ordering {ordering.name!r}: bias above 4**m, ranks must fit 2m+1 bits")
            ranks = ranks + bias.astype(rank_dt)
    # Sliding leftmost argmin by doubling over (rank, local offset) keys
    # packed rank-major into one word: the smaller key is the smaller rank
    # and, among equal ranks (the same m-mer repeated inside one k-mer), the
    # smaller offset — leftmost, like argmin and like the scalar scan.
    offset_bits = (span - 1).bit_length()
    key_dt = _uint_for_bits(2 * m + 1 + offset_bits)
    keys = sliding_reduce(
        ranks.astype(key_dt, copy=False) << key_dt(offset_bits),
        span,
        lambda left, right, n_left, _: np.minimum(left, right + key_dt(n_left)),
    )
    positions = np.arange(keys.shape[0], dtype=np.int64)
    positions += (keys & key_dt((1 << offset_bits) - 1)).astype(np.int64)
    return mvalues[positions], positions


def minimizers_for_windows(
    codes: np.ndarray,
    k: int,
    m: int,
    ordering: MinimizerOrdering | str = "random-base",
    *,
    canonical: bool = False,
) -> KmerMinimizers:
    """Compute k-mer windows and their minimizers over a code array.

    A k-mer window is valid iff all k bases are real; its minimizer is then
    automatically well-defined because every m-window inside a valid k-window
    is also valid.

    ``canonical=True`` uses *canonical minimizers*: each m-mer is replaced
    by ``min(m-mer, revcomp(m-mer))`` before ranking, making the winning
    minimizer value identical for a k-mer and its reverse complement (a
    k-mer's RC contains exactly the RCs of its m-mers).  This is the
    strand-neutral construction production counters use so canonical k-mers
    still have a single owner under minimizer partitioning.
    """
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k, got m={m}, k={k}")
    ordering = get_ordering(ordering)
    safe, is_base = mask_codes(codes)
    valid = valid_windows(is_base, k)
    if valid.shape[0] == 0:
        values, positions = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    else:
        values, positions = sliding_minimizers(safe, k, m, ordering, canonical=canonical)
    return KmerMinimizers(
        k=k,
        m=m,
        ordering_name=ordering.name,
        valid=valid,
        minimizer_values=values.astype(np.uint64, copy=False),
        minimizer_positions=positions,
    )


def minimizer_scalar(
    kmer: str,
    m: int,
    ordering: MinimizerOrdering | str = "random-base",
) -> tuple[int, int]:
    """Reference minimizer of one k-mer string -> (packed m-mer, offset).

    Scans the ``k - m + 1`` m-mers left to right, keeping the first with the
    smallest rank under the ordering.
    """
    ordering = get_ordering(ordering)
    k = len(kmer)
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < len(kmer), got m={m}, k={k}")
    codes = string_to_codes(kmer)
    if codes.max(initial=0) > 3:
        raise ValueError("k-mer may not contain N")
    best_rank: int | None = None
    best_value = 0
    best_pos = 0
    for i in range(k - m + 1):
        window = codes[i : i + m]
        rank = ordering.rank_of_codes(window)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_pos = i
            value = 0
            for c in window.tolist():
                value = (value << 2) | int(c)
            best_value = value
    return best_value, best_pos
