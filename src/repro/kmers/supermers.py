"""Supermer construction (Algorithm 2) and the supermer wire codec.

A *supermer* is a maximal run of consecutive k-mers sharing the same
minimizer, stored once as ``n_kmers + k - 1`` bases instead of ``n_kmers``
separate k-mers (Section IV-A).  The paper builds supermers on the GPU by
splitting each read into fixed-size *windows* of k-mer positions and letting
one logical thread scan each window sequentially (Section IV-B) — this caps
supermer length at the window size (so each supermer packs into one 64-bit
word; Section IV-C uses window 15 with k = 17, i.e. <= 31 bases <= 62 bits)
and removes inter-thread communication at the cost of splitting some
supermers at window boundaries.

Boundary rule, identical in the scalar reference and the vectorized builder
(both follow Algorithm 2): a new supermer starts at a k-mer position iff

* the position is the first of its window (``rel_pos % window == 0``), or
* the previous k-mer position is invalid (read start, or an N/sentinel
  window), or
* the k-mer's minimizer *value* differs from the previous k-mer's.

The wire format ships each supermer as one packed 64-bit word plus one
length byte ("this approach requires an extra byte of communication to
identify the length of each supermer", Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dna.alphabet import SENTINEL, MinimizerOrdering, get_ordering
from ..dna.encoding import codes_to_string, string_to_codes
from ..dna.reads import ReadSet
from .extract import mask_codes, pack_windows, valid_windows
from .minimizers import minimizer_scalar, sliding_minimizers

__all__ = [
    "SUPERMER_LENGTH_BYTES",
    "SUPERMER_WORD_BYTES",
    "max_window_for",
    "SupermerBatch",
    "build_supermers",
    "build_supermers_with_positions",
    "build_supermers_scalar",
    "extract_kmers_from_packed",
]

#: Extra per-supermer communication to carry its length (Section V-D).
SUPERMER_LENGTH_BYTES: int = 1

#: A packed supermer travels as one 64-bit machine word.
SUPERMER_WORD_BYTES: int = 8

#: Supermers unpacked per block by :func:`extract_kmers_from_packed`: a few
#: hundred KB of temporaries per pass at the paper's k=17/window=15 (swept
#: on the benchmark host; see docs/PERFORMANCE.md).
UNPACK_BLOCK_SUPERMERS: int = 1 << 13


def max_window_for(k: int) -> int:
    """Largest window so every supermer (window + k - 1 bases) packs in 64 bits."""
    if not 2 <= k <= 31:
        raise ValueError("supermer packing needs 2 <= k <= 31")
    return 32 - k + 1


def _check_wire_lengths(n_kmers: np.ndarray, k: int) -> None:
    """Reject per-supermer k-mer counts no packed 64-bit word can carry."""
    if n_kmers.size and int(n_kmers.min()) < 1:
        raise ValueError("every supermer must carry at least one k-mer")
    if n_kmers.size and int(n_kmers.max()) + k - 1 > 32:
        raise ValueError("supermer longer than 32 bases cannot be word-packed")


@dataclass(frozen=True)
class SupermerBatch:
    """A batch of packed supermers with their metadata.

    Parallel arrays, one entry per supermer:

    ``packed``
        uint64; the supermer's bases 2-bit packed, first base in the most
        significant occupied field (right-aligned, like packed k-mers);
    ``n_kmers``
        int32; how many k-mers the supermer carries (Algorithm 2's ``slen``
        is the base count — recoverable as ``n_kmers + k - 1``);
    ``minimizers``
        uint64; the shared minimizer m-mer value, which determines the
        destination rank.
    """

    k: int
    packed: np.ndarray
    n_kmers: np.ndarray
    minimizers: np.ndarray

    def __post_init__(self) -> None:
        packed = np.ascontiguousarray(self.packed, dtype=np.uint64)
        n_kmers = np.ascontiguousarray(self.n_kmers, dtype=np.int32)
        minimizers = np.ascontiguousarray(self.minimizers, dtype=np.uint64)
        if not (packed.shape == n_kmers.shape == minimizers.shape):
            raise ValueError("packed, n_kmers, minimizers must be parallel arrays")
        _check_wire_lengths(n_kmers, self.k)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "n_kmers", n_kmers)
        object.__setattr__(self, "minimizers", minimizers)

    # -- shape/accounting ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.packed.shape[0])

    @property
    def n_supermers(self) -> int:
        return len(self)

    @property
    def n_bases(self) -> np.ndarray:
        """Per-supermer base counts (= n_kmers + k - 1)."""
        return self.n_kmers.astype(np.int64) + (self.k - 1)

    @property
    def total_kmers(self) -> int:
        return int(self.n_kmers.sum(dtype=np.int64))

    @property
    def total_bases(self) -> int:
        return int(self.n_bases.sum())

    def wire_bytes(self) -> int:
        """Bytes to ship this batch: one word + one length byte per supermer."""
        return len(self) * (SUPERMER_WORD_BYTES + SUPERMER_LENGTH_BYTES)

    def mean_length(self) -> float:
        """Average supermer length in bases (the paper's ``s``)."""
        return float(self.n_bases.mean()) if len(self) else 0.0

    # -- codec ---------------------------------------------------------------

    def extract_kmers(self) -> np.ndarray:
        """Unpack every constituent k-mer, batch-vectorized.

        This is the destination-side parse of Algorithm 2's COUNTKMER.
        Returns a uint64 array of length :attr:`total_kmers`, grouped by
        supermer in order.
        """
        return extract_kmers_from_packed(self.packed, self.n_kmers, self.k)

    def supermer_string(self, i: int) -> str:
        """Decode supermer ``i`` to its base string (debug/inspection)."""
        b = int(self.n_kmers[i]) + self.k - 1
        value = int(self.packed[i])
        codes = np.empty(b, dtype=np.uint8)
        for j in range(b - 1, -1, -1):
            codes[j] = value & 3
            value >>= 2
        return codes_to_string(codes)

    # -- composition -----------------------------------------------------------

    def select(self, mask_or_index: np.ndarray) -> "SupermerBatch":
        """Sub-batch by boolean mask or index array."""
        return SupermerBatch(
            k=self.k,
            packed=self.packed[mask_or_index],
            n_kmers=self.n_kmers[mask_or_index],
            minimizers=self.minimizers[mask_or_index],
        )

    @classmethod
    def concat(cls, parts: Sequence["SupermerBatch"], k: int | None = None) -> "SupermerBatch":
        """Concatenate batches (they must share k)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            if k is None:
                raise ValueError("cannot infer k from empty parts; pass k explicitly")
            e64 = np.empty(0, dtype=np.uint64)
            return cls(k=k, packed=e64, n_kmers=np.empty(0, dtype=np.int32), minimizers=e64.copy())
        kk = parts[0].k
        if any(p.k != kk for p in parts):
            raise ValueError("cannot concat supermer batches with different k")
        return cls(
            k=kk,
            packed=np.concatenate([p.packed for p in parts]),
            n_kmers=np.concatenate([p.n_kmers for p in parts]),
            minimizers=np.concatenate([p.minimizers for p in parts]),
        )

    @classmethod
    def empty(cls, k: int) -> "SupermerBatch":
        return cls.concat([], k=k)


def extract_kmers_from_packed(packed: np.ndarray, n_kmers: np.ndarray, k: int) -> np.ndarray:
    """Unpack constituent k-mers from packed supermer words (wire form).

    This is what a receiving rank runs on the raw ``(packed, lengths)``
    arrays that came off the exchange, before it ever rebuilds a
    :class:`SupermerBatch`: k-mer ``i`` of a supermer with ``b`` bases is
    bits ``[2*(b-k-i), 2*(b-i))`` of the packed word, i.e. the word shifted
    right by twice the number of k-mers that follow it.  Lengths come off
    the wire (or a spool/run file), so they are validated like a batch's.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    counts = np.ascontiguousarray(n_kmers, dtype=np.int64)
    if packed.shape != counts.shape:
        raise ValueError("packed and n_kmers must be parallel arrays")
    _check_wire_lengths(counts, k)
    if packed.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.cumsum(counts)
    out = np.empty(int(ends[-1]), dtype=np.uint64)
    mask = np.uint64((1 << (2 * k)) - 1)
    # Sequential repeats and a countdown shift, a cache-sized block of
    # supermers at a time: every temporary stays resident between passes.
    for lo in range(0, packed.shape[0], UNPACK_BLOCK_SUPERMERS):
        hi = min(lo + UNPACK_BLOCK_SUPERMERS, packed.shape[0])
        block_counts = counts[lo:hi]
        o0 = int(ends[lo] - block_counts[0])
        o1 = int(ends[hi - 1])
        words = np.repeat(packed[lo:hi], block_counts)
        # k-mers still to come in the owning supermer: its last output
        # index minus this one.
        following = np.repeat((ends[lo:hi] - (o0 + 1)).astype(np.int32), block_counts)
        following -= np.arange(o1 - o0, dtype=np.int32)
        following <<= 1
        np.right_shift(words, following.astype(np.uint8), out=words)
        np.bitwise_and(words, mask, out=out[o0:o1])
    return out


def build_supermers(
    reads: ReadSet,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
    canonical_minimizers: bool = False,
) -> SupermerBatch:
    """Vectorized windowed supermer construction over a read set.

    Implements Algorithm 2 with the boundary rule documented in the module
    docstring, entirely with array operations: per-position minimizers, a
    start flag and an end flag per k-mer position, and one shifted gather
    of the packed bases at each start.

    ``canonical_minimizers=True`` ranks strand-neutral (canonical) m-mers,
    so a k-mer and its reverse complement always carry the same minimizer —
    required for exact canonical counting under minimizer partitioning.
    """
    return build_supermers_with_positions(
        reads,
        k,
        m,
        window=window,
        ordering=ordering,
        canonical_minimizers=canonical_minimizers,
    )[0]


def build_supermers_with_positions(
    reads: ReadSet,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
    canonical_minimizers: bool = False,
) -> tuple[SupermerBatch, np.ndarray]:
    """:func:`build_supermers` plus each supermer's start position.

    The second return value gives, per supermer, the index into
    ``reads.codes`` of its first base; the fused engine uses it to map
    supermers built over a whole cluster's concatenated shards back to
    their originating shard.
    """
    if window is None:
        window = max_window_for(k)
    if window < 1:
        raise ValueError("window must be positive")
    if window + k - 1 > 32:
        raise ValueError(
            f"window {window} with k={k} gives supermers of up to {window + k - 1} bases; "
            f"they must fit 32 bases (max window {max_window_for(k)})"
        )
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k, got m={m}, k={k}")
    safe, is_base = mask_codes(reads.codes)
    valid = valid_windows(is_base, k)
    n = valid.shape[0]
    if n == 0 or reads.n_reads == 0 or not valid.any():
        return SupermerBatch.empty(k), np.empty(0, dtype=np.int64)
    min_values, _ = sliding_minimizers(safe, k, m, get_ordering(ordering), canonical=canonical_minimizers)

    # Boundary rule of the module docstring, one flag per k-mer position.
    # Window starts are scattered, not computed per position: read r owns
    # positions [offsets[r], offsets[r+1]) and flags every window-th one
    # (positions before the first read count back from it).
    seg_start = reads.offsets.copy()
    seg_start[0] %= window
    np.minimum(seg_start, n, out=seg_start)
    seg_end = np.append(seg_start[1:], n)
    per_read = (seg_end - seg_start + (window - 1)) // window
    first_flag = np.cumsum(per_read) - per_read
    steps = np.arange(int(per_read.sum()), dtype=np.int64) - np.repeat(first_flag, per_read)
    starts_flag = np.zeros(n, dtype=bool)
    starts_flag[np.repeat(seg_start, per_read) + steps * window] = True
    starts_flag[0] = True  # no previous k-mer
    starts_flag[1:] |= ~valid[:-1]
    starts_flag[1:] |= min_values[1:] != min_values[:-1]
    starts_flag &= valid

    # A supermer runs from its start to the last valid k-mer before the
    # next start or invalid position.
    ends_flag = valid.copy()
    ends_flag[:-1] &= starts_flag[1:] | ~valid[1:]
    start_positions = np.flatnonzero(starts_flag)
    n_kmers = (np.flatnonzero(ends_flag) - start_positions + 1).astype(np.int32)
    minimizers = min_values[start_positions].astype(np.uint64)

    # Every supermer is a prefix of the 32-base window at its start.  Pack
    # all 8-base windows of the zero-padded codes in uint16, gather the four
    # that tile each start's 32 bases, and shift the bases past the
    # supermer's end back out.
    padded = np.zeros(safe.shape[0] + 31, dtype=np.uint16)
    padded[: safe.shape[0]] = safe
    pack8 = pack_windows(padded, 8)
    packed = pack8[start_positions].astype(np.uint64)
    for tile in (8, 16, 24):
        packed <<= np.uint64(16)
        packed |= pack8[start_positions + tile]
    packed >>= (2 * (32 - (k - 1)) - 2 * n_kmers).astype(np.uint64)

    batch = SupermerBatch(k=k, packed=packed, n_kmers=n_kmers, minimizers=minimizers)
    return batch, start_positions


def build_supermers_scalar(
    read: str,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
) -> list[tuple[str, int]]:
    """Reference Algorithm 2 on one read -> [(supermer_string, minimizer)].

    Pure-Python, follows the pseudo code line by line; used to validate
    :func:`build_supermers`.  Skips k-mer windows containing N.
    """
    ordering = get_ordering(ordering)
    if window is None:
        window = max_window_for(k)
    codes = string_to_codes(read)
    n_windows = len(read) - k + 1
    out: list[tuple[str, int]] = []
    current_start: int | None = None
    current_len = 0
    prev_min: int | None = None

    def flush() -> None:
        nonlocal current_start, current_len
        if current_start is not None:
            seq = read[current_start : current_start + current_len + k - 1]
            assert prev_min is not None
            out.append((seq, prev_min))
        current_start = None
        current_len = 0

    for i in range(max(n_windows, 0)):
        if codes[i : i + k].max(initial=0) >= SENTINEL:
            flush()
            prev_min = None
            continue
        minimizer, _ = minimizer_scalar(read[i : i + k], m, ordering)
        if current_start is not None and (i % window == 0 or minimizer != prev_min):
            flush()
        if current_start is None:
            current_start = i
            current_len = 1
        else:
            current_len += 1
        prev_min = minimizer
    flush()
    return out
