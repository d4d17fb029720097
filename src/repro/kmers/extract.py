"""k-mer extraction from sentinel-separated read arrays.

Mirrors the paper's parse kernel (Section III-B1, Fig. 2): the concatenated
base array is scanned with one *logical thread per window position*; thread
``t`` builds the k-mer starting at base ``t``.  Windows containing a read
boundary (sentinel) or an ambiguous base are invalid and produce nothing.

Two implementations are provided and cross-checked by the tests:

* :func:`extract_kmers_scalar` — the obvious per-read Python loop, the
  readable reference;
* :func:`extract_kmers` — the vectorized version used by the virtual-GPU
  kernels: a doubling shift-or pack and a doubling AND over one-byte base
  flags for validity (O(log k) full-array passes each), without per-k-mer
  Python work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import SENTINEL
from ..dna.encoding import canonical_batch, pack_kmer
from ..dna.reads import ReadSet

__all__ = [
    "KmerWindows",
    "sliding_reduce",
    "mask_codes",
    "valid_windows",
    "pack_windows",
    "window_values",
    "extract_kmers",
    "extract_kmers_scalar",
]


@dataclass(frozen=True)
class KmerWindows:
    """All k-mer windows over a code array, packed, with validity.

    ``values[i]`` is the packed k-mer starting at ``codes[i]`` (undefined
    garbage where ``valid[i]`` is False — invalid windows must be filtered
    through the mask before use).  Keeping the full positional arrays, rather
    than compacting immediately, is what lets the supermer builder reason
    about *adjacent* windows (Section IV-B).
    """

    k: int
    values: np.ndarray  # uint64, length len(codes) - k + 1 (or 0)
    valid: np.ndarray  # bool, same length

    @property
    def n_windows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    def compact(self) -> np.ndarray:
        """The valid packed k-mers, in read order."""
        return self.values[self.valid]


def sliding_reduce(x: np.ndarray, width: int, combine) -> np.ndarray:
    """Reduce every length-``width`` window of ``x`` by doubling.

    ``combine(left, right, n_left, n_right)`` merges the reductions of two
    adjacent windows — ``left`` over ``n_left`` elements, ``right`` over the
    next ``n_right`` — and must be associative.  Windows of 1, 2, 4, ...
    elements are built by combining each level with itself shifted; the
    final window is the left-to-right combination of the power-of-two
    blocks of ``width``'s binary decomposition.  That is
    ``floor(log2 width) + popcount(width) - 1`` full-array passes instead
    of one per element.  Returns ``len(x) - width + 1`` results
    (``width <= len(x)``); for ``width == 1`` that is ``x`` itself.
    """
    n = x.shape[0] - width + 1
    pow2 = {1: x}
    w = 1
    while w * 2 <= width:
        prev = pow2[w]
        pow2[w * 2] = combine(prev[: prev.shape[0] - w], prev[w:], w, w)
        w *= 2
    out = None
    covered = 0
    for b in sorted(pow2, reverse=True):
        if width & b:
            part = pow2[b][covered : covered + n]
            out = part if out is None else combine(out, part, covered, b)
            covered += b
    return out


def mask_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask a code array once: ``(safe, is_base)``.

    ``safe`` is ``codes`` with every non-base (sentinel, N) zeroed, still
    uint8, so shift-or arithmetic never sees an out-of-range code;
    ``is_base`` flags the real bases.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    is_base = codes < SENTINEL
    return codes * is_base, is_base


def valid_windows(is_base: np.ndarray, width: int) -> np.ndarray:
    """``valid[i]``: all of ``codes[i:i+width]`` are real bases.

    A sliding AND over one-byte flags (empty when ``width > len``).
    """
    if is_base.shape[0] < width:
        return np.empty(0, dtype=bool)
    return sliding_reduce(is_base, width, lambda left, right, *_: left & right)


_UINTS = tuple(np.dtype(dt) for dt in (np.uint8, np.uint16, np.uint32, np.uint64))


def pack_windows(safe: np.ndarray, width: int) -> np.ndarray:
    """2-bit pack of every length-``width`` window of ``safe`` (codes 0..3, any unsigned dtype).

    Each doubling level runs in the narrowest unsigned dtype holding its
    bases' bits, never narrower than ``safe``'s (uint8 codes: 1-4 bases in
    uint8, 8 in uint16, 16 in uint32, 32 in uint64), so the early levels
    move an eighth of the bytes of a uint64 pack; the result is in the
    last level's dtype — ``safe``'s when that holds ``2 * width`` bits.
    The first base lands in the most significant occupied field —
    bit-for-bit the value a per-base shift-or loop gives.
    """

    def combine(left, right, n_left, n_right):
        # ``left``'s dtype when it holds the combined bases, else the narrowest that does.
        bits = 2 * (n_left + n_right)
        dt = next(dt for dt in (left.dtype, *_UINTS) if bits <= 8 * dt.itemsize)
        return (left.astype(dt, copy=False) << dt.type(2 * n_right)) | right

    return sliding_reduce(safe, width, combine)


def window_values(codes: np.ndarray, width: int) -> KmerWindows:
    """Pack every length-``width`` window of ``codes`` into uint64 + validity.

    Works for k-mers and m-mers alike.  A window is valid iff all of its
    bases are real (code < SENTINEL).  Sentinel codes are masked to 0 before
    packing; the garbage values this produces are flagged invalid.
    """
    if not 1 <= width <= 32:
        raise ValueError(f"window width must be in [1, 32], got {width}")
    safe, is_base = mask_codes(codes)
    if safe.shape[0] < width:
        return KmerWindows(k=width, values=np.empty(0, dtype=np.uint64), valid=np.empty(0, dtype=bool))
    # Values first: the validity pass then reuses the pack's freed levels
    # instead of leaving its own small ones as holes under them.
    values = pack_windows(safe, width).astype(np.uint64, copy=False)
    return KmerWindows(k=width, values=values, valid=valid_windows(is_base, width))


def extract_kmers(reads: ReadSet, k: int, *, canonical: bool = False) -> np.ndarray:
    """All valid packed k-mers of a :class:`ReadSet`, in read order.

    ``canonical=True`` maps each k-mer to min(k-mer, revcomp) — an extension
    the paper does not use (Fig. 4 caption) but downstream tools often want.
    """
    windows = window_values(reads.codes, k)
    kmers = windows.compact()
    return canonical_batch(kmers, k) if canonical else kmers


def extract_kmers_scalar(read: str, k: int) -> list[int]:
    """Reference extraction from one read string (skips windows with N)."""
    if k < 1:
        raise ValueError("k must be positive")
    from ..dna.encoding import string_to_codes

    codes = string_to_codes(read)
    out: list[int] = []
    for i in range(len(read) - k + 1):
        window = codes[i : i + k]
        if window.max(initial=0) >= SENTINEL:
            continue
        out.append(pack_kmer(window))
    return out
