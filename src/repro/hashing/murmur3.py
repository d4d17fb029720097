"""MurmurHash3, scalar reference and NumPy-vectorized variants.

The paper hashes k-mers with MurmurHash3 both to pick the owner processor
(Algorithm 1, line 5) and to pick slots in the open-addressing counter table
(Section III-B3).  Packed k-mers/minimizers are 64-bit words, so the hot path
is the MurmurHash3 *64-bit finalizer* (``fmix64``) applied to the word — the
same construction DEDUKT and many k-mer tools use.  The full byte-oriented
``murmur3_x86_32`` and ``murmur3_x64_128`` functions are implemented as well
(and checked against published test vectors) so the finalizer path can be
validated as genuine MurmurHash3 machinery.

All scalar functions use Python ints with explicit 32/64-bit masking; the
``*_batch`` functions use uint64 NumPy arrays (unsigned overflow wraps, which
is exactly the mod-2^64 arithmetic MurmurHash3 requires).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rotl32",
    "rotl64",
    "fmix32",
    "fmix64",
    "fmix64_batch",
    "murmur3_x86_32",
    "murmur3_x64_128",
    "hash_kmer",
    "hash_kmers_batch",
    "hash_with_scratch",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def rotl32(x: int, r: int) -> int:
    """32-bit rotate left."""
    x &= _MASK32
    return ((x << r) | (x >> (32 - r))) & _MASK32


def rotl64(x: int, r: int) -> int:
    """64-bit rotate left."""
    x &= _MASK64
    return ((x << r) | (x >> (64 - r))) & _MASK64


def fmix32(h: int) -> int:
    """MurmurHash3 32-bit finalizer (avalanche) step."""
    h &= _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def fmix64(h: int) -> int:
    """MurmurHash3 64-bit finalizer: a full-avalanche bijection on uint64."""
    h &= _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)


def _fmix64_into(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`fmix64` of the uint64 array ``h`` in place, each shift into ``scratch``; returns ``h``."""
    for multiplier in (_FMIX_C1, _FMIX_C2):
        np.right_shift(h, _S33, out=scratch)
        h ^= scratch
        h *= multiplier
    np.right_shift(h, _S33, out=scratch)
    h ^= scratch
    return h


def fmix64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fmix64` over a uint64 array."""
    h = np.array(values, dtype=np.uint64)
    return _fmix64_into(h, np.empty_like(h))


def murmur3_x86_32(data: bytes, seed: int = 0) -> int:
    """Reference MurmurHash3_x86_32 over a byte string."""
    c1, c2 = 0xCC9E2D51, 0x1B873593
    h1 = seed & _MASK32
    nblocks = len(data) // 4
    for i in range(nblocks):
        k1 = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k1 = (k1 * c1) & _MASK32
        k1 = rotl32(k1, 15)
        k1 = (k1 * c2) & _MASK32
        h1 ^= k1
        h1 = rotl32(h1, 13)
        h1 = (h1 * 5 + 0xE6546B64) & _MASK32

    tail = data[4 * nblocks :]
    k1 = 0
    if len(tail) >= 3:
        k1 ^= tail[2] << 16
    if len(tail) >= 2:
        k1 ^= tail[1] << 8
    if len(tail) >= 1:
        k1 ^= tail[0]
        k1 = (k1 * c1) & _MASK32
        k1 = rotl32(k1, 15)
        k1 = (k1 * c2) & _MASK32
        h1 ^= k1

    h1 ^= len(data)
    return fmix32(h1)


def murmur3_x64_128(data: bytes, seed: int = 0) -> tuple[int, int]:
    """Reference MurmurHash3_x64_128 over a byte string -> (low64, high64)."""
    c1, c2 = 0x87C37B91114253D5, 0x4CF5AD432745937F
    h1 = h2 = seed & _MASK64
    nblocks = len(data) // 16
    for i in range(nblocks):
        k1 = int.from_bytes(data[16 * i : 16 * i + 8], "little")
        k2 = int.from_bytes(data[16 * i + 8 : 16 * i + 16], "little")
        k1 = rotl64((k1 * c1) & _MASK64, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1
        h1 = rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64
        k2 = rotl64((k2 * c2) & _MASK64, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
        h2 = rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    # Tail: bytes 8..15 fold into k2, bytes 0..7 into k1, exactly as the
    # reference implementation's fall-through switch does.
    tail = data[16 * nblocks :]
    if len(tail) > 8:
        k2 = 0
        for j in range(len(tail) - 1, 7, -1):
            k2 = ((k2 << 8) | tail[j]) & _MASK64
        k2 = rotl64((k2 * c2) & _MASK64, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
    if len(tail) >= 1:
        k1 = 0
        for j in range(min(len(tail), 8) - 1, -1, -1):
            k1 = ((k1 << 8) | tail[j]) & _MASK64
        k1 = rotl64((k1 * c1) & _MASK64, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1

    h1 ^= len(data)
    h2 ^= len(data)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = fmix64(h1)
    h2 = fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1, h2


def hash_kmer(value: int, seed: int = 0) -> int:
    """64-bit hash of one packed k-mer word (scalar reference).

    ``fmix64(value ^ fmix64(seed))`` — seeding via a pre-mixed xor keeps the
    function a bijection for any fixed seed, which the open-addressing table
    relies on (distinct k-mers can never alias to identical hash values).
    """
    return fmix64((value ^ fmix64(seed)) & _MASK64)


def hash_with_scratch(values: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_kmers_batch` of ``values``, and the spent scratch array it mixed through.

    Two uint64 arrays the size of the input, where a mix through
    temporaries holds three; a caller with more uint64 work to do (the
    owner reduction, :func:`~repro.hashing.partition.owners_of`) reuses
    the scratch.
    """
    h = np.bitwise_xor(np.asarray(values, dtype=np.uint64), np.uint64(fmix64(seed)))
    scratch = np.empty_like(h)
    return _fmix64_into(h, scratch), scratch


def hash_kmers_batch(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`hash_kmer` over a uint64 array."""
    return hash_with_scratch(values, seed)[0]
