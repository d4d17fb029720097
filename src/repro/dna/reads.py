"""Read-set container: the concatenated base-code representation.

Section III-B1 of the paper: "we concatenate the input reads into one long
array of bases and mark the read ends by special bases, before copying the
data to GPU memory."  :class:`ReadSet` is exactly that representation — a
single ``uint8`` storage-code array with a :data:`~repro.dna.alphabet.SENTINEL`
between reads — plus the offset/length bookkeeping needed to slice individual
reads back out.  All pipelines and kernels in this library take a ``ReadSet``
(or a shard of one) as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .alphabet import SENTINEL, ascii_to_codes, codes_to_ascii
from .fastq import SequenceRecord

__all__ = ["ReadSet", "ShardRanges"]


@dataclass(frozen=True)
class ReadSet:
    """Immutable set of reads stored as one sentinel-separated code array.

    Attributes
    ----------
    codes:
        ``uint8`` array of 2-bit storage codes with a ``SENTINEL`` after
        every read (including the last, so every read is sentinel-bounded
        on the right and kernels never need a length check at the tail).
        A shard view (:meth:`shard_bytes`, :meth:`ShardRanges.view`) is
        the one exception: it may end mid-read, inside its last piece's
        ``k - 1`` overlap, with no trailing sentinel — the bases past its
        end are the next shard's, and no window of its own needs them.
    offsets:
        ``int64`` array of length ``n_reads``; start index of each read in
        ``codes``.
    lengths:
        ``int64`` array of per-read base counts (sentinels excluded).
    """

    codes: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        lengths = np.ascontiguousarray(self.lengths, dtype=np.int64)
        if offsets.shape != lengths.shape:
            raise ValueError("offsets and lengths must have the same shape")
        if offsets.size:
            ends = offsets + lengths
            if offsets[0] < 0 or np.any(ends > codes.shape[0]):
                raise ValueError("read extents fall outside the code array")
            if np.any(offsets[1:] < ends[:-1]):
                raise ValueError("reads must be non-overlapping and ordered")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "lengths", lengths)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_strings(
        cls, reads: Sequence[str], *, names: Sequence[str] | None = None, source: str | None = None
    ) -> "ReadSet":
        """Build from ACGT(N) strings, inserting sentinels between reads.

        A byte outside ``ACGTNacgtn`` is a ``ValueError`` naming the record
        — its 1-based index, and its name when ``names`` is given — after
        ``source`` (the file the reads came from) when given.
        """
        lengths = np.fromiter((len(r) for r in reads), dtype=np.int64, count=len(reads))
        total = int(lengths.sum()) + len(reads)  # one sentinel per read
        codes = np.full(total, SENTINEL, dtype=np.uint8)
        offsets = np.empty(len(reads), dtype=np.int64)
        pos = 0
        for i, read in enumerate(reads):
            offsets[i] = pos
            n = lengths[i]
            try:
                codes[pos : pos + n] = ascii_to_codes(read.encode("ascii"))
            except ValueError as exc:  # a non-ASCII character (UnicodeEncodeError) included
                where = f"{source}: " if source is not None else ""
                name = f" ({names[i]!r})" if names is not None else ""
                raise ValueError(f"{where}record {i + 1}{name}: {exc}") from None
            pos += n + 1  # skip the sentinel slot
        return cls(codes=codes, offsets=offsets, lengths=lengths)

    @classmethod
    def from_records(cls, records: Iterable[SequenceRecord], *, source: str | None = None) -> "ReadSet":
        """Build from :class:`SequenceRecord` objects (e.g. a FASTQ stream); a bad base names its record."""
        names, sequences = [], []
        for rec in records:
            names.append(rec.name)
            sequences.append(rec.sequence)
        return cls.from_strings(sequences, names=names, source=source)

    @classmethod
    def empty(cls) -> "ReadSet":
        return cls(
            codes=np.empty(0, dtype=np.uint8),
            offsets=np.empty(0, dtype=np.int64),
            lengths=np.empty(0, dtype=np.int64),
        )

    # -- accessors ---------------------------------------------------------

    @property
    def n_reads(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def total_bases(self) -> int:
        """Total sequenced bases across all reads (sentinels excluded)."""
        return int(self.lengths.sum())

    def read_codes(self, i: int) -> np.ndarray:
        """View of the storage codes of read ``i`` (no copy)."""
        off = int(self.offsets[i])
        return self.codes[off : off + int(self.lengths[i])]

    def read_string(self, i: int) -> str:
        """Read ``i`` decoded to an ACGT(N) string."""
        return codes_to_ascii(self.read_codes(i)).decode("ascii")

    def __len__(self) -> int:
        return self.n_reads

    def __iter__(self) -> Iterator[str]:
        return (self.read_string(i) for i in range(self.n_reads))

    def kmer_count(self, k: int) -> int:
        """Number of k-mer windows: ``sum(max(len - k + 1, 0))`` over reads.

        Counts positional windows; windows containing N sentinels inside a
        read are excluded later by the parsers, not here.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return int(np.maximum(self.lengths - k + 1, 0).sum())

    # -- partitioning ------------------------------------------------------

    def shard(self, n_shards: int) -> list["ReadSet"]:
        """Split into ``n_shards`` contiguous, nearly byte-balanced pieces.

        Models the parallel I/O in the paper's implementation ("the input of
        size D is partitioned roughly uniformly over P parallel processors",
        Section IV-D): reads are assigned greedily so each shard gets
        approximately ``total_bases / n_shards`` bases while keeping reads
        whole.  Returns one (possibly empty) ``ReadSet`` per shard.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        target = self.total_bases / n_shards if n_shards else 0
        boundaries = [0]
        acc = 0
        for i in range(self.n_reads):
            acc += int(self.lengths[i])
            # Close the current shard once it reaches its proportional share,
            # leaving enough reads for the remaining shards to be non-empty
            # when possible.
            shard_idx = len(boundaries) - 1
            if shard_idx < n_shards - 1 and acc >= target * (shard_idx + 1):
                boundaries.append(i + 1)
        while len(boundaries) < n_shards:
            boundaries.append(self.n_reads)
        boundaries.append(self.n_reads)
        return [self.select(range(boundaries[s], boundaries[s + 1])) for s in range(n_shards)]

    def shard_bytes(self, n_shards: int, overlap: int) -> list["ReadSet"]:
        """Byte-balanced sharding with window overlap (the paper's I/O model).

        The paper's parallel I/O splits the input at byte offsets so every
        processor gets almost exactly ``total_bases / P`` bases (Section
        IV-D assumes this).  A k-mer window spanning a split must be parsed
        by exactly one side, so each fragment is extended ``overlap = k - 1``
        bases past its boundary: shard ``s`` owns the window *start
        positions* in its base range, and the extension provides the bases
        those windows need.  Every k-mer window of every read lands in
        exactly one shard — no loss, no duplication — at any scale.  Each
        shard is a view of ``codes`` (:meth:`ShardRanges.view`), not a copy.
        """
        ranges = ShardRanges.of(self, n_shards, overlap)
        return [ranges.view(s, s + 1)[0] for s in range(n_shards)]

    def select(self, indices: Iterable[int]) -> "ReadSet":
        """New ``ReadSet`` containing the given read indices (re-packed)."""
        idx = list(indices)
        lengths = self.lengths[idx] if idx else np.empty(0, dtype=np.int64)
        total = int(lengths.sum()) + len(idx)
        codes = np.full(total, SENTINEL, dtype=np.uint8)
        offsets = np.empty(len(idx), dtype=np.int64)
        pos = 0
        for j, i in enumerate(idx):
            offsets[j] = pos
            n = int(self.lengths[i])
            codes[pos : pos + n] = self.read_codes(i)
            pos += n + 1
        return ReadSet(codes=codes, offsets=offsets, lengths=lengths)

    @classmethod
    def concat(cls, parts: Sequence["ReadSet"]) -> "ReadSet":
        """Concatenate shards back into a single ``ReadSet``."""
        strings: list[np.ndarray] = []
        lengths: list[np.ndarray] = []
        for part in parts:
            lengths.append(part.lengths)
            strings.extend(part.read_codes(i) for i in range(part.n_reads))
        all_lengths = np.concatenate(lengths) if lengths else np.empty(0, dtype=np.int64)
        total = int(all_lengths.sum()) + int(all_lengths.shape[0])
        codes = np.full(total, SENTINEL, dtype=np.uint8)
        offsets = np.empty(all_lengths.shape[0], dtype=np.int64)
        pos = 0
        for i, rc in enumerate(strings):
            offsets[i] = pos
            codes[pos : pos + rc.shape[0]] = rc
            pos += rc.shape[0] + 1
        return cls(codes=codes, offsets=offsets, lengths=all_lengths)


@dataclass(frozen=True)
class ShardRanges:
    """A read set's byte-balanced shards as ranges of its codes (the paper's parallel I/O).

    Shard ``s`` of ``P`` owns the window start positions in the base range
    ``[total * s // P, total * (s + 1) // P)`` of the reads' bases
    (sentinels excluded; Section IV-D).  A *piece* is one read ∩ one
    shard's range, of positive length, reaching ``overlap`` (= k − 1) bases
    past that range's end, clipped to its read, for the bases its last
    windows need.  Pieces are in code order, so shard ``s``'s are
    ``first[s]:first[s + 1]`` and a run of consecutive shards is one slice
    of ``reads.codes`` (:meth:`view`): nothing is copied.
    """

    reads: ReadSet
    starts: np.ndarray  # per piece: index in reads.codes of its first base
    stops: np.ndarray  # per piece: one past its last base, overlap included
    first: np.ndarray  # per shard, then one past the last: index of its first piece
    code_bytes: np.ndarray  # per shard: its size as a read set of its own (the parse is charged for it)

    @classmethod
    def of(cls, reads: ReadSet, n_shards: int, overlap: int) -> "ShardRanges":
        """The ``n_shards`` ranges of ``reads`` with ``overlap`` bases of extension."""
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        read_base0 = np.zeros(reads.n_reads + 1, dtype=np.int64)  # each read's first base, then the total
        np.cumsum(reads.lengths, out=read_base0[1:])
        total = int(read_base0[-1])
        cuts = np.arange(n_shards + 1, dtype=np.int64) * total // n_shards
        # The pieces are the non-empty gaps between the merged read starts and shard cuts.
        edges = np.insert(read_base0, np.searchsorted(read_base0, cuts), cuts)
        keep = np.flatnonzero(edges[1:] > edges[:-1])
        lo, size = edges[keep], edges[keep + 1] - edges[keep]
        read = np.searchsorted(read_base0, lo, side="right") - 1
        shard = np.searchsorted(cuts, lo, side="right") - 1
        into = lo - read_base0[read]
        starts = reads.offsets[read] + into
        stops = starts + np.minimum(size + overlap, reads.lengths[read] - into)
        first = np.searchsorted(shard, np.arange(n_shards + 1))
        piece_bytes = np.zeros(starts.shape[0] + 1, dtype=np.int64)
        np.cumsum(stops - starts + 1, out=piece_bytes[1:])
        return cls(reads, starts, stops, first, np.diff(piece_bytes[first]))

    def view(self, s0: int, s1: int) -> tuple[ReadSet, np.ndarray]:
        """Shards ``s0 .. s1 - 1`` as one view of ``reads.codes``, and where each begins in it.

        The view runs from the first piece's first base to the last piece's
        stop, one read per piece (its ``offsets`` are the piece starts); a
        piece's read runs to its stop or to the next piece's start,
        whichever comes first (two pieces of one read meet at a cut).  The
        second array has ``s1 - s0 + 1`` entries: the items whose positions
        in the view lie in ``[heads[i], heads[i + 1])`` are shard
        ``s0 + i``'s (an empty shard's range is empty).
        """
        a, b = int(self.first[s0]), int(self.first[s1])
        if a == b:
            no_reads = np.empty(0, dtype=np.int64)
            return ReadSet(self.reads.codes[:0], no_reads, no_reads), np.zeros(s1 - s0 + 1, dtype=np.int64)
        starts, stops = self.starts[a:b] - self.starts[a], self.stops[a:b] - self.starts[a]
        ends = np.minimum(stops, np.append(starts[1:], stops[-1]))
        view = ReadSet(self.reads.codes[self.starts[a] : self.stops[b - 1]], starts, ends - starts)
        return view, np.append(starts, stops[-1])[self.first[s0 : s1 + 1] - a]
