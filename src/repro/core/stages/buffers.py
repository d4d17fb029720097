"""Typed inter-stage buffers of the staged pipeline.

Every arrow in the stage graph has an explicit record type:

* parse → partition: :class:`ParsedItems` (items plus the routing keys the
  partitioner hashes);
* partition → exchange: :class:`SendArray` (every rank's
  destination-ordered buffer, in one array: the round driver's send
  format), and each round of it as a view, :class:`SendRound`;
* exchange → round driver: :class:`ExchangeOutcome` (the round's counts
  matrix and modeled exchange-time breakdown; the received items are
  the residency's to place until the count);
* parse → round driver: :class:`ParseSummary` (the per-rank statistics
  the driver keeps beside, and after, the send array).

A k-mer item's host form is narrower than its wire form
(:func:`split_kmers`): the send array, the count's gathers and the spool
hold a k-mer's low 32-bit word plus, for k of 17 to 20, its high byte in
a second array, and only the count joins them back into 64-bit keys
(:func:`join_kmers`).  The model charges the wire bytes
(``PipelineConfig.wire_bytes``) whatever the host form.

The count hands the round driver plain per-rank arrays (modeled seconds,
instances seen) and :class:`~repro.gpu.hashtable.InsertStats`.

Keeping these records plain dataclasses (NumPy payloads; a round only
cuts views of its send array) is what lets compositions swap a stage
implementation without touching its neighbours: the buffer contract *is*
the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mpi.collectives import SegmentBlock, segment_starts

__all__ = [
    "ParsedItems",
    "SendArray",
    "ParseSummary",
    "ExchangeOutcome",
    "SendRound",
    "round_cut",
    "send_rounds",
    "split_kmers",
    "join_kmers",
]


def split_kmers(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Packed ``uint64`` k-mers in their host form ``(words, high bytes)``: the one width rule of the send format.

    A k-mer is 2k bits.  Up to k = 16 it is its low 32-bit word alone;
    up to k = 20 that word plus its high bits, one ``uint8`` each, in a
    second array (5 B where the wire charges 8); wider k-mers stay one
    ``uint64`` (``kmers`` itself, no copy).  :func:`join_kmers` inverts it.
    """
    if k > 20:
        return kmers, None
    high = (kmers >> np.uint64(32)).astype(np.uint8) if k > 16 else None
    return kmers.astype(np.uint32), high


def join_kmers(words: np.ndarray, high: np.ndarray | None) -> np.ndarray:
    """The ``uint64`` k-mers of a host form :func:`split_kmers` made (already ``uint64``: no copy)."""
    if high is None:
        return np.ascontiguousarray(words, dtype=np.uint64)
    kmers = high.astype(np.uint64)
    kmers <<= np.uint64(32)
    kmers |= words
    return kmers


def round_cut(seg_lens: np.ndarray, rnd, n_rounds: int) -> np.ndarray:
    """Items of each segment that precede round ``rnd``: the one cut of segments into rounds.

    Segment ``i`` (``len`` items) gives round ``rnd`` its items ``[cut(rnd),
    cut(rnd + 1))`` (Section III-A: when the data exceeds memory limits
    "the computation and communication may proceed in multiple rounds"),
    so the rounds tile every segment in order.
    """
    return (seg_lens * rnd) // n_rounds


@dataclass
class ParsedItems:
    """A parse stage's output (one shard's, or a parse block's), before destination ordering.

    ``data`` holds the items as ``uint64`` words (packed k-mers in k-mer
    mode, packed supermer words in supermer mode); ``route_keys`` holds the
    values the partition stage assigns owners to (the k-mers themselves,
    or the supermers' minimizers).  ``lengths`` carries per-supermer k-mer
    counts (``None`` in k-mer mode).  The parse body then puts the items in
    the send format (:class:`SendArray`): in k-mer mode a k-mer's host form
    (:func:`split_kmers`), whose high bytes take the second array's place.
    """

    data: np.ndarray
    lengths: np.ndarray | None
    route_keys: np.ndarray
    n_kmers: int
    n_supermers: int
    supermer_bases: int


@dataclass
class SendArray:
    """Every source rank's destination-ordered items in one array.

    ``data`` is src-major and dst-segmented: segment ``(src, dst)`` holds
    ``counts[src, dst]`` items — the contiguous, destination-ordered send
    buffers of every rank back to back, as one ``MPI_Alltoallv`` per round
    takes them.  The parse phase writes one (each parse block its slice),
    and a round is a view of it (:class:`SendRound`): no exchange copies
    it into a receive array — a resident count gathers each table block's
    receive segments straight out of it, a spooled exchange gathers each
    destination block into the spool.

    ``lengths`` is the second array, parallel to ``data``: a supermer's
    k-mer count in supermer mode, a k-mer's high byte in k-mer mode at
    k = 17..20 (:func:`split_kmers`), else ``None``.  Every gather, spool
    file and checksum treats the two arrays alike.
    """

    data: np.ndarray  # uint64 packed supermer words; k-mers in their host form (uint32 words up to k = 20)
    lengths: np.ndarray | None  # uint8, parallel to data: k-mers per supermer, or a k-mer's high bits
    counts: np.ndarray  # (sources, P) int64: [src, dst] items

    @property
    def arrays(self) -> list[np.ndarray]:
        """The payload, then its second array when it has one: what every gather reads."""
        return [self.data] if self.lengths is None else [self.data, self.lengths]


@dataclass
class SendRound:
    """Round ``rnd`` of ``n_rounds`` of a :class:`SendArray`, as a view: nothing is copied.

    The round holds every segment's even share (:func:`round_cut`); its
    ``[src, dst]`` counts and each of its segments' start in the send
    array are cut for any block of destinations on demand (:meth:`cut`),
    so the one block gather (:meth:`~repro.mpi.collectives.SegmentBlock.take`)
    reads every round straight out of the one send array.
    """

    send: SendArray
    rnd: int
    n_rounds: int
    seg_starts: np.ndarray  # (sources, P) int64: where each whole segment starts in the send array

    def cut(self, d0: int = 0, d1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, starts)``, each ``[src, dst - d0]``, of the round's segments bound for ``[d0, d1)``.

        The exchange cuts its round whole, once; a resident count block
        cuts its own destinations.  A lone round is every segment whole:
        views, no arithmetic.
        """
        seg_lens, seg_starts = self.send.counts[:, d0:d1], self.seg_starts[:, d0:d1]
        if self.n_rounds == 1:
            return seg_lens, seg_starts
        lo = seg_starts + round_cut(seg_lens, self.rnd, self.n_rounds)
        return seg_starts + round_cut(seg_lens, self.rnd + 1, self.n_rounds) - lo, lo

    def block(self, d0: int, d1: int) -> SegmentBlock:
        """Destinations ``[d0, d1)`` of the round's receive side as one gather block."""
        counts, starts = self.cut(d0, d1)
        return SegmentBlock(d0, d1, 0, int(counts.sum()), counts, starts)


def send_rounds(send: SendArray, n_rounds: int) -> list[SendRound]:
    """The ``n_rounds`` rounds of ``send``, each a view of it; together they tile every segment."""
    seg_starts = segment_starts(send.counts)
    return [SendRound(send, rnd, n_rounds, seg_starts) for rnd in range(n_rounds)]


@dataclass
class ParseSummary:
    """What the round driver keeps of a parse phase: per-rank statistics.

    Small per-rank figures only — the :class:`SendArray` they describe is
    dropped once it has nothing left to give: before the count on a
    spooled drive, after its last table block on a resident one.  A parse
    block returns one for its own ranks (``times``, ``n_kmers`` and
    ``counts_matrix`` rows are its shards'), and the driver stacks them.
    """

    times: np.ndarray  # float64 per rank: modeled parse seconds
    n_kmers: np.ndarray  # int64 per rank: k-mer instances parsed
    counts_matrix: np.ndarray  # (ranks, p) int64: [src, dst] items before round splitting
    n_supermers: int
    supermer_bases: int


@dataclass
class ExchangeOutcome:
    """One exchange round's counts matrix and its exchange-time breakdown.

    Nothing received rides along: a resident count gathers each table
    block's receive segments out of the send array, a spooled one reads
    them back from the round's segment file.  The end-to-end checksum is
    folded over those reads, not here.
    """

    counts_matrix: np.ndarray  # items, [src, dst]
    seconds: float  # overhead + network + staging (the phase's bulk time)
    alltoallv_seconds: float  # MPI_Alltoallv routine time only (Fig. 8's metric)
    staging_seconds: float  # host<->device staging copies
    # Per-link (name, seconds) breakdown of the routed alltoallv, innermost
    # link first, with staging appended as a "host-staging" row when it
    # applies (every exchange fills it from ``exchange_time_model``).
    link_seconds: tuple[tuple[str, float], ...] = ()
