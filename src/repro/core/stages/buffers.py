"""Typed inter-stage buffers of the staged pipeline.

Every arrow in the stage graph has an explicit record type:

* parse → partition: :class:`ParsedItems` (items plus the routing keys the
  partitioner hashes);
* partition → exchange: :class:`RankParse` (one rank's destination-ordered
  buffer, what a custom stage's ``parse_rank`` returns) and
  :class:`SendArray` (every rank's, in one array: the round driver's send
  format);
* exchange → count: :class:`ExchangeOutcome` (received buffers plus the
  modeled exchange-time breakdown);
* parse → round driver: :class:`ParseSummary` (the per-rank statistics
  the driver keeps once the send buffers themselves are dropped);
* count → merge: :class:`CountOutcome` per rank (modeled time, instance
  count, hash-table insert statistics).

Keeping these records plain dataclasses (NumPy payloads, no behaviour) is
what lets compositions swap a stage implementation without touching its
neighbours: the buffer contract *is* the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...gpu.hashtable import InsertStats
from ...mpi.collectives import segment_gather_index

__all__ = [
    "ParsedItems",
    "RankParse",
    "SendArray",
    "ParseSummary",
    "ExchangeOutcome",
    "CountOutcome",
    "joined",
    "round_split",
]


def joined(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` back to back: the one part itself, else their concatenation."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def round_split(send: "SendArray", rnd: int, n_rounds: int) -> "SendArray":
    """Round ``rnd``'s even share of every (src, dst) segment of ``send``, still src-major.

    Segment ``i`` (``len`` items) gives round ``rnd`` its items ``[len·rnd //
    n, len·(rnd+1) // n)`` (Section III-A: when the data exceeds memory
    limits "the computation and communication may proceed in multiple
    rounds"), so the rounds' arrays tile every segment in order; one
    gather cuts a round.
    """
    if n_rounds == 1:
        return send
    seg_lens = send.counts.reshape(-1)
    seg_starts = np.cumsum(seg_lens) - seg_lens
    lo = seg_starts + (seg_lens * rnd) // n_rounds
    rlens = seg_starts + (seg_lens * (rnd + 1)) // n_rounds - lo
    idx = segment_gather_index(lo, rlens)
    return SendArray(
        data=np.take(send.data, idx),
        lengths=np.take(send.lengths, idx) if send.lengths is not None else None,
        counts=rlens.reshape(send.counts.shape),
    )


@dataclass
class ParsedItems:
    """One rank's parse output, before destination ordering.

    ``data`` holds the wire items (packed k-mers in k-mer mode, packed
    supermer words in supermer mode); ``route_keys`` holds the values the
    partition stage assigns owners to (the k-mers themselves, or the
    supermers' minimizers).  ``lengths`` carries per-supermer k-mer counts
    (``None`` in k-mer mode).
    """

    data: np.ndarray
    lengths: np.ndarray | None
    route_keys: np.ndarray
    n_kmers: int
    n_supermers: int
    supermer_bases: int


@dataclass
class RankParse:
    """One rank's parsed items in destination order (``parse_rank``'s output)."""

    data: np.ndarray  # packed k-mers, or packed supermer words
    lengths: np.ndarray | None  # supermer mode: per-item k-mer counts (uint8)
    counts: np.ndarray  # items per destination, shape (P,)
    n_kmers_parsed: int
    n_supermers: int
    supermer_bases: int


@dataclass
class SendArray:
    """Every source rank's destination-ordered items in one array.

    ``data`` is src-major and dst-segmented: segment ``(src, dst)`` holds
    ``counts[src, dst]`` items, so a source's send buffer — the exchange
    stage's per-source form — is a view of it.  The parse phase writes one
    (each parse block its slice), a round is a gather of it
    (:func:`round_split`), and a fused exchange gathers straight out of it.
    """

    data: np.ndarray  # uint64: packed k-mers, or packed supermer words
    lengths: np.ndarray | None  # uint8 k-mers per supermer (supermer mode), parallel to data
    counts: np.ndarray  # (sources, P) int64: [src, dst] items


@dataclass
class ParseSummary:
    """What the round driver keeps of a parse phase: per-rank statistics.

    Small per-rank figures only — the :class:`SendArray` they describe is
    dropped as soon as the last round is exchanged.  A parse block returns
    one for its own ranks (``times``, ``n_kmers`` and ``counts_matrix``
    rows are its shards'), and the driver stacks them.
    """

    times: np.ndarray  # float64 per rank: modeled parse seconds
    n_kmers: np.ndarray  # int64 per rank: k-mer instances parsed
    counts_matrix: np.ndarray  # (ranks, p) int64: [src, dst] items before round splitting
    n_supermers: int
    supermer_bases: int


@dataclass
class ExchangeOutcome:
    """All ranks' received buffers plus the exchange-phase time breakdown.

    An exchange stage receives one array per rank; a fused exchange
    receives a single rank-segmented array (``recv_data``/``recv_lengths``
    are then plain arrays) with ``recv_offsets`` marking the p+1 segment
    boundaries.
    """

    recv_data: list[np.ndarray] | np.ndarray
    recv_lengths: list[np.ndarray] | np.ndarray | None
    counts_matrix: np.ndarray  # items, [src, dst]
    seconds: float  # overhead + network + staging (the phase's bulk time)
    alltoallv_seconds: float  # MPI_Alltoallv routine time only (Fig. 8's metric)
    staging_seconds: float  # host<->device staging copies
    # Per-link (name, seconds) breakdown of the routed alltoallv, innermost
    # link first, with staging appended as a "host-staging" row when it
    # applies (every exchange fills it from ``exchange_time_model``).
    link_seconds: tuple[tuple[str, float], ...] = ()
    recv_offsets: np.ndarray | None = None  # fused exchanges only


@dataclass
class CountOutcome:
    """One rank's count-phase outcome for one round."""

    time_s: float
    n_instances: int  # k-mer instances processed (pre-filter, if any)
    insert_stats: InsertStats
