"""Typed inter-stage buffers of the staged pipeline.

Every arrow in the stage graph has an explicit record type:

* parse → partition: :class:`ParsedItems` (items plus the routing keys the
  partitioner hashes);
* partition → exchange: :class:`RankParse` (destination-ordered buffers,
  the generalization of the old engine's private ``_RankParse``);
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
    "ParseSummary",
    "ExchangeOutcome",
    "CountOutcome",
    "round_split",
]


def round_split(seg_lens: np.ndarray, rnd: int, n_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Round ``rnd``'s even share of back-to-back segments: ``(lens, gather index)``.

    Segment ``i`` (``seg_lens[i]`` items, laid out consecutively) gives
    round ``rnd`` its items ``[len·rnd // n, len·(rnd+1) // n)`` (Section
    III-A's multi-round split), so the rounds' shares tile every segment
    in order.  The index gathers the shares in segment order.
    """
    seg_starts = np.cumsum(seg_lens) - seg_lens
    lo = seg_starts + (seg_lens * rnd) // n_rounds
    hi = seg_starts + (seg_lens * (rnd + 1)) // n_rounds
    rlens = hi - lo
    return rlens, segment_gather_index(lo, rlens)


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
    """Per-rank output of the parse phase: destination-ordered buffers."""

    data: np.ndarray  # packed k-mers, or packed supermer words
    lengths: np.ndarray | None  # supermer mode: per-item k-mer counts (uint8)
    counts: np.ndarray  # items per destination, shape (P,)
    time_s: float
    n_kmers_parsed: int
    n_supermers: int
    supermer_bases: int


@dataclass
class ParseSummary:
    """What the round driver keeps of a parse phase, whatever the layout.

    Small per-rank statistics only — the send buffers they describe are
    layout-private and are dropped as soon as the last round is exchanged.
    """

    times: np.ndarray  # float64 per rank: modeled parse seconds
    n_kmers: np.ndarray  # int64 per rank: k-mer instances parsed
    counts_matrix: np.ndarray  # (p, p) int64: [src, dst] items before round splitting
    n_supermers: int
    supermer_bases: int


@dataclass
class ExchangeOutcome:
    """All ranks' received buffers plus the exchange-phase time breakdown.

    The per-rank layout receives one array per rank; the flat layout
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
    recv_offsets: np.ndarray | None = None  # flat layout only


@dataclass
class CountOutcome:
    """One rank's count-phase outcome for one round."""

    time_s: float
    n_instances: int  # k-mer instances processed (pre-filter, if any)
    insert_stats: InsertStats
