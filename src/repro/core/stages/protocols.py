"""Stage protocols and the extension-plugin base class.

The pipeline is a fixed-shape graph — parse → partition → exchange →
count → merge.  Parse, partition and count are swappable stages, each
with a protocol here; the exchange and the merge belong to the
residency (:mod:`repro.core.stages.spill`), as the paper's one ALLTOALLV
per round and its fold of disjoint partitions.
:mod:`repro.core.stages.standard` provides the paper's stages, and
:mod:`repro.ext.stages` provides extensions (Bloom singleton pre-filter,
frequency-balanced minimizer partitioning) that the registry plugs into
the plugin seams.

Protocols are :class:`typing.Protocol` classes (structural): any object
with the right methods participates, no inheritance required.  Plugins,
by contrast, share concrete no-op defaults via :class:`PipelinePlugin` so
an extension only overrides the seams it actually uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ...dna.reads import ReadSet
from ...gpu.costmodel import TrafficEstimate
from ...gpu.hashtable import InsertStats
from ...gpu.segmented import SegmentedHashTable
from ...mpi.topology import ClusterSpec
from ..config import PipelineConfig
from .buffers import ParsedItems

if TYPE_CHECKING:
    from .context import EngineOptions, StageContext

__all__ = [
    "ParseStage",
    "PartitionStage",
    "CountStage",
    "Substrate",
    "PipelinePlugin",
]


@runtime_checkable
class ParseStage(Protocol):
    """Extract wire items (k-mers or supermers) from a rank's shard or a view of a block of shards."""

    #: GPU kernel name charged for this phase (Fig. 2 / Fig. 5).
    kernel_name: str

    def extract_at(self, reads: ReadSet, config: PipelineConfig) -> tuple[ParsedItems, np.ndarray]:
        """The items of ``reads`` and each one's position in ``reads.codes`` (ascending); no timing, no partitioning.

        The parse body hands it one view of a block of shards' codes — one
        read per piece (a read ∩ a shard), whose last windows reach into the
        next piece's bases — and tells each item's shard by its position.
        An item that groups windows (a supermer) starts afresh at every
        read start, as it would after a sentinel.
        """
        ...

    def gpu_traffic(
        self, n_kmers: int, n_supermers: int, code_bytes: int, ctx: "StageContext"
    ) -> TrafficEstimate:
        """Memory/atomic/instruction traffic of the parse kernel over one rank's shard."""
        ...


@runtime_checkable
class PartitionStage(Protocol):
    """Assign a destination rank to every parsed item."""

    def owners(self, route_keys: np.ndarray, n_ranks: int, config: PipelineConfig) -> np.ndarray:
        """int32 owner per routing key; empty input yields an empty array."""
        ...


@runtime_checkable
class CountStage(Protocol):
    """Count a block of consecutive ranks' received buffers into their table."""

    def count_block(
        self,
        table: SegmentedHashTable,
        recv: np.ndarray,
        lengths: np.ndarray | None,
        recv_offsets: np.ndarray,
        ctx: "StageContext",
        *,
        rank0: int,
    ) -> tuple[np.ndarray, np.ndarray, list[InsertStats]]:
        """One round of ranks ``rank0, rank0 + 1, ...`` -> per rank: seconds, instances seen, InsertStats.

        ``recv`` (and ``lengths`` in supermer mode) holds their received
        segments back to back, bounded by ``recv_offsets``; ``table``'s
        regions are those ranks' partitions.  Instances seen is what load
        accounting reports; it exceeds the keys inserted only when a plugin
        filters the stream (e.g. the Bloom pre-filter drops first
        occurrences).
        """
        ...


@runtime_checkable
class Substrate(Protocol):
    """Execution substrate: wraps pure stage kernels with modeled timing.

    ``charge_parse`` and ``charge_count`` turn a rank's parse and count
    figures into model seconds; the one parse body and the one count body
    loop them over a block's ranks.  The exchange is charged through
    ``charge_exchange``.  ``device_memory`` says whether the drive plan's
    device law sizes rounds under ``auto_rounds``.
    """

    name: str
    device_memory: bool

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        threads: int,
        ctx: "StageContext",
    ) -> float:
        """Model seconds of one rank's parse of a shard of ``code_bytes`` encoded bases, ``threads`` wide."""
        ...

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: "StageContext") -> float:
        """Model seconds of one rank's count: ``inserted`` keys probed out of ``recv_items`` received."""
        ...

    def charge_exchange(self, bytes_matrix: np.ndarray, ctx: "StageContext") -> tuple[float, float]:
        """``(fixed overhead, host-staging seconds)`` of one round moving ``bytes_matrix`` [src, dst]."""
        ...


class PipelinePlugin:
    """Base class for registry extension stages; all hooks are no-ops.

    A plugin may (a) replace the partition stage, (b) filter the received
    k-mer stream at the destination before insertion, and/or (c) adjust
    per-table ``(values, counts)`` pairs at merge time.  A plugin that
    removes k-mers from the final spectrum must set ``alters_spectrum`` so
    the scheduler skips its parse-vs-counted conservation check.  A plugin
    that overrides ``filter_received`` is *stateful*: its filter's side
    effects must stay in the driving process, so a process pool runs its
    compositions on threads.
    """

    name: str = "plugin"
    alters_spectrum: bool = False

    def prepare(
        self, reads: ReadSet, config: PipelineConfig, cluster: ClusterSpec, opts: "EngineOptions"
    ) -> None:
        """One-time pre-pass over the input (first batch for streams)."""

    def partition_stage(self) -> PartitionStage | None:
        """Replacement partition stage, or None to keep the default."""
        return None

    def filter_received(self, rank: int, kmers: np.ndarray) -> np.ndarray:
        """Destination-side filter over extracted k-mers, pre-insert.

        Called from rank-parallel workers: implementations must keep all
        mutable state rank-private (or locked) to preserve determinism.
        """
        return kmers

    def adjust_merge_items(
        self, values: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Adjust one table partition's (values, counts) at merge time, keeping its length."""
        return values, counts
