"""Stage protocols and the extension-plugin base class.

The pipeline is a fixed-shape graph — parse → partition → exchange →
count → merge — whose nodes are swappable.  Each node kind has a protocol
here; :mod:`repro.core.stages.standard` provides the paper's
implementations, and :mod:`repro.ext.stages` provides extensions (Bloom
singleton pre-filter, frequency-balanced minimizer partitioning) that the
registry plugs into the same seams.

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
from ...gpu.hashtable import InsertStats, SegmentedRankView
from ...kmers.spectrum import KmerSpectrum
from ...mpi.topology import ClusterSpec
from ..config import PipelineConfig
from .buffers import CountOutcome, ExchangeOutcome, ParsedItems, RankParse

if TYPE_CHECKING:
    from .context import EngineOptions, StageContext

__all__ = [
    "ParseStage",
    "PartitionStage",
    "ExchangeStage",
    "CountStage",
    "MergeStage",
    "Substrate",
    "PipelinePlugin",
]


@runtime_checkable
class ParseStage(Protocol):
    """Extract wire items (k-mers or supermers) from one rank's shard."""

    #: GPU kernel name charged for this phase (Fig. 2 / Fig. 5).
    kernel_name: str

    def extract(self, shard: ReadSet, config: PipelineConfig) -> ParsedItems:
        """Pure extraction; no timing, no partitioning."""
        ...

    def grid_threads(self, shard: ReadSet, config: PipelineConfig) -> int:
        """Logical GPU thread count of the parse kernel launch."""
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
class ExchangeStage(Protocol):
    """Move all ranks' destination-ordered buffers, with cost accounting."""

    def exchange(
        self,
        send_data: list[np.ndarray],
        send_lengths: list[np.ndarray] | None,
        send_counts: list[np.ndarray],
        label: str,
        ctx: "StageContext",
    ) -> ExchangeOutcome: ...


@runtime_checkable
class CountStage(Protocol):
    """Turn one rank's received buffer into hash-table insertions."""

    def materialize(
        self, rank: int, recv: np.ndarray, lengths: np.ndarray | None, ctx: "StageContext"
    ) -> tuple[np.ndarray, int]:
        """Received wire buffer -> (k-mers bound for the table, instances seen).

        The two differ only when a plugin filters the stream (e.g. the
        Bloom pre-filter drops first occurrences); instances seen is what
        load accounting reports.
        """
        ...

    def insert(self, table: SegmentedRankView, kmers: np.ndarray):
        """Insert into the rank's table partition -> InsertStats."""
        ...


@runtime_checkable
class MergeStage(Protocol):
    """Fold per-rank table partitions into the global spectrum."""

    def merge_tables(self, tables: list[SegmentedRankView], k: int) -> KmerSpectrum: ...

    def merge_items(self, pairs: list[tuple[np.ndarray, np.ndarray]], k: int) -> KmerSpectrum: ...


@runtime_checkable
class Substrate(Protocol):
    """Execution substrate: wraps pure stage kernels with modeled timing.

    ``charge_parse`` and ``charge_count`` turn a rank's parse and count
    figures into model seconds; the one parse body and the one count body
    loop them over a block's ranks.  ``parse_rank`` and ``count_rank`` run
    a custom parse/partition or count stage one rank at a time (the
    charges stay with the bodies).  The exchange is charged through
    ``charge_exchange`` and rounds are sized through ``device_rounds``.
    """

    name: str

    def parse_rank(
        self,
        shard: ReadSet,
        parse: ParseStage,
        partition: PartitionStage,
        ctx: "StageContext",
    ) -> RankParse: ...

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        grid_threads: int,
        ctx: "StageContext",
    ) -> float:
        """Model seconds of one rank's parse of a shard of ``code_bytes`` encoded bases."""
        ...

    def count_rank(
        self,
        rank: int,
        recv: np.ndarray,
        lengths: np.ndarray | None,
        table: SegmentedRankView,
        count: CountStage,
        ctx: "StageContext",
    ) -> CountOutcome: ...

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: "StageContext") -> float:
        """Model seconds of one rank's count: ``inserted`` keys probed out of ``recv_items`` received."""
        ...

    def charge_exchange(self, bytes_matrix: np.ndarray, ctx: "StageContext") -> tuple[float, float]:
        """``(fixed overhead, host-staging seconds)`` of one round moving ``bytes_matrix`` [src, dst]."""
        ...

    def device_rounds(self, worst_items: float, wire: int, opts: "EngineOptions") -> int:
        """Rounds needed so the worst rank's received items fit the substrate's device memory."""
        ...


class PipelinePlugin:
    """Base class for registry extension stages; all hooks are no-ops.

    A plugin may (a) replace the partition stage, (b) filter the received
    k-mer stream at the destination before insertion, and/or (c) adjust
    per-table ``(values, counts)`` pairs at merge time.  A plugin that
    removes k-mers from the final spectrum must set ``alters_spectrum`` so
    the scheduler skips its parse-vs-counted conservation check.
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
        """Adjust one table partition's (values, counts) at merge time."""
        return values, counts
