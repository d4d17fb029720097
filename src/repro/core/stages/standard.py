"""The paper's stage implementations, shared by every execution engine.

These are the algorithmic bodies that used to live inline in
``repro.core.engine`` (BSP) and ``repro.core.spmd`` (threaded SPMD),
factored so each exists exactly once:

* :class:`KmerParse` / :class:`SupermerParse` — Algorithm 1's PARSEKMER
  and Algorithm 2's windowed supermer construction;
* :class:`KmerHashPartition` / :class:`MinimizerHashPartition` — the
  hash partitioners (the latter accepts an explicit minimizer→rank
  assignment, the seam the balanced-partitioning extension plugs into);
* :class:`AlltoallvExchange` — the counts-alltoall + payload-alltoallv
  exchange with exact byte accounting, checksum verification, and the
  Summit-calibrated time model;
* :class:`TableCount` — destination-side k-mer extraction and
  open-addressing insertion, with the plugin filter seam;
* :class:`SpectrumMerge` — partition merging (duplicate-aware for
  canonical supermer mode), with the plugin count-adjustment seam;
* :class:`GpuSubstrate` / :class:`CpuSubstrate` — the timing wrappers
  that charge each phase through the virtual GPU or the Power9 rates.

The numerical behaviour is bit-identical to the pre-refactor engine; the
golden differential suite (``tests/test_stages_golden.py``) enforces it.
"""

from __future__ import annotations

import numpy as np

from ...dna.encoding import canonical_batch
from ...dna.reads import ReadSet
from ...gpu.costmodel import TrafficEstimate, staging_time
from ...gpu.hashtable import InsertStats, SegmentedRankView
from ...gpu.kernels import VirtualGPU
from ...gpu.segmented import SegmentedHashTable
from ...hashing.partition import KmerPartitioner, MinimizerPartitioner
from ...kmers.extract import window_values
from ...kmers.spectrum import KmerSpectrum
from ...kmers.supermers import build_supermers_with_positions, extract_kmers_from_packed
from ...mpi.collectives import alltoallv_flat, alltoallv_segments
from ..config import PipelineConfig
from ..memory import ScratchArena
from .buffers import CountOutcome, ExchangeOutcome, ParsedItems, ParseSummary, RankParse, joined
from .context import EngineOptions, StageContext
from .protocols import CountStage, ParseStage, PartitionStage, PipelinePlugin, Substrate

__all__ = [
    "KmerParse",
    "SupermerParse",
    "KmerHashPartition",
    "MinimizerHashPartition",
    "AlltoallvExchange",
    "TableCount",
    "SpectrumMerge",
    "GpuSubstrate",
    "CpuSubstrate",
    "assemble_rank_parse",
    "parse_block",
    "stable_order",
    "merge_counts",
    "outgoing_buffer_hot_fraction",
    "verify_exchange",
    "exchange_time_model",
    "exchange_outcome",
]


# ---------------------------------------------------------------------------
# parse stages
# ---------------------------------------------------------------------------


class KmerParse:
    """Algorithm 1 / Fig. 2: every window position becomes one k-mer."""

    kernel_name = "parse_kmers"

    def extract(self, shard: ReadSet, config: PipelineConfig) -> ParsedItems:
        return self._items(window_values(shard.codes, config.k).compact(), config)

    def extract_at(self, reads: ReadSet, config: PipelineConfig) -> tuple[ParsedItems, np.ndarray]:
        """:meth:`extract` plus each item's position in ``reads.codes`` (its window's first base)."""
        windows = window_values(reads.codes, config.k)
        positions = np.flatnonzero(windows.valid)
        return self._items(windows.values[positions], config), positions

    @staticmethod
    def _items(kmers: np.ndarray, config: PipelineConfig) -> ParsedItems:
        if config.canonical:
            kmers = canonical_batch(kmers, config.k)
        return ParsedItems(
            data=kmers,
            lengths=None,
            route_keys=kmers,
            n_kmers=int(kmers.shape[0]),
            n_supermers=0,
            supermer_bases=0,
        )

    def grid_threads(self, shard: ReadSet, config: PipelineConfig) -> int:
        return max(int(shard.codes.shape[0]) - config.k + 1, 0)

    def gpu_traffic(
        self, n_kmers: int, n_supermers: int, code_bytes: int, ctx: StageContext
    ) -> TrafficEstimate:
        model = ctx.opts.gpu_model
        mult = ctx.mult
        ops = model.ops_parse_kmer * n_kmers
        atomics = n_kmers  # one outgoing-buffer append per k-mer (Fig. 2)
        written = 8.0 * n_kmers
        return TrafficEstimate(
            streaming_bytes=(2.0 * code_bytes + written) * mult,
            atomic_ops=atomics * mult,
            atomic_hot_fraction=outgoing_buffer_hot_fraction(
                ctx.n_ranks, ctx.opts.device.atomic_serialization
            ),
            thread_ops=ops * mult,
        )


class SupermerParse:
    """Algorithm 2 / Fig. 5: windowed supermer construction."""

    kernel_name = "build_supermers"

    def extract(self, shard: ReadSet, config: PipelineConfig) -> ParsedItems:
        return self.extract_at(shard, config)[0]

    def extract_at(self, reads: ReadSet, config: PipelineConfig) -> tuple[ParsedItems, np.ndarray]:
        """:meth:`extract` plus each supermer's position in ``reads.codes`` (its first base)."""
        batch, positions = build_supermers_with_positions(
            reads,
            config.k,
            config.minimizer_len,
            window=config.effective_window,
            ordering=config.ordering,
            # Canonical counting needs strand-neutral minimizers so each
            # canonical k-mer keeps a single owning rank.
            canonical_minimizers=config.canonical,
        )
        items = ParsedItems(
            data=batch.packed,
            lengths=batch.n_kmers.astype(np.uint8),
            route_keys=batch.minimizers,
            n_kmers=batch.total_kmers,
            n_supermers=len(batch),
            supermer_bases=batch.total_bases,
        )
        return items, positions

    def grid_threads(self, shard: ReadSet, config: PipelineConfig) -> int:
        return max(int(shard.codes.shape[0]) - config.k + 1, 0)

    def gpu_traffic(
        self, n_kmers: int, n_supermers: int, code_bytes: int, ctx: StageContext
    ) -> TrafficEstimate:
        model = ctx.opts.gpu_model
        mult = ctx.mult
        ops = model.ops_parse_supermer * n_kmers
        atomics = n_supermers  # one append per supermer (Fig. 5)
        written = 9.0 * n_supermers
        return TrafficEstimate(
            streaming_bytes=(2.0 * code_bytes + written) * mult,
            atomic_ops=atomics * mult,
            atomic_hot_fraction=outgoing_buffer_hot_fraction(
                ctx.n_ranks, ctx.opts.device.atomic_serialization
            ),
            thread_ops=ops * mult,
        )


def outgoing_buffer_hot_fraction(p: int, serialization: float) -> float:
    """Contention share for the per-destination outgoing-buffer counters.

    The parse kernel's appends contend on ``p`` counters (Fig. 2).  With n
    atomics spread over p addresses, the slowest address serializes ~n/p
    increments, so the phase is bound by ``max(n, n * serialization / p)``
    atomic-units.  Expressed through the cost model's hot-fraction form
    ``(1 - h) + h * serialization == max(1, serialization / p)``.
    """
    factor = max(1.0, serialization / max(p, 1))
    return (factor - 1.0) / (serialization - 1.0) if serialization > 1.0 else 0.0


# ---------------------------------------------------------------------------
# partition stages
# ---------------------------------------------------------------------------


class KmerHashPartition:
    """Uniform hash partitioning over k-mer values (Algorithm 1)."""

    def owners(self, route_keys: np.ndarray, n_ranks: int, config: PipelineConfig) -> np.ndarray:
        if not route_keys.size:
            return np.empty(0, dtype=np.int32)
        return KmerPartitioner(n_ranks, seed=config.partition_seed).owners(route_keys)


class MinimizerHashPartition:
    """Minimizer-space partitioning (Algorithm 2), with assignment hook.

    ``assignment`` (a ``4**m``-entry minimizer→rank map) overrides the
    hash assignment; this is the seam both ``EngineOptions.
    minimizer_assignment`` and the balanced-partitioning extension use.
    """

    def __init__(self, assignment: np.ndarray | None = None) -> None:
        self.assignment = assignment

    def owners(self, route_keys: np.ndarray, n_ranks: int, config: PipelineConfig) -> np.ndarray:
        if not route_keys.size:
            return np.empty(0, dtype=np.int32)
        partitioner = MinimizerPartitioner(
            n_ranks, config.minimizer_len, seed=config.partition_seed, assignment=self.assignment
        )
        return partitioner.owners(route_keys)


def stable_order(keys: np.ndarray, key_range: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, key_range)``, on the narrowest dtype that holds them.

    The destination ordering of every parse: a rank's owners
    (:func:`assemble_rank_parse`) and a parse block's composite (shard,
    owner) keys (:func:`parse_block`).  NumPy's stable sort of 16-bit
    integers is a radix sort, and a narrower key is less memory to sort
    at any width, so the key is narrowed first: ``uint16``, then
    ``uint32``, then ``int64``.
    """
    for dtype in (np.uint16, np.uint32):
        if key_range <= np.iinfo(dtype).max + 1:
            return np.argsort(keys.astype(dtype, copy=False), kind="stable")
    return np.argsort(keys.astype(np.int64, copy=False), kind="stable")


def assemble_rank_parse(
    items: ParsedItems, owners: np.ndarray, n_ranks: int, partition: PartitionStage
) -> RankParse:
    """Destination-order one rank's parsed items -> exchange-ready buffer.

    ``owners`` must lie in ``[0, n_ranks)``; ``partition``, the stage that
    assigned them, is named in the error when they do not.
    """
    counts = np.bincount(owners, minlength=n_ranks).astype(np.int64)  # raises on a negative owner
    if counts.shape[0] != n_ranks:
        raise ValueError(
            f"partition stage {type(partition).__name__} assigned rank {counts.shape[0] - 1}, "
            f"outside the {n_ranks} ranks of the run"
        )
    order = stable_order(owners, n_ranks)
    return RankParse(
        data=items.data[order],
        lengths=items.lengths[order] if items.lengths is not None else None,
        counts=counts,
        n_kmers_parsed=items.n_kmers,
        n_supermers=items.n_supermers,
        supermer_bases=items.supermer_bases,
    )


def _block_reads(shards: list[ReadSet], code_base: np.ndarray, arena: ScratchArena) -> ReadSet:
    """The shards as one read set: their codes back to back in an arena buffer."""
    codes = arena.take(int(code_base[-1]), np.uint8)
    for shard, lo, hi in zip(shards, code_base[:-1].tolist(), code_base[1:].tolist()):
        codes[lo:hi] = shard.codes
    offsets = np.concatenate([shard.offsets + lo for shard, lo in zip(shards, code_base[:-1].tolist())])
    return ReadSet(codes=codes, offsets=offsets, lengths=np.concatenate([shard.lengths for shard in shards]))


def parse_block(
    shards: list[ReadSet],
    parse: ParseStage,
    partition: PartitionStage,
    substrate: Substrate,
    ctx: StageContext,
    arena: ScratchArena,
) -> tuple[np.ndarray, np.ndarray | None, ParseSummary]:
    """The one parse body: a block of whole shards (ranks ``r0, r0 + 1, ...``) into their send buffers.

    Returns the block's slice of the run's send array (items src-major,
    dst-segmented; their k-mer counts in supermer mode) and its
    :class:`ParseSummary`.  The standard stages run once over the shards'
    codes back to back (sentinel-terminated shards: no window or supermer
    spans two, and an item's position tells its shard), with one
    ``owners`` call and one stable sort of the composite (shard, owner)
    key — the shards' stable owner sorts, concatenated.  A custom parse or
    partition stage parses shard by shard through ``parse_rank``.  Either
    way each shard is charged here, by the substrate's ``charge_parse``:
    the one place parse seconds and parse-kernel telemetry come from.
    """
    config, p, nb = ctx.config, ctx.n_ranks, len(shards)
    if type(parse) in (KmerParse, SupermerParse) and type(partition) in (
        KmerHashPartition,
        MinimizerHashPartition,
    ):
        if nb == 1:
            items = parse.extract(shards[0], config)
            cuts = np.array([0, items.data.shape[0]])
        else:
            code_base = np.zeros(nb + 1, dtype=np.int64)
            np.cumsum([shard.codes.shape[0] for shard in shards], out=code_base[1:])
            reads = _block_reads(shards, code_base, arena)
            items, positions = parse.extract_at(reads, config)
            arena.release(reads.codes)
            cuts = np.searchsorted(positions, code_base)  # shard s's items: [cuts[s], cuts[s + 1])
        n_items = np.diff(cuts)
        owners = partition.owners(items.route_keys, p, config)
        key = owners if nb == 1 else np.repeat(np.arange(0, nb * p, p), n_items) + owners
        counts = np.bincount(key, minlength=nb * p).reshape(nb, p)
        order = stable_order(key, nb * p)
        data = items.data[order]
        lengths = None
        n_kmers, n_supermers, supermer_bases = n_items, np.zeros(nb, dtype=np.int64), 0
        if items.lengths is not None:
            lengths = items.lengths[order]
            kmer_cum = np.zeros(data.shape[0] + 1, dtype=np.int64)
            np.cumsum(items.lengths, dtype=np.int64, out=kmer_cum[1:])
            n_kmers, n_supermers, supermer_bases = np.diff(kmer_cum[cuts]), n_items, items.supermer_bases
    else:
        parsed = [substrate.parse_rank(shard, parse, partition, ctx) for shard in shards]
        data = joined([pr.data for pr in parsed])
        lengths = None if parsed[0].lengths is None else joined([pr.lengths for pr in parsed])
        counts = np.array([pr.counts for pr in parsed], dtype=np.int64)
        n_kmers = np.array([pr.n_kmers_parsed for pr in parsed], dtype=np.int64)
        n_supermers = np.array([pr.n_supermers for pr in parsed], dtype=np.int64)
        supermer_bases = sum(pr.supermer_bases for pr in parsed)
    times = np.array(
        [
            substrate.charge_parse(
                parse,
                int(n_kmers[i]),
                int(n_supermers[i]),
                int(shard.codes.nbytes),
                parse.grid_threads(shard, config),
                ctx,
            )
            for i, shard in enumerate(shards)
        ]
    )
    summary = ParseSummary(
        times=times,
        n_kmers=n_kmers,
        counts_matrix=counts,
        n_supermers=int(n_supermers.sum()),
        supermer_bases=int(supermer_bases),
    )
    return data, lengths, summary


# ---------------------------------------------------------------------------
# exchange stage
# ---------------------------------------------------------------------------


def verify_exchange(
    send_data: list[np.ndarray] | np.ndarray,
    recv_data: list[np.ndarray] | np.ndarray,
    counts_matrix: np.ndarray,
    label: str,
) -> None:
    """End-to-end integrity check over one exchange round.

    Production distributed counters checksum their wire traffic (a single
    flipped key silently corrupts the histogram).  The simulator does the
    equivalent: the global XOR and item count of everything sent must equal
    those of everything received.  Catches routing/slicing bugs in the
    collective layer at negligible cost.  Either side may be one array (a
    fused exchange's): XOR is commutative, so it checks as one buffer.
    """
    send_data = [send_data] if isinstance(send_data, np.ndarray) else send_data
    recv_data = [recv_data] if isinstance(recv_data, np.ndarray) else recv_data
    sent_items = int(counts_matrix.sum())
    recv_items = sum(int(buf.shape[0]) for buf in recv_data)
    if sent_items != recv_items:
        raise AssertionError(f"exchange {label!r} lost items: sent {sent_items}, received {recv_items}")
    sent_xor = np.uint64(0)
    for buf in send_data:
        if buf.size:
            sent_xor ^= np.bitwise_xor.reduce(buf.view(np.uint64))
    recv_xor = np.uint64(0)
    for buf in recv_data:
        if buf.size:
            recv_xor ^= np.bitwise_xor.reduce(buf.view(np.uint64))
    if sent_xor != recv_xor:
        raise AssertionError(f"exchange {label!r} corrupted payload (checksum mismatch)")


def exchange_time_model(
    counts_matrix: np.ndarray, ctx: StageContext
) -> tuple[float, float, float, tuple[tuple[str, float], ...]]:
    """Model one exchange round's ``(seconds, alltoallv_s, staging_s, links)``.

    Network time (hierarchical alltoallv plus the small counts alltoall)
    plus the substrate's ``charge_exchange``: its fixed per-round overhead
    and its host staging copies.  ``links`` is the per-link ``(name,
    seconds)`` breakdown from the routed alltoallv, with host staging
    appended as its own ``host-staging`` link row when it applies.
    """
    bytes_matrix = counts_matrix.astype(np.float64) * ctx.wire_bytes * ctx.mult
    timing = ctx.comm_model.alltoallv(bytes_matrix)
    t_a2av = timing.total
    t_net = t_a2av + ctx.comm_model.alltoall_counts()
    overhead, t_stage = ctx.substrate.charge_exchange(bytes_matrix, ctx)
    links = tuple((lt.link, lt.seconds) for lt in timing.links)
    if t_stage > 0.0:
        links = links + (("host-staging", t_stage),)
    return overhead + t_net + t_stage, t_a2av, t_stage, links


def exchange_outcome(
    send_data: list[np.ndarray] | np.ndarray,
    recv_data: list[np.ndarray] | np.ndarray,
    recv_lengths: list[np.ndarray] | np.ndarray | None,
    counts_matrix: np.ndarray,
    label: str,
    ctx: StageContext,
    recv_offsets: np.ndarray | None = None,
) -> ExchangeOutcome:
    """The tail every exchange shares: checksum, time model, the outcome.

    Per-rank buffer lists, or a fused exchange's one send array and, with
    ``recv_offsets``, its one rank-segmented receive array.
    """
    if ctx.verify if ctx.verify is not None else ctx.opts.verify_exchange:
        verify_exchange(send_data, recv_data, counts_matrix, label)
    seconds, t_a2av, t_stage, links = exchange_time_model(counts_matrix, ctx)
    return ExchangeOutcome(
        recv_data=recv_data,
        recv_lengths=recv_lengths,
        counts_matrix=counts_matrix,
        seconds=seconds,
        alltoallv_seconds=t_a2av,
        staging_seconds=t_stage,
        link_seconds=links,
        recv_offsets=recv_offsets,
    )


class AlltoallvExchange:
    """Counts alltoall + payload alltoallv, with exact accounting.

    Moves the data (real reshuffle through the collective layer), checks
    end-to-end checksums, and models the phase time
    (:func:`exchange_outcome`).  The send side is per-source buffers with
    their per-destination counts — or, in a fused run, the one src-major
    send array with its ``(P, P)`` counts matrix, gathered straight into
    one receive array (:func:`~repro.mpi.collectives.alltoallv_flat`).
    """

    def exchange(
        self,
        send_data: list[np.ndarray] | np.ndarray,
        send_lengths: list[np.ndarray] | np.ndarray | None,
        send_counts: list[np.ndarray] | np.ndarray,
        label: str,
        ctx: StageContext,
    ) -> ExchangeOutcome:
        wire = ctx.wire_bytes
        if isinstance(send_data, np.ndarray):
            recv, recv_offsets = alltoallv_flat(
                send_data, send_counts, stats=ctx.stats, label=label, bytes_per_item=wire
            )
            recv_lens = None if send_lengths is None else alltoallv_flat(send_lengths, send_counts)[0]
            return exchange_outcome(
                send_data, recv, recv_lens, send_counts, label, ctx, recv_offsets=recv_offsets
            )
        recv_data, counts_matrix = alltoallv_segments(
            send_data, send_counts, stats=ctx.stats, label=label, bytes_per_item=wire, pool=ctx.pool
        )
        recv_lengths: list[np.ndarray] | None = None
        if send_lengths is not None:
            recv_lengths, _ = alltoallv_segments(
                send_lengths, send_counts, stats=None, pool=ctx.pool  # bytes counted in `wire`
            )
        return exchange_outcome(send_data, recv_data, recv_lengths, counts_matrix, label, ctx)


# ---------------------------------------------------------------------------
# count stage
# ---------------------------------------------------------------------------


class TableCount:
    """Destination-side extraction + open-addressing insertion.

    ``plugins`` may filter the extracted k-mer stream before insertion
    (the Bloom pre-filter seam); the default composition has none and the
    stream passes through untouched.
    """

    def __init__(self, plugins: tuple[PipelinePlugin, ...] = ()) -> None:
        self.plugins = plugins

    def extract_kmers(self, recv: np.ndarray, lengths: np.ndarray | None, config: PipelineConfig) -> np.ndarray:
        if config.mode != "supermer":
            return np.ascontiguousarray(recv, dtype=np.uint64)
        kmers = (
            extract_kmers_from_packed(recv, lengths, config.k) if recv.size else np.empty(0, dtype=np.uint64)
        )
        return canonical_batch(kmers, config.k) if config.canonical and kmers.size else kmers

    def materialize(
        self, rank: int, recv: np.ndarray, lengths: np.ndarray | None, ctx: StageContext
    ) -> tuple[np.ndarray, int]:
        kmers = self.extract_kmers(recv, lengths, ctx.config)
        n_seen = int(kmers.shape[0])
        for plugin in self.plugins:
            kmers = plugin.filter_received(rank, kmers)
        return kmers, n_seen

    def insert(self, table: SegmentedRankView, kmers: np.ndarray) -> InsertStats:
        return table.insert_batch(kmers) if kmers.size else InsertStats.zero()

    def count_block(
        self,
        table: SegmentedHashTable,
        recv: np.ndarray,
        lengths: np.ndarray | None,
        recv_offsets: np.ndarray,
        ctx: StageContext,
        *,
        rank0: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, list[InsertStats]]:
        """One count round of a block of consecutive ranks: the one count body.

        ``recv`` (and ``lengths`` in supermer mode) holds the received
        segments of ranks ``rank0, rank0 + 1, ...`` back to back, bounded
        by ``recv_offsets``; ``table``'s regions are those ranks'
        partitions.  Returns ``(times, n_seen, stats)`` per rank.

        Extraction runs once over the whole block (elementwise per
        supermer, so rank slices equal the per-rank extractions); plugin
        receive-filters run per rank in rank order, preserving their
        stateful semantics; one :meth:`SegmentedHashTable.insert_flat`
        inserts every rank's keys; each rank is charged through the
        substrate's own ``charge_count``.  Regions are slot-disjoint, so a
        rank's probe sequence — hence every InsertStats field, model time
        and telemetry emission — does not depend on which ranks share the
        call: every layout and residency counts through this body, over
        whatever blocks suit it, with the results of ``materialize`` +
        ``insert`` rank by rank.
        """
        nb = recv_offsets.shape[0] - 1
        kmers = self.extract_kmers(recv, lengths, ctx.config)
        if ctx.supermer_mode:
            kmer_cum = np.zeros(recv.shape[0] + 1, dtype=np.int64)
            np.cumsum(lengths, dtype=np.int64, out=kmer_cum[1:])
            offsets = kmer_cum[recv_offsets]
        else:
            offsets = recv_offsets
        n_seen = offsets[1:] - offsets[:-1]
        if self.plugins:
            segments = []
            for i in range(nb):
                kmers_r = kmers[offsets[i] : offsets[i + 1]]
                for plugin in self.plugins:
                    kmers_r = plugin.filter_received(rank0 + i, kmers_r)
                segments.append(kmers_r)
            offsets = np.zeros(nb + 1, dtype=np.int64)
            np.cumsum([seg.shape[0] for seg in segments], out=offsets[1:])
            kmers = np.concatenate(segments) if nb > 1 else segments[0]

        stats = table.insert_flat(kmers, offsets)
        inserted = (offsets[1:] - offsets[:-1]).tolist()
        recv_items = (recv_offsets[1:] - recv_offsets[:-1]).tolist()
        times = np.array(
            [ctx.substrate.charge_count(inserted[i], recv_items[i], stats[i], ctx) for i in range(nb)]
        )
        return times, n_seen, stats


# ---------------------------------------------------------------------------
# merge stage
# ---------------------------------------------------------------------------


def merge_counts(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` and each one's summed ``counts``, exact in int64 at any count.

    The one aggregation of the merges (:class:`SpectrumMerge` and the
    external merge's chunks): a sort, then — only when a key repeats — one
    ``reduceat`` over the runs of equal keys.
    """
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order].astype(np.int64, copy=False)
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    if starts.shape[0] + 1 >= keys.shape[0]:  # no key repeats (or nothing at all)
        return keys, counts
    starts = np.concatenate(([0], starts))
    return keys[starts], np.add.reduceat(counts, starts)


class SpectrumMerge:
    """Merge per-rank partitions of the global table into one spectrum.

    Partitioning guarantees disjoint key sets across ranks in both modes,
    but canonical supermer mode can split a canonical k-mer across two
    owners (its two strands hash to different minimizers), so duplicates
    are aggregated rather than assumed absent.  Plugins may adjust each
    partition's ``(values, counts)`` first (the Bloom filter restores the
    occurrence that armed it).
    """

    def __init__(self, plugins: tuple[PipelinePlugin, ...] = ()) -> None:
        self.plugins = plugins

    def merge_items(self, pairs: list[tuple[np.ndarray, np.ndarray]], k: int) -> KmerSpectrum:
        adjusted = []
        for values, counts in pairs:
            for plugin in self.plugins:
                values, counts = plugin.adjust_merge_items(values, counts)
            adjusted.append((values, counts))
        if not adjusted:
            return KmerSpectrum(k=k, values=np.empty(0, dtype=np.uint64), counts=np.empty(0, dtype=np.int64))
        values, counts = merge_counts(
            np.concatenate([v for v, _ in adjusted]), np.concatenate([c for _, c in adjusted])
        )
        return KmerSpectrum(k=k, values=values, counts=counts)

    def merge_tables(self, tables: list[SegmentedRankView], k: int) -> KmerSpectrum:
        return self.merge_items([t.items() for t in tables], k)


# ---------------------------------------------------------------------------
# substrates (timing wrappers)
# ---------------------------------------------------------------------------


# A rank's phase is the stage *body* plus the substrate's *charge* for the
# work the body reports.  Every parse runs through ``parse_block``, which
# loops ``charge_parse`` over its shards, and every count through
# ``TableCount.count_block``, which loops ``charge_count`` — so a rank's
# model seconds and kernel telemetry come from one function per phase.
# ``parse_rank`` and ``count_rank`` are what custom parse/partition and
# count stages are run by, one rank at a time.


def _parse_rank(
    self, shard: ReadSet, parse: ParseStage, partition: PartitionStage, ctx: StageContext
) -> RankParse:
    items = parse.extract(shard, ctx.config)
    owners = partition.owners(items.route_keys, ctx.n_ranks, ctx.config)
    return assemble_rank_parse(items, owners, ctx.n_ranks, partition)


def _count_rank(
    self,
    rank: int,
    recv: np.ndarray,
    lengths: np.ndarray | None,
    table: SegmentedRankView,
    count: CountStage,
    ctx: StageContext,
) -> CountOutcome:
    kmers, n_seen = count.materialize(rank, recv, lengths, ctx)
    ins = count.insert(table, kmers)
    dt = self.charge_count(int(kmers.shape[0]), int(recv.shape[0]), ins, ctx)
    return CountOutcome(time_s=dt, n_instances=n_seen, insert_stats=ins)


class GpuSubstrate:
    """Charges each phase through the virtual GPU's kernel cost model."""

    name = "gpu"
    parse_rank = _parse_rank
    count_rank = _count_rank

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        grid_threads: int,
        ctx: StageContext,
    ) -> float:
        """One parse-kernel launch over a shard of ``code_bytes`` encoded bases."""
        traffic = parse.gpu_traffic(n_kmers, n_supermers, code_bytes, ctx)
        return VirtualGPU(ctx.opts.device).charge(parse.kernel_name, grid_threads, traffic)

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: StageContext) -> float:
        """One count-kernel launch: a thread per received item, ``inserted`` keys probed."""
        model = ctx.opts.gpu_model
        mult = ctx.mult
        ops = model.ops_count_kmer * inserted
        if ctx.supermer_mode:
            ops += model.ops_extract_kmer * inserted
        traffic = TrafficEstimate(
            streaming_bytes=8.0 * inserted * mult,
            random_bytes=ins.total_probes * model.bytes_per_probe * mult,
            atomic_ops=(inserted + ins.cas_conflicts) * mult,
            atomic_hot_fraction=0.0,
            thread_ops=ops * mult,
        )
        return VirtualGPU(ctx.opts.device).charge("count_kmers", recv_items, traffic)

    def charge_exchange(self, bytes_matrix: np.ndarray, ctx: StageContext) -> tuple[float, float]:
        """One exchange round's ``(fixed overhead, host-staging seconds)``.

        Staging is the host<->device copies around the collective, skipped
        under GPUDirect (the run config's flag or the machine's network knob).
        """
        t_stage = 0.0
        if ctx.n_ranks and not ctx.gpudirect:
            out_bytes = bytes_matrix.sum(axis=1)
            in_bytes = bytes_matrix.sum(axis=0)
            # BSP: the slowest rank's host<->device copies gate the phase.
            busiest = int((out_bytes + in_bytes).argmax())
            t_stage = staging_time(ctx.opts.device, float(out_bytes[busiest]), float(in_bytes[busiest]))
        return ctx.opts.gpu_model.exchange_overhead_s, t_stage

    def device_rounds(self, worst_items: float, wire: int, opts: EngineOptions) -> int:
        """Rounds so the worst rank's round fits device memory (``auto_rounds``)."""
        if not opts.auto_rounds:
            return 1
        # Wire buffer + staged copy + table entries (16 B/slot at ~0.7 load).
        bytes_per_item = wire * 2 + 16 / 0.7
        budget = opts.device.hbm_bytes * opts.memory_budget_fraction
        return max(1, int(np.ceil(worst_items * bytes_per_item / budget)))


class CpuSubstrate:
    """Charges each phase through the Power9-calibrated CPU rates."""

    name = "cpu"
    parse_rank = _parse_rank
    count_rank = _count_rank

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        grid_threads: int,
        ctx: StageContext,
    ) -> float:
        rates = ctx.opts.cpu_rates
        return rates.phase_overhead + rates.parse_time(n_kmers * ctx.mult, supermer_mode=ctx.supermer_mode)

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: StageContext) -> float:
        rates = ctx.opts.cpu_rates
        return rates.phase_overhead + rates.count_time(inserted * ctx.mult, supermer_mode=ctx.supermer_mode)

    def charge_exchange(self, bytes_matrix: np.ndarray, ctx: StageContext) -> tuple[float, float]:
        return ctx.opts.cpu_rates.phase_overhead, 0.0  # host buffers: nothing to stage

    def device_rounds(self, worst_items: float, wire: int, opts: EngineOptions) -> int:
        return 1  # no device memory to fit
