"""The paper's stages and the phase bodies every strategy runs.

* :class:`KmerParse` / :class:`SupermerParse` — Algorithm 1's PARSEKMER
  and Algorithm 2's windowed supermer construction, run over one view of
  a block of shards' codes by the one parse body, :func:`parse_block`;
* :class:`KmerHashPartition` / :class:`MinimizerHashPartition` — the
  hash partitioners (the latter accepts an explicit minimizer→rank
  assignment, the seam the balanced-partitioning extension plugs into);
* :func:`exchange_outcome` — the tail of every exchange (the
  Summit-calibrated time model, the outcome), and the exchange checksum,
  one per drive (:func:`exchange_digest` over the send array and over
  each count block's reads, :func:`fold_digests`, and
  :func:`verify_exchange`, which the round driver calls once after the
  count); the exchanges and the count loop themselves belong to the
  residencies (:mod:`repro.core.stages.spill`);
* :class:`TableCount` — destination-side k-mer extraction and
  open-addressing insertion, with the plugin filter seam;
* :func:`merge_items` — partition merging (duplicate-aware for
  canonical supermer mode), with the plugin count-adjustment seam;
* :class:`GpuSubstrate` / :class:`CpuSubstrate` — the timing wrappers
  that charge each phase through the virtual GPU or the Power9 rates.

The golden differential suite (``tests/test_stages_golden.py``) pins the
numerical behaviour.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from ...dna.encoding import canonical_batch
from ...dna.reads import ReadSet, ShardRanges
from ...gpu.costmodel import TrafficEstimate, staging_time
from ...gpu.hashtable import InsertStats, SegmentedRankView, merge_counts
from ...gpu.kernels import VirtualGPU
from ...gpu.segmented import SegmentedHashTable, view_blocks
from ...hashing.partition import KmerPartitioner, MinimizerPartitioner
from ...kmers.extract import window_values
from ...kmers.spectrum import KmerSpectrum
from ...kmers.supermers import build_supermers_with_positions, extract_kmers_from_packed
from ..config import PipelineConfig
from .buffers import ExchangeOutcome, ParsedItems, ParseSummary, join_kmers, split_kmers
from .context import StageContext
from .protocols import ParseStage, PartitionStage, PipelinePlugin, Substrate

__all__ = [
    "KmerParse",
    "SupermerParse",
    "KmerHashPartition",
    "MinimizerHashPartition",
    "TableCount",
    "GpuSubstrate",
    "CpuSubstrate",
    "parse_block",
    "stable_order",
    "merge_items",
    "merge_partitions",
    "outgoing_buffer_hot_fraction",
    "exchange_digest",
    "fold_digests",
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

    def extract_at(self, reads: ReadSet, config: PipelineConfig) -> tuple[ParsedItems, np.ndarray]:
        """Every valid window's k-mer, and its position in ``reads.codes`` (its first base)."""
        windows = window_values(reads.codes, config.k)
        positions = np.flatnonzero(windows.valid)
        kmers = windows.values[positions]
        if config.canonical:
            kmers = canonical_batch(kmers, config.k)
        items = ParsedItems(
            data=kmers,
            lengths=None,
            route_keys=kmers,
            n_kmers=int(kmers.shape[0]),
            n_supermers=0,
            supermer_bases=0,
        )
        return items, positions

    def gpu_traffic(
        self, n_kmers: int, n_supermers: int, code_bytes: int, ctx: StageContext
    ) -> TrafficEstimate:
        model = ctx.opts.machine.gpu_model
        mult = ctx.mult
        ops = model.ops_parse_kmer * n_kmers
        atomics = n_kmers  # one outgoing-buffer append per k-mer (Fig. 2)
        written = 8.0 * n_kmers
        return TrafficEstimate(
            streaming_bytes=(2.0 * code_bytes + written) * mult,
            atomic_ops=atomics * mult,
            atomic_hot_fraction=outgoing_buffer_hot_fraction(
                ctx.n_ranks, ctx.opts.machine.resolved_device.atomic_serialization
            ),
            thread_ops=ops * mult,
        )


class SupermerParse:
    """Algorithm 2 / Fig. 5: windowed supermer construction."""

    kernel_name = "build_supermers"

    def extract_at(self, reads: ReadSet, config: PipelineConfig) -> tuple[ParsedItems, np.ndarray]:
        """Every supermer, and its position in ``reads.codes`` (its first base)."""
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

    def gpu_traffic(
        self, n_kmers: int, n_supermers: int, code_bytes: int, ctx: StageContext
    ) -> TrafficEstimate:
        model = ctx.opts.machine.gpu_model
        mult = ctx.mult
        ops = model.ops_parse_supermer * n_kmers
        atomics = n_supermers  # one append per supermer (Fig. 5)
        written = 9.0 * n_supermers
        return TrafficEstimate(
            streaming_bytes=(2.0 * code_bytes + written) * mult,
            atomic_ops=atomics * mult,
            atomic_hot_fraction=outgoing_buffer_hot_fraction(
                ctx.n_ranks, ctx.opts.machine.resolved_device.atomic_serialization
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

    The destination ordering of every parse: a parse block's composite
    (shard, owner) keys (:func:`parse_block`).  NumPy's stable sort of
    16-bit integers is a radix sort, and a narrower key is less memory to
    sort at any width, so the key is narrowed first: ``uint16``, then
    ``uint32``, then ``int64``.
    """
    for dtype in (np.uint16, np.uint32):
        if key_range <= np.iinfo(dtype).max + 1:
            return np.argsort(keys.astype(dtype, copy=False), kind="stable")
    return np.argsort(keys.astype(np.int64, copy=False), kind="stable")


def _destination_counts(
    key: np.ndarray, n_items: np.ndarray, owners: np.ndarray, p: int, partition: PartitionStage
) -> np.ndarray:
    """The ``(shards, p)`` items per (shard, owner) of a parse block's composite ``key``.

    An owner outside ``[0, p)`` makes its key negative (``bincount``
    raises), lengthens the count past ``shards * p``, or files its item
    under a neighbouring shard, whose row sum then differs from that
    shard's item count — so no pass over the items checks the owners, and
    the offending rank is found only on the error path.  ``partition``,
    the stage that assigned them, is named in the error.
    """
    nb = n_items.shape[0]
    try:
        counts = np.bincount(key, minlength=nb * p)
    except ValueError:  # a negative key
        counts = None
    if counts is None or counts.shape[0] != nb * p or (counts.reshape(nb, p).sum(axis=1) != n_items).any():
        rank = int(owners[np.flatnonzero((owners < 0) | (owners >= p))[0]])
        raise ValueError(
            f"partition stage {type(partition).__name__} assigned rank {rank}, "
            f"outside the {p} ranks of the run"
        )
    return counts.reshape(nb, p)


def parse_block(
    ranges: ShardRanges,
    r0: int,
    r1: int,
    parse: ParseStage,
    partition: PartitionStage,
    substrate: Substrate,
    ctx: StageContext,
) -> tuple[np.ndarray, np.ndarray | None, ParseSummary]:
    """The one parse body: shards ``r0 .. r1 - 1`` of the input into their send buffers.

    Returns the block's slice of the run's send array (items src-major,
    dst-segmented, in the send format: supermers and their k-mer counts, or
    k-mers in their host form, :func:`~repro.core.stages.buffers.split_kmers`)
    and its :class:`ParseSummary`.  The parse stage runs once over the block's one
    view of the input's codes (``extract_at`` over
    :meth:`~repro.dna.reads.ShardRanges.view`: one read per piece, so no
    window or supermer spans two shards, and an item's position tells its
    shard), then one ``owners`` call and one stable sort of the composite
    (shard, owner) key — the shards' stable owner sorts, concatenated.
    Each shard is charged here, by the substrate's ``charge_parse``, for
    its standalone codes (``ShardRanges.code_bytes``) and one kernel
    thread per window start in them: the one place parse seconds and
    parse-kernel telemetry come from.
    """
    config, p, nb = ctx.config, ctx.n_ranks, r1 - r0
    reads, heads = ranges.view(r0, r1)
    items, positions = parse.extract_at(reads, config)
    cuts = np.searchsorted(positions, heads)  # shard r0 + i's items: [cuts[i], cuts[i + 1])
    n_items = np.diff(cuts)
    owners = partition.owners(items.route_keys, p, config)
    key = owners if nb == 1 else np.repeat(np.arange(0, nb * p, p), n_items) + owners
    counts = _destination_counts(key, n_items, owners, p, partition)
    order = stable_order(key, nb * p)
    n_kmers, n_supermers = n_items, np.zeros(nb, dtype=np.int64)
    if ctx.supermer_mode:
        data, lengths = items.data[order], items.lengths[order]
        kmer_cum = np.zeros(data.shape[0] + 1, dtype=np.int64)
        np.cumsum(items.lengths, dtype=np.int64, out=kmer_cum[1:])
        n_kmers, n_supermers = np.diff(kmer_cum[cuts]), n_items
    else:
        data, lengths = split_kmers(items.data[order], config.k)  # high bytes at k = 17..20: not lengths
    code_bytes = ranges.code_bytes[r0:r1]
    threads = np.maximum(code_bytes - config.k + 1, 0)
    times = np.array(
        [
            substrate.charge_parse(
                parse, int(n_kmers[i]), int(n_supermers[i]), int(code_bytes[i]), int(threads[i]), ctx
            )
            for i in range(nb)
        ]
    )
    summary = ParseSummary(
        times=times,
        n_kmers=n_kmers,
        counts_matrix=counts,
        n_supermers=int(n_supermers.sum()),
        supermer_bases=int(items.supermer_bases),
    )
    return data, lengths, summary


# ---------------------------------------------------------------------------
# exchange accounting
# ---------------------------------------------------------------------------


def exchange_digest(arrays) -> tuple[tuple[int, int], ...]:
    """``(items, XOR)`` of each array, one reduction per array: the exchange checksum's one digest.

    ``arrays`` is the payload and its second array (length bytes, or a
    k-mer's high bytes); ``None`` entries (no second array) are skipped,
    so a read that lost its second array digests one array fewer.  The
    send side is the whole send array's, taken once per drive; the
    received side is each count block's read of a round.
    """
    return tuple((int(a.shape[0]), _xor(a)) for a in arrays if a is not None)


def _xor(values: np.ndarray) -> int:
    """The XOR of ``values`` (0 when empty): the exchange checksum's one reduction."""
    return int(np.bitwise_xor.reduce(values))


def fold_digests(digests) -> tuple[tuple[int, int], ...]:
    """The received ``(items, XOR)`` per array, from every round's count blocks' :func:`exchange_digest`.

    Item counts and XOR are order-free, so the fold over a whole drive
    equals the send array's one digest whatever the rounds and blocks.
    """
    return tuple(
        (sum(n for n, _ in per_array), functools.reduce(operator.xor, (x for _, x in per_array), 0))
        for per_array in zip(*digests)
    )


def verify_exchange(label: str, sent, received, second: str) -> None:
    """End-to-end integrity check over one drive's exchange.

    Production distributed counters checksum their wire traffic (a single
    flipped key silently corrupts the histogram).  The simulator does the
    equivalent: the item count and global XOR of everything sent (the
    send array's :func:`exchange_digest`) must equal those of everything
    the count read (every round's blocks' digests, folded by
    :func:`fold_digests`) — the payload and its second array, named by
    ``second`` (supermer mode's length bytes, or k-mer mode's high bytes),
    since a wrong length byte unpacks the wrong k-mers as surely as a
    flipped key does, and a read without its second array is refused by
    the array count.  Whatever the residency, the received side is what
    the count was handed, so a fault anywhere between the send array and
    the count — the gather, or a spool file changed on disk — is caught.
    ``label`` is the drive's exchange stem.
    """
    if len(received) != len(sent):
        raise AssertionError(
            f"exchange {label!r} lost {second}: sent {len(sent)} arrays, received {len(received)}"
        )
    for what, (n_sent, sent_xor), (n_received, received_xor) in zip(("payload", second), sent, received):
        if n_sent != n_received:
            raise AssertionError(f"exchange {label!r} lost items: sent {n_sent}, received {n_received} ({what})")
        if sent_xor != received_xor:
            raise AssertionError(f"exchange {label!r} corrupted {what} (checksum mismatch)")


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
    bytes_matrix = counts_matrix.astype(np.float64) * ctx.config.wire_bytes * ctx.mult
    timing = ctx.comm_model.alltoallv(bytes_matrix)
    t_a2av = timing.total
    t_net = t_a2av + ctx.comm_model.alltoall_counts()
    overhead, t_stage = ctx.substrate.charge_exchange(bytes_matrix, ctx)
    links = tuple((lt.link, lt.seconds) for lt in timing.links)
    if t_stage > 0.0:
        links = links + (("host-staging", t_stage),)
    return overhead + t_net + t_stage, t_a2av, t_stage, links


def exchange_outcome(counts_matrix: np.ndarray, ctx: StageContext) -> ExchangeOutcome:
    """The tail every exchange shares: the round's time model, as its outcome."""
    seconds, t_a2av, t_stage, links = exchange_time_model(counts_matrix, ctx)
    return ExchangeOutcome(
        counts_matrix=counts_matrix,
        seconds=seconds,
        alltoallv_seconds=t_a2av,
        staging_seconds=t_stage,
        link_seconds=links,
    )


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
        """The ``uint64`` k-mers of received items: unpacked supermers, or k-mers joined from their host form."""
        if config.mode != "supermer":
            return join_kmers(recv, lengths)
        kmers = (
            extract_kmers_from_packed(recv, lengths, config.k) if recv.size else np.empty(0, dtype=np.uint64)
        )
        return canonical_batch(kmers, config.k) if config.canonical and kmers.size else kmers

    def count_block(
        self,
        table: SegmentedHashTable,
        recv: np.ndarray,
        lengths: np.ndarray | None,
        recv_offsets: np.ndarray,
        ctx: StageContext,
        *,
        rank0: int,
    ) -> tuple[np.ndarray, np.ndarray, list[InsertStats]]:
        """One count round of a block of consecutive ranks: the one count body.

        ``recv`` (and its second array, ``lengths``) holds the received
        segments of ranks ``rank0, rank0 + 1, ...`` back to back, bounded
        by ``recv_offsets``; ``table``'s regions are those ranks'
        partitions.  Returns ``(times, n_seen, stats)`` per rank.

        Extraction runs once over the whole block (elementwise per
        supermer, so rank slices equal the per-rank extractions); plugin
        receive-filters run per rank in rank order, preserving their
        stateful semantics; one :meth:`SegmentedHashTable.insert_flat`
        inserts every rank's keys; each rank is charged through the
        substrate's own ``charge_count`` (its one call site).  Regions are
        slot-disjoint, so a rank's probe sequence — hence every InsertStats
        field, model time and telemetry emission — does not depend on which
        ranks share the call: every layout and residency counts through
        this body, over whatever blocks suit it.
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
# merge
# ---------------------------------------------------------------------------


def merge_items(pairs: list, k: int, plugins: tuple[PipelinePlugin, ...] = ()) -> KmerSpectrum:
    """Fold table partitions' ``(values, counts)`` pairs, in any order, into the sorted spectrum.

    Partitioning guarantees disjoint key sets across ranks in both modes,
    but canonical supermer mode can split a canonical k-mer across two
    owners (its two strands hash to different minimizers), so duplicates
    are aggregated rather than assumed absent.  Each plugin may adjust
    each pair first, keeping its length (the Bloom filter restores the
    occurrence that armed it, one per entry); the pairs need not be sorted.

    The merge takes ownership of the ``pairs`` list: it allocates one key
    and one count array from the entry counts, copies each pair into them
    and clears the pair's slot at once, then sorts and folds inside those
    two arrays (:func:`~repro.gpu.hashtable.merge_counts`, ``consume``) —
    so its working set is the pairs not yet copied plus two arrays, not
    the pairs beside their concatenation and the sort's copies.  An item
    may also be a deferred pair: a callable with an ``entries`` count that
    returns the pair when the merge reaches it (a spooled run file, mapped
    one at a time).
    """
    total = sum(pair.entries if callable(pair) else pair[0].shape[0] for pair in pairs)
    keys = np.empty(total, dtype=np.uint64)
    counts = np.empty(total, dtype=np.int64)
    at = 0
    for i, pair in enumerate(pairs):
        pairs[i] = None
        values, weights = pair() if callable(pair) else pair
        del pair
        for plugin in plugins:
            values, weights = plugin.adjust_merge_items(values, weights)
        keys[at : at + values.shape[0]] = values
        counts[at : at + values.shape[0]] = weights
        at += values.shape[0]
        del values, weights
    if at != total:
        raise ValueError("adjust_merge_items must keep each pair's length")
    keys, counts = merge_counts(keys, counts, consume=True)
    return KmerSpectrum(k=k, values=keys, counts=counts)


def merge_partitions(
    tables: list[SegmentedRankView], k: int, plugins: tuple[PipelinePlugin, ...] = ()
) -> KmerSpectrum:
    """The spectrum of the ranks' tables: the one merge rule of a one-shot drive and a streamed state.

    Each block table's occupied slots are taken in one storage pass
    (``items_flat``, unsorted) and handed to :func:`merge_items`, which
    applies each plugin's ``adjust_merge_items`` to a block's pairs and
    sorts all of them once, in :func:`~repro.gpu.hashtable.merge_counts` —
    one sort over the result keys on every composition, where per-rank
    ``items()`` would sort each rank first.
    """
    return merge_items([table.items_flat() for _, _, table in view_blocks(tables)], k, plugins)


# ---------------------------------------------------------------------------
# substrates (timing wrappers)
# ---------------------------------------------------------------------------


# A rank's phase is the stage *body* plus the substrate's *charge* for the
# work the body reports.  Every parse runs through ``parse_block``, which
# loops ``charge_parse`` over its shards, and every count through
# ``TableCount.count_block``, which loops ``charge_count`` — so a rank's
# model seconds and kernel telemetry come from one function per phase.


class GpuSubstrate:
    """Charges each phase through the virtual GPU's kernel cost model."""

    name = "gpu"
    device_memory = True  # under auto_rounds, a round must fit the device's HBM (core/stages/plan.py)

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        threads: int,
        ctx: StageContext,
    ) -> float:
        """One parse-kernel launch of ``threads`` threads over a shard of ``code_bytes`` encoded bases."""
        traffic = parse.gpu_traffic(n_kmers, n_supermers, code_bytes, ctx)
        return VirtualGPU(ctx.opts.machine.resolved_device).charge(parse.kernel_name, threads, traffic)

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: StageContext) -> float:
        """One count-kernel launch: a thread per received item, ``inserted`` keys probed."""
        model = ctx.opts.machine.gpu_model
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
        return VirtualGPU(ctx.opts.machine.resolved_device).charge("count_kmers", recv_items, traffic)

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
            t_stage = staging_time(
                ctx.opts.machine.resolved_device, float(out_bytes[busiest]), float(in_bytes[busiest])
            )
        return ctx.opts.machine.gpu_model.exchange_overhead_s, t_stage


class CpuSubstrate:
    """Charges each phase through the Power9-calibrated CPU rates."""

    name = "cpu"
    device_memory = False  # host buffers: no device memory to fit

    def charge_parse(
        self,
        parse: ParseStage,
        n_kmers: int,
        n_supermers: int,
        code_bytes: int,
        threads: int,
        ctx: StageContext,
    ) -> float:
        rates = ctx.opts.machine.cpu_rates
        return rates.phase_overhead + rates.parse_time(n_kmers * ctx.mult, supermer_mode=ctx.supermer_mode)

    def charge_count(self, inserted: int, recv_items: int, ins: InsertStats, ctx: StageContext) -> float:
        rates = ctx.opts.machine.cpu_rates
        return rates.phase_overhead + rates.count_time(inserted * ctx.mult, supermer_mode=ctx.supermer_mode)

    def charge_exchange(self, bytes_matrix: np.ndarray, ctx: StageContext) -> tuple[float, float]:
        return ctx.opts.machine.cpu_rates.phase_overhead, 0.0  # host buffers: nothing to stage
