"""The round driver: memory-bounded multi-round execution of a composition.

This is the single owner of the parse → exchange → count → merge loop —
one private driver (:meth:`RoundScheduler._drive`) that every execution
surface and every strategy runs:

* :func:`repro.core.engine.run_pipeline` builds a composition and calls
  :meth:`RoundScheduler.run` (one-shot run, full :class:`CountResult`);
* :class:`repro.core.incremental.DistributedCounter` holds a
  :class:`PipelineState` and calls :meth:`RoundScheduler.run_batch` per
  read batch (streaming, checkpointable) — the same drive with one round
  and persistent tables;
* the SPMD rank programs (:mod:`repro.core.stages.spmd`) reuse the same
  stage objects inside per-rank threads.

Execution is bulk-synchronous: every rank's phase runs to completion (as
real NumPy work), per-rank model times are derived from the work actually
performed, and the phase's bulk time is the max over ranks.  When the
modeled per-round working set exceeds device memory (``auto_rounds``), or
the config asks for ``n_rounds > 1``, each destination segment is split
evenly across rounds (Section III-A) and the exchange + count phases repeat.

There is one data layout (:class:`Layout`): blocks of whole shards parse
into one send array, a round is one gather of it, and blocks of ranks
count into block-local segmented tables, all on the rank pool.  The four
strategies (``staged``, ``fused``, ``spill``, ``fused-spill``) are the
2×2 of two switches on it: whether the exchange takes per-source views
of the send array through the exchange stage or — ``fused`` — gathers
straight out of it into one receive array, and the *residency* of the
receive side (:class:`~repro.core.stages.spill.Resident` |
:class:`~repro.core.stages.spill.Spooled`).  :class:`RoundAccounting` is
the one place their outcomes are summed.

Checkpoint/resume is a scheduler concern: :class:`PipelineState` carries
the persistent per-rank tables and accounting across batches, and its
checkpoint *is* those tables — every rank's slots as they lie, plus the
accounting — so a resumed run continues on the same slots and equals an
uninterrupted one on every observable (format and guarantees on
:class:`PipelineState`).
"""

from __future__ import annotations

import os
import zipfile
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from ...dna.reads import ReadSet
from ...gpu.hashtable import EMPTY_KEY, InsertStats, SegmentedRankView, dump_slots
from ...gpu.segmented import SegmentedHashTable, rank_blocks, table_blocks
from ...mpi.costmodel import CommCostModel
from ...mpi.stats import CollectiveRecord, TrafficStats
from ...mpi.topology import ClusterSpec
from ...telemetry import MetricRegistry, event, session
from ...telemetry.spans import SpanRecorder
from ..config import PipelineConfig
from ..memory import ScratchArena
from ..parallel import RankPool, get_pool
from ..results import CountResult, PhaseTiming
from ..tracing import recording_region
from .buffers import ExchangeOutcome, ParseSummary, SendArray, round_split
from .context import EngineOptions, StageContext
from .protocols import Substrate
from .registry import StageComposition
from .spill import Resident, Spooled, block_table, supports_spill
from .standard import AlltoallvExchange, parse_block

__all__ = ["RoundScheduler", "PipelineState", "RoundAccounting", "Layout", "Strategy", "supports_fusion"]

#: The one checkpoint format (see :class:`PipelineState`); files of any
#: other version are rejected by :meth:`PipelineState.load`.
_CHECKPOINT_VERSION = 3

#: Field order of the serialized :class:`InsertStats` vector.
_INSERT_STAT_FIELDS = (
    "n_instances",
    "n_distinct",
    "total_probes",
    "max_probe",
    "cas_conflicts",
    "rounds",
    "resizes",
)

#: The members of a checkpoint besides ``version``: a fixed set, whatever
#: the rank count and however many collectives the traffic log holds.
_CHECKPOINT_MEMBERS = (
    "k n_ranks n_batches exchanged_items received timing insert_stats "
    "capacities occupancy keys counts "
    "traffic_meta traffic_bytes traffic_has_items traffic_items"
).split()


def _unusable(path, why: str) -> ValueError:
    return ValueError(f"{path}: not a usable checkpoint: {why}")


def _read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Every member of the checkpoint at ``path``, read whole and CRC-checked.

    Whatever keeps the file from being read back — truncated, empty,
    corrupted, a member missing, another format version — is one
    ``ValueError`` that names the file.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                version = int(data["version"][0])
                if version == _CHECKPOINT_VERSION:
                    return {name: data[name] for name in _CHECKPOINT_MEMBERS}
        except (zipfile.BadZipFile, EOFError, KeyError, IndexError, OSError, ValueError) as exc:
            raise _unusable(path, f"{type(exc).__name__}: {exc}") from exc
    raise _unusable(
        path,
        f"it is format version {version}, which stores sorted items, not the tables' slot layout "
        f"a bit-identical resume continues from (version {_CHECKPOINT_VERSION}); recount the inputs",
    )


@dataclass
class PipelineState:
    """Persistent cross-batch state: table partitions + accounting.

    This is what checkpoint/resume serializes; a scheduler folds each batch
    into it.  ``tables`` holds one view per rank of block-local tables,
    born by the first batch that counts keys into the state (or by
    :meth:`load`); every later batch counts through those blocks, whichever
    strategy runs it.  The checkpoint (format version 3, an uncompressed ``.npz``
    whose zip CRC-32s detect corruption) holds the tables *as they are*:
    ``capacities`` (one per rank), and for the ranks' regions laid end to
    end the ``occupancy`` bitmap and the occupied ``keys``/``counts`` in
    slot order (:func:`~repro.gpu.hashtable.dump_slots`).  Beside them:
    ``k``, ``n_ranks``, ``n_batches``, ``exchanged_items``, ``received``,
    ``timing``, the cumulative ``insert_stats``, and the traffic log as
    four stacked arrays (``traffic_meta`` op/label pairs, ``traffic_bytes``
    and ``traffic_items`` of shape ``(n, P, P)``, ``traffic_has_items``).
    Saving sorts nothing and loading probes nothing, so a loaded state has
    the saved one's capacities and slots element for element, and a run
    resumed from it equals the uninterrupted run on every observable —
    spectrum, timing, insert statistics, capacities, traffic records —
    wherever it was cut and whichever strategy saved or resumes it.
    """

    tables: list[SegmentedRankView]
    timing: PhaseTiming
    traffic: TrafficStats
    received_kmers: np.ndarray
    exchanged_items: int
    n_batches: int
    insert_stats: InsertStats

    @classmethod
    def fresh(cls, n_ranks: int, table_seed: int) -> "PipelineState":
        """A state with no keys: empty 128-slot regions, born again by the first batch in its own blocks."""
        return cls(
            tables=block_table([64] * n_ranks, table_seed).views(),
            timing=PhaseTiming(0.0, 0.0, 0.0),
            traffic=TrafficStats(),
            received_kmers=np.zeros(n_ranks, dtype=np.int64),
            exchanged_items=0,
            n_batches=0,
            insert_stats=InsertStats.zero(),
        )

    def save(self, path: str | Path, *, k: int) -> Path:
        """Persist the state (tables + accounting) as an ``.npz`` at exactly ``path``.

        Written to a sibling temp file, synced to disk and renamed over
        ``path``, then the rename is synced with the directory: a save that
        dies midway, or a crash after it returns, leaves one complete
        checkpoint at ``path``.
        """
        path = Path(path)
        p = len(self.tables)
        records = self.traffic.records
        bitmaps, keys, counts = zip(*(dump_slots(t.keys, t.counts) for t in self.tables))
        no_items = np.zeros((p, p), dtype=np.int64)
        payload: dict[str, np.ndarray] = {
            "version": np.array([_CHECKPOINT_VERSION]),
            "k": np.array([k]),
            "n_ranks": np.array([p]),
            "n_batches": np.array([self.n_batches]),
            "exchanged_items": np.array([self.exchanged_items]),
            "received": self.received_kmers,
            "timing": np.array([self.timing.parse, self.timing.exchange, self.timing.count]),
            "insert_stats": np.array(
                [getattr(self.insert_stats, f) for f in _INSERT_STAT_FIELDS], dtype=np.int64
            ),
            "capacities": np.array([t.capacity for t in self.tables], dtype=np.int64),
            "occupancy": np.concatenate(bitmaps),
            "keys": np.concatenate(keys),
            "counts": np.concatenate(counts),
            "traffic_meta": np.array([(rec.op, rec.label) for rec in records], dtype=str).reshape(-1, 2),
            "traffic_bytes": np.array([rec.bytes_matrix for rec in records], dtype=np.int64).reshape(-1, p, p),
            "traffic_has_items": np.array([rec.items_matrix is not None for rec in records], dtype=bool),
            "traffic_items": np.array(
                [no_items if rec.items_matrix is None else rec.items_matrix for rec in records],
                dtype=np.int64,
            ).reshape(-1, p, p),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            # A file object, not a name: numpy appends ".npz" to bare names.
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return path

    def load(self, path: str | Path, *, k: int, table_seed: int, table_dir: Path | None = None) -> None:
        """Restore state saved by :meth:`save` into this object, or leave it untouched.

        The file is read and validated whole before anything is assigned.
        The state must match the checkpoint's cluster size and k; anything
        else is a configuration error and is rejected.  The slots are
        restored straight into block tables (``table_blocks`` of the ranks'
        entries, backed by ``table_dir`` when given), one
        :meth:`~repro.gpu.segmented.SegmentedHashTable.from_slots` per block.
        """
        p = len(self.tables)
        members = _read_checkpoint(path)

        def member(name: str, shape: tuple[int, ...], dtype=np.int64) -> np.ndarray:
            a = members[name]
            if a.shape != shape or (a.dtype.kind != "U" if dtype is str else a.dtype != dtype):
                want = np.dtype(dtype).name
                raise _unusable(path, f"member {name!r} is {a.dtype.name}{a.shape}, not {want}{shape}")
            return a

        scalars = {
            name: int(member(name, (1,))[0]) for name in ("k", "n_ranks", "n_batches", "exchanged_items")
        }
        if scalars["k"] != k:
            raise ValueError(f"{path}: checkpoint k={scalars['k']} != config k={k}")
        if scalars["n_ranks"] != p:
            raise ValueError(f"{path}: checkpoint has {scalars['n_ranks']} ranks, cluster has {p}")
        capacities = member("capacities", (p,))
        if not bool(((capacities >= 64) & (capacities & (capacities - 1) == 0)).all()):
            raise _unusable(path, "a rank's capacity is not a power of two >= 64")
        bounds = np.concatenate([[0], np.cumsum(capacities)])
        occupancy = member("occupancy", (int(bounds[-1]) // 8,), np.uint8)
        filled = np.concatenate(
            [[0], np.cumsum(np.add.reduceat(np.unpackbits(occupancy), bounds[:-1], dtype=np.int64))]
        )
        keys = member("keys", (int(filled[-1]),), np.uint64)
        counts = member("counts", keys.shape)
        if bool((keys == EMPTY_KEY).any()) or bool((counts < 1).any()):
            raise _unusable(path, "an occupied slot holds the EMPTY sentinel or a count below 1")
        received = member("received", (p,))
        timing = member("timing", (3,), np.float64)
        insert_stats = member("insert_stats", (len(_INSERT_STAT_FIELDS),))
        n = members["traffic_meta"].shape[0]
        meta = member("traffic_meta", (n, 2), str)
        has_items = member("traffic_has_items", (n,), np.bool_)
        traffic_bytes = member("traffic_bytes", (n, p, p))
        traffic_items = member("traffic_items", (n, p, p))

        tables = []
        for r0, r1 in table_blocks(np.diff(filled)):
            table = SegmentedHashTable.from_slots(
                capacities[r0:r1],
                occupancy[bounds[r0] // 8 : bounds[r1] // 8],
                keys[filled[r0] : filled[r1]],
                counts[filled[r0] : filled[r1]],
                seed=table_seed,
                table_dir=table_dir,
            )
            tables.extend(table.views())
        self.tables = tables
        self.received_kmers = received
        self.n_batches = scalars["n_batches"]
        self.exchanged_items = scalars["exchanged_items"]
        self.timing = PhaseTiming(parse=float(timing[0]), exchange=float(timing[1]), count=float(timing[2]))
        # Any accounting accumulated in this object before the load belongs
        # to a different run: it is replaced, never merged.
        self.insert_stats = InsertStats(
            **{field: int(value) for field, value in zip(_INSERT_STAT_FIELDS, insert_stats)}
        )
        self.traffic = TrafficStats(
            [
                CollectiveRecord(
                    op=str(op),
                    label=str(label),
                    bytes_matrix=traffic_bytes[i],
                    items_matrix=traffic_items[i] if has_items[i] else None,
                )
                for i, (op, label) in enumerate(meta)
            ]
        )


class RoundAccounting:
    """The one accumulator of a drive's model accounting.

    Every fused × residency cell reports its exchange outcomes and count
    outcomes here, and nothing else sums modeled seconds, link seconds,
    counts matrices, per-rank count seconds, received k-mers or
    :class:`InsertStats` — so the two surfaces and four strategies cannot
    drift apart.  It is also the only emitter of the scheduler's per-round
    and end-of-run model metrics (``reg`` is ``None`` on the batch surface,
    which never emitted them).

    Accumulation order is part of the bit-identity contract: each rank's
    count seconds are added in round order (float addition does not
    commute with regrouping), while the integer totals and
    :meth:`InsertStats.combined` are associative, so rank-major streams
    and round-major loops reduce to the same values.
    """

    def __init__(self, p: int, backend: str, reg: MetricRegistry | None) -> None:
        self.backend = backend
        self.reg = reg
        self.counts_matrix = np.zeros((p, p), dtype=np.int64)
        self.t_exchange = 0.0
        self.t_alltoallv = 0.0
        self.staging = 0.0
        self.link_totals: dict[str, float] = {}  # innermost link first, as the cost model emits
        self.per_rank_count = np.zeros(p, dtype=np.float64)
        self.received_kmers = np.zeros(p, dtype=np.int64)
        self.insert = InsertStats.zero()

    def add_exchange(self, rnd: int, outcome: ExchangeOutcome) -> None:
        """Fold one exchange round's outcome; emit its per-round metrics."""
        items = int(outcome.counts_matrix.sum())
        self.counts_matrix += outcome.counts_matrix
        self.t_exchange += outcome.seconds
        self.t_alltoallv += outcome.alltoallv_seconds
        self.staging += outcome.staging_seconds
        for name, seconds in outcome.link_seconds:
            self.link_totals[name] = self.link_totals.get(name, 0.0) + seconds
        reg, backend = self.reg, self.backend
        if reg is None:
            return
        reg.counter("exchange_rounds_total", "Exchange/count rounds executed", engine=backend).inc()
        for name, desc, value in (
            (
                "exchange_model_seconds_total",
                "Modeled exchange seconds (overhead + network + staging)",
                outcome.seconds,
            ),
            (
                "alltoallv_model_seconds_total",
                "Modeled MPI_Alltoallv routine seconds",
                outcome.alltoallv_seconds,
            ),
            (
                "staging_model_seconds_total",
                "Modeled host<->device staging seconds",
                outcome.staging_seconds,
            ),
            ("exchange_items_round_total", "Items exchanged per round", items),
        ):
            reg.counter(name, desc, engine=backend, round=rnd).inc(value)

    def add_count(self, r0: int, times, n_seen, stats) -> None:
        """Fold the count outcomes of consecutive ranks ``r0, r0+1, ...``."""
        r1 = r0 + len(stats)
        self.per_rank_count[r0:r1] += times
        self.received_kmers[r0:r1] += n_seen
        for ins in stats:
            self.insert = self.insert.combined(ins)

    def timing(self, t_parse: float) -> PhaseTiming:
        """Bulk-synchronous phase times: each phase costs its slowest rank."""
        t_count = float(self.per_rank_count.max()) if self.per_rank_count.size else 0.0
        return PhaseTiming(parse=t_parse, exchange=self.t_exchange, count=t_count)

    def emit_run(
        self,
        result: CountResult,
        fill: tuple[list[int], list[float]],
        summary: ParseSummary,
        recorder: SpanRecorder | None,
    ) -> None:
        """End-of-run metrics of a one-shot run.

        Everything here is computed from the deterministic result payload
        (so every strategy and substrate records identical values), except
        the ``wall=True`` families, which come from host wall-clock spans.
        """
        reg, backend = self.reg, self.backend
        if reg is None:
            return
        # Recorded here (not in the hash table) because only the engine knows
        # the rank index; plain Gauge.set is safe from this ordered loop.
        for r, (entries, load) in enumerate(zip(*fill)):
            reg.gauge("hashtable_entries", "Distinct keys per rank partition", rank=r).set(entries)
            reg.gauge("hashtable_load_factor", "Final load factor per rank", rank=r).set(load)
        reg.counter("kmers_parsed_total", "k-mer instances parsed", engine=backend).inc(
            int(summary.n_kmers.sum())
        )
        if summary.n_supermers:
            reg.counter("supermers_total", "Supermers built", engine=backend).inc(summary.n_supermers)
            reg.counter("supermer_bases_total", "Bases covered by supermers", engine=backend).inc(
                summary.supermer_bases
            )
        t = result.timing
        for phase, secs in (("parse", t.parse), ("exchange", t.exchange), ("count", t.count)):
            reg.counter(
                "phase_model_seconds_total",
                "Bulk-synchronous phase time (max over ranks)",
                engine=backend,
                phase=phase,
            ).inc(secs)
        for r in range(result.cluster.n_ranks):
            for phase, per_rank in (("parse", result.per_rank_parse), ("count", result.per_rank_count)):
                reg.gauge(
                    "rank_phase_model_seconds",
                    "Per-rank modeled phase seconds",
                    engine=backend,
                    phase=phase,
                    rank=r,
                ).set(float(per_rank[r]))
            reg.gauge("rank_received_kmers", "k-mer instances counted per rank", rank=r).set(
                int(result.received_kmers[r])
            )
        loads = result.load_stats()
        reg.gauge("load_imbalance", "max/mean received k-mers (Table III)", engine=backend).set(
            loads.imbalance
        )
        reg.counter("exchange_items_total", "Items routed through the exchange", engine=backend).inc(
            result.exchanged_items
        )
        reg.counter("exchange_bytes_total", "Wire bytes at measured scale", engine=backend).inc(
            result.exchanged_bytes
        )
        if recorder is not None and len(recorder):
            for name in recorder.phases():
                reg.counter(
                    "wall_phase_seconds_total", "Host wall-clock rank-seconds per phase", wall=True, phase=name
                ).inc(recorder.busy_seconds(name))
            reg.gauge("wall_busy_seconds", "Total host rank-seconds", wall=True).set(recorder.busy_seconds())
            reg.gauge("wall_elapsed_seconds", "Host wall window of the run", wall=True).set(
                recorder.elapsed_seconds()
            )
            reg.gauge("wall_overlap_factor", "Achieved rank concurrency", wall=True).set(
                recorder.overlap_factor()
            )


#: Parse blocks are whole shards (consecutive ranks) whose codes total
#: about this many bases.  Extraction kernels (window packing, minimizer
#: scans, supermer builds) are multi-pass: they materialize several
#: full-array intermediates per element, and the block then sorts and
#: gathers its items, so a cache-sized block keeps every pass's working set
#: in L2.  Block boundaries on shard boundaries keep the outputs
#: bit-identical (no window or supermer spans a shard).  32 Ki bases: of
#: 2^14..2^17 swept on the benchmark host, it parsed the six fig6 grid
#: cells fastest (see docs/PERFORMANCE.md, "One layout").
PARSE_BLOCK_BASES = 1 << 15


def supports_fusion(comp: StageComposition) -> bool:
    """Whether a fused exchange can replace the composition's exchange stage.

    A fused exchange gathers straight out of the one send array; a custom
    exchange stage is an unknown class that must see its per-source
    buffers.  Every other stage, and every plugin, is indifferent.
    """
    return type(comp.exchange) is AlltoallvExchange


class Layout:
    """The one data layout: blocks of whole shards parse into one send array.

    Each block runs the one parse body
    (:func:`~repro.core.stages.standard.parse_block`) on the rank pool and
    fills its slice of one :class:`~repro.core.stages.buffers.SendArray`.
    The exchange takes per-source views of it — or, ``fused``, the array
    itself, gathered straight into one receive array (:meth:`exchange_form`;
    the resident and the spooled exchange both take either), and the work
    leaves are named ``fused:*``.  The tables are the residency's.
    """

    def __init__(
        self, sched: "RoundScheduler", arena: ScratchArena, *, fused: bool, in_process_only: bool
    ) -> None:
        self.sched = sched
        self.arena = arena  # parse blocks' code buffers and the spool's buffers
        self.fused = fused
        self.in_process_only = in_process_only
        self.prefix = "fused:" if fused else ""  # work-leaf names

    def pool(self) -> RankPool:
        """The substrate the parse, count and stream blocks run on.

        Stateful count/merge plugins (e.g. the bloom prefilter, whose
        filter state mutates inside the count closures and is read again
        at merge time) need their side effects in the driving process, so
        a process substrate becomes an equally wide thread pool (announced
        by ``resolve_strategy``).  Results are bit-identical either way.
        """
        pool = get_pool(self.sched.opts.parallel)
        if self.in_process_only and not pool.in_process:
            pool = get_pool(f"thread:{pool.workers}")
        return pool

    def parse(self, shards: list[ReadSet], sctx: StageContext) -> tuple[SendArray, ParseSummary]:
        """Every rank's send buffer in one :class:`SendArray`, and the per-rank parse figures.

        One pool task and one ``parse`` work leaf (``ranks=[r0, r1]``) per
        block; a block's closure reads only its shards and returns fresh
        arrays, so any substrate equals the sequential loop.  Block outputs
        are copied into their slices of the send array a wave of blocks at
        a time (a few per worker; all at once on an out-of-process pool,
        whose results arrive as copies anyway), so the parse holds one
        wave's outputs beside the array and the next wave reuses their
        memory.  The array is sized from the items per base parsed so far,
        with a quarter to spare (an untouched tail is never resident), and
        regrown — at least doubled — if a block does not fit.
        """
        comp, pool, recorder = self.sched.comp, sctx.pool, sctx.recorder
        leaf = self.prefix + "parse"
        sizes = np.array([shard.codes.shape[0] for shard in shards], dtype=np.int64)

        def _parse(block: tuple[int, int]):
            r0, r1 = block
            t0 = perf_counter()
            out = parse_block(shards[r0:r1], comp.parse, comp.partition, comp.substrate, sctx, self.arena)
            if recorder is not None:
                recorder.record(leaf, r0, t0, perf_counter(), ranks=[r0, r1])
            return out

        blocks = rank_blocks(sizes, PARSE_BLOCK_BASES)
        wave = 4 * pool.workers if pool.in_process else len(blocks)
        bases_through = np.cumsum(sizes)
        arrays: list[np.ndarray] = []  # the send data, then (supermer mode) its lengths
        n, parts = 0, []
        for w0 in range(0, len(blocks), wave):
            outs = pool.map(_parse, blocks[w0 : w0 + wave], recorder=recorder)
            for (_, r1), (*pieces, part) in zip(blocks[w0 : w0 + wave], outs):
                pieces = [piece for piece in pieces if piece is not None]
                end = n + pieces[0].shape[0]
                if not arrays or end > arrays[0].shape[0]:
                    rate = end / max(int(bases_through[r1 - 1]), 1)
                    cap = max(2 * n, int(rate * int(bases_through[-1]) * 1.25) + 1024)
                    held, arrays = arrays, [np.empty(cap, dtype=piece.dtype) for piece in pieces]
                    for array, prev in zip(arrays, held):
                        array[:n] = prev[:n]
                for array, piece in zip(arrays, pieces):
                    array[n:end] = piece
                n = end
                parts.append(part)
            del outs
        summary = ParseSummary(
            times=np.concatenate([part.times for part in parts]),
            n_kmers=np.concatenate([part.n_kmers for part in parts]),
            counts_matrix=np.concatenate([part.counts_matrix for part in parts]),
            n_supermers=sum(part.n_supermers for part in parts),
            supermer_bases=sum(part.supermer_bases for part in parts),
        )
        send = SendArray(
            data=arrays[0][:n],
            lengths=arrays[1][:n] if len(arrays) > 1 else None,
            counts=summary.counts_matrix,
        )
        return send, summary

    def exchange_form(self, send: SendArray):
        """The exchange's ``(data, lengths, counts)``: per-source views, or — fused — the send array itself."""
        if self.fused:
            return send.data, send.lengths, send.counts
        cuts = np.cumsum(send.counts.sum(axis=1))[:-1]  # each source's end, but the last
        lengths = np.split(send.lengths, cuts) if send.lengths is not None else None
        return np.split(send.data, cuts), lengths, list(send.counts)


#: Strategy name by (fused exchange?, spooled residency?) — the run span's
#: ``strategy`` meta and the only names the 2×2 has.
_STRATEGY_NAMES = {
    (False, False): "staged",
    (True, False): "fused",
    (False, True): "spill",
    (True, True): "fused-spill",
}


@dataclass(frozen=True)
class Strategy:
    """One cell of the fused × residency 2×2, as resolved from the options."""

    name: str  # "staged" | "fused" | "spill" | "fused-spill"
    layout: Layout  # persists across batches (it owns the arena)
    residency: type[Resident]  # instantiated per drive (it owns the drive's spool)
    opts: EngineOptions  # the options this was resolved from


class RoundScheduler:
    """Drives one stage composition through rounds on a rank pool."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: PipelineConfig,
        composition: StageComposition,
        opts: EngineOptions,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.comp = composition
        self.opts = opts
        self.comm_model = CommCostModel(cluster)
        self._prepared = False
        self._strategy: Strategy | None = None

    # -- shared helpers ------------------------------------------------------

    def _shard(self, reads: ReadSet) -> list[ReadSet]:
        p = self.cluster.n_ranks
        if self.opts.shard_mode == "bytes":
            return reads.shard_bytes(p, overlap=self.config.k - 1)
        return reads.shard(p)

    def _prepare_plugins(self, reads: ReadSet) -> None:
        """One-time plugin pre-pass (first batch for streamed inputs)."""
        if self._prepared:
            return
        self._prepared = True
        for plugin in self.comp.plugins:
            plugin.prepare(reads, self.config, self.cluster, self.opts)

    def resolve_strategy(self) -> Strategy:
        """The fused × residency cell ``self.opts`` selects for this composition.

        Resolved once per options object — assigning ``scheduler.opts``
        re-resolves on the next drive, nothing else needs resetting — so
        each fallback below is announced once.  Every rung is an event,
        never an error, because results are identical on every path:

        1. ``spill_dir`` over a custom exchange/merge stage counts in
           memory (``engine.spill.fallback``): the spooled residency
           substitutes both, so they must be the standard classes.
        2. ``fused`` over a custom exchange stage exchanges through it
           (``engine.fused.fallback``): a fused exchange replaces the
           standard one (:func:`supports_fusion`).  Plugins are fine on
           both rungs — they act through the standard seams.
        3. A process pool with stateful plugins becomes a thread pool
           (``engine.process.fallback``, see :meth:`Layout.pool`).

        ``table_dir`` is no rung: it backs the tables of every cell.
        """
        opts, comp = self.opts, self.comp
        if self._strategy is not None and self._strategy.opts is opts:
            return self._strategy

        def fallback(knob: str, reason: str) -> None:
            event(f"engine.{knob}.fallback", subsystem="engine", backend=comp.backend, reason=reason)

        spooled = opts.spill_dir is not None
        if spooled and not supports_spill(comp):
            fallback("spill", "composition has custom exchange/merge stages; counting in memory")
            spooled = False
        fused = bool(opts.fused)
        if fused and not supports_fusion(comp):
            fallback("fused", "composition has a custom exchange stage; exchanging through it")
            fused = False
        stateful = bool(getattr(comp.count, "plugins", ()) or getattr(comp.merge, "plugins", ()))
        if stateful and not get_pool(opts.parallel).in_process:
            fallback("process", "composition has stateful plugins; using the thread substrate")
        arena = opts.arena if opts.arena is not None else ScratchArena()
        self._strategy = Strategy(
            name=_STRATEGY_NAMES[fused, spooled],
            layout=Layout(self, arena, fused=fused, in_process_only=stateful),
            residency=Spooled if spooled else Resident,
            opts=opts,
        )
        return self._strategy

    # -- the two surfaces ----------------------------------------------------

    def run(self, reads: ReadSet) -> CountResult:
        """Run the composition over ``reads`` and return its full result.

        When ``opts.telemetry`` is set, the registry is installed as the
        active telemetry session for the duration of the run — every layer
        underneath (collectives, hash tables, kernels, worker pools) feeds
        it — and the driver adds its own phase/rank/round metrics plus
        wall-clock metrics at the end.  Model metrics are bit-identical
        across strategies and substrates; only families registered as wall
        metrics may differ.
        """
        reg = self.opts.telemetry
        recorder = self.opts.trace
        if reg is not None and recorder is None:
            recorder = SpanRecorder()  # wall metrics need spans even if the caller kept none
        event(
            "engine.run.start",
            subsystem="engine",
            backend=self.comp.backend,
            mode=self.config.mode,
            k=self.config.k,
            ranks=self.cluster.n_ranks,
            reads=reads.n_reads,
        )
        ctx = session(reg) if reg is not None else nullcontext()
        with ctx, recording_region(
            recorder,
            "run",
            cat="run",
            strategy=self.resolve_strategy().name,
            backend=self.comp.backend,
            mode=self.config.mode,
            ranks=self.cluster.n_ranks,
        ):
            result = self._drive(reads, None, recorder, reg)
        event(
            "engine.run.done",
            subsystem="engine",
            backend=self.comp.backend,
            total_model_s=round(result.timing.total, 6),
            exchanged_items=result.exchanged_items,
            distinct=result.spectrum.n_distinct,
            rounds=result.n_rounds_used,
        )
        return result

    def run_batch(self, reads: ReadSet, state: PipelineState) -> PhaseTiming:
        """Fold one batch of reads into ``state``; returns the batch timing.

        The same drive as :meth:`run` with one round (streamed batches are
        already small), no checksum verification pass (matching the
        original incremental counter exactly), and ``state``'s persistent
        tables and accounting instead of fresh ones.  When ``opts.trace``
        is set, the batch records a ``batch{n}`` region with the same
        stage/work structure as the one-shot run.
        """
        recorder = self.opts.trace
        with recording_region(
            recorder, f"batch{state.n_batches}", cat="batch", batch=state.n_batches
        ):
            return self._drive(reads, state, recorder, None)

    # -- the round driver ----------------------------------------------------

    def _drive(
        self,
        reads: ReadSet,
        state: PipelineState | None,
        recorder: SpanRecorder | None,
        reg: MetricRegistry | None,
    ) -> CountResult | PhaseTiming:
        """The one superstep skeleton every strategy and surface runs.

        prepare plugins → shard → parse → round count → per round {gather,
        exchange, span note, accounting, count} → and, for the one-shot
        surface (``state is None``), merge + conservation check + final
        gauges + the :class:`CountResult`.  What differs between
        strategies is behind two objects (:meth:`resolve_strategy`): the
        *layout* (one class) hands the exchange its send form, fused or
        not, and the *residency* hides where receive buffers live.  A
        resident exchange is counted inside its round; a spooled one defers
        the count until every round is on disk and the send buffers are
        dropped (Gerbil's two phases), which is the only shape difference
        the skeleton knows about.
        """
        comp, config, opts = self.comp, self.config, self.opts
        p = self.cluster.n_ranks
        one_shot = state is None
        strategy = self.resolve_strategy()
        layout = strategy.layout
        stats = TrafficStats() if one_shot else state.traffic
        sctx = StageContext(
            config=config,
            cluster=self.cluster,
            opts=opts,
            substrate=comp.substrate,
            pool=layout.pool(),
            comm_model=self.comm_model,
            stats=stats,
            recorder=recorder,
            registry=reg,
            verify=None if one_shot else False,  # streamed batches are never checksummed
        )
        acct = RoundAccounting(p, comp.backend, reg)
        wire = sctx.wire_bytes
        if not one_shot and reads.offsets.size:
            # Batches are single-round, so the budget cannot split work —
            # but a budget below one received item is invalid everywhere
            # and the streamed surface must report the same floor the
            # one-shot run does.
            _check_host_budget_floor(wire, opts)

        # Plugins prepare before sharding on both surfaces: a plugin whose
        # `prepare` influences partitioning must see the same state on the
        # streamed path as on the one-shot path.
        self._prepare_plugins(reads)
        # ---- input partitioning (the paper's parallel I/O; Section IV-D) ----
        shards = self._shard(reads)

        # ---- phase 1: parse (& build supermers) ----
        with recording_region(recorder, "parse", cat="stage"):
            send, summary = layout.parse(shards, sctx)
        del shards
        t_parse = float(summary.times.max()) if p else 0.0
        recv_items = summary.counts_matrix.sum(axis=0)
        n_rounds = 1
        if one_shot:
            n_rounds = max(
                config.n_rounds,
                _rounds_for_recv_items(recv_items.astype(np.float64), wire, opts, comp.substrate),
            )
        hints = [max(64, int(nk) // max(p, 1) + 16) for nk in summary.n_kmers]

        # One cleanup scope for everything a drive opens: the residency's
        # spool directory and a one-shot drive's table slabs are reclaimed
        # on any exit, success or raise.
        with ExitStack() as cleanup:
            residency = strategy.residency(layout, cleanup)
            tables = None if residency.spooled else residency.tables(state, hints, recv_items)

            # ---- phases 2+3: exchange and count, possibly in multiple rounds ----
            for rnd in range(n_rounds):
                suffix = f"-round{rnd}" if n_rounds > 1 else ""
                if one_shot:
                    label, meta = f"{config.mode}-exchange{suffix}", {"round": rnd}
                    round_region = recording_region(recorder, f"round{rnd}", cat="round", round=rnd)
                else:
                    label, meta = f"{config.mode}-batch{state.n_batches}", {}
                    round_region = nullcontext()
                with round_region:
                    round_send = round_split(send, rnd, n_rounds)
                    n_traffic_before = len(stats.records)
                    with recording_region(recorder, "exchange", cat="stage", **meta) as ereg:
                        t0 = perf_counter()
                        outcome = residency.exchange(round_send, label, sctx)
                        if recorder is not None:
                            recorder.record(residency.exchange_leaf + suffix, 0, t0, perf_counter())
                        if ereg is not None:
                            # Causal link: the traffic records this collective appended.
                            ereg.note(
                                label=label,
                                traffic_records=[n_traffic_before, len(stats.records)],
                                items=int(outcome.counts_matrix.sum()),
                                model_seconds=outcome.seconds,
                                link_seconds=dict(outcome.link_seconds),
                            )
                    acct.add_exchange(rnd, outcome)
                    if not residency.spooled:
                        with recording_region(recorder, "count", cat="stage", **meta):
                            residency.count_round(tables, outcome, suffix, sctx, acct)
                    # Round gathers and receive buffers die with their round,
                    # not when the next round's are already built beside them.
                    del round_send, outcome

            # Every round is exchanged: drop the send buffers *before* a
            # spooled count starts, so its peak residency is one rank
            # block's partitions + table, not the whole parse output.
            del send
            if residency.spooled:
                with recording_region(recorder, "count", cat="stage"):
                    tables = residency.count(state, hints, sctx, acct)

            if one_shot:
                # ---- merge the partitioned global table into one spectrum ----
                with recording_region(recorder, "merge", cat="stage"):
                    t0 = perf_counter()
                    leaf, spectrum = residency.merge(tables)
                    if recorder is not None:
                        recorder.record(leaf, 0, t0, perf_counter())
                n_parsed = int(summary.n_kmers.sum())
                if comp.conserves_kmers and spectrum.n_total != n_parsed:
                    raise AssertionError(
                        f"pipeline lost k-mers: parsed {n_parsed}, counted {spectrum.n_total}"
                    )
                fill = residency.fill(tables)

        timing = acct.timing(t_parse)
        exchanged_items = int(acct.counts_matrix.sum())
        if not one_shot:
            state.timing = state.timing.add(timing)
            state.received_kmers += acct.received_kmers
            state.insert_stats = state.insert_stats.combined(acct.insert)
            state.exchanged_items += exchanged_items
            state.n_batches += 1
            return timing
        result = CountResult(
            config=config,
            cluster=self.cluster,
            backend=comp.backend,
            spectrum=spectrum,
            timing=timing,
            per_rank_parse=summary.times,
            per_rank_count=acct.per_rank_count,
            received_kmers=acct.received_kmers,
            exchanged_items=exchanged_items,
            exchanged_bytes=int(exchanged_items * wire),
            counts_matrix=acct.counts_matrix,
            work_multiplier=opts.work_multiplier,
            traffic=stats,
            insert_stats=acct.insert,
            mean_supermer_length=(
                summary.supermer_bases / summary.n_supermers if summary.n_supermers else 0.0
            ),
            staging_seconds=acct.staging,
            alltoallv_seconds=acct.t_alltoallv,
            link_seconds=tuple(acct.link_totals.items()),
            n_rounds_used=n_rounds,
        )
        acct.emit_run(result, fill, summary, recorder)
        return result


def _host_bytes_per_item(wire: int) -> float:
    """Host working set per received item that ``host_memory_budget`` bounds.

    The partition buffer and its extraction copy, the unpacked 8-byte key
    stream, and the table slots (16 B each at ~0.7 target load) the round
    may add.
    """
    return wire * 2 + 8.0 + 16 / 0.7


def _rounds_for_recv_items(
    recv_items: np.ndarray, wire: int, opts: EngineOptions, substrate: Substrate
) -> int:
    """Rounds needed so every rank's round working set fits its memory budgets.

    Models Section III-A: "Depending on the total size of the input,
    relative to software limits (approximating available memory), the
    computation and communication may proceed in multiple rounds."
    ``recv_items`` is the per-rank received-item total (the parse
    summary's counts-matrix column sums, exact in float64 below 2**53),
    evaluated at full (multiplied) scale.  Two independent budgets apply:
    the substrate's modeled device-memory budget (``device_rounds``)
    and the *host* budget (``opts.host_memory_budget``, any substrate),
    which bounds one round's per-rank host working set: the received
    partition, its extraction copy, and the table growth it can cause.
    """
    worst = float(recv_items.max(initial=0.0)) * opts.work_multiplier
    rounds = substrate.device_rounds(worst, wire, opts)
    if opts.host_memory_budget is not None:
        if worst > 0:
            _check_host_budget_floor(wire, opts)
        rounds = max(rounds, int(np.ceil(worst * _host_bytes_per_item(wire) / opts.host_memory_budget)))
    return rounds


def _check_host_budget_floor(wire: int, opts: EngineOptions) -> None:
    """Reject a host budget smaller than one received item's working set.

    Rounds cannot shrink the per-round set below one item per rank, so a
    sub-item budget would just degenerate into floods of zero-item
    rounds.  The floor is config-derived (wire size and multiplier, no
    data needed), so the streamed batch path validates it up front even
    though batches are single-round by construction.
    """
    if opts.host_memory_budget is None:
        return
    mult = opts.work_multiplier
    host_bytes_per_item = _host_bytes_per_item(wire)
    floor = int(np.ceil(host_bytes_per_item * mult))
    if opts.host_memory_budget < floor:
        raise ValueError(
            f"host_memory_budget={opts.host_memory_budget} is below the working-set "
            f"floor of one received item: {floor} bytes "
            f"({host_bytes_per_item:.1f} B/item at work_multiplier {mult:g})"
        )
