"""The round driver: memory-bounded multi-round execution of a composition.

This is the single owner of the parse → exchange → count → merge loop —
one private driver (:meth:`RoundScheduler._drive`) that every execution
surface and every strategy runs:

* :func:`repro.core.engine.run_pipeline` builds a composition and calls
  :meth:`RoundScheduler.run` (one-shot run, full :class:`CountResult`);
* :class:`repro.core.incremental.DistributedCounter` holds a
  :class:`~repro.core.stages.checkpoint.PipelineState` (checkpointable:
  :mod:`repro.core.stages.checkpoint`) and calls
  :meth:`RoundScheduler.run_batch` per read batch — the same drive, with
  persistent tables and a conservation check per batch;
* the SPMD rank program (:func:`repro.core.spmd.staged_rank_program`)
  runs the same phase bodies on one rank's shard inside per-rank threads.

Execution is bulk-synchronous: every rank's phase runs to completion (as
real NumPy work), per-rank model times are derived from the work actually
performed, and the phase's bulk time is the max over ranks.  When the
modeled per-round working set exceeds a memory budget, or the config asks
for ``n_rounds > 1``, each destination segment is split evenly across
rounds (Section III-A) and the exchange repeats; the round count, the
count's table blocks and the table hints are the drive plan's
(:func:`~repro.core.stages.plan.plan_drive`), decided once after the parse.

Every drive has one shape, Gerbil's two phases (PAPERS.md): exchange
every round, then count one table block at a time — every round of the
block's ranks, in round order — and merge the blocks' dumps.  There is
one data layout (:class:`Layout`): blocks of whole shards parse into one
send array, a round is a view of it
(:class:`~repro.core.stages.buffers.SendRound`), and every receive side
is gathered straight out of it.  The one axis that changes behaviour is
the *residency* (:class:`~repro.core.stages.spill.Resident` |
:class:`~repro.core.stages.spill.Spooled`), which owns the exchange, the
count loop and the merge, and chooses where a round's receive segments
and a block's dump live: in the send array and RAM, or in the spool's
files; ``fused`` changes names only (the
strategy, ``staged`` | ``fused`` | ``spill`` | ``fused-spill``, and the
``fused:`` work-leaf prefix).
:class:`RoundAccounting` is the one place their outcomes are summed.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ...dna.reads import ReadSet, ShardRanges
from ...gpu.hashtable import InsertStats, SegmentedRankView
from ...gpu.segmented import rank_blocks, view_blocks
from ...mpi.costmodel import CommCostModel
from ...mpi.stats import TrafficStats
from ...mpi.topology import ClusterSpec
from ...telemetry import MetricRegistry, event, session
from ...telemetry.spans import SpanRecorder, recording_region, wall_summary
from ..config import PipelineConfig
from ..memory import ScratchArena
from ..parallel import RankPool, get_pool
from ..results import CountResult, PhaseTiming
from .buffers import ExchangeOutcome, ParseSummary, SendArray, send_rounds
from .checkpoint import PipelineState
from .context import EngineOptions, StageContext
from .plan import check_budget_floor, plan_drive
from .protocols import PipelinePlugin
from .registry import StageComposition
from .spill import Resident, Spooled
from .standard import exchange_digest, parse_block, verify_exchange

__all__ = ["RoundScheduler", "RoundAccounting", "Layout", "Strategy"]

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
    :meth:`InsertStats.combined` are associative, so the count loop may
    visit blocks in any order.
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
        wall = wall_summary(recorder)
        if wall:
            for name, phase in wall["phases"].items():
                reg.counter(
                    "wall_phase_seconds_total", "Host wall-clock rank-seconds per phase", wall=True, phase=name
                ).inc(phase["busy_seconds"])
            reg.gauge("wall_busy_seconds", "Total host rank-seconds", wall=True).set(wall["busy_seconds"])
            reg.gauge("wall_elapsed_seconds", "Host wall window of the run", wall=True).set(
                wall["elapsed_seconds"]
            )
            reg.gauge("wall_overlap_factor", "Achieved rank concurrency", wall=True).set(
                wall["overlap_factor"]
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


class Layout:
    """The one data layout: blocks of whole shards parse into one send array.

    Each block runs the one parse body
    (:func:`~repro.core.stages.standard.parse_block`) on the rank pool and
    fills its slice of one :class:`~repro.core.stages.buffers.SendArray`,
    whose rounds the residency gathers straight out of it.
    ``fused`` names the work leaves ``fused:*`` and changes nothing else.
    The exchange and the tables are the residency's.
    """

    def __init__(
        self, sched: "RoundScheduler", arena: ScratchArena, *, fused: bool, in_process_only: bool
    ) -> None:
        self.sched = sched
        self.arena = arena  # the spool's buffers
        self.in_process_only = in_process_only
        self.prefix = "fused:" if fused else ""  # work-leaf names

    def pool(self) -> RankPool:
        """The substrate the parse, count and stream blocks run on.

        Stateful plugins (those overriding ``filter_received``, e.g. the
        bloom prefilter, whose filter state mutates inside the count
        closures and is read again at merge time) need their side effects
        in the driving process, so a process substrate becomes an equally
        wide thread pool (announced by ``resolve_strategy``).  Results are
        bit-identical either way.
        """
        pool = get_pool(self.sched.opts.parallel)
        if self.in_process_only and not pool.in_process:
            pool = get_pool(f"thread:{pool.workers}")
        return pool

    def parse(self, ranges: ShardRanges, sctx: StageContext) -> tuple[SendArray, ParseSummary]:
        """Every rank's send buffer in one :class:`SendArray`, and the per-rank parse figures.

        One pool task and one ``parse`` work leaf (``ranks=[r0, r1]``) per
        block; a block's closure reads only its view of the input and
        returns fresh arrays, so any substrate equals the sequential loop.
        Block outputs are copied into their slices of the send array a wave
        of blocks at a time (a few per worker; all at once on an out-of-process pool,
        whose results arrive as copies anyway), so the parse holds one
        wave's outputs beside the array and the next wave reuses their
        memory.  The array is sized from the items per base parsed so far,
        with a quarter to spare (an untouched tail is never resident), and
        regrown — at least doubled — if a block does not fit.
        """
        comp, pool, recorder = self.sched.comp, sctx.pool, sctx.recorder
        leaf = self.prefix + "parse"
        sizes = ranges.code_bytes

        def _parse(block: tuple[int, int]):
            r0, r1 = block
            t0 = perf_counter()
            out = parse_block(ranges, r0, r1, comp.parse, comp.partition, comp.substrate, sctx)
            if recorder is not None:
                recorder.record(leaf, r0, t0, perf_counter(), ranks=[r0, r1])
            return out

        blocks = rank_blocks(sizes, PARSE_BLOCK_BASES)
        wave = 4 * pool.workers if pool.in_process else len(blocks)
        bases_through = np.cumsum(sizes)
        arrays: list[np.ndarray] = []  # the send data, then its second array (lengths, or high bytes)
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


#: Strategy name by (``fused``?, spooled residency?) — the run span's
#: ``strategy`` meta and the only names the 2×2 has; ``fused`` changes
#: nothing but names.
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

    def _shard(self, reads: ReadSet) -> ShardRanges:
        """The input's byte-balanced shards (the paper's parallel I/O; Section IV-D), as ranges."""
        return ShardRanges.of(reads, self.cluster.n_ranks, self.config.k - 1)

    def _prepare_plugins(self, reads: ReadSet) -> None:
        """One-time plugin pre-pass (first batch for streamed inputs)."""
        if self._prepared:
            return
        self._prepared = True
        for plugin in self.comp.plugins:
            plugin.prepare(reads, self.config, self.cluster, self.opts)

    def resolve_strategy(self) -> Strategy:
        """The fused × residency cell ``self.opts`` selects for this composition.

        ``fused`` and ``spill_dir`` select the cell as asked, whatever the
        composition.  Resolved once per options object — assigning
        ``scheduler.opts`` re-resolves on the next drive, nothing else
        needs resetting — so the one fallback is announced once: a process
        pool over a stateful plugin (one that overrides
        ``filter_received``) becomes a thread pool
        (``engine.process.fallback``, see :meth:`Layout.pool`), an event,
        never an error, because results are identical on both.  A
        ``host_memory_budget`` below the working-set floor is refused here,
        once per options object too, before a drive parses anything.
        """
        opts, comp = self.opts, self.comp
        if self._strategy is not None and self._strategy.opts is opts:
            return self._strategy
        check_budget_floor(self.config, opts)
        spooled, fused = opts.spill_dir is not None, bool(opts.fused)
        stateful = any(
            type(plugin).filter_received is not PipelinePlugin.filter_received for plugin in comp.plugins
        )
        if stateful and not get_pool(opts.parallel).in_process:
            event(
                "engine.process.fallback",
                subsystem="engine",
                backend=comp.backend,
                reason="composition has stateful plugins; using the thread substrate",
            )
        arena = opts.arena if opts.arena is not None else ScratchArena()
        self._strategy = Strategy(
            name=_STRATEGY_NAMES[fused, spooled],
            layout=Layout(self, arena, fused=fused, in_process_only=stateful),
            residency=Spooled if spooled else Resident,
            opts=opts,
        )
        return self._strategy

    # -- the two surfaces ----------------------------------------------------

    def run_region(self, recorder: SpanRecorder | None):
        """The root ``run`` region of a job on ``recorder``: a one-shot run, or a stream around its batches.

        Its meta names the strategy, backend, mode and rank count; a
        trace has exactly one root, so a stream's ``batch<n>`` regions
        nest in it rather than stand beside each other.
        """
        return recording_region(
            recorder,
            "run",
            cat="run",
            strategy=self.resolve_strategy().name,
            backend=self.comp.backend,
            mode=self.config.mode,
            ranks=self.cluster.n_ranks,
        )

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
        with ctx, self.run_region(recorder):
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

    def run_batch(self, reads: ReadSet, state: PipelineState, *, last: bool = False) -> PhaseTiming:
        """Fold one batch of reads into ``state``; returns the batch timing.

        The same drive as :meth:`run` — rounds planned by the same laws
        from the batch's own counts, the same exchange checksum — with
        ``state``'s persistent tables and accounting instead of fresh
        ones.  A composition that conserves k-mers must grow the tables'
        counts by exactly the batch's parsed k-mers, or the batch raises; a
        batch that raises after its first exchange marks ``state`` failed
        (:meth:`~repro.core.stages.checkpoint.PipelineState.writing`).  When ``opts.trace``
        is set, the batch records a ``batch{n}`` region with the same
        stage/work structure as the one-shot run, inside the job's
        :meth:`run_region` when the caller opened one.  ``last`` says no
        batch follows, so an empty state is not born ahead of later
        batches (:func:`~repro.core.stages.plan.plan_drive`).
        """
        recorder = self.opts.trace
        with recording_region(
            recorder, f"batch{state.n_batches}", cat="batch", batch=state.n_batches
        ):
            return self._drive(reads, state, recorder, None, last=last)

    # -- the round driver ----------------------------------------------------

    def _drive(
        self,
        reads: ReadSet,
        state: PipelineState | None,
        recorder: SpanRecorder | None,
        reg: MetricRegistry | None,
        *,
        last: bool = False,
    ) -> CountResult | PhaseTiming:
        """The one superstep skeleton every strategy and surface runs.

        prepare plugins → shard → parse, and the exchange checksum's send
        side → plan → per round {view, exchange, span note, accounting} →
        drop the driver's send array → count, one table block at a time →
        the exchange checksum, once per drive → the merge (one-shot
        surface, ``state is None``) → conservation check → final gauges
        and the :class:`CountResult` (one-shot).  Every strategy and
        surface takes this one shape (Gerbil's two phases).  What differs
        between strategies is behind two objects (:meth:`resolve_strategy`):
        the *layout* (one class) parses the send array and names the work
        leaves, and the
        *residency* chooses where a round's receive segments and a block's
        dump live — the send array and RAM arrays, or the spool's segment
        and run files.
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
        )
        acct = RoundAccounting(p, comp.backend, reg)

        # Plugins prepare before sharding on both surfaces: a plugin whose
        # `prepare` influences partitioning must see the same state on the
        # streamed path as on the one-shot path.
        self._prepare_plugins(reads)
        # ---- input partitioning (the paper's parallel I/O; Section IV-D) ----
        ranges = self._shard(reads)

        # ---- phase 1: parse (& build supermers) ----
        with recording_region(recorder, "parse", cat="stage"):
            send, summary = layout.parse(ranges, sctx)
        del ranges
        # The checksum's send side, while the send array is certainly alive: one reduction per array.
        sent = exchange_digest(send.arrays)
        t_parse = float(summary.times.max()) if p else 0.0
        plan = plan_drive(summary, sctx, last=last)
        n_rounds = plan.n_rounds
        # A round's label is the drive's stem, plus "-round<r>" when it has more rounds than one.
        stem = f"{config.mode}-exchange" if one_shot else f"{config.mode}-batch{state.n_batches}"

        # One cleanup scope for everything a drive opens: the residency's
        # spool directory is reclaimed on any exit, success or raise.
        with ExitStack() as cleanup:
            residency = strategy.residency(layout, cleanup)
            if not one_shot:
                # From its first exchange (the traffic log) through its count (the
                # tables), a batch writes into the state: a raise leaves it refusing use.
                cleanup.enter_context(state.writing(stem))
            rounds = send_rounds(send, n_rounds)  # views of the send array: nothing is copied

            # ---- phase 2: exchange, possibly in multiple rounds ----
            for rnd in range(n_rounds):
                suffix = f"-round{rnd}" if n_rounds > 1 else ""
                label = stem + suffix
                with recording_region(recorder, f"round{rnd}", cat="round", round=rnd):
                    n_traffic_before = len(stats.records)
                    with recording_region(recorder, "exchange", cat="stage", round=rnd) as ereg:
                        t0 = perf_counter()
                        outcome = residency.exchange(rounds[rnd], label, suffix, sctx)
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

            # Every round is exchanged: drop the driver's send array *before*
            # the count starts (Gerbil's two phases).  A spooled drive holds no
            # other reference, so its count's peak is one block's reads and
            # table per worker, not the whole parse output; a resident drive's
            # rounds are its receive side and keep the array until its count
            # has gathered the last block out of it.
            del send, rounds

            # ---- phase 3: count, one table block at a time ----
            n_parsed = int(summary.n_kmers.sum())
            # Streamed conservation sums every table slab: only when it is checked.
            check_held = not one_shot and comp.conserves_kmers
            held = _n_counted(state.tables) if check_held else None
            with recording_region(recorder, "count", cat="stage"):
                fill, received = residency.count(state, plan, sctx, acct)
            verify_exchange(stem, sent, received, "length bytes" if sctx.supermer_mode else "high bytes")

            if one_shot:
                # ---- merge the blocks' dumps into one spectrum ----
                with recording_region(recorder, "merge", cat="stage"):
                    t0 = perf_counter()
                    leaf, spectrum = residency.merge()
                    if recorder is not None:
                        recorder.record(leaf, 0, t0, perf_counter())
                counted = spectrum.n_total
            elif check_held:
                counted = _n_counted(state.tables) - held
            if comp.conserves_kmers and counted != n_parsed:
                raise AssertionError(f"pipeline lost k-mers: parsed {n_parsed}, counted {counted}")

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
            exchanged_bytes=int(exchanged_items * sctx.config.wire_bytes),
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


def _n_counted(tables: list[SegmentedRankView]) -> int:
    """The k-mer instances ``tables`` hold: one sum over their slabs (an empty slot counts 0)."""
    return sum(int(table.counts.sum()) for _, _, table in view_blocks(tables))
