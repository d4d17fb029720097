"""The residency axis of the round driver: receive buffers in RAM or on disk.

Held entirely in RAM, a run keeps the parsed send buffers, every rank's
received buffer, and all P hash-table partitions live simultaneously,
which caps the dataset registry at tiny scales.  Gerbil-style two-phase
counting (PAPERS.md) splits that: phase one hashes reads into
minimizer-keyed temporary partition files, phase two counts one partition
at a time.  We already partition by minimizer shard, so this module adds
the missing pieces:

* :class:`SpillExchange` — a sibling of
  :class:`~repro.core.stages.standard.AlltoallvExchange` that writes each
  round's destination-ordered send segments to one partition file per
  (destination rank, round) in a spool directory, instead of materializing
  in-memory receive buffers.  Byte/item traffic accounting and the modeled
  exchange time are computed through the identical code paths, so every
  model observable matches the in-memory exchange bit for bit; the
  returned receive "buffers" are read-only memory maps of the partition
  files.

* :class:`Resident` | :class:`Spooled` — the two residencies the round
  driver (:meth:`repro.core.stages.scheduler.RoundScheduler._drive`)
  chooses between: the layout's own in-memory exchange, or every round
  spooled first and the count phase streamed back from disk in the
  layout's format (see :class:`Spooled` for what stays resident).

All partition/run I/O is buffered and coalesced: each destination's
segments are gathered into one :class:`~repro.core.memory.ScratchArena`
buffer and written with a single call (P writes per round, not P²), and
partitions are read back with readahead-sized ``readinto`` calls into
recycled arena buffers instead of page-faulting memory maps.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the resident
path's (``tests/test_spill.py`` enforces it, and
``benchmarks/bench_guard.py`` gates it in CI).  Only ``wall=True``
telemetry families (``spill_*``) differ.  Compositions with custom
exchange/merge stages fall back to the resident path with an
``engine.spill.fallback`` event, never an error.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from ...gpu.hashtable import DeviceHashTable
from ...gpu.segmented import SegmentedHashTable
from ...kmers.spectrum import KmerSpectrum
from ...telemetry import active, event
from ..memory import ScratchArena
from .buffers import ExchangeOutcome
from .registry import StageComposition
from .standard import AlltoallvExchange, SpectrumMerge, exchange_time_model, verify_exchange

__all__ = [
    "Resident",
    "SpillExchange",
    "SpillSpool",
    "Spooled",
    "external_merge",
    "supports_spill",
]

#: Keys loaded from each sorted run per refill during the external merge.
MERGE_BLOCK_KEYS = 1 << 16

#: Target bytes of spooled partition data streamed back per rank block in
#: the flat layout's spooled count phase.  One block's receive buffer (plus
#: its extraction copy) is the path's peak transient; 16 MiB keeps it cache-
#: friendly while amortizing the per-read syscall cost.
FUSED_SPILL_BLOCK_BYTES = 1 << 24


def supports_spill(comp: StageComposition) -> bool:
    """Whether the composition can run out of core.

    The spill path substitutes the exchange (partition files for receive
    buffers) and the merge (external k-way merge for the in-memory
    ``np.unique``), so both must be the standard classes whose semantics
    it reproduces.  Parse, partition, count, and substrate are driven
    through their ordinary seams and may be anything; plugins act through
    the standard hooks, which the spill path honours.
    """
    return type(comp.exchange) is AlltoallvExchange and type(comp.merge) is SpectrumMerge


def _record_comm_telemetry(p: int) -> None:
    """The collective-layer model counters one alltoallv emits."""
    reg = active()
    if reg is not None:
        reg.counter("comm_alltoallv_calls_total", "alltoallv_segments invocations").inc()
        reg.counter("comm_messages_total", "Rank-to-rank messages carried by collectives").inc(
            max(p * (p - 1), 0)
        )


def _spill_counter(name: str, desc: str, amount: int) -> None:
    reg = active()
    if reg is not None:
        reg.counter(name, desc, wall=True).inc(amount)


def _rank_blocks(weights: np.ndarray, target: int) -> list[tuple[int, int]]:
    """Consecutive rank ranges whose summed weights stay near ``target``.

    Every block holds at least one rank (a single oversized rank still
    gets its own block), so the blocks partition ``range(p)`` exactly.
    """
    p = int(weights.shape[0])
    blocks: list[tuple[int, int]] = []
    s = 0
    while s < p:
        e = s + 1
        acc = int(weights[s])
        while e < p and acc + int(weights[e]) <= target:
            acc += int(weights[e])
            e += 1
        blocks.append((s, e))
        s = e
    return blocks


class SpillSpool:
    """One run's spool directory: partition files keyed by (label, rank).

    Partition payloads are raw little-endian dtype bytes (``tofile``
    format), one file per destination rank per exchange label, with an
    optional parallel ``.lens`` file for supermer length bytes.  Empty
    partitions create no file.  When an ``arena`` is given, write
    coalescing and read-back buffers are borrowed from it instead of
    allocated fresh per call.
    """

    def __init__(self, base_dir: Path, *, arena: ScratchArena | None = None) -> None:
        base_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="spool-", dir=base_dir))
        self.arena = arena
        self.bytes_written = 0
        self.bytes_read = 0

    def _buffer(self, n: int, dtype) -> np.ndarray:
        if self.arena is not None:
            return self.arena.take(n, dtype)
        return np.empty(n, dtype=dtype)

    def release(self, *arrays: np.ndarray | None) -> None:
        """Hand read/coalesce buffers back to the arena (no-op without one)."""
        if self.arena is not None:
            self.arena.release(*arrays)

    def partition_path(self, label: str, rank: int, *, lens: bool = False) -> Path:
        suffix = "lens" if lens else "data"
        return self.dir / f"{label}.dst{rank}.{suffix}"

    def write_partition(
        self,
        label: str,
        rank: int,
        segments: list[np.ndarray],
        *,
        lens: bool = False,
    ) -> int:
        """Write ``segments`` (in source-rank order) as one partition file.

        The segments are coalesced into a single contiguous buffer and
        written with one call — P writes per exchange instead of P² tiny
        per-segment ones, which dominated the spill tier's overhead.
        """
        total = sum(int(seg.shape[0]) for seg in segments)
        if total == 0:
            return 0
        dtype = segments[0].dtype
        buf = self._buffer(total, dtype)
        pos = 0
        for seg in segments:
            n = int(seg.shape[0])
            if n:
                buf[pos : pos + n] = seg
                pos += n
        path = self.partition_path(label, rank, lens=lens)
        with open(path, "wb") as fh:
            buf[:total].tofile(fh)
        self.release(buf)
        nbytes = total * dtype.itemsize
        self.bytes_written += nbytes
        _spill_counter("spill_bytes_written_total", "Bytes written to spool partition files", nbytes)
        return nbytes

    def map_partition(
        self, label: str, rank: int, dtype, *, lens: bool = False, account: bool = True
    ) -> np.ndarray:
        """Memory-map one partition back (empty array if nothing was spooled).

        ``account=False`` skips the read-byte accounting — used when the
        map is handed out only for checksum verification and the real
        streamed read happens (and is accounted) later.
        """
        path = self.partition_path(label, rank, lens=lens)
        if not path.exists():
            return np.empty(0, dtype=dtype)
        data = np.memmap(path, dtype=dtype, mode="r")
        if account:
            self.bytes_read += int(data.nbytes)
            _spill_counter(
                "spill_bytes_read_total", "Bytes read back from spool files", int(data.nbytes)
            )
        return data

    def read_partition(
        self,
        label: str,
        rank: int,
        dtype,
        *,
        lens: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stream one partition back with sequential ``readinto`` reads.

        Unlike :meth:`map_partition` this performs one unbuffered
        sequential read into an arena-recycled buffer (or the front of
        ``out`` when given), so the count phase pays readahead-sized I/O
        instead of per-page faults.  Returns the filled array (a length-0
        view of ``out`` when nothing was spooled).
        """
        dt = np.dtype(dtype)
        path = self.partition_path(label, rank, lens=lens)
        if not path.exists():
            return out[:0] if out is not None else np.empty(0, dtype=dt)
        size = path.stat().st_size
        n = size // dt.itemsize
        data = out[:n] if out is not None else self._buffer(n, dt)
        view = memoryview(data).cast("B")
        with open(path, "rb", buffering=0) as fh:
            got = 0
            while got < size:
                n_read = fh.readinto(view[got:size])
                if not n_read:
                    raise OSError(f"short read from spool partition {path}")
                got += n_read
        self.bytes_read += size
        _spill_counter("spill_bytes_read_total", "Bytes read back from spool files", size)
        return data

    def drop_partitions(self, label: str, rank: int) -> None:
        """Delete one rank's partition files for a label (after counting)."""
        for lens in (False, True):
            path = self.partition_path(label, rank, lens=lens)
            if path.exists():
                path.unlink()

    def write_run(self, rank: int, keys: np.ndarray, counts: np.ndarray) -> Path:
        """Persist one rank's sorted (key, count) run for the external merge.

        One raw file per run — the uint64 keys followed by the int64
        counts — written with two buffered calls (the ``.npy``-per-array
        format cost four files and header churn per rank).
        """
        path = self.dir / f"run.r{rank}.bin"
        with open(path, "wb") as fh:
            np.ascontiguousarray(keys, dtype=np.uint64).tofile(fh)
            np.ascontiguousarray(counts, dtype=np.int64).tofile(fh)
        nbytes = int(keys.nbytes + counts.nbytes)
        self.bytes_written += nbytes
        _spill_counter("spill_bytes_written_total", "Bytes written to spool partition files", nbytes)
        _spill_counter("spill_merge_runs_total", "Sorted runs produced for the external merge", 1)
        return path

    def map_run(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        path = self.dir / f"run.r{rank}.bin"
        size = path.stat().st_size if path.exists() else 0
        if size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        n = size // 16  # 8 B key + 8 B count per entry
        keys = np.memmap(path, dtype=np.uint64, mode="r", shape=(n,))
        counts = np.memmap(path, dtype=np.int64, mode="r", offset=n * 8, shape=(n,))
        self.bytes_read += size
        _spill_counter("spill_bytes_read_total", "Bytes read back from spool files", size)
        return keys, counts

    def pending_files(self) -> tuple[int, int]:
        """(file count, total bytes) still sitting in the spool directory."""
        files = [p for p in self.dir.iterdir() if p.is_file()] if self.dir.exists() else []
        return len(files), sum(p.stat().st_size for p in files)

    def close(self, *, failed: bool = False) -> None:
        """Remove the spool directory.

        ``failed=True`` marks an abnormal exit (a worker raised mid-run):
        the leftover partition/run files are counted and announced with an
        ``engine.spill.cleanup`` event before removal, so aborted runs are
        visibly reclaimed instead of silently leaking spool space.
        """
        if failed and self.dir.exists():
            n_files, n_bytes = self.pending_files()
            event(
                "engine.spill.cleanup",
                subsystem="engine",
                files=n_files,
                bytes=n_bytes,
                dir=str(self.dir),
            )
        shutil.rmtree(self.dir, ignore_errors=True)


class SpillExchange:
    """Counts alltoall + payload "alltoallv" onto disk partitions.

    Accounting twin of :class:`AlltoallvExchange`: the byte/item traffic
    record, the collective-layer telemetry counters, the end-to-end
    checksum verification, and the modeled phase time are all computed
    exactly as the in-memory exchange computes them.  Only the data
    placement differs — each destination's segments are appended to a
    per-(rank, label) partition file, and ``recv_data`` comes back as
    read-only memory maps that exist only for the checksum pass (their
    reads are not accounted; the streamed count re-reads each partition).
    """

    def __init__(self, spool: SpillSpool) -> None:
        self.spool = spool

    def exchange(self, send_data, send_lengths, send_counts, label, ctx) -> ExchangeOutcome:
        p = len(send_data)
        wire = ctx.wire_bytes
        counts_matrix = np.zeros((p, p), dtype=np.int64)
        offsets = []
        for src in range(p):
            counts = np.ascontiguousarray(send_counts[src], dtype=np.int64)
            if counts.shape != (p,):
                raise ValueError(f"rank {src} send_counts must have shape ({p},)")
            if int(counts.sum()) != send_data[src].shape[0]:
                raise ValueError(
                    f"rank {src}: counts sum {int(counts.sum())} != data length {send_data[src].shape[0]}"
                )
            counts_matrix[src] = counts
            off = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            offsets.append(off)

        # Model accounting first, identical to alltoallv_segments: one
        # logical alltoallv for the payload (recorded into the traffic
        # stats), and in supermer mode a second one for the length bytes
        # (counters only; its bytes ride in the payload's `wire` size).
        _record_comm_telemetry(p)
        if ctx.stats is not None:
            bytes_matrix = (counts_matrix * float(wire)).astype(np.int64)
            ctx.stats.record("alltoallv", bytes_matrix, label=label, items_matrix=counts_matrix)
        if send_lengths is not None:
            _record_comm_telemetry(p)

        # The disk form of recv_data[dst]: every source's segment for dst,
        # in source-rank order — byte-identical to the in-memory gather.
        for dst in range(p):
            segs = [send_data[src][offsets[src][dst] : offsets[src][dst + 1]] for src in range(p)]
            self.spool.write_partition(label, dst, segs)
            if send_lengths is not None:
                lens = [
                    send_lengths[src][offsets[src][dst] : offsets[src][dst + 1]] for src in range(p)
                ]
                self.spool.write_partition(label, dst, lens, lens=True)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", p)

        recv_data = [
            self.spool.map_partition(label, dst, send_data[0].dtype, account=False)
            for dst in range(p)
        ]
        recv_lengths = None
        if send_lengths is not None:
            recv_lengths = [
                self.spool.map_partition(label, dst, np.uint8, lens=True, account=False)
                for dst in range(p)
            ]

        do_verify = ctx.verify if ctx.verify is not None else ctx.opts.verify_exchange
        if do_verify:
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
        )


def external_merge(
    runs: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    *,
    block: int = MERGE_BLOCK_KEYS,
) -> KmerSpectrum:
    """External k-way merge of sorted ``(keys, counts)`` runs.

    Each run's keys are strictly increasing (a dumped table partition);
    runs may share keys (canonical supermer mode splits a canonical k-mer
    across two owners), so equal keys aggregate.  A heap of the run
    cursors' last-loaded keys yields the *safe emission bound*: every
    instance of a key ``<= bound`` is already loaded, because each run's
    unloaded keys exceed its last-loaded key.  Chunks are aggregated with
    the same ``np.unique`` + weighted ``bincount`` the in-memory
    :class:`SpectrumMerge` uses, so the concatenated chunk outputs equal
    the whole-array merge exactly.
    """
    # per run: [keys, counts, lo, head_keys, head_counts, hp, generation]
    cursors = []
    heap: list[tuple[int, int, int]] = []  # (last loaded key, generation, run index)

    def refill(i: int) -> None:
        cur = cursors[i]
        keys, counts, lo = cur[0], cur[1], cur[2]
        hi = min(lo + block, keys.shape[0])
        cur[3] = np.asarray(keys[lo:hi])
        cur[4] = np.asarray(counts[lo:hi])
        cur[2], cur[5] = hi, 0
        cur[6] += 1
        if hi < keys.shape[0]:  # more on disk: this head's last key bounds emission
            heapq.heappush(heap, (int(cur[3][-1]), cur[6], i))

    for keys, counts in runs:
        if keys.shape[0]:
            cursors.append([keys, counts, 0, None, None, 0, 0])
            refill(len(cursors) - 1)

    live = {i for i in range(len(cursors))}
    out_keys: list[np.ndarray] = []
    out_counts: list[np.ndarray] = []
    while live:
        # Drop stale heap entries: the cursor was dropped, fully loaded, or
        # refilled since the entry was pushed (its bound is already consumed).
        while heap and (
            heap[0][2] not in live
            or heap[0][1] != cursors[heap[0][2]][6]
            or cursors[heap[0][2]][2] >= cursors[heap[0][2]][0].shape[0]
        ):
            heapq.heappop(heap)
        bound = heap[0][0] if heap else None

        parts_k: list[np.ndarray] = []
        parts_c: list[np.ndarray] = []
        for i in sorted(live):
            cur = cursors[i]
            hk, hc, hp = cur[3], cur[4], cur[5]
            end = hk.shape[0] if bound is None else int(np.searchsorted(hk, bound, side="right"))
            if end > hp:
                parts_k.append(hk[hp:end])
                parts_c.append(hc[hp:end])
                cur[5] = end
        chunk_k = np.concatenate(parts_k) if parts_k else np.empty(0, dtype=np.uint64)
        chunk_c = np.concatenate(parts_c) if parts_c else np.empty(0, dtype=np.int64)
        if chunk_k.size:
            uniq, inverse = np.unique(chunk_k, return_inverse=True)
            merged = np.bincount(inverse, weights=chunk_c).astype(np.int64)
            out_keys.append(uniq)
            out_counts.append(merged)

        for i in list(live):
            cur = cursors[i]
            if cur[5] >= cur[3].shape[0]:  # head fully consumed
                if cur[2] < cur[0].shape[0]:
                    refill(i)
                else:
                    live.discard(i)

    if not out_keys:
        return KmerSpectrum(k=k, values=np.empty(0, dtype=np.uint64), counts=np.empty(0, dtype=np.int64))
    return KmerSpectrum(k=k, values=np.concatenate(out_keys), counts=np.concatenate(out_counts))


class Resident:
    """Residency in RAM: the layout's own exchange, counted round by round.

    The receive buffers of one round are live arrays, so the driver counts
    them inside the round and the next round overwrites them; tables,
    merge and fill statistics are whatever the layout keeps.  ``cleanup``
    is the driver's exit scope — nothing to register for RAM.
    """

    spooled = False

    def __init__(self, layout, cleanup) -> None:
        self.layout = layout
        self.exchange_leaf = layout.prefix + "exchange"  # work-leaf name of the exchange superstep

    def exchange(self, round_send, label: str, sctx) -> ExchangeOutcome:
        return self.layout.exchange(round_send, label, sctx)

    def merge(self, tables) -> tuple[str, KmerSpectrum]:
        """``(work-leaf name, spectrum)`` of the one-shot merge."""
        return self.layout.prefix + "merge", self.layout.merge(tables)

    def fill(self, tables) -> tuple[list[int], list[float]]:
        """Per-rank ``(entries, load factor)`` of the final partitions."""
        return self.layout.fill(tables)


class Spooled(Resident):
    """Residency on disk: rounds are spooled, then streamed back and counted.

    Every round's send buffers go through :class:`SpillExchange` into one
    spool directory per drive (removed by the driver's cleanup scope on
    any exit).  Once the driver has dropped the send buffers, :meth:`count`
    streams the partitions back in the layout's format:

    * per-rank layout — one rank at a time on the pool
      (:meth:`_stream_ranks`).  A one-shot run counts each rank into a
      fresh table, dumps it as a sorted ``(key, count)`` run file and frees
      it before the worker's next rank, and merges the runs externally
      (a heap orders the run cursors, cf. the ``heapq`` idiom in
      :mod:`repro.ext.balanced`) — peak residency is one rank's partition
      + table per worker, not P of them.  A batch counts into the
      persistent tables, which are the cross-batch state itself.
    * flat layout — one consecutive *rank block* at a time
      (:meth:`_stream_blocks`, :data:`FUSED_SPILL_BLOCK_BYTES` per block)
      into the segmented table, which ``EngineOptions(table_dir=)`` makes
      file-backed; the merge is the layout's in-memory one.
    """

    spooled = True

    def __init__(self, layout, cleanup) -> None:
        super().__init__(layout, cleanup)
        self.exchange_leaf = "spill:spool"  # one whole-cluster block on the driving thread
        self.spool = SpillSpool(Path(layout.sched.opts.spill_dir), arena=layout.arena)
        # A failed exit is announced (engine.spill.cleanup) before removal.
        cleanup.push(lambda exc_type, *_: self.spool.close(failed=exc_type is not None))
        self.labels: list[str] = []
        self.round_recv: list[np.ndarray] = []  # items received per rank, per round
        self.run_fill: tuple[list[int], list[float]] | None = None  # set once runs are written

    def exchange(self, round_send, label: str, sctx) -> ExchangeOutcome:
        # The outcome's receive views exist only for the checksum pass;
        # the streamed count re-reads each partition (with accounting).
        outcome = SpillExchange(self.spool).exchange(*self.layout.send_lists(round_send), label, sctx)
        self.labels.append(label)
        self.round_recv.append(outcome.counts_matrix.sum(axis=0))
        return outcome

    def count(self, state, hints: list[int], cleanup, sctx, acct):
        """Stream every spooled round back and count it; returns the tables."""
        if self.layout.flat:
            table = self.layout.tables(state, hints, cleanup)
            self._stream_blocks(table, sctx, acct)
            return table
        return self._stream_ranks(None if state is None else state.tables, hints, sctx, acct)

    def _stream_ranks(self, tables, hints: list[int], sctx, acct):
        """Per-rank streamed count, one rank partition at a time.

        Each rank's stream is private in memory (its own table) and on
        disk (per-rank partition and run files), so the pool may run rank
        streams concurrently on any substrate.  ``tables is None`` is the
        one-shot run: fresh table per rank, dumped as a sorted run.  As on
        every per-rank path, a persistent table travels back with the
        outcomes for out-of-process substrates.
        """
        sched = self.layout.sched
        comp, config = sched.comp, sched.config
        spool, labels, recorder = self.spool, self.labels, sctx.recorder
        suffixes = [f"-round{rnd}" if len(labels) > 1 else "" for rnd in range(len(labels))]

        def _stream_one(r: int):
            table = tables[r] if tables is not None else DeviceHashTable(
                capacity_hint=hints[r], seed=config.table_seed
            )
            outcomes = []
            for label, suffix in zip(labels, suffixes):
                recv = spool.read_partition(label, r, np.uint64)
                lengths_r = (
                    spool.read_partition(label, r, np.uint8, lens=True)
                    if sctx.supermer_mode
                    else None
                )
                t0 = perf_counter()
                outcomes.append(comp.substrate.count_rank(r, recv, lengths_r, table, comp.count, sctx))
                if recorder is not None:
                    recorder.record("count" + suffix, r, t0, perf_counter())
                spool.release(recv, lengths_r)
            for label in labels:
                spool.drop_partitions(label, r)
            if tables is not None:
                return outcomes, table
            t0 = perf_counter()
            values, counts = table.items()
            for plugin in comp.merge.plugins:
                values, counts = plugin.adjust_merge_items(values, counts)
            if values.size > 1 and not np.all(values[1:] > values[:-1]):
                order = np.argsort(values, kind="stable")
                values, counts = values[order], counts[order]
            spool.write_run(r, values, counts)
            if recorder is not None:
                recorder.record("spill:run-write", r, t0, perf_counter())
            return outcomes, (table.n_entries, table.load_factor)

        streamed = sctx.pool.map(_stream_one, range(len(hints)), recorder=recorder)
        for r, (outcomes, kept) in enumerate(streamed):
            for co in outcomes:  # round order per rank: identical float accumulation
                acct.add_rank_count(r, co)
            if tables is not None:
                tables[r] = kept
        if tables is None:
            entries, loads = zip(*(kept for _, kept in streamed))
            self.run_fill = list(entries), list(loads)
        return tables

    def _stream_blocks(self, table: SegmentedHashTable, sctx, acct) -> None:
        """Stream spooled partitions into ``table`` one rank block at a time.

        For every consecutive rank block (sized by partition bytes against
        :data:`FUSED_SPILL_BLOCK_BYTES`) and every round label, the block's
        partitions are read back into one contiguous arena buffer and
        counted via the flat count kernel restricted to the block
        (``rank_range``).  Bit-identity with the resident flat count holds
        because (a) the segmented table's regions are slot-disjoint, so any
        grouping of whole ranks per insert call leaves every per-rank probe
        sequence unchanged, (b) rounds run innermost, so each rank sees its
        rounds in order (identical float accumulation), and (c) InsertStats
        combination is a commutative monoid, so (block, round) iteration
        reduces to the same totals as (round, all-ranks).
        """
        spool, labels, recorder = self.spool, self.labels, sctx.recorder
        supermer_mode = sctx.supermer_mode
        n_rounds = len(labels)
        arena = self.layout.arena
        recv_per_rank = np.sum(self.round_recv, axis=0)
        item_bytes = 9 if supermer_mode else 8  # 8 B payload + 1 B length
        blocks = _rank_blocks(recv_per_rank * item_bytes, FUSED_SPILL_BLOCK_BYTES)
        for r0, r1 in blocks:
            nb = r1 - r0
            for rnd, label in enumerate(labels):
                suffix = f"-round{rnd}" if n_rounds > 1 else ""
                total = int(self.round_recv[rnd][r0:r1].sum())
                t0 = perf_counter()
                shuffled = arena.take(total, np.uint64)
                shuffled_lengths = arena.take(total, np.uint8) if supermer_mode else None
                dst_offsets = np.zeros(nb + 1, dtype=np.int64)
                pos = 0
                for i, r in enumerate(range(r0, r1)):
                    part = spool.read_partition(label, r, np.uint64, out=shuffled[pos:])
                    if supermer_mode:
                        spool.read_partition(
                            label, r, np.uint8, lens=True, out=shuffled_lengths[pos:]
                        )
                    pos += int(part.shape[0])
                    dst_offsets[i + 1] = pos
                if recorder is not None:
                    recorder.record("spill:read" + suffix, r0, t0, perf_counter())
                t0 = perf_counter()
                times, n_seen, ins_list = self.layout._count(
                    table,
                    shuffled[:pos],
                    shuffled_lengths[:pos] if supermer_mode else None,
                    dst_offsets,
                    sctx,
                    rank_range=(r0, r1),
                )
                if recorder is not None:
                    recorder.record("fused:count" + suffix, r0, t0, perf_counter())
                arena.release(shuffled, shuffled_lengths)
                acct.add_count(r0, times, n_seen, ins_list)
            for r in range(r0, r1):
                for label in labels:
                    spool.drop_partitions(label, r)

    def merge(self, tables) -> tuple[str, KmerSpectrum]:
        if self.run_fill is None:
            return super().merge(tables)
        sched = self.layout.sched
        runs = [self.spool.map_run(r) for r in range(sched.cluster.n_ranks)]
        return "spill:merge", external_merge(runs, sched.config.k)

    def fill(self, tables) -> tuple[list[int], list[float]]:
        return self.run_fill if self.run_fill is not None else super().fill(tables)
