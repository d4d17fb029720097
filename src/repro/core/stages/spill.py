"""The residency axis of the round driver: the exchange, where receive buffers and table dumps live, and the merge.

Every drive takes Gerbil's two phases (PAPERS.md): phase one exchanges
every round, phase two counts one table block at a time.  The receive
side and the block dumps are what a residency places:

* :class:`SpillSpool` — the spool directory: one append-only segment file
  per label (plus a ``.lens`` twin for the send format's second array:
  length bytes, or a k-mer's high bytes at k = 17..20) with an in-memory
  ``rank → (item offset, count)`` index, filled a round at a time by
  :meth:`SpillSpool.append_round`, and one run file per table block — the
  block's occupied slots, unsorted — indexed by its ranks, entry count and
  CRC-32.

* :class:`Resident` | :class:`Spooled` — the two residencies the round
  driver (:meth:`repro.core.stages.scheduler.RoundScheduler._drive`)
  chooses between.  Both account the exchange the same way (the paper's
  one ALLTOALLV per round, with the same traffic accounting and modeled
  time), count by one loop (:meth:`Resident.count`): a block's ranks,
  every round in round order, into a table born for the block
  (:func:`block_table`, a block-local
  :class:`~repro.gpu.segmented.SegmentedHashTable` backed by
  ``table_dir`` when it is set) that is dumped and freed before the next
  block, or into a streamed state's tables — and digest what that loop
  reads for the driver's one exchange checksum.  They differ only in
  where things live: :class:`Resident` copies nothing at the exchange — each count
  block gathers its extent of a round straight out of the send array —
  and keeps a block's ``(keys, counts)`` dump in RAM; :class:`Spooled`
  gathers the round into its segment file, reads a block's extent back,
  and writes the dump as a run file.  Both merge by the one rule,
  :func:`~repro.core.stages.standard.merge_items` over the blocks' dumps.

One gather serves both (:func:`_gather`, a
:class:`~repro.mpi.collectives.SegmentBlock` of the round's view of the
send array): a count block's extent, or a cache-sized destination block
of a spooled round.  Few large sequential files, as Gerbil's bins are
(PAPERS.md): a spooled round costs one ``open`` and one write per
destination block — Python-level work per round is one gather index per
block, not P² segment copies and P files — and is read back with
positional reads at indexed offsets through the descriptor opened at the
first append, a whole rank block at a time.  A file shorter than its
index says is an ``OSError`` naming file, label, ranks and the expected
and found bytes, never a silently smaller count; a run file whose bytes
no longer match their CRC-32 is one too.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the in-RAM
drive's (``tests/test_spill.py`` enforces it, and ``TestModelCellsGolden``
replays the full-scale figure cells through it).  Only ``wall=True``
telemetry families (``spill_*``) differ.
"""

from __future__ import annotations

import mmap
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from ...gpu.hashtable import SegmentedRankView
from ...gpu.segmented import OWNER_FILE, SegmentedHashTable, owned_dir, release_dir, view_blocks
from ...kmers.spectrum import KmerSpectrum
from ...mpi.collectives import SegmentBlock, account_alltoallv, segment_blocks
from ...telemetry import active, event
from ..memory import ScratchArena
from .buffers import ExchangeOutcome, SendRound
from .standard import exchange_digest, exchange_outcome, fold_digests, merge_items

__all__ = [
    "Resident",
    "SpillSpool",
    "Spooled",
    "block_table",
    "external_merge",
]


def block_table(hints, seed: int, table_dir: Path | None = None) -> SegmentedHashTable:
    """A new table for one block of consecutive ranks, a region per capacity hint.

    The one place the engine's tables are born — a one-shot drive's at the
    drive plan's hints and an empty state's at its birth hints, both in
    the plan's count blocks (:class:`~repro.core.stages.plan.DrivePlan`),
    and a fresh state's — and ``table_dir`` backs every one of them with
    ``np.memmap`` slabs (a checkpoint's tables are restored by
    :meth:`~repro.gpu.segmented.SegmentedHashTable.from_slots`).
    """
    return SegmentedHashTable(hints, seed=seed, table_dir=table_dir)


def _spill_counter(name: str, desc: str, amount: int) -> None:
    reg = active()
    if reg is not None:
        reg.counter(name, desc, wall=True).inc(amount)


class _SegmentFile:
    """One append-only spool file plus its ``rank → (item offset, count)`` index.

    The descriptor is opened once (read/write, ``O_APPEND``) and serves
    every append, positional read and map: ``preadv`` carries its own
    offset, so threads and forked pool workers share it without seeking.
    """

    def __init__(self, path: Path, label: str) -> None:
        self.path = path
        self.label = label
        self.fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o600)
        self.starts = np.zeros(0, dtype=np.int64)  # per rank: first item's offset in the file
        self.counts = np.zeros(0, dtype=np.int64)  # per rank: items spooled (0 = none)
        self.n_items = 0

    def append(self, rank0: int, counts: np.ndarray, data: np.ndarray) -> None:
        """Append ``data`` — the items of ranks ``rank0, rank0+1, ...`` back to back."""
        r1 = rank0 + counts.shape[0]
        grow = r1 - self.counts.shape[0]
        if grow > 0:
            self.starts, self.counts = np.pad(self.starts, (0, grow)), np.pad(self.counts, (0, grow))
        self.starts[rank0:r1] = self.n_items + np.cumsum(counts) - counts
        self.counts[rank0:r1] = counts
        view = memoryview(data).cast("B")
        done = 0
        while done < len(view):
            done += os.write(self.fd, view[done:])
        self.n_items += int(data.shape[0])

    def extents(self, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the ranks in ``[r0, r1)`` that hold items."""
        counts = self.counts[r0:r1]
        held = counts > 0
        return self.starts[r0:r1][held], counts[held]

    def truncated(self, r0: int, r1: int, need: int) -> OSError:
        """The one error a short spool file raises, whichever read found it."""
        ranks = f"rank {r0}" if r1 - r0 == 1 else f"ranks {r0}..{r1 - 1}"
        return OSError(
            f"spool file {self.path} (label {self.label!r}, {ranks}) is truncated: "
            f"expected {need} bytes, found {os.fstat(self.fd).st_size}"
        )

    def read_into(self, view: memoryview, offset: int, r0: int, r1: int) -> None:
        """Fill ``view`` from file byte ``offset`` on (the extent of ranks ``[r0, r1)``)."""
        got = 0
        while got < len(view):
            n = os.preadv(self.fd, [view[got:]], offset + got)
            if not n:
                raise self.truncated(r0, r1, offset + len(view))
            got += n

    def mapped(self, dtype, start: int, count: int, r0: int, r1: int) -> np.ndarray:
        """Read-only map of items ``[start, start + count)`` (the extent of ranks ``[r0, r1)``)."""
        dt = np.dtype(dtype)
        lo, hi = start * dt.itemsize, (start + count) * dt.itemsize
        if os.fstat(self.fd).st_size < hi:
            raise self.truncated(r0, r1, hi)
        base = lo - lo % mmap.ALLOCATIONGRANULARITY
        window = mmap.mmap(self.fd, hi - base, access=mmap.ACCESS_READ, offset=base)
        return np.frombuffer(window, dtype=dt, count=count, offset=lo - base)


class SpillSpool:
    """One run's spool directory: a segment file per exchange label, plus runs.

    Each exchange label owns one append-only ``<label>.data`` file of raw
    little-endian dtype bytes (``tofile`` format) and, when the send format
    has a second array, a parallel ``<label>.lens`` file of its bytes
    (supermer length bytes, or k-mer high bytes).  Where a destination
    rank's partition sits inside them is an in-memory index (see
    :class:`_SegmentFile`) — the directory holds a handful of large
    sequential files, not P small ones per round.  A one-shot drive dumps
    each table block as one ``run.r<first rank>.bin`` file for the merge
    (:meth:`write_run` / :meth:`map_run`).  A label nothing was written to
    has no file.  When an ``arena`` is given, coalescing and
    read-back buffers are borrowed from it instead of allocated fresh per
    call.
    """

    def __init__(self, base_dir: Path, *, arena: ScratchArena | None = None) -> None:
        self.dir, self._owner = owned_dir(base_dir, "spool-")
        self.arena = arena
        self.bytes_written = 0
        self.bytes_read = 0
        self._tally = threading.Lock()  # rank streams on a thread pool account concurrently
        self._segments: dict[tuple[str, bool], _SegmentFile] = {}
        self._run_files: dict[int, tuple[int, int, int]] = {}  # first rank -> (ranks, entries, CRC-32)

    def take(self, n: int, dtype) -> np.ndarray:
        """An uninitialised ``n``-item buffer, from the arena when there is one."""
        if self.arena is not None:
            return self.arena.take(n, dtype)
        return np.empty(n, dtype=dtype)

    def release(self, *arrays: np.ndarray | None) -> None:
        """Hand read/coalesce buffers back to the arena (no-op without one)."""
        if self.arena is not None:
            self.arena.release(*arrays)

    def _account_read(self, nbytes: int) -> None:
        with self._tally:
            self.bytes_read += nbytes
        _spill_counter("spill_bytes_read_total", "Bytes read back from spool files", nbytes)

    def _account_written(self, nbytes: int) -> None:
        with self._tally:
            self.bytes_written += nbytes
        _spill_counter("spill_bytes_written_total", "Bytes written to spool partition files", nbytes)

    def append_partitions(
        self, label: str, rank0: int, counts: np.ndarray, data: np.ndarray, *, lens: bool = False
    ) -> None:
        """Append the partitions of ranks ``rank0, rank0+1, ...`` in one write.

        ``data`` holds those ranks' partitions back to back, ``counts[i]``
        items for rank ``rank0 + i``, each in source-rank order.  A rank is
        appended once per label.
        """
        if data.shape[0] == 0:
            return
        seg = self._segments.get((label, lens))
        if seg is None:
            path = self.dir / f"{label}.{'lens' if lens else 'data'}"
            seg = self._segments[label, lens] = _SegmentFile(path, label)
        seg.append(rank0, counts, data)
        self._account_written(int(data.nbytes))

    def write_partition(
        self,
        label: str,
        rank: int,
        segments: list[np.ndarray],
        *,
        lens: bool = False,
    ) -> int:
        """Append ``segments`` (in source-rank order) as rank ``rank``'s partition."""
        total = sum(int(seg.shape[0]) for seg in segments)
        if total == 0:
            return 0
        buf = np.concatenate(segments, out=self.take(total, segments[0].dtype))
        self.append_partitions(label, rank, np.array([total]), buf, lens=lens)
        self.release(buf)
        return int(buf.nbytes)

    def map_partition(self, label: str, rank: int, dtype, *, lens: bool = False) -> np.ndarray:
        """Read-only map of one partition (empty array if nothing was spooled)."""
        seg = self._segments.get((label, lens))
        if seg is None or rank >= seg.counts.shape[0] or not seg.counts[rank]:
            return np.empty(0, dtype=dtype)
        data = seg.mapped(dtype, int(seg.starts[rank]), int(seg.counts[rank]), rank, rank + 1)
        self._account_read(int(data.nbytes))
        return data

    def read_range(
        self,
        label: str,
        r0: int,
        r1: int,
        dtype,
        *,
        lens: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stream the partitions of ranks ``[r0, r1)`` back, concatenated in rank order.

        Partitions that sit back to back in the file — a whole rank block
        of an exchange does — come in with one positional read into an
        arena-recycled buffer (or the front of ``out`` when given), so the
        count phase pays readahead-sized I/O instead of per-page faults or
        per-rank opens.  Returns the filled array (length 0 when nothing
        was spooled for these ranks).
        """
        dt = np.dtype(dtype)
        seg = self._segments.get((label, lens))
        starts, counts = seg.extents(r0, r1) if seg is not None else (np.zeros(0, np.int64),) * 2
        total = int(counts.sum())
        data = out[:total] if out is not None else self.take(total, dt)
        if total == 0:
            return data
        view = memoryview(data).cast("B")
        # One read per run of file-adjacent partitions (one in all when the
        # ranks were appended in order).
        ends = starts + counts
        cuts = np.flatnonzero(starts[1:] != ends[:-1]) + 1
        pos = 0
        for a, b in zip((0, *cuts), (*cuts, starts.shape[0])):
            nbytes = int(ends[b - 1] - starts[a]) * dt.itemsize
            seg.read_into(view[pos : pos + nbytes], int(starts[a]) * dt.itemsize, r0, r1)
            pos += nbytes
        self._account_read(pos)
        return data

    def drop_partitions(self, label: str) -> None:
        """Delete a label's files — once its last rank is counted.

        A segment file is shared by every rank, so it is freed whole: a
        round's spool bytes stay on disk until the count phase is through.
        """
        for lens in (False, True):
            seg = self._segments.pop((label, lens), None)
            if seg is not None:
                os.close(seg.fd)
                seg.path.unlink(missing_ok=True)

    def append_round(self, label: str, round_: SendRound, counts: np.ndarray, starts: np.ndarray) -> None:
        """Append the disk form of one round's receive side to the label's file, block by block.

        The disk form is every destination's partition in rank order, each
        holding its sources' segments in source-rank order — byte-identical
        to what a resident count gathers, because it is that gather
        (:func:`_gather`, one index per block shared by the payload and its
        length bytes) over the round's cache-sized destination blocks
        (:func:`~repro.mpi.collectives.segment_blocks` of the exchange's cut
        of the round, ``counts`` and ``starts``), straight out of the send
        array, with each block landing in a borrowed buffer and one write.
        The transient is one block's outputs and its index.
        """
        item_bytes = sum(array.itemsize for array in round_.send.arrays)
        for blk in segment_blocks(counts, item_bytes, starts):
            outs = _gather(round_, blk, self.take)
            recv_counts = blk.counts.sum(axis=0)
            for out, lens in zip(outs, (False, True)):
                self.append_partitions(label, blk.d0, recv_counts, out, lens=lens)
            self.release(*outs)

    def write_run(self, rank0: int, keys: np.ndarray, counts: np.ndarray, *, n_ranks: int = 1) -> tuple[int, int]:
        """Persist the ``(keys, counts)`` pairs of ranks ``rank0 .. rank0 + n_ranks - 1`` as ``run.r<rank0>.bin``.

        One raw file — the uint64 keys, then their int64 counts, in any
        order (a table block's occupied slots) — and one index entry: its
        ranks, entry count and CRC-32 (:meth:`index_runs`).  Returns
        ``(entries, crc)``.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        with open(self.dir / f"run.r{rank0}.bin", "wb") as fh:
            keys.tofile(fh)
            counts.tofile(fh)
        entries, crc = int(keys.shape[0]), zlib.crc32(counts, zlib.crc32(keys))
        self.index_runs(rank0, n_ranks, entries, crc)
        self._account_written(16 * entries)
        _spill_counter("spill_merge_runs_total", "Run files written for the spooled merge", 1)
        return entries, crc

    def index_runs(self, rank0: int, n_ranks: int, entries: int, crc: int) -> None:
        """Record that ``run.r<rank0>.bin`` holds ``entries`` pairs of ``n_ranks`` ranks, with CRC-32 ``crc``.

        :meth:`write_run` does; the driving process repeats it for files
        an out-of-process worker wrote.
        """
        with self._tally:
            self._run_files[rank0] = (n_ranks, entries, crc)

    def map_run(self, rank0: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(keys, counts)`` views of one map of ``run.r<rank0>.bin``.

        The file must be exactly as long as its index entry says and hold
        the bytes its CRC-32 was taken of: anything else is an ``OSError``
        naming file, ranks and the expected and found bytes or CRC, never
        pairs read at the wrong offsets or with a flipped bit.
        """
        n_ranks, entries, crc = self._run_files[rank0]
        path = self.dir / f"run.r{rank0}.bin"
        ranks = f"rank {rank0}" if n_ranks == 1 else f"ranks {rank0}..{rank0 + n_ranks - 1}"
        need = 16 * entries  # 8 B key + 8 B count per entry
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size != need:
            raise OSError(
                f"spool run file {path} ({ranks}) is truncated or overlong: expected {need} bytes, found {size}"
            )
        words = np.memmap(path, dtype=np.uint64, mode="r", shape=(2 * entries,)) if need else np.empty(0, np.uint64)
        found = zlib.crc32(words)
        if found != crc:
            raise OSError(
                f"spool run file {path} ({ranks}) is corrupt: stored CRC-32 {crc:#010x}, found {found:#010x}"
            )
        self._account_read(need)
        return words[:entries], words[entries:].view(np.int64)

    def pending_files(self) -> tuple[int, int]:
        """(file count, total bytes) still sitting in the spool directory."""
        files = [p for p in self.dir.iterdir() if p.is_file() and p.name != OWNER_FILE] if self.dir.exists() else []
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
        for seg in self._segments.values():
            os.close(seg.fd)
        self._segments.clear()
        if self._owner is not None:
            release_dir(self.dir, self._owner)
            self._owner = None


class _RunFile:
    """One run file as a deferred merge pair: its entry count from the spool's index, its pairs mapped on call."""

    def __init__(self, spool: SpillSpool, rank0: int) -> None:
        self.spool, self.rank0 = spool, rank0
        self.entries = spool._run_files[rank0][1]

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        return self.spool.map_run(self.rank0)


def external_merge(runs: list[tuple[np.ndarray, np.ndarray]], k: int) -> KmerSpectrum:
    """:func:`~repro.core.stages.standard.merge_items` of ``runs``, without plugins.

    The spooled merge under the name ``benchmarks/perf/probes.py`` times.
    """
    return merge_items(runs, k)


def _gather(round_: SendRound, blk: SegmentBlock, take=np.empty) -> list[np.ndarray]:
    """Destinations ``[blk.d0, blk.d1)`` of a round's receive side, gathered straight out of its send array.

    The one block gather of both residencies — a resident count block's
    extent (:meth:`Resident._read`) and a spooled exchange's destination
    block (:meth:`SpillSpool.append_round`) — into ``take(items, dtype)``
    buffers: the payload, then its second array when the send format has one.
    """
    arrays = round_.send.arrays
    outs = [take(blk.o1 - blk.o0, array.dtype) for array in arrays]
    blk.take(arrays, outs)
    return outs


@dataclass
class ExchangedRound:
    """One exchanged round, as the count reads it: a record per round, made by its exchange."""

    label: str  # its exchange label (a spooled round's segment files are named by it)
    suffix: str  # its work leaves' suffix: "-round<r>" when the drive has more than one round
    offsets: np.ndarray  # the P + 1 destination offsets of its receive side
    view: SendRound | None  # resident: its view of the send array; spooled: None (read back by label)
    dtypes: tuple[np.dtype, ...]  # the send format: the payload's dtype, then its second array's


class Resident:
    """Residency in RAM: the send array is the receive side until the count, a block's dump is kept as arrays.

    Every residency runs one drive shape (Gerbil's two phases, PAPERS.md):
    the driver exchanges every round (:meth:`exchange`), then
    :meth:`count` counts one table block at a time — every round of the
    block's ranks, in round order, into a table born for the block (or
    the streamed state's), dumped and freed before the worker's next
    block — digests everything it read, and :meth:`merge` folds the
    dumps by :func:`~repro.core.stages.standard.merge_items`.  A residency
    chooses only where a round's receive segments live (:meth:`_read`)
    and where a block's dump goes (:meth:`_dump`): here nowhere but the
    send array — the exchange only accounts, and each count block gathers
    its extent of a round straight out of the send array
    (:func:`_gather`), which lives until the last block is counted — and
    RAM ``(keys, counts)`` arrays.  ``cleanup`` is the driver's exit scope.
    """

    def __init__(self, layout, cleanup) -> None:
        self.layout = layout
        self.sched = layout.sched
        self.exchange_leaf = layout.prefix + "exchange"  # work-leaf name of the exchange superstep
        self.merge_leaf = layout.prefix + "merge"
        self.rounds: list[ExchangedRound] = []  # one record per exchanged round, in round order
        self.dumps: list = []  # per table block, in rank order: what the merge reads

    def exchange(self, round_: SendRound, label: str, suffix: str, sctx) -> ExchangeOutcome:
        """Counts alltoall + payload alltoallv of one round: the accounting and the time model.

        The round is cut once, here, and that cut feeds the accounting and
        :meth:`_place`; it dies with this call.  One logical alltoallv for
        the payload (recorded into the traffic stats) and, in supermer mode, a second
        for the length bytes (counters only; their bytes ride in the
        payload's wire size).  A k-mer's high bytes are host form, not
        wire: Algorithm 1 sends one payload alltoallv of ``wire_bytes``
        words.  What the count needs of the round is its
        :class:`ExchangedRound`.
        """
        counts, starts = round_.cut()
        account_alltoallv(counts, stats=sctx.stats, label=label, bytes_per_item=sctx.config.wire_bytes)
        if sctx.supermer_mode:
            account_alltoallv(counts, stats=None, label=label, bytes_per_item=sctx.config.wire_bytes)
        offsets = np.zeros(counts.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=offsets[1:])
        place = self._place(round_, label, counts, starts)
        dtypes = tuple(array.dtype for array in round_.send.arrays)
        self.rounds.append(ExchangedRound(label, suffix, offsets, place, dtypes))
        return exchange_outcome(counts, sctx)

    def _place(self, round_: SendRound, label: str, counts: np.ndarray, starts: np.ndarray) -> SendRound | None:
        """Where a round's receive side lives until the count: here, nothing is moved — its view of the send array."""
        return round_

    def _read(self, rec: ExchangedRound, r0: int, r1: int, sctx):
        """A round's received items of ranks ``[r0, r1)``, ``(recv, lengths)``: gathered out of the send array."""
        recv, *lengths = _gather(rec.view, rec.view.block(r0, r1))
        return recv, lengths[0] if lengths else None

    def _release(self, *arrays) -> None:
        """Hand back what :meth:`_read` returned once it is counted (fresh arrays: nothing to do)."""

    def _drop_rounds(self) -> None:
        """Free the rounds' receive side once the last block is counted: here, the send array."""
        self.rounds.clear()

    def _dump(self, r0: int, table: SegmentedHashTable, sctx):
        """A counted one-shot block table's occupied slots, taken in one storage pass (``items_flat``)."""
        return table.items_flat()

    def _keep(self, r0: int, r1: int, dump) -> None:
        """Hold one block's dump for the merge, in the driving process."""
        self.dumps.append(dump)

    def _runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every block's ``(keys, counts)``, in rank order: what :meth:`merge` folds."""
        return self.dumps

    def born(self, hints) -> SegmentedHashTable:
        """A new table for a block of ranks, one region per hint, with the run's seed and backing."""
        return block_table(hints, self.sched.config.table_seed, self.sched.opts.table_dir)

    def tables(self, state, plan) -> list[SegmentedRankView]:
        """The streamed ``state``'s per-rank views, born in the plan's count blocks and at its birth hints if it holds no key.

        A state holding keys is counted through the blocks it has,
        whichever strategy chose them, so a strategy flip copies nothing,
        and a region grows only when a batch needs it to.  One holding none
        (fresh, or loaded from an empty checkpoint) is born in this drive's
        blocks at the plan's birth hints (each rank's parsed k-mers of the
        batch as far as the host budget holds their slots, else 64:
        :func:`~repro.core.stages.plan.plan_drive`); the empty regions'
        capacities are not read.
        """
        if any(t.n_entries for t in state.tables):
            return state.tables
        state.tables = [view for r0, r1 in plan.blocks for view in self.born(plan.births[r0:r1]).views()]
        return state.tables

    def map_blocks(self, fn, blocks: list, sctx) -> list:
        """``fn(block)`` for every ``(r0, r1, table)`` block, results in block order.

        On the layout's pool each closure touches its own block only, so
        any substrate equals the sequential loop; an out-of-process worker
        counts into a copy-on-write clone of a state's block table, whose
        state then travels back for the table here to adopt.
        """
        pool = sctx.pool
        if pool.in_process:
            return pool.map(fn, blocks, recorder=sctx.recorder)

        def shipped(block):
            out = fn(block)
            return out, None if block[2] is None else block[2].slabs()

        results = pool.map(shipped, blocks, recorder=sctx.recorder)
        for (_, _, table), (_, slabs) in zip(blocks, results):
            if table is not None:
                table.adopt(*slabs)
        return [out for out, _ in results]

    def count(self, state, plan, sctx, acct) -> tuple[tuple[list[int], list[float]], tuple]:
        """Count every round, one table block at a time; returns ``((entries, loads), received)``.

        ``(entries, loads)`` are the dumped tables' per rank; ``received``
        is the exchange checksum's received side, every block's digests of
        every round folded into one per array.

        Each block's count is private (its own table, its own extent of
        each round), so the pool may run blocks concurrently on any
        substrate.  The blocks are the drive plan's.  A one-shot drive
        (``state is None``) counts each block into a table born for it at
        the plan's hints, dumps it (:meth:`_dump`) and closes it before the
        worker's next block — peak residency in the
        count is the receive side (resident: the send array) plus one
        block's extent and table per worker, not P tables.  A batch counts
        into the state's tables, which are the cross-batch state itself,
        and dumps nothing.

        Every block takes the checksum of what it read
        (:func:`~repro.core.stages.standard.exchange_digest`) and returns it
        beside its counts, so every substrate folds the same digests; the
        driver compares the fold with the send side once
        (:func:`~repro.core.stages.standard.verify_exchange`).  A block
        whose read is short, or lacks an array of the send format, is not
        counted — the count body indexes the extent by the counts matrix —
        and the check refuses the drive.
        """
        count, recorder = self.sched.comp.count, sctx.recorder
        leaf = self.layout.prefix + "count"
        if state is None:
            blocks = [(r0, r1, None) for r0, r1 in plan.blocks]
        else:
            blocks = view_blocks(self.tables(state, plan))

        def _count_block(block):
            r0, r1, table = block
            one_shot = table is None
            if one_shot:
                table = self.born(plan.hints[r0:r1])
            try:
                counted, digests = [], []
                # Rounds run innermost, so each rank sees its rounds in order
                # (identical float accumulation in the accounting).
                for rec in self.rounds:
                    received = self._read(rec, r0, r1, sctx)
                    block_offsets = rec.offsets[r0 : r1 + 1] - rec.offsets[r0]
                    digests.append(digest := exchange_digest(received))
                    if len(digest) == len(rec.dtypes) and all(n == block_offsets[-1] for n, _ in digest):
                        t0 = perf_counter()
                        counted.append(count.count_block(table, *received, block_offsets, sctx, rank0=r0))
                        if recorder is not None:
                            recorder.record(leaf + rec.suffix, r0, t0, perf_counter(), ranks=[r0, r1])
                    self._release(*received)
                if not one_shot:
                    return counted, digests, None
                loads = table.n_entries_per_rank / table.capacities
                dumped = (self._dump(r0, table, sctx), table.n_entries_per_rank.tolist(), loads.tolist())
                return counted, digests, dumped
            finally:
                if one_shot:
                    table.close()

        counted_blocks = self.map_blocks(_count_block, blocks, sctx)
        received = fold_digests(digest for _, digests, _ in counted_blocks for digest in digests)
        self._drop_rounds()  # the last block is counted
        entries: list[int] = []
        loads: list[float] = []
        for (r0, r1, _), (counted, _, dumped) in zip(blocks, counted_blocks):
            for round_counted in counted:  # round order per rank: identical float accumulation
                acct.add_count(r0, *round_counted)
            if dumped is not None:
                dump, block_entries, block_loads = dumped
                self._keep(r0, r1, dump)
                entries.extend(block_entries)
                loads.extend(block_loads)
        return (entries, loads), received

    def merge(self) -> tuple[str, KmerSpectrum]:
        """``(work-leaf name, spectrum)``: :func:`~repro.core.stages.standard.merge_items` over the block dumps.

        The dumps are handed over, not kept: the merge frees each block's
        pairs once it has copied them.
        """
        runs, self.dumps = self._runs(), []
        return self.merge_leaf, merge_items(runs, self.sched.config.k, self.sched.comp.plugins)


class Spooled(Resident):
    """Residency on disk: a round's receive side lives in its segment file, a block's dump in a run file.

    Every round's receive side is gathered out of the send array, a
    destination block at a time, and appended to one spool directory per
    drive (:meth:`exchange`; the directory is removed by the driver's
    cleanup scope on any exit), so the driver drops the send array before
    the count.  The count reads a block's extent of each round back with
    one positional read (:meth:`_read`) — the checksum covers those reads,
    so a segment file changed on disk is caught — and a one-shot block's
    dump is one CRC-checked run file (:meth:`_dump`), mapped back for the
    merge.
    """

    def __init__(self, layout, cleanup) -> None:
        super().__init__(layout, cleanup)
        self.exchange_leaf = "spill:spool"  # one whole-cluster block on the driving thread
        self.merge_leaf = "spill:merge"
        self.spool = SpillSpool(Path(self.sched.opts.spill_dir), arena=layout.arena)
        # A failed exit is announced (engine.spill.cleanup) before removal.
        cleanup.push(lambda exc_type, *_: self.spool.close(failed=exc_type is not None))

    def _place(self, round_: SendRound, label: str, counts: np.ndarray, starts: np.ndarray) -> None:
        """Gather the round's receive side out of the send array into the label's segment file (:meth:`SpillSpool.append_round`)."""
        self.spool.append_round(label, round_, counts, starts)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", counts.shape[0])

    def _read(self, rec: ExchangedRound, r0: int, r1: int, sctx):
        """Ranks ``[r0, r1)`` of a round, read back from its segment files (the send format's) in one positional read each."""
        t0 = perf_counter()
        recv, *second = (self.spool.read_range(rec.label, r0, r1, dt, lens=i > 0) for i, dt in enumerate(rec.dtypes))
        if sctx.recorder is not None:
            sctx.recorder.record("spill:read" + rec.suffix, r0, t0, perf_counter(), ranks=[r0, r1])
        return recv, second[0] if second else None

    def _release(self, *arrays) -> None:
        self.spool.release(*arrays)

    def _drop_rounds(self) -> None:
        for rec in self.rounds:
            self.spool.drop_partitions(rec.label)
        self.rounds.clear()

    def _dump(self, r0: int, table: SegmentedHashTable, sctx):
        """Write ``table`` (ranks ``r0, r0 + 1, ...``) as one run file of its occupied slots; returns ``(entries, crc)``.

        One storage pass (``items_flat``, unsorted) and one file: the merge
        adjusts and sorts every block's pairs at once.
        """
        t0 = perf_counter()
        written = self.spool.write_run(r0, *table.items_flat(), n_ranks=table.n_ranks)
        if sctx.recorder is not None:
            sctx.recorder.record("spill:run-write", r0, t0, perf_counter(), ranks=[r0, r0 + table.n_ranks])
        return written

    def _keep(self, r0: int, r1: int, dump) -> None:
        self.spool.index_runs(r0, r1 - r0, *dump)  # again: an out-of-process worker indexed its own copy
        self.dumps.append(r0)

    def _runs(self) -> list:
        """Every block's run file as a deferred pair: :func:`merge_items` maps one at a time."""
        return [_RunFile(self.spool, r0) for r0 in self.dumps]
