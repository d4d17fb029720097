"""The residency axis of the round driver: the exchange, receive buffers in RAM or on disk, their tables and the merge.

Held entirely in RAM, a run keeps the parsed send buffers, every rank's
received buffer, and all P hash-table partitions live simultaneously,
which caps the dataset registry at tiny scales.  Gerbil-style two-phase
counting (PAPERS.md) splits that: phase one hashes reads into
minimizer-keyed temporary partition files, phase two counts one partition
at a time.  We already partition by minimizer shard, so this module adds
the missing pieces:

* :class:`SpillSpool` — the spool directory: one append-only segment file
  per label (plus a ``.lens`` twin in supermer mode) with an in-memory
  ``rank → (item offset, count)`` index, filled a round at a time by
  :meth:`SpillSpool.append_round`, and one run file per table block — the
  block's occupied slots, unsorted — indexed by its ranks, entry count and
  CRC-32.

* :class:`Resident` | :class:`Spooled` — the two residencies the round
  driver (:meth:`repro.core.stages.scheduler.RoundScheduler._drive`)
  chooses between: the in-memory exchange (the paper's one ALLTOALLV per
  round) counted round by round, or every round spooled first
  (:meth:`Spooled.exchange`, the on-disk twin of :meth:`Resident.exchange`:
  the same traffic accounting, checksum and modeled time, only the data
  lands in the label's segment file) and the count phase streamed back from
  disk a table block at a time (see :class:`Spooled` for what stays
  resident).  Both count into the one kind of table, born here
  (:func:`block_table`): a block-local
  :class:`~repro.gpu.segmented.SegmentedHashTable` per rank block, whatever
  the layout, backed by ``table_dir`` when it is set.  Both merge by the one
  rule, :func:`~repro.core.stages.standard.merge_items` over per-block
  ``(keys, counts)`` pairs: a resident drive's from its tables, a spooled
  one's from its mapped run files.

Few large sequential files, as Gerbil's bins are (PAPERS.md): a round is
gathered out of the send array one destination block at a time — the
blocked gather of :func:`~repro.mpi.collectives.alltoallv_flat` that fills
the resident receive array too — and costs one ``open`` and one write per
block — Python-level work per round is one gather index per block, not P²
segment copies and P files — and is read back with positional reads at
indexed offsets through the descriptor opened at the first append, a whole
rank block at a time.  A file shorter than its index says is an
``OSError`` naming file, label, ranks and the expected and found bytes,
never a silently smaller count; a run file whose bytes no longer match
their CRC-32 is one too.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the resident
path's (``tests/test_spill.py`` enforces it, and ``TestModelCellsGolden``
replays the full-scale figure cells through it).  Only ``wall=True``
telemetry families (``spill_*``) differ.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import threading
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

from ...gpu.hashtable import SegmentedRankView
from ...gpu.segmented import SegmentedHashTable, table_blocks, view_blocks
from ...kmers.spectrum import KmerSpectrum
from ...mpi.collectives import account_alltoallv, alltoallv_flat, segment_blocks
from ...telemetry import active, event
from ..memory import ScratchArena
from .buffers import ExchangeOutcome, SendArray
from .standard import exchange_outcome, merge_items, merge_partitions

__all__ = [
    "Resident",
    "SpillSpool",
    "Spooled",
    "block_table",
    "external_merge",
    "table_hint",
]

def block_table(hints, seed: int, table_dir: Path | None = None) -> SegmentedHashTable:
    """A new table for one block of consecutive ranks, a region per capacity hint.

    The one place the engine's tables are born — a one-shot drive's and an
    empty state's, in the blocks of :func:`~repro.gpu.segmented.table_blocks`,
    and a fresh state's — and ``table_dir`` backs every one of them with
    ``np.memmap`` slabs (a checkpoint's tables are restored by
    :meth:`~repro.gpu.segmented.SegmentedHashTable.from_slots`).
    """
    return SegmentedHashTable(hints, seed=seed, table_dir=table_dir)


def table_hint(n_kmers: int, p: int) -> int:
    """A rank's table capacity hint: its shard's parsed k-mers over the ``p`` ranks, plus slack.

    The round driver and the SPMD rank program both size a rank's new
    region by it, so the two renderings start at one capacity.
    """
    return max(64, n_kmers // max(p, 1) + 16)


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
    little-endian dtype bytes (``tofile`` format) and, in supermer mode, a
    parallel ``<label>.lens`` file of length bytes.  Where a destination
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
        base_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="spool-", dir=base_dir))
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

    def map_segment(self, label: str, dtype, *, lens: bool = False) -> np.ndarray:
        """Read-only map of a label's whole segment file: every partition in rank order (empty if none).

        For checksum verification only: the reads are not accounted — the
        streamed count re-reads (and accounts) each partition later.
        """
        seg = self._segments.get((label, lens))
        if seg is None:
            return np.empty(0, dtype=dtype)
        return seg.mapped(dtype, 0, seg.n_items, 0, seg.counts.shape[0])

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

    def append_round(
        self, label: str, send_data: np.ndarray, send_lengths: np.ndarray | None, counts_matrix: np.ndarray
    ) -> None:
        """Append the disk form of one round's receive side to the label's file, block by block.

        The disk form is every destination's partition in rank order, each
        holding its sources' segments in source-rank order — byte-identical
        to the in-memory gather, because it is that gather
        (:func:`repro.mpi.collectives.segment_blocks` and
        :meth:`~repro.mpi.collectives.SegmentBlock.take`, one index per
        block shared by the payload and its length bytes) with each block
        landing in a borrowed buffer and one write instead of a slice of a
        whole-round receive array.  The transient is one block's outputs
        and its index.
        """
        sends = [send_data] if send_lengths is None else [send_data, send_lengths]
        sent = counts_matrix.sum(axis=1)
        src_base = np.cumsum(sent) - sent  # where each source starts in the send array
        for blk in segment_blocks(counts_matrix, sum(send.itemsize for send in sends)):
            outs = [self.take(blk.o1 - blk.o0, send.dtype) for send in sends]
            blk.take(sends, src_base, outs)
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
        for seg in self._segments.values():
            os.close(seg.fd)
        self._segments.clear()
        shutil.rmtree(self.dir, ignore_errors=True)


def external_merge(runs: list[tuple[np.ndarray, np.ndarray]], k: int) -> KmerSpectrum:
    """:func:`~repro.core.stages.standard.merge_items` of ``runs``, without plugins.

    The spooled merge under the name ``benchmarks/perf/probes.py`` times.
    """
    return merge_items(runs, k)


def block_recv(outcome: ExchangeOutcome, r0: int, r1: int):
    """Ranks ``[r0, r1)``'s received items back to back, ``(recv, lengths, offsets)``: slices of the receive array."""
    recv, lengths, offs = outcome.recv_data, outcome.recv_lengths, outcome.recv_offsets
    lo, hi = int(offs[r0]), int(offs[r1])
    return recv[lo:hi], lengths[lo:hi] if lengths is not None else None, offs[r0 : r1 + 1] - lo


class Resident:
    """Residency in RAM: the exchange in memory, counted round by round, merged in memory.

    The receive buffers of one round are live arrays, so the driver counts
    them inside the round and the next round overwrites them: block-local
    segmented tables (:meth:`tables`) counted a block per call of the count
    stage's ``count_block`` on the layout's pool.  ``cleanup`` is the driver's
    exit scope: it closes a one-shot drive's tables (their mmap slabs when
    ``table_dir`` is set) on any exit.
    """

    spooled = False

    def __init__(self, layout, cleanup) -> None:
        self.layout = layout
        self.sched = layout.sched
        self.cleanup = cleanup
        self.exchange_leaf = layout.prefix + "exchange"  # work-leaf name of the exchange superstep

    def exchange(self, send: SendArray, label: str, sctx) -> ExchangeOutcome:
        """Counts alltoall + payload alltoallv of one round, with exact accounting.

        Moves the data (real reshuffle through the collective layer),
        checks end-to-end checksums, and models the phase time
        (:func:`~repro.core.stages.standard.exchange_outcome`).  The round's
        src-major send array is gathered straight into one receive array
        with its ``P + 1`` destination offsets
        (:func:`~repro.mpi.collectives.alltoallv_flat`), the length bytes
        (supermer mode) likewise.
        """
        recv, recv_offsets = alltoallv_flat(
            send.data, send.counts, stats=sctx.stats, label=label, bytes_per_item=sctx.wire_bytes
        )
        recv_lens = None  # the length bytes' traffic rides in the payload's `wire` size
        if send.lengths is not None:
            recv_lens = alltoallv_flat(send.lengths, send.counts)[0]
        return exchange_outcome(send, recv, recv_lens, recv_offsets, label, sctx)

    def born(self, hints) -> SegmentedHashTable:
        """A new table for a block of ranks, one region per hint, with the run's seed and backing."""
        return block_table(hints, self.sched.config.table_seed, self.sched.opts.table_dir)

    def tables(self, state, hints: list[int], recv_items: np.ndarray) -> list[SegmentedRankView]:
        """Every rank's view of its block's table, in the blocks ``table_blocks(recv_items)`` gives.

        A one-shot drive's (``state is None``) are born here at ``hints``
        and closed on the drive's exit.  A state holding keys is counted
        through the blocks it has, whichever strategy chose them, so a
        strategy flip copies nothing; one holding none (fresh, or loaded
        from an empty checkpoint) is born again in this drive's blocks at
        the capacities it has.
        """
        if state is not None:
            if any(t.n_entries for t in state.tables):
                return state.tables
            # A region of c slots holds c * max_load_factor keys: the hint that sizes it c.
            hints = [int(t.capacity * t.max_load_factor) for t in state.tables]
        tables = []
        for r0, r1 in table_blocks(recv_items):
            table = self.born(hints[r0:r1])
            if state is None:
                self.cleanup.callback(table.close)
            tables.extend(table.views())
        if state is not None:
            state.tables = tables
        return tables

    def map_blocks(self, fn, blocks: list, sctx) -> list:
        """``fn(block)`` for every ``(r0, r1, table)`` block, results in block order.

        On the layout's pool each closure touches its own block only, so
        any substrate equals the sequential loop; an out-of-process worker
        counts into a copy-on-write clone of the block's table, whose state
        then travels back for the table here to adopt.
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

    def count_round(
        self, tables: list[SegmentedRankView], outcome: ExchangeOutcome, suffix: str, sctx, acct
    ) -> None:
        """Count one round's receive buffers into ``tables``, a block per count-stage ``count_block`` call."""
        count, recorder = self.sched.comp.count, sctx.recorder
        leaf = self.layout.prefix + "count" + suffix

        def _count(block):
            r0, r1, table = block
            t0 = perf_counter()
            counted = count.count_block(table, *block_recv(outcome, r0, r1), sctx, rank0=r0)
            if recorder is not None:
                recorder.record(leaf, r0, t0, perf_counter(), ranks=[r0, r1])
            return counted

        blocks = view_blocks(tables)
        for (r0, _, _), counted in zip(blocks, self.map_blocks(_count, blocks, sctx)):
            acct.add_count(r0, *counted)

    def merge(self, tables: list[SegmentedRankView]) -> tuple[str, KmerSpectrum]:
        """``(work-leaf name, spectrum)`` of the one-shot merge: the rule a streamed state merges by too."""
        spectrum = merge_partitions(tables, self.sched.config.k, self.sched.comp.plugins)
        return self.layout.prefix + "merge", spectrum

    def fill(self, tables: list[SegmentedRankView]) -> tuple[list[int], list[float]]:
        """Per-rank ``(entries, load factor)`` of the final partitions."""
        return [t.n_entries for t in tables], [t.load_factor for t in tables]


class Spooled(Resident):
    """Residency on disk: rounds are spooled, then streamed back and counted.

    Every round's receive side is appended to one spool directory per
    drive (:meth:`exchange`; the directory is removed by the driver's
    cleanup scope on any exit).  Once the driver has dropped the send
    buffers, :meth:`count` streams the partitions back one table block at a
    time: a block's extent of each round is one positional read
    (:meth:`_stream_rounds`), counted by the one count body.  A one-shot run
    counts each block into a table born for it, dumps the table's occupied
    slots as one run file and frees it before the next block — peak
    residency in the count is one block's partitions and table per worker,
    not P of them — and merges the mapped run files by the rule a resident
    drive merges its tables by (:func:`~repro.core.stages.standard.merge_items`),
    holding the spectrum it returns as a resident merge does.  A batch
    counts into the persistent tables, which are the cross-batch state
    itself.
    """

    spooled = True

    def __init__(self, layout, cleanup) -> None:
        super().__init__(layout, cleanup)
        self.exchange_leaf = "spill:spool"  # one whole-cluster block on the driving thread
        self.spool = SpillSpool(Path(self.sched.opts.spill_dir), arena=layout.arena)
        # A failed exit is announced (engine.spill.cleanup) before removal.
        cleanup.push(lambda exc_type, *_: self.spool.close(failed=exc_type is not None))
        self.labels: list[str] = []
        self.round_recv: list[np.ndarray] = []  # items received per rank, per round
        self.run_ranks: list[int] = []  # first rank of each run file, in rank order
        self.run_fill: tuple[list[int], list[float]] | None = None  # set once the run files are written

    def exchange(self, send: SendArray, label: str, sctx) -> ExchangeOutcome:
        """Counts alltoall + payload "alltoallv" of one round onto disk: the twin of :meth:`Resident.exchange`.

        The byte/item traffic record, the collective-layer telemetry
        counters, the end-to-end checksum and the modeled phase time come
        from the functions the in-memory exchange calls.  Only the data
        placement differs: the round's receive side is appended to the
        label's segment file (:meth:`SpillSpool.append_round`), and the
        outcome's receive array is one read-only map of that file, which
        exists only for the checksum pass (its reads are not accounted; the
        streamed count re-reads each partition).
        """
        counts_matrix, wire, spool = send.counts, sctx.wire_bytes, self.spool
        # One logical alltoallv for the payload (recorded into the traffic
        # stats), and in supermer mode a second one for the length bytes
        # (counters only; its bytes ride in the payload's `wire` size).
        account_alltoallv(counts_matrix, stats=sctx.stats, label=label, bytes_per_item=wire)
        if send.lengths is not None:
            account_alltoallv(counts_matrix, stats=None, label=label, bytes_per_item=wire)
        spool.append_round(label, send.data, send.lengths, counts_matrix)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", counts_matrix.shape[0])

        recv_items = counts_matrix.sum(axis=0)
        recv_offsets = np.zeros(recv_items.shape[0] + 1, dtype=np.int64)
        np.cumsum(recv_items, out=recv_offsets[1:])
        recv_data = spool.map_segment(label, send.data.dtype)
        recv_lengths = None if send.lengths is None else spool.map_segment(label, np.uint8, lens=True)
        outcome = exchange_outcome(send, recv_data, recv_lengths, recv_offsets, label, sctx)
        self.labels.append(label)
        self.round_recv.append(recv_items)
        return outcome

    def count(self, state, hints: list[int], sctx, acct):
        """Stream every spooled round back and count it; returns a batch's tables (``None`` one-shot)."""
        recv_items = np.sum(self.round_recv, axis=0)
        tables = None if state is None else self.tables(state, hints, recv_items)
        self._stream_ranks(tables, hints, recv_items, sctx, acct)
        return tables

    def _stream_rounds(self, r0: int, r1: int, count, leaf: str, sctx) -> list:
        """Read ranks ``[r0, r1)`` of every round back, in round order, and count each.

        A block's partitions are contiguous in a round's segment file, so
        each round is one positional read into an arena buffer, handed to
        ``count(recv, lengths, recv_offsets)`` — a closure over the one
        count body and the block's table.  Returns its ``(times, n_seen,
        stats)`` per round.  Rounds run innermost, so each rank sees its
        rounds in order (identical float accumulation in the accounting).
        """
        spool, recorder = self.spool, sctx.recorder
        counted = []
        for rnd, label in enumerate(self.labels):
            suffix = f"-round{rnd}" if len(self.labels) > 1 else ""
            offsets = np.zeros(r1 - r0 + 1, dtype=np.int64)
            np.cumsum(self.round_recv[rnd][r0:r1], out=offsets[1:])
            t0 = perf_counter()
            recv = spool.read_range(label, r0, r1, np.uint64)
            lengths = spool.read_range(label, r0, r1, np.uint8, lens=True) if sctx.supermer_mode else None
            if recorder is not None:
                recorder.record("spill:read" + suffix, r0, t0, perf_counter(), ranks=[r0, r1])
            t0 = perf_counter()
            counted.append(count(recv, lengths, offsets))
            if recorder is not None:
                recorder.record(leaf + suffix, r0, t0, perf_counter(), ranks=[r0, r1])
            spool.release(recv, lengths)
        return counted

    def _stream_ranks(self, tables, hints: list[int], recv_items: np.ndarray, sctx, acct) -> None:
        """The streamed count, one table block at a time (:meth:`map_blocks`).

        Each block's stream is private in memory (its own table) and on
        disk (its own extent of each round's segment file, read at an
        offset through the shared descriptor, and its own run file), so the
        pool may run block streams concurrently on any substrate.
        ``tables is None`` is the one-shot run: a table born per block,
        dumped as one run file and closed before the worker's next block.
        """
        spool, count = self.spool, self.sched.comp.count
        leaf = self.layout.prefix + "count"
        if tables is None:
            blocks = [(r0, r1, None) for r0, r1 in table_blocks(recv_items)]
        else:
            blocks = view_blocks(tables)

        def _stream_one(block):
            r0, r1, table = block
            one_shot = table is None
            if one_shot:
                table = self.born(hints[r0:r1])
            try:
                counted = self._stream_rounds(
                    r0, r1, lambda *received: count.count_block(table, *received, sctx, rank0=r0), leaf, sctx
                )
                return counted, self._dump_run(r0, table, sctx) if one_shot else None
            finally:
                if one_shot:
                    table.close()

        streamed = self.map_blocks(_stream_one, blocks, sctx)
        for label in self.labels:  # the last block is counted: free the rounds' files
            spool.drop_partitions(label)
        fill: tuple[list[int], list[float]] = ([], [])
        for (r0, r1, _), (counted, kept) in zip(blocks, streamed):
            for round_counted in counted:  # round order per rank: identical float accumulation
                acct.add_count(r0, *round_counted)
            if kept is not None:
                entries, crc, n_entries, loads = kept
                spool.index_runs(r0, r1 - r0, entries, crc)
                self.run_ranks.append(r0)
                fill[0].extend(n_entries.tolist())
                fill[1].extend(loads.tolist())
        if tables is None:
            self.run_fill = fill

    def _dump_run(self, r0: int, table: SegmentedHashTable, sctx):
        """Dump ``table`` (ranks ``r0, r0 + 1, ...``) as one run file of its occupied slots.

        One storage pass (``items_flat``, unsorted) and one file: the merge
        adjusts and sorts every block's pairs at once, as it does a resident
        drive's tables.  Returns ``(entries, crc, per-rank entries, per-rank loads)``.
        """
        t0 = perf_counter()
        entries, crc = self.spool.write_run(r0, *table.items_flat(), n_ranks=table.n_ranks)
        if sctx.recorder is not None:
            sctx.recorder.record("spill:run-write", r0, t0, perf_counter(), ranks=[r0, r0 + table.n_ranks])
        return entries, crc, table.n_entries_per_rank, table.n_entries_per_rank / table.capacities

    def merge(self, tables) -> tuple[str, KmerSpectrum]:
        """``(work-leaf name, spectrum)``: :func:`~repro.core.stages.standard.merge_items` over the run files."""
        runs = [self.spool.map_run(r0) for r0 in self.run_ranks]
        return "spill:merge", merge_items(runs, self.sched.config.k, self.sched.comp.plugins)

    def fill(self, tables) -> tuple[list[int], list[float]]:
        return self.run_fill
