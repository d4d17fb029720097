"""The residency axis of the round driver: receive buffers in RAM or on disk, and their tables.

Held entirely in RAM, a run keeps the parsed send buffers, every rank's
received buffer, and all P hash-table partitions live simultaneously,
which caps the dataset registry at tiny scales.  Gerbil-style two-phase
counting (PAPERS.md) splits that: phase one hashes reads into
minimizer-keyed temporary partition files, phase two counts one partition
at a time.  We already partition by minimizer shard, so this module adds
the missing pieces:

* :class:`SpillExchange` — a sibling of
  :class:`~repro.core.stages.standard.AlltoallvExchange` that appends each
  round's receive side — every destination's partition in rank order — to
  one segment file per exchange label in a spool directory, instead of
  materializing in-memory receive buffers.  Byte/item traffic accounting
  and the modeled exchange time are computed through the identical code
  paths, so every model observable matches the in-memory exchange bit for
  bit; the returned receive "buffers" are read-only views of one memory
  map of that file.

* :class:`SpillSpool` — the spool directory: one append-only segment file
  per label (plus a ``.lens`` twin in supermer mode) with an in-memory
  ``rank → (item offset, count)`` index, and one file of sorted runs per
  rank block, indexed by the runs' lengths.

* :class:`Resident` | :class:`Spooled` — the two residencies the round
  driver (:meth:`repro.core.stages.scheduler.RoundScheduler._drive`)
  chooses between: the layout's own in-memory exchange, or every round
  spooled first and the count phase streamed back from disk a table block
  at a time (see :class:`Spooled` for what stays resident).  Both
  count into the one kind of table, born here (:func:`block_table`): a
  block-local :class:`~repro.gpu.segmented.SegmentedHashTable` per rank
  block, whatever the layout, backed by ``table_dir`` when it is set.

Few large sequential files, as Gerbil's bins are (PAPERS.md): a round is
gathered one destination block at a time — the blocked segment gather of
:mod:`repro.mpi.collectives` that fills the resident receive buffers too —
and costs one ``open`` and one write per block — Python-level work per round is P slices per block, not
P² segment copies and P files — and is read back with positional reads at
indexed offsets through the descriptor opened at the first append, a whole
rank block at a time.  A file shorter than its index says is an
``OSError`` naming file, label, ranks and the expected and found bytes,
never a silently smaller count.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the resident
path's (``tests/test_spill.py`` enforces it, and ``TestModelCellsGolden``
replays the full-scale figure cells through it).  Only ``wall=True``
telemetry families (``spill_*``) differ.  Compositions with custom
exchange/merge stages fall back to the resident path with an
``engine.spill.fallback`` event, never an error.
"""

from __future__ import annotations

import heapq
import mmap
import os
import shutil
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from ...gpu.hashtable import SegmentedRankView
from ...gpu.segmented import SegmentedHashTable, table_blocks, view_blocks
from ...kmers.spectrum import KmerSpectrum
from ...mpi.collectives import account_alltoallv, segment_blocks, send_counts_matrix
from ...telemetry import active, event
from ..memory import ScratchArena
from .buffers import ExchangeOutcome, joined
from .registry import StageComposition
from .standard import AlltoallvExchange, SpectrumMerge, TableCount, exchange_outcome, merge_counts

__all__ = [
    "Resident",
    "SpillExchange",
    "SpillSpool",
    "Spooled",
    "block_table",
    "external_merge",
    "supports_spill",
]

#: Keys loaded from each sorted run per refill during the external merge.
MERGE_BLOCK_KEYS = 1 << 16


def block_table(hints, seed: int, table_dir: Path | None = None) -> SegmentedHashTable:
    """A new table for one block of consecutive ranks, a region per capacity hint.

    The one place the engine's tables are born — a one-shot drive's and an
    empty state's, in the blocks of :func:`~repro.gpu.segmented.table_blocks`,
    and a fresh state's — and ``table_dir`` backs every one of them with
    ``np.memmap`` slabs (a checkpoint's tables are restored by
    :meth:`~repro.gpu.segmented.SegmentedHashTable.from_slots`).
    """
    return SegmentedHashTable(hints, seed=seed, table_dir=table_dir)


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
    sequential files, not P small ones per round.  Sorted runs for the
    external merge are one ``run.r<first rank>.bin`` file per rank block
    (:meth:`write_runs`); :meth:`write_run` / :meth:`map_run` are its
    one-rank case.  A label nothing was
    written to has no file.  When an ``arena`` is given, coalescing and
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
        self._run_files: dict[int, np.ndarray] = {}  # first rank of a run file -> its runs' entry counts

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

    def map_partitions(self, label: str, p: int, dtype, *, lens: bool = False) -> list[np.ndarray]:
        """Every rank's partition in ``range(p)`` as read-only views of one map of the file.

        For checksum verification only: the reads are not accounted — the
        streamed count re-reads (and accounts) each partition later.
        """
        seg = self._segments.get((label, lens))
        if seg is None:
            return [np.empty(0, dtype=dtype)] * p
        whole = seg.mapped(dtype, 0, seg.n_items, 0, p)
        starts, counts = np.pad(seg.starts, (0, p))[:p], np.pad(seg.counts, (0, p))[:p]
        return [whole[s : s + n] for s, n in zip(starts.tolist(), counts.tolist())]

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

    def read_partition(
        self,
        label: str,
        rank: int,
        dtype,
        *,
        lens: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`read_range` of the one rank ``rank``."""
        return self.read_range(label, rank, rank + 1, dtype, lens=lens, out=out)

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

    def write_runs(self, rank0: int, runs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Persist the sorted ``(keys, counts)`` runs of ranks ``rank0, rank0 + 1, ...`` as one file.

        One raw file per rank block — each run's uint64 keys followed by
        its int64 counts, the runs back to back — and one index entry
        (:meth:`index_runs`).  Returns the runs' entry counts.
        """
        entries = np.array([keys.shape[0] for keys, _ in runs], dtype=np.int64)
        with open(self.dir / f"run.r{rank0}.bin", "wb") as fh:
            for keys, counts in runs:
                np.ascontiguousarray(keys, dtype=np.uint64).tofile(fh)
                np.ascontiguousarray(counts, dtype=np.int64).tofile(fh)
        self.index_runs(rank0, entries)
        self._account_written(16 * int(entries.sum()))
        _spill_counter("spill_merge_runs_total", "Sorted runs produced for the external merge", len(runs))
        return entries

    def index_runs(self, rank0: int, entries: np.ndarray) -> None:
        """Record that ``run.r<rank0>.bin`` holds runs of ``entries[i]`` pairs for ranks ``rank0 + i``.

        :meth:`write_runs` does; the driving process repeats it for files
        an out-of-process worker wrote.
        """
        with self._tally:
            self._run_files[rank0] = entries

    def write_run(self, rank: int, keys: np.ndarray, counts: np.ndarray) -> None:
        """:meth:`write_runs` of the one rank ``rank``."""
        self.write_runs(rank, [(keys, counts)])

    def map_runs(self, rank0: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Read-only ``(keys, counts)`` views, one per rank, of one map of ``run.r<rank0>.bin``.

        The file must be exactly as long as its index entry says: anything
        else is an ``OSError`` naming file, ranks and the expected and
        found bytes, never runs read at the wrong offsets.
        """
        entries = self._run_files[rank0]
        path = self.dir / f"run.r{rank0}.bin"
        need = 16 * int(entries.sum())  # 8 B key + 8 B count per entry
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size != need:
            last = rank0 + entries.shape[0] - 1
            ranks = f"rank {rank0}" if last == rank0 else f"ranks {rank0}..{last}"
            raise OSError(
                f"spool run file {path} ({ranks}) is truncated or overlong: expected {need} bytes, found {size}"
            )
        words = np.memmap(path, dtype=np.uint64, mode="r", shape=(need // 8,)) if need else np.empty(0, np.uint64)
        self._account_read(need)
        bounds = np.concatenate([[0], np.cumsum(2 * entries)]).tolist()
        return [
            (words[lo : lo + n], words[lo + n : hi].view(np.int64))
            for lo, hi, n in zip(bounds, bounds[1:], entries.tolist())
        ]

    def map_all_runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every indexed run in rank order, each run file mapped once."""
        return [run for rank0 in sorted(self._run_files) for run in self.map_runs(rank0)]

    def map_run(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`map_runs` of the one-rank file ``run.r<rank>.bin`` (an empty run if never written)."""
        if rank not in self._run_files:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        return self.map_runs(rank)[0]

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


class SpillExchange:
    """Counts alltoall + payload "alltoallv" onto disk partitions.

    Accounting twin of :class:`AlltoallvExchange`: the byte/item traffic
    record, the collective-layer telemetry counters, the end-to-end
    checksum verification, and the modeled phase time all come from the
    functions the in-memory exchange calls.  Only the data
    placement differs — the round is gathered one destination block at a
    time (:func:`repro.mpi.collectives.segment_blocks`) into the label's
    segment file, and
    ``recv_data`` comes back as read-only views of one memory map of that
    file, which exist only for the checksum pass (their reads are not
    accounted; the streamed count re-reads each partition).  Like the
    in-memory exchange it takes per-source buffers, or a fused run's one
    send array with its ``(P, P)`` counts matrix.
    """

    def __init__(self, spool: SpillSpool) -> None:
        self.spool = spool

    def exchange(self, send_data, send_lengths, send_counts, label, ctx) -> ExchangeOutcome:
        flat = isinstance(send_data, np.ndarray)
        counts_matrix = send_counts if flat else send_counts_matrix(send_data, send_counts)
        p = counts_matrix.shape[0]
        wire = ctx.wire_bytes

        # Model accounting first, through the collective layer's own
        # function: one logical alltoallv for the payload (recorded into
        # the traffic stats), and in supermer mode a second one for the
        # length bytes (counters only; its bytes ride in the payload's
        # `wire` size).
        account_alltoallv(counts_matrix, stats=ctx.stats, label=label, bytes_per_item=wire)
        if send_lengths is not None:
            account_alltoallv(counts_matrix, stats=None, label=label, bytes_per_item=wire)

        self._spool_round(send_data, send_lengths, counts_matrix, label)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", p)

        recv_data = self.spool.map_partitions(label, p, (send_data if flat else send_data[0]).dtype)
        recv_lengths = None
        if send_lengths is not None:
            recv_lengths = self.spool.map_partitions(label, p, np.uint8, lens=True)

        return exchange_outcome(send_data, recv_data, recv_lengths, counts_matrix, label, ctx)

    def _spool_round(self, send_data, send_lengths, counts_matrix: np.ndarray, label: str) -> None:
        """Append the disk form of ``recv_data`` to the label's file, block by block.

        The disk form is every destination's partition in rank order, each
        holding its sources' segments in source-rank order — byte-identical
        to the in-memory gather, because it is that gather
        (:func:`repro.mpi.collectives.segment_blocks`) with each block
        landing in a borrowed buffer and one write instead of a slice of a
        whole-round receive array.  Per-source buffers are staged a block
        at a time (:meth:`~repro.mpi.collectives.SegmentBlock.gather`); a
        fused run's one send array is gathered from directly, with the
        block's index (:meth:`~repro.mpi.collectives.SegmentBlock.index`).
        The transient is one block's output and staging buffers plus its
        index.
        """
        spool = self.spool
        sends = [send_data] if send_lengths is None else [send_data, send_lengths]
        flat = isinstance(send_data, np.ndarray)
        dtypes = [(send if flat else send[0]).dtype for send in sends]
        sent = counts_matrix.sum(axis=1)
        src_base = np.cumsum(sent) - sent  # where each source starts in a fused run's send array
        for blk in segment_blocks(counts_matrix, sum(dt.itemsize for dt in dtypes)):
            outs = [spool.take(blk.o1 - blk.o0, dt) for dt in dtypes]
            if flat:
                idx = blk.index(src_base)
                for send, out in zip(sends, outs):
                    np.take(send, idx, out=out, mode="clip")
            else:
                blk.gather(sends, outs, spool.arena)
            recv_counts = blk.counts.sum(axis=0)
            for out, lens in zip(outs, (False, True)):
                spool.append_partitions(label, blk.d0, recv_counts, out, lens=lens)
            spool.release(*outs)


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
    unloaded keys exceed its last-loaded key.  Chunks are aggregated by
    :func:`~repro.core.stages.standard.merge_counts`, as the in-memory
    :class:`SpectrumMerge` is, so the concatenated chunk outputs equal
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
            uniq, merged = merge_counts(chunk_k, chunk_c)
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


def block_recv(outcome: ExchangeOutcome, r0: int, r1: int):
    """Ranks ``[r0, r1)``'s received items back to back: ``(recv, lengths, offsets)``.

    Slices of a fused exchange's one receive array; an exchange stage's
    per-destination buffers are joined (one rank's as it is).
    """
    recv, lengths, offs = outcome.recv_data, outcome.recv_lengths, outcome.recv_offsets
    if offs is None:
        offs = np.zeros(r1 - r0 + 1, dtype=np.int64)
        np.cumsum([buf.shape[0] for buf in recv[r0:r1]], out=offs[1:])
        return joined(recv[r0:r1]), joined(lengths[r0:r1]) if lengths is not None else None, offs
    lo, hi = int(offs[r0]), int(offs[r1])
    return recv[lo:hi], lengths[lo:hi] if lengths is not None else None, offs[r0 : r1 + 1] - lo


class Resident:
    """Residency in RAM: the exchange in memory, counted round by round.

    The receive buffers of one round are live arrays, so the driver counts
    them inside the round and the next round overwrites them: block-local
    segmented tables (:meth:`tables`) counted a block per call of
    :meth:`count_block` on the layout's pool.  ``cleanup`` is the driver's
    exit scope: it closes a one-shot drive's tables (their mmap slabs when
    ``table_dir`` is set) on any exit.
    """

    spooled = False

    def __init__(self, layout, cleanup) -> None:
        self.layout = layout
        self.sched = layout.sched
        self.cleanup = cleanup
        self.exchange_leaf = layout.prefix + "exchange"  # work-leaf name of the exchange superstep

    def exchange(self, round_send, label: str, sctx) -> ExchangeOutcome:
        return self.sched.comp.exchange.exchange(*self.layout.exchange_form(round_send), label, sctx)

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

    def count_block(self, table: SegmentedHashTable, r0: int, recv, lengths, offsets, sctx):
        """Count ranks ``r0, r0 + 1, ...`` — all of ``table``'s — from back-to-back receive segments.

        Returns ``(times, n_seen, stats)`` per rank.  The standard count
        stage runs the one count body over the block; a custom one is an
        unknown class and runs ``count_rank`` rank by rank on the table's
        views.
        """
        comp = self.sched.comp
        if type(comp.count) is TableCount:
            return comp.count.count_block(table, recv, lengths, offsets, sctx, rank0=r0)
        outcomes = [
            comp.substrate.count_rank(
                r0 + i,
                recv[offsets[i] : offsets[i + 1]],
                lengths[offsets[i] : offsets[i + 1]] if lengths is not None else None,
                table.view(i),
                comp.count,
                sctx,
            )
            for i in range(table.n_ranks)
        ]
        return (
            np.array([co.time_s for co in outcomes]),
            np.array([co.n_instances for co in outcomes], dtype=np.int64),
            [co.insert_stats for co in outcomes],
        )

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
        """Count one round's receive buffers into ``tables``, a block per :meth:`count_block` call."""
        recorder = sctx.recorder
        leaf = self.layout.prefix + "count" + suffix

        def _count(block):
            r0, r1, table = block
            t0 = perf_counter()
            counted = self.count_block(table, r0, *block_recv(outcome, r0, r1), sctx)
            if recorder is not None:
                recorder.record(leaf, r0, t0, perf_counter(), ranks=[r0, r1])
            return counted

        blocks = view_blocks(tables)
        for (r0, _, _), counted in zip(blocks, self.map_blocks(_count, blocks, sctx)):
            acct.add_count(r0, *counted)

    def merge(self, tables: list[SegmentedRankView]) -> tuple[str, KmerSpectrum]:
        """``(work-leaf name, spectrum)`` of the one-shot merge.

        The standard merge without plugins takes each block table's items
        in one storage pass — no per-rank key sorts, its ``np.unique``
        re-sorts anyway; any other merge sees every rank's table.
        """
        merge, k = self.sched.comp.merge, self.sched.config.k
        if type(merge) is SpectrumMerge and not merge.plugins:
            spectrum = merge.merge_items([table.items_flat() for _, _, table in view_blocks(tables)], k)
        else:
            spectrum = merge.merge_tables(tables, k)
        return self.layout.prefix + "merge", spectrum

    def fill(self, tables: list[SegmentedRankView]) -> tuple[list[int], list[float]]:
        """Per-rank ``(entries, load factor)`` of the final partitions."""
        return [t.n_entries for t in tables], [t.load_factor for t in tables]


class Spooled(Resident):
    """Residency on disk: rounds are spooled, then streamed back and counted.

    Every round's send buffers go through :class:`SpillExchange` into one
    spool directory per drive (removed by the driver's cleanup scope on
    any exit).  Once the driver has dropped the send buffers, :meth:`count`
    streams the partitions back one table block at a time: a block's
    extent of each round is one positional read (:meth:`_stream_rounds`),
    counted by the one count body.  A one-shot run counts each block into a table born for it,
    dumps the table as one file of sorted per-rank ``(key, count)`` runs
    and frees it before the next block, and merges the runs externally (a
    heap orders the run cursors, cf. the ``heapq`` idiom in
    :mod:`repro.ext.balanced`) — peak residency is one block's partitions
    and table per worker, not P of them.  A batch counts into the
    persistent tables, which are the cross-batch state itself.
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
        self.run_fill: tuple[list[int], list[float]] | None = None  # set once runs are written

    def exchange(self, round_send, label: str, sctx) -> ExchangeOutcome:
        # The outcome's receive views exist only for the checksum pass;
        # the streamed count re-reads each partition (with accounting).
        outcome = SpillExchange(self.spool).exchange(*self.layout.exchange_form(round_send), label, sctx)
        self.labels.append(label)
        self.round_recv.append(outcome.counts_matrix.sum(axis=0))
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
        dumped as one file of sorted per-rank runs and closed before the
        worker's next block.
        """
        spool = self.spool
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
                    r0, r1, lambda *received: self.count_block(table, r0, *received, sctx), leaf, sctx
                )
                return counted, self._dump_runs(r0, table, sctx) if one_shot else None
            finally:
                if one_shot:
                    table.close()

        streamed = self.map_blocks(_stream_one, blocks, sctx)
        for label in self.labels:  # the last block is counted: free the rounds' files
            spool.drop_partitions(label)
        fill: tuple[list[int], list[float]] = ([], [])
        for (r0, _, _), (counted, kept) in zip(blocks, streamed):
            for round_counted in counted:  # round order per rank: identical float accumulation
                acct.add_count(r0, *round_counted)
            if kept is not None:
                spool.index_runs(r0, kept[0])
                fill[0].extend(kept[1].tolist())
                fill[1].extend(kept[2].tolist())
        if tables is None:
            self.run_fill = fill

    def _dump_runs(self, r0: int, table: SegmentedHashTable, sctx):
        """Dump ``table`` (ranks ``r0, r0 + 1, ...``) as one run file; returns ``(entries, fill, loads)``."""
        t0 = perf_counter()
        runs = []
        for i in range(table.n_ranks):
            values, counts = table.items_of(i)
            for plugin in self.sched.comp.merge.plugins:
                values, counts = plugin.adjust_merge_items(values, counts)
            if values.size > 1 and not np.all(values[1:] > values[:-1]):
                order = np.argsort(values, kind="stable")
                values, counts = values[order], counts[order]
            runs.append((values, counts))
        entries = self.spool.write_runs(r0, runs)
        if sctx.recorder is not None:
            sctx.recorder.record("spill:run-write", r0, t0, perf_counter(), ranks=[r0, r0 + table.n_ranks])
        return entries, table.n_entries_per_rank, table.n_entries_per_rank / table.capacities

    def merge(self, tables) -> tuple[str, KmerSpectrum]:
        return "spill:merge", external_merge(self.spool.map_all_runs(), self.sched.config.k)

    def fill(self, tables) -> tuple[list[int], list[float]]:
        return self.run_fill
