"""Layer probes: the benchmark timing each layer's public functions from outside.

Each probe runs on inputs cut from the workload's own data, inside a
benchmark-side span that also carries the item and byte counts taken at
that boundary.  Kernel probes are called per shard — the block size the
engines use — and summed.  Inputs a probe needs from earlier layers are
built by :class:`CellData` *before* the span opens, so a span is exactly
the timed region.

A probe's metric is summed over the workload's cells where that layer is
on the program's path (``ON_PATH``).  Where no cell has it on the path the
probe still runs, on the first cell, so every metric exists on every
workload — with the prediction *no change*.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from repro import PipelineConfig
from repro.core.incremental import DistributedCounter
from repro.core.memory import ScratchArena
from repro.core.parallel import parallel_map
from repro.core.stages import SpillSpool, external_merge
from repro.dna.alphabet import get_ordering
from repro.dna.fastq import read_fastq
from repro.dna.reads import ReadSet
from repro.gpu.hashtable import DeviceHashTable, InsertStats
from repro.gpu.segmented import SegmentedHashTable
from repro.hashing.partition import owners_of
from repro.kmers.extract import window_values
from repro.kmers.kmerdb import write_kmerdb
from repro.kmers.minimizers import minimizers_for_windows
from repro.kmers.supermers import build_supermers_with_positions, extract_kmers_from_packed
from repro.mpi.collectives import alltoallv_flat, alltoallv_segments
from repro.mpi.costmodel import CommCostModel
from repro.mpi.stats import TrafficStats
from repro.mpi.topology import summit_gpu

from workloads import K, M, Bench, Cell, Workload, write_fastq_parts

_CONFIG = PipelineConfig(k=K, mode="supermer", minimizer_len=M)
WINDOW = _CONFIG.effective_window
ORDERING = _CONFIG.ordering
TABLE_SEED = _CONFIG.table_seed
CALIB_ELEMENTS = 4_000_000
CALIB_REPEATS = 5
DISPATCH_ITEMS = 96
SHM_RESULT_BYTES = 32 << 20
CPU_BOUND_ELEMENTS = 1_000_000


class SpanLog:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **tags: object) -> Iterator[dict]:
        row = {
            "id": len(self.rows) + 1,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "items": 0,
            "bytes": 0,
            **tags,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        row["start_s"] = perf_counter()
        try:
            yield row
        finally:
            row["end_s"] = perf_counter()
            self._open.pop()


def seconds(row: dict) -> float:
    return row["end_s"] - row["start_s"]


class CellData:
    """One cell's data at each layer boundary, built on demand."""

    def __init__(self, reads: ReadSet, cell: Cell, mode: str | None = None) -> None:
        self.reads = reads
        self.cell = cell
        self.mode = mode or cell.mode
        self.p = cell.n_ranks
        self.wire = _CONFIG.supermer_wire_bytes if self.mode == "supermer" else _CONFIG.kmer_wire_bytes
        self.label = f"{cell.dataset}/{cell.backend}-{self.mode}"

    def as_mode(self, mode: str) -> "CellData":
        """The same reads and ranks under the other transport (shares the shards)."""
        if mode == self.mode:
            return self
        other = CellData(self.reads, self.cell, mode)
        other.__dict__["shards"] = self.shards
        return other

    @cached_property
    def shards(self) -> list[ReadSet]:
        return self.reads.shard_bytes(self.p, K - 1)

    @cached_property
    def parsed(self) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
        """Per shard: (wire items, supermer length bytes, partition keys)."""
        out = []
        for shard in self.shards:
            if self.mode == "kmer":
                kmers = window_values(shard.codes, K).compact()
                out.append((kmers, None, kmers))
            else:
                batch, _ = build_supermers_with_positions(shard, K, M, window=WINDOW, ordering=ORDERING)
                out.append((batch.packed, batch.n_kmers.astype(np.uint8), batch.minimizers))
        return out

    @cached_property
    def capacity_hints(self) -> list[int]:
        """Per-rank table sizing, as the engines derive it from the parse."""
        parsed_kmers = [
            int(items.shape[0]) if lengths is None else int(lengths.sum(dtype=np.int64))
            for items, lengths, _ in self.parsed
        ]
        return [max(64, n // self.p + 16) for n in parsed_kmers]

    @cached_property
    def send(self) -> tuple[list[np.ndarray], list[np.ndarray] | None, np.ndarray]:
        """Destination-ordered send buffers per rank, and the counts matrix."""
        data, lens, counts = [], [], np.zeros((self.p, self.p), dtype=np.int64)
        for src, (items, lengths, keys) in enumerate(self.parsed):
            owners = owners_of(keys, self.p)
            order = np.argsort(owners, kind="stable")
            counts[src] = np.bincount(owners, minlength=self.p)
            data.append(items[order])
            if lengths is not None:
                lens.append(lengths[order])
        return data, (lens if self.mode == "supermer" else None), counts

    @cached_property
    def received(self) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        data, lens, counts = self.send
        recv = alltoallv_segments(data, list(counts))[0]
        recv_lens = alltoallv_segments(lens, list(counts))[0] if lens is not None else None
        return recv, recv_lens

    @cached_property
    def recv_kmers(self) -> list[np.ndarray]:
        """Per destination rank: the k-mers ready for insertion."""
        recv, lens = self.received
        if lens is None:
            return [np.ascontiguousarray(r, dtype=np.uint64) for r in recv]
        return [
            extract_kmers_from_packed(r, ln, K) if r.size else np.empty(0, dtype=np.uint64)
            for r, ln in zip(recv, lens, strict=True)
        ]

    @cached_property
    def flat_kmers(self) -> tuple[np.ndarray, np.ndarray]:
        """All ranks' k-mers as one rank-segmented array plus its offsets."""
        offsets = np.zeros(self.p + 1, dtype=np.int64)
        np.cumsum([k.shape[0] for k in self.recv_kmers], out=offsets[1:])
        return np.concatenate(self.recv_kmers), offsets

    @cached_property
    def tables(self) -> list[DeviceHashTable]:
        """Populated per-rank tables."""
        tables = self.fresh_tables()
        for table, kmers in zip(tables, self.recv_kmers, strict=True):
            if kmers.size:
                table.insert_batch(kmers)
        return tables

    def fresh_tables(self) -> list[DeviceHashTable]:
        return [DeviceHashTable(capacity_hint=h, seed=TABLE_SEED) for h in self.capacity_hints]


#: Whether a probe's layer is on the program's path for (workload, cell mode).
ON_PATH: dict[str, Callable[[Workload, str], bool]] = {
    "shard": lambda w, mode: True,
    "rank_array": lambda w, mode: mode == "supermer",
    "window_values": lambda w, mode: mode == "kmer",
    "minimizers": lambda w, mode: mode == "supermer",
    "build": lambda w, mode: mode == "supermer",
    "owners": lambda w, mode: True,
    "alltoallv": lambda w, mode: not w.fused and not w.spill,
    "alltoallv_flat": lambda w, mode: w.fused and not w.spill,
    "route": lambda w, mode: True,
    "unpack": lambda w, mode: mode == "supermer",
    "table_insert": lambda w, mode: not w.fused,
    "table_items": lambda w, mode: not w.fused,
    "table_update": lambda w, mode: w.streamed,
    "segmented_insert": lambda w, mode: w.fused and not w.streamed,
    "segmented_items": lambda w, mode: w.fused,
    "segmented_insert_mmap": lambda w, mode: w.streamed,
    "spool": lambda w, mode: w.spill,
    "runs": lambda w, mode: w.spill and not w.fused,
    "fastq": lambda w, mode: w.streamed,
    "kmerdb": lambda w, mode: w.streamed,
    "checkpoint": lambda w, mode: w.streamed,
}

#: On-path probes left out of the residual's sum: their time is already
#: inside another on-path probe's (``build`` calls ``minimizers`` calls
#: ``rank_array``), or they time a different volume than the op moves
#: (``table_update`` re-inserts per-rank; ``checkpoint`` saves one batch).
NOT_IN_RESIDUAL = {"rank_array", "minimizers", "table_update", "checkpoint"}


class Probes:
    """Runs every probe for one workload and accumulates raw sums.

    ``sums`` holds metric names for plain sums (seconds, counts) and
    ``_``-prefixed helpers that :meth:`metrics` turns into rates/ratios.
    """

    def __init__(self, bench: Bench, log: SpanLog, scale: float) -> None:
        self.bench = bench
        self.log = log
        self.scale = scale  # shrinks the fixed-size probes with the inputs (--smoke)
        # The fused workloads' own arena, so its footprint is the one a
        # fused pass left; a private one elsewhere.
        self.arena = bench.arena if bench.arena is not None else ScratchArena()
        self.sums: dict[str, float] = defaultdict(float)
        self.on_path_s = 0.0
        self._on = False
        self._in_residual = False
        self.scratch = bench.root / "probe"
        self.scratch.mkdir()

    @contextmanager
    def timed(self, name: str, where: str) -> Iterator[dict]:
        """A span around one timed region; its seconds add to ``<name>_s``."""
        with self.log.span(name, cell=where, on_path=self._on) as row:
            yield row
        self.sums[f"{name}_s"] += seconds(row)
        if self._in_residual:
            self.on_path_s += seconds(row)

    def _call(self, key: str, on: bool, probe: Callable, *args: object) -> None:
        self._on = on
        self._in_residual = on and key not in NOT_IN_RESIDUAL
        probe(*args)

    def run(self) -> None:
        w = self.bench.w
        cells = [CellData(self.bench.reads[c.dataset], c) for c in self.bench.cells]
        cell_probes = {
            "shard": self.shard,
            "rank_array": self.rank_array,
            "window_values": self.window_values,
            "minimizers": self.minimizers,
            "build": self.build,
            "owners": self.owners,
            "alltoallv": self.alltoallv,
            "alltoallv_flat": self.alltoallv_flat,
            "route": self.route,
            "unpack": self.unpack,
            "table_insert": self.table_insert,
            "table_items": self.table_items,
            "table_update": self.table_update,
            "segmented_insert": self.segmented_insert,
            "segmented_items": self.segmented_items,
            "segmented_insert_mmap": self.segmented_insert_mmap,
            "spool": self.spool,
            "runs": self.runs,
        }
        ever_on = {key: any(ON_PATH[key](w, c.mode) for c in cells) for key in cell_probes}
        for i, cell in enumerate(cells):
            for key, probe in cell_probes.items():
                on = ON_PATH[key](w, cell.mode)
                if on or (i == 0 and not ever_on[key]):
                    self._call(key, on, probe, cell)
            cells[i] = None  # drop this cell's cached arrays before the next
        mode = self.bench.cells[0].mode
        for key, probe in (("fastq", self.fastq), ("kmerdb", self.kmerdb), ("checkpoint", self.checkpoint)):
            self._call(key, ON_PATH[key](w, mode), probe)
        self._call("parallel", w.parallel != 1, self.parallel)
        self._call("arena", w.fused, self.arena_take)
        self._call("calib", False, self.calib)

    def metrics(self) -> dict[str, float]:
        s = self.sums
        out = {k: v for k, v in s.items() if not k.startswith("_")}
        out["dna.fastq.read_mb_per_s"] = s["_fastq_bytes"] / 1e6 / s["dna.fastq.read_s"]
        out["kmers.supermers.build_kmers_per_s"] = s["_build_kmers"] / s["kmers.supermers.build_s"]
        out["kmers.supermers.compression_ratio"] = s["_build_kmers"] / s["_supermers"]
        out["gpu.hashtable.insert_keys_per_s"] = s["_insert_keys"] / s["gpu.hashtable.insert_s"]
        out["gpu.hashtable.mean_probes"] = s["_probes"] / s["_insert_keys"]
        spool_s = s["core.stages.spill.spool_write_s"] + s["core.stages.spill.spool_read_s"]
        out["core.stages.spill.spool_mb_per_s"] = s["_spool_bytes"] / 1e6 / spool_s
        return out

    # -- dna / kmers -------------------------------------------------------

    def shard(self, cell: CellData) -> None:
        with self.timed("dna.reads.shard", cell.label) as row:
            shards = cell.reads.shard_bytes(cell.p, K - 1)
            row["items"], row["bytes"] = len(shards), int(cell.reads.codes.nbytes)
        cell.__dict__["shards"] = shards

    def rank_array(self, cell: CellData) -> None:
        ordering = get_ordering(ORDERING)
        mmers = [window_values(s.codes, M).values for s in cell.shards]
        with self.timed("dna.alphabet.rank_array", cell.label) as row:
            for values in mmers:
                ordering.rank_array(values, M)
            row["items"] = sum(int(v.shape[0]) for v in mmers)
            row["bytes"] = 8 * row["items"]

    def window_values(self, cell: CellData) -> None:
        shards = cell.shards
        with self.timed("kmers.extract.window_values", cell.label) as row:
            n = sum(int(window_values(s.codes, K).compact().shape[0]) for s in shards)
            row["items"], row["bytes"] = n, 8 * n

    def minimizers(self, cell: CellData) -> None:
        shards = cell.shards
        with self.timed("kmers.minimizers.minimizers", cell.label) as row:
            n = sum(minimizers_for_windows(s.codes, K, M, ORDERING).n_windows for s in shards)
            row["items"], row["bytes"] = n, 8 * n

    def build(self, cell: CellData) -> None:
        shards = cell.shards
        with self.timed("kmers.supermers.build", cell.label) as row:
            batches = [
                build_supermers_with_positions(s, K, M, window=WINDOW, ordering=ORDERING)[0] for s in shards
            ]
            row["items"] = sum(b.total_kmers for b in batches)
            row["bytes"] = sum(b.wire_bytes() for b in batches)
        self.sums["_build_kmers"] += row["items"]
        self.sums["_supermers"] += sum(len(b) for b in batches)

    def unpack(self, cell: CellData) -> None:
        recv, lens = cell.as_mode("supermer").received
        with self.timed("kmers.supermers.unpack", cell.label) as row:
            n = sum(int(extract_kmers_from_packed(r, ln, K).shape[0]) for r, ln in zip(recv, lens, strict=True))
            row["items"], row["bytes"] = n, 8 * n

    # -- hashing / mpi -----------------------------------------------------

    def owners(self, cell: CellData) -> None:
        keys = [k for _, _, k in cell.parsed]
        with self.timed("hashing.partition.owners", cell.label) as row:
            for k in keys:
                owners_of(k, cell.p)
            row["items"] = sum(int(k.shape[0]) for k in keys)
            row["bytes"] = 8 * row["items"]

    def alltoallv(self, cell: CellData) -> None:
        data, lens, counts = cell.send
        stats = TrafficStats()
        with self.timed("mpi.collectives.alltoallv", cell.label) as row:
            alltoallv_segments(data, list(counts), stats=stats, label="probe", bytes_per_item=cell.wire)
            if lens is not None:
                alltoallv_segments(lens, list(counts))
            row["items"] = int(counts.sum())
            row["bytes"] = int(stats.total_bytes())
        self.sums["mpi.collectives.exchanged_bytes"] += row["bytes"]

    def alltoallv_flat(self, cell: CellData) -> None:
        data, lens, counts = cell.send
        flat = np.concatenate(data)
        flat_lens = np.concatenate(lens) if lens is not None else None
        with self.timed("mpi.collectives.alltoallv_flat", cell.label) as row:
            borrowed = [alltoallv_flat(flat, counts, arena=self.arena)[0]]
            if flat_lens is not None:
                borrowed.append(alltoallv_flat(flat_lens, counts, arena=self.arena)[0])
            row["items"] = int(counts.sum())
            row["bytes"] = row["items"] * cell.wire
        self.arena.release(*borrowed)

    def route(self, cell: CellData) -> None:
        counts = cell.send[2]
        model = CommCostModel(cell.cell.cluster)
        bytes_matrix = counts.astype(np.float64) * cell.wire
        with self.timed("mpi.costmodel.route", cell.label) as row:
            model.alltoallv(bytes_matrix)
            row["items"], row["bytes"] = cell.p * cell.p, int(bytes_matrix.sum())

    # -- gpu ---------------------------------------------------------------

    def table_insert(self, cell: CellData) -> None:
        kmers, tables = cell.recv_kmers, cell.fresh_tables()
        stats = InsertStats.zero()
        with self.timed("gpu.hashtable.insert", cell.label) as row:
            for table, batch in zip(tables, kmers, strict=True):
                if batch.size:
                    stats = stats.combined(table.insert_batch(batch))
            row["items"] = stats.n_instances
            row["bytes"] = sum(t.table_bytes for t in tables)
        cell.__dict__["tables"] = tables
        self.sums["_insert_keys"] += stats.n_instances
        self.sums["_probes"] += stats.total_probes

    def table_items(self, cell: CellData) -> None:
        tables = cell.tables
        with self.timed("gpu.hashtable.items", cell.label) as row:
            row["items"] = sum(int(t.items()[0].shape[0]) for t in tables)
            row["bytes"] = 16 * row["items"]

    def table_update(self, cell: CellData) -> None:
        kmers, tables = cell.recv_kmers, cell.tables
        with self.timed("gpu.hashtable.update", cell.label) as row:
            for table, batch in zip(tables, kmers, strict=True):
                if batch.size:
                    table.insert_batch(batch)
            row["items"] = sum(int(b.shape[0]) for b in kmers)
            row["bytes"] = 8 * row["items"]
        del cell.__dict__["tables"]  # counts doubled: not a first-insert table any more

    def _segmented(self, cell: CellData, name: str, table_dir: Path | None) -> SegmentedHashTable:
        values, offsets = cell.flat_kmers
        table = SegmentedHashTable(cell.capacity_hints, seed=TABLE_SEED, table_dir=table_dir)
        with self.timed(name, cell.label) as row:
            table.insert_flat(values, offsets)
            row["items"], row["bytes"] = int(values.shape[0]), table.table_bytes
        return table

    def segmented_insert(self, cell: CellData) -> None:
        cell.__dict__["segmented"] = self._segmented(cell, "gpu.segmented.insert_flat", None)

    def segmented_items(self, cell: CellData) -> None:
        table = cell.__dict__.pop("segmented", None)
        if table is None:  # the timed insert probe did not run on this cell
            values, offsets = cell.flat_kmers
            table = SegmentedHashTable(cell.capacity_hints, seed=TABLE_SEED)
            table.insert_flat(values, offsets)
        with self.timed("gpu.segmented.items_flat", cell.label) as row:
            row["items"] = int(table.items_flat()[0].shape[0])
            row["bytes"] = 16 * row["items"]

    def segmented_insert_mmap(self, cell: CellData) -> None:
        self._segmented(cell, "gpu.segmented.insert_flat_mmap", self.scratch / "tables").close()

    # -- core.stages.spill -------------------------------------------------

    def spool(self, cell: CellData) -> None:
        data, _, counts = cell.send
        starts = np.zeros((cell.p, cell.p + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=starts[:, 1:])
        segments = [
            [data[src][starts[src, dst] : starts[src, dst + 1]] for src in range(cell.p)] for dst in range(cell.p)
        ]
        spool = SpillSpool(self.scratch / "spill", arena=self.arena)
        try:
            with self.timed("core.stages.spill.spool_write", cell.label) as row:
                for dst in range(cell.p):
                    spool.write_partition("probe", dst, segments[dst])
                row["items"], row["bytes"] = spool.pending_files()
            self.sums["core.stages.spill.spool_files"] += row["items"]
            with self.timed("core.stages.spill.spool_read", cell.label) as row:
                for dst in range(cell.p):
                    np.array(spool.map_partition("probe", dst, data[0].dtype))
                row["items"], row["bytes"] = int(counts.sum()), spool.bytes_read
            self.sums["_spool_bytes"] += spool.bytes_written + spool.bytes_read
        finally:
            spool.close()

    def runs(self, cell: CellData) -> None:
        pairs = [t.items() for t in cell.tables]
        spool = SpillSpool(self.scratch / "spill")
        try:
            with self.timed("core.stages.spill.run_write", cell.label) as row:
                for rank, (keys, counts) in enumerate(pairs):
                    spool.write_run(rank, keys, counts)
                row["items"], row["bytes"] = len(pairs), spool.bytes_written
            with self.timed("core.stages.spill.external_merge", cell.label) as row:
                merged = external_merge([spool.map_run(r) for r in range(cell.p)], K)
                row["items"], row["bytes"] = merged.n_distinct, spool.bytes_read
        finally:
            spool.close()

    # -- per-workload probes -----------------------------------------------

    def _first_reads(self) -> tuple[str, ReadSet]:
        return next(iter(self.bench.reads.items()))

    def fastq(self) -> None:
        name, reads = self._first_reads()
        paths = self.bench.fastq or write_fastq_parts(reads, self.scratch, 1)
        with self.timed("dna.fastq.read", name) as row:
            row["items"] = sum(ReadSet.from_records(read_fastq(p)).n_reads for p in paths)
            row["bytes"] = sum(p.stat().st_size for p in paths)
        self.sums["_fastq_bytes"] += row["bytes"]

    def kmerdb(self) -> None:
        name, _ = self._first_reads()
        spectrum = self.bench.expected[name]
        with self.timed("kmers.kmerdb.write", name) as row:
            row["bytes"] = write_kmerdb(self.scratch / "probe.rkdb", spectrum)
            row["items"] = spectrum.n_distinct

    def checkpoint(self) -> None:
        """Save and load a counter holding the first quarter of the reads (one batch)."""
        name, reads = self._first_reads()
        cell = self.bench.cells[0]
        config = PipelineConfig(k=K, mode=cell.mode, minimizer_len=M)
        cluster = summit_gpu(self.bench.nodes)
        counter = DistributedCounter(cluster, config)
        counter.add_reads(reads.select(range(reads.n_reads // 4)))
        path = self.scratch / "probe.ck.npz"
        with self.timed("core.incremental.checkpoint_save", name) as row:
            counter.save(path)
            row["items"], row["bytes"] = counter.total_kmers, path.stat().st_size
        self.sums["core.incremental.checkpoint_mb"] = row["bytes"] / 1e6
        fresh = DistributedCounter(cluster, config)
        with self.timed("core.incremental.checkpoint_load", name) as row:
            fresh.load(path)
            row["items"], row["bytes"] = fresh.total_kmers, path.stat().st_size

    def parallel(self) -> None:
        def noop(i: int) -> int:
            return i

        for label, setting in (("seq", 1), ("thread2", "thread:2"), ("process2", "process:2")):
            samples = []
            for _ in range(5):
                with self.log.span(f"core.parallel.dispatch.{label}", on_path=self._on) as row:
                    parallel_map(noop, range(DISPATCH_ITEMS), setting=setting)
                    row["items"] = DISPATCH_ITEMS
                samples.append(seconds(row))
            self.sums[f"core.parallel.dispatch_us.{label}"] = statistics.median(samples) * 1e6

        result_bytes = int(SHM_RESULT_BYTES * self.scale)

        def big(i: int) -> np.ndarray:
            return np.full(result_bytes // 8, i, dtype=np.int64)

        with self.log.span("core.parallel.shm", on_path=self._on) as row:
            parallel_map(big, range(2), setting="process:2")
            row["items"], row["bytes"] = 2, 2 * result_bytes
        self.sums["core.parallel.shm_mb_per_s"] = row["bytes"] / 1e6 / seconds(row)

        chunk = int(CPU_BOUND_ELEMENTS * self.scale)

        def cpu_bound(i: int) -> int:
            rng = np.random.default_rng(i)
            return int(np.sort(rng.integers(0, 1 << 62, chunk)).sum() & 0xFFFF)

        walls = {}
        for label, setting in (("seq", 1), ("process2", "process:2")):
            with self.log.span(f"core.parallel.cpu_bound.{label}", on_path=self._on) as row:
                parallel_map(cpu_bound, range(4), setting=setting)
                row["items"] = 4
            walls[label] = seconds(row)
        self.sums["core.parallel.ideal_speedup"] = walls["seq"] / walls["process2"]

    def arena_take(self) -> None:
        n = max(self.bench.kmers.values())
        self.arena.release(self.arena.take(n, np.uint64))  # pool a block of this size first
        reps = 1000
        with self.log.span("core.memory.arena_take", on_path=self._on) as row:
            for _ in range(reps):
                self.arena.release(self.arena.take(n, np.uint64))
            row["items"], row["bytes"] = reps, 8 * n
        self.sums["core.memory.arena_take_us"] = seconds(row) / reps * 1e6
        self.sums["core.memory.arena_footprint_mb"] = self.arena.footprint_bytes / 1e6

    def calib(self) -> None:
        """A fixed sort-and-expand, so a drifting machine shows next to its numbers."""
        x = np.random.default_rng(0).integers(0, 1 << 62, int(CALIB_ELEMENTS * self.scale)).astype(np.uint64)
        samples = []
        for _ in range(CALIB_REPEATS):
            with self.log.span("host.calib", on_path=False) as row:
                np.repeat(x[np.argsort(x, kind="stable")], 2)
                row["items"], row["bytes"] = int(x.shape[0]), int(x.nbytes)
            samples.append(seconds(row))
        self.sums["host.calib_s"] = statistics.median(samples)
