"""The seven workloads: inputs, one op, verification, and the path each names.

Imported only inside benchmark worker processes (``harness.py``); the
parent ``run.py`` never imports the program.  Every op goes through the
repo's public entry points — ``run_pipeline`` or ``repro.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import EngineOptions, PipelineConfig, count_kmers_exact, load_dataset, run_pipeline
from repro.cli import main as repro_cli
from repro.core.memory import ScratchArena
from repro.dna.datasets import TABLE1
from repro.dna.fastq import SequenceRecord, write_fastq
from repro.dna.reads import ReadSet
from repro.hashing.partition import owners_of
from repro.kmers.extract import extract_kmers
from repro.kmers.kmerdb import read_kmerdb
from repro.kmers.spectrum import KmerSpectrum
from repro.mpi.topology import ClusterSpec, summit_cpu, summit_gpu
from repro.telemetry import MetricRegistry
from repro.telemetry.spans import span_payload

K = 17
M = 7
STREAM_FILES = 4
#: Host working-set bytes the engine charges per received k-mer when it
#: sizes rounds to ``host_memory_budget`` (8 B wire item x2, 8 B key, one
#: 16 B table slot at 0.7 load).  A budget of two thirds of the fullest
#: rank's working set makes ``n_rounds_used == 2``; the traced pass
#: asserts it.
HOST_BYTES_PER_KMER = 8 * 2 + 8.0 + 16 / 0.7

FIG6A = (("cpu", "kmer"), ("gpu", "kmer"), ("gpu", "supermer"))


@dataclass(frozen=True)
class Workload:
    """What one workload runs and the execution path it claims to take."""

    name: str
    datasets: tuple[tuple[str, float], ...]  # (Table I name, scale at --scale 1)
    variants: tuple[tuple[str, str], ...]  # (backend, mode), run on every dataset
    strategy: str  # the run span's strategy
    pool: str = "SequentialPool"  # the only pool class telemetry may name
    rounds: int = 1  # n_rounds_used
    fused: bool = False
    parallel: int | str = 1
    spill: bool = False
    streamed: bool = False  # through `repro count`, one FASTQ file per batch
    full_scale_model: bool = False  # pass the Table I work multiplier


_GRID = (("ecoli30x", 1.0), ("abaumannii30x", 1.0))
_BULK = (("ecoli30x", 4.0),)
_OOC = (("ecoli30x", 2.0),)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("grid-staged", _GRID, FIG6A, "staged", full_scale_model=True),
        Workload("grid-fused", _GRID, FIG6A, "fused", fused=True, full_scale_model=True),
        Workload("bulk-kmer", _BULK, (("gpu", "kmer"),), "staged"),
        Workload(
            "bulk-kmer-process2", _BULK, (("gpu", "kmer"),), "staged",
            pool="ProcessPool", parallel="process:2",
        ),
        Workload("bulk-supermer-fused", _BULK, (("gpu", "supermer"),), "fused", fused=True),
        Workload("ooc-cpu-kmer", _OOC, (("cpu", "kmer"),), "spill", rounds=2, spill=True),
        Workload(
            "stream-ooc", _OOC, (("gpu", "supermer"),), "fused-spill",
            fused=True, spill=True, streamed=True,
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    """One pipeline configuration on one read set."""

    dataset: str
    backend: str
    mode: str
    nodes: int

    @property
    def cluster(self) -> ClusterSpec:
        return summit_gpu(self.nodes) if self.backend == "gpu" else summit_cpu(self.nodes)

    @property
    def n_ranks(self) -> int:
        return self.cluster.n_ranks


@dataclass
class Outcome:
    """What one op produced: results to verify and what a trace observed."""

    spectra: list[KmerSpectrum]  # one per cell
    digest: str  # the deterministic observables, hashed
    rounds: int = 1
    strategies: tuple[str, ...] = ()  # traced ops only
    pools: tuple[str, ...] = ()  # ops with telemetry only


def observed_strategy(spans: list[dict]) -> str:
    """The strategy a span tree shows: the run span's, else from leaf names."""
    runs = [s for s in spans if s["cat"] == "run"]
    if runs:
        return str(runs[0]["meta"]["strategy"])
    work = {s["name"] for s in spans if s["cat"] == "work"}
    fused = any(n.startswith("fused:") for n in work)
    spill = any(n.startswith("spill:") for n in work)
    return ("fused-spill" if spill else "fused") if fused else ("spill" if spill else "staged")


class Bench:
    """One workload's generated inputs plus the op that runs on them."""

    def __init__(self, workload: Workload, seed: int, scale: float, nodes: int, root: Path) -> None:
        self.w = workload
        self.root = root
        self.nodes = nodes
        self.arena = ScratchArena() if workload.fused else None
        self.reads: dict[str, ReadSet] = {
            name: load_dataset(name, base * scale, seed=TABLE1[name].seed + seed)
            for name, base in workload.datasets
        }
        self.cells = [Cell(name, b, m, nodes) for name in self.reads for b, m in workload.variants]
        self.kmers = {name: r.kmer_count(K) for name, r in self.reads.items()}
        self.input_kmers = sum(self.kmers[c.dataset] for c in self.cells)
        h = hashlib.sha256()
        for r in self.reads.values():
            h.update(r.codes.tobytes())
        self.input_digest = h.hexdigest()[:16]
        self.expected: dict[str, KmerSpectrum] = {}
        self.fastq: list[Path] = []
        self.memory_budget = None
        if workload.spill:  # one dataset: the budget and the FASTQ parts are cut from it
            (reads,) = self.reads.values()
            if workload.streamed:
                self.fastq = write_fastq_parts(reads, root, STREAM_FILES)
            per_rank = np.bincount(owners_of(extract_kmers(reads, K), self.cells[0].n_ranks))
            self.memory_budget = math.ceil(int(per_rank.max()) * HOST_BYTES_PER_KMER / 1.5)

    def compute_oracle(self) -> None:
        self.expected = {name: count_kmers_exact(r, K) for name, r in self.reads.items()}

    def verify(self, out: Outcome) -> str | None:
        """``None`` when every cell's spectrum equals the oracle, else why not."""
        for cell, spectrum in zip(self.cells, out.spectra, strict=True):
            if not spectrum.equals(self.expected[cell.dataset]):
                return f"{self.w.name}: spectrum of {cell} differs from count_kmers_exact"
        return None

    def check_path(self, out: Outcome) -> list[str]:
        """Path honesty: the traced op ran the strategy, substrate and rounds it names."""
        w = self.w
        problems = []
        if set(out.strategies) != {w.strategy}:
            problems.append(f"strategy {sorted(set(out.strategies))} != {w.strategy!r}")
        # A fused pass may map nothing through a pool at all; a parallel
        # substrate must show up, and no other pool may.
        seen = set(out.pools)
        if seen - {w.pool} or (w.parallel != 1 and w.pool not in seen):
            problems.append(f"pools {sorted(seen)} != {w.pool!r}")
        if out.rounds != w.rounds:
            problems.append(f"n_rounds_used {out.rounds} != {w.rounds}")
        return [f"{w.name}: path honesty: {p}" for p in problems]

    # -- the op ------------------------------------------------------------

    def op(self, *, trace: bool = False, telemetry: bool = False) -> Outcome:
        return (self._stream_op if self.w.streamed else self._pipeline_op)(trace, telemetry)

    def _pipeline_op(self, trace: bool, telemetry: bool) -> Outcome:
        w = self.w
        h = hashlib.sha256()
        spectra, strategies, pools, rounds = [], [], set(), 0
        for cell in self.cells:
            reads = self.reads[cell.dataset]
            options = EngineOptions(
                work_multiplier=TABLE1[cell.dataset].real_kmers / self.kmers[cell.dataset]
                if w.full_scale_model
                else 1.0,
                parallel=w.parallel,
                fused=w.fused,
                arena=self.arena,
                spill_dir=self.root / "spill" if w.spill else None,
                host_memory_budget=self.memory_budget,
                trace=True if trace else None,
                telemetry=MetricRegistry() if telemetry else None,
            )
            result = run_pipeline(
                reads,
                cell.cluster,
                PipelineConfig(k=K, mode=cell.mode, minimizer_len=M),
                backend=cell.backend,
                options=options,
            )
            spectra.append(result.spectrum)
            rounds = max(rounds, result.n_rounds_used)
            observables = (
                result.timing,
                result.exchanged_items,
                result.exchanged_bytes,
                result.insert_stats,
                result.n_rounds_used,
            )
            h.update(repr(observables).encode())
            h.update(result.counts_matrix.tobytes())
            if trace:
                strategies.append(observed_strategy(span_payload(options.trace)))
            if telemetry:
                calls = options.telemetry.snapshot().get("pool_map_calls_total", {"samples": []})
                pools.update(s["labels"]["pool"] for s in calls["samples"])
        return Outcome(spectra, h.hexdigest()[:16], rounds, tuple(strategies), tuple(sorted(pools)))

    def _stream_op(self, trace: bool, telemetry: bool) -> Outcome:
        """``repro count`` over the FASTQ parts, out of core, checkpointed."""
        spill, tables = self.root / "spill", self.root / "tables"
        ck, db = self.root / "stream.ck.npz", self.root / "stream.rkdb"
        trace_path, metrics_path = self.root / "stream.trace.json", self.root / "stream.metrics.txt"
        # --checkpoint resumes when the file exists: every op starts clean.
        for path in (ck, db, trace_path, metrics_path):
            path.unlink(missing_ok=True)
        for path in (spill, tables):
            shutil.rmtree(path, ignore_errors=True)
        argv = ["count", "--input", *map(str, self.fastq), "--nodes", str(self.nodes)]
        argv += ["--backend", "gpu", "--mode", "supermer", "--fused"]
        argv += ["--spill", str(spill), "--table-dir", str(tables)]
        argv += ["--memory-limit", str(self.memory_budget)]
        argv += ["--checkpoint", str(ck), "--out-db", str(db)]
        if trace:
            argv += ["--trace", str(trace_path)]
        if telemetry:
            argv += ["--metrics-out", str(metrics_path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = repro_cli(argv)
        if code != 0:
            raise RuntimeError(f"repro count exited {code}")
        # The printed model seconds and volumes are deterministic; lines
        # naming files under the per-process temp root are not.
        h = hashlib.sha256(db.read_bytes())
        for line in stdout.getvalue().splitlines():
            if str(self.root) not in line:
                h.update(line.encode())
        out = Outcome([read_kmerdb(db)], h.hexdigest()[:16])
        if trace:
            out.strategies = (observed_strategy(json.loads(trace_path.read_text())["spans"]),)
        if telemetry:
            out.pools = tuple(
                sorted(
                    line.split('pool="')[1].split('"')[0]
                    for line in metrics_path.read_text().splitlines()
                    if line.startswith("pool_map_calls_total{")
                )
            )
        return out


def write_fastq_parts(reads: ReadSet, directory: Path, n_parts: int) -> list[Path]:
    """Cut ``reads`` into ``n_parts`` contiguous FASTQ files."""
    paths = []
    for i in range(n_parts):
        lo, hi = reads.n_reads * i // n_parts, reads.n_reads * (i + 1) // n_parts
        path = directory / f"part{i}.fastq"
        write_fastq(
            path,
            (SequenceRecord(f"read{j}", reads.read_string(j)) for j in range(lo, hi)),
        )
        paths.append(path)
    return paths


def leftovers(root: Path, shm_before: set[str]) -> list[str]:
    """Spool/table directories and shared-memory segments an op left behind."""
    left = [str(p) for p in root.rglob("*") if p.is_dir() and p.name.startswith(("spool-", "table-"))]
    return left + [f"/dev/shm/{name}" for name in sorted(shm_entries() - shm_before)]


def shm_entries() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()
