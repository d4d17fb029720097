"""Parameter sweeps over the distributed pipelines.

Design-space exploration in one call: cartesian grid over node counts,
transport modes, minimizer lengths, windows, and orderings, returning flat
summary rows (plus the full :class:`CountResult` objects for anything
deeper).  This is the utility behind "explores some of the trade-offs in
the design space" (Section I) — the ablation benchmarks are fixed slices of
exactly these grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Iterable

from ..dna.reads import ReadSet
from ..machines import MachineSpec, resolve_machine
from ..mpi.topology import cluster_for
from ..telemetry import MetricRegistry, RunReport
from .config import PipelineConfig
from .engine import EngineOptions, run_pipeline
from .memory import ScratchArena
from .parallel import ParallelSetting
from .results import CountResult

__all__ = ["SweepPoint", "SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's parameters."""

    n_nodes: int
    backend: str
    mode: str
    minimizer_len: int
    window: int | None
    ordering: str
    k: int

    def label(self) -> str:
        base = f"{self.backend}/{self.mode}/k{self.k}/{self.n_nodes}n"
        if self.mode == "supermer":
            base += f"/m{self.minimizer_len}/w{self.window}"
        return base


@dataclass
class SweepResult:
    """All grid points with their results, plus tabular accessors."""

    points: list[SweepPoint] = field(default_factory=list)
    results: list[CountResult] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)  # host time per grid point
    reports: list[RunReport] = field(default_factory=list)  # one per point when telemetry=True

    def rows(self) -> list[dict[str, object]]:
        """Flat dicts: point parameters merged with result summaries."""
        out = []
        walls = self.wall_seconds or [float("nan")] * len(self.points)
        for point, result, wall in zip(self.points, self.results, walls):
            row: dict[str, object] = {
                "label": point.label(),
                "n_nodes": point.n_nodes,
                "backend": point.backend,
                "mode": point.mode,
                "minimizer_len": point.minimizer_len,
                "window": point.window,
                "ordering": point.ordering,
                "k": point.k,
            }
            row.update(result.summary())
            row["wall_s"] = wall
            out.append(row)
        return out

    @property
    def total_wall_seconds(self) -> float:
        return float(sum(self.wall_seconds))

    def best(self, metric: str = "total_s", minimize: bool = True) -> tuple[SweepPoint, CountResult]:
        """Grid point optimizing a summary metric."""
        if not self.results:
            raise ValueError("empty sweep")
        scored = [(row[metric], i) for i, row in enumerate(self.rows())]
        idx = min(scored)[1] if minimize else max(scored)[1]
        return self.points[idx], self.results[idx]

    def __len__(self) -> int:
        return len(self.results)


def sweep(
    reads: ReadSet,
    *,
    node_counts: Iterable[int] = (16,),
    backends: Iterable[str] = ("gpu",),
    modes: Iterable[str] = ("kmer", "supermer"),
    minimizer_lengths: Iterable[int] = (7,),
    windows: Iterable[int | None] = (15,),
    orderings: Iterable[str] = ("random-base",),
    k: int = 17,
    work_multiplier: float = 1.0,
    validate: bool = False,
    parallel: ParallelSetting = None,
    telemetry: bool = False,
    stages: tuple[str, ...] = (),
    fused: bool = False,
    machine: MachineSpec | str | None = None,
) -> SweepResult:
    """Run the full cartesian grid; k-mer mode collapses the supermer axes.

    ``machine`` swaps the machine model for every grid point — a
    :class:`~repro.machines.MachineSpec`, preset name, or calibration-file
    path.  ``None`` keeps the paper's Summit layouts, picked per backend
    (``summit-gpu`` for GPU points, ``summit-cpu`` for CPU points).  Exact
    observables are machine-invariant; only model times change.

    ``validate=True`` additionally checks every run against the exact
    oracle (slower; meant for tests and small inputs).

    ``parallel`` selects the engine's execution substrate and worker count
    (``"thread[:N]"``, ``"process[:N]"``, a bare count, or ``None`` to
    defer to ``REPRO_PARALLEL``); results are bit-identical either way,
    only the recorded ``wall_s`` per grid point changes.

    ``telemetry=True`` gives each grid point its own metric registry and
    attaches a :class:`RunReport` per point on ``SweepResult.reports``.

    ``stages`` requests extension stages from the stage registry (e.g.
    ``("bloom",)``) on every grid point.

    ``fused`` selects the fused exchange on every grid point; results are
    bit-identical to the staged path.  One scratch arena is shared across
    all grid points so parse-block buffers are recycled between cells.
    """
    explicit_machine = resolve_machine(machine) if machine is not None else None
    oracle = None
    if validate:
        from ..kmers.spectrum import count_kmers_exact

        oracle = count_kmers_exact(reads, k)

    out = SweepResult()
    arena = ScratchArena()  # recycled across grid cells
    seen: set[SweepPoint] = set()
    for nodes, backend, mode, m, window, ordering in product(
        node_counts, backends, modes, minimizer_lengths, windows, orderings
    ):
        if mode == "kmer":
            # Supermer-only axes are meaningless here; collapse duplicates.
            m, window, ordering = 0, None, "random-base"
        point = SweepPoint(
            n_nodes=nodes, backend=backend, mode=mode, minimizer_len=m, window=window, ordering=ordering, k=k
        )
        if point in seen:
            continue
        seen.add(point)
        config = PipelineConfig(
            k=k,
            mode=mode,  # type: ignore[arg-type]
            minimizer_len=m if mode == "supermer" else 7,
            window=window,
            ordering=ordering,
        )
        point_machine = explicit_machine
        if point_machine is None:
            point_machine = resolve_machine("summit-cpu" if backend == "cpu" else "summit-gpu")
        cluster = cluster_for(point_machine, nodes)
        registry = MetricRegistry() if telemetry else None
        t0 = perf_counter()
        result = run_pipeline(
            reads,
            cluster,
            config,
            backend=backend,
            options=EngineOptions(
                machine=point_machine,
                work_multiplier=work_multiplier,
                parallel=parallel,
                telemetry=registry,
                stages=stages,
                fused=fused,
                arena=arena,
            ),
        )
        wall = perf_counter() - t0
        if oracle is not None:
            result.validate_against(oracle)
        out.points.append(point)
        out.results.append(result)
        out.wall_seconds.append(wall)
        if registry is not None:
            out.reports.append(RunReport.from_result(result, registry=registry))
    return out
