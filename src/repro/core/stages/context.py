"""Run options and the per-run stage context.

:class:`EngineOptions` is the public backend/substrate knob set (defined
here; :mod:`repro.core.engine`, the documented entry point, exports it).  The
:class:`StageContext` is the single object threaded through every stage
invocation: configuration, cluster, substrate options, the rank pool, and
the run's accounting sinks.  Stages never reach for globals — everything a
stage may touch is on the context, which is what makes compositions
swappable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ...machines import MachineSpec, resolve_machine
from ...mpi.costmodel import CommCostModel
from ...mpi.stats import TrafficStats
from ...mpi.topology import ClusterSpec
from ...telemetry import MetricRegistry
from ...telemetry.spans import SpanRecorder
from ..config import PipelineConfig
from ..memory import ScratchArena
from ..parallel import ParallelSetting, RankPool

if TYPE_CHECKING:  # typing only: protocols.py imports this module
    from .protocols import Substrate

__all__ = ["EngineOptions", "StageContext"]


@dataclass(frozen=True)
class EngineOptions:
    """Backend/substrate knobs for one engine run (config-independent).

    ``machine`` selects the machine model for the run — a
    :class:`~repro.machines.MachineSpec`, a registered preset name, or a
    calibration-file path (``None`` resolves to the paper's ``summit-gpu``
    preset).  It is the run's only source of device and cost rates: the
    stages read ``machine.resolved_device``, ``machine.gpu_model`` and
    ``machine.cpu_rates``.  To model another device, pass
    ``machine=get_machine("summit-gpu").with_overrides(device=...)``.
    """

    machine: MachineSpec | str | None = None
    work_multiplier: float = 1.0
    minimizer_assignment: np.ndarray | None = None  # balanced-partition hook
    auto_rounds: bool = False  # split exchange+count by device memory (Sec. III-A)
    memory_budget_fraction: float = 0.5  # usable share of device HBM per round
    # Execution substrate for per-rank phase work: None defers to the
    # REPRO_PARALLEL environment variable. Accepts "thread[:N]",
    # "process[:N]", a bare worker count, or "off"; see repro.core.parallel.
    parallel: ParallelSetting = None
    # Opt-in hierarchical tracing (run → batch → round → stage → rank work):
    # ``True`` creates a fresh repro.telemetry.spans.SpanRecorder (retrieve
    # it from ``opts.trace`` after construction), or pass one explicitly.
    # Its per-(phase, rank) work leaves are the host wall-clock spans every
    # wall-metric consumer reads; deterministic observables are untouched
    # (host timestamps only).
    trace: SpanRecorder | bool | None = None
    # Metrics sink for this run: installed as the telemetry session so every
    # layer (collectives, hash table, kernels, pools) feeds it.  None = off.
    telemetry: MetricRegistry | None = None
    # Extension stage plugins by registry name (e.g. ("bloom", "balanced"));
    # resolved through repro.core.stages.registry when the composition is built.
    stages: tuple[str, ...] = ()
    # Names only (repro.core.stages.scheduler.Layout): the strategy is
    # reported as "fused"/"fused-spill" and the work leaves as "fused:*".
    # Every exchange gathers straight out of the one send array either way.
    fused: bool = False
    # Scratch-buffer pool for the spool's buffers, shared across runs/sweep
    # cells; None lets the scheduler create a private one.
    arena: ScratchArena | None = None
    # Out-of-core execution (repro.core.stages.spill): a spool directory for
    # disk-spilled exchange partitions.  When set, the one-shot run writes
    # each round's destination partitions to disk, counts them one memory-
    # mapped partition at a time, writes one unsorted run file per table
    # block, and produces the spectrum by folding those runs through
    # merge_items — results bit-identical to the in-memory path.
    # None = everything stays in RAM.
    spill_dir: str | Path | None = None
    # Host-memory target in bytes: auto-rounds split the exchange so one
    # round's per-rank working set (partition buffer + extraction + table
    # growth) would fit under it.  The rounds bound the receive extent a
    # count block takes of a round at a time (gathered out of the send
    # array, or read back from the spool); the RAM store keeps the send
    # array until its count ends, so spill_dir is what drops it before
    # the count.  Honored by every
    # execution path so n_rounds_used stays identical between spilled
    # and in-memory runs.
    # A budget below one received item's working-set floor is rejected at
    # round computation with the computed floor in the error message.
    host_memory_budget: int | None = None
    # File-backed hash tables (repro.gpu.segmented): a directory for the
    # np.memmap key/count slabs of every table, whatever the strategy, so
    # the tables can exceed anonymous RAM.  Bit-identical — np.memmap is an
    # ndarray; only the backing store changes.  None = tables in RAM.
    table_dir: str | Path | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", resolve_machine(self.machine))
        if self.work_multiplier <= 0:
            raise ValueError("work_multiplier must be positive")
        if not 0 < self.memory_budget_fraction <= 1:
            raise ValueError("memory_budget_fraction must be in (0, 1]")
        if self.host_memory_budget is not None and self.host_memory_budget <= 0:
            raise ValueError("host_memory_budget must be positive (bytes)")
        if self.spill_dir is not None:
            object.__setattr__(self, "spill_dir", Path(self.spill_dir))
        if self.table_dir is not None:
            object.__setattr__(self, "table_dir", Path(self.table_dir))
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.trace is not None and not isinstance(self.trace, SpanRecorder):
            object.__setattr__(self, "trace", SpanRecorder() if self.trace else None)


@dataclass
class StageContext:
    """Everything a stage invocation may read: config, substrate, sinks."""

    config: PipelineConfig
    cluster: ClusterSpec
    opts: EngineOptions
    substrate: Substrate  # the composition's; charges every phase's model seconds
    pool: RankPool
    comm_model: CommCostModel
    stats: TrafficStats
    recorder: SpanRecorder | None = None
    registry: MetricRegistry | None = None

    @property
    def n_ranks(self) -> int:
        return self.cluster.n_ranks

    @property
    def supermer_mode(self) -> bool:
        return self.config.mode == "supermer"

    @property
    def gpudirect(self) -> bool:
        """GPUDirect for this run: the config flag OR the machine knob.

        The run config's ``gpudirect`` remains the ablation switch;
        machines whose network declares GPUDirect-capable NICs
        (``NetworkSpec.gpudirect``) get it without per-run flags.
        """
        return self.config.gpudirect or self.cluster.network.gpudirect

    @property
    def mult(self) -> float:
        return self.opts.work_multiplier
