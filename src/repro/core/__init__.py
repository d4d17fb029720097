"""Core pipelines: the paper's distributed k-mer counting on the substrates."""

from ..machines import CpuRates, GpuPipelineModel, power9_rates
from .analysis import (
    CommunicationTheory,
    base_compression_exact,
    imbalance_from_result,
    items_per_supermer,
    theory_for,
)
from .config import PipelineConfig, paper_config
from .driver import count_distributed, cpu_cluster, gpu_cluster, run_paper_comparison
from .engine import EngineOptions, run_pipeline
from .incremental import DistributedCounter
from .parallel import (
    RankPool,
    SequentialPool,
    ThreadPool,
    get_pool,
    parallel_map,
    resolve_workers,
)
from .results import CountResult, LoadStats, PhaseTiming
from .stages import (
    PipelinePlugin,
    PipelineState,
    RoundScheduler,
    StageComposition,
    build_composition,
    register_stage,
    registered_stages,
    substrate_names,
)
from .sweep import SweepPoint, SweepResult, sweep
from .spmd import count_spmd, staged_rank_program

__all__ = [
    "PipelineConfig",
    "paper_config",
    "EngineOptions",
    "run_pipeline",
    "count_distributed",
    "run_paper_comparison",
    "gpu_cluster",
    "cpu_cluster",
    "CountResult",
    "PhaseTiming",
    "LoadStats",
    "CpuRates",
    "power9_rates",
    "GpuPipelineModel",
    "DistributedCounter",
    "CommunicationTheory",
    "theory_for",
    "base_compression_exact",
    "items_per_supermer",
    "imbalance_from_result",
    "count_spmd",
    "staged_rank_program",
    "RankPool",
    "SequentialPool",
    "ThreadPool",
    "get_pool",
    "parallel_map",
    "resolve_workers",
    "sweep",
    "SweepPoint",
    "SweepResult",
    "PipelinePlugin",
    "PipelineState",
    "RoundScheduler",
    "StageComposition",
    "build_composition",
    "register_stage",
    "registered_stages",
    "substrate_names",
]
