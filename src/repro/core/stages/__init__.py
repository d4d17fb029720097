"""Composable stage graph: the execution core of every pipeline rendering.

The package splits the distributed counting pipeline into five swappable
stages — parse, partition, exchange, count, merge — with typed buffers
between them (:mod:`.buffers`), structural protocols per stage kind
(:mod:`.protocols`), the paper's implementations (:mod:`.standard`), a
backend/extension registry (:mod:`.registry`), and the single round
driver that owns the memory-bounded execution loop (:mod:`.scheduler`)
over one data layout (its exchange fused or through the exchange stage)
and a receive-buffer residency (RAM | spool, :mod:`.spill`).
See ``docs/ARCHITECTURE.md`` for the full picture and the recipe for
registering custom stages.
"""

from .buffers import CountOutcome, ExchangeOutcome, ParsedItems, RankParse
from .context import EngineOptions, StageContext
from .protocols import (
    CountStage,
    ExchangeStage,
    MergeStage,
    ParseStage,
    PartitionStage,
    PipelinePlugin,
    Substrate,
)
from .registry import (
    StageComposition,
    build_composition,
    normalize_backend,
    register_backend,
    register_stage,
    registered_backends,
    registered_stages,
    resolve,
    resolve_stage,
    substrate_names,
)
from .scheduler import PipelineState, RoundScheduler, supports_fusion
from .spill import SpillExchange, SpillSpool, external_merge, supports_spill
from .spmd import staged_rank_program

__all__ = [
    "CountOutcome",
    "ExchangeOutcome",
    "ParsedItems",
    "RankParse",
    "EngineOptions",
    "StageContext",
    "ParseStage",
    "PartitionStage",
    "ExchangeStage",
    "CountStage",
    "MergeStage",
    "Substrate",
    "PipelinePlugin",
    "StageComposition",
    "register_backend",
    "register_stage",
    "registered_backends",
    "registered_stages",
    "resolve",
    "resolve_stage",
    "substrate_names",
    "normalize_backend",
    "build_composition",
    "PipelineState",
    "RoundScheduler",
    "staged_rank_program",
    "supports_fusion",
    "SpillExchange",
    "SpillSpool",
    "external_merge",
    "supports_spill",
]
