"""Composable stage graph: the execution core of every pipeline rendering.

The package splits the distributed counting pipeline into three swappable
stages — parse, partition, count — with typed buffers between them
(:mod:`.buffers`), structural protocols per stage kind
(:mod:`.protocols`), the paper's implementations (:mod:`.standard`), the fixed
backend table and the extension registry (:mod:`.registry`), and the single round
driver that owns the memory-bounded execution loop (:mod:`.scheduler`,
sized once per drive by :mod:`.plan`, checkpointed by :mod:`.checkpoint`)
over one data layout, one drive shape and a
residency (RAM | spool, :mod:`.spill`), which owns the exchange, the
count loop and the merge.  See ``docs/ARCHITECTURE.md`` for the full picture and the
recipe for registering custom stages.
"""

from .buffers import ExchangeOutcome, ParsedItems
from .checkpoint import PipelineState
from .context import EngineOptions, StageContext
from .protocols import CountStage, ParseStage, PartitionStage, PipelinePlugin, Substrate
from .registry import (
    StageComposition,
    build_composition,
    normalize_backend,
    register_stage,
    registered_stages,
    resolve_stage,
    substrate_names,
)
from .scheduler import RoundScheduler
from .spill import SpillSpool, external_merge

__all__ = [
    "ExchangeOutcome",
    "ParsedItems",
    "EngineOptions",
    "StageContext",
    "ParseStage",
    "PartitionStage",
    "CountStage",
    "Substrate",
    "PipelinePlugin",
    "StageComposition",
    "register_stage",
    "registered_stages",
    "resolve_stage",
    "substrate_names",
    "normalize_backend",
    "build_composition",
    "PipelineState",
    "RoundScheduler",
    "SpillSpool",
    "external_merge",
]
