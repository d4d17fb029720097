"""Backends and extension stages: names -> stage compositions.

The paper has two substrates (the diBELLA-derived CPU baseline and the
GPU counter) and two transport modes (k-mers, Algorithm 1; supermers,
Algorithm 2), so its four backends are one fixed table: the substrate
by name, the parse and partition stages by ``config.mode``.  A
*backend* string is ``"<substrate>"`` or ``"<substrate>:<mode>"``
(``"gpu"``, ``"cpu:supermer"``, ...); the mode part, when present, must
agree with the run's :class:`PipelineConfig`.  :func:`normalize_backend`
is its one parser and validator.

Extension stages (:class:`~repro.core.stages.protocols.PipelinePlugin`
subclasses) register under short names (``"bloom"``, ``"balanced"``) via
:func:`register_stage` and are requested per-run through
``EngineOptions.stages`` or the CLI's ``--stages``.  Built-in extensions
live in :mod:`repro.ext.stages`, imported by name on first use so
``repro.core`` keeps no static import of ``repro.ext`` (the layering lint
enforces the boundary).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import PipelineConfig
from .protocols import CountStage, ParseStage, PartitionStage, PipelinePlugin, Substrate
from .standard import (
    CpuSubstrate,
    GpuSubstrate,
    KmerHashPartition,
    KmerParse,
    MinimizerHashPartition,
    SupermerParse,
    TableCount,
)

if TYPE_CHECKING:
    from .context import EngineOptions

__all__ = [
    "StageComposition",
    "substrate_names",
    "normalize_backend",
    "register_stage",
    "resolve_stage",
    "registered_stages",
    "build_composition",
]


@dataclass
class StageComposition:
    """A fully-resolved pipeline: three stages, a substrate and the plugins (the residency exchanges and merges)."""

    parse: ParseStage
    partition: PartitionStage
    count: CountStage
    substrate: Substrate
    plugins: tuple[PipelinePlugin, ...] = ()
    # False when a plugin drops k-mers from the spectrum (e.g. the Bloom
    # pre-filter), disabling the scheduler's parsed-vs-counted check.
    conserves_kmers: bool = True

    @property
    def backend(self) -> str:
        """The substrate's name ("gpu" or "cpu")."""
        return self.substrate.name


# -- the paper's four backends ------------------------------------------------

_SUBSTRATE_OF: dict[str, Substrate] = {"gpu": GpuSubstrate(), "cpu": CpuSubstrate()}
_MODES = ("kmer", "supermer")


def substrate_names() -> tuple[str, ...]:
    """The substrate names ("cpu", "gpu"), sorted — CLI choices."""
    return tuple(sorted(_SUBSTRATE_OF))


def normalize_backend(backend: str, mode: str) -> str:
    """Validate a user-supplied backend string; the canonical ``"<substrate>:<mode>"``.

    Accepts ``"gpu"`` (mode comes from the config) or ``"gpu:supermer"``
    (mode spelled out; must match the config).  This is the single parser
    and validator of backends — every entry point (engine, incremental
    counter, driver, CLI) funnels through it.
    """
    substrate, colon, key_mode = backend.partition(":")
    if colon and key_mode != mode:
        raise ValueError(
            f"backend {backend!r} conflicts with config mode {mode!r}; "
            f"drop the ':{key_mode}' suffix or change the config"
        )
    if substrate not in _SUBSTRATE_OF or mode not in _MODES:
        known = ", ".join(f"{name}:{m}" for name in substrate_names() for m in _MODES)
        raise ValueError(f"unknown backend {backend!r} for mode {mode!r}; registered backends: {known}")
    return f"{substrate}:{mode}"


# -- extension-stage registry -------------------------------------------------


@dataclass(frozen=True)
class _StageEntry:
    factory: Callable[[], PipelinePlugin]
    description: str
    modes: tuple[str, ...] = field(default=("kmer", "supermer"))


_STAGES: dict[str, _StageEntry] = {}

_lazy_loaded = False


def register_stage(
    name: str,
    factory: Callable[[], PipelinePlugin],
    *,
    description: str = "",
    modes: tuple[str, ...] = ("kmer", "supermer"),
) -> None:
    """Register an extension stage plugin under a short name."""
    _STAGES[name] = _StageEntry(factory=factory, description=description, modes=modes)


def _load_lazy_stages() -> None:
    # The built-in extensions register themselves on import; by name, so
    # ``repro.core`` keeps no import of ``repro.ext``.
    global _lazy_loaded
    if not _lazy_loaded:
        _lazy_loaded = True
        importlib.import_module("repro.ext.stages")


def registered_stages() -> dict[str, str]:
    """Registered extension stages: name -> description."""
    _load_lazy_stages()
    return {name: entry.description for name, entry in sorted(_STAGES.items())}


def resolve_stage(name: str, mode: str) -> PipelinePlugin:
    """Instantiate one extension stage, validating the mode combination."""
    _load_lazy_stages()
    entry = _STAGES.get(name)
    if entry is None:
        known = ", ".join(sorted(_STAGES)) or "(none)"
        raise ValueError(f"unknown stage {name!r}; registered stages: {known}")
    if mode not in entry.modes:
        raise ValueError(
            f"stage {name!r} supports mode(s) {', '.join(entry.modes)}, "
            f"but the pipeline mode is {mode!r}"
        )
    return entry.factory()


# -- composition builder ------------------------------------------------------


def build_composition(backend: str, config: PipelineConfig, opts: "EngineOptions") -> StageComposition:
    """Resolve backend + requested extension stages into one composition."""
    substrate = _SUBSTRATE_OF[normalize_backend(backend, config.mode).partition(":")[0]]
    if config.mode == "kmer":
        parse: ParseStage = KmerParse()
        partition: PartitionStage = KmerHashPartition()
    else:
        parse = SupermerParse()
        partition = MinimizerHashPartition(assignment=opts.minimizer_assignment)
    plugins = tuple(resolve_stage(name, config.mode) for name in opts.stages)
    overriders = [p for p in plugins if p.partition_stage() is not None]
    if len(overriders) > 1:
        names = ", ".join(p.name for p in overriders)
        raise ValueError(f"stages {names} both override the partition stage; pick one")
    if overriders:
        partition = overriders[0].partition_stage()
    return StageComposition(
        parse=parse,
        partition=partition,
        count=TableCount(plugins),
        substrate=substrate,
        plugins=plugins,
        conserves_kmers=all(not p.alters_spectrum for p in plugins),
    )
