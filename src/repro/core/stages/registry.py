"""Backend + extension-stage registry: names -> stage compositions.

The execution core never hardcodes ``backend in ("gpu", "cpu")``; this
module is the single source of truth for which backends exist and how each
maps onto concrete stages.  A *backend key* is ``"<substrate>"`` or
``"<substrate>:<mode>"`` (``"gpu"``, ``"cpu:supermer"``, ...); the mode
part, when present, must agree with the run's :class:`PipelineConfig`.

Extension stages (:class:`~repro.core.stages.protocols.PipelinePlugin`
subclasses) register under short names (``"bloom"``, ``"balanced"``) via
:func:`register_stage` and are requested per-run through
``EngineOptions.stages`` or the CLI's ``--stages``.  Built-in extensions
live in :mod:`repro.ext.stages`, discovered lazily through an entry-point
table so ``repro.core`` keeps no static import of ``repro.ext`` (the
layering lint enforces the boundary).
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
    from ...mpi.topology import ClusterSpec
    from .context import EngineOptions

__all__ = [
    "StageComposition",
    "register_backend",
    "resolve",
    "registered_backends",
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

    key: str  # registry key this resolved from ("gpu:supermer", ...)
    backend: str  # substrate name ("gpu" or "cpu")
    mode: str  # transport mode ("kmer" or "supermer")
    parse: ParseStage
    partition: PartitionStage
    count: CountStage
    substrate: Substrate
    plugins: tuple[PipelinePlugin, ...] = ()
    # False when a plugin drops k-mers from the spectrum (e.g. the Bloom
    # pre-filter), disabling the scheduler's parsed-vs-counted check.
    conserves_kmers: bool = True


# -- backend registry ---------------------------------------------------------

_CompositionFactory = Callable[[PipelineConfig, "EngineOptions"], StageComposition]
_BACKENDS: dict[str, _CompositionFactory] = {}


def register_backend(key: str, factory: _CompositionFactory) -> None:
    """Register a backend composition under ``"<substrate>:<mode>"``."""
    if ":" not in key:
        raise ValueError(f"backend key must be '<substrate>:<mode>', got {key!r}")
    _BACKENDS[key] = factory


def registered_backends() -> tuple[str, ...]:
    """All registered backend keys, sorted."""
    return tuple(sorted(_BACKENDS))


def substrate_names() -> tuple[str, ...]:
    """Distinct substrate prefixes ("cpu", "gpu"), sorted — CLI choices."""
    return tuple(sorted({key.split(":", 1)[0] for key in _BACKENDS}))


def normalize_backend(backend: str, mode: str) -> str:
    """Validate a user-supplied backend against the registry.

    Accepts ``"gpu"`` (mode comes from the config) or ``"gpu:supermer"``
    (mode spelled out; must match the config).  Returns the canonical
    ``"<substrate>:<mode>"`` key.  This is the single source of truth for
    backend validation — every entry point (engine, incremental counter,
    driver, CLI) funnels through it.
    """
    if ":" in backend:
        substrate, _, key_mode = backend.partition(":")
        if key_mode != mode:
            raise ValueError(
                f"backend {backend!r} conflicts with config mode {mode!r}; "
                f"drop the ':{key_mode}' suffix or change the config"
            )
    else:
        substrate = backend
    key = f"{substrate}:{mode}"
    if key not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} for mode {mode!r}; "
            f"registered backends: {', '.join(registered_backends())}"
        )
    return key


def resolve(backend: str, config: PipelineConfig, opts: "EngineOptions") -> StageComposition:
    """Resolve a backend key to its base composition (no plugins applied)."""
    key = normalize_backend(backend, config.mode)
    return _BACKENDS[key](config, opts)


# -- extension-stage registry -------------------------------------------------


@dataclass(frozen=True)
class _StageEntry:
    factory: Callable[[], PipelinePlugin]
    description: str
    modes: tuple[str, ...] = field(default=("kmer", "supermer"))


_STAGES: dict[str, _StageEntry] = {}

# Entry-point table: modules probed (once, lazily) for self-registering
# extension stages.  Third-party packages extend the pipeline the same way:
# import-time register_stage() calls in a module added to this table or
# imported before the run.
_LAZY_STAGE_MODULES: tuple[str, ...] = ("repro.ext.stages",)
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
    global _lazy_loaded
    if _lazy_loaded:
        return
    _lazy_loaded = True
    for module in _LAZY_STAGE_MODULES:
        try:
            importlib.import_module(module)
        except ImportError:  # pragma: no cover - optional extension package
            pass


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


def build_composition(
    backend: str,
    config: PipelineConfig,
    opts: "EngineOptions",
    cluster: "ClusterSpec",
) -> StageComposition:
    """Resolve backend + requested extension stages into one composition."""
    comp = resolve(backend, config, opts)
    if not opts.stages:
        return comp
    plugins = tuple(resolve_stage(name, config.mode) for name in opts.stages)
    partition = comp.partition
    overriders = [p for p in plugins if p.partition_stage() is not None]
    if len(overriders) > 1:
        names = ", ".join(p.name for p in overriders)
        raise ValueError(f"stages {names} both override the partition stage; pick one")
    if overriders:
        partition = overriders[0].partition_stage()
    comp.partition = partition
    comp.plugins = plugins
    comp.count = TableCount(plugins)
    comp.conserves_kmers = all(not p.alters_spectrum for p in plugins)
    return comp


# -- the paper's four backends ------------------------------------------------


def _standard(substrate: Substrate, mode: str, key: str) -> _CompositionFactory:
    def factory(config: PipelineConfig, opts: "EngineOptions") -> StageComposition:
        if mode == "kmer":
            parse: ParseStage = KmerParse()
            partition: PartitionStage = KmerHashPartition()
        else:
            parse = SupermerParse()
            partition = MinimizerHashPartition(assignment=opts.minimizer_assignment)
        return StageComposition(
            key=key,
            backend=substrate.name,
            mode=mode,
            parse=parse,
            partition=partition,
            count=TableCount(),
            substrate=substrate,
        )

    return factory


for _mode in ("kmer", "supermer"):
    for _sub in (GpuSubstrate(), CpuSubstrate()):
        _key = f"{_sub.name}:{_mode}"
        register_backend(_key, _standard(_sub, _mode, _key))
del _mode, _sub, _key
