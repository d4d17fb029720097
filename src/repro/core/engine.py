"""The distributed counting engine: parse -> exchange -> count.

This module is the classic one-shot entry point over the staged execution
core (:mod:`repro.core.stages`).  One call covers all four published
variants:

* ``backend="cpu"``, ``mode="kmer"`` — Algorithm 1, the diBELLA-derived CPU
  baseline (Section III-A);
* ``backend="gpu"``, ``mode="kmer"`` — the GPU k-mer pipeline of Section
  III-B (Fig. 2's parse kernel, atomic outgoing buffers, open-addressing
  count table);
* ``backend="gpu"``, ``mode="supermer"`` — the supermer pipeline of Section
  IV (Algorithm 2's windowed construction, minimizer partitioning,
  destination-side extraction);
* ``backend="cpu"``, ``mode="supermer"`` — the paper's observation that
  "our supermer-based partitioning is independent of the GPU
  implementation and can be used in other distributed-memory k-mer
  counters" (Section I).

``backend`` is one of the four backends (``repro.core.stages.registry``):
``"gpu"``/``"cpu"`` pick the substrate with the mode coming from the
config, and ``"gpu:supermer"``-style strings spell the mode out.
Extension stages (e.g. ``("bloom", "balanced")``) ride in through
``EngineOptions.stages``.

Execution semantics — bulk-synchronous phases over a rank pool, real NumPy
data movement, Summit-calibrated model times, multi-round memory-bounded
exchanges — live in :class:`repro.core.stages.RoundScheduler`; this module
only resolves the composition and runs it.

``work_multiplier`` decouples *executed* data volume from *modeled* data
volume: the engine runs the scaled synthetic dataset but multiplies every
cost-model input (items, bytes, probes) by the dataset's scale-down factor,
so reported model times correspond to the full-size run.  Without this, the
latency and fixed-overhead terms — which do not shrink with the data — would
distort every compute/communication balance the paper measures.  Exact
quantities (counts, items exchanged, imbalance) are always reported
unscaled, as measured.
"""

from __future__ import annotations

from ..dna.reads import ReadSet
from ..mpi.topology import ClusterSpec
from .config import PipelineConfig
from .results import CountResult
from .stages.context import EngineOptions
from .stages.registry import build_composition
from .stages.scheduler import RoundScheduler

__all__ = ["EngineOptions", "run_pipeline"]


def run_pipeline(
    reads: ReadSet,
    cluster: ClusterSpec,
    config: PipelineConfig,
    *,
    backend: str = "gpu",
    options: EngineOptions | None = None,
) -> CountResult:
    """Run one distributed counting pipeline and return its full result.

    When ``options.telemetry`` is set, the registry is installed as the
    active telemetry session for the duration of the run — every layer
    underneath (collectives, hash tables, kernels, worker pools) feeds it —
    and the engine adds its own phase/rank/round metrics plus wall-clock
    metrics afterwards.  Model metrics are bit-identical across execution
    engines; only families registered as wall metrics may differ.
    """
    opts = options or EngineOptions()
    composition = build_composition(backend, config, opts)
    return RoundScheduler(cluster, config, composition, opts).run(reads)
