"""Analysis tools: communication theory, load balance, and run anatomy.

The paper closes its supermer section with a volume analysis (Section IV-D)
using: D (input bytes), L (mean read length), k, s (mean supermer length),
and P (processors).  This module implements those formulas exactly, plus
the exact closed form of the supermer base-compression ratio the paper
approximates as "(s - k)x", and helpers that compare theory against a
pipeline run's measured traffic.

The second half analyzes recorded span trees (``EngineOptions(trace=)`` /
``repro analyze``): per-stage straggler statistics with barrier-wait
attribution, the wall critical path per round, and the wall-vs-model
divergence table.  These functions operate on the plain span dicts of
:func:`repro.telemetry.spans.span_payload` (also embedded in a
``repro-trace/1`` file under ``"spans"``), so a saved trace is all they
need — no live run objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.reads import ReadSet
from .results import CountResult, LoadStats

__all__ = [
    "CommunicationTheory",
    "theory_for",
    "base_compression_exact",
    "items_per_supermer",
    "expected_kmers_per_supermer",
    "imbalance_from_result",
    "PhaseStats",
    "model_phase_of",
    "phase_stragglers",
    "critical_path",
    "wall_model_divergence",
    "analyze_spans",
]


@dataclass(frozen=True)
class CommunicationTheory:
    """Section IV-D's symbolic quantities, evaluated for one input.

    All volumes are per-processor communication volumes in *items x item
    size* units, following the paper's O(...) expressions with the constant
    factors kept.
    """

    total_bases: float  # D, measured in bases (the paper's "input size")
    mean_read_length: float  # L
    k: int
    mean_supermer_length: float  # s
    n_procs: int  # P

    @property
    def n_reads(self) -> float:
        return self.total_bases / self.mean_read_length

    @property
    def total_kmers(self) -> float:
        """K ~= (D/L) * (L - k + 1)."""
        return self.n_reads * max(self.mean_read_length - self.k + 1, 0.0)

    @property
    def total_supermers(self) -> float:
        """S ~= K / (s - k + 1): each supermer covers s-k+1 k-mers."""
        span = max(self.mean_supermer_length - self.k + 1, 1.0)
        return self.total_kmers / span

    def kmer_volume_per_proc(self) -> float:
        """O((P-1)/P * K/P * k) — bases shipped per processor, k-mer mode."""
        p = self.n_procs
        return (p - 1) / p * self.total_kmers / p * self.k

    def supermer_volume_per_proc(self) -> float:
        """O((P-1)/P * S/P * s) — bases shipped per processor, supermer mode."""
        p = self.n_procs
        return (p - 1) / p * self.total_supermers / p * self.mean_supermer_length

    def predicted_reduction(self) -> float:
        """Exact base-volume reduction: k * (s - k + 1) / s.

        The paper quotes this as "~(s - k)x" and illustrates with k=8,
        s=11 -> 2.90x; the exact form gives 8*4/11 = 2.91 for the same
        example and is what the formulas above imply.
        """
        return base_compression_exact(self.k, self.mean_supermer_length)


def base_compression_exact(k: int, s: float) -> float:
    """Base-volume ratio (k-mer mode / supermer mode) for mean length s."""
    if s < k:
        raise ValueError("mean supermer length must be >= k")
    return k * (s - k + 1) / s


def items_per_supermer(k: int, s: float) -> float:
    """Item-count ratio (k-mers per supermer) = s - k + 1 (Table II's lever)."""
    if s < k:
        raise ValueError("mean supermer length must be >= k")
    return s - k + 1


def expected_kmers_per_supermer(k: int, m: int, window: int | None = None) -> float:
    """Predicted mean supermer size (in k-mers) for random sequence.

    The paper notes "it is hard to come up with an exact communication
    bound" (Section IV-D); for i.i.d. random sequence there is a classic
    closed form.  A k-mer contains ``w = k - m + 1`` m-mers, and the
    density of minimizer *changes* between adjacent k-mers is ``2/(w + 1)``
    (the minimizer-density result of Roberts et al. / Marcais et al.), so
    unbounded supermers average ``(w + 1)/2`` k-mers.  The GPU window adds
    a deterministic break every ``window`` k-mers (Section IV-B); treating
    both as independent renewal processes gives::

        E[k-mers per supermer] ~= 1 / (2/(w+1) + 1/window)

    For the paper's configuration (k=17, m=7, window=15) this predicts
    ~4.3, matching both our measurements (4.25) and the stochastic reading
    of Table II.
    """
    if not 1 <= m < k:
        raise ValueError("need 1 <= m < k")
    w = k - m + 1
    change_rate = 2.0 / (w + 1)
    if window is not None:
        if window < 1:
            raise ValueError("window must be positive")
        change_rate += 1.0 / window
    return 1.0 / change_rate


def theory_for(reads: ReadSet, k: int, mean_supermer_length: float, n_procs: int) -> CommunicationTheory:
    """Build the Section IV-D model from a concrete read set."""
    if reads.n_reads == 0:
        raise ValueError("empty read set")
    return CommunicationTheory(
        total_bases=float(reads.total_bases),
        mean_read_length=float(reads.total_bases / reads.n_reads),
        k=k,
        mean_supermer_length=float(mean_supermer_length),
        n_procs=n_procs,
    )


def imbalance_from_result(result: CountResult) -> dict[str, object]:
    """Table III row for one run: min/max/avg received k-mers + imbalance."""
    loads: LoadStats = result.load_stats()
    return {
        "config": result.config.describe(),
        "ranks": result.cluster.n_ranks,
        "avg_kmers": loads.mean_load,
        "min_kmers": loads.min_load,
        "max_kmers": loads.max_load,
        "load_imbalance": loads.imbalance,
    }


def node_level_loads(result: CountResult) -> np.ndarray:
    """Received k-mers aggregated per node (for topology-aware views)."""
    nodes = result.cluster.node_map()
    out = np.zeros(result.cluster.n_nodes, dtype=np.int64)
    np.add.at(out, nodes, result.received_kmers)
    return out


# ---------------------------------------------------------------------------
# Run anatomy: span-tree analysis (critical path, stragglers, divergence)
# ---------------------------------------------------------------------------

#: The model timing's phase buckets, in pipeline order.
_MODEL_PHASES = ("parse", "exchange", "count", "other")


def _normalize_phases(model_phases: dict[str, float]) -> dict[str, float]:
    """Accept both bare phase keys and the trace metadata's ``*_s`` keys."""
    return {
        p: float(model_phases.get(p, model_phases.get(f"{p}_s", 0.0))) for p in _MODEL_PHASES
    }


def model_phase_of(name: str) -> str:
    """Map a work-span name to the model timing's phase bucket.

    Leaf names vary by execution strategy (``parse`` vs ``fused:parse``,
    ``exchange-round1`` vs ``spill:spool-round1``); this folds them all
    onto the :class:`~repro.core.results.PhaseTiming` axes so wall spans
    and model phases line up in the divergence table.  Merge and run-write
    work has no model phase and maps to ``"other"``.
    """
    base = name.split("-round")[0]
    if base.endswith("parse"):
        return "parse"
    if base in ("exchange", "fused:exchange", "spill:spool", "spill:read"):
        return "exchange"
    if base.endswith("count"):
        return "count"
    return "other"


@dataclass(frozen=True)
class PhaseStats:
    """Straggler statistics for one stage group (the spans under one region).

    ``barrier_wait_s`` is the bulk-synchronous idle time the stage's
    barrier induces: each rank waits ``max - t_r`` for the slowest rank,
    so the group's total wasted wall is ``sum(max - t_r)``.  Whole-cluster
    superstep blocks (fused/spill spool) have one span, so their barrier
    wait is zero by construction — the imbalance is inside the block.
    """

    path: str  # region path, e.g. "round0/exchange" or "parse"
    phase: str  # model phase bucket (parse/exchange/count/other)
    n: int  # spans in the group (ranks, for per-rank stages)
    max_s: float
    mean_s: float
    total_s: float
    imbalance: float  # max/mean (1.0 = perfectly balanced)
    bottleneck_rank: int | None  # rank of the slowest span
    barrier_wait_s: float  # sum over ranks of (max - t_r)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "phase": self.phase,
            "n": self.n,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
            "total_s": self.total_s,
            "imbalance": self.imbalance,
            "bottleneck_rank": self.bottleneck_rank,
            "barrier_wait_s": self.barrier_wait_s,
        }


def _span_index(spans: list[dict]) -> dict[object, dict]:
    return {s["id"]: s for s in spans}


def _region_path(span: dict, by_id: dict[object, dict]) -> str:
    """Slash-joined ancestor names, root (the ``run`` region) omitted."""
    names: list[str] = []
    cur = span
    while cur is not None:
        parent = by_id.get(cur["parent"])
        if parent is not None:  # drop the root region's name
            names.append(cur["name"])
        cur = parent
    return "/".join(reversed(names))


def _work_groups(spans: list[dict]) -> list[tuple[str, list[dict]]]:
    """Work leaves grouped by enclosing region path, in start-time order.

    Leaves whose parent is missing (recorded outside any region, or a
    truncated payload) group under their own base name, so
    the analysis still works on hierarchy-free span lists.
    """
    by_id = _span_index(spans)
    groups: dict[str, list[dict]] = {}
    order: dict[str, float] = {}
    for s in spans:
        if s["cat"] != "work":
            continue
        parent = by_id.get(s["parent"])
        key = _region_path(parent, by_id) if parent is not None else s["name"].split("-round")[0]
        groups.setdefault(key, []).append(s)
        order.setdefault(key, s["start_s"])
    return sorted(groups.items(), key=lambda kv: order[kv[0]])


def phase_stragglers(spans: list[dict]) -> list[PhaseStats]:
    """Per-stage straggler statistics over a span payload.

    Groups work leaves by their enclosing region path (``round0/exchange``,
    ``parse``, ...) and reduces each group across ranks.  Output order is
    execution order (first span start per group).
    """
    out: list[PhaseStats] = []
    for path, group in _work_groups(spans):
        durs = [max(s["end_s"] - s["start_s"], 0.0) for s in group]
        mx = max(durs)
        mean = sum(durs) / len(durs)
        slowest = group[durs.index(mx)]
        out.append(
            PhaseStats(
                path=path,
                # The stage region's name, not a leaf's: a spooled count
                # region also holds its read-back and run-write leaves.
                phase=model_phase_of(path.rpartition("/")[2]),
                n=len(group),
                max_s=mx,
                mean_s=mean,
                total_s=sum(durs),
                imbalance=(mx / mean) if mean > 0 else 1.0,
                bottleneck_rank=slowest.get("rank"),
                barrier_wait_s=sum(mx - d for d in durs),
            )
        )
    return out


def critical_path(spans: list[dict]) -> dict[str, object]:
    """Wall critical path of a bulk-synchronous run, from its span tree.

    Under the BSP execution model every stage ends at a barrier, so the
    run's critical path is the sum over stage groups of the slowest rank's
    time, and each round's dominant stage is the one whose max is largest.
    Returns ``{"wall_s", "phases", "dominant", "rounds"}`` where ``phases``
    folds the stage maxima onto the model phase buckets.
    """
    stats = phase_stragglers(spans)
    phases = {p: 0.0 for p in _MODEL_PHASES}
    for st in stats:
        phases[st.phase] += st.max_s
    rounds: dict[str, dict[str, object]] = {}
    for st in stats:
        head, _, tail = st.path.partition("/")
        if not tail:
            continue  # top-level stage (parse/merge), not inside a round
        entry = rounds.setdefault(head, {"name": head, "stages": {}, "wall_s": 0.0})
        entry["stages"][tail] = entry["stages"].get(tail, 0.0) + st.max_s
        entry["wall_s"] += st.max_s
    for entry in rounds.values():
        entry["dominant"] = max(entry["stages"], key=entry["stages"].get) if entry["stages"] else None
    timed = {p: t for p, t in phases.items() if t > 0}
    return {
        "wall_s": sum(st.max_s for st in stats),
        "phases": phases,
        "dominant": max(timed, key=timed.get) if timed else None,
        "rounds": [rounds[k] for k in sorted(rounds)],
    }


def wall_model_divergence(
    spans: list[dict], model_phases: dict[str, float]
) -> list[dict[str, object]]:
    """Wall-vs-model table: one row per model phase, with the ratio.

    ``model_phases`` is the run's modeled phase timing: the trace file's
    ``metadata.phases`` (``parse_s``/``exchange_s``/``count_s`` keys), or
    bare ``parse``/``exchange``/``count`` keys built from ``result.timing``.
    Wall seconds are the critical-path contributions (per-stage max over
    ranks), the like-for-like counterpart of the model's bulk-synchronous
    phase times.
    A large ratio means the machine model charges far more (or less) for
    the phase than this host's actual execution — expected for network
    phases simulated on one node, interesting for compute phases.
    """
    wall = critical_path(spans)["phases"]
    model = _normalize_phases(model_phases)
    rows = []
    for phase in _MODEL_PHASES:
        model_s = model[phase]
        wall_s = float(wall.get(phase, 0.0))
        if model_s == 0.0 and wall_s == 0.0:
            continue
        rows.append(
            {
                "phase": phase,
                "model_s": model_s,
                "wall_s": wall_s,
                "ratio": (model_s / wall_s) if wall_s > 0 else float("inf"),
            }
        )
    return rows


def analyze_spans(
    spans: list[dict], model_phases: dict[str, float] | None = None
) -> dict[str, object]:
    """Full run-anatomy report over a span payload (the ``repro analyze`` core).

    Returns a plain-JSON dict: span counts and wall elapsed, per-stage
    straggler statistics, the wall critical path per round, and — when the
    model phase timing is supplied — the model-side critical path (whose
    ``dominant`` names the same phase the RunReport totals imply) plus the
    wall-vs-model divergence table.
    """
    stats = phase_stragglers(spans)
    out: dict[str, object] = {
        "n_spans": len(spans),
        "n_work_spans": sum(1 for s in spans if s["cat"] == "work"),
        "elapsed_s": (
            max(s["end_s"] for s in spans) - min(s["start_s"] for s in spans) if spans else 0.0
        ),
        "stages": [st.as_dict() for st in stats],
        "critical_path": critical_path(spans),
        "barrier_wait_s": sum(st.barrier_wait_s for st in stats),
    }
    if model_phases is not None:
        model = _normalize_phases(model_phases)
        timed = {p: v for p, v in model.items() if v > 0}
        out["model"] = {
            "phases": model,
            "dominant": max(timed, key=timed.get) if timed else None,
        }
        out["divergence"] = wall_model_divergence(spans, model_phases)
    return out
