"""Structured run reports and run-trace files: one JSON document each per run.

A :class:`RunReport` is the single pane of glass over a run's derived
observables — the quantities the paper reports in Fig. 3 (phase breakdown),
Table II (exchange counts), Table III (load imbalance) and Fig. 7 (GPU
breakdown) — assembled from the same exact accounting structures the
engine already maintains (:class:`~repro.mpi.stats.TrafficStats`,
:class:`~repro.core.results.LoadStats`,
:class:`~repro.gpu.hashtable.InsertStats`), plus an optional metrics
snapshot and wall-clock section.  Because the sections are *copied from*
the exact counters rather than recomputed, report values match the
benchmark values bit for bit — the tests assert it.

Reports serialize to JSON (``save``/``load``) and render as the paper-style
breakdown tables via :meth:`RunReport.render` (the ``repro report`` CLI).

:func:`run_trace_payload` / :func:`write_run_trace` assemble the trace file
(schema ``repro-trace/1``) consumed by ``chrome://tracing`` / Perfetto *and*
by ``repro analyze`` (:mod:`repro.core.analysis`).  Its ``metadata`` holds
the report's own ``run``, ``phases`` and ``wall`` sections, built by the
same functions.

Results and counters are read by duck typing: this module imports nothing
outside ``repro.telemetry`` at runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .export import metric_trace_events, read_json
from .registry import MetricRegistry
from .spans import SpanRecorder, span_payload, trace_events, wall_summary

if TYPE_CHECKING:  # typing only — keeps telemetry import-light (no cycles)
    from ..core.incremental import DistributedCounter
    from ..core.results import CountResult

__all__ = ["RunReport", "REPORT_VERSION", "TRACE_SCHEMA", "run_trace_payload", "write_run_trace"]

REPORT_VERSION = 1
#: Schema tag of the run-trace JSON file (validated by tools/check_trace.py).
TRACE_SCHEMA = "repro-trace/1"


def _run_sections(source: "CountResult | DistributedCounter") -> dict[str, dict[str, Any]]:
    """The sections a one-shot result and a counter share, built once.

    ``run`` (identity; ``distinct_kmers`` is left to the caller, since a
    counter must merge its spectrum for it), the numeric ``phases``,
    ``exchange`` traffic, ``load`` and ``gpu``.  Nothing here merges a
    spectrum, so a trace file carries these same sections.
    """
    config, cluster, t = source.config, source.cluster, source.timing
    run: dict[str, Any] = {
        "backend": source.backend,
        "config": config.describe(),
        "k": config.k,
        "mode": config.mode,
        "cluster": cluster.name,
        "ranks": cluster.n_ranks,
        "total_kmers": source.total_kmers,
    }
    # Identity only one kind of source has: a result's scale, a counter's batches.
    if hasattr(source, "work_multiplier"):
        run["work_multiplier"] = source.work_multiplier
    if hasattr(source, "n_batches"):
        run["batches"] = source.n_batches
    traffic, loads, ins = source.traffic, source.load_stats(), source.insert_stats
    return {
        "run": run,
        "phases": {
            "parse_s": t.parse,
            "exchange_s": t.exchange,
            "count_s": t.count,
            "total_s": t.total,
            "exchange_fraction": t.exchange_fraction(),
        },
        "exchange": {
            "items": source.exchanged_items,
            "collectives": traffic.n_collectives,
            "traffic_bytes": traffic.total_bytes(),
            "traffic_items": traffic.total_items(),
            "per_collective": [
                {
                    "op": rec.op,
                    "label": rec.label,
                    "bytes": rec.total_bytes,
                    "off_diagonal_bytes": rec.off_diagonal_bytes,
                    "items": rec.total_items,
                    "ranks": rec.n_ranks,
                }
                for rec in traffic.records
            ],
        },
        "load": {
            "min": loads.min_load,
            "max": loads.max_load,
            "mean": loads.mean_load,
            "imbalance": loads.imbalance,
            "received_per_rank": [int(v) for v in source.received_kmers],
        },
        "gpu": {
            "instances": ins.n_instances,
            "distinct": ins.n_distinct,
            "total_probes": ins.total_probes,
            "mean_probes": ins.mean_probes,
            "max_probe": ins.max_probe,
            "cas_conflicts": ins.cas_conflicts,
            "resizes": ins.resizes,
        },
    }


@dataclass
class RunReport:
    """Structured, serializable summary of one counting run."""

    run: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, Any] = field(default_factory=dict)
    exchange: dict[str, Any] = field(default_factory=dict)
    load: dict[str, Any] = field(default_factory=dict)
    gpu: dict[str, Any] = field(default_factory=dict)
    wall: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    version: int = REPORT_VERSION

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result: "CountResult",
        *,
        registry: MetricRegistry | None = None,
        recorder: SpanRecorder | None = None,
    ) -> "RunReport":
        """Aggregate a finished :class:`CountResult` into a report."""
        return cls._build(
            result,
            registry,
            recorder,
            run={"distinct_kmers": result.spectrum.n_distinct},
            phases={
                "alltoallv_s": result.alltoallv_seconds,
                "staging_s": result.staging_seconds,
                "rounds": result.n_rounds_used,
                # Per-link exchange breakdown from the routed alltoallv,
                # innermost link first (the hierarchical network model).
                "links": [{"link": name, "seconds": seconds} for name, seconds in result.link_seconds],
                "bottleneck_link": result.bottleneck_link,
            },
            exchange={
                "bytes": result.exchanged_bytes,
                "modeled_bytes": result.modeled_exchanged_bytes,
                "mean_supermer_length": result.mean_supermer_length,
            },
        )

    @classmethod
    def from_counter(
        cls,
        counter: "DistributedCounter",
        *,
        registry: MetricRegistry | None = None,
        recorder: SpanRecorder | None = None,
    ) -> "RunReport":
        """Aggregate a :class:`DistributedCounter`'s cumulative state."""
        return cls._build(
            counter,
            registry,
            recorder,
            run={"distinct_kmers": counter.spectrum().n_distinct},
            exchange={"bytes": counter.traffic.total_bytes()},
        )

    @classmethod
    def _build(
        cls,
        source: Any,
        registry: MetricRegistry | None,
        recorder: SpanRecorder | None,
        **own: dict[str, Any],
    ) -> "RunReport":
        """The shared sections of ``source``, plus the fields only it has (``own``)."""
        sections = _run_sections(source)
        for name, fields in own.items():
            sections[name].update(fields)
        metrics = registry.snapshot() if registry is not None else {}
        return cls(**sections, wall=wall_summary(recorder), metrics=metrics)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "run": self.run,
            "phases": self.phases,
            "exchange": self.exchange,
            "load": self.load,
            "gpu": self.gpu,
            "wall": self.wall,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        version = int(payload.get("version", 0))
        if version != REPORT_VERSION:
            raise ValueError(f"unsupported report version {version} (expected {REPORT_VERSION})")
        return cls(
            run=dict(payload.get("run", {})),
            phases=dict(payload.get("phases", {})),
            exchange=dict(payload.get("exchange", {})),
            load=dict(payload.get("load", {})),
            gpu=dict(payload.get("gpu", {})),
            wall=dict(payload.get("wall", {})),
            metrics=dict(payload.get("metrics", {})),
            version=version,
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """A saved report; an unreadable or foreign file is one ``ValueError`` naming it."""
        payload = read_json(path)
        try:
            return cls.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a run report: {exc}") from None

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Paper-style breakdown tables (Fig. 3 / Table II / Table III)."""
        from .textfmt import format_table

        blocks: list[str] = []
        run = self.run
        header = ", ".join(f"{k}={run[k]}" for k in ("backend", "config", "cluster", "ranks") if k in run)
        blocks.append(f"run: {header}")

        p = self.phases
        if p:
            rows = [
                [
                    p.get("parse_s", 0.0),
                    p.get("exchange_s", 0.0),
                    p.get("count_s", 0.0),
                    p.get("total_s", 0.0),
                    f"{p.get('exchange_fraction', 0.0):.1%}",
                ]
            ]
            blocks.append(
                format_table(
                    ["parse_s", "exchange_s", "count_s", "total_s", "exch_frac"],
                    rows,
                    title="Phase breakdown (Fig. 3, model seconds)",
                )
            )
        link_rows = self.phases.get("links") or []
        if link_rows:
            bottleneck = self.phases.get("bottleneck_link", "")
            rows = [
                [
                    entry.get("link", "?"),
                    f"{entry.get('seconds', 0.0):.6f}",
                    "*" if entry.get("link") == bottleneck else "",
                ]
                for entry in link_rows
            ]
            blocks.append(
                format_table(
                    ["link", "seconds", "bottleneck"],
                    rows,
                    title="Exchange per-link breakdown (hierarchical network model)",
                )
            )
        x = self.exchange
        if x:
            rows = [
                ["items", x.get("items", 0)],
                ["wire bytes", x.get("bytes", 0)],
                ["collectives", x.get("collectives", 0)],
            ]
            if x.get("modeled_bytes"):
                rows.append(["modeled bytes", x["modeled_bytes"]])
            if x.get("mean_supermer_length"):
                rows.append(["mean supermer len", x["mean_supermer_length"]])
            blocks.append(format_table(["metric", "value"], rows, title="Exchange volume (Table II)"))
        ld = self.load
        if ld:
            rows = [
                [
                    ld.get("min", 0),
                    ld.get("max", 0),
                    ld.get("mean", 0.0),
                    f"{ld.get('imbalance', 0.0):.4f}",
                ]
            ]
            blocks.append(
                format_table(["min", "max", "mean", "imbalance"], rows, title="Load balance (Table III)")
            )
        g = self.gpu
        if g and g.get("instances"):
            rows = [
                ["instances", g.get("instances", 0)],
                ["distinct", g.get("distinct", 0)],
                ["mean probes", f"{g.get('mean_probes', 0.0):.3f}"],
                ["max probe", g.get("max_probe", 0)],
                ["CAS conflicts", g.get("cas_conflicts", 0)],
                ["resizes", g.get("resizes", 0)],
            ]
            blocks.append(format_table(["metric", "value"], rows, title="Hash table (Fig. 7 inputs)"))
        w = self.wall
        if w:
            rows = [
                [
                    name,
                    f"{ph.get('busy_seconds', 0.0):.4f}",
                    f"{ph.get('elapsed_seconds', 0.0):.4f}",
                    f"{ph.get('overlap_factor', 0.0):.2f}",
                ]
                for name, ph in w.get("phases", {}).items()
            ]
            rows.append(
                [
                    "(all)",
                    f"{w.get('busy_seconds', 0.0):.4f}",
                    f"{w.get('elapsed_seconds', 0.0):.4f}",
                    f"{w.get('overlap_factor', 0.0):.2f}",
                ]
            )
            blocks.append(format_table(["phase", "busy_s", "elapsed_s", "overlap"], rows, title="Wall clock"))
        return "\n\n".join(blocks)


def run_trace_payload(
    recorder: SpanRecorder | None,
    *,
    result: "CountResult | None" = None,
    counter: "DistributedCounter | None" = None,
    registry: MetricRegistry | None = None,
    profile_text: str | None = None,
    max_ranks: int | None = 64,
) -> dict[str, Any]:
    """Assemble every timeline of one run into the ``repro-trace/1`` payload.

    Tracks, by Chrome-trace ``pid`` (:func:`~repro.telemetry.spans.trace_events`):

    * ``pid 0`` — the *model* timeline (per-rank parse/exchange/count in
      modeled seconds; requires ``result``);
    * ``pid 1`` — the *wall* timeline (per-rank work spans as the host
      executed them: the recorder's work leaves);
    * ``pid 2`` — the scheduler's nested region tree (run → batch → round
      → stage), on the same clock as pid 1;
    * counter tracks from ``registry`` (``ph: "C"``), when given.

    Beyond ``traceEvents`` the payload carries the raw ``"spans"`` array
    (the analysis input; see :func:`repro.core.analysis.analyze_spans`)
    and a ``"metadata"`` section: the report's ``run`` and ``phases``
    sections (no spectrum is merged), its ``wall`` summary, and — when
    ``repro count --profile --trace`` ran — the embedded cProfile
    rendering that ``repro analyze --profile`` prints.
    """
    if result is None and counter is None and recorder is None:
        raise ValueError("run_trace_payload needs a recorder, a result, or a counter")
    events = trace_events(result, recorder, max_ranks=max_ranks)
    if registry is not None:
        events += metric_trace_events(registry, result=result)
    source = result if result is not None else counter
    sections = _run_sections(source) if source is not None else {}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "spans": span_payload(recorder) if recorder is not None else [],
        "metadata": {
            "schema": TRACE_SCHEMA,
            "run": sections.get("run", {}),
            "phases": sections.get("phases", {}),
            "wall": wall_summary(recorder),
            "profile": profile_text,
        },
    }


def write_run_trace(path: str | Path, recorder: SpanRecorder | None, **kwargs: Any) -> Path:
    """Write :func:`run_trace_payload` (same keyword arguments) as JSON: the ``--trace`` output."""
    path = Path(path)
    path.write_text(json.dumps(run_trace_payload(recorder, **kwargs)))
    return path
