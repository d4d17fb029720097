"""Structured run reports: one JSON document per counting run.

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .registry import MetricRegistry

if TYPE_CHECKING:  # typing only — keeps telemetry import-light (no cycles)
    from ..core.incremental import DistributedCounter
    from ..core.results import CountResult
    from .spans import SpanRecorder

__all__ = ["RunReport", "REPORT_VERSION"]

REPORT_VERSION = 1


def _traffic_section(traffic: Any) -> list[dict[str, Any]]:
    return [
        {
            "op": rec.op,
            "label": rec.label,
            "bytes": rec.total_bytes,
            "off_diagonal_bytes": rec.off_diagonal_bytes,
            "items": rec.total_items,
            "ranks": rec.n_ranks,
        }
        for rec in traffic.records
    ]


def _insert_section(ins: Any) -> dict[str, Any]:
    return {
        "instances": ins.n_instances,
        "distinct": ins.n_distinct,
        "total_probes": ins.total_probes,
        "mean_probes": ins.mean_probes,
        "max_probe": ins.max_probe,
        "cas_conflicts": ins.cas_conflicts,
        "resizes": ins.resizes,
    }


def _wall_section(recorder: "SpanRecorder") -> dict[str, Any]:
    return {
        "phases": {
            name: {
                "busy_seconds": recorder.busy_seconds(name),
                "elapsed_seconds": recorder.elapsed_seconds(name),
                "overlap_factor": recorder.overlap_factor(name),
            }
            for name in recorder.phases()
        },
        "busy_seconds": recorder.busy_seconds(),
        "elapsed_seconds": recorder.elapsed_seconds(),
        "overlap_factor": recorder.overlap_factor(),
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
        recorder: "SpanRecorder | None" = None,
    ) -> "RunReport":
        """Aggregate a finished :class:`CountResult` into a report."""
        loads = result.load_stats()
        t = result.timing
        report = cls(
            run={
                "backend": result.backend,
                "config": result.config.describe(),
                "k": result.config.k,
                "mode": result.config.mode,
                "cluster": result.cluster.name,
                "ranks": result.cluster.n_ranks,
                "work_multiplier": result.work_multiplier,
                "total_kmers": result.total_kmers,
                "distinct_kmers": result.spectrum.n_distinct,
            },
            phases={
                "parse_s": t.parse,
                "exchange_s": t.exchange,
                "count_s": t.count,
                "total_s": t.total,
                "exchange_fraction": t.exchange_fraction(),
                "alltoallv_s": result.alltoallv_seconds,
                "staging_s": result.staging_seconds,
                "rounds": result.n_rounds_used,
                # Per-link exchange breakdown from the routed alltoallv,
                # innermost link first (the hierarchical network model).
                "links": [
                    {"link": name, "seconds": seconds} for name, seconds in result.link_seconds
                ],
                "bottleneck_link": result.bottleneck_link,
            },
            exchange={
                "items": result.exchanged_items,
                "bytes": result.exchanged_bytes,
                "modeled_bytes": result.modeled_exchanged_bytes,
                "collectives": result.traffic.n_collectives,
                "traffic_bytes": result.traffic.total_bytes(),
                "traffic_items": result.traffic.total_items(),
                "per_collective": _traffic_section(result.traffic),
                "mean_supermer_length": result.mean_supermer_length,
            },
            load={
                "min": loads.min_load,
                "max": loads.max_load,
                "mean": loads.mean_load,
                "imbalance": loads.imbalance,
                "received_per_rank": [int(v) for v in result.received_kmers],
            },
            gpu=_insert_section(result.insert_stats),
        )
        if recorder is not None and len(recorder):
            report.wall = _wall_section(recorder)
        if registry is not None:
            report.metrics = registry.snapshot()
        return report

    @classmethod
    def from_counter(
        cls,
        counter: "DistributedCounter",
        *,
        registry: MetricRegistry | None = None,
        recorder: "SpanRecorder | None" = None,
    ) -> "RunReport":
        """Aggregate a :class:`DistributedCounter`'s cumulative state."""
        loads = counter.load_stats()
        spectrum = counter.spectrum()
        t = counter.timing
        report = cls(
            run={
                "backend": counter.backend,
                "config": counter.config.describe(),
                "k": counter.config.k,
                "mode": counter.config.mode,
                "cluster": counter.cluster.name,
                "ranks": counter.cluster.n_ranks,
                "batches": counter.n_batches,
                "total_kmers": counter.total_kmers,
                "distinct_kmers": spectrum.n_distinct,
            },
            phases={
                "parse_s": t.parse,
                "exchange_s": t.exchange,
                "count_s": t.count,
                "total_s": t.total,
                "exchange_fraction": t.exchange_fraction(),
            },
            exchange={
                "items": counter.exchanged_items,
                "collectives": counter.traffic.n_collectives,
                "traffic_bytes": counter.traffic.total_bytes(),
                "traffic_items": counter.traffic.total_items(),
                "bytes": counter.traffic.total_bytes(),
                "per_collective": _traffic_section(counter.traffic),
            },
            load={
                "min": loads.min_load,
                "max": loads.max_load,
                "mean": loads.mean_load,
                "imbalance": loads.imbalance,
                "received_per_rank": [int(v) for v in counter.received_kmers],
            },
            gpu=_insert_section(counter.insert_stats),
        )
        if recorder is not None and len(recorder):
            report.wall = _wall_section(recorder)
        if registry is not None:
            report.metrics = registry.snapshot()
        return report

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
        return cls.from_dict(json.loads(Path(path).read_text()))

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
