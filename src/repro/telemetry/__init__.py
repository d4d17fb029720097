"""Unified telemetry layer: metrics, structured reports, event log.

Everything observable about a run flows through here:

* :class:`MetricRegistry` — labeled counters / gauges / histograms
  (:mod:`repro.telemetry.registry`);
* :func:`session` / :func:`active` — the process-wide, context-scoped
  active registry that deep layers (collectives, hash table, kernels,
  pools) feed (:mod:`repro.telemetry.runtime`);
* :class:`RunReport` — the structured per-run report behind
  ``repro count --report`` and ``repro report``, and
  :func:`write_run_trace` — the ``repro-trace/1`` file behind
  ``repro count --trace`` and ``repro analyze``
  (:mod:`repro.telemetry.report`);
* exporters — JSON snapshot, Prometheus text format, Chrome-trace counter
  tracks (:mod:`repro.telemetry.export`);
* :class:`SpanRecorder` — the hierarchical wall-clock span log behind
  ``EngineOptions(trace=)`` / ``repro analyze``, and
  :func:`trace_events` — every span track as Chrome trace events
  (:mod:`repro.telemetry.spans`);
* :class:`MetricsServer` — the live ``/metrics`` HTTP endpoint behind
  ``repro count --metrics-port`` (:mod:`repro.telemetry.server`);
* the structured event log with the ``REPRO_LOG``/``--log-level`` switch
  (:mod:`repro.telemetry.log`).

This package deliberately imports nothing from the rest of ``repro`` at
runtime, so any layer may import it without cycles.
"""

from __future__ import annotations

from .export import json_snapshot, metric_trace_events, prometheus_text, write_json, write_prometheus
from .log import configure as configure_logging
from .log import configure_from_env, event, get_logger
from .registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricRegistry
from .report import TRACE_SCHEMA, RunReport, run_trace_payload, write_run_trace
from .runtime import active, session
from .server import MetricsServer
from .spans import SPAN_CATEGORIES, Span, SpanRecorder, recording_region, span_payload, trace_events, wall_summary
from .textfmt import format_series, format_table

__all__ = [
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "RunReport",
    "TRACE_SCHEMA",
    "run_trace_payload",
    "write_run_trace",
    "Span",
    "SpanRecorder",
    "SPAN_CATEGORIES",
    "span_payload",
    "recording_region",
    "wall_summary",
    "trace_events",
    "MetricsServer",
    "active",
    "session",
    "json_snapshot",
    "prometheus_text",
    "metric_trace_events",
    "write_json",
    "write_prometheus",
    "configure_logging",
    "configure_from_env",
    "event",
    "get_logger",
    "format_table",
    "format_series",
]
