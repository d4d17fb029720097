"""Registry exporters: JSON snapshot, Prometheus text, Chrome counter tracks.

Three consumers, three formats:

* :func:`json_snapshot` / :func:`write_json` — the registry's deterministic
  nested-dict form, for run archives and differential tests
  (:func:`read_json` reads any of the layer's JSON files back);
* :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus text
  exposition format (v0.0.4): ``# HELP``/``# TYPE`` headers, escaped label
  values, *cumulative* histogram buckets with the implicit ``+Inf`` bucket
  plus ``_sum``/``_count`` series;
* :func:`metric_trace_events` — ``ph: "C"`` counter tracks that merge into
  the span tracks of :func:`repro.telemetry.spans.trace_events`, so metric
  values appear alongside the phase spans in Perfetto.  :func:`chrome_event` is the
  one constructor of a Chrome trace event; every timeline builds through it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .registry import MetricRegistry

if TYPE_CHECKING:  # typing only: no runtime telemetry -> core dependency
    from ..core.results import CountResult

__all__ = [
    "json_snapshot",
    "write_json",
    "read_json",
    "prometheus_text",
    "write_prometheus",
    "chrome_event",
    "metric_trace_events",
]

_US = 1e6


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def json_snapshot(registry: MetricRegistry, *, include_wall: bool = True) -> dict[str, Any]:
    """The registry snapshot in a directly-json-serializable shape."""
    return registry.snapshot(include_wall=include_wall)


def write_json(registry: MetricRegistry, path: str | Path, *, include_wall: bool = True) -> Path:
    path = Path(path)
    path.write_text(json.dumps(json_snapshot(registry, include_wall=include_wall), indent=2, sort_keys=True))
    return path


def read_json(path: str | Path) -> dict[str, Any]:
    """The JSON object stored at ``path``.

    A file that is not JSON, or holds JSON that is not an object, is one
    ``ValueError`` naming the file (the CLI prints it as one ``error:`` line).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, found a {type(payload).__name__}")
    return payload


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if math.isnan(f):
        return "NaN"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels_text(labels: dict[str, str], extra: tuple[str, str] | None = None) -> str:
    pairs = [(k, v) for k, v in labels.items()]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs) + "}"


def prometheus_text(registry: MetricRegistry, *, include_wall: bool = True) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for fam in registry.families():
        if fam.wall and not include_wall:
            continue
        lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        if fam.kind == "histogram":
            bounds = [float(b) for b in fam.buckets]
            for sample in fam.samples():
                cumulative = 0
                for bound, count in zip(bounds, sample["buckets"]):
                    cumulative += count
                    le = _fmt_value(bound)
                    lines.append(
                        f"{fam.name}_bucket{_labels_text(sample['labels'], ('le', le))} {cumulative}"
                    )
                cumulative += sample["buckets"][-1]
                lines.append(f"{fam.name}_bucket{_labels_text(sample['labels'], ('le', '+Inf'))} {cumulative}")
                lines.append(f"{fam.name}_sum{_labels_text(sample['labels'])} {_fmt_value(sample['sum'])}")
                lines.append(f"{fam.name}_count{_labels_text(sample['labels'])} {sample['count']}")
        else:
            for sample in fam.samples():
                lines.append(f"{fam.name}{_labels_text(sample['labels'])} {_fmt_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricRegistry, path: str | Path, *, include_wall: bool = True) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(registry, include_wall=include_wall))
    return path


# ---------------------------------------------------------------------------
# Chrome-trace counter tracks
# ---------------------------------------------------------------------------


def chrome_event(
    name: str,
    ph: str,
    pid: int,
    args: dict[str, Any],
    *,
    tid: int | None = None,
    start_s: float | None = None,
    dur_s: float | None = None,
    cat: str | None = None,
) -> dict[str, Any]:
    """One Chrome trace event: a span (``X``), counter sample (``C``) or metadata row (``M``).

    Seconds in, microseconds out; fields a phase does not take are omitted.
    """
    event: dict[str, Any] = {"name": name, "ph": ph, "pid": pid}
    if tid is not None:
        event["tid"] = tid
    if start_s is not None:
        event["ts"] = start_s * _US
    if dur_s is not None:
        event["dur"] = dur_s * _US
    if cat is not None:
        event["cat"] = cat
    event["args"] = args
    return event


def metric_trace_events(
    registry: MetricRegistry,
    *,
    result: "CountResult | None" = None,
    pid: int = 0,
) -> list[dict[str, Any]]:
    """Counter-track events (``ph: "C"``) for the registry's scalar metrics.

    Metrics whose label set includes ``phase`` are stamped at that phase's
    start time on the model timeline (taken from ``result``); everything
    else sits at t=0.  Histograms export their ``sum`` (the total is what
    a counter track can show).  Merge these into the event list produced by
    :func:`repro.telemetry.spans.trace_events` to see metric magnitudes next
    to the spans that generated them.
    """
    phase_start: dict[str, float] = {}
    if result is not None:
        t = result.timing
        phase_start = {"parse": 0.0, "exchange": t.parse, "count": t.parse + t.exchange}
    events: list[dict[str, Any]] = []
    for fam in registry.families():
        for sample in fam.samples():
            labels = sample["labels"]
            value = sample["sum"] if fam.kind == "histogram" else sample["value"]
            series = ",".join(f"{k}={v}" for k, v in labels.items()) or "value"
            ts = phase_start.get(labels.get("phase", ""), 0.0)
            events.append(chrome_event(fam.name, "C", pid, {series: value}, start_s=ts, cat="telemetry"))
    return events
