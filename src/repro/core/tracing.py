"""Timeline export of a simulated run (Chrome trace-event format).

Turns a :class:`CountResult` into the JSON trace format consumed by
``chrome://tracing`` / Perfetto / Speedscope: one row per rank with parse /
exchange / count spans in model time, so the bulk-synchronous structure and
the imbalance (ragged phase edges) are visible at a glance.

The exchange is a single global span (bulk-synchronous collective); parse
and count use each rank's own modeled duration, aligned to the phase start
as on the real machine.

A second timeline lives here too: the work leaves of a
:class:`repro.telemetry.spans.SpanRecorder` capture the *host* wall-clock
span of each rank's phase body as the engine actually executed it.  Under
the sequential engine the spans form a staircase (one rank after
another); under the parallel engine (``REPRO_PARALLEL``) they overlap, and
:meth:`~repro.telemetry.spans.SpanRecorder.overlap_factor` quantifies by
how much.  Model time and wall time are deliberately separate timelines —
parallel execution changes only the second.

The same recorder carries a third timeline: the scheduler's region tree
(run → batch → round → stage) with the per-rank wall spans as its leaves.
:func:`run_trace_payload` / :func:`write_run_trace` assemble all three
into one trace file (schema ``repro-trace/1``) consumed by
``chrome://tracing`` / Perfetto *and* by ``repro analyze``
(:mod:`repro.core.analysis`).  :func:`recording_region` is the engine-side
glue: a no-op on ``None``, a real nested region on a recorder — so the
scheduler instruments one way and tracing stays strictly opt-in.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..telemetry import metric_trace_events
from ..telemetry.export import chrome_event
from ..telemetry.spans import SpanRecorder, span_payload, span_tree_events
from .results import CountResult

if TYPE_CHECKING:  # typing only — no runtime import cycle
    from .incremental import DistributedCounter

__all__ = [
    "trace_events",
    "wall_trace_events",
    "recording_region",
    "TRACE_SCHEMA",
    "run_trace_payload",
    "write_run_trace",
]

#: Schema tag of the run-trace JSON file (validated by tools/check_trace.py).
TRACE_SCHEMA = "repro-trace/1"


def trace_events(result: CountResult, *, max_ranks: int | None = 64) -> list[dict[str, Any]]:
    """Build the trace-event list for one run.

    ``max_ranks`` caps the number of emitted rank rows (traces with
    thousands of rows are unreadable); the max-duration rank in each phase
    is always included so the critical path is never dropped.
    """
    p = result.cluster.n_ranks
    ranks = list(range(p))
    if max_ranks is not None and p > max_ranks:
        keep = set(range(max_ranks - 2))
        keep.add(int(result.per_rank_parse.argmax()))
        keep.add(int(result.per_rank_count.argmax()))
        ranks = sorted(keep)

    events: list[dict[str, Any]] = []

    def span(name: str, rank: int, start_s: float, dur_s: float, **args: Any) -> None:
        events.append(
            chrome_event(name, "X", 0, args, tid=rank, start_s=start_s, dur_s=max(dur_s, 0.0), cat="pipeline")
        )

    t = result.timing
    for r in ranks:
        span("parse", r, 0.0, float(result.per_rank_parse[r]))
    exchange_start = t.parse
    for r in ranks:
        span(
            "exchange",
            r,
            exchange_start,
            t.exchange,
            bytes=int(result.exchanged_bytes),
            items=int(result.exchanged_items),
        )
    count_start = exchange_start + t.exchange
    for r in ranks:
        span("count", r, count_start, float(result.per_rank_count[r]), received=int(result.received_kmers[r]))

    # Rank-row metadata so viewers label threads.
    for r in ranks:
        label = f"rank {r} (node {result.cluster.node_of(r)})"
        events.append(chrome_event("thread_name", "M", 0, {"name": label}, tid=r))
    return events


def recording_region(recorder: Any, name: str, *, cat: str = "stage", **meta: Any):
    """A region context on the recorder the run carries, if any.

    ``None`` (tracing off) yields ``None``; a
    :class:`~repro.telemetry.spans.SpanRecorder` opens a real nested
    region and yields its handle (``.note(**kv)`` attaches late metadata).  Engine code wraps phases with this
    unconditionally — the overhead when tracing is off is one ``is None``
    check and a ``nullcontext``.
    """
    if recorder is None:
        return nullcontext(None)
    return recorder.region(name, cat=cat, **meta)


def wall_trace_events(recorder: SpanRecorder) -> list[dict[str, Any]]:
    """Chrome trace events of the recorded wall-clock spans.

    Timestamps are rebased so the earliest span starts at 0; one trace row
    per rank (``tid``), so overlap between ranks is visible exactly as the
    host executed it.  An empty recorder yields an empty (valid) event list.
    """
    spans = recorder.spans()
    if not spans:
        return []
    t0 = min(s.start_s for s in spans)
    events = [
        chrome_event(s.name, "X", 1, {}, tid=s.rank, start_s=s.start_s - t0, dur_s=s.dur_s, cat="wall")
        for s in spans
    ]
    for rank in sorted({s.rank for s in spans}):
        events.append(chrome_event("thread_name", "M", 1, {"name": f"rank {rank} (wall)"}, tid=rank))
    return events


# ---------------------------------------------------------------------------
# The combined run trace (schema repro-trace/1)
# ---------------------------------------------------------------------------


def run_trace_payload(
    recorder: SpanRecorder | None,
    *,
    result: CountResult | None = None,
    counter: "DistributedCounter | None" = None,
    registry: Any | None = None,
    profile_text: str | None = None,
    max_ranks: int | None = 64,
) -> dict[str, Any]:
    """Assemble every timeline of one run into the ``repro-trace/1`` payload.

    Tracks, by Chrome-trace ``pid``:

    * ``pid 0`` — the *model* timeline (per-rank parse/exchange/count in
      modeled seconds; requires ``result``);
    * ``pid 1`` — the *wall* timeline (per-rank work spans as the host
      executed them: the recorder's work leaves);
    * ``pid 2`` — the scheduler's nested region tree (run → batch → round
      → stage);
    * counter tracks from ``registry`` (``ph: "C"``), when given.

    Beyond ``traceEvents`` the payload carries the raw ``"spans"`` array
    (the analysis input; see :func:`repro.core.analysis.analyze_spans`)
    and a ``"metadata"`` section with the deterministic model phase
    seconds, run identity, wall summary, and — when ``repro count
    --profile --trace`` ran — the embedded cProfile rendering that
    ``repro analyze --profile`` prints.
    """
    if result is None and counter is None and recorder is None:
        raise ValueError("run_trace_payload needs a recorder, a result, or a counter")

    events: list[dict[str, Any]] = []
    if result is not None:
        events.extend(trace_events(result, max_ranks=max_ranks))
    if recorder is not None:
        events.extend(wall_trace_events(recorder))
        events.extend(span_tree_events(recorder))
    if registry is not None:
        events.extend(metric_trace_events(registry, result=result))

    run_meta: dict[str, Any] = {}
    phases: dict[str, float] = {}
    source = result if result is not None else counter
    if source is not None:
        t = source.timing
        phases = {
            "parse_s": t.parse,
            "exchange_s": t.exchange,
            "count_s": t.count,
            "total_s": t.total,
        }
        run_meta = {
            "backend": source.backend,
            "config": source.config.describe(),
            "mode": source.config.mode,
            "k": source.config.k,
            "cluster": source.cluster.name,
            "ranks": source.cluster.n_ranks,
        }
        if counter is not None:
            run_meta["batches"] = counter.n_batches
            run_meta["total_kmers"] = counter.total_kmers

    wall: dict[str, Any] = {}
    if recorder is not None and len(recorder):
        wall = {
            "busy_seconds": recorder.busy_seconds(),
            "elapsed_seconds": recorder.elapsed_seconds(),
            "overlap_factor": recorder.overlap_factor(),
        }

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "spans": span_payload(recorder) if recorder is not None else [],
        "metadata": {
            "schema": TRACE_SCHEMA,
            "run": run_meta,
            "phases": phases,
            "wall": wall,
            "profile": profile_text,
        },
    }


def write_run_trace(
    path: str | Path,
    recorder: SpanRecorder | None,
    *,
    result: CountResult | None = None,
    counter: "DistributedCounter | None" = None,
    registry: Any | None = None,
    profile_text: str | None = None,
    max_ranks: int | None = 64,
) -> Path:
    """Write :func:`run_trace_payload` as JSON (the ``--trace`` output)."""
    path = Path(path)
    payload = run_trace_payload(
        recorder,
        result=result,
        counter=counter,
        registry=registry,
        profile_text=profile_text,
        max_ranks=max_ranks,
    )
    path.write_text(json.dumps(payload))
    return path
