"""Hierarchical span recording: run → batch → round → stage → rank work.

A flat log of per-rank phase bodies is enough for busy/elapsed/overlap
arithmetic, but it cannot say *which round* a span belonged to, what
enclosed it, or how the scheduler's own structure (parse → rounds of
exchange+count → merge) decomposed the wall window.  :class:`SpanRecorder`
records both: the driving scheduler thread opens nested **regions** (run,
batch, round, stage) with :meth:`SpanRecorder.region`, and worker threads
record flat **work** leaves with ``record(name, rank, start_s, end_s)``.
It is the engine's one recorder: ``EngineOptions(trace=...)`` carries it,
and the wall metrics read its leaf layer.

Thread-safety contract: regions are opened and closed only by the single
driving thread (the scheduler), so the open-region stack needs no
cross-thread coordination beyond the append lock; ``record`` is called
from pool worker threads *while the enclosing stage region is open*
(``pool.map`` blocks until every worker returns), so reading the stack
top under the lock always yields the correct parent.  Span ids are
allocated under the same lock; exports sort deterministically, so the
recorded tree is independent of worker completion order (the satellite
tests assert this under ``REPRO_PARALLEL=auto``).

Determinism contract: recording never touches model observables — spans
carry host ``perf_counter`` timestamps only, and everything derived from
them is ``wall=True`` telemetry.  Causality to the model side is kept as
*metadata*: exchange regions note the index range of the
:class:`~repro.mpi.stats.TrafficStats` records their collective appended,
linking each wall span to the exact traffic matrices it produced.

Rendering lives here too: :func:`trace_events` draws the model timeline of
a result and the recorder's two host tracks through one renderer, on one
host clock; :func:`wall_summary` is the one busy / elapsed / overlap
summary.  Nothing outside ``repro.telemetry`` is imported (layer 0): a
result is read by duck typing, and :func:`recording_region` is the
engine-side glue.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

from .export import chrome_event

if TYPE_CHECKING:  # typing only: no runtime telemetry -> core dependency
    from ..core.results import CountResult

__all__ = [
    "Span",
    "SpanRecorder",
    "SPAN_CATEGORIES",
    "span_payload",
    "recording_region",
    "wall_summary",
    "trace_events",
]

#: The hierarchy levels, outermost first.  ``work`` is the per-rank leaf
#: level; everything above it is a region opened by the driving thread.
SPAN_CATEGORIES = ("run", "batch", "round", "stage", "work")


@dataclass(frozen=True)
class Span:
    """One closed span: ``[start_s, end_s)`` host seconds, tree-linked."""

    sid: int
    parent: int | None
    name: str
    cat: str  # one of SPAN_CATEGORIES
    rank: int | None  # rank for work leaves; None for regions
    start_s: float
    end_s: float
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)


class _Region:
    """Handle yielded by :meth:`SpanRecorder.region`: id + late metadata."""

    __slots__ = ("sid", "meta")

    def __init__(self, sid: int, meta: dict[str, Any]) -> None:
        self.sid = sid
        self.meta = meta

    def note(self, **meta: Any) -> None:
        """Attach metadata discovered while the region is open (e.g. the
        traffic-record indices an exchange appended)."""
        self.meta.update(meta)


class SpanRecorder:
    """Hierarchical wall-clock span log with a flat view of its leaves.

    The flat API (``record``/``spans``/``phases``/``busy_seconds``/
    ``elapsed_seconds``/``overlap_factor``/``__len__``) operates on the
    **work leaves only**, so wall metrics depend on the ``record`` calls
    alone — regions add structure without double-counting busy seconds.  :meth:`all_spans` / :func:`span_payload` expose the
    full tree.
    """

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._stack: list[int] = []  # open region sids, driving thread only
        self._next_sid = 1
        self._lock = threading.Lock()

    # -- regions (driving thread) ---------------------------------------

    @contextmanager
    def region(
        self, name: str, *, cat: str = "stage", rank: int | None = None, **meta: Any
    ) -> Iterator[_Region]:
        """Open a nested region around a block of driving-thread code."""
        if cat not in SPAN_CATEGORIES:
            raise ValueError(f"unknown span category {cat!r} (use one of {SPAN_CATEGORIES})")
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
        handle = _Region(sid, dict(meta))
        t0 = perf_counter()
        try:
            yield handle
        finally:
            t1 = perf_counter()
            with self._lock:
                # Unwind to this region even if an inner region leaked
                # (exception paths): ids above it on the stack are closed.
                while self._stack and self._stack[-1] != sid:
                    self._stack.pop()
                if self._stack:
                    self._stack.pop()
                self._spans.append(
                    Span(
                        sid=sid,
                        parent=parent,
                        name=name,
                        cat=cat,
                        rank=rank,
                        start_s=t0,
                        end_s=t1,
                        meta=handle.meta,
                    )
                )

    # -- work leaves (any thread) ---------------------------------------

    def record(self, name: str, rank: int, start_s: float, end_s: float, **meta: Any) -> None:
        """Record one rank's work item under the innermost open region."""
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1] if self._stack else None
            self._spans.append(
                Span(
                    sid=sid,
                    parent=parent,
                    name=name,
                    cat="work",
                    rank=rank,
                    start_s=start_s,
                    end_s=end_s,
                    meta=dict(meta),
                )
            )

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._stack.clear()
            self._next_sid = 1

    # -- flat-recorder view (work leaves only) --------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        with self._lock:
            spans = [s for s in self._spans if s.cat == "work"]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return sorted(spans, key=lambda s: (s.start_s, s.rank if s.rank is not None else -1))

    def phases(self) -> list[str]:
        """Distinct work-leaf names in first-recorded order."""
        seen: dict[str, None] = {}
        with self._lock:
            for s in self._spans:
                if s.cat == "work":
                    seen.setdefault(s.name, None)
        return list(seen)

    def busy_seconds(self, name: str | None = None) -> float:
        return sum(s.dur_s for s in self.spans(name))

    def elapsed_seconds(self, name: str | None = None) -> float:
        spans = self.spans(name)
        if not spans:
            return 0.0
        return max(s.end_s for s in spans) - min(s.start_s for s in spans)

    def overlap_factor(self, name: str | None = None) -> float:
        """Busy/elapsed; the neutral 1.0 when there is no evidence."""
        elapsed = self.elapsed_seconds(name)
        return self.busy_seconds(name) / elapsed if elapsed > 0 else 1.0

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for s in self._spans if s.cat == "work")

    # -- full-tree view --------------------------------------------------

    def all_spans(self) -> list[Span]:
        """Every span (regions + leaves) ordered by id (creation order)."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.sid)


def recording_region(recorder: SpanRecorder | None, name: str, *, cat: str = "stage", **meta: Any):
    """A region context on the recorder the run carries, if any.

    ``None`` (tracing off) yields ``None``; a :class:`SpanRecorder` opens a
    real nested region and yields its handle (``.note(**kv)`` attaches late
    metadata).  Engine code wraps phases with this unconditionally — the
    overhead when tracing is off is one ``is None`` check and a
    ``nullcontext``.
    """
    if recorder is None:
        return nullcontext(None)
    return recorder.region(name, cat=cat, **meta)


def _run_clock(recorder: SpanRecorder) -> tuple[list[Span], float]:
    """Every span by id, and the run's zero: the start of its first span.

    The one host clock: the ``"spans"`` payload and both host trace tracks
    rebase to this zero, so a leaf never renders before its region opens.
    """
    spans = recorder.all_spans()
    return spans, min((s.start_s for s in spans), default=0.0)


def span_payload(recorder: SpanRecorder) -> list[dict[str, Any]]:
    """JSON-ready span dicts, timestamps rebased so the run starts at 0.

    This is the ``"spans"`` array of the trace-file schema
    (``repro-trace/1``; see docs/TELEMETRY.md) and the input
    :func:`repro.core.analysis.analyze_spans` consumes.
    """
    spans, t0 = _run_clock(recorder)
    return [
        {
            "id": s.sid,
            "parent": s.parent,
            "name": s.name,
            "cat": s.cat,
            "rank": s.rank,
            "start_s": s.start_s - t0,
            "end_s": s.end_s - t0,
            "meta": s.meta,
        }
        for s in spans
    ]


def wall_summary(recorder: SpanRecorder | None) -> dict[str, Any]:
    """Busy, elapsed and overlap seconds of the work leaves, per phase and in total.

    The one wall summary: the report's ``wall`` section, the trace's
    ``metadata.wall`` and the engine's ``wall_*`` metric families all read
    it.  Empty without a recorder or without a leaf.
    """
    if recorder is None or not len(recorder):
        return {}

    def row(name: str | None) -> dict[str, float]:
        return {
            "busy_seconds": recorder.busy_seconds(name),
            "elapsed_seconds": recorder.elapsed_seconds(name),
            "overlap_factor": recorder.overlap_factor(name),
        }

    return {"phases": {name: row(name) for name in recorder.phases()}, **row(None)}


# ---------------------------------------------------------------------------
# Chrome trace events: every span track through one renderer
# ---------------------------------------------------------------------------

#: A span row: ``(pid, tid, name, cat, start_s, dur_s, args)``.
_Row = tuple[int, int, str, str, float, float, dict[str, Any]]
#: A row label: ``(pid, tid, thread name)``.
_Label = tuple[int, int, str]


def _model_rows(result: "CountResult", max_ranks: int | None) -> tuple[list[_Row], list[_Label]]:
    """pid 0: each rank's parse, exchange and count in model seconds.

    The exchange is one global span (a bulk-synchronous collective); parse
    and count use each rank's own modeled duration, aligned to the phase
    start as on the real machine.  ``max_ranks`` caps the rows (traces with
    thousands of rows are unreadable); the slowest parse and count ranks are
    always kept, so the critical path is never dropped.
    """
    p = result.cluster.n_ranks
    ranks = list(range(p))
    if max_ranks is not None and p > max_ranks:
        slowest = {int(result.per_rank_parse.argmax()), int(result.per_rank_count.argmax())}
        ranks = sorted(set(range(max_ranks - 2)) | slowest)
    t = result.timing
    traffic = {"bytes": int(result.exchanged_bytes), "items": int(result.exchanged_items)}
    received = [{"received": int(n)} for n in result.received_kmers]
    phases = (  # (name, start, per-rank duration, per-rank args)
        ("parse", 0.0, result.per_rank_parse, [{}] * p),
        ("exchange", t.parse, [t.exchange] * p, [traffic] * p),
        ("count", t.parse + t.exchange, result.per_rank_count, received),
    )
    rows = [
        (0, r, name, "pipeline", start_s, max(float(durs[r]), 0.0), dict(args[r]))
        for name, start_s, durs, args in phases
        for r in ranks
    ]
    return rows, [(0, r, f"rank {r} (node {result.cluster.node_of(r)})") for r in ranks]


def _host_rows(recorder: SpanRecorder) -> tuple[list[_Row], list[_Label]]:
    """pid 1: work leaves, one row per rank; pid 2: the region tree on one row.

    Both tracks are on the run's clock (:func:`_run_clock`), and each event's
    args carry its span's ``id`` and ``parent`` (then its meta), so a leaf
    links to its enclosing region.  Regions are strictly nested (one driving
    thread), so Perfetto stacks them on one row by time containment.
    """
    spans, t0 = _run_clock(recorder)
    rows: list[_Row] = []
    for s in spans:
        pid, tid, cat = (1, s.rank, "wall") if s.cat == "work" else (2, 0, s.cat)
        args = {"id": s.sid, "parent": s.parent, **s.meta}
        rows.append((pid, tid, s.name, cat, s.start_s - t0, s.dur_s, args))
    leaf_ranks = sorted({tid for pid, tid, *_ in rows if pid == 1})
    labels: list[_Label] = [(1, r, f"rank {r} (wall)") for r in leaf_ranks]
    if any(pid == 2 for pid, *_ in rows):
        labels.append((2, 0, "scheduler (spans)"))
    return rows, labels


def trace_events(
    result: "CountResult | None" = None,
    recorder: SpanRecorder | None = None,
    *,
    max_ranks: int | None = 64,
) -> list[dict[str, Any]]:
    """The span tracks of a run as Chrome trace events: ``X`` spans, ``M`` row labels.

    ``result`` gives the model timeline (pid 0, ``tid`` = rank, capped at
    ``max_ranks`` rows); ``recorder`` the host tracks — work leaves on pid 1
    (``tid`` = rank) and the region tree on pid 2 (``tid`` 0).  Every ``X``
    event of the package is built here.  Counter tracks (``C``) come from
    :func:`repro.telemetry.export.metric_trace_events`.
    """
    rows: list[_Row] = []
    labels: list[_Label] = []
    if result is not None:
        rows, labels = _model_rows(result, max_ranks)
    if recorder is not None:
        host_rows, host_labels = _host_rows(recorder)
        rows += host_rows
        labels += host_labels
    events = [
        chrome_event(name, "X", pid, args, tid=tid, start_s=start_s, dur_s=dur_s, cat=cat)
        for pid, tid, name, cat, start_s, dur_s, args in rows
    ]
    events += [chrome_event("thread_name", "M", pid, {"name": label}, tid=tid) for pid, tid, label in labels]
    return events
