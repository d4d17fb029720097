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

This module imports nothing outside ``repro.telemetry`` (layer 0); the
engine-side glue lives in :mod:`repro.core.tracing`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

from .export import chrome_event

__all__ = [
    "Span",
    "SpanRecorder",
    "SPAN_CATEGORIES",
    "span_payload",
    "span_tree_events",
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

    def children(self) -> dict[int | None, list[Span]]:
        """Tree adjacency: parent sid (None = roots) → child spans by id."""
        tree: dict[int | None, list[Span]] = {}
        for s in self.all_spans():
            tree.setdefault(s.parent, []).append(s)
        return tree


def span_payload(spans_or_recorder: "SpanRecorder | list[Span]") -> list[dict[str, Any]]:
    """JSON-ready span dicts, timestamps rebased so the run starts at 0.

    This is the ``"spans"`` array of the trace-file schema
    (``repro-trace/1``; see docs/TELEMETRY.md) and the input
    :func:`repro.core.analysis.analyze_spans` consumes.
    """
    spans = (
        spans_or_recorder.all_spans()
        if isinstance(spans_or_recorder, SpanRecorder)
        else sorted(spans_or_recorder, key=lambda s: s.sid)
    )
    if not spans:
        return []
    t0 = min(s.start_s for s in spans)
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


def span_tree_events(recorder: "SpanRecorder", *, pid: int = 2) -> list[dict[str, Any]]:
    """Chrome trace events for the region hierarchy (one nested track).

    Regions are strictly nested (single driving thread), so they all render
    on one ``tid`` where Perfetto stacks them by time containment; work
    leaves stay on the per-rank wall rows (see
    :func:`repro.core.tracing.wall_trace_events`), which this track's
    ``args.id``/``args.parent`` link back to.
    """
    spans = recorder.all_spans()
    regions = [s for s in spans if s.cat != "work"]
    if not regions:
        return []
    t0 = min(s.start_s for s in spans)
    events = [
        chrome_event(
            s.name,
            "X",
            pid,
            {"id": s.sid, "parent": s.parent, **s.meta},
            tid=0,
            start_s=s.start_s - t0,
            dur_s=s.dur_s,
            cat=s.cat,
        )
        for s in regions
    ]
    events.append(chrome_event("thread_name", "M", pid, {"name": "scheduler (spans)"}, tid=0))
    return events
