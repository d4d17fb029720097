"""Process-pool execution substrate: fork-per-map workers, shm results.

Why fork-per-map instead of a persistent worker pool: the engine submits
*closures* over rank-private state — nested functions capturing shards,
tables, the stage context, objects holding locks — which are not
picklable, so tasks cannot be shipped to long-lived workers.  Forking at
``map`` time makes the parent's entire heap (input shards, send/receive
buffers, the composition) available to workers as copy-on-write pages
with zero serialization on the way in; only the *results* travel, and
they travel through one shared-memory segment per worker with
``(name, offset, dtype, shape)`` descriptors (:mod:`.shm`) plus a small
control pickle over a pipe.  The parent reassembles chunks in input
order, preserving :meth:`RankPool.map`'s bit-identity contract exactly.

Because workers are copy-on-write children, side effects inside mapped
closures never reach the parent.  Two side channels the engine's
closures rely on are therefore captured explicitly and replayed in
input order, keeping span and telemetry accumulation order-independent:

* **telemetry** — each worker swaps a fresh ``MetricRegistry`` into the
  active session slot (:func:`repro.telemetry.runtime.swap_active`),
  ships its dumped state, and the parent folds it in with
  :meth:`MetricRegistry.merge_state`.  The registry contract restricts
  worker-side operations to commutative ones (counter adds, max-gauges,
  histogram bucket adds), so the merged state is bit-identical to
  in-process accumulation.
* **wall spans** — each worker notes the spans its chunk appended to the
  (forked copy of the) recorder and ships them as plain tuples; the
  parent replays them through ``recorder.record`` while the enclosing
  stage region is still open.  Span *timestamps* are comparable across
  processes (``perf_counter`` is CLOCK_MONOTONIC system-wide on Linux),
  and consumers sort spans by start time, so replay order is not
  observable.

Everything else a closure mutates in place is the caller's problem by
contract (see :class:`RankPool`): the scheduler's count closures return
their tables, and stateful-plugin compositions fall back to the thread
substrate before reaching this module.

Requires ``os.fork`` (POSIX).  Workers exit via ``os._exit`` so they
never run the parent's ``atexit`` hooks or flush its buffers twice.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback
from multiprocessing import connection, resource_tracker
from typing import Any, Callable, Iterable

from ...telemetry import MetricRegistry
from ...telemetry.runtime import active, swap_active
from . import shm
from .pools import RankPool

__all__ = ["ProcessPool"]


class ProcessPool(RankPool):
    """Fork-per-map worker pool (the ``process`` substrate)."""

    in_process = False

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("ProcessPool needs >= 2 workers; use SequentialPool")
        if not hasattr(os, "fork"):
            raise ValueError("the process substrate requires os.fork (POSIX platforms)")
        self.workers = workers

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        recorder: Any = None,
    ) -> list[Any]:
        seq = list(items)
        self._record_map(len(seq))
        if len(seq) <= 1:
            return [fn(item) for item in seq]

        # Contiguous chunks, one worker each: chunk boundaries preserve
        # input order and chunk results concatenate back in order.
        n_chunks = min(self.workers, len(seq))
        bounds = [(len(seq) * i) // n_chunks for i in range(n_chunks + 1)]
        chunks = [seq[bounds[i] : bounds[i + 1]] for i in range(n_chunks)]

        # The resource tracker must pre-date the forks so every worker's
        # shared-memory registration lands in the tracker the parent
        # shares (see the shm module docstring for the race this avoids).
        resource_tracker.ensure_running()

        readers: list[connection.Connection] = []
        pids: list[int] = []
        for chunk in chunks:
            r_conn, w_conn = connection.Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                r_conn.close()
                _worker_main(w_conn, fn, chunk, recorder)  # never returns
            w_conn.close()
            readers.append(r_conn)
            pids.append(pid)

        results: list[Any] = []
        failure: BaseException | None = None
        try:
            # Drain strictly in chunk order: each worker's payload is
            # consumed (and its sidecars replayed) before the next one's,
            # so accumulation order equals the sequential loop's.  After a
            # failure, later chunks are still drained — their segments
            # must be unlinked — but their results and sidecars are moot
            # (the sequential loop would never have reached them).
            for r_conn in readers:
                try:
                    blob = r_conn.recv_bytes()
                except EOFError:
                    if failure is None:
                        failure = RuntimeError("process-pool worker died without sending a result")
                    continue
                control, segment, descriptors = pickle.loads(blob)
                status, payload, sidecar = shm.unpack(control, segment, descriptors)
                if failure is not None:
                    continue
                _replay_sidecar(sidecar, recorder)
                if status == "err":
                    failure = payload
                else:
                    results.extend(payload)
        finally:
            for r_conn in readers:
                r_conn.close()
            for pid in pids:
                os.waitpid(pid, 0)
        if failure is not None:
            raise failure
        return results


def _worker_main(conn: connection.Connection, fn, chunk: list, recorder) -> None:
    """Body of one forked worker; exits the process, never returns."""
    try:
        capture = _SidecarCapture(recorder)
        try:
            output = [fn(item) for item in chunk]
            payload = ("ok", output, capture.collect())
        except BaseException as exc:  # ships to the parent, re-raised there
            payload = ("err", _shippable_error(exc), capture.collect())
        control, segment, descriptors = shm.pack(payload)
        conn.send_bytes(pickle.dumps((control, segment, descriptors)))
        conn.close()
    except BrokenPipeError:
        os._exit(1)  # parent already gave up on this chunk
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        os._exit(1)
    os._exit(0)


class _SidecarCapture:
    """Worker-side capture of the in-process side channels (see module doc)."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.span_base = len(recorder._spans) if recorder is not None else 0
        self.registry: MetricRegistry | None = None
        if active() is not None:
            self.registry = MetricRegistry()
            swap_active(self.registry)

    def collect(self) -> tuple[list[tuple], dict | None]:
        spans: list[tuple] = []
        if self.recorder is not None:
            for span in self.recorder._spans[self.span_base :]:
                # SpanRecorder interleaves region spans; only the "work"
                # leaves this chunk's closures recorded travel back.
                if getattr(span, "cat", "work") != "work":
                    continue
                meta = dict(getattr(span, "meta", None) or {})
                spans.append((span.name, span.rank, span.start_s, span.end_s, meta))
        state = self.registry.dump_state() if self.registry is not None else None
        return spans, state


def _replay_sidecar(sidecar: tuple[list[tuple], dict | None], recorder) -> None:
    spans, state = sidecar
    if recorder is not None:
        for name, rank, start_s, end_s, meta in spans:
            if meta:
                recorder.record(name, rank, start_s, end_s, **meta)
            else:
                recorder.record(name, rank, start_s, end_s)
    if state is not None:
        registry = active()
        if registry is not None:
            registry.merge_state(state)


def _shippable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return RuntimeError(f"process-pool worker failed with unpicklable {type(exc).__name__}:\n{detail}")
