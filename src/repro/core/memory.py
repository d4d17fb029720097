"""Scratch-buffer arena: recycled temporaries of the round driver.

The spool stages and reads back one destination block at a time
(:mod:`repro.core.stages.spill`).  Allocating those buffers afresh every
block/round/sweep-cell costs page faults
and allocator churn, so the :class:`ScratchArena` keeps released blocks
on per-dtype free lists and hands them back to later ``take`` calls.

Design constraints:

- Capacities are rounded up to a power of two so a block allocated for
  one superstep can satisfy slightly larger requests later.
- ``take`` returns a *view* of the first ``n`` elements of a backing
  block; ``release`` accepts the view and recovers the backing block via
  ``view.base``.  Blocks are never zeroed — callers must fully overwrite
  them (``np.take(..., out=...)``, slice assignment) before reading.
- Arena-backed views must never escape into results: everything stored
  in a :class:`~repro.core.stages.checkpoint.PipelineState` or a
  ``CountResult`` is a fresh allocation.
- Telemetry counters are registered as *wall* metrics (like the pool
  counters): buffer recycling changes host behaviour only, and model
  metric snapshots must stay bit-identical between strategies.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ..telemetry import active

__all__ = ["ScratchArena"]

_MIN_BLOCK = 1024


def _round_capacity(n: int) -> int:
    cap = _MIN_BLOCK
    while cap < n:
        cap *= 2
    return cap


class ScratchArena:
    """Power-of-two free-list allocator for large NumPy temporaries.

    One arena may be shared across supersteps, exchange rounds, and
    whole sweep grids; it is protected by a lock so a pool-parallel
    caller cannot corrupt the free lists, but individual borrowed views
    are owned exclusively by the borrower until released.
    """

    def __init__(self) -> None:
        # RLock: the weakref callback in _adopt may fire from a GC pass
        # triggered by an allocation made while the lock is already held.
        self._lock = threading.RLock()
        self._free: dict[str, list[np.ndarray]] = {}
        # Registry of blocks this arena handed out, keyed by id().  The
        # values are weakrefs whose callbacks retire the entry, so a block
        # whose borrower dropped its view unreleased is forgotten the
        # moment it is collected — a later unrelated array that happens to
        # reuse the id can never be adopted into the free lists.
        self._owned: dict[int, weakref.ref] = {}
        self.bytes_allocated = 0
        self.bytes_reused = 0
        self.peak_bytes = 0
        self._footprint = 0

    def _adopt(self, block: np.ndarray) -> None:
        """Register a freshly allocated block in the owned registry."""
        block_id = id(block)
        nbytes = block.nbytes

        def _retire(ref: weakref.ref) -> None:
            # The block died while borrowed (view dropped without release).
            # Only retire if the registry still holds *this* weakref — a
            # reset() may already have removed it.
            with self._lock:
                if self._owned.get(block_id) is ref:
                    del self._owned[block_id]
                    self._footprint -= nbytes

        self._owned[block_id] = weakref.ref(block, _retire)

    # -- borrowing ---------------------------------------------------

    def take(self, n: int, dtype: np.dtype | type) -> np.ndarray:
        """Borrow an uninitialised 1-D array of ``n`` elements.

        The returned array is a view of a pooled block; hand it back
        with :meth:`release` once the superstep no longer needs it.
        """
        if n < 0:
            raise ValueError(f"cannot borrow a negative-length buffer ({n})")
        dt = np.dtype(dtype)
        cap = _round_capacity(int(n))
        with self._lock:
            blocks = self._free.get(dt.str, [])
            block = None
            for i, cand in enumerate(blocks):
                if cand.shape[0] >= cap:
                    block = blocks.pop(i)
                    break
            if block is None:
                block = np.empty(cap, dtype=dt)
                self._adopt(block)
                self.bytes_allocated += block.nbytes
                self._footprint += block.nbytes
                self.peak_bytes = max(self.peak_bytes, self._footprint)
                reused = 0
            else:
                reused = int(n) * dt.itemsize
                self.bytes_reused += reused
        reg = active()
        if reg is not None:
            if reused:
                reg.counter(
                    "arena_bytes_reused_total", "Scratch bytes served from the free list", wall=True
                ).inc(reused)
            else:
                reg.counter(
                    "arena_bytes_allocated_total", "Scratch bytes newly allocated", wall=True
                ).inc(block.nbytes)
            reg.gauge(
                "arena_peak_bytes", "Largest scratch footprint held by the arena", wall=True
            ).set_max(self._footprint)
        return block[: int(n)]

    def release(self, *arrays: np.ndarray | None) -> None:
        """Return borrowed views to the free lists (``None`` is ignored).

        Arrays the arena did not hand out are ignored too, so callers
        can release unconditionally even when a buffer came from a plain
        ``np.empty`` fallback.
        """
        with self._lock:
            for view in arrays:
                if view is None:
                    continue
                block = view if view.base is None else view.base
                ref = self._owned.get(id(block))
                if ref is None or ref() is not block:
                    # Not one of ours — either a foreign array, or an id
                    # recycled from a block that died while borrowed.
                    continue
                if any(b is block for b in self._free.get(block.dtype.str, ())):
                    raise ValueError("buffer released to the arena twice")
                self._free.setdefault(block.dtype.str, []).append(block)

    def reset(self) -> None:
        """Drop every pooled block (outstanding borrows stay valid)."""
        with self._lock:
            for blocks in self._free.values():
                for block in blocks:
                    self._owned.pop(id(block), None)
                    self._footprint -= block.nbytes
            self._free.clear()

    # -- introspection -----------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """Bytes currently owned by the arena (free + outstanding)."""
        return self._footprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScratchArena(footprint={self._footprint}B, peak={self.peak_bytes}B, "
            f"reused={self.bytes_reused}B, allocated={self.bytes_allocated}B)"
        )
