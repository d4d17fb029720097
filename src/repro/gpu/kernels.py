"""SIMT-style kernel launch framework for the virtual GPU.

A kernel is a Python callable with vectorized-NumPy body semantics: it
receives the array of logical thread indices and computes all threads at
once (one logical thread per element, exactly the mapping of the paper's
Fig. 2: "consecutive threads are mapped to a continuous series of bases").
``VirtualGPU.launch`` decomposes the thread range into thread blocks for
accounting, executes the body, charges time through the kernel cost model,
and appends a :class:`KernelStats` record to the device log.

The launch framework is deliberately thin — the algorithmic content lives in
the bodies (built from :mod:`repro.kmers`) — but it is the single place
where simulated GPU time is accrued, so every pipeline phase that claims to
be "on the GPU" must go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..telemetry import active
from .costmodel import KernelCostModel, TrafficEstimate, staging_time
from ..machines import DeviceSpec, v100

__all__ = ["KernelStats", "VirtualGPU"]


@dataclass(frozen=True)
class KernelStats:
    """Execution record of one kernel launch."""

    name: str
    n_threads: int
    n_blocks: int
    block_size: int
    traffic: TrafficEstimate
    time_s: float


@dataclass
class VirtualGPU:
    """One simulated GPU: executes kernels, accrues time, logs launches."""

    device: DeviceSpec = field(default_factory=v100)
    block_size: int = 256
    log: list[KernelStats] = field(default_factory=list)
    elapsed: float = 0.0
    staged_bytes: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.block_size <= self.device.max_threads_per_block:
            raise ValueError(
                f"block_size must be in [1, {self.device.max_threads_per_block}], got {self.block_size}"
            )
        self._cost = KernelCostModel(self.device)

    def launch(
        self,
        name: str,
        n_threads: int,
        body: Callable[[np.ndarray], Any],
        traffic: TrafficEstimate | Callable[[Any], TrafficEstimate],
    ) -> Any:
        """Run ``body(thread_indices)`` as one kernel; charge modeled time.

        ``n_threads`` is the logical grid size; the body receives
        ``np.arange(n_threads)`` and must be fully vectorized.  Zero-thread
        launches are legal (the paper's kernels are launched unconditionally
        per round) and cost only the launch overhead.

        ``traffic`` may be a callable of the body's result, for kernels
        whose work is only known after execution (e.g. hash-table inserts,
        whose probe counts come out of the insert itself).
        """
        if n_threads < 0:
            raise ValueError("n_threads must be non-negative")
        result = body(np.arange(n_threads, dtype=np.int64))
        self.charge(name, n_threads, traffic(result) if callable(traffic) else traffic)
        return result

    def charge(self, name: str, n_threads: int, traffic: TrafficEstimate) -> float:
        """Charge one launch whose body already ran; returns its modeled seconds.

        The accounting half of :meth:`launch` — log record, accrued time
        and the ``gpu_kernel_*`` telemetry, emitted here only — for callers
        that hold the launch's work figures without having run it as a
        per-thread body (the substrates' per-rank charges).
        """
        n_blocks = -(-n_threads // self.block_size) if n_threads else 0
        stats = KernelStats(
            name=name,
            n_threads=n_threads,
            n_blocks=n_blocks,
            block_size=self.block_size,
            traffic=traffic,
            time_s=self._cost.kernel_time(traffic),
        )
        self.log.append(stats)
        self.elapsed += stats.time_s
        reg = active()
        if reg is not None:
            reg.counter("gpu_kernel_launches_total", "Kernel launches", kernel=name).inc()
            reg.counter("gpu_kernel_threads_total", "Logical threads launched", kernel=name).inc(n_threads)
            reg.counter(
                "gpu_kernel_model_seconds_total", "Modeled kernel seconds", kernel=name
            ).inc(stats.time_s)
            reg.counter(
                "gpu_kernel_atomic_ops_total", "Modeled atomic operations", kernel=name
            ).inc(traffic.atomic_ops)
        return stats.time_s

    def stage(self, h2d_bytes: int, d2h_bytes: int) -> float:
        """Charge a host<->device staging copy; returns its modeled time."""
        t = staging_time(self.device, h2d_bytes, d2h_bytes)
        self.elapsed += t
        self.staged_bytes += int(h2d_bytes + d2h_bytes)
        return t

    def time_of(self, kernel_name: str) -> float:
        """Total modeled seconds spent in launches with this name."""
        return sum(s.time_s for s in self.log if s.name == kernel_name)

    def reset(self) -> None:
        self.log.clear()
        self.elapsed = 0.0
        self.staged_bytes = 0
