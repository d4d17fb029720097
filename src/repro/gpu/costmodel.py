"""Kernel time model for the virtual GPU.

A kernel's simulated time is the max of its roofline terms plus launch
overhead::

    t = launch + max(streaming_bytes / stream_bw,
                     random_bytes / random_bw,
                     atomic_ops * contention / atomic_rate)

``TrafficEstimate`` describes what a kernel touches; the launch framework
(:mod:`repro.gpu.kernels`) fills one in from the actual array sizes the
kernel processed, so modeled time always reflects executed work, never a
guess.  Host<->device staging (the "copying data back and forth from CPU to
GPU" of Section V-B) is modeled separately by :func:`staging_time` and
skipped when the pipeline is configured for GPUDirect (Section III-B2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machines import DeviceSpec

__all__ = ["TrafficEstimate", "KernelCostModel", "staging_time"]


@dataclass(frozen=True)
class TrafficEstimate:
    """Memory/atomic work performed by one kernel launch.

    ``atomic_hot_fraction`` is the fraction of atomic operations contending
    for a small set of hot addresses (e.g. the per-destination outgoing
    buffer counters of Fig. 2, which every thread increments); those pay the
    device's serialization penalty, the rest proceed at the spread rate.
    """

    streaming_bytes: float = 0.0
    random_bytes: float = 0.0
    atomic_ops: float = 0.0
    atomic_hot_fraction: float = 0.0
    thread_ops: float = 0.0

    def __post_init__(self) -> None:
        if min(self.streaming_bytes, self.random_bytes, self.atomic_ops, self.thread_ops) < 0:
            raise ValueError("traffic quantities must be non-negative")
        if not 0.0 <= self.atomic_hot_fraction <= 1.0:
            raise ValueError("atomic_hot_fraction must be in [0, 1]")

    def combined(self, other: "TrafficEstimate") -> "TrafficEstimate":
        total_atomics = self.atomic_ops + other.atomic_ops
        hot = 0.0
        if total_atomics > 0:
            hot = (
                self.atomic_ops * self.atomic_hot_fraction + other.atomic_ops * other.atomic_hot_fraction
            ) / total_atomics
        return TrafficEstimate(
            streaming_bytes=self.streaming_bytes + other.streaming_bytes,
            random_bytes=self.random_bytes + other.random_bytes,
            atomic_ops=total_atomics,
            atomic_hot_fraction=hot,
            thread_ops=self.thread_ops + other.thread_ops,
        )


@dataclass(frozen=True)
class KernelCostModel:
    """Turns a :class:`TrafficEstimate` into seconds on a :class:`DeviceSpec`."""

    device: DeviceSpec = field(default_factory=lambda: _default_device())

    def kernel_time(self, traffic: TrafficEstimate) -> float:
        dev = self.device
        t_stream = traffic.streaming_bytes / dev.stream_bw
        t_random = traffic.random_bytes / dev.random_bw
        hot_ops = traffic.atomic_ops * traffic.atomic_hot_fraction
        cold_ops = traffic.atomic_ops - hot_ops
        t_atomic = (cold_ops + hot_ops * dev.atomic_serialization) / dev.atomic_rate
        t_ops = traffic.thread_ops / dev.op_rate
        return dev.kernel_launch_overhead + max(t_stream, t_random, t_atomic, t_ops)


def staging_time(device: DeviceSpec, h2d_bytes: float, d2h_bytes: float) -> float:
    """Host->device plus device->host copy time over the host link.

    The two directions share the link in sequence in the paper's staged
    (non-GPUDirect) exchange: data is copied to the CPU, exchanged, then
    copied back (Section III-B2).
    """
    if h2d_bytes < 0 or d2h_bytes < 0:
        raise ValueError("staged byte counts must be non-negative")
    return (h2d_bytes + d2h_bytes) / device.host_link_bw


def _default_device() -> DeviceSpec:
    # The default device comes from the machine registry's default preset,
    # not a hardwired constructor, so recalibrating or re-registering
    # "summit-gpu" reaches every KernelCostModel() built without an
    # explicit device.
    from ..machines import get_machine

    return get_machine("summit-gpu").resolved_device
