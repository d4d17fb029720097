"""Virtual GPU device descriptions (canonical home).

:class:`DeviceSpec` captures the architectural parameters the kernel cost
model consumes.  The ``v100()`` preset matches the paper's Summit GPUs
(Section V-A: 80 SMs, 16 GB HBM2, 6 MB L2, NVLink at 25 GB/s per link).

Peak numbers alone wildly overestimate what an irregular k-mer kernel
achieves, so the spec also carries *achieved-efficiency* factors for the
three access patterns the pipelines use (streaming, random-access, atomic).
These are calibration constants: they are chosen so the modeled per-GPU
kernel rates land where the paper measured them (Fig. 3b implies roughly
60M k-mers/s/GPU end-to-end for parse+count on H. sapiens at 384 GPUs,
about 100x the per-node CPU baseline), and they are exposed so ablation
benchmarks can sweep them.

It sits below the ``mpi``/``gpu`` substrates so the unified machine model
(:mod:`repro.machines`) can own device descriptions without a back-edge;
import it from here or from :mod:`repro.machines`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceSpec", "v100", "a100", "generic_gpu", "device_names", "get_device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural + calibration parameters of one virtual GPU."""

    name: str
    n_sms: int
    warp_size: int
    max_threads_per_block: int
    hbm_bytes: int
    hbm_bw: float  # bytes/s peak
    l2_bytes: int
    host_link_bw: float  # bytes/s per direction, CPU<->GPU (NVLink on Summit)
    kernel_launch_overhead: float  # seconds per launch
    # Achieved fractions of peak HBM bandwidth per access pattern:
    streaming_efficiency: float = 0.60  # coalesced sequential sweeps
    random_efficiency: float = 0.08  # hash-table probes (one 32B useful / 64B line, queueing)
    # Atomic operation throughput (ops/s) when spread over many addresses,
    # and the serialization penalty when many threads hit one address:
    atomic_rate: float = 2.0e9
    atomic_serialization: float = 64.0  # effective slowdown for same-address bursts
    # Effective aggregate throughput of serialized per-thread instruction
    # work (register ops, branches) across the whole device, ops/s.  This is
    # the term that carries the calibrated per-item kernel costs (see
    # repro.machines.rates.GpuPipelineModel): V100 peak integer throughput
    # is far higher, but divergent per-thread scanning code achieves a small
    # fraction of it.
    op_rate: float = 1.0e11

    def __post_init__(self) -> None:
        if min(self.n_sms, self.warp_size, self.max_threads_per_block, self.hbm_bytes, self.l2_bytes) < 1:
            raise ValueError("device dimensions must be positive")
        if min(self.hbm_bw, self.host_link_bw, self.atomic_rate, self.op_rate) <= 0:
            raise ValueError("bandwidths/rates must be positive")
        if self.kernel_launch_overhead < 0:
            raise ValueError("launch overhead must be non-negative")
        for eff in (self.streaming_efficiency, self.random_efficiency):
            if not 0 < eff <= 1:
                raise ValueError("efficiencies must be in (0, 1]")

    @property
    def stream_bw(self) -> float:
        """Achieved bandwidth for coalesced streaming access (bytes/s)."""
        return self.hbm_bw * self.streaming_efficiency

    @property
    def random_bw(self) -> float:
        """Achieved bandwidth for random (hash-probe) access (bytes/s)."""
        return self.hbm_bw * self.random_efficiency

    def fits(self, bytes_needed: int) -> bool:
        """Whether a working set fits device memory (drives round splitting)."""
        return bytes_needed <= self.hbm_bytes

    def with_overrides(self, **kwargs: object) -> "DeviceSpec":
        """Copy with selected fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


def v100() -> DeviceSpec:
    """NVIDIA V100 SXM2 16 GB, as installed in Summit nodes."""
    return DeviceSpec(
        name="V100-SXM2-16GB",
        n_sms=80,
        warp_size=32,
        max_threads_per_block=1024,
        hbm_bytes=16 * 1024**3,
        hbm_bw=900e9,
        l2_bytes=6 * 1024**2,
        host_link_bw=25e9,
        kernel_launch_overhead=5e-6,
    )


def a100() -> DeviceSpec:
    """NVIDIA A100 SXM4 40 GB (Perlmutter-class nodes).

    Relative to the V100: ~1.7x HBM bandwidth, 2.5x HBM capacity, a much
    larger L2, and a host link that is PCIe 4.0 rather than NVLink-to-CPU
    (no Power9-style coherent link on x86 hosts).  The effective ``op_rate``
    doubles — Ampere's higher SM count and clocks roughly double divergent
    integer scanning throughput in practice.
    """
    return DeviceSpec(
        name="A100-SXM4-40GB",
        n_sms=108,
        warp_size=32,
        max_threads_per_block=1024,
        hbm_bytes=40 * 1024**3,
        hbm_bw=1555e9,
        l2_bytes=40 * 1024**2,
        host_link_bw=25e9,
        kernel_launch_overhead=4e-6,
        atomic_rate=4.0e9,
        op_rate=2.0e11,
    )


def generic_gpu(hbm_bw: float = 500e9, hbm_gb: int = 8) -> DeviceSpec:
    """A smaller generic device, useful for what-if studies."""
    return DeviceSpec(
        name=f"generic-{int(hbm_bw / 1e9)}GBps",
        n_sms=40,
        warp_size=32,
        max_threads_per_block=1024,
        hbm_bytes=hbm_gb * 1024**3,
        hbm_bw=hbm_bw,
        l2_bytes=4 * 1024**2,
        host_link_bw=16e9,
        kernel_launch_overhead=5e-6,
    )


#: Named device presets, referenced by machine calibration files
#: (``device = "v100"``) and by :func:`get_device`.
_DEVICES = {
    "v100": v100,
    "a100": a100,
    "generic": generic_gpu,
}


def device_names() -> tuple[str, ...]:
    """Registered device preset names, sorted."""
    return tuple(sorted(_DEVICES))


def get_device(name: str) -> DeviceSpec:
    """Resolve a device preset by name."""
    factory = _DEVICES.get(name)
    if factory is None:
        raise ValueError(f"unknown device preset {name!r}; registered devices: {', '.join(device_names())}")
    return factory()
