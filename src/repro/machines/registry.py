"""Named machine presets and the user-extensible machine registry.

``summit-gpu`` / ``summit-cpu`` reproduce the paper's machine exactly
(Section V-A) and are the calibration anchors: golden suites and the bench
guard pin their modeled times bit-identically.  The other presets are
what-if machines for cross-machine studies; no paper measurement backs
them, but every exact observable they produce is identical to Summit's by
construction (see :mod:`repro.machines.spec`).

``register_machine`` adds user machines at runtime; calibration files
(:func:`repro.machines.load`) are the declarative route to the same thing.
"""

from __future__ import annotations

from typing import Callable

from .device import a100, v100
from .network import NetworkSpec
from .rates import GpuPipelineModel, epyc_rates, power9_rates
from .spec import MachineSpec

__all__ = ["register_machine", "get_machine", "machine_names", "DEFAULT_MACHINES"]


def summit_network() -> NetworkSpec:
    """Summit's real fabric: dual-rail EDR InfiniBand, non-blocking fat tree.

    Each AC922 node has two EDR rails (~23 GB/s achievable per-node
    injection, Section V-A) into a three-level fat tree of radix-36
    Mellanox switches.  The tree is *full bisection*: every level's
    aggregate uplink equals its group's injection (the empty
    ``switch_uplink_bw`` default), so no switch level can bottleneck and
    the modeled seconds equal the flat alpha-beta form bit for bit — the
    hierarchy only adds per-link breakdown rows.
    """
    return NetworkSpec(
        injection_bw=23e9,
        intra_node_bw=50e9,
        latency=2e-6,
        alltoallv_efficiency=0.04,
        switch_levels=3,
        switch_radix=36,
    )


def summit_gpu_machine() -> MachineSpec:
    """Summit, GPU layout: 6 ranks/node, one per V100 (Section V-A)."""
    return MachineSpec(
        name="summit-gpu",
        description="Summit AC922 node (2xPower9 + 6xV100, 23 GB/s injection), 6 ranks/node",
        sockets_per_node=2,
        cores_per_node=42,
        gpus_per_node=6,
        ranks_per_node=6,
        network=summit_network(),
        node_cost=6.0,  # 6 V100s dominate the node-hour price
        device=v100(),
        cpu_rates=power9_rates(),
        gpu_model=GpuPipelineModel(),
    )


def summit_cpu_machine() -> MachineSpec:
    """Summit, CPU-baseline layout: 42 ranks/node, one per usable core."""
    return MachineSpec(
        name="summit-cpu",
        description="Summit AC922 node, diBELLA CPU-baseline layout, 42 ranks/node",
        sockets_per_node=2,
        cores_per_node=42,
        gpus_per_node=6,
        ranks_per_node=42,
        network=summit_network(),
        node_cost=6.0,  # same hardware as summit-gpu, GPUs idle
        device=v100(),
        cpu_rates=power9_rates(),
        gpu_model=GpuPipelineModel(),
    )


def a100_gpu_machine() -> MachineSpec:
    """A Perlmutter-class GPU machine: 4xA100 nodes on a fat Slingshot fabric."""
    return MachineSpec(
        name="a100-gpu",
        description="Perlmutter-class node (1xEPYC + 4xA100-40GB, 4x25 GB/s NICs), 4 ranks/node",
        sockets_per_node=1,
        cores_per_node=64,
        gpus_per_node=4,
        ranks_per_node=4,
        network=NetworkSpec(
            injection_bw=100e9,
            intra_node_bw=80e9,
            latency=1.5e-6,
            alltoallv_efficiency=0.05,
        ),
        node_cost=5.0,
        device=a100(),
        cpu_rates=epyc_rates(),
        gpu_model=GpuPipelineModel(exchange_overhead_s=1.0),
    )


def fat_nic_gpu_machine() -> MachineSpec:
    """Summit's node compute with 4x the injection bandwidth.

    The what-if the paper's Fig. 3b begs for: exchange is ~80% of the GPU
    pipeline, so a fat-NIC variant isolates how far faster networking alone
    moves the balance point.  Identical rank layout to ``summit-gpu``, so
    every exact observable matches Summit bit-for-bit.
    """
    return (
        summit_gpu_machine()
        .with_network(injection_bw=4 * 23e9)
        .with_overrides(
            name="fat-nic-gpu",
            description="Summit node compute with 4x injection bandwidth (fat-NIC what-if), 6 ranks/node",
            node_cost=6.5,
        )
    )


def tapered_fabric_gpu_machine() -> MachineSpec:
    """Summit's nodes behind a congested commodity fabric (hierarchical what-if).

    The preset that exercises every hierarchical feature at once: a
    two-level fat tree tapered 2:1 at both levels (uplinks carry half the
    group's aggregate injection, so both levels *contend*), an NVLink
    socket split inside the node, an eager/rendezvous protocol crossover,
    and an incast penalty on skewed destination columns.  Same 6
    ranks/node as ``summit-gpu``, so every exact observable matches
    Summit bit for bit while the per-link breakdown shows real switch
    contention — the machine ``tools/check_golden_machines.py`` replays.
    """
    taper = 0.5  # uplink capacity as a fraction of full bisection (2:1)
    return summit_gpu_machine().with_overrides(
        name="tapered-fabric-gpu",
        description="Summit nodes on a 2:1-tapered 2-level fat tree with incast + rendezvous (what-if), 6 ranks/node",
        node_cost=5.5,  # cheaper fabric is the point of tapering
        network=summit_network().with_overrides(
            intra_socket_bw=150e9,  # 3xNVLink2 within a socket's GPU triple
            switch_levels=2,
            switch_radix=36,
            switch_uplink_bw=(taper * 18 * 23e9, taper * 324 * 23e9),
            eager_threshold=16384,
            rendezvous_latency=6e-6,
            incast_penalty=0.5,
        ),
    )


def generic_cpu_machine() -> MachineSpec:
    """A commodity CPU-only cluster: dual-socket x86 nodes on 100 GbE."""
    return MachineSpec(
        name="generic-cpu",
        description="Commodity CPU cluster (2x32-core x86, 100 GbE), 64 ranks/node",
        sockets_per_node=2,
        cores_per_node=64,
        gpus_per_node=0,
        network=NetworkSpec(
            injection_bw=12.5e9,
            intra_node_bw=30e9,
            latency=1.5e-6,
            alltoallv_efficiency=0.06,
        ),
        node_cost=1.0,
        device=None,
        cpu_rates=epyc_rates(),
        gpu_model=GpuPipelineModel(),
    )


#: The built-in presets: name -> factory.
DEFAULT_MACHINES: dict[str, Callable[[], MachineSpec]] = {
    "summit-gpu": summit_gpu_machine,
    "summit-cpu": summit_cpu_machine,
    "a100-gpu": a100_gpu_machine,
    "fat-nic-gpu": fat_nic_gpu_machine,
    "tapered-fabric-gpu": tapered_fabric_gpu_machine,
    "generic-cpu": generic_cpu_machine,
}

_MACHINES: dict[str, Callable[[], MachineSpec]] = dict(DEFAULT_MACHINES)


def register_machine(spec_or_factory: MachineSpec | Callable[[], MachineSpec], name: str | None = None) -> str:
    """Register a machine under ``name`` (default: the spec's own name).

    Accepts a ready :class:`MachineSpec` or a zero-argument factory.
    Returns the registered name.  Re-registering a name replaces it, so
    tests and notebooks can shadow presets locally.
    """
    if isinstance(spec_or_factory, MachineSpec):
        spec = spec_or_factory
        factory: Callable[[], MachineSpec] = lambda: spec  # noqa: E731
        name = name or spec.name
    else:
        factory = spec_or_factory
        name = name or factory().name
    if not name:
        raise ValueError("machine registration needs a non-empty name")
    _MACHINES[name] = factory
    return name


def machine_names() -> tuple[str, ...]:
    """All registered machine names, sorted — CLI choices and error messages."""
    return tuple(sorted(_MACHINES))


def get_machine(name: str) -> MachineSpec:
    """Resolve a registered machine by name."""
    factory = _MACHINES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown machine {name!r}; registered machines: {', '.join(machine_names())} "
            "(or pass a .toml/.json calibration file; see docs/MACHINES.md)"
        )
    return factory()
