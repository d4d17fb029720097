"""The declarative machine model: one spec for topology, device, and rates.

A :class:`MachineSpec` is everything the simulator needs to know about a
machine, in one frozen object:

* **node shape** — sockets, cores, GPUs per node, and the MPI rank layout
  (``ranks_per_node``; defaults to one rank per GPU, or one per core on a
  CPU-only machine);
* **network** — the :class:`~repro.machines.network.NetworkSpec` (the one
  declaration of the interconnect: injection/intra-node bandwidth, latency,
  alltoallv efficiency and the link hierarchy) plus rank placement;
* **device** — the :class:`~repro.machines.device.DeviceSpec` of each GPU
  (``None`` on CPU-only machines);
* **kernel calibration** — :class:`~repro.machines.rates.CpuRates` and
  :class:`~repro.machines.rates.GpuPipelineModel`.

Only *model times* depend on a machine.  Exact observables — counts,
spectra, per-rank arrays, traffic bytes — are functions of the rank
topology and the algorithm alone, so two machines with the same rank
layout produce bit-identical observables and differ only in modeled
seconds.  That invariance is what makes cross-machine what-if studies
(A100-class nodes, fat-NIC clusters, CPU-only fleets) meaningful: the
paper's Summit results and any hypothetical machine count the same k-mers.

Presets live in :mod:`repro.machines.registry`; calibration files load via
:mod:`repro.machines.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .device import DeviceSpec, generic_gpu
from .network import NetworkSpec
from .rates import CpuRates, GpuPipelineModel

__all__ = ["MachineSpec"]

#: Rank placements the communication model understands.
PLACEMENTS = ("block", "round-robin")


@dataclass(frozen=True)
class MachineSpec:
    """One machine, declaratively: node shape, network, device, rates."""

    name: str
    description: str = ""
    # -- node shape ----------------------------------------------------------
    sockets_per_node: int = 2
    cores_per_node: int = 42
    gpus_per_node: int = 0
    # MPI ranks per node; None picks one per GPU (GPU machines) or one per
    # core (CPU-only machines) — the paper's two Summit layouts.
    ranks_per_node: int | None = None
    # -- network -------------------------------------------------------------
    # The interconnect: alpha-beta core plus link hierarchy (switch levels,
    # socket split, protocol regimes, GPUDirect).  The default is Summit's
    # flat core.
    network: NetworkSpec = field(default_factory=NetworkSpec)
    placement: str = "block"  # rank->node mapping: "block" (jsrun) or "round-robin"
    # -- deployment cost -------------------------------------------------------
    # Relative cost of one node-hour on this machine (any consistent unit:
    # dollars, SUs, watts).  The `repro plan` capacity planner ranks
    # machine x node-count candidates by modeled time x nodes x node_cost.
    node_cost: float = 1.0
    # -- device + kernel calibration ------------------------------------------
    device: DeviceSpec | None = None  # None on CPU-only machines
    cpu_rates: CpuRates = field(default_factory=CpuRates)
    gpu_model: GpuPipelineModel = field(default_factory=GpuPipelineModel)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("machine spec needs a non-empty 'name'")
        for fname in ("sockets_per_node", "cores_per_node"):
            if int(getattr(self, fname)) < 1:
                raise ValueError(f"machine {self.name!r}: {fname} must be >= 1")
        if self.gpus_per_node < 0:
            raise ValueError(f"machine {self.name!r}: gpus_per_node must be >= 0")
        if self.ranks_per_node is not None and self.ranks_per_node < 1:
            raise ValueError(f"machine {self.name!r}: ranks_per_node must be >= 1 (or omitted)")
        if not isinstance(self.network, NetworkSpec):
            raise ValueError(f"machine {self.name!r}: network must be a NetworkSpec, got {self.network!r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"machine {self.name!r}: placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.node_cost <= 0:
            raise ValueError(f"machine {self.name!r}: node_cost must be positive")
        if self.gpus_per_node > 0 and self.device is None:
            raise ValueError(
                f"machine {self.name!r}: gpus_per_node={self.gpus_per_node} but no device spec; "
                "give a [device] section / DeviceSpec, or set gpus_per_node = 0"
            )

    # -- derived layout --------------------------------------------------------

    @property
    def effective_ranks_per_node(self) -> int:
        """The MPI rank layout: explicit, else one per GPU, else one per core."""
        if self.ranks_per_node is not None:
            return self.ranks_per_node
        return self.gpus_per_node if self.gpus_per_node > 0 else self.cores_per_node

    @property
    def resolved_device(self) -> DeviceSpec:
        """The machine's device, or a generic fallback on CPU-only machines.

        CPU-only pipelines still consult a device for memory budgeting
        (auto-round splitting); the fallback keeps those paths defined
        without pretending the machine has real GPUs.
        """
        return self.device if self.device is not None else generic_gpu()

    def with_overrides(self, **kwargs: object) -> "MachineSpec":
        """Copy with selected fields replaced (what-if studies, tests).

        Network knobs live on the :class:`NetworkSpec`; change them with
        :meth:`with_network`.
        """
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(
                f"machine {self.name!r}: unknown field(s) {', '.join(sorted(unknown))}; "
                "network knobs go through with_network(...)"
            )
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def with_network(self, **kwargs: object) -> "MachineSpec":
        """Copy with :class:`NetworkSpec` fields replaced (machine knobs).

        The one way to change a network knob:
        ``machine.with_network(injection_bw=92e9, gpudirect=True)``.
        """
        return self.with_overrides(network=self.network.with_overrides(**kwargs))
