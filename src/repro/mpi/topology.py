"""Cluster topology descriptions for the communication simulator.

The paper's machine is Summit (Section V-A): IBM AC922 nodes, each with two
Power9 sockets (42 usable cores) and 6 NVIDIA V100s, nodes connected by a
dual-rail EDR InfiniBand fat tree with ~23 GB/s *per-node* injection
bandwidth.  Two rank layouts are used: 6 ranks/node (one per GPU) for the
GPU runs and 42 ranks/node (one per core) for the CPU baseline.

:class:`ClusterSpec` captures exactly what the communication cost model
needs — the rank->node mapping and the machine's
:class:`~repro.machines.NetworkSpec` (injection and intra-node bandwidth,
message latency, the link hierarchy).  The numbers come from a declarative
:class:`~repro.machines.MachineSpec`: :func:`cluster_for` instantiates any
registered machine (or calibration file) at a node count, and the named
Summit constructors below are thin wrappers over the ``summit-gpu`` /
``summit-cpu`` presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..machines import MachineSpec, NetworkSpec, get_machine, resolve_machine

__all__ = ["ClusterSpec", "cluster_for", "summit_gpu", "summit_cpu"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster for the bulk-synchronous communication model.

    ``network`` carries every interconnect number the cost model reads;
    the default :class:`~repro.machines.NetworkSpec` is Summit's flat
    alpha-beta core (23 GB/s injection, ``alltoallv_efficiency`` 0.04 —
    calibrated so the modeled H. sapiens 54X exchange on 64 nodes lands
    near the paper's ~25-30 s, Fig. 3b).
    """

    name: str
    n_nodes: int
    ranks_per_node: int
    placement: str = "block"  # rank->node mapping: "block" (jsrun) or "round-robin"
    # Socket count per node: how the intra-node rank block splits across
    # sockets when the network models an NVLink/X-bus distinction.
    sockets_per_node: int = 2
    # The interconnect: alpha-beta core plus link hierarchy (switch levels,
    # socket split, protocol regimes, incast, GPUDirect).
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("n_nodes and ranks_per_node must be positive")
        if self.placement not in ("block", "round-robin"):
            raise ValueError("placement must be 'block' or 'round-robin'")
        if self.sockets_per_node < 1:
            raise ValueError("sockets_per_node must be >= 1")
        if not isinstance(self.network, NetworkSpec):
            raise ValueError(f"network must be a NetworkSpec, got {self.network!r}")

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``.

        ``"block"`` packs consecutive ranks on a node (jsrun's default and
        the paper's layout); ``"round-robin"`` deals ranks across nodes —
        the placement knob cluster schedulers expose, which changes how a
        skewed traffic matrix aggregates onto node uplinks.
        """
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        if self.placement == "block":
            return rank // self.ranks_per_node
        return rank % self.n_nodes

    def node_map(self) -> np.ndarray:
        """int32 array mapping every rank to its node."""
        ranks = np.arange(self.n_ranks, dtype=np.int32)
        if self.placement == "block":
            return (ranks // self.ranks_per_node).astype(np.int32)
        return (ranks % self.n_nodes).astype(np.int32)

    def with_nodes(self, n_nodes: int) -> "ClusterSpec":
        """Same cluster at a different node count (for scaling sweeps)."""
        return replace(self, n_nodes=n_nodes)


def cluster_for(machine: MachineSpec | str, n_nodes: int) -> ClusterSpec:
    """Instantiate a machine's rank topology at ``n_nodes`` nodes.

    ``machine`` is a :class:`~repro.machines.MachineSpec`, a registered
    preset name, or a calibration-file path (resolved through
    :func:`repro.machines.resolve_machine`).  Every network parameter of
    the resulting cluster comes from the machine spec; the node count is
    the one run-time override.
    """
    m = resolve_machine(machine)
    return ClusterSpec(
        name=f"{m.name}-{n_nodes}n",
        n_nodes=n_nodes,
        ranks_per_node=m.effective_ranks_per_node,
        placement=m.placement,
        sockets_per_node=m.sockets_per_node,
        network=m.network,
    )


def summit_gpu(n_nodes: int) -> ClusterSpec:
    """Summit GPU layout: 6 MPI ranks per node, one per V100 (Section V-A)."""
    return cluster_for(get_machine("summit-gpu"), n_nodes)


def summit_cpu(n_nodes: int) -> ClusterSpec:
    """Summit CPU-baseline layout: 42 MPI ranks per node, one per core."""
    return cluster_for(get_machine("summit-cpu"), n_nodes)
