"""Hierarchical communication time model calibrated to Summit.

The simulator counts exact bytes; this module routes a ``(P, P)`` byte
matrix over the cluster's link hierarchy (a
:class:`~repro.machines.NetworkSpec`) and returns a bulk-synchronous
completion time.  The base form is the standard alpha-beta model with
node-level bandwidth aggregation:

* every rank participates in ``P - 1`` pairwise message rounds, paying
  ``alpha`` latency each (``alpha * (P - 1)`` total — the term that makes
  tiny alltoallvs latency-bound);
* all traffic leaving or entering a *node* shares that node's injection
  bandwidth (Summit: 23 GB/s), derated by ``alltoallv_efficiency`` to the
  throughput a real many-rank MPI_Alltoallv sustains;
* traffic between ranks on the same node moves at the (faster) intra-node
  bandwidth and overlaps with network traffic;
* completion time is the max over *links* (bulk-synchronous semantics over
  the hierarchy), so *skewed* byte matrices — the supermer pipeline's
  signature, Table III — are automatically penalized, exactly the effect
  the paper reports as "variance in the speedup ... caused by the load
  imbalance" (Fig. 8).

On a hierarchical network the router additionally accumulates bytes onto
every declared link class and applies the congestion/protocol terms:

* **socket split** — same-socket traffic moves at ``intra_socket_bw``
  (NVLink) while cross-socket traffic keeps the X-bus ``intra_node_bw``;
* **switch uplinks** — traffic leaving a level-``l`` switch group shares
  that group's aggregate uplink; a *tapered* (oversubscribed) level joins
  the completion max, while a full-bisection level cannot bottleneck (its
  aggregate time is a mean of member-node injection times) and is reported
  in the breakdown only;
* **eager/rendezvous regimes** — messages above ``eager_threshold`` pay
  the rendezvous handshake latency instead of the eager ``alpha``;
* **incast** — the busiest receiving node of a skewed column pays a
  fan-in penalty proportional to the receive-side skew.

The flat single-level topology is the degenerate case: with no socket
split, no switch levels, one protocol regime and no incast penalty, every
hierarchical term contributes exactly ``0.0`` and the completion time is
bit-identical to the pre-hierarchy model (the bench guard enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import ClusterSpec

__all__ = ["CommCostModel", "AlltoallvTiming", "LinkTime"]


#: Alltoallv algorithm schedules the model knows (real MPI libraries switch
#: between them by message size).
SCHEDULES = ("pairwise", "bruck", "auto")


@dataclass(frozen=True)
class LinkTime:
    """One link class's share of a modeled alltoallv.

    ``seconds`` is the busiest element's time on this link class (node,
    socket, or switch group — BSP semantics per link); ``contending``
    says whether the link can set the completion max (a full-bisection
    switch level cannot, by construction).
    """

    link: str  # "intra-socket", "intra-node", "injection", "uplink-L1", ...
    seconds: float
    bytes: float  # total bytes crossing this link class
    busiest: int  # element index (node/group) that sets this link's time
    contending: bool


@dataclass(frozen=True)
class AlltoallvTiming:
    """Breakdown of one modeled alltoallv."""

    latency_time: float
    inter_node_time: float
    intra_node_time: float
    bottleneck_node: int
    schedule: str = "pairwise"
    # -- hierarchical terms (all neutral on a flat network) -------------------
    links: tuple[LinkTime, ...] = ()  # per-link breakdown, innermost first
    contention_time: float = 0.0  # max over oversubscribed switch levels
    incast_seconds: float = 0.0  # fan-in penalty on the busiest receiver
    rendezvous_messages: int = 0  # per-rank messages in the rendezvous regime

    @property
    def total(self) -> float:
        # Intra-node copies overlap with network transfers and switch hops;
        # the slowest link class dominates, latency is serialized setup,
        # and incast serializes on top of the busiest receiver.
        return (
            self.latency_time
            + max(self.inter_node_time, self.intra_node_time, self.contention_time)
            + self.incast_seconds
        )

    @property
    def bottleneck_link(self) -> str:
        """Name of the contending link class that sets the completion max."""
        best = max(
            (lt for lt in self.links if lt.contending),
            key=lambda lt: lt.seconds,
            default=None,
        )
        if best is not None:
            return best.link
        return "injection" if self.inter_node_time >= self.intra_node_time else "intra-node"


class CommCostModel:
    """Maps byte matrices to times for a given :class:`ClusterSpec`."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    # -- collectives -----------------------------------------------------------

    def alltoallv(self, bytes_matrix: np.ndarray, schedule: str = "auto") -> AlltoallvTiming:
        """Completion time of an irregular all-to-all with this byte matrix.

        ``schedule`` picks the collective algorithm:

        * ``"pairwise"`` — P-1 rounds of direct pairwise exchange: latency
          ``alpha*(P-1)``, each byte crosses the network once (the right
          choice for large payloads — this is what big k-mer exchanges use);
        * ``"bruck"`` — ``ceil(log2 P)`` store-and-forward rounds: latency
          ``alpha*log2(P)``, but each byte is transmitted ``~log2(P)/2``
          times (wins for tiny payloads like the counts exchange);
        * ``"auto"`` — whichever finishes first, as real MPI implementations
          select by message size.
        """
        if schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
        mat = np.ascontiguousarray(bytes_matrix, dtype=np.float64)
        c = self.cluster
        p = c.n_ranks
        if mat.shape != (p, p):
            raise ValueError(f"bytes_matrix must be ({p}, {p}) for {c.name}, got {mat.shape}")
        net = c.network
        nodes = c.node_map()
        n = c.n_nodes
        # Node-aggregated matrix: traffic[node_i, node_j].
        node_mat = np.zeros((n, n), dtype=np.float64)
        np.add.at(node_mat, (nodes[:, None], nodes[None, :]), mat)

        # ---- injection link: max over nodes of the NIC time ----
        inter_out = node_mat.sum(axis=1) - np.diag(node_mat)
        inter_in = node_mat.sum(axis=0) - np.diag(node_mat)
        eff_bw = net.injection_bw * net.alltoallv_efficiency
        per_node_inter = np.maximum(inter_out, inter_in) / eff_bw
        bottleneck = int(per_node_inter.argmax()) if n else 0
        inter_time = float(per_node_inter.max()) if n else 0.0

        # ---- intra-node link(s): one pool, or an NVLink/X-bus split ----
        # Intra-node traffic excludes rank-local (diagonal of the rank matrix).
        intra = np.diag(node_mat).copy()
        for_rank_local = np.zeros(n, dtype=np.float64)
        np.add.at(for_rank_local, nodes, np.diag(mat))
        intra -= for_rank_local
        links: list[LinkTime] = []
        if net.intra_socket_bw is None:
            intra_time = float(intra.max() / net.intra_node_bw) if n else 0.0
            intra_busy = int(intra.argmax()) if n else 0
            links.append(LinkTime("intra-node", intra_time, float(intra.sum()), intra_busy, True))
        else:
            same_bytes, cross_bytes = self._socket_split(mat, nodes, n)
            socket_time = float(same_bytes.max() / net.intra_socket_bw) if n else 0.0
            cross_time = float(cross_bytes.max() / net.intra_node_bw) if n else 0.0
            intra_time = max(socket_time, cross_time)
            links.append(
                LinkTime(
                    "intra-socket",
                    socket_time,
                    float(same_bytes.sum()),
                    int(same_bytes.argmax()) if n else 0,
                    True,
                )
            )
            links.append(
                LinkTime(
                    "intra-node",
                    cross_time,
                    float(cross_bytes.sum()),
                    int(cross_bytes.argmax()) if n else 0,
                    True,
                )
            )
        links.append(LinkTime("injection", inter_time, float(inter_out.sum()), bottleneck, True))

        # ---- switch uplinks: bytes leaving each level's switch groups ----
        # Only strictly oversubscribed (tapered) levels can set the
        # completion max: a full-bisection level's aggregate time is the
        # *mean* of its member nodes' injection times, which never exceeds
        # the injection max already accounted above.
        contention_time = 0.0
        node_idx = np.arange(n, dtype=np.int64)
        for level in range(1, net.switch_levels + 1):
            g = net.group_nodes(level)
            if g <= 1:
                continue
            groups = node_idx // g
            ngroups = int(groups[-1]) + 1 if n else 0
            group_mat = np.zeros((ngroups, ngroups), dtype=np.float64)
            np.add.at(group_mat, (groups[:, None], groups[None, :]), node_mat)
            g_out = group_mat.sum(axis=1) - np.diag(group_mat)
            g_in = group_mat.sum(axis=0) - np.diag(group_mat)
            cap = net.uplink_bw(level) * net.alltoallv_efficiency
            per_group = np.maximum(g_out, g_in) / cap
            seconds = float(per_group.max()) if ngroups else 0.0
            contending = net.level_contends(level)
            links.append(
                LinkTime(
                    f"uplink-L{level}",
                    seconds,
                    float(g_out.sum()),
                    int(per_group.argmax()) if ngroups else 0,
                    contending,
                )
            )
            if contending and seconds > contention_time:
                contention_time = seconds

        # ---- protocol regimes: eager alpha vs rendezvous handshakes ----
        base_latency = net.latency * max(p - 1, 0)
        rdv_count = 0
        rdv_extra = 0.0
        bruck_rdv = 0
        log_rounds = int(np.ceil(np.log2(p))) if p > 1 else 0
        bruck_latency = net.latency * log_rounds
        if net.eager_threshold is not None:
            rdv_extra = net.effective_rendezvous_latency - net.latency
            off = mat.copy()
            np.fill_diagonal(off, 0.0)
            # BSP: each rank serializes its own handshakes, so the
            # completion latency is set by the rank with the most
            # above-threshold messages.
            per_rank_rdv = (off > net.eager_threshold).sum(axis=1)
            rdv_count = int(per_rank_rdv.max()) if p else 0
            # Bruck aggregates each round into one message of ~half the
            # rank's payload; all rounds cross the threshold together.
            rank_out = off.sum(axis=1)
            bruck_payload = float(rank_out.max()) / 2.0 if p else 0.0
            if bruck_payload > net.eager_threshold:
                bruck_rdv = log_rounds
        pairwise_latency = base_latency + rdv_extra * rdv_count
        bruck_latency = bruck_latency + rdv_extra * bruck_rdv

        # ---- incast: fan-in on skewed destination columns ----
        incast_factor = 0.0
        if net.incast_penalty > 0.0 and n:
            mean_in = float(inter_in.mean())
            if mean_in > 0.0:
                skew = float(inter_in.max()) / mean_in
                incast_factor = net.incast_penalty * max(skew - 1.0, 0.0)

        def candidate(name: str, factor: float, latency_time: float, rdv: int) -> AlltoallvTiming:
            scaled = tuple(
                LinkTime(lt.link, lt.seconds * factor, lt.bytes, lt.busiest, lt.contending)
                for lt in links
            )
            return AlltoallvTiming(
                latency_time=latency_time,
                inter_node_time=inter_time * factor if factor != 1.0 else inter_time,
                intra_node_time=intra_time * factor if factor != 1.0 else intra_time,
                bottleneck_node=bottleneck,
                schedule=name,
                links=scaled if factor != 1.0 else tuple(links),
                contention_time=contention_time * factor if factor != 1.0 else contention_time,
                incast_seconds=incast_factor * inter_time * factor,
                rendezvous_messages=rdv,
            )

        candidates = {
            "pairwise": candidate("pairwise", 1.0, pairwise_latency, rdv_count),
            # Store-and-forward retransmits each byte ~log2(P)/2 times.
            "bruck": candidate("bruck", max(log_rounds / 2.0, 1.0), bruck_latency, bruck_rdv),
        }
        if schedule != "auto":
            return candidates[schedule]
        return min(candidates.values(), key=lambda t: t.total)

    def _socket_split(
        self, mat: np.ndarray, nodes: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (same-socket, cross-socket) intra-node byte totals.

        Ranks on a node split into ``sockets_per_node`` equal blocks of
        the node-local rank order; pairs sharing a block move over the
        socket link (NVLink), the rest cross the X-bus.
        """
        c = self.cluster
        p = c.n_ranks
        ranks = np.arange(p, dtype=np.int64)
        if c.placement == "block":
            local = ranks % c.ranks_per_node
        else:
            local = ranks // c.n_nodes
        spn = c.sockets_per_node
        sockets = (local * spn) // c.ranks_per_node
        same_node = (nodes[:, None] == nodes[None, :]) & ~np.eye(p, dtype=bool)
        same_socket = same_node & (sockets[:, None] == sockets[None, :])
        cross_socket = same_node & ~same_socket
        same_bytes = np.zeros(n, dtype=np.float64)
        cross_bytes = np.zeros(n, dtype=np.float64)
        np.add.at(same_bytes, nodes, (mat * same_socket).sum(axis=1))
        np.add.at(cross_bytes, nodes, (mat * cross_socket).sum(axis=1))
        return same_bytes, cross_bytes

    def alltoall_counts(self) -> float:
        """Time of the small fixed-size MPI_Alltoall that exchanges counts.

        Each rank sends one 8-byte count to every other rank.  This is the
        latency-dominated regime where the Bruck schedule wins, so the model
        takes the better of pairwise and Bruck — as MPI does.  8-byte
        messages are always eager, so protocol regimes never apply here.
        """
        c = self.cluster
        net = c.network
        p = c.n_ranks
        per_node_bytes = 8.0 * c.ranks_per_node * max(p - c.ranks_per_node, 0)
        t_bw = per_node_bytes / (net.injection_bw * net.alltoallv_efficiency)
        pairwise = net.latency * max(p - 1, 0) + t_bw
        log_rounds = int(np.ceil(np.log2(p))) if p > 1 else 0
        bruck = net.latency * log_rounds + t_bw * max(log_rounds / 2.0, 1.0)
        return min(pairwise, bruck)

    def allreduce(self, bytes_per_rank: int) -> float:
        """Tree allreduce: log2(P) rounds of latency + bandwidth."""
        c = self.cluster
        p = c.n_ranks
        rounds = int(np.ceil(np.log2(p))) if p > 1 else 0
        return rounds * (c.network.latency + bytes_per_rank / c.network.injection_bw)

    def exchange_time(self, bytes_matrix: np.ndarray, *, include_counts_exchange: bool = True) -> float:
        """Full exchange-phase time: counts alltoall + payload alltoallv.

        This models Algorithm 1's EXCHANGEKMER (an MPI_Alltoall of counts
        followed by the MPI_Alltoallv of payloads).
        """
        t = self.alltoallv(bytes_matrix).total
        if include_counts_exchange:
            t += self.alltoall_counts()
        return t
