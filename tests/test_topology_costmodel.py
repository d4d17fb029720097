"""Tests for cluster topology and the communication cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import NetworkSpec
from repro.mpi.costmodel import CommCostModel
from repro.mpi.topology import ClusterSpec, summit_cpu, summit_gpu


class TestClusterSpec:
    def test_summit_layouts(self):
        g = summit_gpu(16)
        assert g.n_ranks == 96 and g.ranks_per_node == 6
        c = summit_cpu(16)
        assert c.n_ranks == 672 and c.ranks_per_node == 42

    def test_node_of(self):
        c = summit_gpu(4)
        assert c.node_of(0) == 0
        assert c.node_of(5) == 0
        assert c.node_of(6) == 1
        assert c.node_of(23) == 3
        with pytest.raises(ValueError):
            c.node_of(24)

    def test_node_map(self):
        c = summit_gpu(2)
        assert c.node_map().tolist() == [0] * 6 + [1] * 6

    def test_with_nodes(self):
        c = summit_gpu(4).with_nodes(32)
        assert c.n_nodes == 32 and c.ranks_per_node == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", n_nodes=0, ranks_per_node=1)
        with pytest.raises(ValueError):
            ClusterSpec(name="x", n_nodes=1, ranks_per_node=1, network=NetworkSpec(injection_bw=-1))
        with pytest.raises(ValueError):
            ClusterSpec(name="x", n_nodes=1, ranks_per_node=1, network=NetworkSpec(alltoallv_efficiency=0))
        with pytest.raises(ValueError, match="NetworkSpec"):
            ClusterSpec(name="x", n_nodes=1, ranks_per_node=1, network=None)

    def test_summit_constants(self):
        # Section V-A published numbers.
        assert summit_gpu(1).network.injection_bw == 23e9

    def test_round_robin_placement(self):
        import dataclasses

        c = dataclasses.replace(summit_gpu(4), placement="round-robin")
        assert c.node_of(0) == 0
        assert c.node_of(1) == 1
        assert c.node_of(4) == 0  # wraps across 4 nodes
        counts = np.bincount(c.node_map(), minlength=4)
        assert (counts == 6).all()

    def test_invalid_placement(self):
        import dataclasses

        with pytest.raises(ValueError, match="placement"):
            dataclasses.replace(summit_gpu(2), placement="random")

    def test_placement_changes_aggregation(self):
        """A rank-contiguous hot stripe aggregates onto one node under
        block placement but spreads under round-robin."""
        import dataclasses

        block = summit_gpu(4)
        rr = dataclasses.replace(block, placement="round-robin")
        p = block.n_ranks
        mat = np.zeros((p, p))
        mat[:, :6] = 1e8  # all traffic to ranks 0-5 (one full node if block)
        t_block = CommCostModel(block).alltoallv(mat).total
        t_rr = CommCostModel(rr).alltoallv(mat).total
        assert t_rr < t_block


class TestCommCostModel:
    def make(self, nodes=4):
        return CommCostModel(summit_gpu(nodes))

    def uniform_matrix(self, cluster, per_pair):
        p = cluster.n_ranks
        return np.full((p, p), per_pair, dtype=np.float64)

    def test_more_bytes_more_time(self):
        cm = self.make()
        small = cm.alltoallv(self.uniform_matrix(cm.cluster, 1e4)).total
        large = cm.alltoallv(self.uniform_matrix(cm.cluster, 1e6)).total
        assert large > small

    def test_latency_floor(self):
        """An empty exchange still pays per-round latency; under the auto
        schedule the Bruck algorithm's log2(P) rounds set the floor."""
        cm = self.make()
        p = cm.cluster.n_ranks
        zero = cm.alltoallv(np.zeros((p, p))).total
        assert zero == pytest.approx(cm.cluster.network.latency * np.ceil(np.log2(p)))
        pairwise = cm.alltoallv(np.zeros((p, p)), schedule="pairwise").total
        assert pairwise == pytest.approx(cm.cluster.network.latency * (p - 1))

    def test_schedule_selection_by_size(self):
        """Auto picks Bruck for tiny payloads, pairwise for large ones."""
        cm = self.make()
        p = cm.cluster.n_ranks
        tiny = cm.alltoallv(np.full((p, p), 8.0))
        huge = cm.alltoallv(np.full((p, p), 1e7))
        assert tiny.schedule == "bruck"
        assert huge.schedule == "pairwise"

    def test_explicit_schedule_honoured(self):
        cm = self.make()
        p = cm.cluster.n_ranks
        mat = np.full((p, p), 1e7)
        bruck = cm.alltoallv(mat, schedule="bruck")
        pairwise = cm.alltoallv(mat, schedule="pairwise")
        assert bruck.schedule == "bruck"
        # Store-and-forward retransmission makes Bruck slower for big data.
        assert bruck.total > pairwise.total

    def test_unknown_schedule(self):
        cm = self.make()
        with pytest.raises(ValueError, match="schedule"):
            cm.alltoallv(np.zeros((cm.cluster.n_ranks, cm.cluster.n_ranks)), schedule="magic")

    def test_skew_penalized(self):
        """A matrix concentrating traffic on one node finishes later than a
        uniform one with the same total volume (bulk-sync max semantics)."""
        cm = self.make()
        p = cm.cluster.n_ranks
        total = 1e9
        uniform = np.full((p, p), total / (p * p))
        skewed = np.zeros((p, p))
        skewed[:, 0] = total / p  # everything converges on rank 0's node
        assert cm.alltoallv(skewed).total > cm.alltoallv(uniform).total

    def test_bottleneck_node_identified(self):
        cm = self.make()
        p = cm.cluster.n_ranks
        mat = np.zeros((p, p))
        hot_rank = 13  # node 2
        mat[:, hot_rank] = 1e8
        timing = cm.alltoallv(mat)
        assert timing.bottleneck_node == cm.cluster.node_of(hot_rank)

    def test_rank_local_traffic_is_free_of_network(self):
        cm = self.make()
        p = cm.cluster.n_ranks
        diag = np.diag(np.full(p, 1e9))
        t = cm.alltoallv(diag)
        assert t.inter_node_time == 0.0
        assert t.intra_node_time == 0.0  # rank-local, not even intra-node

    def test_intra_node_cheaper_than_inter(self):
        cm = self.make(nodes=2)
        p = cm.cluster.n_ranks
        intra = np.zeros((p, p))
        intra[0, 1] = 1e9  # same node
        inter = np.zeros((p, p))
        inter[0, 6] = 1e9  # across nodes
        assert cm.alltoallv(intra).total < cm.alltoallv(inter).total

    def test_efficiency_derates_bandwidth(self):
        fast = CommCostModel(summit_gpu(4))
        slow_cluster = ClusterSpec(
            name="slow", n_nodes=4, ranks_per_node=6, network=NetworkSpec(alltoallv_efficiency=0.01)
        )
        slow = CommCostModel(slow_cluster)
        mat = self.uniform_matrix(fast.cluster, 1e6)
        assert slow.alltoallv(mat).inter_node_time > fast.alltoallv(mat).inter_node_time

    def test_wrong_shape_rejected(self):
        cm = self.make()
        with pytest.raises(ValueError):
            cm.alltoallv(np.zeros((3, 3)))

    def test_counts_exchange_latency_bound(self):
        cm = self.make()
        t = cm.alltoall_counts()
        # At least the Bruck round latency, at most the pairwise form.
        p = cm.cluster.n_ranks
        assert t >= cm.cluster.network.latency * np.ceil(np.log2(p))
        assert t <= cm.cluster.network.latency * (p - 1) + 1.0

    def test_allreduce_log_rounds(self):
        cm = self.make()
        t1 = cm.allreduce(8)
        cm2 = CommCostModel(summit_gpu(64))
        t2 = cm2.allreduce(8)
        assert t2 > t1  # more ranks -> more rounds

    def test_exchange_time_includes_counts(self):
        cm = self.make()
        mat = self.uniform_matrix(cm.cluster, 1e5)
        assert cm.exchange_time(mat) > cm.alltoallv(mat).total

    def test_volume_scaling_linear_in_bandwidth_regime(self):
        """Doubling volume roughly doubles the bandwidth term."""
        cm = self.make()
        m1 = self.uniform_matrix(cm.cluster, 1e7)
        t1 = cm.alltoallv(m1).inter_node_time
        t2 = cm.alltoallv(2 * m1).inter_node_time
        assert t2 == pytest.approx(2 * t1, rel=1e-9)
