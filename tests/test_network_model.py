"""The hierarchical network model: topologies, schedules, protocols, planning.

Four claims are pinned here:

1. **Degeneracy** — the all-defaults :class:`NetworkSpec` *and* any
   full-bisection fat tree (summit-gpu's real topology) produce modeled
   seconds bit-identical to the flat alpha-beta form; every hierarchical
   term is exactly neutral unless the network is actually constrained.
2. **Schedules** — ``pairwise``/``bruck``/``auto`` follow the textbook
   crossover (Bruck wins latency-bound, pairwise wins bandwidth-bound)
   and ``auto`` always returns the minimum, including under rendezvous
   protocol effects (Bruck's round aggregation can cross the eager
   threshold even when every pairwise message stays eager).
3. **Congestion** — tapered uplinks join the completion max and name the
   bottleneck, incast charges skewed receive columns only, and the socket
   split routes same-socket bytes over the faster NVLink pool.
4. **Surfaces** — per-link breakdowns reach :class:`CountResult`,
   :class:`RunReport` and the capacity planner, whose ranking follows
   ``cost = total x nodes x node_cost``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.plan import CapacityPlan, candidate_node_counts, plan_capacity
from repro.machines import NetworkSpec, get_machine, spec_from_dict
from repro.mpi.costmodel import SCHEDULES, CommCostModel
from repro.mpi.topology import ClusterSpec, cluster_for, summit_gpu
from repro.telemetry.report import RunReport

from .golden_cases import golden_reads

pytestmark = pytest.mark.machines


def uniform_matrix(cluster: ClusterSpec, per_pair: float) -> np.ndarray:
    p = cluster.n_ranks
    mat = np.full((p, p), per_pair, dtype=np.float64)
    np.fill_diagonal(mat, 0.0)
    return mat


def model_with(network: NetworkSpec | None, n_nodes: int = 4) -> CommCostModel:
    base = summit_gpu(n_nodes)
    if network is None:
        return CommCostModel(base)
    import dataclasses

    return CommCostModel(dataclasses.replace(base, network=network))


class TestNetworkSpecValidation:
    """Every malformed spec raises one descriptive ValueError."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"injection_bw": 0.0},
            {"intra_node_bw": -1.0},
            {"latency": -1e-6},
            {"alltoallv_efficiency": 0.0},
            {"alltoallv_efficiency": 1.5},
            {"intra_socket_bw": 0.0},
            {"switch_levels": -1},
            {"switch_levels": 2, "switch_radix": 1},
            {"switch_levels": 2, "switch_uplink_bw": (1e9,)},  # wrong arity
            {"switch_levels": 1, "switch_uplink_bw": (0.0,)},
            {"eager_threshold": -1},
            {"rendezvous_latency": 1e-6},  # without a threshold
            {"eager_threshold": 1024, "rendezvous_latency": 1e-9},  # < latency
            {"incast_penalty": -0.5},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValueError, match="network"):
            NetworkSpec(**overrides)

    def test_defaults_are_flat(self):
        net = NetworkSpec()
        assert net.is_flat
        assert net.links()[-1].name == "injection"

    def test_fat_tree_geometry(self):
        net = NetworkSpec(switch_levels=2, switch_radix=36)
        assert net.group_nodes(1) == 18
        assert net.group_nodes(2) == 324
        # Empty uplink list = full bisection: capacity tracks the group.
        assert net.uplink_bw(1) == 18 * net.injection_bw
        assert not net.level_contends(1) and not net.level_contends(2)
        tapered = net.with_overrides(switch_uplink_bw=(9 * net.injection_bw, 324 * net.injection_bw))
        assert tapered.level_contends(1)
        assert not tapered.level_contends(2)

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown field"):
            NetworkSpec().with_overrides(uplink_speed=1e9)


class TestDegeneracy:
    """Hierarchical terms are exactly neutral on unconstrained networks."""

    def test_summit_fat_tree_is_bit_identical_to_flat(self):
        # summit-gpu carries its real 3-level full-bisection EDR tree; a
        # NetworkSpec with the same four alpha-beta numbers and nothing
        # else is the flat model.  Totals must agree float-for-float on
        # skewed matrices.
        hier = CommCostModel(summit_gpu(4))
        net = hier.cluster.network
        assert net.switch_levels == 3
        flat = CommCostModel(
            ClusterSpec(
                name="flat",
                n_nodes=4,
                ranks_per_node=hier.cluster.ranks_per_node,
                network=NetworkSpec(
                    injection_bw=net.injection_bw,
                    intra_node_bw=net.intra_node_bw,
                    latency=net.latency,
                    alltoallv_efficiency=net.alltoallv_efficiency,
                ),
            )
        )
        assert flat.cluster.network.is_flat
        rng = np.random.default_rng(7)
        p = hier.cluster.n_ranks
        for _ in range(5):
            mat = rng.gamma(0.5, 2e6, size=(p, p))
            np.fill_diagonal(mat, 0.0)
            a, b = hier.alltoallv(mat), flat.alltoallv(mat)
            assert a.total == b.total
            assert a.latency_time == b.latency_time
            assert a.inter_node_time == b.inter_node_time
            assert a.contention_time == 0.0 == a.incast_seconds
        # The hierarchical run still *reports* its uplink links.
        names = [lt.link for lt in hier.alltoallv(uniform_matrix(hier.cluster, 1e6)).links]
        assert names == ["intra-node", "injection", "uplink-L1", "uplink-L2", "uplink-L3"]

    def test_full_bisection_uplinks_never_contend(self):
        cm = CommCostModel(summit_gpu(64))
        t = cm.alltoallv(uniform_matrix(cm.cluster, 1e6))
        for lt in t.links:
            if lt.link.startswith("uplink"):
                assert not lt.contending
                assert lt.seconds <= t.inter_node_time


class TestSchedules:
    """pairwise / bruck / auto and their protocol interaction."""

    def test_schedule_names(self):
        assert SCHEDULES == ("pairwise", "bruck", "auto")
        cm = model_with(None)
        with pytest.raises(ValueError, match="schedule"):
            cm.alltoallv(uniform_matrix(cm.cluster, 1e4), schedule="hypercube")

    def test_bruck_wins_latency_bound_pairwise_wins_bandwidth_bound(self):
        cm = CommCostModel(summit_gpu(32))
        tiny = uniform_matrix(cm.cluster, 8.0)
        big = uniform_matrix(cm.cluster, 1e7)
        assert cm.alltoallv(tiny, schedule="bruck").total < cm.alltoallv(tiny, schedule="pairwise").total
        assert cm.alltoallv(big, schedule="pairwise").total < cm.alltoallv(big, schedule="bruck").total
        assert cm.alltoallv(tiny, schedule="auto").schedule == "bruck"
        assert cm.alltoallv(big, schedule="auto").schedule == "pairwise"

    def test_auto_is_the_minimum(self):
        cm = CommCostModel(summit_gpu(16))
        for per_pair in (8.0, 1e3, 1e5, 1e7):
            mat = uniform_matrix(cm.cluster, per_pair)
            auto = cm.alltoallv(mat).total
            assert auto == min(
                cm.alltoallv(mat, schedule="pairwise").total,
                cm.alltoallv(mat, schedule="bruck").total,
            )

    def test_bruck_retransmission_factor(self):
        # Store-and-forward sends each byte ~log2(P)/2 times: every
        # bandwidth term (links included) scales by exactly that factor.
        cm = CommCostModel(summit_gpu(16))
        p = cm.cluster.n_ranks
        factor = max(np.ceil(np.log2(p)) / 2.0, 1.0)
        mat = uniform_matrix(cm.cluster, 1e6)
        pw = cm.alltoallv(mat, schedule="pairwise")
        br = cm.alltoallv(mat, schedule="bruck")
        assert br.inter_node_time == pw.inter_node_time * factor
        assert br.intra_node_time == pw.intra_node_time * factor
        for a, b in zip(pw.links, br.links):
            assert b.seconds == a.seconds * factor
            assert b.bytes == a.bytes  # wire bytes are reported unscaled

    def test_rendezvous_counts_busiest_rank(self):
        net = NetworkSpec(eager_threshold=1024)
        cm = model_with(net)
        p = cm.cluster.n_ranks
        mat = np.zeros((p, p))
        mat[0, 1:4] = 4096.0  # rank 0 sends three rendezvous messages
        mat[1, 4] = 4096.0  # rank 1 sends one
        t = cm.alltoallv(mat, schedule="pairwise")
        assert t.rendezvous_messages == 3
        eager = model_with(None).alltoallv(mat, schedule="pairwise")
        extra = net.effective_rendezvous_latency - net.latency
        assert t.latency_time == eager.latency_time + 3 * extra

    def test_schedule_protocol_interaction(self):
        # Per-pair messages below the threshold are eager for pairwise,
        # but Bruck aggregates each round to ~half the rank payload —
        # which crosses the threshold and pays log2(P) handshakes.
        cm = model_with(NetworkSpec(eager_threshold=16384), n_nodes=4)
        p = cm.cluster.n_ranks
        per_pair = 4096.0  # < threshold, but (p-1)*per_pair/2 > threshold
        assert per_pair < 16384 < (p - 1) * per_pair / 2
        mat = uniform_matrix(cm.cluster, per_pair)
        pw = cm.alltoallv(mat, schedule="pairwise")
        br = cm.alltoallv(mat, schedule="bruck")
        assert pw.rendezvous_messages == 0
        log_rounds = int(np.ceil(np.log2(p)))
        assert br.rendezvous_messages == log_rounds
        net = cm.cluster.network
        extra = net.effective_rendezvous_latency - net.latency
        assert br.latency_time == net.latency * log_rounds + extra * log_rounds


class TestCongestion:
    """Tapered uplinks, incast, and the socket split."""

    def test_tapered_uplink_sets_the_bottleneck(self):
        taper = NetworkSpec(
            switch_levels=1,
            switch_radix=4,  # 2 nodes per leaf switch
            switch_uplink_bw=(0.1 * 23e9,),  # far below 2x injection
        )
        cm = model_with(taper, n_nodes=4)
        t = cm.alltoallv(uniform_matrix(cm.cluster, 1e6), schedule="pairwise")
        assert t.contention_time > t.inter_node_time
        assert t.bottleneck_link == "uplink-L1"
        assert t.total == t.latency_time + t.contention_time + t.incast_seconds
        flat = model_with(None, n_nodes=4).alltoallv(uniform_matrix(cm.cluster, 1e6), schedule="pairwise")
        assert t.total > flat.total

    def test_incast_charges_skew_only(self):
        net = NetworkSpec(incast_penalty=0.5)
        cm = model_with(net, n_nodes=4)
        p = cm.cluster.n_ranks
        balanced = uniform_matrix(cm.cluster, 1e6)
        assert cm.alltoallv(balanced, schedule="pairwise").incast_seconds == 0.0
        skewed = np.zeros((p, p))
        skewed[:, 0] = 1e7  # every rank floods node 0
        np.fill_diagonal(skewed, 0.0)
        t = cm.alltoallv(skewed, schedule="pairwise")
        assert t.incast_seconds > 0.0
        neutral = model_with(None, n_nodes=4).alltoallv(skewed, schedule="pairwise")
        assert t.total == neutral.total + t.incast_seconds

    def test_socket_split_routes_nvlink(self):
        # Same-socket traffic over a fast NVLink pool beats the single
        # shared pool; cross-socket traffic still pays the X-bus.
        split = model_with(NetworkSpec(intra_socket_bw=150e9), n_nodes=2)
        single = model_with(None, n_nodes=2)
        p = split.cluster.n_ranks
        rpn = split.cluster.ranks_per_node
        same_socket = np.zeros((p, p))
        same_socket[0, 1] = 1e9  # ranks 0,1 share node 0's first socket
        assert split.alltoallv(same_socket).intra_node_time < single.alltoallv(same_socket).intra_node_time
        cross_socket = np.zeros((p, p))
        cross_socket[0, rpn - 1] = 1e9  # first and last local rank: opposite sockets
        assert (
            split.alltoallv(cross_socket).intra_node_time
            == single.alltoallv(cross_socket).intra_node_time
        )
        names = [lt.link for lt in split.alltoallv(same_socket).links]
        assert names[:2] == ["intra-socket", "intra-node"]


class TestCalibrationHierarchicalKeys:
    """[network] hierarchical keys round-trip through spec_from_dict."""

    def test_hierarchical_network_from_dict(self):
        spec = spec_from_dict(
            {
                "name": "what-if",
                "base": "summit-gpu",
                "network": {
                    "switch_levels": 2,
                    "switch_radix": 8,
                    "switch_uplink_bw": [40e9, 160e9],
                    "eager_threshold": 8192,
                    "rendezvous_latency": 9e-6,
                    "incast_penalty": 0.25,
                    "intra_socket_bw": 150e9,
                    "gpudirect": True,
                },
            }
        )
        net = spec.network
        assert net.switch_levels == 2
        assert net.switch_uplink_bw == (40e9, 160e9)
        assert net.eager_threshold == 8192
        assert net.rendezvous_latency == 9e-6
        assert net.incast_penalty == 0.25
        assert net.intra_socket_bw == 150e9
        assert net.gpudirect
        assert net.level_contends(1)
        # Keys the file leaves out keep the base preset's values.
        assert net.injection_bw == get_machine("summit-gpu").network.injection_bw

    def test_bad_hierarchical_values_one_error(self):
        with pytest.raises(ValueError, match="machine calibration"):
            spec_from_dict(
                {"name": "x", "network": {"switch_levels": 1, "switch_uplink_bw": [1e9, 2e9]}}
            )
        with pytest.raises(ValueError, match="switch_levels must be an integer"):
            spec_from_dict({"name": "x", "network": {"switch_levels": 1.5}})
        with pytest.raises(ValueError, match="gpudirect must be a boolean"):
            spec_from_dict({"name": "x", "network": {"gpudirect": "yes"}})


class TestSurfaces:
    """Link breakdowns reach results, reports, and the planner."""

    @pytest.fixture(scope="class")
    def reads(self):
        return golden_reads()

    @pytest.fixture(scope="class")
    def result(self, reads):
        machine = get_machine("summit-gpu")
        return run_pipeline(
            reads,
            cluster_for(machine, 2),
            PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15),
            backend="gpu",
            options=EngineOptions(machine=machine),
        )

    def test_result_carries_link_seconds(self, result):
        names = [name for name, _ in result.link_seconds]
        assert "injection" in names and "intra-node" in names
        assert "host-staging" in names  # summit-gpu stages through the host
        assert result.bottleneck_link in names
        summary = result.summary()
        assert summary["bottleneck_link"] == result.bottleneck_link
        for name, seconds in result.link_seconds:
            assert summary[f"link_{name}_s"] == seconds

    def test_report_renders_link_table(self, result):
        report = RunReport.from_result(result)
        rows = report.phases["links"]
        assert rows and {"link", "seconds"} <= set(rows[0])
        assert report.phases["bottleneck_link"] == result.bottleneck_link
        text = report.render()
        assert "per-link" in text
        assert "injection" in text
        # Round-trips through JSON intact.
        reloaded = RunReport.from_dict(report.to_dict())
        assert reloaded.phases["links"] == rows

    def test_candidate_node_counts(self):
        assert candidate_node_counts(1) == [1]
        assert candidate_node_counts(8) == [1, 2, 4, 8]
        assert candidate_node_counts(6) == [1, 2, 4, 6]
        with pytest.raises(ValueError):
            candidate_node_counts(0)

    def test_plan_ranks_by_cost(self, reads):
        plan = plan_capacity(
            reads,
            budget_nodes=2,
            machines=("summit-gpu", "tapered-fabric-gpu", "generic-cpu"),
            dataset="golden",
        )
        assert isinstance(plan, CapacityPlan)
        assert len(plan.candidates) == 6  # 3 machines x {1, 2} nodes
        costs = [c.cost for c in plan.candidates]
        assert costs == sorted(costs)
        for c in plan.candidates:
            assert c.cost == pytest.approx(c.total_s * c.n_nodes * c.node_cost)
            assert c.backend == ("cpu" if c.machine == "generic-cpu" else "gpu")
            assert c.bottleneck_link
        assert plan.best is plan.candidates[0]
        fastest = plan.fastest()
        assert fastest.total_s == min(c.total_s for c in plan.candidates)
        text = plan.render()
        assert "cheapest:" in text and "golden" in text

    def test_plan_min_nodes_filters(self, reads):
        plan = plan_capacity(
            reads, budget_nodes=4, machines=("summit-gpu",), min_nodes=2, dataset="golden"
        )
        assert [c.n_nodes for c in sorted(plan.candidates, key=lambda c: c.n_nodes)] == [2, 4]
