"""Exact model floats of the non-Summit presets.

``tests/golden/model_cells.json`` pins the Summit cells only, and
``tools/check_golden_machines.py`` compares exact observables, not model
seconds.  This module pins the modeled seconds of the four what-if presets
whose network path runs through :class:`~repro.machines.NetworkSpec`:

* one engine run per preset over ``golden_reads()`` — ``timing``,
  ``alltoallv_seconds``, ``staging_seconds`` and ``link_seconds``;
* one :class:`~repro.mpi.costmodel.CommCostModel` alltoallv per preset over
  a seeded, destination-skewed byte matrix large enough that the
  rendezvous, incast, switch-taper and socket-split terms all contribute
  (``tapered-fabric-gpu`` runs it at 36 nodes, two full level-1 groups).

Every comparison is ``==``: the values were recorded before the machine
description was reduced to one ``NetworkSpec``, and must not move by a bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.machines import get_machine
from repro.mpi.costmodel import CommCostModel
from repro.mpi.topology import cluster_for

from .golden_cases import ENGINE_CASES, golden_reads

pytestmark = pytest.mark.machines

#: preset -> (engine nodes, ENGINE_CASES case, cost-model nodes)
CELLS = {
    "a100-gpu": (3, "gpu-supermer-m7", 3),
    "fat-nic-gpu": (2, "gpu-supermer-m7", 2),
    "tapered-fabric-gpu": (2, "gpu-supermer-m7", 36),
    "generic-cpu": (1, "cpu-kmer", 2),
}

PINNED = {
    "a100-gpu": {
        "timing": (6.43642e-05, 1.0000314758, 6.91525e-05),
        "alltoallv_seconds": 2.39388e-05,
        "staging_seconds": 1.4346e-06,
        "link_seconds": (
            ("intra-node", 4.20525e-07),
            ("injection", 1.79388e-05),
            ("host-staging", 1.4346e-06),
        ),
        "alltoallv_total": 0.003670812450261467,
        "alltoallv_links": (
            ("intra-node", 0.00013235527498342892, 25317493.240284003, 0, True),
            ("injection", 0.003654312450261467, 39579746.06002337, 2, True),
        ),
    },
    "fat-nic-gpu": {
        "timing": (0.0001257284, 1.500044928621739, 0.000135305),
        "alltoallv_seconds": 3.53375e-05,
        "staging_seconds": 1.4346e-06,
        "link_seconds": (
            ("intra-node", 1.65312e-06),
            ("injection", 2.73375e-05),
            ("uplink-L1", 0.0),
            ("uplink-L2", 0.0),
            ("uplink-L3", 0.0),
            ("host-staging", 1.4346e-06),
        ),
        "alltoallv_total": 0.006299631219596175,
        "alltoallv_links": (
            ("intra-node", 0.00035121553572306426, 31071727.972161163, 1, True),
            ("injection", 0.006277631219596175, 33825511.32814622, 0, True),
            ("uplink-L1", 0.0, 0.0, 0, False),
            ("uplink-L2", 0.0, 0.0, 0, False),
            ("uplink-L3", 0.0, 0.0, 0, False),
        ),
    },
    "tapered-fabric-gpu": {
        "timing": (0.0001257284, 1.500086774873482, 0.000135305),
        "alltoallv_seconds": 7.671418652571225e-05,
        "staging_seconds": 1.4346e-06,
        "link_seconds": (
            ("intra-socket", 1.119e-07),
            ("intra-node", 4.9086e-07),
            ("injection", 5.4675e-05),
            ("uplink-L1", 0.0),
            ("uplink-L2", 0.0),
            ("host-staging", 1.4346e-06),
        ),
        "alltoallv_total": 2.6449211338372915,
        "alltoallv_links": (
            ("intra-socket", 0.00019194250865057255, 252883991.4664465, 8, True),
            ("intra-node", 0.0009778676937011509, 367386717.7108453, 21, True),
            ("injection", 1.670319803159794, 25545610728.93881, 18, True),
            ("uplink-L1", 0.8587879997125009, 13387157294.268795, 0, True),
            ("uplink-L2", 0.0, 0.0, 0, True),
        ),
    },
    "generic-cpu": {
        "timing": (0.418375, 0.4000907248, 0.42843333333333333),
        "alltoallv_seconds": 8.17248e-05,
        "staging_seconds": 0.0,
        "link_seconds": (("intra-node", 7.272479999999999e-05), ("injection", 0.0)),
        "alltoallv_total": 3.4235344695720937,
        "alltoallv_links": (
            ("intra-node", 0.08270593917595025, 4471716068.7621975, 0, True),
            ("injection", 3.4233439695720937, 4442471608.318082, 0, True),
        ),
    },
}


def skewed_bytes(p: int) -> np.ndarray:
    """Seeded lognormal byte matrix with ~10% hot destination columns (4x)."""
    rng = np.random.default_rng(35)
    hot = 1.0 + 3.0 * (rng.random(p) < 0.1)
    return rng.lognormal(11.0, 2.0, (p, p)) * hot[None, :]


@pytest.fixture(scope="module")
def reads():
    return golden_reads()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_engine_model_floats_pinned(name, reads):
    nodes, case_name, _ = CELLS[name]
    machine = get_machine(name)
    case = ENGINE_CASES[case_name]
    result = run_pipeline(
        reads,
        cluster_for(machine, nodes),
        PipelineConfig(**case["config"]),
        backend=case["backend"],
        options=EngineOptions(machine=machine),
    )
    pinned = PINNED[name]
    assert (result.timing.parse, result.timing.exchange, result.timing.count) == pinned["timing"]
    assert result.alltoallv_seconds == pinned["alltoallv_seconds"]
    assert result.staging_seconds == pinned["staging_seconds"]
    assert tuple(result.link_seconds) == pinned["link_seconds"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cost_model_floats_pinned(name):
    cluster = cluster_for(get_machine(name), CELLS[name][2])
    timing = CommCostModel(cluster).alltoallv(skewed_bytes(cluster.n_ranks))
    pinned = PINNED[name]
    assert timing.total == pinned["alltoallv_total"]
    links = tuple((lt.link, lt.seconds, lt.bytes, lt.busiest, lt.contending) for lt in timing.links)
    assert links == pinned["alltoallv_links"]
