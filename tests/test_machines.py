"""The machine-model layer: spec validation, calibration files, invariance.

Three claims are pinned here:

1. Every malformed :class:`MachineSpec` or calibration file raises exactly
   one descriptive :class:`ValueError` naming the machine/file and the
   offending field — no traceback chains, no partial objects.
2. The preset registry and ``resolve_machine`` accept specs, names, and
   calibration paths interchangeably.
3. Exact observables are machine-invariant: machines with the same rank
   layout produce bit-identical spectra, per-rank arrays, counts matrices,
   and traffic accounting; machines with different layouts still agree on
   the spectrum.  Only modeled seconds may differ.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.machines import (
    MachineSpec,
    NetworkSpec,
    get_machine,
    load,
    machine_names,
    register_machine,
    resolve_machine,
    spec_from_dict,
)
from repro.machines.device import a100, get_device, v100
from repro.mpi.topology import cluster_for

from .golden_cases import golden_reads, spectrum_digest, summarize_result

pytestmark = pytest.mark.machines


def spec(**overrides) -> MachineSpec:
    base = dict(name="test-machine", gpus_per_node=2, device=v100())
    base.update(overrides)
    return MachineSpec(**base)


class TestMachineSpecValidation:
    def test_valid_spec_builds(self):
        m = spec()
        assert m.effective_ranks_per_node == 2
        assert m.resolved_device.name == v100().name

    def test_cpu_only_spec_needs_no_device(self):
        m = spec(gpus_per_node=0, device=None, cores_per_node=64)
        assert m.effective_ranks_per_node == 64
        assert m.device is None
        assert m.resolved_device is not None  # generic fallback for memory budgeting

    def test_explicit_ranks_override_layout(self):
        assert spec(ranks_per_node=3).effective_ranks_per_node == 3

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(name=""), "name"),
            (dict(sockets_per_node=0), "sockets_per_node"),
            (dict(cores_per_node=0), "cores_per_node"),
            (dict(gpus_per_node=-1), "gpus_per_node"),
            (dict(ranks_per_node=0), "ranks_per_node"),
            (dict(network=None), "network"),  # the interconnect is never absent
            (dict(placement="striped"), "placement"),
            (dict(device=None), "device"),  # gpus_per_node=2 without a device
        ],
    )
    def test_each_bad_field_raises_one_descriptive_error(self, overrides, fragment):
        with pytest.raises(ValueError) as exc:
            spec(**overrides)
        message = str(exc.value)
        assert fragment in message
        if overrides.get("name", "x"):  # the name-less case can't echo a name
            assert "test-machine" in message
        assert exc.value.__cause__ is None

    # The interconnect's numbers are validated by the one NetworkSpec every
    # machine carries (tests/test_network_model.py holds the full table).
    @given(bw=st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_nonpositive_injection_bw_always_rejected(self, bw):
        with pytest.raises(ValueError, match="injection_bw"):
            NetworkSpec(injection_bw=bw)

    @given(
        eff=st.one_of(
            st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
            st.floats(min_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_out_of_range_efficiency_always_rejected(self, eff):
        with pytest.raises(ValueError, match="alltoallv_efficiency"):
            NetworkSpec(alltoallv_efficiency=eff)

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown field"):
            spec().with_overrides(injection_speed=1e9)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError, match="node_cost"):
            spec().with_overrides(node_cost=-1.0)
        with pytest.raises(ValueError, match="latency"):
            spec().with_network(latency=-1.0)

    def test_network_knob_has_one_spelling(self):
        # A network knob is a NetworkSpec field, changed via with_network;
        # the machine-level spelling is one unknown-field error, never a
        # silently dropped value.
        summit = get_machine("summit-gpu")
        with pytest.raises(ValueError) as exc:
            summit.with_overrides(injection_bw=7e9)
        message = str(exc.value)
        assert "unknown field(s) injection_bw" in message
        assert "with_network" in message
        assert exc.value.__cause__ is None
        with pytest.raises(ValueError, match="unknown field"):
            summit.with_overrides(network=summit.network, injection_bw=7e9)
        assert summit.with_network(injection_bw=7e9).network.injection_bw == 7e9


VALID_TOML = """
name = "my-cluster"
description = "calibration-file smoke machine"

[node]
gpus_per_node = 4
ranks_per_node = 4

[network]
injection_bw = 50e9
alltoallv_efficiency = 0.05

[device]
base = "a100"
hbm_bw = 1300e9

[cpu_rates]
parse_rate = 8e4

[gpu_model]
exchange_overhead_s = 1.0
"""


class TestCalibrationFiles:
    def test_toml_roundtrip(self, tmp_path):
        path = tmp_path / "my_cluster.toml"
        path.write_text(VALID_TOML)
        m = load(path)
        assert m.name == "my-cluster"
        assert m.gpus_per_node == 4
        assert m.network.injection_bw == 50e9
        assert m.device.hbm_bw == 1300e9
        assert m.device.n_sms == a100().n_sms  # inherited from the device base
        assert m.cpu_rates.parse_rate == 8e4
        assert m.gpu_model.exchange_overhead_s == 1.0

    def test_json_roundtrip(self, tmp_path):
        data = {
            "base": "summit-gpu",
            "name": "summit-tweaked",
            "network": {"injection_bw": 46e9},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        m = load(path)
        base = get_machine("summit-gpu")
        assert m.network.injection_bw == 46e9
        assert m.gpus_per_node == base.gpus_per_node  # inherited
        assert m.device == base.device

    def test_base_preset_inherits_everything(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text('base = "a100-gpu"\n')
        assert load(path) == get_machine("a100-gpu")

    def test_device_as_preset_string(self):
        m = spec_from_dict({"name": "x", "node": {"gpus_per_node": 1}, "device": "v100"})
        assert m.device == get_device("v100")

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({}, "name"),
            ({"name": "x", "nodes": {}}, "unknown key"),
            ({"name": "x", "node": {"gpu_count": 4}}, "gpu_count"),
            ({"name": "x", "node": {"gpus_per_node": "six"}}, "integer"),
            ({"name": "x", "network": {"injection_bw": "fast"}}, "number"),
            ({"name": "x", "network": 23e9}, "table"),
            ({"name": "x", "base": 7}, "preset name"),
            ({"name": "x", "base": "summit-xpu"}, "summit-xpu"),
            ({"name": "x", "device": "h100"}, "h100"),
            ({"name": "x", "device": {"base": "v100", "hbm": 1e12}}, "hbm"),
            ({"name": "x", "cpu_rates": {"parse_rate": -1.0}}, "cpu_rates"),
            ({"name": "x", "gpu_model": {"warp_size": 32}}, "warp_size"),
            ({"name": "x", "node": {"gpus_per_node": 2}}, "device"),
            ({"name": "x", "network": {"injection_bw": -1.0}}, "injection_bw"),
        ],
    )
    def test_each_malformed_dict_raises_one_descriptive_error(self, data, fragment):
        with pytest.raises(ValueError) as exc:
            spec_from_dict(data, source="cal.toml")
        message = str(exc.value)
        assert message.startswith("machine calibration cal.toml:")
        assert fragment in message
        assert exc.value.__cause__ is None

    @given(key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_unknown_top_level_keys_always_named(self, key):
        allowed = ("name", "description", "base", "node", "network", "device", "cpu_rates", "gpu_model")
        if key in allowed:
            return
        with pytest.raises(ValueError) as exc:
            spec_from_dict({"name": "x", key: 1}, source="c.toml")
        assert key in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="file not found"):
            load(tmp_path / "nope.toml")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("name: x\n")
        with pytest.raises(ValueError, match="unsupported calibration format"):
            load(path)

    def test_toml_syntax_error_is_wrapped(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed\n")
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value).startswith(f"machine calibration {path}:")
        assert "parse error" in str(exc.value)

    def test_json_syntax_error_is_wrapped(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n")
        with pytest.raises(ValueError, match="parse error"):
            load(path)


class TestRegistryAndResolve:
    def test_presets_all_build(self):
        for name in machine_names():
            m = get_machine(name)
            assert m.name == name
            assert m.effective_ranks_per_node >= 1

    def test_summit_gpu_preset_is_the_paper_machine(self):
        m = get_machine("summit-gpu")
        assert (m.gpus_per_node, m.effective_ranks_per_node) == (6, 6)
        net = m.network
        assert (net.injection_bw, net.intra_node_bw) == (23e9, 50e9)
        assert (net.latency, net.alltoallv_efficiency) == (2e-6, 0.04)
        assert m.device == v100()

    def test_summit_cpu_preset_layout(self):
        assert get_machine("summit-cpu").effective_ranks_per_node == 42

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError) as exc:
            get_machine("summit-xpu")
        assert "summit-xpu" in str(exc.value)
        assert "summit-gpu" in str(exc.value)  # suggestions included

    def test_register_machine_roundtrip(self):
        custom = spec(name="ephemeral-test-machine")
        register_machine(custom)
        try:
            assert get_machine("ephemeral-test-machine") is custom
        finally:
            from repro.machines import registry

            registry._MACHINES.pop("ephemeral-test-machine", None)

    def test_resolve_machine_accepts_spec_name_path_none(self, tmp_path):
        m = spec()
        assert resolve_machine(m) is m
        assert resolve_machine("a100-gpu") == get_machine("a100-gpu")
        assert resolve_machine(None) == get_machine("summit-gpu")
        assert resolve_machine(None, default="summit-cpu") == get_machine("summit-cpu")
        path = tmp_path / "m.toml"
        path.write_text('base = "a100-gpu"\n')
        assert resolve_machine(str(path)) == get_machine("a100-gpu")
        assert resolve_machine(path) == get_machine("a100-gpu")

    def test_cluster_for_preserves_summit_naming(self):
        cluster = cluster_for(get_machine("summit-gpu"), 4)
        assert cluster.name == "summit-gpu-4n"
        assert cluster.n_ranks == 24


def run_on(machine_name: str, n_nodes: int, reads, config):
    machine = resolve_machine(machine_name)
    cluster = cluster_for(machine, n_nodes)
    return run_pipeline(reads, cluster, config, backend="gpu", options=EngineOptions(machine=machine))


class TestCrossMachineInvariance:
    """Exact observables are machine-invariant; only model times move."""

    @pytest.fixture(scope="class")
    def reads(self):
        return golden_reads()

    @pytest.fixture(scope="class")
    def config(self):
        return PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)

    def test_same_rank_layout_is_bit_identical(self, reads, config):
        # summit-gpu at 2 nodes, fat-nic-gpu at 2 nodes, and a100-gpu at
        # 3 nodes all give 12 ranks: every exact observable must match.
        # (per_rank_parse/count are per-rank *model seconds* and so follow
        # the machine's rates, not the data; they are pinned separately
        # below for the machine that shares summit-gpu's calibration.)
        base = run_on("summit-gpu", 2, reads, config)
        for other_name, nodes in (("fat-nic-gpu", 2), ("a100-gpu", 3)):
            other = run_on(other_name, nodes, reads, config)
            a, b = summarize_result(base), summarize_result(other)
            for key in (
                "spectrum",
                "received_kmers",
                "exchanged_items",
                "exchanged_bytes",
                "counts_matrix_sha",
                "insert_stats",
                "mean_supermer_length",
                "n_rounds_used",
                "traffic_bytes",
                "traffic_collectives",
            ):
                assert a[key] == b[key], f"{key} diverged on {other_name}"

    def test_same_calibration_same_per_rank_model_times(self, reads, config):
        # fat-nic-gpu shares summit-gpu's device, rates, and rank layout;
        # only the network differs, so compute-phase model times match too.
        base = run_on("summit-gpu", 2, reads, config)
        fat = run_on("fat-nic-gpu", 2, reads, config)
        assert np.array_equal(base.per_rank_parse, fat.per_rank_parse)
        assert np.array_equal(base.per_rank_count, fat.per_rank_count)

    def test_model_times_do_differ(self, reads, config):
        base = run_on("summit-gpu", 2, reads, config)
        fat = run_on("fat-nic-gpu", 2, reads, config)
        # 4x the injection bandwidth must show up in the exchange model.
        assert fat.timing.exchange < base.timing.exchange
        a100 = run_on("a100-gpu", 3, reads, config)
        assert a100.timing != base.timing

    def test_spectrum_invariant_across_all_presets(self, reads):
        # Different rank layouts change per-rank arrays but never the
        # spectrum: every registered machine counts the same k-mers.
        config = PipelineConfig(k=17, mode="kmer")
        digests = set()
        for name in machine_names():
            machine = get_machine(name)
            cluster = cluster_for(machine, 2)
            backend = "cpu" if machine.gpus_per_node == 0 else "gpu"
            result = run_pipeline(
                reads, cluster, config, backend=backend, options=EngineOptions(machine=machine)
            )
            digests.add(json.dumps(spectrum_digest(result.spectrum), sort_keys=True))
        assert len(digests) == 1

    def test_calibration_file_machine_matches_its_base_observables(self, reads, config, tmp_path):
        # A tuned calibration file (same rank layout as its base) moves
        # model times but not one observable bit.
        path = tmp_path / "tuned.toml"
        path.write_text(
            'base = "summit-gpu"\nname = "summit-tuned"\n\n'
            "[network]\ninjection_bw = 92e9\nlatency = 1e-6\n\n"
            "[gpu_model]\nexchange_overhead_s = 0.25\n"
        )
        base = run_on("summit-gpu", 2, reads, config)
        tuned = run_on(str(path), 2, reads, config)
        assert spectrum_digest(tuned.spectrum) == spectrum_digest(base.spectrum)
        assert np.array_equal(tuned.counts_matrix, base.counts_matrix)
        assert tuned.exchanged_bytes == base.exchanged_bytes
        assert tuned.timing.exchange < base.timing.exchange
