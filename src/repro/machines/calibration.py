"""Machine calibration files: declarative TOML/JSON -> :class:`MachineSpec`.

A calibration file describes a machine the same way the built-in presets
do, so any cluster can be swapped in without touching code::

    # my_cluster.toml
    name = "my-cluster"
    description = "4xMI-class nodes on 200 GbE"
    base = "summit-gpu"          # optional: start from a preset, override below

    [node]
    gpus_per_node = 4
    ranks_per_node = 4

    [network]
    injection_bw = 50e9
    alltoallv_efficiency = 0.05
    # hierarchical fields (see repro.machines.network.NetworkSpec):
    switch_levels = 2
    switch_radix = 36
    switch_uplink_bw = [200e9, 3600e9]
    eager_threshold = 16384
    incast_penalty = 0.25
    gpudirect = true

    [device]                     # a preset name (device = "a100") also works
    base = "a100"
    hbm_bw = 1300e9

    [cpu_rates]
    parse_rate = 8e4

    [gpu_model]
    exchange_overhead_s = 1.0

JSON files use the same structure.  Every malformed input — unreadable
file, syntax error, unknown key, wrong type, failed spec validation —
raises a single :class:`ValueError` naming the file and the offending
field, so CLI users get one actionable line instead of a traceback chain.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .device import DeviceSpec, get_device
from .network import NetworkSpec
from .rates import CpuRates, GpuPipelineModel
from .registry import get_machine
from .spec import MachineSpec

__all__ = ["load", "spec_from_dict"]

_NODE_KEYS = ("sockets_per_node", "cores_per_node", "gpus_per_node", "ranks_per_node")
#: [network] keys: every NetworkSpec field, plus the machine's rank placement.
_NETWORK_KEYS = tuple(f.name for f in fields(NetworkSpec)) + ("placement",)
_NETWORK_INT_KEYS = ("switch_levels", "switch_radix", "eager_threshold")
_TOP_KEYS = (
    "name",
    "description",
    "base",
    "node_cost",
    "node",
    "network",
    "device",
    "cpu_rates",
    "gpu_model",
)


def _err(source: str, message: str) -> ValueError:
    return ValueError(f"machine calibration {source}: {message}")


def _check_keys(source: str, section: str, data: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _err(
            source,
            f"unknown key(s) {', '.join(unknown)} in {section}; allowed: {', '.join(allowed)}",
        )


def _check_table(source: str, section: str, value: object) -> dict:
    if not isinstance(value, dict):
        raise _err(source, f"section '{section}' must be a table/object, got {type(value).__name__}")
    return value


def _numeric_overrides(source: str, section: str, data: dict, proto: object) -> dict:
    """Validate a field-override table against a dataclass prototype."""
    known = {f.name for f in fields(proto)}  # type: ignore[arg-type]
    _check_keys(source, section, data, tuple(sorted(known - {"name"})))
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _err(source, f"{section}.{key} must be a number, got {value!r}")
    return data


def _build_device(source: str, value: object, base_device: DeviceSpec | None) -> DeviceSpec:
    if isinstance(value, str):
        try:
            return get_device(value)
        except ValueError as exc:
            raise _err(source, str(exc)) from None
    table = dict(_check_table(source, "device", value))
    start = base_device
    if "base" in table:
        base_name = table.pop("base")
        if not isinstance(base_name, str):
            raise _err(source, f"device.base must be a device preset name, got {base_name!r}")
        try:
            start = get_device(base_name)
        except ValueError as exc:
            raise _err(source, str(exc)) from None
    try:
        if start is not None:
            allowed = tuple(sorted(f.name for f in fields(DeviceSpec)))
            _check_keys(source, "device", table, allowed)
            return start.with_overrides(**table)
        return DeviceSpec(**table)
    except (TypeError, ValueError) as exc:
        raise _err(source, f"invalid device spec: {exc}") from None


def spec_from_dict(data: dict, *, source: str = "<dict>") -> MachineSpec:
    """Build a validated :class:`MachineSpec` from parsed calibration data."""
    data = _check_table(source, "top level", data)
    _check_keys(source, "the top level", data, _TOP_KEYS)

    base: MachineSpec | None = None
    if "base" in data:
        if not isinstance(data["base"], str):
            raise _err(source, f"'base' must be a machine preset name, got {data['base']!r}")
        try:
            base = get_machine(data["base"])
        except ValueError as exc:
            raise _err(source, str(exc)) from None

    kwargs: dict[str, object] = {}
    if base is not None:
        kwargs = {f.name: getattr(base, f.name) for f in fields(MachineSpec)}
    elif "name" not in data:
        raise _err(source, "missing required key 'name' (and no 'base' preset to inherit one)")
    for key in ("name", "description"):
        if key in data:
            if not isinstance(data[key], str):
                raise _err(source, f"'{key}' must be a string, got {data[key]!r}")
            kwargs[key] = data[key]

    node = _check_table(source, "node", data.get("node", {}))
    _check_keys(source, "[node]", node, _NODE_KEYS)
    for key, value in node.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise _err(source, f"node.{key} must be an integer, got {value!r}")
        kwargs[key] = value

    if "node_cost" in data:
        cost = data["node_cost"]
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise _err(source, f"node_cost must be a number, got {cost!r}")
        kwargs["node_cost"] = cost

    network = _check_table(source, "network", data.get("network", {}))
    _check_keys(source, "[network]", network, _NETWORK_KEYS)
    net_overrides: dict[str, object] = {}
    for key, value in network.items():
        if key == "placement":
            if not isinstance(value, str):
                raise _err(source, f"network.placement must be a string, got {value!r}")
            kwargs[key] = value
            continue
        if key == "gpudirect":
            if not isinstance(value, bool):
                raise _err(source, f"network.gpudirect must be a boolean, got {value!r}")
        elif key == "switch_uplink_bw":
            if not isinstance(value, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
            ):
                raise _err(source, f"network.switch_uplink_bw must be a list of numbers, got {value!r}")
            value = tuple(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _err(source, f"network.{key} must be a number, got {value!r}")
        elif key in _NETWORK_INT_KEYS and not isinstance(value, int):
            raise _err(source, f"network.{key} must be an integer, got {value!r}")
        net_overrides[key] = value
    if net_overrides:
        start = base.network if base is not None else NetworkSpec()
        try:
            kwargs["network"] = start.with_overrides(**net_overrides)
        except ValueError as exc:
            raise _err(source, f"invalid network spec: {exc}") from None

    if "device" in data:
        kwargs["device"] = _build_device(source, data["device"], base.device if base else None)

    if "cpu_rates" in data:
        table = _check_table(source, "cpu_rates", data["cpu_rates"])
        _numeric_overrides(source, "cpu_rates", table, CpuRates)
        start = base.cpu_rates if base else CpuRates()
        try:
            kwargs["cpu_rates"] = start.with_overrides(**table)
        except ValueError as exc:
            raise _err(source, f"invalid cpu_rates: {exc}") from None

    if "gpu_model" in data:
        table = _check_table(source, "gpu_model", data["gpu_model"])
        _numeric_overrides(source, "gpu_model", table, GpuPipelineModel)
        start = base.gpu_model if base else GpuPipelineModel()
        try:
            kwargs["gpu_model"] = start.with_overrides(**table)
        except ValueError as exc:
            raise _err(source, f"invalid gpu_model: {exc}") from None

    try:
        return MachineSpec(**kwargs)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise _err(source, str(exc)) from None


def load(path: str | Path) -> MachineSpec:
    """Load a machine calibration file (``.toml`` or ``.json``)."""
    path = Path(path)
    source = str(path)
    if not path.exists():
        raise _err(source, "file not found")
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            import tomllib

            data = tomllib.loads(path.read_text())
        elif suffix == ".json":
            data = json.loads(path.read_text())
        else:
            raise _err(source, f"unsupported calibration format {suffix!r}; use .toml or .json")
    except ValueError as exc:  # includes tomllib.TOMLDecodeError and json.JSONDecodeError
        if isinstance(exc.args[0] if exc.args else "", str) and str(exc).startswith("machine calibration"):
            raise
        raise _err(source, f"parse error: {exc}") from None
    except OSError as exc:
        raise _err(source, f"cannot read file: {exc}") from None
    return spec_from_dict(data, source=source)
