"""Unified machine-model layer: one declarative spec per machine.

The paper's results are a function of one machine — Summit (2xPower9 +
6xV100, 23 GB/s node injection).  This package makes the machine a
first-class, swappable input: a :class:`MachineSpec` declares the node
shape, network, GPU device, and kernel calibration rates in one object,
and every layer above (``mpi`` topology/cost model, ``gpu`` device/cost
model, the execution core, benches, CLI) derives its numbers from it.

Entry points:

* :func:`get_machine` / :func:`machine_names` — the named-preset registry
  (``summit-gpu``, ``summit-cpu``, ``a100-gpu``, ``fat-nic-gpu``,
  ``tapered-fabric-gpu``, ``generic-cpu``);
* :func:`load` — TOML/JSON calibration files for machines of your own;
* :func:`resolve_machine` — one-stop resolution of a spec, preset name,
  or calibration-file path (what ``repro count --machine`` uses);
* :func:`register_machine` — runtime registration.

Exact observables (counts, spectra, per-rank arrays, traffic bytes) are
machine-invariant by construction; only modeled times change across
machines.  See docs/MACHINES.md.
"""

from __future__ import annotations

from pathlib import Path

from .calibration import load, spec_from_dict
from .device import DeviceSpec, a100, device_names, generic_gpu, get_device, v100
from .network import LinkSpec, NetworkSpec
from .rates import CpuRates, GpuPipelineModel, epyc_rates, power9_rates
from .registry import (
    DEFAULT_MACHINES,
    get_machine,
    machine_names,
    register_machine,
)
from .spec import MachineSpec

__all__ = [
    "MachineSpec",
    "NetworkSpec",
    "LinkSpec",
    "DeviceSpec",
    "CpuRates",
    "GpuPipelineModel",
    "v100",
    "a100",
    "generic_gpu",
    "get_device",
    "device_names",
    "power9_rates",
    "epyc_rates",
    "register_machine",
    "get_machine",
    "machine_names",
    "DEFAULT_MACHINES",
    "load",
    "spec_from_dict",
    "resolve_machine",
]


def resolve_machine(machine: "MachineSpec | str | Path | None", default: str = "summit-gpu") -> MachineSpec:
    """Resolve a machine given as a spec, preset name, or calibration path.

    ``None`` resolves to ``default``.  Strings are tried as registry names
    first; anything that looks like a file path (``.toml``/``.json`` suffix
    or a path separator) loads as a calibration file.
    """
    if machine is None:
        return get_machine(default)
    if isinstance(machine, MachineSpec):
        return machine
    if isinstance(machine, Path):
        return load(machine)
    text = str(machine)
    looks_like_path = text.lower().endswith((".toml", ".json")) or "/" in text or "\\" in text
    if looks_like_path:
        return load(text)
    return get_machine(text)
