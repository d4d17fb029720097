"""High-level drivers: the public entry points for distributed counting.

:func:`count_distributed` is the one-call API: give it reads, a node count,
and a configuration, and it runs the full simulated pipeline and returns a
:class:`CountResult`.  :func:`run_paper_comparison` reproduces the paper's
standard three-way comparison (k-mer mode vs supermer m=7 vs m=9) on one
dataset and cluster, which is the building block of Figs. 6-8.
"""

from __future__ import annotations

from ..dna.reads import ReadSet
from ..machines import MachineSpec, resolve_machine
from ..mpi.topology import ClusterSpec, cluster_for, summit_cpu, summit_gpu
from .config import PipelineConfig, paper_config
from .engine import EngineOptions, run_pipeline
from .results import CountResult
from .stages.registry import normalize_backend

__all__ = ["count_distributed", "run_paper_comparison", "gpu_cluster", "cpu_cluster"]


def gpu_cluster(n_nodes: int) -> ClusterSpec:
    """The paper's GPU layout: ``n_nodes`` Summit nodes, 6 ranks/GPUs each."""
    return summit_gpu(n_nodes)


def cpu_cluster(n_nodes: int) -> ClusterSpec:
    """The paper's CPU-baseline layout: 42 ranks per Summit node."""
    return summit_cpu(n_nodes)


def count_distributed(
    reads: ReadSet,
    *,
    n_nodes: int = 4,
    backend: str = "gpu",
    config: PipelineConfig | None = None,
    cluster: ClusterSpec | None = None,
    machine: MachineSpec | str | None = None,
    options: EngineOptions | None = None,
    work_multiplier: float = 1.0,
    stages: tuple[str, ...] = (),
) -> CountResult:
    """Count k-mers of ``reads`` on a simulated distributed-GPU (or CPU) system.

    Parameters
    ----------
    reads:
        The input read set (e.g. from :func:`repro.dna.load_dataset` or a
        FASTQ file via :class:`repro.dna.ReadSet`).
    n_nodes / backend:
        Node count and execution backend.  ``backend`` is one of the four
        backends (``"gpu"``, ``"cpu"``, or ``"gpu:supermer"``-style).
        Without an explicit ``machine``, the substrate picks the paper's
        Summit layout (6 ranks/node for ``"gpu"``, 42 for ``"cpu"``).
    machine:
        Machine model for the run: a :class:`~repro.machines.MachineSpec`,
        a registered preset name (``"a100-gpu"``), or a calibration-file
        path.  Drives the cluster topology, device, and kernel rates; the
        node count stays the one run-time override.  Ignored for topology
        when an explicit ``cluster`` is given.
    config:
        Algorithmic parameters; defaults to the paper's k=17 k-mer mode.
    work_multiplier:
        Scale-up factor applied to all cost-model inputs so a scaled-down
        dataset yields full-size model times (see :mod:`repro.core.engine`).
    stages:
        Extension stage names from the registry (e.g. ``("bloom",
        "balanced")``), applied on top of the backend's composition.
    """
    config = config or paper_config()
    if machine is not None:
        machine = resolve_machine(machine)
        if cluster is None:
            cluster = cluster_for(machine, n_nodes)
    elif cluster is None:
        substrate = normalize_backend(backend, config.mode).partition(":")[0]
        cluster = cpu_cluster(n_nodes) if substrate == "cpu" else gpu_cluster(n_nodes)
    if options is None:
        options = EngineOptions(machine=machine, work_multiplier=work_multiplier, stages=stages)
    else:
        if work_multiplier != 1.0:
            raise ValueError("pass work_multiplier inside options when options is given")
        if stages:
            raise ValueError("pass stages inside options when options is given")
    return run_pipeline(reads, cluster, config, backend=backend, options=options)


def run_paper_comparison(
    reads: ReadSet,
    *,
    n_nodes: int,
    k: int = 17,
    window: int = 15,
    minimizer_lengths: tuple[int, ...] = (7, 9),
    include_cpu_baseline: bool = True,
    work_multiplier: float = 1.0,
    options: EngineOptions | None = None,
    gpu_machine: MachineSpec | str = "summit-gpu",
    cpu_machine: MachineSpec | str = "summit-cpu",
) -> dict[str, CountResult]:
    """The paper's standard comparison on one dataset at one node count.

    Returns a dict with keys ``"cpu"`` (Algorithm 1 baseline at 42
    ranks/node, if requested), ``"kmer"`` (GPU k-mer pipeline), and
    ``"supermer-m{m}"`` for each requested minimizer length — exactly the
    bar groups of Figs. 6 and 7.  All GPU runs share the same GPU cluster;
    the CPU baseline uses the CPU layout at the *same node count*, as in
    the paper ("the CPU baseline uses 672 cores in total ... speedups are
    shown on 96 GPUs", Section V-B).

    ``gpu_machine`` / ``cpu_machine`` swap in non-Summit machine models
    (preset names, specs, or calibration files) for cross-machine studies.
    """
    if options is None:
        gpu_options = EngineOptions(machine=gpu_machine, work_multiplier=work_multiplier)
        cpu_options = EngineOptions(machine=cpu_machine, work_multiplier=work_multiplier)
    else:
        gpu_options = cpu_options = options
    results: dict[str, CountResult] = {}
    base = PipelineConfig(k=k, mode="kmer", window=window)
    if include_cpu_baseline:
        ccluster = cluster_for(cpu_machine, n_nodes)
        results["cpu"] = run_pipeline(reads, ccluster, base, backend="cpu", options=cpu_options)
    gcluster = cluster_for(gpu_machine, n_nodes)
    results["kmer"] = run_pipeline(reads, gcluster, base, backend="gpu", options=gpu_options)
    for m in minimizer_lengths:
        cfg = PipelineConfig(k=k, mode="supermer", minimizer_len=m, window=window)
        results[f"supermer-m{m}"] = run_pipeline(reads, gcluster, cfg, backend="gpu", options=gpu_options)
    return results
