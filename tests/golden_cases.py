"""Shared definitions for the golden differential suite.

The staged-pipeline refactor must reproduce the pre-refactor engine
*bit-identically*: spectrum, model timing, traffic accounting, and
telemetry model metrics.  This module defines the case matrix and the
summarization used both by ``tools/capture_golden.py`` (which recorded
``tests/golden/engine_golden.json`` against the pre-refactor engine) and
by ``tests/test_stages_golden.py`` (which replays the matrix on the
current code and compares field by field).

The case matrix and summaries depend only on layers untouched by the
refactor (``repro.dna``, ``repro.mpi.topology``, result dataclasses), so
they are comparable across the refactor boundary.  ``MODEL_CASES`` pins the
model clock of the paper's figures the same way
(``tests/golden/model_cells.json``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.bench.runner import dataset_with_multiplier
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.results import CountResult
from repro.dna.reads import ReadSet
from repro.dna.simulate import GenomeSimulator, ReadLengthProfile, ReadSimulator
from repro.mpi.topology import summit_cpu, summit_gpu

GOLDEN_PATH = "tests/golden/engine_golden.json"
MODEL_GOLDEN_PATH = "tests/golden/model_cells.json"


def golden_reads() -> ReadSet:
    """The deterministic dataset every golden case runs on."""
    genome = GenomeSimulator(12_000, repeat_fraction=0.25, seed=11).generate_codes()
    return ReadSimulator(
        genome,
        coverage=8,
        length_profile=ReadLengthProfile(kind="lognormal", mean=400, sigma=0.4, min_len=60),
        error_rate=0.01,
        seed=13,
    ).generate()


def batch_reads(n_batches: int = 3) -> list[ReadSet]:
    """Deterministic read batches for the incremental-counter cases."""
    genome = GenomeSimulator(6_000, repeat_fraction=0.2, seed=21).generate_codes()
    return [
        ReadSimulator(
            genome,
            coverage=4,
            length_profile=ReadLengthProfile(kind="lognormal", mean=300, sigma=0.3, min_len=60),
            error_rate=0.005,
            seed=30 + i,
        ).generate()
        for i in range(n_batches)
    ]


#: The engine case matrix: name -> (cluster_kind, nodes, backend, config kwargs,
#: engine-option kwargs).  ``cluster_kind`` is "gpu" (6 ranks/node) or "cpu"
#: (42 ranks/node); option kwargs are plain values accepted by EngineOptions.
ENGINE_CASES: dict[str, dict[str, Any]] = {
    "cpu-kmer": {
        "cluster": ("cpu", 1),
        "backend": "cpu",
        "config": {"k": 17, "mode": "kmer"},
        "options": {},
    },
    "gpu-kmer": {
        "cluster": ("gpu", 2),
        "backend": "gpu",
        "config": {"k": 17, "mode": "kmer"},
        "options": {},
    },
    "gpu-supermer-m7": {
        "cluster": ("gpu", 2),
        "backend": "gpu",
        "config": {"k": 17, "mode": "supermer", "minimizer_len": 7, "window": 15},
        "options": {},
    },
    "cpu-supermer-m7": {
        "cluster": ("cpu", 1),
        "backend": "cpu",
        "config": {"k": 17, "mode": "supermer", "minimizer_len": 7, "window": 15},
        "options": {},
    },
    "gpu-kmer-rounds3": {
        "cluster": ("gpu", 1),
        "backend": "gpu",
        "config": {"k": 17, "mode": "kmer", "n_rounds": 3},
        "options": {},
    },
    "gpu-supermer-canonical-rounds2": {
        "cluster": ("gpu", 1),
        "backend": "gpu",
        "config": {"k": 15, "mode": "supermer", "minimizer_len": 5, "window": 9, "canonical": True, "n_rounds": 2},
        "options": {},
    },
    "gpu-kmer-mult64-gpudirect": {
        "cluster": ("gpu", 2),
        "backend": "gpu",
        "config": {"k": 17, "mode": "kmer", "gpudirect": True},
        "options": {"work_multiplier": 64.0},
    },
    "gpu-supermer-m9-mult64": {
        "cluster": ("gpu", 2),
        "backend": "gpu",
        "config": {"k": 17, "mode": "supermer", "minimizer_len": 9, "window": 15},
        "options": {"work_multiplier": 64.0},
    },
}

#: Cases additionally run with a telemetry registry attached; the golden
#: records the model-metric snapshot hash.
TELEMETRY_CASES = ("gpu-kmer", "gpu-supermer-m7", "cpu-kmer")

#: Incremental-counter cases: (backend, config kwargs).
COUNTER_CASES: dict[str, dict[str, Any]] = {
    "counter-gpu-supermer": {
        "backend": "gpu",
        "config": {"k": 17, "mode": "supermer", "minimizer_len": 7, "window": 15},
    },
    "counter-cpu-kmer": {
        "backend": "cpu",
        "config": {"k": 17, "mode": "kmer"},
    },
}

#: SPMD cases: config kwargs run through count_spmd at this rank count.
SPMD_CASES: dict[str, dict[str, Any]] = {
    "spmd-kmer": {"n_ranks": 4, "config": {"k": 17, "mode": "kmer"}},
    "spmd-supermer": {"n_ranks": 4, "config": {"k": 17, "mode": "supermer", "minimizer_len": 7, "window": 15}},
    "spmd-supermer-canonical": {
        "n_ranks": 3,
        "config": {"k": 15, "mode": "supermer", "minimizer_len": 5, "window": 9, "canonical": True},
    },
}


def _model_cell(
    dataset: str, backend: str, mode: str, m: int = 7, nodes: int = 16, baseline: str | None = None
) -> tuple[str, dict[str, Any]]:
    name = f"{dataset}/{backend}-{mode}-m{m}" + ("" if nodes == 16 else f"/{nodes}-nodes")
    case = {
        "dataset": dataset,
        "cluster": (backend, nodes),
        "backend": backend,
        "config": {"k": 17, "mode": mode, "minimizer_len": m},
        "baseline": baseline,
    }
    return name, case


#: The model-clock pin.  The paper's figures are *modeled* Summit seconds, so
#: these cells run Table I datasets at full scale (``work_multiplier``) and
#: the golden holds their exact floats: the three ``vvulnificus30x`` Fig. 6
#: cells at 16 nodes, plus m=9 supermers and a 4-node k-mer run, which
#: together carry Fig. 8's alltoallv seconds/speedups (``baseline`` names the
#: k-mer run a speedup is relative to) and Fig. 9's insertion rates.
_FIG6_VARIANTS = (("cpu", "kmer"), ("gpu", "kmer"), ("gpu", "supermer"))
_FIG8_BASELINE = "vvulnificus30x/gpu-kmer-m7"
MODEL_CASES: dict[str, dict[str, Any]] = dict(
    [
        _model_cell("vvulnificus30x", "cpu", "kmer"),
        _model_cell("vvulnificus30x", "gpu", "kmer"),
        _model_cell("vvulnificus30x", "gpu", "supermer", baseline=_FIG8_BASELINE),
        _model_cell("vvulnificus30x", "gpu", "supermer", m=9, baseline=_FIG8_BASELINE),
        _model_cell("vvulnificus30x", "gpu", "kmer", nodes=4),
    ]
)

#: The Fig. 6 cells of MODEL_CASES, additionally replayed on every strategy.
MODEL_STRATEGY_CASES = tuple(MODEL_CASES)[: len(_FIG6_VARIANTS)]

#: The other nine Fig. 6 cells (16 nodes), pinned on the staged strategy only.
MODEL_STAGED_ONLY_CASES: dict[str, dict[str, Any]] = dict(
    _model_cell(dataset, backend, mode)
    for dataset in ("ecoli30x", "paeruginosa30x", "abaumannii30x")
    for backend, mode in _FIG6_VARIANTS
)


def run_model_case(case: dict[str, Any], **options: Any) -> CountResult:
    """Run one model cell at full scale; ``options`` pick strategy and substrate."""
    reads, mult = dataset_with_multiplier(case["dataset"])
    return run_pipeline(
        reads,
        build_cluster(*case["cluster"]),
        PipelineConfig(**case["config"]),
        backend=case["backend"],
        options=EngineOptions(work_multiplier=mult, **options),
    )


def build_cluster(kind: str, nodes: int):
    return summit_gpu(nodes) if kind == "gpu" else summit_cpu(nodes)


def _hash_array(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def spectrum_digest(spectrum) -> dict[str, Any]:
    return {
        "n_distinct": int(spectrum.n_distinct),
        "n_total": int(spectrum.n_total),
        "values_sha": _hash_array(spectrum.values),
        "counts_sha": _hash_array(spectrum.counts),
    }


def snapshot_digest(registry) -> str:
    """Hash of the model-metric snapshot (wall families excluded)."""
    snap = registry.snapshot(include_wall=False)
    return hashlib.sha256(json.dumps(snap, sort_keys=True, default=str).encode()).hexdigest()


def summarize_result(result) -> dict[str, Any]:
    """Every bit-identity-relevant field of a CountResult, JSON-ready.

    Floats round-trip exactly through JSON (repr-based), so equality
    comparisons on the reloaded values are exact.
    """
    ins = result.insert_stats
    return {
        "spectrum": spectrum_digest(result.spectrum),
        "timing": {
            "parse": result.timing.parse,
            "exchange": result.timing.exchange,
            "count": result.timing.count,
        },
        "per_rank_parse_sha": _hash_array(result.per_rank_parse),
        "per_rank_count_sha": _hash_array(result.per_rank_count),
        "received_kmers": [int(x) for x in result.received_kmers],
        "exchanged_items": int(result.exchanged_items),
        "exchanged_bytes": int(result.exchanged_bytes),
        "counts_matrix_sha": _hash_array(result.counts_matrix),
        "insert_stats": {
            "n_instances": ins.n_instances,
            "n_distinct": ins.n_distinct,
            "total_probes": ins.total_probes,
            "max_probe": ins.max_probe,
            "cas_conflicts": ins.cas_conflicts,
            "rounds": ins.rounds,
            "resizes": ins.resizes,
        },
        "mean_supermer_length": result.mean_supermer_length,
        "staging_seconds": result.staging_seconds,
        "alltoallv_seconds": result.alltoallv_seconds,
        "n_rounds_used": int(result.n_rounds_used),
        "traffic_bytes": int(result.traffic.total_bytes()),
        "traffic_collectives": int(result.traffic.n_collectives),
    }


def summarize_model_cell(result, baseline=None) -> dict[str, Any]:
    """:func:`summarize_result` plus the figure observables derived from it.

    ``total_s`` is Fig. 6's bar, ``compute_s`` / ``insertion_rate`` are
    Fig. 9's, ``alltoallv_speedup`` (vs the k-mer ``baseline`` run) is
    Fig. 8's; the seconds they derive from are in the summary itself.
    """
    figures = {
        "total_s": result.timing.total,
        "compute_s": result.timing.compute,
        "insertion_rate": result.insertion_rate(),
    }
    if baseline is not None:
        figures["alltoallv_speedup"] = result.exchange_speedup_over(baseline)
    return summarize_result(result) | {"figures": figures}


def summarize_counter(counter) -> dict[str, Any]:
    """Bit-identity-relevant state of a DistributedCounter."""
    return {
        "spectrum": spectrum_digest(counter.spectrum()),
        "timing": {
            "parse": counter.timing.parse,
            "exchange": counter.timing.exchange,
            "count": counter.timing.count,
        },
        "received_kmers": [int(x) for x in counter.received_kmers],
        "exchanged_items": int(counter.exchanged_items),
        "n_batches": int(counter.n_batches),
        "insert_total_probes": counter.insert_stats.total_probes,
        "traffic_bytes": int(counter.traffic.total_bytes()),
    }
