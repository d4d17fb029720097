"""Randomized differential suite: fused vs staged execution.

Property: for ANY pipeline configuration the fused strategy
(``EngineOptions(fused=True)``, which now changes names only) produces
bit-identical results to the staged one — spectrum, per-rank model times, traffic
matrices, insert statistics, staging/alltoallv model seconds, and the
model-metric telemetry snapshot.  The golden suite pins a fixed case
matrix; this suite draws configurations at random so every run explores a
different corner of the design space (seeded per trial for reproducible
failures).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.dna.simulate import GenomeSimulator, ReadLengthProfile, ReadSimulator
from repro.mpi.topology import summit_cpu, summit_gpu
from repro.telemetry import MetricRegistry

from .golden_cases import snapshot_digest, summarize_result

pytestmark = pytest.mark.engines

N_TRIALS = 8


def _random_case(rng: random.Random) -> tuple[dict, dict, str, int, str]:
    mode = rng.choice(["kmer", "supermer"])
    k = rng.choice([13, 15, 17, 21])
    config: dict = {"k": k, "mode": mode}
    if mode == "supermer":
        m = rng.choice([5, 7])
        config["minimizer_len"] = m
        # Window is capped so supermers pack into one 64-bit word.
        config["window"] = min(rng.choice([k - m + 1, 2 * (k - m + 1) - 1]), 33 - k)
        config["ordering"] = rng.choice(["lexicographic", "kmc2", "random-base"])
    if rng.random() < 0.4:
        config["canonical"] = True
    if rng.random() < 0.4:
        config["n_rounds"] = rng.choice([2, 3])
    if rng.random() < 0.3:
        config["gpudirect"] = True
    options: dict = {}
    if rng.random() < 0.4:
        options["work_multiplier"] = rng.choice([4.0, 64.0])
    backend = rng.choice(["gpu", "gpu", "cpu"])  # gpu-weighted: it is the paper's subject
    nodes = rng.choice([1, 2])
    stages = ""
    if rng.random() < 0.35:
        stages = rng.choice(["bloom", "balanced", "bloom,balanced"])
    return config, options, backend, nodes, stages


def _reads(rng: random.Random):
    genome = GenomeSimulator(
        rng.choice([4_000, 9_000]), repeat_fraction=rng.uniform(0.0, 0.3), seed=rng.randrange(1 << 16)
    ).generate_codes()
    return ReadSimulator(
        genome,
        coverage=rng.choice([3, 6]),
        length_profile=ReadLengthProfile(kind="lognormal", mean=rng.choice([250, 450]), sigma=0.4, min_len=60),
        error_rate=rng.choice([0.0, 0.01]),
        seed=rng.randrange(1 << 16),
    ).generate()


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_fused_equals_staged_on_random_configuration(trial):
    rng = random.Random(0xF05ED + trial)
    config_kw, option_kw, backend, nodes, stages = _random_case(rng)
    reads = _reads(rng)
    config = PipelineConfig(**config_kw)
    cluster = summit_gpu(nodes) if backend == "gpu" else summit_cpu(nodes)
    stage_tuple = tuple(s for s in stages.split(",") if s)
    label = f"trial {trial}: {backend}x{nodes} {config_kw} {option_kw} stages={stage_tuple}"

    reg_staged, reg_fused = MetricRegistry(), MetricRegistry()
    staged = run_pipeline(
        reads,
        cluster,
        config,
        backend=backend,
        options=EngineOptions(telemetry=reg_staged, stages=stage_tuple, **option_kw),
    )
    fused = run_pipeline(
        reads,
        cluster,
        config,
        backend=backend,
        options=EngineOptions(telemetry=reg_fused, stages=stage_tuple, fused=True, **option_kw),
    )

    expected, actual = summarize_result(staged), summarize_result(fused)
    for key in expected:
        assert actual[key] == expected[key], f"{label}: field {key!r} diverged"
    assert snapshot_digest(reg_fused) == snapshot_digest(reg_staged), f"{label}: telemetry diverged"
