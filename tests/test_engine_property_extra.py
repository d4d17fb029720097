"""Extra cross-feature property tests on the engine.

The main engine tests cover each feature; these hypothesis grids cover the
*combinations* (mode x rounds x canonical x gpudirect x sharding x
multiplier) where interaction bugs live.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.dna.reads import ReadSet
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["kmer", "supermer"]),
    n_rounds=st.integers(min_value=1, max_value=4),
    canonical=st.booleans(),
    gpudirect=st.booleans(),
    backend=st.sampled_from(["gpu", "cpu"]),
    k=st.integers(min_value=4, max_value=23),
)
@settings(max_examples=50, deadline=None)
def test_feature_combinations_stay_exact(seed, mode, n_rounds, canonical, gpudirect, backend, k):
    rng = np.random.default_rng(seed)
    reads = ReadSet.from_strings(
        ["".join("ACGTN"[c] for c in rng.integers(0, 5, size=int(rng.integers(0, 120)))) for _ in range(8)]
    )
    config = PipelineConfig(
        k=k,
        mode=mode,
        minimizer_len=max(2, k // 2 - 1),
        window=None,
        canonical=canonical,
        gpudirect=gpudirect,
        n_rounds=n_rounds,
    )
    options = EngineOptions(work_multiplier=float(rng.integers(1, 10_000)))
    result = run_pipeline(reads, summit_gpu(2), config, backend=backend, options=options)
    result.validate_against(count_kmers_exact(reads, k, canonical=canonical))
    # Bulk-sync invariants hold under every combination.
    assert result.timing.parse >= 0 and result.timing.exchange > 0
    assert int(result.received_kmers.sum()) == result.spectrum.n_total
    assert result.n_rounds_used == n_rounds


@given(mult=st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=20, deadline=None)
def test_compute_time_linear_in_multiplier(genome_reads, mult):
    """Doubling the multiplier doubles per-rank compute work exactly
    (launch overhead aside) — the scaling contract of docs/MODEL.md."""
    base = run_pipeline(
        genome_reads, summit_gpu(1), PipelineConfig(k=17), options=EngineOptions(work_multiplier=mult)
    )
    double = run_pipeline(
        genome_reads, summit_gpu(1), PipelineConfig(k=17), options=EngineOptions(work_multiplier=2 * mult)
    )
    overhead = 2 * base.cluster.n_ranks * 0 + 1e-5  # launch overheads are microseconds
    ratio = (double.timing.parse) / max(base.timing.parse, 1e-12)
    assert 1.8 < ratio < 2.2 or base.timing.parse < overhead