"""Cross-subsystem consistency: every counting path in the library agrees.

The library has five ways to produce a k-mer histogram: the oracle
(`np.unique`), the BSP engine (both modes), the threaded SPMD programs,
the incremental counter, and the sort-based backend.  The last four share
the table module's pair fold (`merge_counts`) but differ in control flow,
partitioning, transport, and data structures (the sort-based backend has
no hash table) — so pairwise agreement on the same input is a strong
whole-library invariant, and the oracle shares no code with any of them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.engine import run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.spmd import count_spmd
from repro.dna.reads import ReadSet
from repro.ext.sortcount import SortingCounter
from repro.kmers import extract_kmers
from repro.kmers.spectrum import KmerSpectrum, count_kmers_exact
from repro.mpi.topology import summit_gpu


def all_histograms(reads: ReadSet, k: int) -> dict[str, KmerSpectrum]:
    """One histogram per counting path."""
    out: dict[str, KmerSpectrum] = {}
    out["oracle"] = count_kmers_exact(reads, k)
    out["engine-kmer"] = run_pipeline(reads, summit_gpu(2), PipelineConfig(k=k)).spectrum
    out["engine-supermer"] = run_pipeline(
        reads, summit_gpu(2), PipelineConfig(k=k, mode="supermer", minimizer_len=max(2, k // 2), window=None)
    ).spectrum
    out["spmd"] = count_spmd(reads, n_ranks=5, config=PipelineConfig(k=k))
    counter = DistributedCounter(summit_gpu(1), PipelineConfig(k=k))
    counter.add_reads(reads)
    out["incremental"] = counter.spectrum()
    sorter = SortingCounter()
    sorter.insert_batch(extract_kmers(reads, k))
    values, counts = sorter.items()
    out["sort-backend"] = KmerSpectrum(k=k, values=values, counts=counts)
    return out


class TestAllPathsAgree:
    def test_on_genome_reads(self, genome_reads):
        histograms = all_histograms(genome_reads, 17)
        oracle = histograms.pop("oracle")
        for name, spectrum in histograms.items():
            assert spectrum.equals(oracle), name

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=3, max_value=21),
    )
    @settings(max_examples=15, deadline=None)
    def test_on_random_inputs(self, seed, k):
        rng = np.random.default_rng(seed)
        reads = ReadSet.from_strings(
            ["".join("ACGTN"[c] for c in rng.integers(0, 5, size=int(rng.integers(0, 150)))) for _ in range(6)]
        )
        histograms = all_histograms(reads, k)
        oracle = histograms.pop("oracle")
        for name, spectrum in histograms.items():
            assert spectrum.equals(oracle), (name, seed, k)
