"""Integration tests: the distributed pipelines against the exact oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.dna.reads import ReadSet
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_cpu, summit_gpu


@pytest.fixture(scope="module")
def oracle17(genome_reads):
    return count_kmers_exact(genome_reads, 17)


class TestExactness:
    """The fundamental guarantee: every pipeline variant produces exactly
    the single-node histogram, for any partitioning (Algorithm 1's and
    Section IV-A's locality invariants)."""

    @pytest.mark.parametrize("backend", ["gpu", "cpu"])
    @pytest.mark.parametrize(
        "config",
        [
            PipelineConfig(k=17, mode="kmer"),
            PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15),
            PipelineConfig(k=17, mode="supermer", minimizer_len=9, window=15),
        ],
        ids=["kmer", "supermer-m7", "supermer-m9"],
    )
    def test_matches_oracle(self, genome_reads, oracle17, backend, config):
        cluster = summit_gpu(2) if backend == "gpu" else summit_cpu(1)
        result = run_pipeline(genome_reads, cluster, config, backend=backend)
        result.validate_against(oracle17)

    @pytest.mark.parametrize("n_nodes", [1, 3, 8])
    def test_any_node_count(self, genome_reads, oracle17, n_nodes):
        result = run_pipeline(genome_reads, summit_gpu(n_nodes), PipelineConfig(k=17))
        result.validate_against(oracle17)

    @pytest.mark.parametrize("ordering", ["lexicographic", "kmc2", "random-base"])
    def test_any_ordering(self, genome_reads, oracle17, ordering):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15, ordering=ordering)
        run_pipeline(genome_reads, summit_gpu(2), cfg).validate_against(oracle17)

    @given(
        reads=st.lists(st.text(alphabet="ACGTN", min_size=0, max_size=80), min_size=0, max_size=10),
        k=st.integers(min_value=3, max_value=12),
        mode=st.sampled_from(["kmer", "supermer"]),
        nodes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_inputs(self, reads, k, mode, nodes, seed):
        rs = ReadSet.from_strings(reads)
        cfg = PipelineConfig(k=k, mode=mode, minimizer_len=max(2, k // 2), window=None, partition_seed=seed)
        result = run_pipeline(rs, summit_gpu(nodes), cfg)
        result.validate_against(count_kmers_exact(rs, k))

    def test_canonical_kmer_mode(self, genome_reads):
        cfg = PipelineConfig(k=17, canonical=True)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        result.validate_against(count_kmers_exact(genome_reads, 17, canonical=True))

    def test_canonical_supermer_mode(self, genome_reads):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, canonical=True)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        result.validate_against(count_kmers_exact(genome_reads, 17, canonical=True))

    def test_empty_input(self):
        result = run_pipeline(ReadSet.empty(), summit_gpu(1), PipelineConfig(k=17))
        assert result.total_kmers == 0
        assert result.spectrum.n_distinct == 0


class TestRounds:
    def test_multi_round_same_counts(self, genome_reads, oracle17):
        cfg = PipelineConfig(k=17, n_rounds=4)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        result.validate_against(oracle17)

    def test_multi_round_supermers(self, genome_reads, oracle17):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, n_rounds=3)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        result.validate_against(oracle17)

    def test_rounds_add_exchange_overhead(self, genome_reads):
        one = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17, n_rounds=1))
        four = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17, n_rounds=4))
        assert four.timing.exchange > one.timing.exchange
        assert four.exchanged_items == one.exchanged_items


class TestGpuDirect:
    def test_skips_staging(self, genome_reads):
        staged = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17, gpudirect=False))
        direct = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17, gpudirect=True))
        assert staged.staging_seconds > 0
        assert direct.staging_seconds == 0
        assert direct.timing.exchange < staged.timing.exchange
        assert direct.alltoallv_seconds == pytest.approx(staged.alltoallv_seconds)


class TestAccounting:
    def test_kmer_mode_items_equal_kmers(self, genome_reads, oracle17):
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        assert result.exchanged_items == oracle17.n_total
        assert result.exchanged_bytes == oracle17.n_total * 8

    def test_supermer_mode_ships_fewer_items(self, genome_reads, oracle17):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        assert result.exchanged_items < oracle17.n_total / 2
        assert result.exchanged_bytes == result.exchanged_items * 9
        assert result.mean_supermer_length > 17

    def test_received_sum_is_total(self, genome_reads, oracle17):
        result = run_pipeline(genome_reads, summit_gpu(3), PipelineConfig(k=17))
        assert int(result.received_kmers.sum()) == oracle17.n_total

    def test_counts_matrix_consistent(self, genome_reads):
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        assert int(result.counts_matrix.sum()) == result.exchanged_items
        assert np.array_equal(result.counts_matrix.sum(axis=0), result.received_kmers)

    def test_traffic_recorded(self, genome_reads):
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        assert result.traffic.n_collectives >= 1
        assert result.traffic.total_items() == result.exchanged_items


class TestTimingModel:
    def test_phase_times_are_rank_maxima(self, genome_reads):
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        assert result.timing.parse == pytest.approx(result.per_rank_parse.max())
        assert result.timing.count == pytest.approx(result.per_rank_count.max())

    def test_supermer_parse_slower_count_slower(self, genome_reads):
        """Section V-C: supermer construction and extraction cost extra."""
        kmer = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        sup = run_pipeline(
            genome_reads, summit_gpu(2), PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        )
        assert sup.timing.parse > kmer.timing.parse
        assert sup.timing.count > kmer.timing.count

    def test_supermer_alltoallv_faster(self, genome_reads):
        kmer = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        sup = run_pipeline(
            genome_reads, summit_gpu(2), PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        )
        assert sup.alltoallv_seconds < kmer.alltoallv_seconds

    def test_work_multiplier_scales_compute(self, genome_reads):
        base = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
        scaled = run_pipeline(
            genome_reads, summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(work_multiplier=100.0)
        )
        # Launch overhead aside, compute should scale ~100x.
        assert scaled.timing.parse > 50 * base.timing.parse
        assert scaled.work_multiplier == 100.0
        assert scaled.total_kmers == base.total_kmers  # measured counts unscaled

    def test_cpu_slower_than_gpu(self, genome_reads):
        opts = EngineOptions(work_multiplier=1000.0)
        cpu = run_pipeline(genome_reads, summit_cpu(2), PipelineConfig(k=17), backend="cpu", options=opts)
        gpu = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17), backend="gpu", options=opts)
        assert cpu.timing.compute > 10 * gpu.timing.compute


class TestEngineOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(work_multiplier=0)

    def test_bad_backend(self, genome_reads):
        with pytest.raises(ValueError, match="backend"):
            run_pipeline(genome_reads, summit_gpu(1), PipelineConfig(k=17), backend="tpu")

    def test_balanced_assignment_integration(self, genome_reads, oracle17):
        from repro.ext.balanced import balanced_minimizer_assignment

        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        cluster = summit_gpu(2)
        assign = balanced_minimizer_assignment(genome_reads, 17, 7, cluster.n_ranks)
        hashp = run_pipeline(genome_reads, cluster, cfg)
        balanced = run_pipeline(genome_reads, cluster, cfg, options=EngineOptions(minimizer_assignment=assign))
        balanced.validate_against(oracle17)
        assert balanced.load_stats().imbalance <= hashp.load_stats().imbalance
