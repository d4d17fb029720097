"""Tests for GPU execution-geometry analysis (warps, blocks, occupancy)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.reads import ReadSet
from repro.gpu.blocks import (
    analyze_thread_mapping,
    block_imbalance_factor,
    per_thread_work,
    tail_efficiency,
    warp_divergence_factor,
)
from repro.machines import v100

work_lists = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300)


class TestWarpDivergence:
    def test_uniform_work_no_divergence(self):
        assert warp_divergence_factor(np.full(64, 5.0)) == pytest.approx(1.0)

    def test_single_hot_lane(self):
        """31 idle lanes riding along with 1 busy lane -> factor 32."""
        work = np.zeros(32)
        work[0] = 100
        assert warp_divergence_factor(work) == pytest.approx(32.0)

    def test_empty(self):
        assert warp_divergence_factor(np.zeros(0)) == 1.0
        assert warp_divergence_factor(np.zeros(10)) == 1.0

    @given(work=work_lists)
    @settings(max_examples=60)
    def test_factor_at_least_one(self, work):
        assert warp_divergence_factor(np.array(work, dtype=float)) >= 1.0 - 1e-12

    @given(work=work_lists)
    @settings(max_examples=60)
    def test_factor_bounded_by_warp_size(self, work):
        arr = np.array(work, dtype=float)
        assert warp_divergence_factor(arr, warp_size=8) <= 8.0 + 1e-9

    def test_warp_size_validation(self):
        with pytest.raises(ValueError):
            warp_divergence_factor(np.ones(4), warp_size=0)


class TestBlockImbalance:
    def test_uniform(self):
        assert block_imbalance_factor(np.full(512, 3.0)) == pytest.approx(1.0)

    def test_one_slow_block(self):
        # One warp much slower than the rest inflates its block's retire time.
        work = np.full(512, 1.0)
        work[0] = 50
        assert block_imbalance_factor(work, block_size=256) > 1.0

    @given(work=work_lists)
    @settings(max_examples=40)
    def test_at_least_one(self, work):
        assert block_imbalance_factor(np.array(work, dtype=float)) >= 1.0 - 1e-9


class TestTailEfficiency:
    def test_exact_fill(self):
        dev = v100()
        assert tail_efficiency(dev.n_sms * 4, dev) == pytest.approx(1.0)

    def test_single_block(self):
        dev = v100()
        assert tail_efficiency(1, dev) == pytest.approx(1 / (dev.n_sms * 4))

    def test_partial_last_wave(self):
        dev = v100()
        slots = dev.n_sms * 4
        eff = tail_efficiency(slots + 1, dev)
        assert eff == pytest.approx((slots + 1) / (2 * slots))

    def test_zero_blocks(self):
        assert tail_efficiency(0, v100()) == 1.0


class TestPerThreadWork:
    @pytest.fixture
    def reads(self):
        return ReadSet.from_strings(["A" * 50, "C" * 20, "G" * 17, "T" * 5])

    def test_base_mapping(self, reads):
        work = per_thread_work(reads, 17, "base")
        assert work.shape[0] == reads.kmer_count(17)
        assert (work == 1).all()

    def test_read_mapping(self, reads):
        work = per_thread_work(reads, 17, "read")
        assert work.tolist() == [34, 4, 1, 0]

    def test_window_mapping(self, reads):
        work = per_thread_work(reads, 17, "window", window=15)
        # read 1: 34 windows -> 15+15+4; read 2: 4; read 3: 1
        assert sorted(work.tolist(), reverse=True) == [15, 15, 4, 4, 1]

    def test_total_work_conserved(self, genome_reads):
        totals = {m: per_thread_work(genome_reads, 17, m).sum() for m in ("base", "read", "window")}
        assert len({int(t) for t in totals.values()}) == 1

    def test_unknown_mapping(self, reads):
        with pytest.raises(ValueError, match="unknown mapping"):
            per_thread_work(reads, 17, "hyperthread")


class TestAnalysis:
    def test_paper_claim_on_long_reads(self, genome_reads):
        """Sec. III-B1: base mapping beats read mapping on long reads."""
        base = analyze_thread_mapping(genome_reads, 17, "base", v100())
        read = analyze_thread_mapping(genome_reads, 17, "read", v100())
        assert base.effective_cost_factor < read.effective_cost_factor

    def test_cost_factor_composition(self, genome_reads):
        a = analyze_thread_mapping(genome_reads, 17, "window", v100())
        expected = a.warp_divergence * a.block_imbalance / a.tail_efficiency
        assert a.effective_cost_factor == pytest.approx(expected)
