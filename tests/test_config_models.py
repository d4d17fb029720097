"""Tests for pipeline configuration and the CPU/GPU cost-model constants."""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig, paper_config
from repro.machines import CpuRates, GpuPipelineModel, power9_rates


class TestPipelineConfig:
    def test_defaults_match_paper(self):
        cfg = paper_config()
        assert cfg.k == 17 and cfg.effective_window == 15  # Section IV-C
        assert cfg.mode == "kmer"
        assert not cfg.canonical  # Fig. 4: "not cannonicalizing"

    def test_paper_supermer(self):
        cfg = paper_config(mode="supermer", minimizer_len=9)
        assert cfg.mode == "supermer" and cfg.minimizer_len == 9

    def test_default_window_maximal(self):
        cfg = PipelineConfig(k=17, mode="supermer", window=None)
        assert cfg.effective_window == 16

    def test_wire_bytes(self):
        # Section III-B1: 11-mer fits 32 bits; k=17 needs the 64-bit word.
        assert PipelineConfig(k=11, window=None).kmer_wire_bytes == 4
        assert PipelineConfig(k=17).kmer_wire_bytes == 8
        assert PipelineConfig(k=17).supermer_wire_bytes == 9  # word + length byte

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=1)
        with pytest.raises(ValueError):
            PipelineConfig(k=32)  # EMPTY-sentinel collision risk

    def test_supermer_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=17, mode="supermer", minimizer_len=17)
        with pytest.raises(ValueError):
            PipelineConfig(k=17, mode="supermer", minimizer_len=0)
        with pytest.raises(ValueError):
            PipelineConfig(k=17, mode="supermer", window=17)  # 33 bases
        with pytest.raises(ValueError):
            PipelineConfig(k=17, mode="supermer", window=0)

    def test_kmer_mode_window_not_checked(self):
        # window irrelevant in kmer mode even if it would overflow packing
        cfg = PipelineConfig(k=30, mode="kmer", window=15)
        assert cfg.mode == "kmer"

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="hyper")  # type: ignore[arg-type]

    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_rounds=0)

    def test_with_mode(self):
        cfg = paper_config().with_mode("supermer", minimizer_len=9)
        assert cfg.mode == "supermer" and cfg.minimizer_len == 9 and cfg.k == 17

    def test_describe(self):
        assert "k=17" in paper_config().describe()
        assert "m=7" in paper_config(mode="supermer").describe()


class TestCpuRates:
    def test_defaults_calibration(self):
        """Combined rate ~17k k-mers/s/core reproduces Fig. 3a's ~3,800 s."""
        r = power9_rates()
        combined = 1.0 / (1.0 / r.parse_rate + 1.0 / r.count_rate)
        t_full = 167e9 / (2688 * combined)
        assert 2500 < t_full < 5500

    def test_parse_time(self):
        r = CpuRates(parse_rate=1000, count_rate=1000)
        assert r.parse_time(2000) == pytest.approx(2.0)
        assert r.parse_time(2000, supermer_mode=True) == pytest.approx(2.0 * r.supermer_parse_factor)

    def test_count_time(self):
        r = CpuRates(parse_rate=1000, count_rate=500)
        assert r.count_time(1000) == pytest.approx(2.0)
        assert r.count_time(1000, supermer_mode=True) == pytest.approx(2.0 * r.supermer_count_factor)

    def test_supermer_factors_match_paper_band(self):
        """Section V-C: 27-33% parse increase, 23-27% count increase."""
        r = power9_rates()
        assert 1.25 <= r.supermer_parse_factor <= 1.35
        assert 1.20 <= r.supermer_count_factor <= 1.30

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuRates(parse_rate=0)
        with pytest.raises(ValueError):
            CpuRates(supermer_parse_factor=0.9)
        with pytest.raises(ValueError):
            CpuRates(phase_overhead=-1)
        with pytest.raises(ValueError):
            CpuRates().parse_time(-1)
        with pytest.raises(ValueError):
            CpuRates().count_time(-1)


class TestGpuPipelineModel:
    def test_supermer_overhead_band(self):
        """The calibrated op counts encode the paper's phase overheads."""
        m = GpuPipelineModel()
        parse_factor = m.ops_parse_supermer / m.ops_parse_kmer
        count_factor = (m.ops_count_kmer + m.ops_extract_kmer) / m.ops_count_kmer
        assert 1.25 <= parse_factor <= 1.35  # Section V-C: ~27-33%
        assert 1.20 <= count_factor <= 1.30  # Section V-C: ~23-27%

    def test_calibrated_per_gpu_rate(self):
        """~12 ns/k-mer at op_rate 1e11 -> ~85M k-mers/s/GPU (Fig. 3b)."""
        from repro.machines import v100

        m = GpuPipelineModel()
        rate = v100().op_rate / m.ops_parse_kmer
        assert 5e7 < rate < 2e8

    def test_validation(self):
        with pytest.raises(ValueError):
            GpuPipelineModel(ops_parse_kmer=0)
        with pytest.raises(ValueError):
            GpuPipelineModel(ops_parse_supermer=100, ops_parse_kmer=200)
        with pytest.raises(ValueError):
            GpuPipelineModel(exchange_overhead_s=-1)
        with pytest.raises(ValueError):
            GpuPipelineModel(bytes_per_probe=0)
