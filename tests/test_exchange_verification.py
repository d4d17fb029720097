"""Failure-injection tests for the exchange integrity checks."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.stages.spill as spill_mod
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.mpi import collectives
from repro.mpi.topology import summit_gpu


class TestChecksumVerification:
    def test_clean_run_passes(self, genome_reads):
        result = run_pipeline(
            genome_reads, summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(verify_exchange=True)
        )
        assert result.total_kmers > 0

    def test_corrupted_payload_detected(self, genome_reads, monkeypatch):
        """Flip one key in flight: the checksum must catch it."""
        original = collectives.alltoallv_segments

        def corrupting_fixed(send_data, send_counts, **kwargs):
            recv, matrix = original(send_data, send_counts, **kwargs)
            out = []
            flipped = False
            for buf in recv:
                if not flipped and buf.size and buf.dtype == np.uint64:
                    buf = buf.copy()
                    buf[0] ^= np.uint64(1)
                    flipped = True
                out.append(buf)
            return out, matrix

        monkeypatch.setattr(spill_mod, "alltoallv_segments", corrupting_fixed)
        with pytest.raises(AssertionError, match="checksum"):
            run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))

    def test_dropped_items_detected(self, genome_reads, monkeypatch):
        """Silently dropping a buffer's tail must be caught by item counts."""
        original = collectives.alltoallv_segments

        def dropping(send_data, send_counts, **kwargs):
            recv, matrix = original(send_data, send_counts, **kwargs)
            out = []
            dropped = False
            for buf in recv:
                if not dropped and buf.size > 1:
                    buf = buf[:-1]
                    dropped = True
                out.append(buf)
            return out, matrix

        monkeypatch.setattr(spill_mod, "alltoallv_segments", dropping)
        with pytest.raises(AssertionError, match="lost items"):
            run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))

    def test_verification_can_be_disabled(self, genome_reads, monkeypatch):
        """With verify_exchange=False the corruption flows through to the
        final histogram (and would fail oracle validation instead)."""
        original = collectives.alltoallv_segments

        def corrupting(send_data, send_counts, **kwargs):
            recv, matrix = original(send_data, send_counts, **kwargs)
            out = []
            flipped = False
            for buf in recv:
                if not flipped and buf.size and buf.dtype == np.uint64:
                    buf = buf.copy()
                    buf[0] ^= np.uint64(1)
                    flipped = True
                out.append(buf)
            return out, matrix

        monkeypatch.setattr(spill_mod, "alltoallv_segments", corrupting)
        result = run_pipeline(
            genome_reads,
            summit_gpu(2),
            PipelineConfig(k=17),
            options=EngineOptions(verify_exchange=False),
        )
        from repro.kmers.spectrum import count_kmers_exact

        oracle = count_kmers_exact(genome_reads, 17)
        with pytest.raises(AssertionError):
            result.validate_against(oracle)

    def test_supermer_mode_also_verified(self, genome_reads):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg, options=EngineOptions(verify_exchange=True))
        assert result.total_kmers > 0
