"""Failure-injection tests for the exchange integrity checks.

Every exchange gathers its receive side out of the round's send array: in
memory through ``alltoallv_flat``, on disk block by block into the spool
(``SpillSpool.append_partitions``).  Each fault is injected at that point
of both residencies, in k-mer and supermer mode, and must surface as the
exchange's own error naming the round's label — or, with verification off,
as a wrong spectrum.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.stages.spill as spill_mod
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu

RESIDENCIES = ("resident", "spooled")
MODES = ("kmer", "supermer")


def _config(mode: str) -> PipelineConfig:
    if mode == "kmer":
        return PipelineConfig(k=17)
    return PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)


def _run(reads, residency: str, mode: str, tmp_path, **options):
    spill_dir = tmp_path / f"spool-{mode}" if residency == "spooled" else None
    return run_pipeline(reads, summit_gpu(2), _config(mode), options=EngineOptions(spill_dir=spill_dir, **options))


@contextmanager
def _in_flight(residency: str, fault, *, lengths: bool = False):
    """Apply ``fault`` to the first non-empty received payload (``lengths``: length bytes) of the run.

    Resident, to ``alltoallv_flat``'s receive array; spooled, to the first
    block the spool appends.  ``fault`` gets a private copy.
    """
    dtype = np.uint8 if lengths else np.uint64
    done = []
    with pytest.MonkeyPatch.context() as patch:
        if residency == "resident":
            original = spill_mod.alltoallv_flat

            def faulty_gather(data, counts, **kwargs):
                recv, offsets = original(data, counts, **kwargs)
                if not done and recv.size and recv.dtype == dtype:
                    recv = fault(recv.copy())
                    done.append(1)
                return recv, offsets

            patch.setattr(spill_mod, "alltoallv_flat", faulty_gather)
        else:
            original = spill_mod.SpillSpool.append_partitions

            def faulty_append(self, label, rank0, counts, data, *, lens=False):
                if not done and data.size and lens == lengths:
                    data = fault(data.copy())
                    done.append(1)
                return original(self, label, rank0, counts, data, lens=lens)

            patch.setattr(spill_mod.SpillSpool, "append_partitions", faulty_append)
        yield
    assert done, "the fault was never injected"


def _flip_key(buf: np.ndarray) -> np.ndarray:
    buf[0] ^= np.uint64(1)
    return buf


def _drop_tail(buf: np.ndarray) -> np.ndarray:
    return buf[:-1]


def _decrement_length(buf: np.ndarray) -> np.ndarray:
    i = int(np.flatnonzero(buf > 1)[0])  # a supermer of two or more k-mers keeps a valid length
    buf[i] -= 1
    return buf


class TestChecksumVerification:
    def test_clean_run_passes(self, genome_reads):
        result = run_pipeline(
            genome_reads, summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(verify_exchange=True)
        )
        assert result.total_kmers > 0

    def test_corrupted_payload_detected(self, genome_reads, tmp_path):
        """Flip one key in flight: the checksum must catch it, naming the round."""
        for residency in RESIDENCIES:
            for mode in MODES:
                with _in_flight(residency, _flip_key):
                    with pytest.raises(AssertionError, match=f"'{mode}-exchange' corrupted payload.*checksum"):
                        _run(genome_reads, residency, mode, tmp_path)

    def test_dropped_items_detected(self, genome_reads, tmp_path):
        """Silently dropping a buffer's tail must be caught by item counts."""
        for residency in RESIDENCIES:
            for mode in MODES:
                with _in_flight(residency, _drop_tail):
                    with pytest.raises(AssertionError, match=f"'{mode}-exchange' lost items"):
                        _run(genome_reads, residency, mode, tmp_path)

    def test_verification_can_be_disabled(self, genome_reads, tmp_path):
        """With verify_exchange=False the corruption flows through to the
        final histogram (and would fail oracle validation instead)."""
        oracle = count_kmers_exact(genome_reads, 17)
        for residency in RESIDENCIES:
            for mode in MODES:
                with _in_flight(residency, _flip_key):
                    result = _run(genome_reads, residency, mode, tmp_path, verify_exchange=False)
                with pytest.raises(AssertionError):
                    result.validate_against(oracle)

    @pytest.mark.parametrize("residency", RESIDENCIES)
    def test_corrupted_length_byte_detected(self, genome_reads, tmp_path, residency):
        """A wrong supermer length unpacks the wrong k-mers: the checksum covers the length bytes too.

        Without it the default composition failed only at the end (``pipeline
        lost k-mers``), and a composition that does not conserve k-mers
        (``bloom``) finished silently with a wrong spectrum.
        """
        for stages in ((), ("bloom",)):
            with _in_flight(residency, _decrement_length, lengths=True):
                with pytest.raises(AssertionError, match="'supermer-exchange' corrupted length bytes.*checksum"):
                    _run(genome_reads, residency, "supermer", tmp_path, stages=stages)

    def test_supermer_mode_also_verified(self, genome_reads):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg, options=EngineOptions(verify_exchange=True))
        assert result.total_kmers > 0
