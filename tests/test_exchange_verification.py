"""Failure-injection tests for the exchange integrity checks.

No exchange copies the send array into a receive array: a resident count
gathers each table block's extent of a round straight out of it
(``spill._gather``), a spooled exchange gathers each destination block
into the spool and the count reads a block's extent back
(``SpillSpool.read_range``).  The checksum covers what the count is
handed — each block's ``(items, XOR)`` of each round it reads, folded
over the whole drive and compared once with the send array's digest
after the count — so each fault is injected at that hand-over, in both
residencies and both modes, and must surface as the exchange's own error
naming the drive's stem (``'kmer-exchange'``, ``'supermer-batch0'``),
whichever round it hit.  A spool file changed on disk between the
exchange and the count is such a fault too, on the one-shot and on the
streamed surface alike, and so is a read that lost its second array.
A streamed batch that fails these checks has already counted into the
counter's tables, so the counter refuses further use until a checkpoint
loads.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.stages.spill as spill_mod
from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.dna.datasets import load_dataset
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.topology import summit_gpu

RESIDENCIES = ("resident", "spooled")
MODES = ("kmer", "supermer")


def _config(mode: str) -> PipelineConfig:
    if mode == "kmer":
        return PipelineConfig(k=17)
    return PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)


def _run(reads, residency: str, mode: str, tmp_path, nodes: int = 2, n_rounds: int = 1, **options):
    spill_dir = tmp_path / f"spool-{mode}" if residency == "spooled" else None
    config = dataclasses.replace(_config(mode), n_rounds=n_rounds)
    options = EngineOptions(spill_dir=spill_dir, **options)
    return run_pipeline(reads, summit_gpu(nodes), config, options=options)


@contextmanager
def _in_flight(residency: str, fault, *, lengths: bool = False):
    """Apply ``fault`` to what rank 0's count block reads of the payload (``lengths``: of its second array).

    Resident, to that block's gather out of the send array; spooled, to its
    read back from the segment file.  ``fault`` gets a private copy.  The
    block is chosen by its ranks, not by call order, so exactly one block
    is hit on every substrate — a forked worker's call count never reaches
    the parent, and two flipped blocks would cancel in the XOR.
    """
    hit = 1 if lengths else 0  # the gather's outputs: the payload, then its second array
    with pytest.MonkeyPatch.context() as patch:
        if residency == "resident":
            original = spill_mod._gather

            def faulty_gather(round_, blk, take=np.empty):
                outs = original(round_, blk, take)
                if blk.d0 == 0 and round_.rnd == 0:
                    outs = [fault(out.copy()) if i == hit else out for i, out in enumerate(outs)]
                return outs

            patch.setattr(spill_mod, "_gather", faulty_gather)
        else:
            original = spill_mod.SpillSpool.read_range

            def faulty_read(self, label, r0, r1, dtype_, *, lens=False, out=None):
                data = original(self, label, r0, r1, dtype_, lens=lens, out=out)
                return fault(data.copy()) if r0 == 0 and lens == lengths else data

            patch.setattr(spill_mod.SpillSpool, "read_range", faulty_read)
        yield


@contextmanager
def _flipped_on_disk(suffix: str, rounds: str = ""):
    """After every spooled exchange whose label ends in ``rounds`` returns, flip one bit of its ``<label><suffix>`` file.

    The payload's byte 0 flips its lowest bit; a length byte is flipped
    only where the result is still a valid length (an odd length of three
    or more becomes one less; a k = 17 high byte of 3 becomes 2, still a
    17-mer's), so the count runs and only the checksum can tell.  Rounds
    are chosen by label (``"-round1"``): the same flip in two rounds of
    one drive would cancel in its XOR.
    """
    with pytest.MonkeyPatch.context() as patch:
        original = spill_mod.Spooled.exchange

        def exchange_then_flip(self, round_, label, *args):
            outcome = original(self, round_, label, *args)
            if not label.endswith(rounds):
                return outcome
            path = self.spool.dir / f"{label}{suffix}"
            raw = bytearray(path.read_bytes())
            i = 0 if suffix == ".data" else next(i for i, b in enumerate(raw) if b >= 3 and b % 2)
            raw[i] ^= 1
            path.write_bytes(bytes(raw))
            return outcome

        patch.setattr(spill_mod.Spooled, "exchange", exchange_then_flip)
        yield


def _flip_key(buf: np.ndarray) -> np.ndarray:
    buf[0] ^= 1
    return buf


def _drop_tail(buf: np.ndarray) -> np.ndarray:
    return buf[:-1]


def _decrement_length(buf: np.ndarray) -> np.ndarray:
    i = int(np.flatnonzero(buf > 1)[0])  # a supermer of two or more k-mers keeps a valid length
    buf[i] -= 1
    return buf


class TestChecksumVerification:
    def test_clean_run_passes(self, genome_reads):
        result = run_pipeline(genome_reads, summit_gpu(2), PipelineConfig(k=17))
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

    @pytest.mark.parametrize("residency", RESIDENCIES)
    def test_corrupted_high_byte_detected(self, genome_reads, tmp_path, residency):
        """At k = 17 a k-mer's high bits ride in a second array: a flipped high byte is a wrong key, and is caught."""
        with _in_flight(residency, _flip_key, lengths=True):
            with pytest.raises(AssertionError, match="'kmer-exchange' corrupted high bytes.*checksum"):
                _run(genome_reads, residency, "kmer", tmp_path)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("residency", RESIDENCIES)
    def test_dropped_second_array_detected(self, genome_reads, tmp_path, monkeypatch, residency, mode):
        """A read that loses its second array is refused by the array count, not checked on the payload alone.

        At k = 17 a k-mer read without its high bytes counts wrong keys while
        the payload's digest and the k-mer conservation check both pass; a
        supermer read without its length bytes cannot be unpacked.  The
        digest of such a read has one array fewer than the send side's.
        """
        cls = spill_mod.Spooled if residency == "spooled" else spill_mod.Resident
        original = cls._read

        def payload_only(self, rec, r0, r1, sctx):
            recv, _ = original(self, rec, r0, r1, sctx)
            return recv, None

        monkeypatch.setattr(cls, "_read", payload_only)
        second = "length bytes" if mode == "supermer" else "high bytes"
        with pytest.raises(AssertionError, match=f"'{mode}-exchange' lost {second}"):
            _run(genome_reads, residency, mode, tmp_path, nodes=1, n_rounds=2)

    def test_rounds_read_twice_detected(self, genome_reads, tmp_path, monkeypatch):
        """A two-round resident drive whose every read returns round 0's extent is caught once, naming the drive."""
        original = spill_mod.Resident._read

        def first_round(self, rec, r0, r1, sctx):
            return original(self, self.rounds[0], r0, r1, sctx)

        monkeypatch.setattr(spill_mod.Resident, "_read", first_round)
        with pytest.raises(AssertionError, match="'kmer-exchange' lost items"):
            _run(genome_reads, "resident", "kmer", tmp_path, n_rounds=2)

    def test_supermer_mode_also_verified(self, genome_reads):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=7, window=15)
        result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        assert result.total_kmers > 0


class TestSpoolFileCorruption:
    """A spool file changed between the exchange and the count is caught by the count's checksum."""

    @pytest.fixture(scope="class")
    def ecoli_reads(self):
        return load_dataset("ecoli30x", scale=0.05)

    def test_segment_file_flip_after_the_exchange(self, ecoli_reads, tmp_path):
        options = EngineOptions(spill_dir=tmp_path)
        with _flipped_on_disk(".data"):
            with pytest.raises(AssertionError, match="'kmer-exchange' corrupted payload.*checksum"):
                run_pipeline(ecoli_reads, summit_gpu(2), PipelineConfig(k=17), options=options)
        assert list(tmp_path.iterdir()) == []  # the failed drive's spool is reclaimed

    def test_second_round_segment_file_flip(self, ecoli_reads, tmp_path):
        """A two-round drive is checked once, over every round: a flip in round 1's file names the drive, not the round."""
        options = EngineOptions(spill_dir=tmp_path)
        with _flipped_on_disk(".data", rounds="-round1"):
            with pytest.raises(AssertionError, match="'kmer-exchange' corrupted payload.*checksum"):
                run_pipeline(ecoli_reads, summit_gpu(2), PipelineConfig(k=17, n_rounds=2), options=options)
        assert list(tmp_path.iterdir()) == []

    def test_length_file_flip_after_the_exchange(self, ecoli_reads, tmp_path):
        options = EngineOptions(spill_dir=tmp_path)
        with _flipped_on_disk(".lens"):
            with pytest.raises(AssertionError, match="'supermer-exchange' corrupted length bytes.*checksum"):
                run_pipeline(ecoli_reads, summit_gpu(2), _config("supermer"), options=options)

    def test_high_byte_file_flip_after_the_exchange(self, ecoli_reads, tmp_path):
        """A k = 17 spool keeps its k-mers' high bytes in the ``.lens`` twin, and the count's reads cover it."""
        options = EngineOptions(spill_dir=tmp_path)
        with _flipped_on_disk(".lens"):
            with pytest.raises(AssertionError, match="'kmer-exchange' corrupted high bytes.*checksum"):
                run_pipeline(ecoli_reads, summit_gpu(2), PipelineConfig(k=17), options=options)
        assert list(tmp_path.iterdir()) == []

    def test_streamed_batch_segment_file_flip(self, ecoli_reads, tmp_path):
        """Batches are checked like one-shot runs: the streamed surface checks the same reads."""
        counter = DistributedCounter(
            summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(spill_dir=tmp_path)
        )
        with _flipped_on_disk(".data"):
            with pytest.raises(AssertionError, match="'kmer-batch0' corrupted payload.*checksum"):
                counter.add_reads(ecoli_reads)

    def test_failed_batch_poisons_the_counter(self, ecoli_reads, tmp_path):
        """A batch that fails after its count began leaves the counter refusing, until a checkpoint loads.

        Its counts are already in the tables, so a further batch, a
        spectrum or a save would carry them on as if they were good.
        """
        ckpt = tmp_path / "ckpt"
        counter = DistributedCounter(
            summit_gpu(2), PipelineConfig(k=17), options=EngineOptions(spill_dir=tmp_path / "spool")
        )
        counter.add_reads(ecoli_reads)
        counter.save(ckpt)
        saved = ckpt.read_bytes()
        with _flipped_on_disk(".data"):
            with pytest.raises(AssertionError, match="'kmer-batch1' corrupted payload"):
                counter.add_reads(ecoli_reads)
        for call in (lambda: counter.add_reads(ecoli_reads), counter.spectrum, lambda: counter.save(ckpt)):
            with pytest.raises(RuntimeError, match="'kmer-batch1' failed part-way.*corrupted payload"):
                call()
        assert ckpt.read_bytes() == saved
        counter.load(ckpt)
        counter.add_reads(ecoli_reads)
        assert counter.spectrum().n_total == 2 * count_kmers_exact(ecoli_reads, 17).n_total

    def test_cli_checkpoint_keeps_the_last_good_batch(self, tmp_path, capsys):
        """``repro count --checkpoint`` fails on its second input and keeps the first.

        Resuming over the second input then counts each input once, as one
        uninterrupted run does.
        """
        inputs = []
        for seed in ("1", "2"):
            inputs.append(str(tmp_path / f"reads{seed}.fastq"))
            simulate = ["simulate", "--genome-length", "8000", "--coverage", "4", "--seed", seed]
            assert main([*simulate, "--out", inputs[-1]]) == 0
        count = ["count", "-k", "17", "--mode", "kmer", "--nodes", "1", "--spill", str(tmp_path / "spool")]
        ckpt = str(tmp_path / "ckpt")
        with _flipped_on_disk(".data", rounds="batch1"):
            with pytest.raises(AssertionError, match="'kmer-batch1' corrupted payload"):
                main([*count, "--input", *inputs, "--checkpoint", ckpt])
        resumed, whole = tmp_path / "resumed.tsv", tmp_path / "whole.tsv"
        assert main([*count, "--input", inputs[1], "--checkpoint", ckpt, "--out-tsv", str(resumed)]) == 0
        assert f"resumed from {ckpt}: 1 batches" in capsys.readouterr().out
        assert main([*count, "--input", *inputs, "--out-tsv", str(whole)]) == 0
        assert resumed.read_bytes() == whole.read_bytes()

    def test_refusal_before_the_count_does_not_poison(self, ecoli_reads, tmp_path):
        """A batch refused before it writes into the state (here the budget floor) leaves the counter usable."""
        options = EngineOptions(host_memory_budget=16)
        counter = DistributedCounter(summit_gpu(2), PipelineConfig(k=17), options=options)
        with pytest.raises(ValueError, match="below the working-set floor"):
            counter.add_reads(ecoli_reads)
        assert counter.spectrum().n_total == 0
        counter.save(tmp_path / "ckpt")
