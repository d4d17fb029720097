"""Cross-engine validation: the SPMD rank program vs the BSP engine vs oracle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.spmd import count_spmd, staged_rank_program
from repro.core.stages.registry import build_composition
from repro.core.stages.standard import TableCount
from repro.dna.reads import ReadSet, ShardRanges
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi.comm import run_spmd
from repro.mpi.topology import ClusterSpec, summit_gpu


@pytest.fixture(scope="module")
def oracle(genome_reads):
    return count_kmers_exact(genome_reads, 17)


class TestSpmdPrograms:
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_matches_oracle(self, genome_reads, oracle, mode):
        cfg = PipelineConfig(k=17, mode=mode, minimizer_len=7, window=15)
        spectrum = count_spmd(genome_reads, n_ranks=6, config=cfg)
        assert spectrum.equals(oracle)

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_matches_bsp_engine(self, genome_reads, mode):
        """The concurrent SPMD world and the sequential BSP engine are two
        executions of the same algorithm — spectra must be identical."""
        cfg = PipelineConfig(k=17, mode=mode, minimizer_len=7, window=15)
        spmd_spectrum = count_spmd(genome_reads, n_ranks=12, config=cfg)
        engine_result = run_pipeline(genome_reads, summit_gpu(2), cfg)
        assert spmd_spectrum.equals(engine_result.spectrum)

    def test_canonical_mode(self, genome_reads):
        cfg = PipelineConfig(k=17, canonical=True)
        spectrum = count_spmd(genome_reads, n_ranks=4, config=cfg)
        assert spectrum.equals(count_kmers_exact(genome_reads, 17, canonical=True))

    def test_single_rank(self, genome_reads, oracle):
        assert count_spmd(genome_reads, n_ranks=1).equals(oracle)

    def test_non_root_ranks_return_none(self, genome_reads):
        cfg = PipelineConfig(k=17, mode="kmer")
        ranges = ShardRanges.of(genome_reads, 3, 16)
        results = run_spmd(3, staged_rank_program, [ranges] * 3, [cfg] * 3)
        assert results[0] is not None
        assert results[1] is None and results[2] is None

    def test_supermer_program_directly(self, genome_reads, oracle):
        cfg = PipelineConfig(k=17, mode="supermer", minimizer_len=9, window=15)
        ranges = ShardRanges.of(genome_reads, 4, 16)
        results = run_spmd(4, staged_rank_program, [ranges] * 4, [cfg] * 4)
        assert results[0].equals(oracle)

    def test_invalid_ranks(self, genome_reads):
        with pytest.raises(ValueError):
            count_spmd(genome_reads, n_ranks=0)

    def test_empty_input(self):
        spectrum = count_spmd(ReadSet.empty(), n_ranks=3)
        assert spectrum.n_distinct == 0


def _cluster(p: int) -> ClusterSpec:
    return ClusterSpec(f"spmd-test-{p}r", n_nodes=1, ranks_per_node=p)


class _StrayOwner:
    """The paper's partition, except that the first item it routes goes to rank P, outside the run."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.lock = threading.Lock()
        self.strayed = False

    def owners(self, route_keys, n_ranks, config):
        owners = self.inner.owners(route_keys, n_ranks, config)
        with self.lock:
            if owners.size and not self.strayed:
                owners[0], self.strayed = n_ranks, True
        return owners


class TestCompositions:
    @pytest.mark.parametrize("p", [1, 4, 12])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_owner_outside_the_run_raises(self, genome_reads, mode, p):
        """An owner past the last rank is the BSP's error, never a silently shorter spectrum."""
        cfg = PipelineConfig(k=17, mode=mode, minimizer_len=7, window=15)
        comp = build_composition("gpu", cfg, EngineOptions())
        comp.partition = _StrayOwner(comp.partition)
        ranges = ShardRanges.of(genome_reads, p, cfg.k - 1)
        message = f"partition stage _StrayOwner assigned rank {p}, outside the {p} ranks of the run"
        with pytest.raises(ValueError, match=message):
            run_spmd(p, staged_rank_program, [ranges] * p, [cfg] * p, [comp] * p)

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_bloom_composition_matches_bsp(self, genome_reads, mode):
        p = 5
        cfg = PipelineConfig(k=17, mode=mode, minimizer_len=7, window=15)
        opts = EngineOptions(stages=("bloom",), parallel=1)
        bsp = run_pipeline(genome_reads, _cluster(p), cfg, options=opts)
        comp = build_composition("gpu", cfg, opts)
        for plugin in comp.plugins:  # the one-time pre-pass the scheduler runs
            plugin.prepare(genome_reads, cfg, _cluster(p), opts)
        ranges = ShardRanges.of(genome_reads, p, cfg.k - 1)
        spectrum = run_spmd(p, staged_rank_program, [ranges] * p, [cfg] * p, [comp] * p)[0]
        assert spectrum.n_distinct < count_kmers_exact(genome_reads, 17).n_distinct
        assert spectrum.equals(bsp.spectrum)


def _record_count_blocks(monkeypatch) -> dict:
    """Wrap ``TableCount.count_block``: every rank's slot region and InsertStats after its count."""
    seen: dict[int, tuple[np.ndarray, np.ndarray, object]] = {}
    count_block = TableCount.count_block

    def recording(self, table, recv, lengths, recv_offsets, ctx, *, rank0):
        out = count_block(self, table, recv, lengths, recv_offsets, ctx, rank0=rank0)
        for i, ins in enumerate(out[2]):
            keys, counts = table.slots_of(i)
            seen[rank0 + i] = (keys.copy(), counts.copy(), ins)
        return out

    monkeypatch.setattr(TableCount, "count_block", recording)
    return seen


class TestRankByRank:
    @pytest.mark.parametrize("p", [1, 5, 12, 48])
    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    def test_slots_and_insert_stats_equal_bsp(self, genome_reads, monkeypatch, mode, canonical, p):
        """The renderings run one parse body and one count body: every rank's table is the same."""
        cfg = PipelineConfig(k=17, mode=mode, canonical=canonical, minimizer_len=7, window=15, n_rounds=1)
        seen = _record_count_blocks(monkeypatch)
        run_pipeline(genome_reads, _cluster(p), cfg, options=EngineOptions(parallel=1))
        bsp = dict(seen)
        seen.clear()
        count_spmd(genome_reads, p, cfg)
        assert sorted(seen) == sorted(bsp) == list(range(p))
        for rank in range(p):
            keys, counts, ins = seen[rank]
            bsp_keys, bsp_counts, bsp_ins = bsp[rank]
            assert np.array_equal(keys, bsp_keys), rank
            assert np.array_equal(counts, bsp_counts), rank
            assert ins == bsp_ins, rank
