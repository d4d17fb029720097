"""The parse in blocks of whole shards, and the one switch ``fused`` still makes.

Every strategy parses blocks of whole shards into one send array
(``repro.core.stages.scheduler.Layout``).  Degenerate inputs go through
that parse on every strategy, mode and strand setting, with the block
constant at its extremes: the spectrum must be the oracle's, and every
observable — per-rank parse seconds and parsed k-mers included — must
equal the run of a custom parse stage, which parses shard by shard
through the substrate's ``parse_rank``.  Then the one difference
``fused=True`` makes, under both residencies: the exchange gathers
straight out of the send array, never through per-source buffers.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.core.stages.standard as standard
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.parallel import get_pool
from repro.core.stages import registry, scheduler
from repro.core.stages.standard import KmerParse, SupermerParse
from repro.dna.reads import ReadSet
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi import collectives
from repro.mpi.topology import summit_gpu

from .golden_cases import golden_reads, summarize_result

pytestmark = pytest.mark.engines

STRATEGIES = ("staged", "fused", "spill", "fused-spill")


def _options(strategy: str, tmp_path, **kw) -> EngineOptions:
    return EngineOptions(
        fused="fused" in strategy,
        spill_dir=tmp_path / f"spool-{strategy}" if "spill" in strategy else None,
        **kw,
    )


def _degenerate_reads() -> ReadSet:
    """Reads shorter than k, all-N, empty and one base, beside a few ordinary ones."""
    rng = np.random.default_rng(26)

    def dna(n: int) -> str:
        return "".join("ACGT"[i] for i in rng.integers(0, 4, size=n))

    return ReadSet.from_strings(
        [
            "ACGTACGTAC",  # shorter than every k here
            "N" * 50,  # all N
            dna(300),
            "",  # empty
            dna(60) + "N" + dna(80),  # an N splits its windows
            dna(31),  # exactly k = 31
            "A",
            "NNNNACGTN" * 5,
        ]
    )


class _ShardByShard:
    """A custom parse stage: a class the parse blocks do not know, with the standard behaviour."""

    calls: list[int] = []

    def extract(self, shard, config):
        self.calls.append(1)
        return super().extract(shard, config)


@pytest.fixture
def shard_by_shard(monkeypatch):
    """Backend ``shardwise`` — the gpu backend with a custom parse stage — and its ``extract`` calls."""
    custom = {
        base: type(f"ShardByShard{base.__name__}", (_ShardByShard, base), {})
        for base in (KmerParse, SupermerParse)
    }
    _ShardByShard.calls = calls = []
    for mode in ("kmer", "supermer"):

        def factory(config, opts, mode=mode):
            comp = registry.resolve(f"gpu:{mode}", config, opts)
            return dataclasses.replace(comp, key=f"shardwise:{mode}", parse=custom[type(comp.parse)]())

        monkeypatch.setitem(registry._BACKENDS, f"shardwise:{mode}", factory)
    return calls


def _parsed(monkeypatch) -> list[np.ndarray]:
    """Every drive's per-rank parsed k-mers, recorded off the layout's parse."""
    seen: list[np.ndarray] = []
    real = scheduler.Layout.parse

    def recording(self, shards, sctx):
        send, summary = real(self, shards, sctx)
        seen.append(summary.n_kmers.copy())
        return send, summary

    monkeypatch.setattr(scheduler.Layout, "parse", recording)
    return seen


@pytest.mark.parametrize("k", [17, 31])
@pytest.mark.parametrize("canonical", [False, True], ids=["forward", "canonical"])
@pytest.mark.parametrize("mode", ["kmer", "supermer"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_degenerate_inputs_through_the_block_parse(
    strategy, mode, canonical, k, tmp_path, monkeypatch, shard_by_shard
):
    reads = _degenerate_reads()
    config = PipelineConfig(k=k, mode=mode, canonical=canonical, window=None)
    oracle = count_kmers_exact(reads, k, canonical=canonical)
    cluster = summit_gpu(2)  # 12 ranks: more than the reads, and byte shards shorter than k
    parsed = _parsed(monkeypatch)
    for shard_mode in ("bytes", "reads"):
        shard_by_shard.clear()
        options = _options(strategy, tmp_path, shard_mode=shard_mode)
        reference = run_pipeline(reads, cluster, config, backend="shardwise", options=options)
        if get_pool().in_process:  # a forked worker's calls are not seen from here
            assert len(shard_by_shard) == cluster.n_ranks  # the custom stage ran shard by shard
        assert reference.spectrum.equals(oracle)
        reference_kmers = parsed[-1]
        assert int(reference_kmers.sum()) == oracle.n_total
        # Every shard its own block (each larger than one), some blocks of several, one block.
        for block_bases in (1, 64, 1 << 40):
            monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", block_bases)
            result = run_pipeline(reads, cluster, config, backend="gpu", options=options)
            assert summarize_result(result) == summarize_result(reference), (shard_mode, block_bases)
            assert np.array_equal(result.per_rank_parse, reference.per_rank_parse)
            assert np.array_equal(parsed[-1], reference_kmers)
        monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", 1 << 17)


def test_k_past_the_packing_boundary_is_one_config_error():
    with pytest.raises(ValueError, match=r"k must be in \[2, 31\]"):
        PipelineConfig(k=32)


@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spooled"])
@pytest.mark.parametrize("mode", ["kmer", "supermer"])
def test_fused_exchange_gathers_straight_out_of_the_send_array(mode, spill, tmp_path, monkeypatch):
    """``fused=True`` changes one thing, under either residency: no per-source buffers are gathered.

    Staged, the exchange stage gets per-source views of the send array
    and stages each destination block's slices (``SegmentBlock.gather``):
    in memory through ``alltoallv_segments``, on disk in the spool.
    Fused, every block is gathered out of the one send array by its index
    (``alltoallv_flat`` in memory).  Every observable is the same.
    """
    calls: Counter[str] = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(standard, "alltoallv_segments")
    counted(standard, "alltoallv_flat")
    counted(collectives.SegmentBlock, "gather")
    observed = []
    for strategy in ("spill", "fused-spill") if spill else ("staged", "fused"):
        calls.clear()
        result = run_pipeline(
            golden_reads(),
            summit_gpu(2),
            PipelineConfig(k=17, mode=mode, n_rounds=2),
            backend="gpu",
            options=_options(strategy, tmp_path),
        )
        observed.append((summarize_result(result), dict(calls)))
    (staged, staged_calls), (fused, fused_calls) = observed
    assert fused == staged
    assert staged_calls["gather"] > 0 and fused_calls.get("gather", 0) == 0
    assert staged_calls.get("alltoallv_flat", 0) == 0
    assert fused_calls.get("alltoallv_segments", 0) == 0
    if not spill:  # two rounds, payload and length bytes in supermer mode
        rounds = 2 * (2 if mode == "supermer" else 1)
        assert (staged_calls["alltoallv_segments"], fused_calls["alltoallv_flat"]) == (rounds, rounds)
