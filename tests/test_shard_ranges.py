"""The input as ranges: shards are base ranges of the reads, parse blocks are views.

``repro.dna.reads.ShardRanges`` cuts the input at ``total * s // P`` and
hands every parse block one view of the input's codes.  The fragment rule
it replaces copied each shard's read pieces, with their k − 1 overlap,
into a read set of its own; it is kept here, written out independently,
as the reference: the engine's per-rank send buffers and parse model
seconds must be the ones a per-shard parse of those copies gives, at
every parse-block size, in both modes and on both strands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.parallel import get_pool
from repro.core.stages import scheduler
from repro.core.stages.buffers import split_kmers
from repro.core.stages.registry import build_composition
from repro.core.stages.context import StageContext
from repro.dna.reads import ReadSet, ShardRanges
from repro.mpi.costmodel import CommCostModel
from repro.mpi.stats import TrafficStats
from repro.mpi.topology import summit_gpu

pytestmark = pytest.mark.engines


def _fragment_shards(reads: ReadSet, n_shards: int, overlap: int) -> list[ReadSet]:
    """The fragment rule: each shard's pieces of reads, ``overlap`` bases longer, copied into a read set."""
    total = int(reads.lengths.sum())
    first_base = np.concatenate(([0], np.cumsum(reads.lengths)))
    shards = []
    for s in range(n_shards):
        lo, hi = total * s // n_shards, total * (s + 1) // n_shards
        fragments = []
        for i in range(reads.n_reads):
            start, length = int(first_base[i]), int(reads.lengths[i])
            flo, fhi = max(lo - start, 0), min(hi - start, length)
            if fhi > flo:
                fragments.append(reads.read_string(i)[flo : min(fhi + overlap, length)])
        shards.append(ReadSet.from_strings(fragments))
    return shards


def _dna(rng: np.random.Generator, n: int) -> str:
    return "".join("ACGT"[i] for i in rng.integers(0, 4, size=n))


def _cases() -> dict[str, tuple[ReadSet, int]]:
    """Inputs and their rank counts (``summit_gpu`` nodes: 6 ranks each)."""
    rng = np.random.default_rng(32)
    return {
        # Shorter than k, all N, empty between real reads, an N inside one.
        "degenerate": (
            ReadSet.from_strings(
                ["ACGTACGTAC", "N" * 50, _dna(rng, 300), "", "", _dna(rng, 60) + "N" + _dna(rng, 80), "A", ""]
                + [_dna(rng, 31), "NNNNACGTN" * 5]
            ),
            2,
        ),
        # 24 ranks over 20 bases: most shards are empty, the rest one base each.
        "more-ranks-than-bases": (ReadSet.from_strings(["", _dna(rng, 20), ""]), 4),
        # 12 reads of 100 bases on 12 ranks: every cut is a read's end and the next read's start.
        "cuts-on-read-ends": (ReadSet.from_strings([_dna(rng, 100) for _ in range(12)]), 2),
        # The same with a zero-length read at every cut.
        "cuts-on-empty-reads": (ReadSet.from_strings([s for _ in range(12) for s in (_dna(rng, 100), "")]), 2),
        # One 192-base read on 12 ranks: cuts every 16 bases, on the supermer window grid (16 at k = 17, 2 at k = 31).
        "cuts-on-window-starts": (ReadSet.from_strings([_dna(rng, 192)]), 2),
        # Ordinary reads of mixed lengths, cuts anywhere.
        "mixed": (ReadSet.from_strings([_dna(rng, int(n)) for n in rng.integers(0, 400, size=30)]), 3),
    }


def _reference_parse(reads: ReadSet, nodes: int, config: PipelineConfig):
    """Per rank: the send buffer (items and their second array) and parse seconds of its fragment copy."""
    cluster = summit_gpu(nodes)
    comp = build_composition("gpu", config, EngineOptions())
    ctx = StageContext(
        config, cluster, EngineOptions(), comp.substrate, get_pool(1), CommCostModel(cluster), TrafficStats()
    )
    out = []
    for shard in _fragment_shards(reads, cluster.n_ranks, config.k - 1):
        items = comp.parse.extract_at(shard, config)[0]
        order = np.argsort(comp.partition.owners(items.route_keys, cluster.n_ranks, config), kind="stable")
        code_bytes = int(shard.codes.shape[0])
        seconds = comp.substrate.charge_parse(
            comp.parse, items.n_kmers, items.n_supermers, code_bytes, max(code_bytes - config.k + 1, 0), ctx
        )
        data, lengths = items.data, items.lengths
        if config.mode == "kmer":
            data, lengths = split_kmers(data, config.k)  # the send format's host form of a k-mer
        out.append((data[order], None if lengths is None else lengths[order], seconds))
    return out


@pytest.mark.parametrize("k", [17, 31])
@pytest.mark.parametrize("canonical", [False, True], ids=["forward", "canonical"])
@pytest.mark.parametrize("mode", ["kmer", "supermer"])
@pytest.mark.parametrize("block_bases", [1, 64, 1 << 40])
def test_range_rule_reproduces_the_fragment_rule(block_bases, mode, canonical, k, monkeypatch):
    monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", block_bases)
    sends = []
    real = scheduler.Layout.parse

    def recording(self, ranges, sctx):
        send, summary = real(self, ranges, sctx)
        sends.append(send)
        return send, summary

    monkeypatch.setattr(scheduler.Layout, "parse", recording)
    config = PipelineConfig(k=k, mode=mode, canonical=canonical, window=None)
    for name, (reads, nodes) in _cases().items():
        result = run_pipeline(reads, summit_gpu(nodes), config, backend="gpu")
        send = sends[-1]
        reference = _reference_parse(reads, nodes, config)
        bounds = np.concatenate(([0], np.cumsum(send.counts.sum(axis=1))))
        for rank, (data, lengths, seconds) in enumerate(reference):
            lo, hi = bounds[rank], bounds[rank + 1]
            assert np.array_equal(send.data[lo:hi], data), (name, rank)
            if lengths is not None:
                assert np.array_equal(send.lengths[lo:hi], lengths), (name, rank)
        assert bounds[-1] == send.data.shape[0]
        expected = np.array([seconds for *_, seconds in reference])
        assert np.array_equal(result.per_rank_parse, expected), name
        assert result.timing.parse == expected.max(), name


@pytest.mark.parametrize("n_shards", [1, 3, 12, 97])
@pytest.mark.parametrize("overlap", [0, 16, 30])
def test_shard_bytes_views_hold_the_fragments(n_shards, overlap):
    """``shard_bytes`` returns views of the input's codes, read for read the fragment copies."""
    reads = _cases()["degenerate"][0]
    ranges = ShardRanges.of(reads, n_shards, overlap)
    for shard, fragment, code_bytes in zip(
        reads.shard_bytes(n_shards, overlap), _fragment_shards(reads, n_shards, overlap), ranges.code_bytes
    ):
        assert list(shard) == list(fragment)
        assert code_bytes == fragment.codes.shape[0]
        if shard.n_reads:
            assert np.shares_memory(shard.codes, reads.codes)


def test_a_block_view_splits_a_read_at_a_cut():
    """Two shards cutting one read are one view; its reads meet at the cut, the last keeps its overlap."""
    reads = ReadSet.from_strings(["ACGTACGTAC", "GGGG"])
    ranges = ShardRanges.of(reads, 2, 3)  # cut at base 7, inside the first read
    view, heads = ranges.view(0, 2)
    assert np.shares_memory(view.codes, reads.codes)
    assert list(view) == ["ACGTACG", "TAC", "GGGG"] and heads.tolist() == [0, 7, 15]
    assert ranges.code_bytes.tolist() == [11, 9]  # "ACGTACGTAC" + 1, then "TAC" + 1 and "GGGG" + 1
