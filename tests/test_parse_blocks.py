"""The parse in blocks of whole shards, and the names ``fused`` still changes.

Every strategy parses blocks of whole shards into one send array
(``repro.core.stages.scheduler.Layout``), through the one parse body
whatever the parse stage's class.  Degenerate inputs go through that
parse on every strategy, mode and strand setting, with the block
constant at its extremes: the spectrum must be the oracle's, and every
observable — per-rank parse seconds and parsed k-mers included — must
be the same for a custom parse stage as for the standard one, and the
same at every block size.  Then what ``fused=True`` no longer changes,
under both residencies: with or without it, the exchange gathers
straight out of the send array, never through per-source buffers.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.core.stages.spill as spill_mod
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.parallel import get_pool
from repro.core.stages import scheduler
from repro.dna.reads import ReadSet
from repro.kmers.spectrum import count_kmers_exact
from repro.mpi import collectives
from repro.mpi.topology import summit_gpu

from .conftest import custom_backend
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


class _CustomParse:
    """A custom parse stage: a class the engine does not know, delegating to a standard one."""

    def __init__(self, standard, calls: list[str]) -> None:
        self.standard, self.calls = standard, calls
        self.kernel_name = standard.kernel_name

    def extract_at(self, reads, config):
        self.calls.append("extract_at")
        return self.standard.extract_at(reads, config)

    def gpu_traffic(self, *args):
        return self.standard.gpu_traffic(*args)


@pytest.fixture
def custom_parse(monkeypatch):
    """Backend ``custom`` — the gpu backend with a custom parse stage — and its extraction calls."""
    calls: list[str] = []
    custom_backend(monkeypatch, lambda comp: dataclasses.replace(comp, parse=_CustomParse(comp.parse, calls)))
    return calls


def _parsed(monkeypatch) -> list[np.ndarray]:
    """Every drive's per-rank parsed k-mers, recorded off the layout's parse."""
    seen: list[np.ndarray] = []
    real = scheduler.Layout.parse

    def recording(self, ranges, sctx):
        send, summary = real(self, ranges, sctx)
        seen.append(summary.n_kmers.copy())
        return send, summary

    monkeypatch.setattr(scheduler.Layout, "parse", recording)
    return seen


@pytest.mark.parametrize("k", [17, 31])
@pytest.mark.parametrize("canonical", [False, True], ids=["forward", "canonical"])
@pytest.mark.parametrize("mode", ["kmer", "supermer"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_degenerate_inputs_through_the_block_parse(
    strategy, mode, canonical, k, tmp_path, monkeypatch, custom_parse
):
    reads = _degenerate_reads()
    config = PipelineConfig(k=k, mode=mode, canonical=canonical, window=None)
    oracle = count_kmers_exact(reads, k, canonical=canonical)
    cluster = summit_gpu(2)  # 12 ranks: more than the reads, and byte shards shorter than k
    parsed = _parsed(monkeypatch)
    reference = None
    # Single-shard blocks (every shard of more than one base is its own), some of several, one block.
    for block_bases in (1, 64, 1 << 40):
        monkeypatch.setattr(scheduler, "PARSE_BLOCK_BASES", block_bases)
        custom_parse.clear()
        options = _options(strategy, tmp_path, trace=True)
        custom = run_pipeline(reads, cluster, config, backend="custom", options=options)
        custom_kmers = parsed[-1]
        blocks = [s.meta["ranks"] for s in options.trace.spans() if s.name.endswith("parse")]
        if block_bases == 1 << 40:
            assert blocks == [[0, cluster.n_ranks]]
        if get_pool().in_process:  # a forked worker's calls are not seen from here
            # The custom stage runs once per parse block, through the one parse body.
            assert custom_parse == ["extract_at"] * len(blocks)
        standard = run_pipeline(reads, cluster, config, backend="gpu", options=_options(strategy, tmp_path))
        assert summarize_result(custom) == summarize_result(standard), block_bases
        assert np.array_equal(custom.per_rank_parse, standard.per_rank_parse)
        assert np.array_equal(custom_kmers, parsed[-1])
        if reference is None:  # the same at every block size, and the oracle's
            reference, reference_kmers = standard, custom_kmers
            assert standard.spectrum.equals(oracle) and int(reference_kmers.sum()) == oracle.n_total
        assert summarize_result(standard) == summarize_result(reference), block_bases
        assert np.array_equal(standard.per_rank_parse, reference.per_rank_parse)
        assert np.array_equal(parsed[-1], reference_kmers)


def test_k_past_the_packing_boundary_is_one_config_error():
    with pytest.raises(ValueError, match=r"k must be in \[2, 31\]"):
        PipelineConfig(k=32)


@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spooled"])
@pytest.mark.parametrize("mode", ["kmer", "supermer"])
def test_fused_exchange_gathers_straight_out_of_the_send_array(mode, spill, tmp_path, monkeypatch):
    """``fused=True`` changes names only, under either residency: every receive side is gathered out of the send array.

    Both strategies of a residency make the same gather calls — one
    ``spill._gather`` per block and round, for the payload and its length
    bytes alike: per count block in memory, per destination block into the
    spool — each a slice copy or one block-sized ``SegmentBlock.index``;
    no ``alltoallv_flat`` builds a receive array and no per-source buffer
    is ever staged (``SegmentBlock`` has no ``gather``).  Every observable
    is the same.
    """
    calls: Counter[str] = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(spill_mod, "_gather")
    counted(collectives.SegmentBlock, "index")
    observed = []
    for strategy in ("spill", "fused-spill") if spill else ("staged", "fused"):
        calls.clear()
        result = run_pipeline(
            golden_reads(),
            summit_gpu(2),
            PipelineConfig(k=17, mode=mode, n_rounds=2),
            backend="gpu",
            options=_options(strategy, tmp_path, parallel=1),  # calls counted in this process
        )
        observed.append((summarize_result(result), dict(calls)))
    (staged, staged_calls), (fused, fused_calls) = observed
    assert fused == staged and fused_calls == staged_calls
    assert not hasattr(collectives.SegmentBlock, "gather") and not hasattr(spill_mod, "alltoallv_flat")
    assert staged_calls["_gather"] >= 2  # two rounds, a block or more each
    assert 2 <= staged_calls["index"] <= staged_calls["_gather"]  # one index per wider block, both arrays
