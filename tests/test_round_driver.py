"""The round driver's 2×2: the ``fused`` name × residency, on both surfaces.

``RoundScheduler._drive`` is the one loop behind ``staged``, ``fused``,
``spill`` and ``fused-spill``, behind ``run()`` and ``run_batch()``.  These
tests pin what that buys, cell by cell against the ``staged`` cell:

* identical model-metric telemetry, identical ``CountResult`` /
  ``PipelineState`` observables, and the same region tree (every cell
  exchanges every round, then counts in one region after the last);
* a stream may change strategy between batches, in either direction, by
  assigning ``scheduler.opts`` and nothing else;
* the fixes the single site gives for free: batch exchange spans carry
  ``link_seconds``, and a one-shot mmap table is reclaimed on a raise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.stages.buffers import SendArray, send_rounds
from repro.core.stages.spill import _gather
from repro.core.stages.standard import TableCount, exchange_digest, fold_digests
from repro.gpu import segmented
from repro.gpu.hashtable import InsertStats
from repro.gpu.segmented import SegmentedHashTable
from repro.mpi.topology import summit_gpu
from repro.telemetry import MetricRegistry
from repro.telemetry.spans import SpanRecorder, span_payload

from .conftest import custom_backend
from .golden_cases import batch_reads, golden_reads, summarize_counter, summarize_result

pytestmark = pytest.mark.engines

STRATEGIES = ("staged", "fused", "spill", "fused-spill")
CONFIG = {"k": 17, "mode": "supermer", "minimizer_len": 7}


def _options(strategy: str, tmp_path, **kw) -> EngineOptions:
    if "fused" in strategy:
        kw["fused"] = True
    if "spill" in strategy:
        kw["spill_dir"] = tmp_path / f"spool-{strategy}"
    return EngineOptions(**kw)


def _region_tree(recorder: SpanRecorder) -> list:
    """Nested ``[name, cat, meta, children]`` of the regions, in open order.

    ``meta`` keeps the ``round``/``batch`` values and, for exchange spans,
    the *keys* of the causal note (its values are checked by the
    observable comparisons: they are the traffic log and model seconds).
    """
    nodes: dict[int, list] = {}
    roots: list = []
    for s in span_payload(recorder):
        if s["cat"] == "work":
            continue
        meta = {key: s["meta"][key] for key in ("round", "batch") if key in s["meta"]}
        if s["name"] == "exchange":
            meta["note"] = sorted(set(s["meta"]) - {"round"})
        nodes[s["id"]] = node = [s["name"], s["cat"], meta, []]
        (nodes[s["parent"]][3] if s["parent"] is not None else roots).append(node)
    return roots


def _one_shot(strategy: str, n_rounds: int, tmp_path):
    reg, rec = MetricRegistry(), SpanRecorder()
    result = run_pipeline(
        golden_reads(),
        summit_gpu(1),
        PipelineConfig(n_rounds=n_rounds, **CONFIG),
        backend="gpu",
        options=_options(strategy, tmp_path, telemetry=reg, trace=rec),
    )
    run_span = next(s for s in rec.all_spans() if s.cat == "run")
    assert run_span.meta["strategy"] == strategy
    observables = summarize_result(result) | {"link_seconds": list(result.link_seconds)}
    return observables, reg.snapshot(include_wall=False), _region_tree(rec)


def _batches(strategy: str, tmp_path):
    reg, rec = MetricRegistry(), SpanRecorder()
    counter = DistributedCounter(
        summit_gpu(1),
        PipelineConfig(**CONFIG),
        backend="gpu",
        options=_options(strategy, tmp_path, telemetry=reg, trace=rec),
    )
    for batch in batch_reads():
        counter.add_reads(batch)
    observables = summarize_counter(counter) | {
        "insert_stats": counter.insert_stats,
        "traffic_labels": [r.label for r in counter.traffic.records],
    }
    return observables, reg.snapshot(include_wall=False), _region_tree(rec)


@pytest.mark.parametrize("surface", ["one-shot-1", "one-shot-3", "batches"])
@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_cell_matches_staged(strategy, surface, tmp_path):
    def cell(name):
        if surface == "batches":
            return _batches(name, tmp_path)
        return _one_shot(name, int(surface[-1]), tmp_path)

    observables, snapshot, tree = cell(strategy)
    ref_observables, ref_snapshot, ref_tree = cell("staged")
    assert observables == ref_observables
    assert snapshot == ref_snapshot
    assert tree == ref_tree
    for sub in tmp_path.iterdir():
        assert list(sub.iterdir()) == []  # every spool removed


@pytest.mark.parametrize("first,then", [("staged", "fused"), ("fused", "staged"),
                                        ("spill", "fused-spill"), ("fused-spill", "staged")])
def test_mid_stream_strategy_flip_sets_opts_only(first, then, tmp_path):
    """Batch 1 on one strategy, batch 2 on another, batch 3 back: one state throughout."""
    config = PipelineConfig(**CONFIG)
    batches = batch_reads()
    mixed = DistributedCounter(
        summit_gpu(1), config, backend="gpu", options=_options(first, tmp_path)
    )
    for strategy, batch in zip((first, then, first), batches):
        mixed._scheduler.opts = _options(strategy, tmp_path)
        assert mixed._scheduler.resolve_strategy().name == strategy
        mixed.add_reads(batch)

    plain = DistributedCounter(summit_gpu(1), config, backend="gpu")
    for batch in batches:
        plain.add_reads(batch)
    assert summarize_counter(mixed) == summarize_counter(plain)
    assert mixed.insert_stats == plain.insert_stats


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batch_exchange_spans_carry_link_seconds(strategy, tmp_path):
    """Regression: the batch loops dropped the per-link breakdown the
    one-shot loops attach to every exchange span."""
    rec = SpanRecorder()
    counter = DistributedCounter(
        summit_gpu(2),
        PipelineConfig(**CONFIG),
        backend="gpu",
        options=_options(strategy, tmp_path, trace=rec),
    )
    counter.add_reads(batch_reads()[0])
    (exchange,) = [s for s in rec.all_spans() if s.cat == "stage" and s.name == "exchange"]
    links = exchange.meta["link_seconds"]
    assert links and all(seconds >= 0.0 for seconds in links.values())
    assert exchange.meta["model_seconds"] == counter.timing.exchange


class _CustomCount(TableCount):
    """A custom count stage: a ``TableCount`` subclass recording each ``count_block`` call's ranks."""

    calls: list[tuple[int, int, type]] = []

    def count_block(self, table, recv, lengths, recv_offsets, ctx, *, rank0):
        self.calls.append((rank0, rank0 + table.n_ranks, type(table)))
        return super().count_block(table, recv, lengths, recv_offsets, ctx, rank0=rank0)


@pytest.mark.parametrize("parallel", [1, 2, "process:2"], ids=["seq", "thread", "process"])
@pytest.mark.parametrize("strategy", ["staged", "spill", "fused"])
def test_custom_count_stage_runs_rank_by_rank_on_the_views(strategy, parallel, tmp_path, monkeypatch):
    """A custom count stage is counted through its own ``count_block``, once per rank block and
    round on the block's table, and equals the standard stage."""
    monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)  # several ranks per block, several blocks

    custom_backend(monkeypatch, lambda comp: dataclasses.replace(comp, count=_CustomCount(comp.plugins)))
    _CustomCount.calls = calls = []

    def cell(backend):
        reg, rec = MetricRegistry(), SpanRecorder()
        result = run_pipeline(
            golden_reads(),
            summit_gpu(2),
            PipelineConfig(n_rounds=2, **CONFIG),
            backend=backend,
            options=_options(strategy, tmp_path, telemetry=reg, trace=rec, parallel=parallel),
        )
        leaves = [s for s in rec.spans() if s.name.removeprefix("fused:").startswith("count")]
        blocks = {tuple(s.meta["ranks"]) for s in leaves}
        return summarize_result(result), reg.snapshot(include_wall=False), blocks

    observables, snapshot, blocks = cell("custom")
    assert 1 < len(blocks) < 12  # several ranks per call, several calls
    if parallel != "process:2":  # a forked worker's calls are not seen from here
        assert sorted(calls) == sorted((r0, r1, SegmentedHashTable) for r0, r1 in blocks for _ in range(2))
    # A custom count stage changes no observable and no strategy: fused stays fused.
    assert (observables, snapshot, blocks) == cell("gpu")


@pytest.mark.parametrize("parallel", [1, "process:2"], ids=["seq", "process-to-thread"])
@pytest.mark.parametrize("strategy", ["staged", "spill"])
def test_bloom_composition_equals_the_per_rank_tables(strategy, parallel, tmp_path, monkeypatch):
    """A stateful ``filter_received`` plugin, block by block: every observable is what the
    one-table-per-rank count produced before PR 24 (the literals were recorded there)."""
    monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)
    rec = SpanRecorder()
    result = run_pipeline(
        golden_reads(),
        summit_gpu(2),
        PipelineConfig(n_rounds=2, **CONFIG),
        backend="gpu",
        options=_options(strategy, tmp_path, stages=("bloom",), parallel=parallel, trace=rec),
    )
    assert len({tuple(s.meta["ranks"]) for s in rec.spans() if s.name.startswith("count")}) > 1
    assert result.insert_stats == InsertStats(
        n_instances=68121, n_distinct=9658, total_probes=87959, max_probe=39, cas_conflicts=1981, rounds=39, resizes=21
    )
    digest = hashlib.sha256(json.dumps(summarize_result(result), sort_keys=True).encode()).hexdigest()
    assert digest.startswith("7da8e9a1ec1f528f")


def _round_slice_reference(data, lengths, counts, rnd: int, n_rounds: int):
    """The per-destination scalar loop over one source's buffer, kept as the oracle."""
    p = counts.shape[0]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    pieces, lpieces = [], []
    rcounts = np.zeros(p, dtype=np.int64)
    for dst in range(p):
        seg_start, seg_end = offsets[dst], offsets[dst + 1]
        seg_len = seg_end - seg_start
        lo = seg_start + (seg_len * rnd) // n_rounds
        hi = seg_start + (seg_len * (rnd + 1)) // n_rounds
        rcounts[dst] = hi - lo
        pieces.append(data[lo:hi])
        if lengths is not None:
            lpieces.append(lengths[lo:hi])
    return np.concatenate(pieces), np.concatenate(lpieces) if lengths is not None else None, rcounts


@pytest.mark.parametrize("n_rounds", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_lengths", [False, True], ids=["kmer", "supermer"])
@pytest.mark.parametrize("p", [1, 6, 42])
def test_round_slice_matches_scalar_loop(n_rounds, with_lengths, p):
    """A round's view of the send array ≡ the per-source scalar loops; rounds tile every segment.

    Each round is cut, not copied: its ``[src, dst]`` counts and segment
    starts address the one send array, and its one block gather is the
    (dst, src)-major concatenation of those segments.
    """
    rng = np.random.default_rng(100 * p + n_rounds)
    counts = rng.integers(0, 12, size=(p, p)).astype(np.int64)  # lengths not divisible by n_rounds
    counts[rng.random((p, p)) < 0.3] = 0  # segments that hold nothing
    counts[rng.integers(p)] = 0  # a source with nothing to send
    n = int(counts.sum())
    send = SendArray(
        data=rng.integers(0, 1 << 63, size=n, dtype=np.uint64),
        lengths=rng.integers(1, 200, size=n).astype(np.uint8) if with_lengths else None,
        counts=counts,
    )
    src_base = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    rounds = send_rounds(send, n_rounds)
    round_counts = []
    for rnd, view in enumerate(rounds):
        assert view.send is send  # a view: nothing is copied
        got_counts, got_starts = view.cut()
        assert got_counts.dtype == np.int64 and got_counts.shape == (p, p)
        round_counts.append(got_counts)
        for src in range(p):
            lo, hi = src_base[src], src_base[src + 1]
            src_lengths = send.lengths[lo:hi] if with_lengths else None
            ref_data, ref_lengths, ref_counts = _round_slice_reference(
                send.data[lo:hi], src_lengths, counts[src], rnd, n_rounds
            )
            assert np.array_equal(got_counts[src], ref_counts)
            for array, ref in zip(send.arrays, (ref_data, ref_lengths)):
                pieces = [array[a : a + c] for a, c in zip(got_starts[src].tolist(), got_counts[src].tolist())]
                assert np.array_equal(np.concatenate(pieces), ref)
        # The round's one gather (every destination) ≡ its segments, (dst, src)-major.
        blk = view.block(0, p)
        for array in send.arrays:
            out = np.empty(blk.o1, dtype=array.dtype)
            blk.take([array], [out])
            segs = [array[got_starts[s, d] : got_starts[s, d] + got_counts[s, d]] for d in range(p) for s in range(p)]
            assert np.array_equal(out, np.concatenate(segs))
    assert np.array_equal(sum(round_counts), counts)
    # Per segment, the rounds' pieces concatenate back to the original segment.
    seg_offsets = np.concatenate(([0], np.cumsum(counts.reshape(-1))))
    cuts = [view.cut() for view in rounds]
    for seg in range(p * p):
        src, dst = divmod(seg, p)
        for array in send.arrays:
            pieces = [array[st[src, dst] : st[src, dst] + ct[src, dst]] for ct, st in cuts]
            original = array[seg_offsets[seg] : seg_offsets[seg + 1]]
            assert np.array_equal(np.concatenate(pieces), original)


@pytest.mark.parametrize("n_rounds", [2, 3, 5])
@pytest.mark.parametrize("with_lengths", [False, True], ids=["kmer", "supermer"])
def test_sent_digest_matches_scalar_loop(n_rounds, with_lengths):
    """The drive's one send-side digest ≡ every round's segments, cut by the scalar loop, then counted and XORed.

    Item counts and XOR are order-free, so one reduction per array over
    the whole send array equals the fold of what each round sends, and of
    what each round's gather hands the count: that is what lets the round
    driver check the exchange once per drive.  Segments that hold nothing
    are spread everywhere (so are empty round pieces of short segments),
    and three sources send nothing.
    """
    p = 13
    rng = np.random.default_rng(7 * n_rounds + with_lengths)
    counts = rng.integers(0, 12, size=(p, p)).astype(np.int64)
    counts[rng.random((p, p)) < 0.3] = 0  # segments that hold nothing
    counts[3:6] = 0  # sources with nothing to send
    n = int(counts.sum())
    send = SendArray(
        data=rng.integers(0, 1 << 63, size=n, dtype=np.uint64),
        lengths=rng.integers(1, 200, size=n).astype(np.uint8) if with_lengths else None,
        counts=counts,
    )
    src_base = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    per_round = []
    for rnd, view in enumerate(send_rounds(send, n_rounds)):
        data, lengths = [], []
        for src in range(p):
            lo, hi = src_base[src], src_base[src + 1]
            src_lengths = send.lengths[lo:hi] if with_lengths else None
            ref_data, ref_lengths, _ = _round_slice_reference(send.data[lo:hi], src_lengths, counts[src], rnd, n_rounds)
            data.append(ref_data)
            lengths.append(ref_lengths)
        reference = [np.concatenate(data)] + ([np.concatenate(lengths)] if with_lengths else [])
        per_round.append(tuple((int(a.shape[0]), int(np.bitwise_xor.reduce(a))) for a in reference))
        assert exchange_digest(_gather(view, view.block(0, p))) == per_round[-1]
    assert len(per_round[0]) == len(send.arrays)
    assert exchange_digest(send.arrays) == fold_digests(per_round)

