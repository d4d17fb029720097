"""The round driver's 2×2: fused exchange × residency, on both surfaces.

``RoundScheduler._drive`` is the one loop behind ``staged``, ``fused``,
``spill`` and ``fused-spill``, behind ``run()`` and ``run_batch()``.  These
tests pin what that buys, cell by cell against the ``staged`` cell:

* identical model-metric telemetry, identical ``CountResult`` /
  ``PipelineState`` observables, and the same region tree (the spooled
  residency differs in exactly one documented way: its count is one
  region after the last round, because partitions stream back rank-major
  once every round is on disk);
* a stream may change strategy between batches, in either direction, by
  assigning ``scheduler.opts`` and nothing else;
* the fixes the single site gives for free: batch exchange spans carry
  ``link_seconds``, and a one-shot mmap table is reclaimed on a raise;
* a rank's model seconds come from the composition's *substrate*, not
  from its backend name, on every cell.
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
from repro.core.stages import registry
from repro.core.stages.buffers import SendArray, round_split
from repro.core.stages.standard import CpuSubstrate, GpuSubstrate, TableCount
from repro.gpu import segmented
from repro.gpu.hashtable import InsertStats
from repro.gpu.segmented import SegmentedRankView
from repro.machines import v100
from repro.mpi.topology import summit_gpu
from repro.telemetry import MetricRegistry
from repro.telemetry.spans import SpanRecorder, span_payload

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


def _hoist_counts(tree: list) -> list:
    """The spooled residency's shape of a resident region tree.

    Per-round ``count`` regions become one ``count`` after the last round.
    Batch roots have no rounds, so they come back unchanged.
    """
    out = []
    for name, cat, meta, children in tree:
        if any(child[1] == "round" for child in children):
            rounds = [
                [*child[:3], [c for c in child[3] if c[0] != "count"]] if child[1] == "round" else child
                for child in children
            ]
            at = next(i for i, child in enumerate(rounds) if child[0] == "merge")
            children = [*rounds[:at], ["count", "stage", {}, []], *rounds[at:]]
        out.append([name, cat, meta, children])
    return out


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
    assert tree == (_hoist_counts(ref_tree) if "spill" in strategy else ref_tree)
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


@pytest.mark.parametrize("mode", ["kmer", "supermer"])
@pytest.mark.parametrize("substrate", [GpuSubstrate(), CpuSubstrate()], ids=["gpu", "cpu"])
def test_substrate_charges_under_a_custom_backend_key(substrate, mode, tmp_path, monkeypatch):
    """The standard stages registered under a key that is not the substrate's name.

    Regression: model seconds were picked from the string ``backend ==
    "gpu"``, so a GPU composition under this key got CPU-rate parse/count
    seconds and no kernel telemetry under ``fused=True`` (PR 15), and on
    every strategy the CPU exchange overhead, no host-staging term and no
    ``auto_rounds`` split.  Every cell must equal the standard-key run.
    """
    key = f"x{substrate.name}:{mode}"

    def factory(config, opts):
        comp = registry.resolve(f"{substrate.name}:{mode}", config, opts)
        return dataclasses.replace(comp, key=key, backend=key.split(":")[0], substrate=substrate)

    monkeypatch.setitem(registry._BACKENDS, key, factory)
    tiny = v100().with_overrides(hbm_bytes=1024**2)  # auto_rounds must split on the GPU substrate

    def cell(strategy, backend):
        reg = MetricRegistry()
        result = run_pipeline(
            golden_reads(),
            summit_gpu(1),
            PipelineConfig(**(CONFIG | {"mode": mode})),
            backend=backend,
            options=_options(
                strategy, tmp_path, telemetry=reg, device=tiny, auto_rounds=True, work_multiplier=50.0
            ),
        )
        kernels = {
            name: family["samples"]
            for name, family in reg.snapshot(include_wall=False).items()
            if name.startswith("gpu_kernel_")
        }
        return (
            result.timing,
            result.staging_seconds,
            result.link_seconds,
            result.n_rounds_used,
            result.per_rank_parse.tolist(),
            result.per_rank_count.tolist(),
            result.insert_stats,
            kernels,
        )

    standard = cell("staged", substrate.name)
    _, staging_seconds, _, n_rounds, *_, kernels = standard
    on_gpu = substrate.name == "gpu"
    assert bool(kernels) == on_gpu  # the GPU substrate launches kernels,
    assert (staging_seconds > 0.0) == on_gpu  # stages through the host,
    assert (n_rounds > 1) == on_gpu  # and splits rounds by device memory
    for strategy in STRATEGIES:
        assert cell(strategy, key) == standard, strategy


class _RankByRankCount(TableCount):
    """A custom count stage: a class the count blocks do not know, with ``TableCount``'s behaviour."""


@pytest.mark.parametrize("parallel", [1, 2, "process:2"], ids=["seq", "thread", "process"])
@pytest.mark.parametrize("strategy", ["staged", "spill", "fused"])
def test_custom_count_stage_runs_rank_by_rank_on_the_views(strategy, parallel, tmp_path, monkeypatch):
    """Only a composition whose count stage is not ``TableCount`` reaches ``count_rank`` — once
    per rank and round, on the block tables' views — and it equals the blocked count body."""
    monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 18)  # several ranks per block, several blocks

    def factory(config, opts):
        comp = registry.resolve("gpu:supermer", config, opts)
        return dataclasses.replace(comp, key="rankwise:supermer", count=_RankByRankCount(comp.count.plugins))

    monkeypatch.setitem(registry._BACKENDS, "rankwise:supermer", factory)
    seen: list[tuple[int, type]] = []
    count_rank = GpuSubstrate.count_rank

    def recording(self, rank, recv, lengths, table, count, ctx):
        seen.append((rank, type(table)))
        return count_rank(self, rank, recv, lengths, table, count, ctx)

    monkeypatch.setattr(GpuSubstrate, "count_rank", recording)

    def cell(backend):
        seen.clear()
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
        return summarize_result(result), reg.snapshot(include_wall=False), blocks, list(seen)

    observables, snapshot, blocks, calls = cell("rankwise")
    if parallel != "process:2":  # a forked worker's calls are not seen from here
        assert sorted(calls) == sorted((r, SegmentedRankView) for r in range(12) for _ in range(2))
    assert 1 < len(blocks) < 12  # the custom stage sees ranks; the pool and the tables see blocks
    standard = cell("gpu")
    assert standard[3] == []  # the standard count stage never calls count_rank
    assert (observables, snapshot) == standard[:2]
    assert blocks == standard[2]  # a custom count stage changes no strategy: fused stays fused


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
    """The one round gather of the send array ≡ the per-source scalar loops; rounds tile every segment."""
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
    rounds = [round_split(send, rnd, n_rounds) for rnd in range(n_rounds)]
    for rnd, got in enumerate(rounds):
        assert got.counts.dtype == np.int64 and got.counts.shape == (p, p)
        assert got.data.dtype == np.uint64 and (got.lengths is None) == (not with_lengths)
        got_base = np.concatenate(([0], np.cumsum(got.counts.sum(axis=1))))
        for src in range(p):
            lo, hi = src_base[src], src_base[src + 1]
            src_lengths = send.lengths[lo:hi] if with_lengths else None
            ref_data, ref_lengths, ref_counts = _round_slice_reference(
                send.data[lo:hi], src_lengths, counts[src], rnd, n_rounds
            )
            glo, ghi = got_base[src], got_base[src + 1]
            assert np.array_equal(got.counts[src], ref_counts)
            assert np.array_equal(got.data[glo:ghi], ref_data)
            if with_lengths:
                assert got.lengths.dtype == np.uint8 and np.array_equal(got.lengths[glo:ghi], ref_lengths)
    assert np.array_equal(sum(r.counts for r in rounds), counts)
    # Per segment, the rounds' pieces concatenate back to the original segment.
    seg_offsets = np.concatenate(([0], np.cumsum(counts.reshape(-1))))
    round_offsets = [np.concatenate(([0], np.cumsum(r.counts.reshape(-1)))) for r in rounds]
    for seg in range(p * p):
        fields = ("data", "lengths") if with_lengths else ("data",)
        for field in fields:
            pieces = [getattr(r, field)[off[seg] : off[seg + 1]] for r, off in zip(rounds, round_offsets)]
            original = getattr(send, field)[seg_offsets[seg] : seg_offsets[seg + 1]]
            assert np.array_equal(np.concatenate(pieces), original)
