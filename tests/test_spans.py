"""Run-anatomy tests: span recording, analysis, live metrics, CLI round-trip.

Four contracts from the observability layer:

* :class:`repro.telemetry.spans.SpanRecorder` builds a correct tree and is
  a flat leaf API that ignores regions;
* tracing is observability-only — every deterministic payload of a traced
  run (staged, fused, spilled; one-shot and streamed) is bit-identical to
  the untraced run, including the model-metric snapshot and traffic log;
* span nesting survives concurrent rank threads (``REPRO_PARALLEL``):
  work leaves land under the right stage/round regardless of completion
  order, and the recorded structure is order-independent;
* the analysis layer names the critical-path phase the model timing
  implies, and the CLI round-trips count ``--trace`` → ``analyze``.
"""

from __future__ import annotations

import json
import urllib.request
from collections import Counter as Multiset

import numpy as np
import pytest

from repro.core.analysis import analyze_spans, critical_path, model_phase_of, phase_stragglers
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.tracing import (
    TRACE_SCHEMA,
    recording_region,
    run_trace_payload,
    wall_trace_events,
)
from repro.dna.datasets import load_dataset
from repro.gpu import segmented
from repro.mpi.topology import ClusterSpec
from repro.telemetry import MetricRegistry, MetricsServer
from repro.telemetry.spans import SpanRecorder, span_payload, span_tree_events

from .conftest import assert_block_leaves_tile

pytestmark = pytest.mark.engines


@pytest.fixture(scope="module")
def reads():
    return load_dataset("ecoli30x", scale=0.12)


def _cluster(p: int) -> ClusterSpec:
    return ClusterSpec(name=f"test-{p}r", n_nodes=1, ranks_per_node=p)


def _payload_tree(rec: SpanRecorder) -> dict:
    spans = span_payload(rec)
    return {s["id"]: s for s in spans}


class TestSpanRecorder:
    def test_region_nesting_and_leaf_parenting(self):
        rec = SpanRecorder()
        with rec.region("run", cat="run"):
            with rec.region("round0", cat="round", round=0):
                with rec.region("count", cat="stage"):
                    rec.record("count", 0, 1.0, 2.0)
                    rec.record("count", 1, 1.0, 2.5)
        spans = rec.all_spans()
        by_name = {(s.name, s.cat): s for s in spans}
        run = by_name[("run", "run")]
        rnd = by_name[("round0", "round")]
        stage = by_name[("count", "stage")]
        assert run.parent is None
        assert rnd.parent == run.sid and rnd.meta == {"round": 0}
        assert stage.parent == rnd.sid
        leaves = [s for s in spans if s.cat == "work"]
        assert {s.parent for s in leaves} == {stage.sid}
        assert sorted(s.rank for s in leaves) == [0, 1]

    def test_flat_api_ignores_regions(self):
        """Wall metrics depend on the work leaves alone, not on the hierarchy."""
        flat, tree = SpanRecorder(), SpanRecorder()
        calls = [("parse", 0, 0.0, 1.0), ("parse", 1, 0.5, 2.0), ("count", 0, 2.0, 2.25)]
        for args in calls:
            flat.record(*args)
        with tree.region("run", cat="run"):
            for args in calls:
                tree.record(*args)
        assert tree.phases() == flat.phases()
        assert len(tree) == len(flat)
        for name in (None, "parse", "count"):
            assert tree.busy_seconds(name) == flat.busy_seconds(name)
            assert tree.elapsed_seconds(name) == flat.elapsed_seconds(name)
            assert tree.overlap_factor(name) == flat.overlap_factor(name)
        assert [(s.name, s.rank) for s in tree.spans()] == [
            (s.name, s.rank) for s in flat.spans()
        ]

    def test_region_note_and_bad_category(self):
        rec = SpanRecorder()
        with rec.region("exchange", cat="stage") as reg:
            reg.note(items=42, traffic_records=[0, 1])
        assert rec.all_spans()[0].meta == {"items": 42, "traffic_records": [0, 1]}
        with pytest.raises(ValueError, match="category"):
            with rec.region("x", cat="nope"):
                pass

    def test_region_unwind_on_exception(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.region("run", cat="run"):
                with rec.region("stage", cat="stage"):
                    raise RuntimeError("boom")
        # Both regions closed despite the exception; stack is empty again.
        rec.record("late", 0, 0.0, 1.0)
        late = [s for s in rec.all_spans() if s.name == "late"][0]
        assert late.parent is None

    def test_payload_rebased_and_clear(self):
        rec = SpanRecorder()
        with rec.region("run", cat="run"):
            rec.record("parse", 0, 100.5, 101.0)
        pay = span_payload(rec)
        assert min(s["start_s"] for s in pay) == 0.0
        assert all(s["end_s"] >= s["start_s"] for s in pay)
        rec.clear()
        assert len(rec) == 0 and span_payload(rec) == []

    def test_span_tree_events_regions_only(self):
        rec = SpanRecorder()
        with rec.region("run", cat="run"):
            rec.record("parse", 0, 0.0, 1.0)
        events = span_tree_events(rec)
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names == ["run"]  # leaves render on the wall rows, not here
        assert any(e["ph"] == "M" for e in events)


class TestEngineOptionsTrace:
    def test_trace_true_materializes_recorder(self):
        opts = EngineOptions(trace=True)
        assert isinstance(opts.trace, SpanRecorder)

    def test_trace_false_and_none_off(self):
        assert EngineOptions(trace=False).trace is None
        assert EngineOptions().trace is None

    def test_explicit_recorder_passes_through(self):
        rec = SpanRecorder()
        opts = EngineOptions(trace=rec)
        assert opts.trace is rec


def _run(reads, *, config, p=4, **opt_kw):
    options = EngineOptions(**opt_kw)
    result = run_pipeline(reads, _cluster(p), config, options=options)
    return result, options


def _assert_observables_identical(a, b):
    assert a.spectrum.equals(b.spectrum)
    assert a.timing == b.timing
    assert np.array_equal(a.per_rank_parse, b.per_rank_parse)
    assert np.array_equal(a.per_rank_count, b.per_rank_count)
    assert np.array_equal(a.received_kmers, b.received_kmers)
    assert np.array_equal(a.counts_matrix, b.counts_matrix)
    assert a.exchanged_items == b.exchanged_items
    assert a.insert_stats == b.insert_stats
    assert a.n_rounds_used == b.n_rounds_used
    assert [(r.label, r.total_items, r.total_bytes) for r in a.traffic.records] == [
        (r.label, r.total_items, r.total_bytes) for r in b.traffic.records
    ]


class TestTracedRunsIdentical:
    """Tracing must leave every deterministic observable bit-identical."""

    CONFIG = PipelineConfig(k=15, mode="supermer", n_rounds=2)

    @pytest.mark.parametrize("strategy", ["staged", "fused", "spill", "fused-spill"])
    def test_one_shot_traced_equals_untraced(self, reads, strategy, tmp_path):
        extra = {}
        if strategy == "fused":
            extra["fused"] = True
        elif strategy == "spill":
            extra["spill_dir"] = tmp_path / "spool"
        elif strategy == "fused-spill":
            extra["fused"] = True
            extra["spill_dir"] = tmp_path / "spool"
        reg_a, reg_b = MetricRegistry(), MetricRegistry()
        base, _ = _run(reads, config=self.CONFIG, telemetry=reg_a, **extra)
        traced, options = _run(reads, config=self.CONFIG, telemetry=reg_b, trace=True, **extra)
        _assert_observables_identical(base, traced)
        assert reg_a.snapshot(include_wall=False) == reg_b.snapshot(include_wall=False)
        assert len(options.trace) > 0

    @pytest.mark.parametrize("strategy", ["staged", "fused", "spill", "fused-spill"])
    def test_streamed_traced_equals_untraced(self, reads, strategy, tmp_path):
        extra = {}
        if strategy == "fused":
            extra["fused"] = True
        elif strategy == "spill":
            extra["spill_dir"] = tmp_path / "spool"
        elif strategy == "fused-spill":
            extra["fused"] = True
            extra["spill_dir"] = tmp_path / "spool"
        half = reads.n_reads // 2
        batches = [reads.select(range(half)), reads.select(range(half, reads.n_reads))]

        def drive(**kw):
            c = DistributedCounter(_cluster(4), self.CONFIG, options=EngineOptions(**kw))
            for b in batches:
                c.add_reads(b)
            return c

        base = drive(**extra)
        traced = drive(trace=True, **extra)
        assert traced.spectrum().equals(base.spectrum())
        assert traced.timing == base.timing
        assert np.array_equal(traced.received_kmers, base.received_kmers)
        assert traced.exchanged_items == base.exchanged_items
        assert traced.insert_stats == base.insert_stats
        # The streamed trace groups per-batch trees under batch regions.
        pay = span_payload(traced.options.trace)
        batch_names = {s["name"] for s in pay if s["cat"] == "batch"}
        assert batch_names == {"batch0", "batch1"}


class TestWallRowsAllStrategies:
    """Satellite: fused superstep blocks and spill partition/merge work must
    emit wall rows (pid 1) — not just the staged per-rank phase bodies."""

    CONFIG = PipelineConfig(k=15, mode="supermer", n_rounds=2)

    def test_fused_wall_rows(self, reads):
        _, options = _run(reads, config=self.CONFIG, fused=True, trace=True)
        names = {e["name"] for e in wall_trace_events(options.trace) if e["ph"] == "X"}
        assert {"fused:parse", "fused:merge"} <= names
        assert any(n.startswith("fused:exchange") for n in names)
        assert any(n.startswith("fused:count") for n in names)

    def test_spill_wall_rows(self, reads, tmp_path, monkeypatch):
        monkeypatch.setattr(segmented, "INSERT_BLOCK_BYTES", 1 << 20)  # three of the four ranks share a block
        _, options = _run(reads, config=self.CONFIG, spill_dir=tmp_path / "s", trace=True)
        events = [e for e in wall_trace_events(options.trace) if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"spill:merge", "spill:run-write", "parse"} <= names
        assert any(n.startswith("spill:spool") for n in names)
        # run-write, read and count rows are rank-block work: one per block (and round)
        writes = options.trace.spans("spill:run-write")
        assert 1 < len(writes) < 4
        assert sorted(e["tid"] for e in events if e["name"] == "spill:run-write") == sorted(s.rank for s in writes)
        for name in ("spill:run-write", "spill:read-round0", "count-round0", "count-round1"):
            assert_block_leaves_tile(options.trace.spans(name), 4)

    def test_fused_spill_wall_rows(self, reads, tmp_path):
        _, options = _run(
            reads, config=self.CONFIG, fused=True, spill_dir=tmp_path / "s", trace=True
        )
        names = {e["name"] for e in wall_trace_events(options.trace) if e["ph"] == "X"}
        assert {"fused:parse", "spill:run-write", "spill:merge"} <= names  # one-shot tables dumped as runs
        assert any(n.startswith("spill:spool") for n in names)
        for name in ("spill:run-write", "spill:read-round0", "fused:count-round0", "fused:count-round1"):
            assert_block_leaves_tile(options.trace.spans(name), 4)

    @pytest.mark.parametrize("fused", [False, True], ids=["spill", "fused-spill"])
    def test_spooled_count_stage_is_the_count_phase(self, reads, tmp_path, fused):
        """Its first leaf is the block's ``spill:read``: the stage's phase comes from the region."""
        _, options = _run(reads, config=self.CONFIG, fused=fused, spill_dir=tmp_path / "s", trace=True)
        (count,) = [st for st in phase_stragglers(span_payload(options.trace)) if st.path == "count"]
        assert count.phase == "count"

    def test_staged_wall_rows_unchanged(self, reads):
        _, options = _run(reads, config=self.CONFIG, trace=True)
        names = {e["name"] for e in wall_trace_events(options.trace) if e["ph"] == "X"}
        assert "parse" in names and "merge" in names
        assert any(n.startswith("exchange") for n in names)
        assert any(n.startswith("count") for n in names)


def _work_signature(rec: SpanRecorder) -> Multiset:
    """(region path, leaf name, rank) multiset — order-independent shape."""
    by_id = _payload_tree(rec)

    def path(s):
        parts = []
        cur = by_id.get(s["parent"])
        while cur is not None:
            parts.append(cur["name"])
            cur = by_id.get(cur["parent"])
        return "/".join(reversed(parts))

    return Multiset(
        (path(s), s["name"], s["rank"]) for s in by_id.values() if s["cat"] == "work"
    )


class TestParallelNesting:
    """Satellite: spans from concurrent rank threads must nest under the
    right round and accumulate order-independently."""

    CONFIG = PipelineConfig(k=15, mode="supermer", n_rounds=2)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_tree_matches_sequential(self, reads, workers):
        _, seq = _run(reads, config=self.CONFIG, parallel=1, trace=True)
        _, par = _run(reads, config=self.CONFIG, parallel=workers, trace=True)
        assert _work_signature(par.trace) == _work_signature(seq.trace)

    def test_parallel_auto_env(self, reads, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "auto")
        _, auto = _run(reads, config=self.CONFIG, trace=True)
        monkeypatch.setenv("REPRO_PARALLEL", "off")
        _, seq = _run(reads, config=self.CONFIG, trace=True)
        assert _work_signature(auto.trace) == _work_signature(seq.trace)

    def test_leaves_inside_stage_intervals(self, reads):
        _, options = _run(reads, config=self.CONFIG, parallel=3, trace=True)
        by_id = _payload_tree(options.trace)
        for s in by_id.values():
            if s["parent"] is None:
                continue
            parent = by_id[s["parent"]]
            assert parent["start_s"] <= s["start_s"] + 1e-9
            assert s["end_s"] <= parent["end_s"] + 1e-9

    def test_rank_leaves_under_correct_round(self, reads):
        """Each count leaf's round suffix must match its enclosing round."""
        _, options = _run(reads, config=self.CONFIG, parallel=4, trace=True)
        by_id = _payload_tree(options.trace)
        checked = 0
        for s in by_id.values():
            if s["cat"] != "work" or "-round" not in s["name"]:
                continue
            rnd = int(s["name"].rsplit("-round", 1)[1])
            cur = by_id.get(s["parent"])
            while cur is not None and cur["cat"] != "round":
                cur = by_id.get(cur["parent"])
            assert cur is not None and cur["name"] == f"round{rnd}"
            checked += 1
        assert checked > 0


class TestAnalysis:
    CONFIG = PipelineConfig(k=15, mode="supermer", n_rounds=2)

    def test_model_phase_mapping(self):
        assert model_phase_of("parse") == "parse"
        assert model_phase_of("fused:parse") == "parse"
        assert model_phase_of("exchange-round1") == "exchange"
        assert model_phase_of("fused:exchange") == "exchange"
        assert model_phase_of("spill:spool-round0") == "exchange"
        assert model_phase_of("count-round3") == "count"
        assert model_phase_of("fused:count") == "count"
        assert model_phase_of("merge") == "other"
        assert model_phase_of("spill:run-write") == "other"

    def test_stragglers_and_barrier_wait(self, reads):
        result, options = _run(reads, config=self.CONFIG, trace=True)
        stats = phase_stragglers(span_payload(options.trace))
        by_path = {st.path: st for st in stats}
        parse = by_path["parse"]
        assert parse.n == len(options.trace.spans("parse")) and parse.phase == "parse"  # one per parse block
        assert_block_leaves_tile(options.trace.spans("parse"), 4)
        assert parse.max_s >= parse.mean_s > 0
        assert parse.imbalance >= 1.0
        assert 0 <= parse.bottleneck_rank < 4
        # barrier wait is exactly sum(max - t_r), so < n * max
        assert 0 <= parse.barrier_wait_s < parse.n * parse.max_s
        assert {"round0/exchange", "round0/count", "round1/exchange", "round1/count"} <= set(
            by_path
        )

    def test_critical_path_names_model_dominant_phase(self, reads):
        """The analyze acceptance: the model-side dominant phase equals the
        argmax of the RunReport's phase totals."""
        result, options = _run(reads, config=self.CONFIG, trace=True)
        t = result.timing
        phases = {"parse": t.parse, "exchange": t.exchange, "count": t.count}
        expected = max(phases, key=phases.get)
        report = analyze_spans(span_payload(options.trace), phases)
        assert report["model"]["dominant"] == expected
        cp = report["critical_path"]
        assert cp["wall_s"] > 0
        assert [r["name"] for r in cp["rounds"]] == ["round0", "round1"]
        for entry in cp["rounds"]:
            assert entry["dominant"] in entry["stages"]

    def test_divergence_table(self, reads):
        result, options = _run(reads, config=self.CONFIG, trace=True)
        report = analyze_spans(
            span_payload(options.trace),
            {"parse_s": result.timing.parse, "exchange_s": result.timing.exchange, "count_s": result.timing.count},
        )
        rows = {r["phase"]: r for r in report["divergence"]}
        assert rows["exchange"]["model_s"] == result.timing.exchange
        assert rows["exchange"]["wall_s"] > 0
        assert rows["exchange"]["ratio"] == rows["exchange"]["model_s"] / rows["exchange"]["wall_s"]

    def test_analysis_is_json_clean(self, reads):
        _, options = _run(reads, config=self.CONFIG, trace=True)
        report = analyze_spans(span_payload(options.trace), {"parse": 1.0, "exchange": 2.0, "count": 0.5})
        json.dumps(report)  # no numpy scalars / non-serializable leftovers

    def test_critical_path_empty(self):
        cp = critical_path([])
        assert cp["wall_s"] == 0.0 and cp["dominant"] is None and cp["rounds"] == []


class TestTracePayload:
    CONFIG = PipelineConfig(k=15, mode="supermer", n_rounds=2)

    def test_payload_has_all_tracks_and_schema(self, reads):
        reg = MetricRegistry()
        result, options = _run(reads, config=self.CONFIG, telemetry=reg, trace=True)
        payload = run_trace_payload(options.trace, result=result, registry=reg)
        assert payload["metadata"]["schema"] == TRACE_SCHEMA
        pids = {e.get("pid") for e in payload["traceEvents"] if e.get("ph") == "X"}
        assert {0, 1, 2} <= pids  # model, wall, region tree
        assert payload["spans"]
        assert payload["metadata"]["phases"]["exchange_s"] == result.timing.exchange
        assert payload["metadata"]["wall"]["busy_seconds"] > 0

    def test_exchange_regions_link_traffic_records(self, reads):
        result, options = _run(reads, config=self.CONFIG, trace=True)
        pay = span_payload(options.trace)
        exchange_regions = [s for s in pay if s["cat"] == "stage" and s["name"] == "exchange"]
        assert len(exchange_regions) == 2
        for region in exchange_regions:
            lo, hi = region["meta"]["traffic_records"]
            records = result.traffic.records[lo:hi]
            assert records and all(r.label == region["meta"]["label"] for r in records)
            assert region["meta"]["items"] == sum(r.total_items for r in records)

    def test_recording_region_glue(self):
        assert recording_region(None, "x").__enter__() is None
        rec = SpanRecorder()
        with recording_region(rec, "x", cat="stage") as handle:
            assert handle is not None
        with pytest.raises(ValueError):
            run_trace_payload(None)


class TestMetricsServer:
    def test_scrape_all_endpoints(self):
        reg = MetricRegistry()
        reg.counter("kmers_parsed_total", "parsed").inc(7)
        reg.gauge("progress_fraction", "progress", wall=True).set(0.25)
        with MetricsServer(reg) as srv:
            assert srv.port > 0
            text = urllib.request.urlopen(f"{srv.url}/metrics").read().decode()
            snap = json.loads(urllib.request.urlopen(f"{srv.url}/metrics.json").read())
            health = urllib.request.urlopen(f"{srv.url}/healthz").read().decode()
        assert "kmers_parsed_total 7" in text
        assert "progress_fraction 0.25" in text
        assert snap["kmers_parsed_total"]["samples"][0]["value"] == 7
        assert health == "ok\n"

    def test_unknown_path_404_and_restart_guard(self):
        reg = MetricRegistry()
        srv = MetricsServer(reg).start()
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{srv.url}/nope")
            with pytest.raises(RuntimeError):
                srv.start()
        finally:
            srv.stop()
        srv.stop()  # idempotent

    def test_stop_releases_the_port_of_a_never_started_server(self):
        """The socket is bound at construction; ``stop`` / ``with`` must close it either way."""
        reg = MetricRegistry()
        srv = MetricsServer(reg)
        port = srv.port
        with pytest.raises(OSError):
            MetricsServer(reg, port=port)  # still bound
        srv.stop()
        again = MetricsServer(reg, port=port)  # parent: OSError, address already in use
        assert again.port == port
        again.stop()

    def test_live_updates_visible(self):
        reg = MetricRegistry()
        gauge = reg.gauge("progress_inputs_done", "done", wall=True)
        with MetricsServer(reg) as srv:
            gauge.set(1)
            first = urllib.request.urlopen(f"{srv.url}/metrics").read().decode()
            gauge.set(2)
            second = urllib.request.urlopen(f"{srv.url}/metrics").read().decode()
        assert "progress_inputs_done 1" in first
        assert "progress_inputs_done 2" in second


class TestCliRoundTrip:
    def _write_fastq(self, tmp_path):
        from repro.cli import main

        fastq = tmp_path / "reads.fastq"
        rc = main(
            ["simulate", "--out", str(fastq), "--genome-length", "3000", "--coverage", "4", "--seed", "5"]
        )
        assert rc == 0
        return fastq

    @pytest.mark.parametrize("extra", [[], ["--fused"], ["--spill-flag"]])
    def test_count_trace_analyze(self, tmp_path, capsys, extra):
        from repro.cli import main

        if extra == ["--spill-flag"]:
            extra = ["--spill", str(tmp_path / "spool")]
        fastq = self._write_fastq(tmp_path)
        trace = tmp_path / "trace.json"
        rc = main(
            ["count", "--input", str(fastq), "-k", "15", "--nodes", "2", "--trace", str(trace), *extra]
        )
        assert rc == 0
        payload = json.loads(trace.read_text())
        assert payload["metadata"]["schema"] == TRACE_SCHEMA
        assert payload["spans"]
        out_json = tmp_path / "analysis.json"
        capsys.readouterr()
        rc = main(["analyze", "--trace", str(trace), "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "stragglers" in out
        assert "wall vs model divergence" in out
        assert "dominant phase (model)" in out
        report = json.loads(out_json.read_text())
        assert report["critical_path"]["wall_s"] > 0

    def test_profile_folds_into_analyze(self, tmp_path, capsys):
        from repro.cli import main

        fastq = self._write_fastq(tmp_path)
        trace = tmp_path / "trace.json"
        capsys.readouterr()
        rc = main(
            ["count", "--input", str(fastq), "-k", "15", "--nodes", "2",
             "--trace", str(trace), "--profile", "5"]
        )
        assert rc == 0
        count_out = capsys.readouterr().out
        # One report, not two: count defers the rendering to analyze.
        assert "host-time profile" not in count_out
        assert "embedded in trace" in count_out
        rc = main(["analyze", "--trace", str(trace), "--profile"])
        assert rc == 0
        assert "host-time profile" in capsys.readouterr().out

    def test_analyze_rejects_non_trace(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"metadata": {"schema": "other"}}))
        assert main(["analyze", "--trace", str(bogus)]) == 2

    def test_count_metrics_port_serves_progress(self, tmp_path, capsys):
        from repro.cli import main

        fastq = self._write_fastq(tmp_path)
        capsys.readouterr()
        rc = main(
            ["count", "--input", str(fastq), "-k", "15", "--nodes", "2",
             "--metrics-port", "0", "--metrics-hold", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving live metrics at http://127.0.0.1:" in out

    def test_count_metrics_port_taken_is_a_clean_error(self, tmp_path, capsys):
        import socket

        from repro.cli import main

        fastq = self._write_fastq(tmp_path)
        capsys.readouterr()
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            rc = main(["count", "--input", str(fastq), "-k", "15", "--nodes", "2", "--metrics-port", str(port)])
        assert rc == 2
        assert f"error: --metrics-port {port}: address already in use" in capsys.readouterr().err

    def test_count_failure_stops_the_metrics_server(self, tmp_path, capsys):
        """A missing second ``--input`` must not leave the thread and the port to the caller."""
        import socket
        import threading

        from repro.cli import main

        fastq = self._write_fastq(tmp_path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc = main(
            ["count", "--input", str(fastq), str(tmp_path / "missing.fastq"), "-k", "15", "--nodes", "2",
             "--metrics-port", str(port), "--metrics-hold", "0"]
        )
        assert rc == 2
        assert "missing.fastq" in capsys.readouterr().err
        assert not [t for t in threading.enumerate() if t.name == "repro-metrics"]
        MetricsServer(MetricRegistry(), port=port).stop()  # the port is free again

    def test_report_carries_wall_section_when_traced(self, tmp_path):
        from repro.cli import main
        from repro.telemetry import RunReport

        fastq = self._write_fastq(tmp_path)
        report_path = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        rc = main(
            ["count", "--input", str(fastq), "-k", "15", "--nodes", "2",
             "--trace", str(trace), "--report", str(report_path)]
        )
        assert rc == 0
        report = RunReport.load(report_path)
        assert report.wall and report.wall["busy_seconds"] > 0
