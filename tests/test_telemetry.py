"""Tests for the unified telemetry layer.

Covers the metric registry's data model and determinism contract, the
three exporters (JSON / Prometheus text / Chrome counter tracks), the
structured event log, run reports, and — most importantly — the
end-to-end instrumentation guarantees:

* report values match the engine's exact accounting bit for bit
  (exchange bytes == ``TrafficStats`` totals == ``exchanged_bytes``,
  imbalance == ``LoadStats``);
* model metrics are bit-identical across execution engines (sequential
  vs ``REPRO_PARALLEL`` thread pools), with only ``wall=True`` families
  allowed to differ;
* the BSP engine and the threaded SPMD engine agree on the metrics they
  share (communication volume, hash-table totals).
"""

from __future__ import annotations

import hashlib
import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.engine import EngineOptions, run_pipeline
from repro.core.incremental import DistributedCounter
from repro.core.sweep import sweep
from repro.dna.datasets import load_dataset
from repro.mpi.topology import ClusterSpec
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricRegistry,
    RunReport,
    SpanRecorder,
    active,
    configure_logging,
    event,
    json_snapshot,
    metric_trace_events,
    prometheus_text,
    run_trace_payload,
    session,
    trace_events,
    write_json,
    write_prometheus,
)
from repro.telemetry.log import parse_level
from repro.telemetry.report import REPORT_VERSION


@pytest.fixture(scope="module")
def reads():
    return load_dataset("ecoli30x", scale=0.05)


def _cluster(p: int) -> ClusterSpec:
    return ClusterSpec(name=f"tel-{p}r", n_nodes=1, ranks_per_node=p)


def _run(reads, *, p=4, mode="supermer", backend="gpu", parallel=1, **opt_kwargs):
    reg = MetricRegistry()
    result = run_pipeline(
        reads,
        _cluster(p),
        PipelineConfig(k=17, mode=mode),
        backend=backend,
        options=EngineOptions(parallel=parallel, telemetry=reg, **opt_kwargs),
    )
    return result, reg


# ---------------------------------------------------------------------------
# Registry data model
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricRegistry()
        c = reg.counter("events_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert reg.total("events_total") == 3.5

    def test_counter_rejects_decrease(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_labeled_children_are_independent(self):
        reg = MetricRegistry()
        reg.counter("bytes_total", op="a").inc(10)
        reg.counter("bytes_total", op="b").inc(5)
        assert reg.counter("bytes_total", op="a").value == 10
        assert reg.total("bytes_total") == 15

    def test_label_set_mismatch_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total", op="a")
        with pytest.raises(ValueError):
            reg.counter("x_total", phase="p")

    def test_kind_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricRegistry()
        for bad in ("", "9lead", "has space", "dash-ed"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_gauge_set_and_set_max(self):
        reg = MetricRegistry()
        g = reg.gauge("level")
        g.set(5)
        g.set(3)
        assert g.value == 3
        g.set_max(10)
        g.set_max(7)
        assert g.value == 10

    def test_histogram_buckets_inclusive_upper_bound(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", buckets=(1, 2, 4))
        h.observe(1)  # le="1" bucket (inclusive)
        h.observe(2)
        h.observe(100)  # overflow -> +Inf only
        snap = reg.snapshot()["lat"]["samples"][0]
        assert snap["buckets"] == [1, 1, 0, 1]
        assert snap["count"] == 3
        assert snap["sum"] == 103.0

    def test_histogram_observe_many_matches_loop(self):
        values = [1, 3, 3, 9, 200, 0.5]
        weights = [1, 2, 1, 4, 1, 3]
        reg_a, reg_b = MetricRegistry(), MetricRegistry()
        ha = reg_a.histogram("h")
        for v, w in zip(values, weights):
            ha.observe(v, weight=w)
        reg_b.histogram("h").observe_many(np.array(values), np.array(weights))
        assert reg_a.snapshot() == reg_b.snapshot()

    def test_histogram_default_buckets(self):
        reg = MetricRegistry()
        reg.histogram("h").observe(3)
        assert reg.snapshot()["h"]["buckets"] == [float(b) for b in DEFAULT_BUCKETS]

    def test_zero_valued_children_appear_in_snapshot(self):
        reg = MetricRegistry()
        reg.counter("x_total", op="never_incremented")
        samples = reg.snapshot()["x_total"]["samples"]
        assert samples == [{"labels": {"op": "never_incremented"}, "value": 0}]

    def test_snapshot_excludes_wall_families(self):
        reg = MetricRegistry()
        reg.counter("model_total").inc()
        reg.counter("wall_total", wall=True).inc()
        full = reg.snapshot()
        model = reg.snapshot(include_wall=False)
        assert "wall_total" in full
        assert "wall_total" not in model and "model_total" in model

    def test_snapshot_deterministic_ordering(self):
        def build(order):
            reg = MetricRegistry()
            for op in order:
                reg.counter("x_total", op=op).inc()
            reg.gauge("g").set(1)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])

    def test_clear_and_contains(self):
        reg = MetricRegistry()
        reg.counter("x_total")
        assert "x_total" in reg and len(reg) == 1
        reg.clear()
        assert "x_total" not in reg and len(reg) == 0


class TestSession:
    def test_active_is_none_by_default(self):
        assert active() is None

    def test_session_installs_and_restores(self):
        reg = MetricRegistry()
        with session(reg):
            assert active() is reg
        assert active() is None

    def test_sessions_nest(self):
        outer, inner = MetricRegistry(), MetricRegistry()
        with session(outer):
            with session(inner):
                assert active() is inner
            assert active() is outer


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestPrometheusExporter:
    def test_help_type_and_sample_lines(self):
        reg = MetricRegistry()
        reg.counter("requests_total", "Total requests", op="get").inc(3)
        text = prometheus_text(reg)
        assert "# HELP requests_total Total requests\n" in text
        assert "# TYPE requests_total counter\n" in text
        assert 'requests_total{op="get"} 3\n' in text

    def test_label_values_escaped(self):
        reg = MetricRegistry()
        reg.counter("x_total", label='quote " backslash \\ newline \n').inc()
        text = prometheus_text(reg)
        assert 'label="quote \\" backslash \\\\ newline \\n"' in text
        assert "\n\n" not in text  # the raw newline must not survive

    def test_histogram_is_cumulative_with_inf_sum_count(self):
        reg = MetricRegistry()
        h = reg.histogram("probe_len", "probes", buckets=(1, 2, 4))
        h.observe(1)
        h.observe(2)
        h.observe(2)
        h.observe(50)
        lines = prometheus_text(reg).splitlines()
        assert 'probe_len_bucket{le="1"} 1' in lines
        assert 'probe_len_bucket{le="2"} 3' in lines  # cumulative, not per-bucket
        assert 'probe_len_bucket{le="4"} 3' in lines
        assert 'probe_len_bucket{le="+Inf"} 4' in lines
        assert "probe_len_sum 55" in lines
        assert "probe_len_count 4" in lines

    def test_include_wall_filter(self):
        reg = MetricRegistry()
        reg.counter("wall_x_total", wall=True).inc()
        assert "wall_x_total" in prometheus_text(reg)
        assert prometheus_text(reg, include_wall=False) == ""

    def test_write_prometheus_roundtrip(self, tmp_path):
        reg = MetricRegistry()
        reg.gauge("g").set(1.5)
        path = write_prometheus(reg, tmp_path / "m.prom")
        assert path.read_text() == prometheus_text(reg)

    def test_engine_registry_renders_cleanly(self, reads):
        _, reg = _run(reads)
        text = prometheus_text(reg)
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None


class TestJsonAndTraceExport:
    def test_write_json_roundtrip(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("x_total", op="a").inc(2)
        path = write_json(reg, tmp_path / "m.json")
        assert json.loads(path.read_text()) == json_snapshot(reg)

    def test_metric_trace_events_shape(self, reads):
        result, reg = _run(reads)
        events = metric_trace_events(reg, result=result)
        assert events and all(e["ph"] == "C" for e in events)
        # Phase-labeled metrics are stamped at their phase start time.
        count_ts = [
            e["ts"]
            for e in events
            if e["name"] == "phase_model_seconds_total" and "phase=count" in str(e["args"])
        ]
        assert count_ts and count_ts[0] == pytest.approx(
            (result.timing.parse + result.timing.exchange) * 1e6
        )

    def test_run_trace_payload_merges_counter_tracks(self, reads):
        result, reg = _run(reads)
        payload = run_trace_payload(None, result=result, registry=reg)
        phs = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phs and "C" in phs


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_silent_by_default(self, capsys):
        event("tele.test", n=1)
        assert capsys.readouterr().err == ""

    def test_configured_events_render_key_values(self, capsys):
        logger = configure_logging("debug")
        try:
            event("tele.test", n=3, label="plain", msg="has spaces")
            err = capsys.readouterr().err
            assert "tele.test n=3 label=plain" in err
            assert 'msg="has spaces"' in err
        finally:
            logger.setLevel(logging.CRITICAL)

    def test_parse_level(self):
        assert parse_level("info") == logging.INFO
        assert parse_level("DEBUG") == logging.DEBUG
        assert parse_level("30") == 30
        with pytest.raises(ValueError):
            parse_level("loud")

    def test_cli_log_level_emits_engine_events(self, reads, capsys, tmp_path):
        fastq = tmp_path / "in.fastq"
        assert main(["simulate", "--genome-length", "4000", "--coverage", "4", "--out", str(fastq)]) == 0
        try:
            assert main(["--log-level", "info", "count", "--input", str(fastq), "--nodes", "2"]) == 0
            err = capsys.readouterr().err
            assert "counter.batch" in err
        finally:
            configure_logging("info").setLevel(logging.CRITICAL)

    def test_checkpoints_are_an_event_and_two_wall_counters(self, reads, capsys, tmp_path):
        """A save or load that takes seconds must not be invisible."""
        reg = MetricRegistry()
        cfg = PipelineConfig(k=17)
        counter = DistributedCounter(_cluster(4), cfg, options=EngineOptions(telemetry=reg))
        counter.add_reads(reads)
        configure_logging("info")
        try:
            path = counter.save(tmp_path / "ck.npz")
            DistributedCounter(_cluster(4), cfg).load(path)
            err = capsys.readouterr().err
        finally:
            configure_logging("info").setLevel(logging.CRITICAL)
        size = path.stat().st_size
        assert f"counter.checkpoint op=save bytes={size} seconds=" in err and "batches=1" in err
        assert f"counter.checkpoint op=load bytes={size} seconds=" in err
        assert reg.counter("checkpoint_bytes_written_total", wall=True).value == size
        assert reg.counter("checkpoint_seconds_total", wall=True, op="save").value > 0
        assert "checkpoint_bytes_written_total" not in reg.snapshot(include_wall=False)  # not a model metric


# ---------------------------------------------------------------------------
# Engine integration: reports match exact accounting
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_report_matches_traffic_and_load_stats(self, reads):
        result, reg = _run(reads, p=6)
        report = RunReport.from_result(result, registry=reg)
        # Table II: exchange bytes in the report ARE the exact accounting.
        assert report.exchange["bytes"] == result.exchanged_bytes
        assert report.exchange["traffic_bytes"] == result.traffic.total_bytes()
        assert report.exchange["items"] == result.exchanged_items
        # Table III: imbalance is LoadStats', not recomputed.
        assert report.load["imbalance"] == result.load_stats().imbalance
        assert report.load["received_per_rank"] == [int(v) for v in result.received_kmers]

    def test_registry_totals_match_result(self, reads):
        result, reg = _run(reads, p=6)
        assert reg.total("exchange_bytes_total") == result.exchanged_bytes
        assert reg.total("exchange_items_total") == result.exchanged_items
        # The engine asserts parsed == counted, so the parse counter must
        # equal the spectrum's total instance count.
        assert reg.total("kmers_parsed_total") == result.spectrum.n_total
        assert reg.gauge("load_imbalance", engine="gpu").value == result.load_stats().imbalance
        # Hash-table counters account for every received k-mer instance.
        assert reg.total("hashtable_instances_total") == int(result.received_kmers.sum())
        assert reg.total("hashtable_distinct_total") == result.spectrum.n_distinct

    def test_phase_metrics_match_timing(self, reads):
        result, reg = _run(reads)
        t = result.timing
        for phase, expected in (("parse", t.parse), ("exchange", t.exchange), ("count", t.count)):
            assert reg.counter(
                "phase_model_seconds_total", engine="gpu", phase=phase
            ).value == pytest.approx(expected)

    def test_probe_histogram_counts_distinct_inserts(self, reads):
        result, reg = _run(reads, p=2, mode="kmer")
        snap = reg.snapshot()["hashtable_probe_length"]
        total = sum(s["count"] for s in snap["samples"])
        assert total == result.insert_stats.n_instances
        probes = sum(s["sum"] for s in snap["samples"])
        assert probes == pytest.approx(result.insert_stats.total_probes)

    def test_multi_round_metrics(self, reads):
        reg = MetricRegistry()
        run_pipeline(
            reads,
            _cluster(4),
            PipelineConfig(k=17, mode="supermer", n_rounds=3),
            backend="gpu",
            options=EngineOptions(telemetry=reg),
        )
        assert reg.total("exchange_rounds_total") == 3
        rounds = {s["labels"]["round"] for s in reg.snapshot()["exchange_model_seconds_total"]["samples"]}
        assert rounds == {"0", "1", "2"}

    def test_wall_metrics_recorded_without_explicit_recorder(self, reads):
        _, reg = _run(reads)
        full = reg.snapshot()
        assert "wall_phase_seconds_total" in full
        assert full["wall_overlap_factor"]["wall"] is True

    def test_explicit_recorder_feeds_report_wall_section(self, reads):
        rec = SpanRecorder()
        reg = MetricRegistry()
        result = run_pipeline(
            reads,
            _cluster(4),
            PipelineConfig(k=17),
            backend="gpu",
            options=EngineOptions(telemetry=reg, trace=rec),
        )
        report = RunReport.from_result(result, registry=reg, recorder=rec)
        assert report.wall["busy_seconds"] > 0
        assert "parse" in report.wall["phases"]

    def test_telemetry_off_is_truly_off(self, reads):
        result = run_pipeline(reads, _cluster(2), PipelineConfig(k=17), backend="gpu")
        assert result.spectrum.n_distinct > 0
        assert active() is None


# ---------------------------------------------------------------------------
# Cross-engine determinism
# ---------------------------------------------------------------------------


class TestCrossEngineMetrics:
    pytestmark = pytest.mark.engines

    @pytest.mark.parametrize("mode", ["kmer", "supermer"])
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    def test_model_metrics_identical_sequential_vs_parallel(self, reads, backend, mode):
        """The acceptance bar: bit-identical model snapshots across engines."""
        _, seq = _run(reads, p=6, mode=mode, backend=backend, parallel=1)
        _, par = _run(reads, p=6, mode=mode, backend=backend, parallel=4)
        a = json.dumps(seq.snapshot(include_wall=False), sort_keys=True)
        b = json.dumps(par.snapshot(include_wall=False), sort_keys=True)
        assert a == b

    def test_wall_families_exist_in_both(self, reads):
        _, seq = _run(reads, parallel=1)
        _, par = _run(reads, parallel=4)
        for reg in (seq, par):
            assert "wall_elapsed_seconds" in reg
            assert "pool_map_calls_total" in reg

    def test_bsp_and_spmd_agree_on_shared_metrics(self, reads):
        """The two renderings feed the same comm and hash-table families, in both modes."""
        from repro.core.spmd import count_spmd

        p = 4
        for mode in ("kmer", "supermer"):
            _, bsp = _run(reads, p=p, mode=mode)
            spmd_reg = MetricRegistry()
            with session(spmd_reg):
                spectrum = count_spmd(reads, p, PipelineConfig(k=17, mode=mode))
            assert spectrum.n_distinct > 0
            # Same total alltoallv volume, byte for byte and item for item —
            # except that supermer mode's lengths ride a second alltoallv
            # (Algorithm 2's pair of ALLTOALLV calls), whose items count again.
            bsp_bytes, spmd_bytes = (
                reg.counter("comm_bytes_total", op="alltoallv").value for reg in (bsp, spmd_reg)
            )
            bsp_items, spmd_items = (
                reg.counter("comm_items_total", op="alltoallv").value for reg in (bsp, spmd_reg)
            )
            assert bsp_bytes == spmd_bytes, mode
            assert bsp_items * (2 if mode == "supermer" else 1) == spmd_items, mode
            # The same inserts into the same tables: every hashtable_* model family agrees.
            bsp_snap, spmd_snap = bsp.snapshot(include_wall=False), spmd_reg.snapshot(include_wall=False)
            for fam in (
                "hashtable_inserts_total",
                "hashtable_instances_total",
                "hashtable_distinct_total",
                "hashtable_cas_conflicts_total",
                "hashtable_resizes_total",
                "hashtable_probe_length",
            ):
                assert bsp_snap[fam] == spmd_snap[fam], (mode, fam)


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


class TestRunReport:
    def test_roundtrip(self, reads, tmp_path):
        result, reg = _run(reads)
        report = RunReport.from_result(result, registry=reg)
        path = report.save(tmp_path / "r.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.version == REPORT_VERSION

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            RunReport.load(path)

    def test_render_contains_paper_tables(self, reads):
        result, reg = _run(reads)
        text = RunReport.from_result(result, registry=reg).render()
        assert "Phase breakdown (Fig. 3" in text
        assert "Exchange volume (Table II)" in text
        assert "Load balance (Table III)" in text
        assert "Hash table (Fig. 7 inputs)" in text

    #: sha256 of the ``run``/``phases``/``exchange``/``load``/``gpu`` sections
    #: (``json.dumps(sort_keys=True)``) of the two fixed runs below, taken when
    #: ``from_result`` and ``from_counter`` still built every section apart.
    SECTION_DIGESTS = {
        "one-shot": "ae884279581762a64722b2c79bb6da21b3fd8264705bfd01ed6605323c29f612",
        "counter": "c41b24001311eabd16f672eb95e4af85d9b17582e62a8af56830e670f5a37e7a",
    }

    @pytest.mark.parametrize("kind", ["one-shot", "counter"])
    def test_shared_sections_are_pinned_and_feed_the_trace(self, reads, kind):
        if kind == "one-shot":
            source = run_pipeline(reads, _cluster(4), PipelineConfig(k=17, mode="supermer"))
            report = RunReport.from_result(source)
            meta = run_trace_payload(None, result=source)["metadata"]
        else:
            source = DistributedCounter(_cluster(4), PipelineConfig(k=17))
            for batch in reads.shard(2):
                source.add_reads(batch)
            report = RunReport.from_counter(source)
            meta = run_trace_payload(None, counter=source)["metadata"]
        sections = {name: getattr(report, name) for name in ("run", "phases", "exchange", "load", "gpu")}
        digest = hashlib.sha256(json.dumps(sections, sort_keys=True).encode()).hexdigest()
        assert digest == self.SECTION_DIGESTS[kind]
        # The trace carries the report's own sections, not a second copy of run identity.
        assert meta["run"] == {k: v for k, v in report.run.items() if k != "distinct_kmers"}
        assert meta["phases"] and all(report.phases[k] == v for k, v in meta["phases"].items())

    def test_from_counter(self, reads):
        reg = MetricRegistry()
        counter = DistributedCounter(
            _cluster(4), PipelineConfig(k=17), backend="gpu", options=EngineOptions(telemetry=reg)
        )
        for batch in reads.shard(2):
            counter.add_reads(batch)
        report = RunReport.from_counter(counter, registry=reg)
        assert report.run["batches"] == 2
        assert report.exchange["items"] == counter.exchanged_items
        assert report.load["imbalance"] == counter.load_stats().imbalance
        assert report.metrics["batches_total"]["samples"][0]["value"] == 2


# ---------------------------------------------------------------------------
# Sweeps, bench layer, CLI
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_sweep_attaches_reports(self, reads):
        out = sweep(reads, node_counts=(1,), modes=("kmer", "supermer"), telemetry=True)
        assert len(out.reports) == len(out.results) == 2
        for report, result in zip(out.reports, out.results):
            assert report.exchange["items"] == result.exchanged_items
            assert report.metrics  # snapshot attached

    def test_sweep_without_telemetry_has_no_reports(self, reads):
        out = sweep(reads, node_counts=(1,), modes=("kmer",))
        assert out.reports == []

    def test_experiment_cache_reports(self):
        from repro.bench.runner import ExperimentCache

        cache = ExperimentCache(scale=0.02, telemetry=True)
        cache.run("ecoli30x", n_nodes=1, mode="kmer")
        (key,) = cache.reports
        assert cache.reports[key].run["backend"] == "gpu"

    def test_write_report_quiet(self, tmp_path, capsys):
        from repro.bench.reporting import write_report

        path = write_report("tele_exp", "table text", results_dir=tmp_path, quiet=True)
        assert capsys.readouterr().out == ""
        assert path.read_text() == "table text\n"
        write_report("tele_exp", "table text", results_dir=tmp_path)
        assert "tele_exp" in capsys.readouterr().out

    def test_cli_count_report_and_metrics(self, tmp_path, capsys):
        fastq = tmp_path / "in.fastq"
        assert main(["simulate", "--genome-length", "5000", "--coverage", "5", "--out", str(fastq)]) == 0
        report = tmp_path / "report.json"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "count",
                "--input",
                str(fastq),
                "--nodes",
                "2",
                "--report",
                str(report),
                "--metrics-out",
                str(prom),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["version"] == REPORT_VERSION
        assert payload["exchange"]["items"] > 0
        assert payload["metrics"]  # registry snapshot embedded
        text = prom.read_text()
        assert "# TYPE phase_model_seconds_total counter" in text
        assert "hashtable_probe_length_bucket" in text

    def test_cli_report_renders(self, tmp_path, capsys, reads):
        result, reg = _run(reads)
        path = RunReport.from_result(result, registry=reg).save(tmp_path / "r.json")
        assert main(["report", "--report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Load balance (Table III)" in out


# ---------------------------------------------------------------------------
# Satellite regressions: empty SpanRecorder
# ---------------------------------------------------------------------------


class TestEmptyRecorder:
    def test_overlap_factor_neutral(self):
        assert SpanRecorder().overlap_factor() == 1.0

    def test_wall_trace_events_empty(self):
        assert trace_events(recorder=SpanRecorder()) == []

    def test_zero_length_spans_stay_neutral(self):
        rec = SpanRecorder()
        rec.record("parse", 0, 5.0, 5.0)
        assert rec.overlap_factor() == 1.0
