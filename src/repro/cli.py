"""Command-line interface.

Implemented as a general-purpose tool, per the paper's conclusion
("Implemented as a general purpose k-mer counter, our tool can be used for
counting k-mers in single genome, a microbial community...").  Subcommands:

``repro datasets``
    List the synthetic Table I dataset registry.
``repro machines``
    List the registered machine models (``repro count --machine`` accepts
    any of them, or a TOML/JSON calibration file; see docs/MACHINES.md).
``repro simulate``
    Generate a synthetic dataset (registry entry or custom genome) as FASTQ.
``repro count``
    Count k-mers from a FASTQ/FASTA file on the simulated distributed
    system; write a binary k-mer database and/or TSV; print the run summary.
``repro spectrum``
    Inspect a k-mer database: genomic profile and multiplicity histogram.
``repro compare``
    Run the paper's CPU/kmer/supermer comparison on one dataset and print
    the Fig. 6/7-style table.
``repro plan``
    Capacity planner: rank (machine, node count) candidates for a dataset
    under a node budget by node-cost-weighted model time.
``repro report``
    Render a saved telemetry run report (``repro count --report``) as the
    paper-style breakdown tables.
``repro analyze``
    Run anatomy from a ``repro count --trace`` file: per-round critical
    path, straggler/barrier-wait attribution, wall-vs-model divergence,
    and the embedded cProfile report (``--profile``).

All subcommands are plain functions over parsed arguments, so the test
suite drives them through :func:`main` with string argv lists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .bench.reporting import format_table
from .bench.runner import dataset_with_multiplier
from .core.config import PipelineConfig, paper_config
from .core.driver import run_paper_comparison
from .core.stages.registry import substrate_names
from .dna.datasets import DATASET_NAMES, TABLE1, load_dataset
from .dna.fastq import read_fasta, read_fastq, sniff_format, write_fastq
from .dna.reads import ReadSet
from .dna.simulate import ReadLengthProfile, reads_to_records, simulate_dataset
from .kmers.genomics import profile_spectrum
from .kmers.kmerdb import read_kmerdb, write_kmerdb, write_tsv
from .telemetry import MetricRegistry, RunReport, configure_logging, write_prometheus

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-memory k-mer counting on simulated GPUs (IPDPS 2021 reproduction).",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="enable the repro.telemetry event log at this level (overrides REPRO_LOG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic Table I datasets")

    sub.add_parser("machines", help="list the registered machine models")

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset as FASTQ")
    p_sim.add_argument("--out", required=True, help="output FASTQ path (.gz supported)")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=DATASET_NAMES, help="a Table I registry entry")
    group.add_argument("--genome-length", type=int, help="custom genome length (bp)")
    p_sim.add_argument("--scale", type=float, default=1.0, help="registry scale factor")
    p_sim.add_argument("--coverage", type=float, default=30.0, help="custom: sequencing depth")
    p_sim.add_argument("--read-length", type=int, default=2000, help="custom: mean read length")
    p_sim.add_argument("--error-rate", type=float, default=0.01, help="custom: substitution rate")
    p_sim.add_argument("--repeat-fraction", type=float, default=0.1, help="custom: genome repeat content")
    p_sim.add_argument("--seed", type=int, default=0)

    p_count = sub.add_parser("count", help="count k-mers on the simulated distributed system")
    p_count.add_argument(
        "--input", required=True, nargs="+", help="FASTQ/FASTA input file(s) (.gz supported); counted into one histogram"
    )
    p_count.add_argument(
        "--checkpoint",
        help="counter state file: loaded if present (resume; a damaged or older-format file is an "
        "error), saved after every input file",
    )
    p_count.add_argument("-k", type=int, default=17, help="k-mer length (2-31)")
    p_count.add_argument(
        "--machine",
        default=None,
        help="machine model: a registered preset (see 'repro machines') or a "
        "TOML/JSON calibration file; default picks the paper's Summit layout "
        "for the chosen backend",
    )
    p_count.add_argument(
        "--nodes", type=int, default=4, help="node count to instantiate the machine at (machine override)"
    )
    p_count.add_argument(
        "--backend",
        default="gpu",
        help="execution backend from the stage registry: a substrate name "
        f"({', '.join(substrate_names())}) or '<substrate>:<mode>'",
    )
    p_count.add_argument("--mode", choices=["kmer", "supermer"], default="supermer")
    p_count.add_argument(
        "--stages",
        default="",
        help="comma-separated extension stages from the stage registry "
        "(e.g. 'bloom,balanced'); see docs/ARCHITECTURE.md",
    )
    p_count.add_argument("-m", "--minimizer-len", type=int, default=7)
    p_count.add_argument("--window", type=int, default=None, help="supermer window (default: max packable)")
    p_count.add_argument("--ordering", default="random-base", choices=["lexicographic", "kmc2", "random-base"])
    p_count.add_argument("--canonical", action="store_true", help="count canonical (strand-neutral) k-mers")
    p_count.add_argument("--gpudirect", action="store_true", help="skip CPU staging copies")
    p_count.add_argument("--rounds", type=int, default=1, help="memory-bounded exchange rounds")
    p_count.add_argument(
        "--fused",
        action="store_true",
        help="gather the exchange straight out of the one send array (bit-identical results; see docs/PERFORMANCE.md)",
    )
    p_count.add_argument(
        "--spill",
        metavar="DIR",
        default=None,
        help="spool exchange partitions to this directory and count out of core "
        "(bit-identical results; see docs/PERFORMANCE.md)",
    )
    p_count.add_argument(
        "--memory-limit",
        metavar="BYTES",
        type=int,
        default=None,
        help="host-memory target per rank in bytes: splits the exchange into enough "
        "rounds that one round's working set fits (combine with --spill to cap RSS)",
    )
    p_count.add_argument(
        "--table-dir",
        metavar="DIR",
        default=None,
        help="back the hash tables with np.memmap slabs in this directory so they "
        "can exceed RAM (bit-identical)",
    )
    p_count.add_argument(
        "--profile",
        nargs="?",
        const=15,
        type=int,
        default=None,
        metavar="N",
        help="profile the run with cProfile and print the top N cumulative hotspots (default 15); "
        "with --trace the report is embedded in the trace for 'repro analyze --profile' instead",
    )
    p_count.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record hierarchical wall-clock spans and write the combined repro-trace/1 JSON "
        "here (Chrome/Perfetto-loadable; analyze with 'repro analyze')",
    )
    p_count.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve live Prometheus metrics plus progress/ETA gauges on this port while the "
        "run is in flight (0 picks a free port; implies a metric registry)",
    )
    p_count.add_argument(
        "--metrics-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the --metrics-port endpoint up this long after counting finishes "
        "(lets a scraper catch a short run; used by the CI smoke)",
    )
    p_count.add_argument("--out-db", help="write binary k-mer database here")
    p_count.add_argument("--out-tsv", help="write kmer<TAB>count text here")
    p_count.add_argument("--report", help="write a structured telemetry run report (JSON) here")
    p_count.add_argument("--metrics-out", help="write the metric registry in Prometheus text format here")
    p_count.add_argument("--min-count", type=int, default=1, help="only export k-mers with count >= this")
    p_count.add_argument("--min-read-length", type=int, default=0, help="drop reads shorter than this after trimming")
    p_count.add_argument("--min-read-quality", type=float, default=0.0, help="drop reads with mean quality below this")
    p_count.add_argument("--trim-quality", type=int, default=None, help="trim read ends below this Phred score")

    p_spec = sub.add_parser("spectrum", help="inspect a k-mer database")
    p_spec.add_argument("--db", required=True, help="binary k-mer database from 'repro count'")
    p_spec.add_argument("--histogram", action="store_true", help="print the multiplicity histogram")
    p_spec.add_argument("--top", type=int, default=0, help="print the N most frequent k-mers")

    p_cmp = sub.add_parser("compare", help="run the paper's pipeline comparison on one dataset")
    p_cmp.add_argument("--dataset", choices=DATASET_NAMES, default="abaumannii30x")
    p_cmp.add_argument("--nodes", type=int, default=16, help="node count to instantiate the machines at")
    p_cmp.add_argument("--scale", type=float, default=1.0)
    p_cmp.add_argument("--no-cpu", action="store_true", help="skip the (slow) CPU baseline")

    p_plan = sub.add_parser("plan", help="recommend the cost-optimal cluster for a dataset")
    p_plan.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    p_plan.add_argument(
        "--budget-nodes", type=int, required=True, help="maximum nodes the allocation may use"
    )
    p_plan.add_argument(
        "--machine",
        action="append",
        default=None,
        metavar="NAME",
        help="candidate machine (preset or calibration file); repeatable; "
        "default considers every registered preset",
    )
    p_plan.add_argument("--scale", type=float, default=0.05, help="dataset scale for the measured runs")
    p_plan.add_argument(
        "--mode", choices=["kmer", "supermer"], default="supermer", help="transport mode to plan for"
    )
    p_plan.add_argument(
        "--min-nodes", type=int, default=1, help="skip candidates below this node count"
    )

    p_dist = sub.add_parser("distance", help="k-mer distances between two k-mer databases")
    p_dist.add_argument("--db-a", required=True)
    p_dist.add_argument("--db-b", required=True)
    p_dist.add_argument("--min-count", type=int, default=1, help="compare only k-mers with count >= this")

    p_rep = sub.add_parser("report", help="render a saved telemetry run report")
    p_rep.add_argument("--report", required=True, help="JSON report from 'repro count --report'")

    p_an = sub.add_parser(
        "analyze",
        help="run anatomy from a trace: critical path, stragglers, wall-vs-model divergence",
    )
    p_an.add_argument("--trace", required=True, help="repro-trace/1 JSON from 'repro count --trace'")
    p_an.add_argument("--json", metavar="PATH", default=None, help="also write the analysis as JSON here")
    p_an.add_argument(
        "--profile",
        action="store_true",
        help="print the cProfile report embedded by 'repro count --trace --profile'",
    )

    return parser


def _load_reads(path: str) -> ReadSet:
    fmt = sniff_format(path)
    records = read_fastq(path) if fmt == "fastq" else read_fasta(path)
    return ReadSet.from_records(records)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.species,
            f"{spec.coverage:.0f}x",
            f"{spec.real_fastq_bytes / 1e6:,.0f} MB",
            spec.real_kmers,
            spec.scaled_kmers,
        ]
        for spec in TABLE1.values()
    ]
    print(format_table(["name", "species", "cov", "fastq (paper)", "k-mers (paper)", "k-mers (scaled)"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.dataset:
        reads = load_dataset(args.dataset, scale=args.scale, seed=args.seed or None)
    else:
        reads = simulate_dataset(
            genome_length=args.genome_length,
            coverage=args.coverage,
            length_profile=ReadLengthProfile.long_read(mean=args.read_length),
            repeat_fraction=args.repeat_fraction,
            error_rate=args.error_rate,
            seed=args.seed,
        )
    n = write_fastq(args.out, reads_to_records(reads))
    print(f"wrote {n} reads / {reads.total_bases:,} bases to {args.out}")
    return 0


def _load_one(path: str, args: argparse.Namespace) -> ReadSet:
    if args.min_read_length or args.min_read_quality or args.trim_quality is not None:
        from .dna.quality import QualityFilter

        fmt = sniff_format(path)
        stream = read_fastq(path) if fmt == "fastq" else read_fasta(path)
        qfilter = QualityFilter(
            min_length=args.min_read_length,
            min_mean_quality=args.min_read_quality,
            trim_end_quality=args.trim_quality,
        )
        reads = ReadSet.from_records(qfilter.apply(stream))
        print(f"{path}: quality filter kept {reads.n_reads} reads / {reads.total_bases:,} bases")
        return reads
    return _load_reads(path)


def _profile_call(fn, *, top: int) -> str:
    """Run ``fn`` under cProfile; return the top-``top`` cumulative hotspots."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(max(1, top))
    lines = [ln.rstrip() for ln in buf.getvalue().splitlines() if ln.strip()]
    return "\n".join(["host-time profile (cProfile, cumulative):", *("  " + ln for ln in lines)])


def _cmd_machines(_args: argparse.Namespace) -> int:
    from .machines import get_machine, machine_names

    rows = []
    for name in machine_names():
        m = get_machine(name)
        rows.append(
            [
                name,
                m.effective_ranks_per_node,
                m.device.name if m.device is not None else "-",
                f"{m.injection_bw / 1e9:.0f} GB/s",
                m.description,
            ]
        )
    print(format_table(["name", "ranks/node", "device", "injection", "description"], rows))
    print("use: repro count --machine <name>  (or a .toml/.json calibration file; see docs/MACHINES.md)")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from .core.engine import EngineOptions
    from .core.incremental import DistributedCounter
    from .machines import resolve_machine
    from .mpi.topology import cluster_for

    config = PipelineConfig(
        k=args.k,
        mode=args.mode,
        minimizer_len=args.minimizer_len,
        window=args.window,
        ordering=args.ordering,
        canonical=args.canonical,
        gpudirect=args.gpudirect,
        n_rounds=args.rounds,
    )
    substrate = args.backend.split(":", 1)[0]
    default_preset = "summit-cpu" if substrate == "cpu" else "summit-gpu"
    machine = resolve_machine(args.machine, default=default_preset)
    cluster = cluster_for(machine, args.nodes)
    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    registry = (
        MetricRegistry()
        if (args.report or args.metrics_out or args.metrics_port is not None)
        else None
    )
    options = EngineOptions(
        machine=machine,
        telemetry=registry,
        stages=stages,
        fused=args.fused,
        spill_dir=args.spill,
        table_dir=args.table_dir,
        host_memory_budget=args.memory_limit,
        trace=True if args.trace else None,
    )
    counter = DistributedCounter(cluster, config, backend=args.backend, options=options)
    if args.checkpoint and Path(args.checkpoint).exists():
        counter.load(args.checkpoint)
        print(f"resumed from {args.checkpoint}: {counter.n_batches} batches, {counter.total_kmers:,} k-mers")

    if args.metrics_port is None:
        return _count_and_write(args, counter, options, registry)
    from .telemetry import MetricsServer

    try:
        server = MetricsServer(registry, port=args.metrics_port)
    except OSError as exc:
        reason = (exc.strerror or str(exc)).lower()
        raise ValueError(f"--metrics-port {args.metrics_port}: {reason}") from exc
    with server:  # the thread and the port are released however the count ends
        print(f"serving live metrics at {server.url}/metrics", flush=True)
        code = _count_and_write(args, counter, options, registry)
        if args.metrics_hold > 0:
            from time import sleep

            sleep(args.metrics_hold)  # window for a post-run scrape (CI smoke)
    return code


def _count_and_write(args: argparse.Namespace, counter, options, registry: MetricRegistry | None) -> int:
    """Count every ``--input`` into ``counter`` and write the requested outputs."""

    def _count_inputs() -> None:
        from time import monotonic, time

        n_inputs = len(args.input)
        t_start = monotonic()
        if registry is not None:
            registry.gauge("progress_inputs_total", "Input files in this run", wall=True).set(
                n_inputs
            )
        for i, path in enumerate(args.input):
            batch_timing = counter.add_reads(_load_one(path, args))
            print(f"{path}: counted in {batch_timing.total:.3f} model seconds")
            if registry is not None:
                done = i + 1
                elapsed = monotonic() - t_start
                registry.gauge("progress_inputs_done", "Input files counted so far", wall=True).set(done)
                registry.gauge("progress_fraction", "Fraction of input files counted", wall=True).set(
                    done / n_inputs
                )
                registry.gauge(
                    "progress_eta_seconds", "Projected wall seconds to finish remaining inputs", wall=True
                ).set(elapsed / done * (n_inputs - done))
                registry.gauge(
                    "heartbeat_timestamp_seconds", "Unix time of the last progress update", wall=True
                ).set(time())
            if args.checkpoint:
                counter.save(args.checkpoint)

    profile_text = None
    if args.profile is not None:
        profile_text = _profile_call(_count_inputs, top=args.profile)
        if args.trace:
            # One report, not two: the rendering rides inside the trace and
            # `repro analyze --trace ... --profile` prints it with the anatomy.
            print("profile embedded in trace (render with 'repro analyze --profile')")
        else:
            print(profile_text)
    else:
        _count_inputs()

    spectrum_full = counter.spectrum()
    loads = counter.load_stats()
    rows = [
        ["inputs", len(args.input)],
        ["total_kmers", counter.total_kmers],
        ["distinct_kmers", spectrum_full.n_distinct],
        ["parse_s", f"{counter.timing.parse:,.4f}"],
        ["exchange_s", f"{counter.timing.exchange:,.4f}"],
        ["count_s", f"{counter.timing.count:,.4f}"],
        ["total_s", f"{counter.timing.total:,.4f}"],
        ["exchanged_items", counter.exchanged_items],
        ["load_imbalance", f"{loads.imbalance:.4f}"],
    ]
    print(format_table(["metric", "value"], rows, title=f"count of {', '.join(args.input)}"))

    if args.report:
        report_path = RunReport.from_counter(
            counter, registry=registry, recorder=options.trace
        ).save(args.report)
        print(f"wrote run report to {report_path}")
    if args.metrics_out:
        write_prometheus(registry, args.metrics_out)
        print(f"wrote {len(registry)} metric families to {args.metrics_out}")
    if args.trace:
        from .core.tracing import write_run_trace

        trace_path = write_run_trace(
            args.trace, options.trace, counter=counter, registry=registry, profile_text=profile_text
        )
        print(f"wrote {len(options.trace)} work spans to {trace_path} (view: ui.perfetto.dev; analyze: repro analyze)")

    spectrum = spectrum_full if args.min_count <= 1 else spectrum_full.frequent(args.min_count)
    if args.out_db:
        nbytes = write_kmerdb(args.out_db, spectrum)
        print(f"wrote {spectrum.n_distinct:,} k-mers ({nbytes:,} bytes) to {args.out_db}")
    if args.out_tsv:
        write_tsv(args.out_tsv, spectrum)
        print(f"wrote {spectrum.n_distinct:,} k-mers to {args.out_tsv}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spectrum = read_kmerdb(args.db)
    profile = profile_spectrum(spectrum)
    print(profile.describe())
    print(
        f"{spectrum.n_distinct:,} distinct / {spectrum.n_total:,} total k-mers; "
        f"singletons {profile.singleton_fraction:.1%}"
    )
    if args.histogram:
        mult, freq = spectrum.multiplicity_histogram()
        peak = int(freq.max()) if freq.size else 1
        for m_val, f_val in list(zip(mult.tolist(), freq.tolist()))[:30]:
            bar = "#" * max(1, int(50 * f_val / peak))
            print(f"  {m_val:>6}: {f_val:>10,} {bar}")
    if args.top:
        from .dna.encoding import kmer_to_string

        vals, counts = spectrum.top(args.top)
        for v, c in zip(vals.tolist(), counts.tolist()):
            print(f"  {kmer_to_string(v, spectrum.k)}\t{c}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reads, mult = dataset_with_multiplier(args.dataset, scale=args.scale)
    results = run_paper_comparison(
        reads,
        n_nodes=args.nodes,
        include_cpu_baseline=not args.no_cpu,
        work_multiplier=mult,
    )
    baseline = results.get("cpu") or results["kmer"]
    rows = []
    for label, r in results.items():
        rows.append(
            [
                label,
                f"{r.timing.parse:.2f}",
                f"{r.timing.exchange:.2f}",
                f"{r.timing.count:.2f}",
                f"{r.timing.total:.2f}",
                f"{r.speedup_over(baseline):.1f}x",
                r.exchanged_items,
                f"{r.load_stats().imbalance:.2f}",
            ]
        )
    print(
        format_table(
            ["pipeline", "parse_s", "exchange_s", "count_s", "total_s", "speedup", "items", "imbalance"],
            rows,
            title=f"{args.dataset} at {args.nodes} nodes (full-scale model seconds)",
        )
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.plan import plan_capacity

    reads, mult = dataset_with_multiplier(args.dataset, scale=args.scale)
    plan = plan_capacity(
        reads,
        budget_nodes=args.budget_nodes,
        machines=tuple(args.machine) if args.machine else None,
        config=paper_config(mode=args.mode),
        work_multiplier=mult,
        dataset=args.dataset,
        min_nodes=args.min_nodes,
    )
    print(plan.render())
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    from .kmers.comparison import compare_spectra

    a = read_kmerdb(args.db_a)
    b = read_kmerdb(args.db_b)
    if args.min_count > 1:
        a, b = a.frequent(args.min_count), b.frequent(args.min_count)
    cmp = compare_spectra(a, b)
    print(cmp.describe())
    rows = [
        ["jaccard", f"{cmp.jaccard:.4f}"],
        ["weighted jaccard", f"{cmp.weighted_jaccard:.4f}"],
        ["containment A in B", f"{cmp.containment_a_in_b:.4f}"],
        ["containment B in A", f"{cmp.containment_b_in_a:.4f}"],
        ["mash distance", f"{cmp.mash_distance:.5f}" if cmp.mash_distance != float("inf") else "inf"],
    ]
    print(format_table(["measure", "value"], rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(RunReport.load(args.report).render())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .core.analysis import analyze_spans
    from .core.tracing import TRACE_SCHEMA

    payload = json.loads(Path(args.trace).read_text())
    meta = payload.get("metadata") or {}
    schema = meta.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"{args.trace}: not a {TRACE_SCHEMA} file (schema={schema!r})")
    spans = payload.get("spans") or []
    if not spans:
        raise ValueError(
            f"{args.trace}: trace has no spans — produce one with 'repro count --trace PATH'"
        )
    phases = meta.get("phases") or None
    report = analyze_spans(spans, phases)

    run = meta.get("run") or {}
    if run:
        head = [[k, run[k]] for k in ("backend", "config", "cluster", "ranks", "batches", "total_kmers") if k in run]
        print(format_table(["field", "value"], head, title=f"run anatomy of {args.trace}"))

    cp = report["critical_path"]
    model = report.get("model")
    rows = [
        ["wall elapsed", f"{report['elapsed_s'] * 1e3:,.2f} ms"],
        ["wall critical path", f"{cp['wall_s'] * 1e3:,.2f} ms"],
        ["barrier wait (all stages)", f"{report['barrier_wait_s'] * 1e3:,.2f} ms"],
        ["dominant phase (wall)", cp["dominant"] or "-"],
    ]
    if model is not None:
        rows.append(["dominant phase (model)", model["dominant"] or "-"])
        rows.append(["model total", f"{model['phases']['parse'] + model['phases']['exchange'] + model['phases']['count']:,.4f} s"])
    print(format_table(["metric", "value"], rows, title="critical path"))

    if cp["rounds"]:
        rrows = [
            [
                entry["name"],
                f"{entry['wall_s'] * 1e3:,.2f}",
                entry["dominant"] or "-",
                ", ".join(f"{s}={t * 1e3:,.2f}ms" for s, t in sorted(entry["stages"].items())),
            ]
            for entry in cp["rounds"]
        ]
        print(format_table(["round", "wall_ms", "dominant", "stages"], rrows, title="per-round critical path"))

    srows = [
        [
            st["path"],
            st["phase"],
            st["n"],
            f"{st['max_s'] * 1e3:,.2f}",
            f"{st['mean_s'] * 1e3:,.2f}",
            f"{st['imbalance']:.2f}",
            st["bottleneck_rank"] if st["bottleneck_rank"] is not None else "-",
            f"{st['barrier_wait_s'] * 1e3:,.2f}",
        ]
        for st in report["stages"]
    ]
    print(
        format_table(
            ["stage", "phase", "n", "max_ms", "mean_ms", "imbal", "slowest", "wait_ms"],
            srows,
            title="stragglers (per-stage wall, max over ranks)",
        )
    )

    if "divergence" in report:
        drows = [
            [
                row["phase"],
                f"{row['model_s']:,.4f}",
                f"{row['wall_s'] * 1e3:,.2f}",
                "inf" if row["ratio"] == float("inf") else f"{row['ratio']:,.1f}x",
            ]
            for row in report["divergence"]
        ]
        print(format_table(["phase", "model_s", "wall_ms", "model/wall"], drows, title="wall vs model divergence"))

    if args.profile:
        profile = meta.get("profile")
        print(profile if profile else "no embedded profile (re-run: repro count --trace PATH --profile)")

    if args.json:
        Path(args.json).write_text(json.dumps(report, sort_keys=True))
        print(f"wrote analysis JSON to {args.json}")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "machines": _cmd_machines,
    "simulate": _cmd_simulate,
    "count": _cmd_count,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "plan": _cmd_plan,
    "distance": _cmd_distance,
    "report": _cmd_report,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    else:
        from .telemetry import configure_from_env

        configure_from_env()
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0  # output piped into head/less that closed early


if __name__ == "__main__":
    raise SystemExit(main())
