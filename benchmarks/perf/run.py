#!/usr/bin/env python3
"""The host-clock benchmark: seven workloads, end-to-end metrics, layer probes.

Two forms, one implementation::

    run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload, one kind of pass.  The last line of standard output
        is one JSON object {"correct", "attempted", "failed", "metrics"}:
        the end-to-end metrics with --trace 0 (timing + memory pass), the
        per-layer metrics with --trace 1 (traced pass).

    run.py [--seed N] [--workloads a,b] [--seconds S] [--out FILE] [--spans FILE]
        All three passes for every (or the named) workload; prints every
        metric by name with its unit, checks the bit-identity contract
        across workloads, writes the rows to --out and the benchmark-side
        spans to --spans.  --smoke: scale 0.1, one sample per workload.

    run.py --compare A.json B.json
        Diff two --out files (see compare.py).

This process only orchestrates: every pass of every workload runs in a
fresh child (harness.py), one at a time, never concurrently.  All files
the benchmark or the program writes live under one temp root inside this
directory, removed on exit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CHILD_TIMEOUT_S = 170
FULL_RUN_SECONDS = 20  # per-workload measured phase of a full run ...
FULL_RUN_MIN_OPS = 5  # ... stretched until each of the two workers has this many ops (>= 10 pooled)
#: The workloads' size: Table I scale factor and Summit nodes (96 GPU /
#: 672 CPU ranks).  --smoke shrinks both so every path runs in seconds.
FULL_SIZE = {"scale": 1.0, "nodes": 16}
SMOKE_SIZE = {"scale": 0.1, "nodes": 2}


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def run_child(spec: dict) -> dict:
    """One harness process, waited for; its whole process group dies on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark child for {spec['workload']} exceeded {CHILD_TIMEOUT_S}s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark child for {spec['workload']} exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(samples: list[float]) -> dict:
    """Median, quartiles and n; with fewer than 20 samples no tail is defined."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def timing_row(workload: str, seed: int, seconds: float, smoke: bool, root: Path, min_ops: int = 1) -> dict:
    """Timing + memory pass: two fresh workers, one after the other, pooled.

    Each worker fills its half of ``seconds`` and measures at least ``min_ops`` ops.
    """
    n_workers = 1 if smoke else 2
    reports: list[dict] = []
    for i in range(n_workers):
        workdir = root / f"{workload}.timing{i}"
        workdir.mkdir(parents=True)
        reports.append(
            run_child(
                {
                    "pass": "timing",
                    "workload": workload,
                    "seed": seed,
                    **(SMOKE_SIZE if smoke else FULL_SIZE),
                    "seconds": seconds / n_workers,
                    "min_ops": min_ops,
                    # The second worker measures exactly as many ops as the first.
                    "ops": 1 if smoke else (len(reports[0]["ops"]) if reports else None),
                    "root": str(workdir),
                }
            )
        )
    first = reports[0]
    errors = [e for r in reports for e in r["errors"]]
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    if len({r["digest"] for r in reports}) != 1:
        errors.append(f"{workload}: deterministic observables differ between worker processes")
        failed += 1
    wall = summary([op["wall_s"] for r in reports for op in r["ops"]])
    rate = summary([first["input_kmers"] / s for s in wall["samples"]])
    rate["value"] = first["input_kmers"] / wall["value"]  # exactly windows over wall_s, also for even n
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": first["input_digest"],
        "input_kmers": first["input_kmers"],
        "digest": first["digest"],
        "attempted": attempted,
        "failed": min(failed, attempted),
        "errors": errors,
        "fingerprint": first["fingerprint"],
        "end_to_end": {
            "wall_s": wall,
            "kmers_per_s": rate,
            "cpu_s": summary([op["cpu_s"] for r in reports for op in r["ops"]]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in reports]),
            "setup_s": summary([r["setup_s"] for r in reports]),
        },
    }


def traced_report(workload: str, seed: int, seconds: float, smoke: bool, root: Path) -> dict:
    workdir = root / f"{workload}.traced"
    workdir.mkdir(parents=True)
    return run_child(
        {
            "pass": "traced",
            "workload": workload,
            "seed": seed,
            **(SMOKE_SIZE if smoke else FULL_SIZE),
            "seconds": seconds,
            "smoke": smoke,
            "root": str(workdir),
        }
    )


def contract_line(report: dict, values: dict[str, float], declared: list[dict]) -> str:
    """The driver's result object: every declared metric, as measured."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_metrics(workload: str, values: dict, declared: list[dict]) -> None:
    for m in declared:
        v = values[m["name"]]
        if isinstance(v, dict):
            tail = f"  [q1 {v['q1']:.6g} .. q3 {v['q3']:.6g}, n={v['n']}]"
            v = v["value"]
        else:
            tail = ""
        print(f"{workload:22s} {m['name']:42s} {v:>14.6g} {m['unit']}{tail}")


#: Pairs the bit-identity contract ties together: same inputs, same
#: deterministic observables, different orchestration or substrate.
IDENTICAL = (("grid-staged", "grid-fused"), ("bulk-kmer", "bulk-kmer-process2"))


def commit() -> str:
    """HEAD of the repo under test, ``+dirty`` with uncommitted changes; ``unknown`` outside git."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain") else "")


def full_run(args: argparse.Namespace, spec: dict, root: Path) -> int:
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; BENCHMARK.json names {names}")
    seconds = args.seconds if args.seconds is not None else FULL_RUN_SECONDS
    rows, spans = {}, []
    for name in chosen:
        row = timing_row(name, args.seed, seconds, args.smoke, root, FULL_RUN_MIN_OPS)
        traced = traced_report(name, args.seed, seconds, args.smoke, root)
        row["per_layer"] = traced["per_layer"]
        row["attempted"] += traced["attempted"]
        row["failed"] += traced["failed"]
        row["errors"] += traced["errors"]
        if traced["digest"] != row["digest"]:
            row["failed"] += 1
            row["errors"].append(f"{name}: traced ops changed the deterministic observables")
        spans += traced["spans"]
        rows[name] = row
        print_metrics(name, row["end_to_end"], spec["end_to_end"])
        print_metrics(name, row["per_layer"], spec["per_layer"])
    for a, b in IDENTICAL:
        if a in rows and b in rows and rows[a]["digest"] != rows[b]["digest"]:
            for name in (a, b):
                rows[name]["failed"] += 1
                rows[name]["errors"].append(f"bit-identity broken: {a} and {b} disagree on the observables")
    for name, row in rows.items():
        row["failed"] = min(row["failed"], row["attempted"])
        row["failed_frac"] = row["failed"] / row["attempted"]
        print(f"{name:22s} {'failed_frac':42s} {row['failed_frac']:>14.6g} ratio  [{row['failed']}/{row['attempted']} ops]")
    for a, b in IDENTICAL:
        if a in rows and b in rows:
            wa, wb = (rows[n]["end_to_end"]["wall_s"]["value"] for n in (a, b))
            print(f"wall_s ratio {a} / {b} = {wa:.4f} s / {wb:.4f} s = {wa / wb:.3f}")
    fingerprint = {**next(iter(rows.values()))["fingerprint"], "commit": commit()}
    payload = {
        "schema": "benchmarks-perf/1",
        "seed": args.seed,
        "seconds": seconds,
        "size": SMOKE_SIZE if args.smoke else FULL_SIZE,
        "fingerprint": fingerprint,
        "rows": rows,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1))
    if args.spans:
        Path(args.spans).write_text(json.dumps({"schema": "benchmarks-perf-spans/1", "spans": spans}))
    errors = [e for row in rows.values() for e in row["errors"]]
    for e in errors:
        print(f"FAILED: {e}", file=sys.stderr)
    return 1 if errors else 0


def driver_run(args: argparse.Namespace, spec: dict, root: Path) -> int:
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.trace == 1:
        report = traced_report(args.workload, args.seed, seconds, False, root)
        values, declared = report["per_layer"], spec["per_layer"]
    else:
        report = timing_row(args.workload, args.seed, seconds, False, root)
        values = {name: m["value"] for name, m in report["end_to_end"].items()}
        declared = spec["end_to_end"]
    print_metrics(args.workload, values, declared)
    for e in report["errors"]:
        print(f"FAILED: {e}", file=sys.stderr)
    print(contract_line(report, values, declared))
    return 1 if report["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    ap.add_argument("--workloads", default="", help="full run: comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="added to every dataset's Table I seed")
    ap.add_argument("--seconds", type=float, default=None, help="measured phase per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: 1 = traced pass")
    ap.add_argument("--out", help="full run: write the rows here (input of --compare)")
    ap.add_argument("--spans", help="full run: write the benchmark-side spans here")
    ap.add_argument("--smoke", action="store_true", help="full run at scale 0.1, one sample per workload")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two --out files")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        from compare import compare

        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {REPO / 'src' / 'repro'} is missing")
    root = HERE / ".tmp" / f"run-{os.getpid()}"
    root.mkdir(parents=True)
    try:
        return (driver_run if args.workload else full_run)(args, spec, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
