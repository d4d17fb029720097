"""One fresh benchmark process: a timing pass or a traced pass of one workload.

``run.py`` starts this file as a child, ``python harness.py '<json spec>'``,
and reads one JSON object from the last line of its standard output.  The
clock for ``setup_s`` starts at the top of this file, before numpy or the
program is imported, so import time is part of set-up.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: Ambient switches a developer's shell may carry; every path is named
#: explicitly through ``parallel=`` / ``fused=`` instead.
AMBIENT = ("REPRO_PARALLEL", "REPRO_FUSED", "REPRO_LOG", "REPRO_BENCH_SCALE")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water RSS of the largest process so far (Linux: ru_maxrss is KiB)."""
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class OpRunner:
    """Runs ops one at a time, timing each and checking what it produced."""

    def __init__(self, bench) -> None:
        self.bench = bench
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def run(self, **kw) -> tuple[dict, object]:
        """One op: ``({wall_s, cpu_s, ok}, outcome-or-None)``."""
        self.attempted += 1
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = self.bench.op(**kw)
        except Exception:  # the boundary that must keep the benchmark running
            out = None
            self.fail(f"{self.bench.w.name}: op raised\n{traceback.format_exc()}")
        record = {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - cpu0, "ok": out is not None}
        return record, out

    def check(self, record: dict, out) -> None:
        """Verify one finished op against the oracle and the first op's observables."""
        if out is None:
            return
        problem = self.bench.verify(out)
        if problem is None and self.digest is not None and out.digest != self.digest:
            problem = f"{self.bench.w.name}: deterministic observables changed between ops"
        if self.digest is None:
            self.digest = out.digest
        if problem is not None:
            record["ok"] = False
            self.fail(problem)


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def overruns(started: float, budget: float, walls: list[float]) -> bool:
    """Whether one more typical op would end further past ``budget`` than stopping now falls short."""
    return time.perf_counter() - started + 0.5 * statistics.median(walls) > budget


def timing_pass(spec: dict, bench, runner: OpRunner) -> dict:
    """Un-warmed first op (the memory pass), oracle, then the measured ops."""
    first, out = runner.run()
    rss = peak_rss_mb()  # before the oracle's own temporaries can raise it
    bench.compute_oracle()
    runner.check(first, out)
    setup_s = time.perf_counter() - _T0

    ops: list[dict] = []
    started = time.perf_counter()
    while True:
        record, out = runner.run()
        runner.check(record, out)
        ops.append(record)
        # A fixed count when the parent names one, else fill the measured phase.
        if spec["ops"]:
            done = len(ops) >= spec["ops"]
        else:
            done = len(ops) >= spec["min_ops"] and overruns(started, spec["seconds"], [o["wall_s"] for o in ops])
        if done:
            break
    return {"setup_s": setup_s, "peak_rss_mb": rss, "first_op": first, "ops": ops}


def traced_pass(spec: dict, bench, runner: OpRunner) -> dict:
    """Path honesty, paired tracing overhead, then the layer probes."""
    from probes import Probes, SpanLog

    log = SpanLog(bench.w.name)
    with log.span("traced-pass"):
        with log.span("op.honesty") as row:
            record, out = runner.run(trace=True, telemetry=True)
            row["items"] = bench.input_kmers
        bench.compute_oracle()
        runner.check(record, out)
        rounds = 0
        if out is not None:
            rounds = out.rounds
            for problem in bench.check_path(out):
                runner.fail(problem)

        # Untraced and traced ops back to back, so drift in the machine's
        # state lands on both sides of the ratio.
        walls: dict[bool, list[float]] = {False: [], True: []}
        started = time.perf_counter()
        while True:
            for traced in (False, True):
                with log.span("op.traced" if traced else "op.untraced") as row:
                    record, out = runner.run(trace=traced)
                    row["items"] = bench.input_kmers
                runner.check(record, out)
                walls[traced].append(record["wall_s"])
            pairs = [u + t for u, t in zip(walls[False], walls[True], strict=True)]
            if spec["smoke"] or overruns(started, 0.4 * spec["seconds"], pairs):
                break
        wall_s = statistics.median(walls[False])

        probes = Probes(bench, log, spec["scale"])
        with log.span("probes"):
            probes.run()
    metrics = probes.metrics()
    metrics["core.stages.n_rounds"] = rounds
    metrics["core.stages.residual_s"] = wall_s - probes.on_path_s
    metrics["core.stages.residual_frac"] = metrics["core.stages.residual_s"] / wall_s
    metrics["telemetry.trace_overhead_frac"] = statistics.median(walls[True]) / wall_s - 1.0
    t0 = log.rows[0]["start_s"]
    for row in log.rows:
        row["start_s"] -= t0
        row["end_s"] -= t0
    return {"per_layer": metrics, "spans": log.rows}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    for name in AMBIENT:
        os.environ.pop(name, None)
    # Must precede the numpy import.  With numpy's MADV_HUGEPAGE on, whether
    # the kernel happens to have huge pages to give flips identical ops
    # between two speed regimes ~20% apart (and adds compaction stalls);
    # without it every op, worker and commit runs in the same regime.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parents[1] / "src"), str(here)]
    from workloads import WORKLOADS, Bench, leftovers, shm_entries

    shm_before = shm_entries()
    root = Path(spec["root"])
    bench = Bench(WORKLOADS[spec["workload"]], spec["seed"], spec["scale"], spec["nodes"], root)
    runner = OpRunner(bench)
    report = (traced_pass if spec["pass"] == "traced" else timing_pass)(spec, bench, runner)

    for path in leftovers(root, shm_before):
        runner.fail(f"{bench.w.name}: left behind {path}")
    if bench.w.parallel != 1 and (os.cpu_count() or 1) < 2:
        # Reported, never skipped: every op of a substrate the host cannot run counts as failed.
        runner.fail(f"{bench.w.name}: needs 2 cores, host has {os.cpu_count()}")
        runner.failed = runner.attempted
    report.update(
        workload=bench.w.name,
        attempted=runner.attempted,
        failed=min(runner.failed, runner.attempted),
        errors=runner.errors,
        digest=runner.digest,
        input_digest=bench.input_digest,
        input_kmers=bench.input_kmers,
        fingerprint=fingerprint(),
    )
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
