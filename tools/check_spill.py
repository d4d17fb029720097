#!/usr/bin/env python3
"""Out-of-core smoke test: count under hard memory caps.

Three capped probes, each a (pass, expected-OOM) pair of child processes
so one run's allocations can never pollute another's.  For every probe
the parent first computes the *uncapped in-memory* reference digest
(spectrum bytes + every deterministic model observable + the
model-metric telemetry snapshot); each passing child must reproduce it
bit for bit.

1. **Staged spill** (``RLIMIT_AS``, k-mer mode, 24 ranks): the staged
   loop with ``spill_dir`` must fit and match under a cap that exhausts
   the in-memory staged path.  K-mer mode on purpose: 8 bytes per
   instance make the send array (not parse intermediates) the hot spot
   (at k = 21 a k-mer's host form is a whole ``uint64``, as on the wire;
   from k = 17 to 20 it would be 5 bytes, ``buffers.split_kmers``).
   No exchange copies the send array any more, so the two paths differ
   only in the count: a resident count gathers its blocks out of the send
   array, which lives until the last block, beside the block dumps it
   keeps for the merge; a spooled drive drops the send array before the
   count and dumps to run files.  The twin's excess is therefore the
   send array *and* the dumps at the count's end, which must outgrow the
   parse's own transient and the merge (a few times the dumps): a
   low-coverage (4x), large (6 Mb) genome puts the send array at about
   twice the dumps and the twin's excess (~40 MB) clear of the margins.
2. **Blocked fused×spill** (``RLIMIT_AS``, supermer mode): ``fused=True``
   + ``spill_dir`` must fit and match under a cap that exhausts the
   in-memory fused path.  Supermer mode on purpose: the fused parse
   holds compact packed supermers, so the memory hot spot is the
   received supermers each count block gathers and their unpacked
   k-mer stream — exactly what the rank-blocked streaming bounds.  (In
   k-mer mode the fused parse itself holds the whole flat k-mer array,
   which no exchange spill can relieve, so no cap separates the two
   paths.)
3. **Mmap-backed table** (``RLIMIT_DATA``, supermer mode, low-coverage
   large genome so the *table* dominates): ``table_dir`` must fit and
   match under a cap that exhausts the resident-table twin.  RLIMIT_AS
   cannot tell the two backings apart — it counts file-backed mappings
   too — but RLIMIT_DATA (Linux >= 4.7) counts brk plus *anonymous
   private* mappings only, which is exactly the resident footprint: the
   ``np.memmap`` slabs escape the cap, resident table arrays do not.

Expected-OOM twins that squeeze through anyway are reported as warnings,
not failures: the identity + spool assertions on the passing side are
the contract.  Cap defaults were calibrated empirically against the
default workloads (pass/OOM thresholds bracketed to >= ~20 MB margins).
The staged probe's brackets (2-core x86-64 Linux host, CPython 3.11,
``--child`` runs bisected to 4 MB, re-measured since k-mers have a host
form): the spilled run passes above (441, 444] MB and the in-memory twin
above (488, 492] MB, so the 468 MB default clears each by 20 MB or more.  (On the earlier 2.5 Mb, 8x probe, whose
twin kept a whole-round receive array from the exchange to the count,
the brackets were (455, 458] and (518, 521] MB; since the receive array
went, both paths pass there above (394, 396] MB — their peak is the
parse's — so that probe no longer tells them apart.)

Usage: ``python tools/check_spill.py [--cap-mb N] [--fused-cap-mb N]
[--data-cap-mb N] [--genome N] [--coverage X]``.  Exits 0 when every
capped run matches its reference, 1 otherwise.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _build_reads(genome: int, coverage: float):
    from repro.dna.simulate import simulate_dataset

    return simulate_dataset(genome_length=genome, coverage=coverage, repeat_fraction=0.1, seed=42)


def _config(mode: str):
    from repro.core.config import PipelineConfig

    if mode == "kmer":
        return PipelineConfig(k=21, mode="kmer", canonical=True)
    return PipelineConfig(k=21, mode="supermer", canonical=True, minimizer_len=9, window=12)


def _run(reads, config, nodes, *, spill_dir=None, host_memory_budget=None, fused=False, table_dir=None):
    from repro.core.engine import EngineOptions, run_pipeline
    from repro.mpi.topology import summit_gpu
    from repro.telemetry import MetricRegistry

    reg = MetricRegistry()
    result = run_pipeline(
        reads,
        summit_gpu(nodes),
        config,
        backend="gpu",
        options=EngineOptions(
            telemetry=reg,
            spill_dir=spill_dir,
            host_memory_budget=host_memory_budget,
            fused=fused,
            table_dir=table_dir,
        ),
    )
    return result, reg


def _digest(result, reg) -> str:
    """One hash over every deterministic observable of a run."""
    ins = result.insert_stats
    h = hashlib.sha256()
    h.update(result.spectrum.values.tobytes())
    h.update(result.spectrum.counts.tobytes())
    h.update(
        json.dumps(
            {
                "timing": [result.timing.parse, result.timing.exchange, result.timing.count],
                "received": [int(x) for x in result.received_kmers],
                "exchanged_items": int(result.exchanged_items),
                "counts_matrix": result.counts_matrix.tolist(),
                "insert": [
                    ins.n_instances,
                    ins.n_distinct,
                    ins.total_probes,
                    ins.max_probe,
                    ins.cas_conflicts,
                    ins.rounds,
                    ins.resizes,
                ],
                "rounds": int(result.n_rounds_used),
                "alltoallv_s": result.alltoallv_seconds,
                "staging_s": result.staging_seconds,
                "snapshot": reg.snapshot(include_wall=False),
            },
            sort_keys=True,
            default=str,
        ).encode()
    )
    return h.hexdigest()


def _vm_field(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} not found in /proc/self/status")


def _apply_as_cap(cap_mb: int) -> int:
    import resource

    cap = _vm_field("VmSize:") + cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return cap


def _apply_data_cap(cap_mb: int) -> int:
    """Cap brk + anonymous private mappings (Linux >= 4.7 semantics)."""
    import resource

    cap = _vm_field("VmData:") + cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
    return cap


# Child modes: probe group, cap kind/knob, and engine options.
CHILD_MODES = {
    "spill": dict(group="staged", cap="as", cap_arg="cap_mb", fused=False, spill=True, mmap=False),
    "memory": dict(group="staged", cap="as", cap_arg="cap_mb", fused=False, spill=False, mmap=False),
    "fused-spill": dict(
        group="fused", cap="as", cap_arg="fused_cap_mb", fused=True, spill=True, mmap=False
    ),
    "fused-memory": dict(
        group="fused", cap="as", cap_arg="fused_cap_mb", fused=True, spill=False, mmap=False
    ),
    "table-mmap": dict(
        group="table", cap="data", cap_arg="data_cap_mb", fused=True, spill=True, mmap=True
    ),
    "table": dict(
        group="table", cap="data", cap_arg="data_cap_mb", fused=True, spill=True, mmap=False
    ),
}

# Workload per probe group: (config mode, genome attr or fixed genome
# length, coverage attr or fixed coverage, Summit nodes).
GROUP_WORKLOADS = {
    "staged": ("kmer", 6_000_000, 4.0, 4),
    "fused": ("supermer", "genome", "coverage", 2),
    "table": ("supermer", "table_genome", "table_coverage", 2),
}


def _group_case(group: str, args):
    mode, genome, coverage, nodes = GROUP_WORKLOADS[group]
    if isinstance(genome, str):
        genome = getattr(args, genome)
    if isinstance(coverage, str):
        coverage = getattr(args, coverage)
    return _config(mode), genome, coverage, nodes


def _child(args) -> int:
    spec = CHILD_MODES[args.child]
    cap_mb = getattr(args, spec["cap_arg"])
    cap = _apply_as_cap(cap_mb) if spec["cap"] == "as" else _apply_data_cap(cap_mb)
    config, genome, coverage, nodes = _group_case(spec["group"], args)
    reads = _build_reads(genome, coverage)
    budget = args.budget_mb * 1024 * 1024
    try:
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            kwargs = dict(host_memory_budget=budget, fused=spec["fused"])
            if spec["spill"]:
                kwargs["spill_dir"] = scratch / "spool"
            if spec["mmap"]:
                kwargs["table_dir"] = scratch / "table"
            result, reg = _run(reads, config, nodes, **kwargs)
            spilled_bytes = reg.total("spill_bytes_written_total") if spec["spill"] else 0.0
    except MemoryError:
        print(json.dumps({"status": "oom", "cap": cap}))
        return 3
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        # mmap raises OSError(ENOMEM), not MemoryError, at the rlimit wall.
        print(json.dumps({"status": "oom", "cap": cap}))
        return 3
    print(
        json.dumps(
            {
                "status": "ok",
                "digest": _digest(result, reg),
                "spill_bytes_written": spilled_bytes,
                "n_rounds": int(result.n_rounds_used),
                "cap": cap,
            }
        )
    )
    return 0


def _spawn(mode: str, args) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        mode,
        "--cap-mb",
        str(args.cap_mb),
        "--fused-cap-mb",
        str(args.fused_cap_mb),
        "--data-cap-mb",
        str(args.data_cap_mb),
        "--budget-mb",
        str(args.budget_mb),
        "--genome",
        str(args.genome),
        "--coverage",
        str(args.coverage),
        "--table-genome",
        str(args.table_genome),
        "--table-coverage",
        str(args.table_coverage),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    payload = None
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            payload = json.loads(line)
    if payload is None:
        payload = {"status": f"crashed (rc={proc.returncode})", "stderr": proc.stderr[-2000:]}
    payload["returncode"] = proc.returncode
    return payload


def _reference(group: str, args) -> str:
    """Uncapped in-memory digest for one probe group's workload."""
    config, genome, coverage, nodes = _group_case(group, args)
    reads = _build_reads(genome, coverage)
    # Same host_memory_budget as the children: the budget sets the round
    # count, which is a deterministic observable — only the execution
    # strategy may vary.
    result, reg = _run(reads, config, nodes, host_memory_budget=args.budget_mb * 1024 * 1024)
    return _digest(result, reg)


def _check_pass(name: str, payload: dict, ref: str) -> bool:
    if payload.get("status") != "ok":
        print(f"FAIL: {name} run did not complete under the cap: {payload}")
        return False
    if payload["digest"] != ref:
        print(f"FAIL: {name} digest {payload['digest'][:16]} != reference {ref[:16]}")
        return False
    if payload["spill_bytes_written"] <= 0:
        print(f"FAIL: {name} path engaged but wrote no bytes to the spool")
        return False
    print(
        f"  ok: bit-identical to reference; "
        f"{payload['spill_bytes_written'] / 1e6:.1f} MB spooled over {payload['n_rounds']} round(s)"
    )
    return True


def _check_oom(name: str, payload: dict) -> None:
    if payload.get("status") == "ok":
        print(f"  warning: {name} also fit under the cap (identity still verified)")
    else:
        print(f"  ok: {name} failed under the cap as expected ({payload['status']})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cap-mb", type=int, default=468, help="RLIMIT_AS headroom for the staged-spill probe"
    )
    parser.add_argument(
        "--fused-cap-mb",
        type=int,
        default=570,
        help="RLIMIT_AS headroom for the fused x spill probe",
    )
    parser.add_argument(
        "--data-cap-mb",
        type=int,
        default=540,
        help="RLIMIT_DATA headroom for the mmap-table probe (anonymous memory only)",
    )
    parser.add_argument("--budget-mb", type=int, default=24, help="host_memory_budget for every run")
    parser.add_argument("--genome", type=int, default=1_500_000, help="genome for the fused probe")
    parser.add_argument("--coverage", type=float, default=8.0)
    parser.add_argument(
        "--table-genome",
        type=int,
        default=4_000_000,
        help="genome for the table probe (large: distinct k-mers make the table the hot spot)",
    )
    parser.add_argument("--table-coverage", type=float, default=3.0)
    parser.add_argument("--child", choices=sorted(CHILD_MODES), default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        return _child(args)

    _, staged_genome, staged_coverage, staged_nodes = GROUP_WORKLOADS["staged"]
    print(
        f"staged probe: genome={staged_genome} coverage={staged_coverage} nodes={staged_nodes} "
        "kmer (uncapped reference)"
    )
    ref = _reference("staged", args)
    print(f"  staged spill under RLIMIT_AS baseline+{args.cap_mb} MB ...")
    if not _check_pass("spilled", _spawn("spill", args), ref):
        return 1
    print("  in-memory twin under the same cap (expected to exhaust memory) ...")
    _check_oom("in-memory staged", _spawn("memory", args))

    print(f"fused probe: genome={args.genome} coverage={args.coverage} supermer (uncapped reference)")
    ref = _reference("fused", args)
    print(f"  fused x spill under RLIMIT_AS baseline+{args.fused_cap_mb} MB ...")
    if not _check_pass("fused-spill", _spawn("fused-spill", args), ref):
        return 1
    print("  in-memory fused twin under the same cap (expected to exhaust memory) ...")
    _check_oom("in-memory fused", _spawn("fused-memory", args))

    print(
        f"table probe: genome={args.table_genome} coverage={args.table_coverage} supermer "
        "(uncapped reference)"
    )
    ref = _reference("table", args)
    print(f"  mmap-table fused x spill under RLIMIT_DATA baseline+{args.data_cap_mb} MB ...")
    if not _check_pass("table-mmap", _spawn("table-mmap", args), ref):
        return 1
    print("  resident-table twin under the same data cap (expected to exhaust memory) ...")
    _check_oom("resident-table fused x spill", _spawn("table", args))

    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
