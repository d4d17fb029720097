"""Smoke test of the benchmark itself.  Run explicitly (not in tier-1 testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py

Two ``run.py --smoke`` runs (seeds 0 and 1): every workload through all
three passes at scale 0.1 on a 2-node machine, one sample each.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[int, tuple[dict, list[dict]]]:
    runs = {}
    for seed in (0, 1):
        out = tmp_path_factory.mktemp(f"seed{seed}")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed)]
            + ["--out", str(out / "rows.json"), "--spans", str(out / "spans.json")],
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[seed] = (
            json.loads((out / "rows.json").read_text()),
            json.loads((out / "spans.json").read_text())["spans"],
        )
    return runs


def names(payload: dict) -> dict[str, tuple[list[str], list[str]]]:
    return {w: (list(r["end_to_end"]), sorted(r["per_layer"])) for w, r in payload["rows"].items()}


def test_names_equal_benchmark_json(smoke):
    payload, _ = smoke[0]
    assert list(payload["rows"]) == [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = sorted(m["name"] for m in SPEC["per_layer"])
    for workload, (e2e, layers) in names(payload).items():
        assert e2e == end_to_end, workload
        assert layers == per_layer, workload
    for name in [*payload["rows"], *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name


def test_no_op_failed(smoke):
    for payload, _ in smoke.values():
        for workload, row in payload["rows"].items():
            assert row["failed_frac"] == 0 and not row["errors"], (workload, row["errors"])
            assert row["attempted"] >= 1


def test_every_span_but_the_roots_has_a_parent(smoke):
    _, spans = smoke[0]
    assert spans
    by_workload: dict[str, dict[int, dict]] = {}
    for span in spans:
        by_workload.setdefault(span["workload"], {})[span["id"]] = span
    assert set(by_workload) == {w["name"] for w in SPEC["workloads"]}
    for workload, rows in by_workload.items():
        roots = [s for s in rows.values() if s["parent"] is None]
        assert [s["name"] for s in roots] == ["traced-pass"], workload
        for span in rows.values():
            assert span["parent"] is None or span["parent"] in rows, (workload, span)
            assert span["end_s"] >= span["start_s"]


def test_seed_changes_the_inputs_not_the_names(smoke):
    (a, _), (b, _) = smoke[0], smoke[1]
    assert names(a) == names(b)
    for workload in a["rows"]:
        assert a["rows"][workload]["input_digest"] != b["rows"][workload]["input_digest"], workload
