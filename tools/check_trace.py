#!/usr/bin/env python3
"""Validate a ``repro count --trace`` file, or smoke the live metrics endpoint.

Default mode — structural schema check of a ``repro-trace/1`` JSON file
(hand-rolled; the container has no ``jsonschema``):

* top-level shape: ``traceEvents`` / ``displayTimeUnit`` / ``spans`` /
  ``metadata`` with ``metadata.schema == "repro-trace/1"``;
* every Chrome trace event is well-formed for its ``ph`` type;
* every span has the payload fields, a known category, a resolvable
  parent, and an interval nested inside its parent's interval;
* exactly one root region (the run/batch tree is connected);
* every span has one ``X`` event on the host tracks, matched through its
  ``args.id``, that covers exactly the span's interval and nests inside
  its parent span's event — the host tracks share the spans' clock.

``--live`` mode spawns ``repro count --metrics-port 0 --metrics-hold N``
with the given extra arguments, parses the advertised URL from its
stdout, scrapes ``/metrics`` until the progress gauges appear, and fails
if the endpoint never serves them — the CI race-free live-scrape smoke.

Usage::

    python tools/check_trace.py TRACE.json
    python tools/check_trace.py --live -- --input reads.fastq -k 15 --nodes 2

Exits 0 when clean, 1 with a diagnostic per problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

SCHEMA = "repro-trace/1"
SPAN_CATEGORIES = ("run", "batch", "round", "stage", "work")
#: Clock-rebasing subtracts one float from another, which can shift a
#: child endpoint past its parent's by at most one ulp-scale error.
EPS = 1e-9
_US = 1e6  # trace-event timestamps are microseconds


def _check_event(ev: object, i: int, errors: list[str]) -> None:
    where = f"traceEvents[{i}]"
    if not isinstance(ev, dict):
        errors.append(f"{where}: not an object")
        return
    ph = ev.get("ph")
    if ph not in ("X", "M", "C"):
        errors.append(f"{where}: unknown ph {ph!r} (expected X, M, or C)")
        return
    if not isinstance(ev.get("name"), str):
        errors.append(f"{where}: missing string 'name'")
    if ph in ("X", "C"):
        for key in ("ts", "pid", "tid") if ph == "X" else ("ts",):
            if not isinstance(ev.get(key), (int, float)):
                errors.append(f"{where}: missing numeric {key!r}")
    if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
        errors.append(f"{where}: duration event missing numeric 'dur'")
    if ph == "C" and not isinstance(ev.get("args"), dict):
        errors.append(f"{where}: counter event missing 'args' object")


def _check_spans(spans: list, errors: list[str]) -> None:
    by_id: dict[object, dict] = {}
    for i, s in enumerate(spans):
        where = f"spans[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("id", "parent", "name", "cat", "rank", "start_s", "end_s", "meta"):
            if key not in s:
                errors.append(f"{where}: missing {key!r}")
        if s.get("cat") not in SPAN_CATEGORIES:
            errors.append(f"{where}: unknown cat {s.get('cat')!r}")
        if not isinstance(s.get("meta"), dict):
            errors.append(f"{where}: 'meta' is not an object")
        start, end = s.get("start_s"), s.get("end_s")
        if not (isinstance(start, (int, float)) and isinstance(end, (int, float))):
            errors.append(f"{where}: non-numeric interval")
        elif end < start:
            errors.append(f"{where}: end_s {end} < start_s {start}")
        if s.get("id") in by_id:
            errors.append(f"{where}: duplicate id {s.get('id')!r}")
        by_id[s.get("id")] = s

    roots = 0
    for i, s in enumerate(spans):
        if not isinstance(s, dict):
            continue
        parent_id = s.get("parent")
        if parent_id is None:
            roots += 1
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"spans[{i}]: parent {parent_id!r} not in payload")
            continue
        if parent.get("start_s", 0) - EPS > s.get("start_s", 0) or s.get("end_s", 0) > parent.get(
            "end_s", 0
        ) + EPS:
            errors.append(
                f"spans[{i}] ({s.get('name')!r}): interval [{s.get('start_s')}, {s.get('end_s')}] "
                f"escapes parent {parent.get('name')!r} [{parent.get('start_s')}, {parent.get('end_s')}]"
            )
    if spans and roots != 1:
        errors.append(f"expected exactly 1 root span, found {roots}")


def _check_span_events(events: list, spans: list, errors: list[str]) -> None:
    by_id = {s.get("id"): s for s in spans if isinstance(s, dict)}
    placed: dict[object, tuple[int, float, float]] = {}  # span id -> (event index, start_s, end_s)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        args = ev.get("args")
        sid = args.get("id") if isinstance(args, dict) else None
        ts, dur = ev.get("ts"), ev.get("dur")
        if sid is None or not (isinstance(ts, (int, float)) and isinstance(dur, (int, float))):
            continue
        span = by_id.get(sid)
        if span is None:
            errors.append(f"traceEvents[{i}]: args.id {sid!r} names no span")
            continue
        start, end = ts / _US, (ts + dur) / _US
        if abs(start - span.get("start_s", 0)) > EPS or abs(end - span.get("end_s", 0)) > EPS:
            errors.append(
                f"traceEvents[{i}] ({ev.get('name')!r}): [{start}, {end}] s is off span {sid}'s "
                f"[{span.get('start_s')}, {span.get('end_s')}] — the track is on another clock"
            )
        placed[sid] = (i, start, end)
    unplaced = [sid for sid in by_id if sid not in placed]
    if unplaced:
        errors.append(f"{len(unplaced)} span(s) have no X event carrying their id, e.g. {unplaced[:3]}")
    for sid, (i, start, end) in placed.items():
        parent = placed.get(by_id[sid].get("parent"))
        if parent is not None and (start < parent[1] - EPS or end > parent[2] + EPS):
            errors.append(
                f"traceEvents[{i}]: span {sid}'s event [{start}, {end}] s escapes its parent's "
                f"event traceEvents[{parent[0]}] [{parent[1]}, {parent[2]}]"
            )


def check_trace(path: Path, *, allow_empty_spans: bool = False) -> list[str]:
    errors: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(payload, dict):
        return [f"{path}: top level is not an object"]

    meta = payload.get("metadata")
    if not isinstance(meta, dict):
        errors.append("metadata: missing or not an object")
        meta = {}
    if meta.get("schema") != SCHEMA:
        errors.append(f"metadata.schema: expected {SCHEMA!r}, got {meta.get('schema')!r}")
    phases = meta.get("phases", {})
    if not isinstance(phases, dict) or not all(
        isinstance(v, (int, float)) for v in phases.values()
    ):
        errors.append("metadata.phases: must map phase names to numbers")

    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("traceEvents: missing or empty")
    else:
        for i, ev in enumerate(events):
            _check_event(ev, i, errors)

    spans = payload.get("spans")
    if not isinstance(spans, list):
        errors.append("spans: missing (must be a list, possibly empty)")
    elif not spans and not allow_empty_spans:
        errors.append("spans: empty — was the run traced? (repro count --trace)")
    else:
        _check_spans(spans, errors)
        if isinstance(events, list):
            _check_span_events(events, spans, errors)
    return [f"{path}: {e}" for e in errors]


def live_smoke(count_args: list[str], *, hold: float, timeout: float) -> list[str]:
    """Spawn a traced count with a live endpoint and scrape it mid-flight."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "count",
        "--metrics-port",
        "0",
        "--metrics-hold",
        str(hold),
        *count_args,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    errors: list[str] = []
    url = None
    try:
        assert proc.stdout is not None
        deadline = time.monotonic() + timeout
        for line in proc.stdout:
            if line.startswith("serving live metrics at "):
                url = line.split("serving live metrics at ", 1)[1].strip()
                break
            if time.monotonic() > deadline:
                break
        if url is None:
            errors.append("count never advertised a metrics URL")
        else:
            body = ""
            while time.monotonic() < deadline:
                body = urllib.request.urlopen(url, timeout=5).read().decode()
                if "progress_inputs_done" in body:
                    break
                time.sleep(0.2)
            for family in ("progress_inputs_total", "progress_inputs_done", "progress_fraction"):
                if family not in body:
                    errors.append(f"live scrape of {url} missing {family}")
        remaining = proc.stdout.read()  # drain so the child never blocks on a full pipe
        rc = proc.wait(timeout=timeout)
        if rc != 0:
            errors.append(f"count exited {rc}: ...{remaining[-300:]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="repro-trace/1 JSON file to validate")
    parser.add_argument(
        "--allow-empty-spans", action="store_true", help="accept a trace without spans"
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="smoke the live endpoint: everything after '--' goes to 'repro count'",
    )
    parser.add_argument("--hold", type=float, default=15.0, help="--metrics-hold for the child")
    parser.add_argument("--timeout", type=float, default=120.0, help="live-mode deadline (s)")
    parser.add_argument("count_args", nargs="*", help="(--live) arguments for 'repro count'")
    args = parser.parse_args(argv)

    if args.live:
        # argparse folds everything after ``--`` into the positionals, the
        # first of which lands in ``trace`` — reassemble in original order.
        extra = ([args.trace] if args.trace else []) + args.count_args
        errors = live_smoke(extra, hold=args.hold, timeout=args.timeout)
        label = "live endpoint"
    else:
        if not args.trace:
            parser.error("a trace file is required unless --live")
        errors = check_trace(Path(args.trace), allow_empty_spans=args.allow_empty_spans)
        label = args.trace
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{label}: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"{label}: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
