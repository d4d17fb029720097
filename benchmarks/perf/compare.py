"""``run.py --compare A.json B.json``: what changed between two full runs.

Prints one row per workload x end-to-end metric (delta, bound, verdict),
then the two headline ``wall_s`` ratios of each side, then the layer-level
diff a PR description should quote.  Every ratio is printed with its base.

Verdicts, with A as the base and B as the change:

* ``better`` / ``worse``: the sides' quartile ranges do not overlap, so
  the direction is resolved; ``worse`` beyond the metric's bound is a
  regression and makes the exit code 1.
* ``same``: the ranges overlap, and both the change of the median and
  each side's own spread are within the bound.
* ``unresolved``: the ranges overlap and the median moved, or a side
  spread, by more than the bound — the runs cannot tell; measure longer.
"""

from __future__ import annotations

import json
from pathlib import Path


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(relative change in the *worse* direction, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if a["q3"] < b["q1"] or b["q3"] < a["q1"]:
        if worse_by > bound:
            return worse_by, "worse: REGRESSION"
        return worse_by, "worse" if worse_by > 0 else "better"
    spread = max((side["q3"] - side["q1"]) / side["value"] for side in (a, b))
    return worse_by, "same" if max(abs(worse_by), spread) <= bound else "unresolved"


def compare(a_path: Path, b_path: Path, spec: dict) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    for label, path, side in (("A", a_path, a), ("B", b_path, b)):
        calib = [row["per_layer"]["host.calib_s"] for row in side["rows"].values()]
        print(
            f"{label} = {path}  seed {side['seed']}  {side['seconds']:g} s/workload  size {side['size']}\n"
            f"    host {side['fingerprint']}  host.calib_s {min(calib):.4f}..{max(calib):.4f}"
        )
    if (a["seed"], a["size"]) != (b["seed"], b["size"]):
        print("WARNING: the two sides ran different inputs; only rates are comparable")
    shared = [w for w in a["rows"] if w in b["rows"]]

    regressions = 0
    print(f"\n{'workload':22s} {'metric':12s} {'A':>12s} {'B':>12s} {'B vs A':>8s} {'bound':>6s}  verdict")
    for w in shared:
        ra, rb = a["rows"][w], b["rows"][w]
        for m in spec["end_to_end"]:
            ma, mb = ra["end_to_end"][m["name"]], rb["end_to_end"][m["name"]]
            worse_by, word = verdict(ma, mb, m["better"], m["bound"])
            regressions += word.endswith("REGRESSION")
            change = (mb["value"] - ma["value"]) / ma["value"]
            print(
                f"{w:22s} {m['name']:12s} {ma['value']:12.5g} {mb['value']:12.5g} "
                f"{change:+8.1%} {m['bound']:6.0%}  {word}  (n={ma['n']}/{mb['n']} {m['unit']})"
            )
        if ra["failed"] or rb["failed"]:
            regressions += rb["failed"] > ra["failed"]
            print(f"{w:22s} failed ops  A {ra['failed']}/{ra['attempted']}  B {rb['failed']}/{rb['attempted']}")
        if ra["seed"] == rb["seed"] and ra["digest"] != rb["digest"]:
            print(f"{w:22s} deterministic observables differ between A and B (model clock moved)")

    print()
    for label, side in (("A", a), ("B", b)):
        for num, den in (("grid-staged", "grid-fused"), ("bulk-kmer", "bulk-kmer-process2")):
            if num in side["rows"] and den in side["rows"]:
                x, y = (side["rows"][w]["end_to_end"]["wall_s"]["value"] for w in (num, den))
                print(f"{label}: wall_s {num} / {den} = {x:.4f} s / {y:.4f} s = {x / y:.3f}")

    print(f"\nlayer-level diff (one traced pass per side; no bound)\n{'workload':22s} {'layer metric':42s} B / A")
    for w in shared:
        la, lb = a["rows"][w]["per_layer"], b["rows"][w]["per_layer"]
        for m in spec["per_layer"]:
            x, y = la[m["name"]], lb[m["name"]]
            ratio = f"{y / x:.3f}" if x else "n/a"
            print(f"{w:22s} {m['name']:42s} {y:.6g} / {x:.6g} {m['unit']} = {ratio}")
    return 1 if regressions else 0
