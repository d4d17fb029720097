#!/usr/bin/env python3
"""Import-boundary lint for the ``repro`` package.

The package is layered; a module may import only from its own layer or
below.  Higher numbers sit higher in the stack:

    0  telemetry                      (imports nothing from repro)
    1  dna, hashing, kmers            (pure data structures / algorithms)
    2  machines                       (declarative machine models; pure data)
    3  mpi, gpu                       (simulated substrates)
    4  core                           (staged execution core)
    5  ext                            (extensions; may build on core)
    6  bench, cli                     (user-facing surfaces)

Enforced statically over the AST, including imports deferred into
function bodies.  ``if TYPE_CHECKING:`` blocks are exempt: annotations
may reference higher layers (e.g. ``mpi.collectives`` typing against
``core.parallel.RankPool``) without creating a runtime edge.  Note the
stage registry imports ``repro.ext.stages`` by name (``importlib``), so
``core`` keeps free of any static ``ext`` import — that is by design,
not an oversight.

A second, textual check keeps the bit-identity contract's formulas
defined once (``SINGLE_DEFINITIONS``): the emitters of the telemetry
families every strategy must report identically, the stages' kernel-traffic
constructor, the exchange-outcome assembly, the parse and count bodies'
per-rank charges, the one pair fold's equal-key runs and the one run
count's head mask (``merge_counts`` and ``dedup_batch``, so no counter
regrows a sum over equal keys), the calls of the pair sort
(``sort_pairs(``, table module only) and, within ``core``, of the fold
(``merge_counts(``, which ``merge_items`` reaches for every residency,
so no residency regrows a sorted-run merge of its own), the host working
set per received item and the table term (a slot at the default load,
``16 / 0.7``, which the drive plan names once and every law reads), the
table's insert probe loop, its slot dump,
the segment gather index, the shard ranges' cut ``total * s // P``
(``ShardRanges``, the one input partition) and the parse kernel's
thread count, the call of the one block gather (``blk.take(`` in
``spill._gather``, which a resident count block and a spooled exchange
share), the cut of segments into rounds (``round_cut``), the exchange
checksum's XOR reduction, the engine's one table birth and its capacity
hint (the drive plan's, which the round driver and the SPMD rank program
both read), a streamed state's birth hint (each rank's parsed k-mers as
far as the host budget has room for their slots: the drive plan's, which
``Resident.tables`` reads), the pair sort
(its packed word and its argsort fallback), the owner reduction
``hash mod P``, the one renderer of Chrome span (``X``) events, the
one wall summary (busy / elapsed / overlap), the one silent fallback
(an ``engine.*.fallback`` event, in strategy resolution), the one
suffix of a round's name (``f"-round{rnd}"``, which the round driver adds
to a drive's exchange label when it has more rounds than one and every
residency reads off the round's record) and the one
declaration of the interconnect (``injection_bw: float``, a
``NetworkSpec`` field, so no machine or cluster spec mirrors it again)
and the FASTQ framing rule's length test (``next_fastq_record``, which
the byte-range reader's boundary scan calls too) and the width rule of a
k-mer's host form (``split_kmers``: its low word, plus a high byte up to
k = 20, which the parse body calls and the count's join inverts)
may each appear in their owning file only, so neither the scheduler nor
the spool nor a report can regrow a private copy.

Usage: ``python tools/check_layers.py [--root src/repro]``.
Exits 0 when clean, 1 with one ``file:line`` diagnostic per violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

LAYERS: dict[str, int] = {
    "telemetry": 0,
    "dna": 1,
    "hashing": 1,
    "kmers": 1,
    "machines": 2,
    "mpi": 3,
    "gpu": 3,
    "core": 4,
    "ext": 5,
    "bench": 6,
    "cli": 6,
}

PACKAGE = "repro"

#: ``(text, scope directory, owning file, at most once?)``, paths relative
#: to the package root: within the scope the text may appear in the owner
#: only — and the owner, when it exists, must still hold it.
SINGLE_DEFINITIONS: list[tuple[str, str, str, bool]] = [
    ('"hashtable_inserts_total"', "", "gpu/hashtable.py", True),
    ('"hashtable_probe_length"', "", "gpu/hashtable.py", True),
    ('"gpu_kernel_launches_total"', "", "gpu/kernels.py", True),
    ('"gpu_kernel_model_seconds_total"', "", "gpu/kernels.py", True),
    ('"comm_alltoallv_calls_total"', "", "mpi/collectives.py", True),
    ("TrafficEstimate(", "core/stages", "core/stages/standard.py", False),
    ("ExchangeOutcome(", "core/stages", "core/stages/standard.py", True),
    (".charge_count(", "core/stages", "core/stages/standard.py", True),
    (".charge_parse(", "core/stages", "core/stages/standard.py", True),
    ("np.flatnonzero(keys[1:] != keys[:-1])", "", "gpu/hashtable.py", True),
    ("np.not_equal(keys[1:], keys[:-1], out=head[1:])", "", "gpu/hashtable.py", True),
    ("wire * 2 + 8.0", "", "core/stages/plan.py", True),
    ("16 / 0.7", "", "core/stages/plan.py", True),
    ("while pending.size", "gpu", "gpu/hashtable.py", True),
    ("np.repeat(starts - out_starts, lens)", "", "mpi/collectives.py", True),
    ("blk.take(", "core/stages", "core/stages/spill.py", True),
    ("(seg_lens * rnd) // n_rounds", "", "core/stages/buffers.py", True),
    ("np.bitwise_xor.reduce(", "", "core/stages/standard.py", True),
    ("np.packbits(", "", "gpu/hashtable.py", True),
    ("SegmentedHashTable(", "core/stages", "core/stages/spill.py", True),
    ("np.bitwise_or(packed, counts.view(np.uint64), out=packed)", "", "gpu/hashtable.py", True),
    ("np.argsort(keys)", "", "gpu/hashtable.py", True),
    ("np.floor_divide(h, p, out=q)", "", "hashing/partition.py", True),
    ("// max(p, 1) + 16", "", "core/stages/plan.py", True),
    ("np.minimum(summary.n_kmers, room)", "", "core/stages/plan.py", True),
    ('"X"', "", "telemetry/spans.py", True),
    (".overlap_factor(", "", "telemetry/spans.py", True),
    ('.fallback"', "", "core/stages/scheduler.py", True),
    ('f"-round{rnd}"', "", "core/stages/scheduler.py", True),
    ("* total // n_shards", "", "dna/reads.py", True),
    ("code_bytes - config.k + 1", "", "core/stages/standard.py", True),
    ("merge_counts(", "core", "core/stages/standard.py", False),
    ("sort_pairs(", "", "gpu/hashtable.py", False),
    ("injection_bw: float", "", "machines/network.py", True),
    ("len(qual) != len(seq)", "", "dna/fastq.py", True),
    ("if k > 20:", "", "core/stages/buffers.py", True),
    ("(kmers >> np.uint64(32)).astype(np.uint8)", "", "core/stages/buffers.py", True),
]


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


def _imported_components(node: ast.AST, importer_parts: tuple[str, ...]) -> list[tuple[str, int]]:
    """Top-level repro components referenced by an import node, with lines.

    ``importer_parts`` is the importing module's dotted path relative to
    the package root, e.g. ``("core", "stages", "registry")``.
    """
    found: list[tuple[str, int]] = []

    def note(parts: list[str], lineno: int) -> None:
        # ``parts`` is a full dotted path starting with the package root;
        # the layered component is the element right under it.
        if parts[:1] == [PACKAGE] and len(parts) > 1:
            found.append((parts[1], lineno))

    if isinstance(node, ast.Import):
        for alias in node.names:
            note(alias.name.split("."), node.lineno)
    elif isinstance(node, ast.ImportFrom):
        module = node.module.split(".") if node.module else []
        if node.level == 0:
            note(module, node.lineno)
        else:
            # Relative import: resolve against the importer's dotted path.
            base = list(importer_parts[: len(importer_parts) - node.level])
            if module:
                note(base + module, node.lineno)
            else:
                # ``from . import x`` at some level: each name is a component.
                for alias in node.names:
                    note(base + [alias.name], node.lineno)
    return found


def _walk_skipping_type_checking(tree: ast.AST):
    """Yield nodes like ast.walk, but skip ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)  # the else branch still runs
            continue
        stack.extend(ast.iter_child_nodes(node))


def check_file(path: Path, root: Path) -> list[str]:
    rel = path.relative_to(root)
    # Component = first directory under the package root, or the module
    # stem for top-level modules (cli.py).  The package __init__ sits
    # above all layers and may import anything.
    if len(rel.parts) == 1:
        component = rel.stem
        if component == "__init__":
            return []
    else:
        component = rel.parts[0]
    layer = LAYERS.get(component)
    if layer is None:
        return [f"{path}: component {component!r} missing from tools/check_layers.py LAYERS map"]

    importer_parts = rel.parts[:-1] if rel.name == "__init__.py" else rel.with_suffix("").parts
    # Relative-import resolution counts from the full dotted module path
    # including the package root itself.
    resolver_parts = (PACKAGE, *importer_parts)

    violations: list[str] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in _walk_skipping_type_checking(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target, lineno in _imported_components(node, resolver_parts):
            if target == PACKAGE or target == component:
                continue
            target_layer = LAYERS.get(target)
            if target_layer is None:
                continue  # not a layered component (stdlib sibling etc.)
            if target_layer > layer:
                violations.append(
                    f"{path}:{lineno}: {component} (layer {layer}) imports "
                    f"{target} (layer {target_layer}) — back-edge"
                )
    return violations


def check_single_definitions(root: Path) -> list[str]:
    violations: list[str] = []
    for text, scope, owner, once in SINGLE_DEFINITIONS:
        owner_path = root / owner
        for path in sorted((root / scope).rglob("*.py")):
            lines = [n for n, line in enumerate(path.read_text().splitlines(), 1) if text in line]
            if path == owner_path:
                if not lines:
                    violations.append(f"{path}: owner of {text!r} no longer contains it")
                lines = lines[1:] if once else []
            violations.extend(
                f"{path}:{n}: {text!r} is defined once, in {owner} — call that instead" for n in lines
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src/repro", help="package root to scan")
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_file(path, root))
    violations.extend(check_single_definitions(root))
    for line in violations:
        print(line)
    if violations:
        print(f"\n{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print(
        f"layering OK: {sum(1 for _ in root.rglob('*.py'))} files, no back-edges, "
        f"{len(SINGLE_DEFINITIONS)} single definitions"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
