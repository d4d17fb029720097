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
stage registry's lazy backend discovery keeps ``core`` free of any
static ``ext`` import — that is by design, not an oversight.

A second, textual check keeps the bit-identity contract's formulas
defined once (``SINGLE_DEFINITIONS``): the emitters of the telemetry
families every strategy must report identically, the stages' kernel-traffic
constructor, the exchange-outcome assembly, the parse and count bodies'
per-rank charges, the merges' equal-key aggregation, the host working
set per received item, the table's insert probe loop, its slot dump,
the segment gather index and the engine's one table birth may each
appear in their owning file only, so neither the scheduler nor the
spool can regrow a private copy.

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
    (".charge_count(", "core/stages", "core/stages/standard.py", False),
    (".charge_parse(", "core/stages", "core/stages/standard.py", True),
    ("np.flatnonzero(keys[1:] != keys[:-1])", "", "core/stages/standard.py", True),
    ("wire * 2 + 8.0", "", "core/stages/scheduler.py", True),
    ("while pending.size", "gpu", "gpu/hashtable.py", True),
    ("np.repeat(starts - out_starts, lens)", "", "mpi/collectives.py", True),
    ("np.packbits(", "", "gpu/hashtable.py", True),
    ("SegmentedHashTable(", "core/stages", "core/stages/spill.py", True),
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
