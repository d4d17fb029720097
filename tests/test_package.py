"""Package-level sanity: public API surface, version, re-export integrity."""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Run in a fresh interpreter: a finder at the head of ``sys.meta_path``
#: refuses the packages ``pyproject.toml`` does not declare, then the
#: package and its command-line entry are imported.
_UNDECLARED_IMPORT_PROBE = """
import importlib.abc
import sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {"networkx"}:
            raise ModuleNotFoundError(f"No module named {name!r} (undeclared)", name=name)
        return None

sys.meta_path.insert(0, Refuse())
import repro
import repro.cli
print("ok")
"""

SUBPACKAGES = ["repro.dna", "repro.hashing", "repro.kmers", "repro.mpi", "repro.gpu", "repro.core", "repro.ext", "repro.bench"]


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_docstrings_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim."""
        from repro import count_distributed, count_kmers_exact, load_dataset, paper_config

        reads = load_dataset("ecoli30x", scale=0.05)
        oracle = count_kmers_exact(reads, 17)
        result = count_distributed(
            reads, n_nodes=2, backend="gpu", config=paper_config(mode="supermer")
        )
        result.validate_against(oracle)
        summary = result.summary()
        assert summary["total_kmers"] == oracle.n_total

    def test_cli_module_entry(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"


class TestDeclaredDependencies:
    def test_imports_without_undeclared_packages(self):
        """``import repro`` and ``import repro.cli`` need only what ``pyproject.toml`` declares."""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _UNDECLARED_IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


def _subcommands() -> set[str]:
    from repro.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


class TestDocumentationDrift:
    """The README and the ``repro.cli`` docstring name exactly what exists."""

    def test_readme_examples_table_names_every_example(self):
        readme = (ROOT / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+\.py)` \|", readme, re.M)
        assert len(rows) == len(set(rows))
        assert set(rows) == {p.name for p in (ROOT / "examples").glob("*.py")}

    def test_readme_cli_line_names_every_subcommand(self):
        readme = (ROOT / "README.md").read_text()
        (line,) = re.findall(r"CLI: `repro ([^`]+)`", readme)
        names = [name.strip() for name in line.split("|")]
        assert len(names) == len(set(names))
        assert set(names) == _subcommands()

    def test_cli_docstring_names_every_subcommand(self):
        import repro.cli

        names = re.findall(r"^``repro (\w+)``$", repro.cli.__doc__, re.M)
        assert len(names) == len(set(names))
        assert set(names) == _subcommands()
