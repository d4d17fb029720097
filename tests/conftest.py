"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.dna.reads import ReadSet
from repro.dna.simulate import GenomeSimulator, ReadLengthProfile, ReadSimulator


def random_dna(rng: random.Random, length: int, alphabet: str = "ACGT") -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def small_reads() -> ReadSet:
    """A small deterministic read set with varied lengths and some Ns."""
    r = random.Random(42)
    reads = [random_dna(r, r.randint(20, 300)) for _ in range(40)]
    reads[3] = reads[3][:10] + "N" + reads[3][11:]
    reads[7] = "ACGT"  # shorter than most k
    reads.append(random_dna(r, 25, "ACGTN"))
    return ReadSet.from_strings(reads)


@pytest.fixture(scope="session")
def genome_reads() -> ReadSet:
    """Coverage-sampled reads over a repetitive genome (realistic skew)."""
    genome = GenomeSimulator(20_000, repeat_fraction=0.2, seed=7).generate_codes()
    return ReadSimulator(
        genome,
        coverage=12,
        length_profile=ReadLengthProfile(kind="lognormal", mean=600, sigma=0.5, min_len=60),
        error_rate=0.005,
        seed=8,
    ).generate()


@pytest.fixture(scope="session")
def np_rng() -> np.random.Generator:
    return np.random.default_rng(123)


def assert_block_leaves_tile(spans, n_ranks: int) -> None:
    """Work leaves recorded once per rank block: ``rank`` is the block's first rank and the
    ``ranks`` ranges of the leaves tile ``range(n_ranks)`` exactly."""
    ranges = sorted(tuple(s.meta["ranks"]) for s in spans)
    assert sorted(s.rank for s in spans) == [r0 for r0, _ in ranges]
    assert [r for r0, r1 in ranges for r in range(r0, r1)] == list(range(n_ranks))


def custom_backend(monkeypatch, edit) -> None:
    """Make ``run_pipeline(..., backend="custom")`` run the ``gpu`` composition as ``edit(comp)`` returns it."""
    from repro.core import engine

    build = engine.build_composition

    def build_custom(backend, config, opts):
        if backend != "custom":
            return build(backend, config, opts)
        return edit(build("gpu", config, opts))

    monkeypatch.setattr(engine, "build_composition", build_custom)
