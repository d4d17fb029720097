"""Synthetic genome and sequencing-read simulation.

The paper evaluates on real genomic FASTQ data (Table I).  Those files are
unavailable here, so this module generates the closest synthetic equivalents:
a random reference genome with a controllable *repeat structure* (repeats are
what skew the k-mer frequency distribution, which in turn drives the load
imbalance the paper measures in Table III and the non-linear scaling in
Fig. 9), and reads sampled from that reference at a target coverage with a
read-length profile and a substitution error model.

Length profiles model the two sequencing generations the paper discusses
(Section VI): "second generation" reads are short and near-constant length
(~100-250 bp); "third generation" reads are long and highly variable
(~1k-100k bp, log-normal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .alphabet import BASES
from .fastq import SequenceRecord
from .reads import ReadSet

__all__ = ["ReadLengthProfile", "GenomeSimulator", "ReadSimulator", "simulate_dataset"]


@dataclass(frozen=True)
class ReadLengthProfile:
    """Distribution of read lengths.

    ``kind="fixed"`` draws every read at ``mean`` bases (second generation).
    ``kind="lognormal"`` draws log-normal lengths with the given mean and
    sigma (of the underlying normal), clipped to ``[min_len, max_len]``
    (third generation).
    """

    kind: Literal["fixed", "lognormal"] = "fixed"
    mean: int = 150
    sigma: float = 0.5
    min_len: int = 50
    max_len: int = 100_000

    def __post_init__(self) -> None:
        if self.mean < 1:
            raise ValueError("mean read length must be positive")
        if not 0 < self.min_len <= self.max_len:
            raise ValueError("need 0 < min_len <= max_len")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` read lengths as an int64 array."""
        if self.kind == "fixed":
            return np.full(n, self.mean, dtype=np.int64)
        mu = np.log(self.mean) - self.sigma**2 / 2  # so E[length] == mean
        lengths = rng.lognormal(mean=mu, sigma=self.sigma, size=n)
        return np.clip(lengths, self.min_len, self.max_len).astype(np.int64)

    @classmethod
    def short_read(cls, length: int = 150) -> "ReadLengthProfile":
        """Illumina-like fixed-length profile."""
        return cls(kind="fixed", mean=length)

    @classmethod
    def long_read(cls, mean: int = 8_000, sigma: float = 0.6) -> "ReadLengthProfile":
        """PacBio/Nanopore-like log-normal profile."""
        return cls(kind="lognormal", mean=mean, sigma=sigma, min_len=500)


class GenomeSimulator:
    """Generates a random reference genome with tunable repeat content.

    The genome is built left to right in segments.  With probability
    ``repeat_fraction`` a segment is copied from a uniformly random earlier
    position (a duplication); otherwise it is i.i.d. random bases at the
    requested GC content.  Duplications are what give real genomes their
    heavy-tailed k-mer multiplicity spectrum; ``repeat_fraction=0`` yields an
    essentially repeat-free genome where almost every k-mer is unique per
    locus.
    """

    def __init__(
        self,
        length: int,
        *,
        gc_content: float = 0.5,
        repeat_fraction: float = 0.1,
        segment_length: int = 500,
        seed: int = 0,
    ) -> None:
        if length < 1:
            raise ValueError("genome length must be positive")
        if not 0.0 <= gc_content <= 1.0:
            raise ValueError("gc_content must be in [0, 1]")
        if not 0.0 <= repeat_fraction <= 1.0:
            raise ValueError("repeat_fraction must be in [0, 1]")
        if segment_length < 1:
            raise ValueError("segment_length must be positive")
        self.length = length
        self.gc_content = gc_content
        self.repeat_fraction = repeat_fraction
        self.segment_length = segment_length
        self.seed = seed

    def generate_codes(self) -> np.ndarray:
        """Return the genome as a uint8 storage-code array."""
        rng = np.random.default_rng(self.seed)
        # Base probabilities: split GC mass between C and G, AT between A and T.
        at = (1.0 - self.gc_content) / 2
        gc = self.gc_content / 2
        probs = np.array([at, gc, gc, at])  # A, C, G, T in storage order
        genome = np.empty(self.length, dtype=np.uint8)
        pos = 0
        while pos < self.length:
            seg = min(self.segment_length, self.length - pos)
            if pos > seg and rng.random() < self.repeat_fraction:
                src = int(rng.integers(0, pos - seg + 1))
                genome[pos : pos + seg] = genome[src : src + seg]
            else:
                genome[pos : pos + seg] = rng.choice(4, size=seg, p=probs).astype(np.uint8)
            pos += seg
        return genome

    def generate_string(self) -> str:
        """Return the genome as an ACGT string."""
        codes = self.generate_codes()
        lut = np.frombuffer(BASES.encode(), dtype=np.uint8)
        return lut[codes].tobytes().decode("ascii")


class ReadSimulator:
    """Samples sequencing reads from a reference at a target coverage.

    Read start positions are uniform over the reference; lengths follow the
    profile (truncated at the reference end); substitution errors are applied
    i.i.d. per base at ``error_rate`` (a new base is drawn uniformly from the
    three alternatives).  Enough reads are drawn for
    ``total_bases >= coverage * len(reference)``.
    """

    def __init__(
        self,
        reference: np.ndarray,
        *,
        coverage: float,
        length_profile: ReadLengthProfile,
        error_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        reference = np.ascontiguousarray(reference, dtype=np.uint8)
        if reference.size == 0:
            raise ValueError("reference must be non-empty")
        if coverage <= 0:
            raise ValueError("coverage must be positive")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        self.reference = reference
        self.coverage = coverage
        self.length_profile = length_profile
        self.error_rate = error_rate
        self.seed = seed

    def generate(self) -> ReadSet:
        """Simulate the reads and return them as a :class:`ReadSet`."""
        rng = np.random.default_rng(self.seed)
        ref = self.reference
        glen = ref.shape[0]
        target_bases = int(np.ceil(self.coverage * glen))
        # Over-draw length samples in chunks until coverage is met.
        lengths: list[int] = []
        starts: list[int] = []
        acc = 0
        est = max(1, target_bases // max(self.length_profile.mean, 1) + 1)
        while acc < target_bases:
            ls = self.length_profile.sample(est, rng)
            ss = rng.integers(0, glen, size=est)
            for length, start in zip(ls.tolist(), ss.tolist()):
                length = min(length, glen - start)
                if length < 1:
                    continue
                lengths.append(length)
                starts.append(start)
                acc += length
                if acc >= target_bases:
                    break
            est = max(16, (target_bases - acc) // max(self.length_profile.mean, 1) + 1)

        n = len(lengths)
        len_arr = np.asarray(lengths, dtype=np.int64)
        off_arr = np.empty(n, dtype=np.int64)
        total = int(len_arr.sum()) + n
        codes = np.full(total, 4, dtype=np.uint8)  # SENTINEL fill
        pos = 0
        for i in range(n):
            off_arr[i] = pos
            seg = ref[starts[i] : starts[i] + lengths[i]]
            codes[pos : pos + lengths[i]] = seg
            pos += lengths[i] + 1
        read_set = ReadSet(codes=codes, offsets=off_arr, lengths=len_arr)
        if self.error_rate > 0.0:
            read_set = _apply_substitutions(read_set, self.error_rate, rng)
        return read_set


#: Uniforms :func:`_apply_substitutions` draws at a time (8 MiB of float64).
SUBSTITUTION_CHUNK = 1 << 20


def _apply_substitutions(reads: ReadSet, rate: float, rng: np.random.Generator) -> ReadSet:
    """Flip each base to one of the other three with probability ``rate``.

    One uniform per code, drawn :data:`SUBSTITUTION_CHUNK` at a time — a
    chunked ``Generator.random`` gives the stream one draw would — keeping
    only the flip positions, so the working set is one chunk and the
    flips, not a float64 per base.
    """
    codes = reads.codes.copy()
    flips = [np.empty(0, dtype=np.int64)]
    for start in range(0, codes.shape[0], SUBSTITUTION_CHUNK):
        chunk = codes[start : start + SUBSTITUTION_CHUNK]
        hit = rng.random(chunk.shape[0]) < rate
        hit &= chunk < 4  # never mutate sentinels
        flips.append(np.flatnonzero(hit) + start)
    flips = np.concatenate(flips)
    # Add 1..3 mod 4 guarantees the substituted base differs from the original.
    deltas = rng.integers(1, 4, size=flips.shape[0], dtype=np.uint8)
    codes[flips] = (codes[flips] + deltas) % 4
    return ReadSet(codes=codes, offsets=reads.offsets, lengths=reads.lengths)


def simulate_dataset(
    *,
    genome_length: int,
    coverage: float,
    length_profile: ReadLengthProfile | None = None,
    gc_content: float = 0.5,
    repeat_fraction: float = 0.1,
    error_rate: float = 0.0,
    seed: int = 0,
) -> ReadSet:
    """One-call convenience: simulate a genome, then reads over it."""
    profile = length_profile or ReadLengthProfile.short_read()
    genome = GenomeSimulator(
        genome_length,
        gc_content=gc_content,
        repeat_fraction=repeat_fraction,
        seed=seed,
    ).generate_codes()
    return ReadSimulator(
        genome,
        coverage=coverage,
        length_profile=profile,
        error_rate=error_rate,
        seed=seed + 1,
    ).generate()


def reads_to_records(reads: ReadSet, prefix: str = "read") -> list[SequenceRecord]:
    """Convert a ``ReadSet`` to FASTQ-writable records (placeholder quality)."""
    return [SequenceRecord(name=f"{prefix}/{i}", sequence=reads.read_string(i)) for i in range(reads.n_reads)]
