"""Registry-pluggable pipeline stages built from the extension modules.

Two extensions of the paper's pipeline, packaged as
:class:`~repro.core.stages.protocols.PipelinePlugin` stages so the engine,
the incremental counter, the SPMD programs, and the CLI can all enable
them by name (``EngineOptions(stages=("bloom", "balanced"))`` or
``repro count --stages bloom,balanced``):

* ``"bloom"`` — HipMer-style Bloom singleton pre-filter at each
  destination rank (:mod:`repro.ext.bloom`): the first occurrence of a
  k-mer arms the rank's filter instead of entering the hash table; merge
  time restores that occurrence, so non-singleton counts stay exact and
  singletons (overwhelmingly sequencing errors) never consume table
  memory.
* ``"balanced"`` — the frequency-aware balanced minimizer partitioning of
  Section VII's future work (:mod:`repro.ext.balanced`): a pre-pass
  estimates per-minimizer k-mer weights and assigns whole bins to ranks
  with LPT greedy scheduling, replacing the hash minimizer->rank map.

Importing this module registers both under
:mod:`repro.core.stages.registry`; the registry also imports it lazily on
first lookup, so CLI users never need an explicit import.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.config import PipelineConfig
from ..core.stages.context import EngineOptions
from ..core.stages.protocols import PartitionStage, PipelinePlugin
from ..core.stages.registry import register_stage
from ..core.stages.standard import MinimizerHashPartition
from ..dna.reads import ReadSet
from ..mpi.topology import ClusterSpec
from .balanced import balanced_minimizer_assignment
from .bloom import BloomFilter

__all__ = ["BloomPrefilterPlugin", "BalancedPartitionPlugin"]


class BloomPrefilterPlugin(PipelinePlugin):
    """Destination-side Bloom pre-filter suppressing singleton k-mers.

    Each rank owns one Bloom filter (rank-private, so concurrent rank
    workers never share state).  ``filter_received`` lets through only
    k-mers the rank has seen before; ``adjust_merge_items`` adds back the
    occurrence that armed the filter, so every surviving k-mer's count is
    exact.  Singletons are dropped from the spectrum, hence
    ``alters_spectrum`` — the scheduler skips its conservation check.
    """

    name = "bloom"
    alters_spectrum = True

    def __init__(self, *, bits_per_key: int = 12, n_hashes: int = 4, seed: int = 0) -> None:
        self.bits_per_key = bits_per_key
        self.n_hashes = n_hashes
        self.seed = seed
        self._capacity = 1 << 16  # refined by prepare() from the input size
        self._filters: dict[int, BloomFilter] = {}
        self._lock = threading.Lock()

    def prepare(
        self, reads: ReadSet, config: PipelineConfig, cluster: ClusterSpec, opts: EngineOptions
    ) -> None:
        # Size each rank's filter for its expected share of k-mer instances
        # (bounded below so tiny inputs still get a working filter).
        per_rank = int(reads.total_bases) // max(cluster.n_ranks, 1)
        self._capacity = max(per_rank, 1024)

    def _filter_for(self, rank: int) -> BloomFilter:
        bloom = self._filters.get(rank)
        if bloom is None:
            with self._lock:
                bloom = self._filters.get(rank)
                if bloom is None:
                    bloom = BloomFilter(
                        self._capacity,
                        bits_per_key=self.bits_per_key,
                        n_hashes=self.n_hashes,
                        seed=self.seed + rank,
                    )
                    self._filters[rank] = bloom
        return bloom

    def filter_received(self, rank: int, kmers: np.ndarray) -> np.ndarray:
        if not kmers.size:
            return kmers
        seen_before = self._filter_for(rank).add_if_absent(kmers)
        return kmers[seen_before]

    def adjust_merge_items(self, values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each table entry is missing exactly one occurrence: the one that
        # armed its owner rank's filter.  (Canonical supermer mode can split
        # a k-mer across two owners; each owner's partition still gets +1
        # because each armed its own filter once.)
        return values, counts + 1


class BalancedPartitionPlugin(PipelinePlugin):
    """Frequency-balanced minimizer partitioning (Section VII future work).

    ``prepare`` samples the first read batch to estimate minimizer bin
    weights and builds an LPT bin->rank assignment; the partition stage the
    plugin installs routes supermers through that map instead of the hash
    assignment.  Spectrum-preserving (only ownership moves), so the
    scheduler's conservation check stays on.
    """

    name = "balanced"

    def __init__(self, *, sample_fraction: float = 1.0, seed: int = 0) -> None:
        self.sample_fraction = sample_fraction
        self.seed = seed
        self._stage = MinimizerHashPartition(assignment=None)

    def prepare(
        self, reads: ReadSet, config: PipelineConfig, cluster: ClusterSpec, opts: EngineOptions
    ) -> None:
        if self._stage.assignment is not None:
            return  # keep the assignment from the first batch of a stream
        self._stage.assignment = balanced_minimizer_assignment(
            reads,
            config.k,
            config.minimizer_len,
            cluster.n_ranks,
            ordering=config.ordering,
            sample_fraction=self.sample_fraction,
            seed=self.seed,
        )

    def partition_stage(self) -> PartitionStage:
        return self._stage


register_stage(
    "bloom",
    BloomPrefilterPlugin,
    description="Bloom singleton pre-filter at each destination rank (HipMer lineage)",
    modes=("kmer", "supermer"),
)
register_stage(
    "balanced",
    BalancedPartitionPlugin,
    description="frequency-balanced minimizer partitioning via sampled LPT assignment",
    modes=("supermer",),
)
