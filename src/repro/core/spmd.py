"""SPMD rank programs: the pipelines as ordinary MPI-style code.

The BSP scheduler (:mod:`repro.core.stages.scheduler`) simulates all ranks
in one process, which is ideal for deterministic experiments but looks
nothing like the paper's actual MPI code.  This module provides the
*other* rendering: one per-rank program for :class:`repro.mpi.ThreadedWorld`
whose body reads like Algorithm 1 / Algorithm 2 — parse your shard,
alltoallv, count, gather.

The rank program runs the scheduler's phase bodies on its own shard: the
one parse body (:func:`~repro.core.stages.standard.parse_block`), the
count stage's ``count_block`` into a one-region table, and the one merge
(:func:`~repro.core.stages.standard.merge_items`).  Only the exchange is
its own — real ``comm.alltoallv`` calls — so the two renderings agree by
construction, rank by rank: the same slots, the same insert statistics,
the same spectrum.  The model seconds the bodies return are discarded:
SPMD programs are correctness-only (no timing, no ``CountResult``).  Use
them as templates for prototyping new distributed k-mer algorithms.
"""

from __future__ import annotations

import numpy as np

from ..dna.reads import ReadSet, ShardRanges
from ..kmers.spectrum import KmerSpectrum
from ..mpi.comm import Comm, run_spmd
from ..mpi.costmodel import CommCostModel
from ..mpi.stats import TrafficStats
from ..mpi.topology import ClusterSpec
from .config import PipelineConfig
from .parallel import get_pool
from .stages.buffers import join_kmers
from .stages.context import EngineOptions, StageContext
from .stages.plan import plan_drive
from .stages.registry import StageComposition, build_composition
from .stages.spill import block_table
from .stages.standard import merge_items, parse_block

__all__ = ["staged_rank_program", "count_spmd"]


def staged_rank_program(
    comm: Comm,
    ranges: ShardRanges,
    config: PipelineConfig,
    composition: StageComposition | None = None,
) -> KmerSpectrum | None:
    """One rank of the pipeline: parse -> alltoallv -> count -> gather.

    ``ranges`` is the whole input's shards (``ShardRanges.of(reads,
    comm.size, k - 1)``); this rank parses shard ``comm.rank``.  Pass a
    :class:`StageComposition` (e.g. from
    :func:`repro.core.stages.registry.build_composition`, its plugins
    prepared as the scheduler prepares them) to run extension stages; the
    default is the paper's GPU pipeline for ``config.mode``.  Returns the
    merged global spectrum on rank 0, ``None`` elsewhere.
    """
    opts = EngineOptions()
    cluster = ClusterSpec("spmd", n_nodes=1, ranks_per_node=comm.size)
    comp = composition if composition is not None else build_composition("gpu", config, opts)
    ctx = StageContext(
        config=config,
        cluster=cluster,
        opts=opts,
        substrate=comp.substrate,
        pool=get_pool(1),
        comm_model=CommCostModel(cluster),
        stats=TrafficStats(),
    )

    # PARSE: this rank's shard into its send slice, destination-segmented.
    data, lengths, summary = parse_block(
        ranges, comm.rank, comm.rank + 1, comp.parse, comp.partition, comp.substrate, ctx
    )

    # EXCHANGE: one alltoallv of per-destination views (two in supermer
    # mode — payload words + lengths — like Algorithm 2's pair of ALLTOALLV
    # calls; k-mers leave their host form first, so Algorithm 1 sends one
    # payload of whole words); what arrives is this rank's receive array,
    # in source order.
    if not ctx.supermer_mode:
        data, lengths = join_kmers(data, lengths), None
    cuts = np.cumsum(summary.counts_matrix[0])[:-1]
    recv = np.concatenate(comm.alltoallv(np.split(data, cuts)))
    recv_lengths = None if lengths is None else np.concatenate(comm.alltoallv(np.split(lengths, cuts)))

    # COUNT: this rank's partition of the global table.
    table = block_table(plan_drive(summary, ctx).hints, config.table_seed)
    offsets = np.array([0, recv.shape[0]], dtype=np.int64)
    comp.count.count_block(table, recv, recv_lengths, offsets, ctx, rank0=comm.rank)

    # MERGE: gather the partitions to rank 0 and fold them into a spectrum.
    gathered = comm.gather(table.items_flat(), root=0)
    if comm.rank != 0:
        return None
    return merge_items(gathered, config.k, comp.plugins)


def count_spmd(reads: ReadSet, n_ranks: int, config: PipelineConfig | None = None) -> KmerSpectrum:
    """Run the SPMD rank program across a threaded world.

    Convenience wrapper: shards the input once (byte-balanced, k-1
    overlap, the scheduler's rule), runs one thread per rank, and returns
    rank 0's merged spectrum.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be positive")
    config = config or PipelineConfig()
    ranges = ShardRanges.of(reads, n_ranks, config.k - 1)
    results = run_spmd(n_ranks, staged_rank_program, [ranges] * n_ranks, [config] * n_ranks)
    return results[0]
