"""The SPMD rendering of a stage composition: one rank program, real comms.

The BSP scheduler (:mod:`repro.core.stages.scheduler`) simulates all ranks
in one process; this module renders the *same stage objects* as an
MPI-style per-rank program for :class:`repro.mpi.ThreadedWorld`: the
parse and partition stages' ``extract_at`` and ``owners``, the count stage's
``extract_kmers``, the plugins' filter, and the one merge
(:func:`~repro.core.stages.standard.merge_items`).  It shares those
objects, not the phase bodies: a rank routes its items with boolean
masks and counts them through ``insert_batch``, so the two renderings
agree because the golden suite pins both, not by construction.

SPMD programs are correctness-only: no cost model, no telemetry.  Model
timing lives in the scheduler.
"""

from __future__ import annotations

import numpy as np

from ...dna.reads import ReadSet
from ...gpu.hashtable import DeviceHashTable
from ...kmers.spectrum import KmerSpectrum
from ...mpi.comm import Comm
from ..config import PipelineConfig
from .registry import StageComposition
from .standard import (
    KmerHashPartition,
    KmerParse,
    MinimizerHashPartition,
    SupermerParse,
    TableCount,
    merge_items,
)

__all__ = ["staged_rank_program"]


def staged_rank_program(
    comm: Comm,
    shard: ReadSet,
    config: PipelineConfig,
    composition: StageComposition | None = None,
) -> KmerSpectrum | None:
    """One rank of the staged pipeline: parse -> route -> alltoallv -> count.

    Reads like Algorithm 1 / Algorithm 2, calling the shared stage objects
    and the one merge.  Pass a :class:`StageComposition` (e.g. from
    :func:`repro.core.stages.registry.build_composition`) to run extension
    stages; the default is the paper's pipeline for ``config.mode``.
    Returns the merged global spectrum on rank 0, ``None`` elsewhere.
    """
    if composition is not None:
        parse, partition = composition.parse, composition.partition
        count, plugins = composition.count, composition.plugins
    elif config.mode == "kmer":
        parse, partition, count, plugins = KmerParse(), KmerHashPartition(), TableCount(), ()
    else:
        parse, partition, count, plugins = SupermerParse(), MinimizerHashPartition(), TableCount(), ()

    # PARSE: every rank extracts wire items from its own shard.
    items = parse.extract_at(shard, config)[0]
    owners = partition.owners(items.route_keys, comm.size, config)

    # EXCHANGE: destination-bucketed many-to-many (two parallel alltoallvs
    # in supermer mode — payload words + lengths — exactly like Algorithm
    # 2's pair of ALLTOALLV calls).
    send = [items.data[owners == dst] for dst in range(comm.size)]
    received = comm.alltoallv(send)
    recv_lengths: list[np.ndarray] | None = None
    if items.lengths is not None:
        send_lens = [items.lengths[owners == dst] for dst in range(comm.size)]
        recv_lengths = comm.alltoallv(send_lens)

    # COUNT: local partition of the global open-addressing table.
    table = DeviceHashTable(64, seed=config.table_seed)
    for i, buf in enumerate(received):
        lens = recv_lengths[i] if recv_lengths is not None else None
        kmers = count.extract_kmers(buf, lens, config)
        for plugin in plugins:
            kmers = plugin.filter_received(comm.rank, kmers)
        if kmers.size:
            table.insert_batch(kmers)

    # MERGE: gather per-rank partitions to rank 0 and fold into a spectrum.
    values, counts = table.items()
    gathered = comm.gather((values, counts), root=0)
    if comm.rank != 0:
        return None
    return merge_items(list(gathered), config.k, plugins)
