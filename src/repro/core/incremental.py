"""Incremental distributed counting: stream batches, checkpoint, resume.

The paper processes inputs "in multiple rounds" when they exceed memory
limits (Section III-A); real deployments additionally stream many FASTQ
files into one histogram and need to survive job preemption.
:class:`DistributedCounter` provides that surface over the staged
execution core:

* ``add_reads(batch)`` runs one full parse→exchange→count pass through the
  shared :class:`~repro.core.stages.RoundScheduler` and folds the batch
  into the persistent per-rank tables (the global hash table partition
  lives across batches, exactly like DEDUKT's);
* timing/volume accounting accumulates in a
  :class:`~repro.core.stages.PipelineState`;
* ``save``/``load`` checkpoint that state so counting resumes after
  interruption.  The checkpoint is the partitioned table itself — every
  rank's capacity and slots as they lie, beside the cumulative timing,
  insert statistics and collective-traffic log (one format, described on
  :class:`~repro.core.stages.PipelineState`) — so a counter loaded from it
  continues on the same slots, and *every* observable of the resumed run
  — spectrum, timing, insert statistics, table capacities, traffic
  records — is bit-identical to an uninterrupted run's wherever the cut
  fell, which the tests assert.  A file that cannot be read back whole, or
  that an older format wrote, is rejected with one ``ValueError`` naming
  it, and a rejected ``load`` leaves the counter as it was.
* a batch that raises after its first exchange (a failed checksum, a
  full disk, an interrupt) has written part of itself into the tables
  and the traffic log, so the counter then refuses ``add_reads``,
  ``spectrum`` and ``save`` with one error naming the batch and its
  cause, until a ``load`` succeeds.  A batch refused before it exchanges
  (the budget floor, a bad option) leaves the counter usable.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from ..dna.reads import ReadSet
from ..gpu.hashtable import InsertStats
from ..kmers.spectrum import KmerSpectrum
from ..mpi.stats import TrafficStats
from ..mpi.topology import ClusterSpec
from ..telemetry import event, session
from .config import PipelineConfig
from .results import LoadStats, PhaseTiming
from .stages.checkpoint import PipelineState
from .stages.context import EngineOptions
from .stages.registry import build_composition
from .stages.scheduler import RoundScheduler
from .stages.standard import merge_partitions

__all__ = ["DistributedCounter"]


class DistributedCounter:
    """Stateful distributed k-mer counter over the simulated substrates."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: PipelineConfig | None = None,
        *,
        backend: str = "gpu",
        options: EngineOptions | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or PipelineConfig()
        self.options = options or EngineOptions()
        self._composition = build_composition(backend, self.config, self.options)
        self.backend = self._composition.backend
        self._scheduler = RoundScheduler(cluster, self.config, self._composition, self.options)
        self._state = PipelineState.fresh(cluster.n_ranks, self.config.table_seed)
        self._batches_left: int | None = None  # the open job's batches still to come, when it said

    # -- counting -----------------------------------------------------------

    def add_reads(self, reads: ReadSet) -> PhaseTiming:
        """Count one batch of reads into the persistent tables.

        Returns this batch's phase timing; cumulative totals are on the
        counter (:attr:`timing`, :attr:`received_kmers`, ...).  When the
        options carry a telemetry registry it is installed as the active
        session for the batch, exactly as :func:`repro.core.engine.run_pipeline`
        does.
        """
        self._check_usable()
        reg = self.options.telemetry
        ctx = session(reg) if reg is not None else nullcontext()
        last = self._batches_left == 1
        with ctx:
            batch_timing = self._scheduler.run_batch(reads, self._state, last=last)
        if self._batches_left:
            self._batches_left -= 1
        event(
            "counter.batch",
            subsystem="engine",
            batch=self.n_batches - 1,
            reads=reads.n_reads,
            model_s=round(batch_timing.total, 6),
            total_kmers=self.total_kmers,
        )
        if reg is not None:
            backend = self.backend
            reg.counter("batches_total", "Read batches folded into the counter", engine=backend).inc()
            for phase, secs in (
                ("parse", batch_timing.parse),
                ("exchange", batch_timing.exchange),
                ("count", batch_timing.count),
            ):
                reg.counter(
                    "phase_model_seconds_total",
                    "Bulk-synchronous phase time (max over ranks)",
                    engine=backend,
                    phase=phase,
                ).inc(secs)
            reg.gauge("load_imbalance", "max/mean received k-mers (Table III)", engine=backend).set(
                self.load_stats().imbalance
            )
        return batch_timing

    @contextmanager
    def job(self, n_batches: int | None = None):
        """The counting job's root ``run`` region on the options' recorder (a no-op when tracing is off).

        Batches counted inside it record their ``batch<n>`` regions as its
        children, so a job of many batches is one span tree and
        ``repro analyze`` tells its batches apart.  ``n_batches``, when
        known, is how many batches the job will add: a state empty at the
        last of them is then sized by its first insert, not born ahead of
        batches that will not come (as a budgeted stream's is, at the
        batch's parsed k-mers: :func:`~repro.core.stages.plan.plan_drive`).
        """
        self._batches_left = n_batches
        try:
            with self._scheduler.run_region(self.options.trace):
                yield
        finally:
            self._batches_left = None

    # -- persistent state (backed by the scheduler's PipelineState) ----------

    @property
    def tables(self):
        return self._state.tables

    @property
    def timing(self) -> PhaseTiming:
        return self._state.timing

    @property
    def traffic(self) -> TrafficStats:
        return self._state.traffic

    @property
    def received_kmers(self) -> np.ndarray:
        return self._state.received_kmers

    @property
    def exchanged_items(self) -> int:
        return self._state.exchanged_items

    @property
    def n_batches(self) -> int:
        return self._state.n_batches

    @property
    def insert_stats(self) -> InsertStats:
        return self._state.insert_stats

    # -- results ------------------------------------------------------------

    @property
    def total_kmers(self) -> int:
        return int(self.received_kmers.sum())

    def spectrum(self) -> KmerSpectrum:
        """The current merged global histogram."""
        self._check_usable()
        return merge_partitions(self.tables, self.config.k, self._composition.plugins)

    def load_stats(self) -> LoadStats:
        return LoadStats.from_loads(self.received_kmers)

    # -- checkpointing ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the counter state (tables + accounting) to an ``.npz``."""
        self._check_usable()
        t0 = perf_counter()
        path = self._state.save(path, k=self.config.k, canonical=self.config.canonical)
        self._note_checkpoint("save", path, perf_counter() - t0)
        return path

    def load(self, path: str | Path) -> None:
        """Restore state saved by :meth:`save` into this counter.

        The counter must have been constructed with the same cluster size,
        k and ``canonical``; anything else is a configuration error.
        """
        t0 = perf_counter()
        c = self.config
        self._state.load(
            path, k=c.k, canonical=c.canonical, table_seed=c.table_seed, table_dir=self.options.table_dir
        )
        self._note_checkpoint("load", Path(path), perf_counter() - t0)

    def _check_usable(self) -> None:
        """Refuse to count, merge or save a state that holds part of a failed batch."""
        if self._state.failed is not None:
            raise RuntimeError(f"counter unusable: {self._state.failed}; load a checkpoint to continue")

    def _note_checkpoint(self, op: str, path: Path, seconds: float) -> None:
        n_bytes = path.stat().st_size
        event(
            "counter.checkpoint",
            subsystem="engine",
            op=op,
            bytes=n_bytes,
            seconds=round(seconds, 6),
            batches=self.n_batches,
        )
        reg = self.options.telemetry
        if reg is not None:
            reg.counter("checkpoint_seconds_total", "Host seconds saving/loading checkpoints", wall=True, op=op).inc(
                seconds
            )
            if op == "save":
                reg.counter("checkpoint_bytes_written_total", "Checkpoint bytes written", wall=True).inc(n_bytes)
