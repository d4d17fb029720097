"""Checkpoint/resume: the streamed surface's :class:`PipelineState` and its one file format.

``RoundScheduler.run_batch`` folds each batch into the state; its
checkpoint *is* the tables (format and guarantees on :class:`PipelineState`).
"""

from __future__ import annotations

import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ...gpu.hashtable import EMPTY_KEY, InsertStats, SegmentedRankView, dump_slots
from ...gpu.segmented import SegmentedHashTable, view_blocks
from ...mpi.stats import CollectiveRecord, TrafficStats
from ..results import PhaseTiming
from .plan import table_blocks
from .spill import block_table

__all__ = ["PipelineState"]

#: The one checkpoint format (see :class:`PipelineState`); files of any
#: other version are rejected by :meth:`PipelineState.load`.
_CHECKPOINT_VERSION = 4

#: Why a file of an older format version cannot be resumed from.
_OLDER_FORMATS = dict.fromkeys(
    (1, 2), "stores sorted items, not the tables' slot layout a bit-identical resume continues from"
) | {3: "does not record whether its keys are canonical"}

#: Field order of the serialized :class:`InsertStats` vector.
_INSERT_STAT_FIELDS = "n_instances n_distinct total_probes max_probe cas_conflicts rounds resizes".split()

#: The members of a checkpoint besides ``version``: a fixed set, whatever
#: the rank count and however many collectives the traffic log holds.
_CHECKPOINT_MEMBERS = (
    "k canonical n_ranks n_batches exchanged_items received timing insert_stats "
    "capacities occupancy keys counts "
    "traffic_meta traffic_bytes traffic_has_items traffic_items"
).split()


def _unusable(path, why: str) -> ValueError:
    return ValueError(f"{path}: not a usable checkpoint: {why}")


def _read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Every member of the checkpoint at ``path``, read whole and CRC-checked.

    Whatever keeps the file from being read back — truncated, empty,
    corrupted, a member missing, another format version — is one
    ``ValueError`` that names the file.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                version = int(data["version"][0])
                if version == _CHECKPOINT_VERSION:
                    return {name: data[name] for name in _CHECKPOINT_MEMBERS}
        except (zipfile.BadZipFile, EOFError, KeyError, IndexError, OSError, ValueError) as exc:
            raise _unusable(path, f"{type(exc).__name__}: {exc}") from exc
    why = _OLDER_FORMATS.get(version, "this build does not read")
    raise _unusable(
        path, f"it is format version {version}, which {why} (version {_CHECKPOINT_VERSION}); recount the inputs"
    )


@dataclass
class PipelineState:
    """Persistent cross-batch state: table partitions + accounting.

    ``tables`` holds one view per rank of block-local tables, born by the
    first batch that counts keys into the state (or by :meth:`load`);
    every later batch counts through those blocks, whichever strategy runs
    it.  The checkpoint (format version 4, an uncompressed ``.npz`` whose
    zip CRC-32s detect corruption) holds the tables *as they are*:
    ``capacities`` (one per rank), and for the regions end to end the
    ``occupancy`` bitmap and the occupied ``keys``/``counts`` in slot order
    (:func:`~repro.gpu.hashtable.dump_slots`); beside them ``k``,
    ``canonical``, ``n_ranks``, ``n_batches``, ``exchanged_items``,
    ``received``, ``timing``, the cumulative ``insert_stats``, and the
    traffic log as four stacked arrays (``traffic_meta`` op/label pairs,
    ``traffic_bytes`` and ``traffic_items`` of shape ``(n, P, P)``,
    ``traffic_has_items``).  Saving sorts nothing and loading probes
    nothing, so a run resumed from it equals the uninterrupted run on
    every observable, wherever it was cut and whichever strategy saved or
    resumes it.
    """

    tables: list[SegmentedRankView]
    timing: PhaseTiming
    traffic: TrafficStats
    received_kmers: np.ndarray
    exchanged_items: int
    n_batches: int
    insert_stats: InsertStats
    #: Why the state may not be used: a batch raised after it began writing
    #: into it (:meth:`writing`).  Only a successful :meth:`load` clears it.
    failed: str | None = None

    @classmethod
    def fresh(cls, n_ranks: int, table_seed: int) -> "PipelineState":
        """A state with no keys: empty 128-slot regions that only carry the rank count.

        The first batch that counts into the state births its tables anew
        (:meth:`~repro.core.stages.spill.Resident.tables`), in that drive's
        count blocks and at the drive plan's birth hints, and drops these.
        """
        return cls(
            tables=block_table([64] * n_ranks, table_seed).views(),
            timing=PhaseTiming(0.0, 0.0, 0.0),
            traffic=TrafficStats(),
            received_kmers=np.zeros(n_ranks, dtype=np.int64),
            exchanged_items=0,
            n_batches=0,
            insert_stats=InsertStats.zero(),
        )

    @contextmanager
    def writing(self, batch: str):
        """The scope in which ``batch`` writes into the state: a raise inside it marks the state failed."""
        try:
            yield
        except BaseException as exc:
            self.failed = f"batch {batch!r} failed part-way ({type(exc).__name__}: {exc})"
            raise

    def save(self, path: str | Path, *, k: int, canonical: bool) -> Path:
        """Persist the state (tables + accounting) as an ``.npz`` at exactly ``path``.

        Written to a sibling temp file, synced to disk and renamed over
        ``path``, then the rename is synced with the directory: a save that
        dies midway, or a crash after it returns, leaves one complete
        checkpoint at ``path``.
        """
        path = Path(path)
        p = len(self.tables)
        records = self.traffic.records
        # One dump per block table: its regions end to end, the per-rank dumps' bytes concatenated.
        bitmaps, keys, counts = zip(*(dump_slots(t.keys, t.counts) for _, _, t in view_blocks(self.tables)))
        no_items = np.zeros((p, p), dtype=np.int64)
        payload: dict[str, np.ndarray] = {
            "version": np.array([_CHECKPOINT_VERSION]),
            "k": np.array([k]),
            "canonical": np.array([canonical]),
            "n_ranks": np.array([p]),
            "n_batches": np.array([self.n_batches]),
            "exchanged_items": np.array([self.exchanged_items]),
            "received": self.received_kmers,
            "timing": np.array([self.timing.parse, self.timing.exchange, self.timing.count]),
            "insert_stats": np.array([getattr(self.insert_stats, f) for f in _INSERT_STAT_FIELDS], np.int64),
            "capacities": np.array([t.capacity for t in self.tables], dtype=np.int64),
            "occupancy": np.concatenate(bitmaps),
            "keys": np.concatenate(keys),
            "counts": np.concatenate(counts),
            "traffic_meta": np.array([(rec.op, rec.label) for rec in records], dtype=str).reshape(-1, 2),
            "traffic_bytes": np.array([rec.bytes_matrix for rec in records], dtype=np.int64).reshape(-1, p, p),
            "traffic_has_items": np.array([rec.items_matrix is not None for rec in records], dtype=bool),
            "traffic_items": np.array(
                [no_items if rec.items_matrix is None else rec.items_matrix for rec in records],
                dtype=np.int64,
            ).reshape(-1, p, p),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            # A file object, not a name: numpy appends ".npz" to bare names.
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return path

    def load(
        self, path: str | Path, *, k: int, canonical: bool, table_seed: int, table_dir: Path | None = None
    ) -> None:
        """Restore state saved by :meth:`save` into this object, or leave it untouched.

        The file is read and validated whole before anything is assigned.
        The state must match the checkpoint's cluster size, k and
        ``canonical`` (a resume across strands would mix two spectra);
        anything else is rejected.  The slots are restored straight into
        block tables (:func:`~repro.core.stages.plan.table_blocks`
        of the ranks' entries, backed by ``table_dir`` when given), one
        :meth:`~repro.gpu.segmented.SegmentedHashTable.from_slots` per block.
        """
        p = len(self.tables)
        members = _read_checkpoint(path)

        def member(name: str, shape: tuple[int, ...], dtype=np.int64) -> np.ndarray:
            a = members[name]
            if a.shape != shape or (a.dtype.kind != "U" if dtype is str else a.dtype != dtype):
                want = np.dtype(dtype).name
                raise _unusable(path, f"member {name!r} is {a.dtype.name}{a.shape}, not {want}{shape}")
            return a

        scalars = {n: int(member(n, (1,))[0]) for n in ("k", "n_ranks", "n_batches", "exchanged_items")}
        if scalars["k"] != k:
            raise ValueError(f"{path}: checkpoint k={scalars['k']} != config k={k}")
        if bool(member("canonical", (1,), np.bool_)[0]) != canonical:
            raise ValueError(f"{path}: checkpoint canonical={not canonical} != config canonical={canonical}")
        if scalars["n_ranks"] != p:
            raise ValueError(f"{path}: checkpoint has {scalars['n_ranks']} ranks, cluster has {p}")
        capacities = member("capacities", (p,))
        if not bool(((capacities >= 64) & (capacities & (capacities - 1) == 0)).all()):
            raise _unusable(path, "a rank's capacity is not a power of two >= 64")
        bounds = np.concatenate([[0], np.cumsum(capacities)])
        occupancy = member("occupancy", (int(bounds[-1]) // 8,), np.uint8)
        filled = np.concatenate(
            [[0], np.cumsum(np.add.reduceat(np.unpackbits(occupancy), bounds[:-1], dtype=np.int64))]
        )
        keys = member("keys", (int(filled[-1]),), np.uint64)
        counts = member("counts", keys.shape)
        if bool((keys == EMPTY_KEY).any()) or bool((counts < 1).any()):
            raise _unusable(path, "an occupied slot holds the EMPTY sentinel or a count below 1")
        received = member("received", (p,))
        timing = member("timing", (3,), np.float64)
        insert_stats = member("insert_stats", (len(_INSERT_STAT_FIELDS),))
        n = members["traffic_meta"].shape[0]
        meta = member("traffic_meta", (n, 2), str)
        has_items = member("traffic_has_items", (n,), np.bool_)
        traffic_bytes = member("traffic_bytes", (n, p, p))
        traffic_items = member("traffic_items", (n, p, p))

        tables = []
        for r0, r1 in table_blocks(np.diff(filled)):
            table = SegmentedHashTable.from_slots(
                capacities[r0:r1],
                occupancy[bounds[r0] // 8 : bounds[r1] // 8],
                keys[filled[r0] : filled[r1]],
                counts[filled[r0] : filled[r1]],
                seed=table_seed,
                table_dir=table_dir,
            )
            tables.extend(table.views())
        self.tables = tables
        self.received_kmers = received
        self.n_batches = scalars["n_batches"]
        self.exchanged_items = scalars["exchanged_items"]
        self.timing = PhaseTiming(parse=float(timing[0]), exchange=float(timing[1]), count=float(timing[2]))
        # Any accounting accumulated in this object before the load belongs
        # to a different run: it is replaced, never merged.
        self.insert_stats = InsertStats(**dict(zip(_INSERT_STAT_FIELDS, insert_stats.tolist())))
        self.traffic = TrafficStats(
            [
                CollectiveRecord(
                    op=str(op),
                    label=str(label),
                    bytes_matrix=traffic_bytes[i],
                    items_matrix=traffic_items[i] if has_items[i] else None,
                )
                for i, (op, label) in enumerate(meta)
            ]
        )
        self.failed = None
