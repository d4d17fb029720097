"""Segmented counting hash table: the one table class, many ranks' tables in one allocation.

The engine keeps the tables of consecutive ranks — a cache-sized *rank
block* (:func:`repro.core.stages.plan.table_blocks`) under either layout —
in a single pair of flat ``keys``/``counts`` arrays partitioned into
power-of-two *regions*::

    slot(key, rank) = region_base[rank] + (hash(key) & rank_mask[rank])

and runs the vectorized probe rounds over every rank's pending keys at
once.  This class is storage only — regions, optional mmap slabs, the
blocked insert: the probe loop, lookup, dedup, growth rule and telemetry
are the module-level functions of :mod:`repro.gpu.hashtable`, handed each
key's region mask and first slot.  Regions are disjoint, so probe counts,
CAS conflicts, claimed slots and the final layout of a rank do not depend
on which ranks share its table (see
:func:`~repro.gpu.hashtable.probe_insert`); a one-region table is the
private :class:`~repro.gpu.hashtable.DeviceHashTable`.

Tables are born empty (a region per capacity hint) or restored from a
checkpoint's slot dump (:meth:`SegmentedHashTable.from_slots`); they are
never copied into another table.

**File-backed mode** (``table_dir=``): the keys/counts slabs become
``np.memmap`` files in a private directory, so a table can exceed the
anonymous-memory the process is allowed (the BSC NVM fast-storage layout,
PAPERS.md).  ``np.memmap`` is an ``ndarray`` subclass, so every probe,
insert, regrow, and merge runs the identical NumPy operations on the
identical values — observables are bit-identical to the in-RAM table;
only the backing store changes.  Regrows write a new slab *generation*
before the old mappings are dropped (the region copy still reads them),
then unlink the superseded files.  The mappings are shared, so a forked
pool worker's inserts land in the driving process's files; a worker's
regrow is handed back as the generation it wrote (:meth:`slabs`).
"""

from __future__ import annotations

import fcntl
import os
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

from ..telemetry import event
from .hashtable import (
    EMPTY_KEY,
    MAX_LOAD_FACTOR,
    SLOT_BYTES,
    InsertStats,
    SegmentedRankView,
    check_batch,
    check_table_params,
    dedup_batch,
    fit_capacity,
    initial_capacity,
    occupied_slots,
    probe_insert,
    probe_lookup,
    record_insert_telemetry,
    restore_slots,
    sorted_items,
)

__all__ = [
    "SegmentedHashTable",
    "SegmentedRankView",
    "owned_dir",
    "rank_blocks",
    "release_dir",
    "view_blocks",
]

#: The fused probe loop gathers/scatters randomly within each rank's
#: region.  Spanning all P regions at once blows the cache, so inserts run
#: over blocks of whole ranks whose regions total roughly this many bytes;
#: regions are disjoint, so any grouping of whole ranks is bit-identical.
INSERT_BLOCK_BYTES = 1 << 21


def rank_blocks(weights: np.ndarray, target: int) -> list[tuple[int, int]]:
    """Consecutive rank ranges whose summed ``weights`` stay near ``target``.

    Greedy: a block takes ranks while its sum stays within ``target``.
    Every block holds at least one rank (a single oversized rank still
    gets its own block), so the blocks partition ``range(p)`` exactly.
    """
    p = int(weights.shape[0])
    blocks: list[tuple[int, int]] = []
    s = 0
    while s < p:
        e = s + 1
        acc = int(weights[s])
        while e < p and acc + int(weights[e]) <= target:
            acc += int(weights[e])
            e += 1
        blocks.append((s, e))
        s = e
    return blocks


#: The file in an :func:`owned_dir` directory whose ``flock`` says its owner is alive.
OWNER_FILE = ".owner"

#: The private directories :func:`owned_dir` makes: a table's slabs and a spool,
#: and each one's hidden staging name before it is locked.
_OWNED_PREFIXES = ("spool-", "table-", ".spool-", ".table-")


def owned_dir(base: Path, prefix: str) -> tuple[Path, int]:
    """A new private directory ``base/<prefix>…`` and the descriptor holding its owner lock.

    The directory is made under a hidden name, its :data:`OWNER_FILE`
    locked (``flock``, exclusive: held until :func:`release_dir`, dropped
    by the kernel when the process dies), then renamed to ``<prefix>…``,
    so a ``spool-``/``table-`` directory is never seen half made.  The
    directories a killed run left in ``base`` — named so or still hidden,
    owner lock free — are removed first (:func:`_reclaim`).  A staging
    directory is such debris until its owner file is locked, so another
    run's reclaim may remove it in between; the lock, granted once the
    reclaim is through (:func:`release_dir` removes before it unlocks),
    then holds a file that is gone, the rename fails, and a fresh staging
    directory is made.
    """
    base.mkdir(parents=True, exist_ok=True)
    while True:
        staging = Path(tempfile.mkdtemp(prefix="." + prefix, dir=base))
        fd = os.open(staging / OWNER_FILE, os.O_RDONLY | os.O_CREAT, 0o600)
        fcntl.flock(fd, fcntl.LOCK_EX)
        path = staging.with_name(staging.name[1:])
        try:
            os.rename(staging, path)
        except FileNotFoundError:  # reclaimed before the lock was taken
            os.close(fd)
            continue
        _reclaim(base, keep=path)
        return path, fd


def release_dir(path: Path, fd: int) -> None:
    """Remove an :func:`owned_dir` directory, then drop its owner lock.

    In this order: a racing :func:`owned_dir` whose staging directory a
    reclaim took is granted its lock only once the directory is gone, so
    its rename fails and it restarts, never keeping a half-removed one.
    """
    shutil.rmtree(path, ignore_errors=True)
    os.close(fd)


def _reclaim(base: Path, *, keep: Path) -> None:
    """Remove every directory of ``base`` an :func:`owned_dir` made whose owner lock is free.

    A directory without an owner file is not ours (or its owner is
    removing it) and stays.  What is removed is announced as one
    ``engine.spill.reclaim`` event.
    """
    n_dirs = n_bytes = 0
    for path in base.iterdir():
        if path == keep or not path.name.startswith(_OWNED_PREFIXES):
            continue
        try:
            fd = os.open(path / OWNER_FILE, os.O_RDONLY)
        except OSError:
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            n_bytes += sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())
        except OSError:  # its owner is alive, or it was removed meanwhile
            os.close(fd)
            continue
        release_dir(path, fd)
        n_dirs += 1
    if n_dirs:
        event("engine.spill.reclaim", subsystem="engine", dirs=n_dirs, bytes=n_bytes, dir=str(base))


class SegmentedHashTable:
    """A block of ranks' counting tables in one keys/counts allocation."""

    def __init__(
        self,
        capacity_hints: list[int] | np.ndarray,
        *,
        seed: int = 0,
        max_load_factor: float = MAX_LOAD_FACTOR,
        probing: str = "linear",
        table_dir: str | Path | None = None,
    ) -> None:
        check_table_params(max_load_factor, probing)
        self.seed = seed
        self.max_load_factor = max_load_factor
        self.probing = probing
        self._init_backing(table_dir)
        caps = [initial_capacity(hint, max_load_factor) for hint in capacity_hints]
        self._layout(np.asarray(caps, dtype=np.int64))
        self.n_entries_per_rank = np.zeros(self.n_ranks, dtype=np.int64)

    def _init_backing(self, table_dir: str | Path | None) -> None:
        """Choose the slab store: anonymous arrays or memmap files."""
        self._table_dir: Path | None = None
        self._generation = 0
        self._slab_paths: tuple[Path, ...] = ()
        self._finalizer = None
        if table_dir is not None:
            self._table_dir, owner = owned_dir(Path(table_dir), "table-")
            self._finalizer = weakref.finalize(self, release_dir, self._table_dir, owner)

    def _set_regions(self, capacities: np.ndarray) -> None:
        self.capacities = capacities
        self.region_base = np.zeros(capacities.shape[0] + 1, dtype=np.int64)
        np.cumsum(capacities, out=self.region_base[1:])
        self._base_u64 = self.region_base[:-1].astype(np.uint64)
        self._masks = (capacities - 1).astype(np.uint64)

    def _layout(self, capacities: np.ndarray) -> None:
        self._set_regions(capacities)
        total = int(self.region_base[-1])
        if self._table_dir is None or total == 0:
            self.keys = np.full(total, EMPTY_KEY, dtype=np.uint64)
            self.counts = np.zeros(total, dtype=np.int64)
            return
        # File-backed slabs.  Each layout writes a fresh generation: a
        # _regrow caller still holds the previous arrays while regions copy
        # across, so the old maps must stay valid.  The superseded files
        # are unlinked immediately — on POSIX the live mappings keep their
        # data reachable until the arrays are dropped.
        stale = self._slab_paths
        self._map(self._generation + 1, "w+")
        self.keys[:] = EMPTY_KEY
        for path in stale:
            path.unlink(missing_ok=True)

    def _map(self, generation: int, mode: str) -> None:
        """Map slab generation ``generation`` as ``keys``/``counts`` (mode ``"w+"`` creates its files)."""
        total = int(self.region_base[-1])
        self._generation = generation
        self._slab_paths = tuple(self._table_dir / f"{name}.g{generation}.bin" for name in ("keys", "counts"))
        self.keys = np.memmap(self._slab_paths[0], dtype=np.uint64, mode=mode, shape=(total,))
        self.counts = np.memmap(self._slab_paths[1], dtype=np.int64, mode=mode, shape=(total,))

    @property
    def backing_dir(self) -> Path | None:
        """The private slab directory of a file-backed table (else ``None``)."""
        return self._table_dir

    def close(self) -> None:
        """Remove a file-backed table's slab directory (in-RAM: no-op).

        Existing array references stay readable (POSIX keeps unlinked
        mapped data alive), but the disk space is reclaimed now instead of
        at garbage collection, which also runs this via a finalizer.
        """
        if self._finalizer is not None:
            self._finalizer()

    @classmethod
    def from_slots(
        cls,
        capacities: np.ndarray,
        bitmap: np.ndarray,
        keys: np.ndarray,
        counts: np.ndarray,
        *,
        seed: int = 0,
        max_load_factor: float = MAX_LOAD_FACTOR,
        probing: str = "linear",
        table_dir: str | Path | None = None,
    ) -> "SegmentedHashTable":
        """The table whose regions, ``capacities`` slots each, :func:`~repro.gpu.hashtable.dump_slots` gave.

        ``bitmap`` is their occupancy and ``keys``/``counts`` their occupied
        slots in slot order; one :func:`~repro.gpu.hashtable.restore_slots`
        puts them where they lay — nothing is probed, so ``seed`` and
        ``probing`` must be the dumped table's, or its keys are not where
        lookups probe.
        """
        caps = np.asarray(capacities, dtype=np.int64)
        if not bool(((caps >= 64) & (caps & (caps - 1) == 0)).all()):
            raise ValueError("every region must be a power of two >= 64 slots")
        if keys.shape != counts.shape:
            raise ValueError("occupied keys and counts must be parallel")
        # A region of c slots holds c * max_load_factor keys: the hint that sizes it c.
        hints = (caps * max_load_factor).astype(np.int64)
        table = cls(hints, seed=seed, max_load_factor=max_load_factor, probing=probing, table_dir=table_dir)
        occupied = restore_slots(table.keys, table.counts, bitmap, keys, counts)
        table.n_entries_per_rank = np.add.reduceat(occupied, table.region_base[:-1], dtype=np.int64)
        return table

    def slabs(self) -> tuple:
        """``(capacities, entries per rank, slab generation, *arrays)``: the table's whole state.

        What a rank-block closure on an out-of-process pool ships back, for
        the driving process's table to :meth:`adopt`.  An in-RAM table's
        arrays travel; a file-backed table's slabs are mappings both
        processes share, so only the generation now current travels (a
        regrow in the worker wrote a new one and unlinked the old).
        """
        arrays = () if self._slab_paths else (self.keys, self.counts)
        return (self.capacities, self.n_entries_per_rank, self._generation, *arrays)

    def adopt(self, capacities: np.ndarray, entries: np.ndarray, generation: int, *arrays: np.ndarray) -> None:
        """Become the table :meth:`slabs` was taken from: arrays kept or generation mapped, nothing copied."""
        self._set_regions(capacities)
        self.n_entries_per_rank = entries
        if arrays:
            self.keys, self.counts = arrays
        elif generation != self._generation:
            self._map(generation, "r+")

    # -- properties --------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return int(self.capacities.shape[0])

    @property
    def table_bytes(self) -> int:
        return int(self.keys.nbytes + self.counts.nbytes)

    def view(self, rank: int) -> SegmentedRankView:
        return SegmentedRankView(self, rank)

    def views(self) -> list[SegmentedRankView]:
        return [SegmentedRankView(self, r) for r in range(self.n_ranks)]

    def slots_of(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank's region of the ``keys``/``counts`` slabs (views)."""
        lo, hi = int(self.region_base[rank]), int(self.region_base[rank + 1])
        return self.keys[lo:hi], self.counts[lo:hi]

    def items_of(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank's (key, count) pairs sorted by key."""
        return sorted_items(*self.slots_of(rank))

    def items_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """All ranks' (key, count) pairs in one storage pass, slot order.

        The union of the per-rank ``items_of`` sets without their per-rank
        key sorts — for consumers that sort globally (the spectrum merge
        sorts the concatenation once, in ``merge_counts``).
        """
        return occupied_slots(self.keys, self.counts)

    # -- operations --------------------------------------------------

    def _region(self, rank) -> tuple:
        """``(seed, probing, mask, base)`` of the probe functions for one rank, or one rank per key."""
        return self.seed, self.probing, self._masks[rank], self._base_u64[rank]

    def insert_flat(
        self, values: np.ndarray, seg_offsets: np.ndarray, weights: np.ndarray | None = None
    ) -> list[InsertStats]:
        """Insert one rank-segmented flat batch; per-rank probe statistics.

        ``values[seg_offsets[r]:seg_offsets[r+1]]`` are rank ``r``'s keys.
        Equivalent (bit-for-bit, including telemetry totals) to inserting
        each rank's segment into a private one-region table in rank order;
        ranks with empty segments contribute ``InsertStats.zero()`` and no
        telemetry, as if their insert were skipped.  This is the one insert:
        the statistics, growth and rehash of every table are assembled here.
        """
        p = self.n_ranks
        offs = np.asarray(seg_offsets, dtype=np.int64)
        if offs.shape[0] != p + 1:
            raise ValueError("seg_offsets must have n_ranks + 1 entries")
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        if int(offs[-1]) != vals.shape[0]:
            raise ValueError("seg_offsets do not span the value array")
        stats = [InsertStats.zero()] * p
        if vals.size == 0:
            return stats
        wts = check_batch(vals, weights)

        # Per-rank dedup: each rank's segment is already contiguous, so run
        # exactly the aggregation the per-rank tables run.
        filled = np.flatnonzero(offs[1:] != offs[:-1])
        parts = [
            dedup_batch(vals[offs[r] : offs[r + 1]], None if wts is None else wts[offs[r] : offs[r + 1]])
            for r in filled
        ]
        uniq_parts, w_parts = zip(*parts)
        distinct_in_batch = np.zeros(p, dtype=np.int64)
        distinct_in_batch[filled] = [u.shape[0] for u in uniq_parts]

        # Capacity pre-check per rank; grown regions are re-laid-out once
        # into their final size (see fit_capacity).
        resizes = np.zeros(p, dtype=np.int64)
        need = self.n_entries_per_rank + distinct_in_batch
        grow = np.flatnonzero(need > self.capacities * self.max_load_factor)
        if grow.size:
            new_caps = self.capacities.copy()
            for r in grow:
                new_caps[r], resizes[r] = fit_capacity(int(new_caps[r]), int(need[r]), self.max_load_factor)
            self._regrow(new_caps)

        probed = list(self._probe_blocks(filled, uniq_parts, w_parts))
        probes, claimed, lost = probed[0] if len(probed) == 1 else map(np.concatenate, zip(*probed))
        w = np.concatenate(w_parts) if len(parts) > 1 else w_parts[0]

        # Per-rank statistics: the keys are rank-sorted and every filled rank
        # holds at least one, so each is a segment reduction (integer sums,
        # exact) at the ranks' first keys.
        first = np.cumsum(distinct_in_batch[filled]) - distinct_in_batch[filled]
        instances = np.add.reduceat(w, first)
        new = np.add.reduceat(claimed, first, dtype=np.int64)
        total_probes = np.add.reduceat(probes * w, first)
        max_probe = np.maximum.reduceat(probes, first)
        conflicts = np.add.reduceat(lost, first)
        self.n_entries_per_rank[filled] += new
        for i, r in enumerate(filled):
            stats[r] = InsertStats(
                n_instances=int(instances[i]),
                n_distinct=int(new[i]),
                total_probes=int(total_probes[i]),
                max_probe=int(max_probe[i]),
                cas_conflicts=int(conflicts[i]),
                rounds=int(max_probe[i]),  # the longest-probing key was pending in every round
                resizes=int(resizes[r]),
            )
        load = float((self.n_entries_per_rank[filled] / self.capacities[filled]).max())
        record_insert_telemetry([stats[r] for r in filled], load, probes, w)
        return stats

    def _probe_blocks(self, ranks: np.ndarray, key_parts, w_parts):
        """:func:`probe_insert` the ranks' keys, a cache-sized block of whole ranks per call.

        ``key_parts[i]`` / ``w_parts[i]`` are rank ``ranks[i]``'s sorted
        distinct keys and their weights (ranks ascending, no part empty).
        Blocks follow :data:`INSERT_BLOCK_BYTES`; a block's parts are put
        back to back for its one call, and a block holding one rank's keys
        probes with that region's scalar mask and base.  Yields each block's
        per-key ``(probes, claimed, lost)``, in rank order.
        """
        blocks = rank_blocks(self.capacities * SLOT_BYTES, INSERT_BLOCK_BYTES)
        cuts = np.searchsorted(ranks, [r1 for _, r1 in blocks]).tolist()
        for i, j in zip([0, *cuts], cuts):
            if j - i == 1:
                keys, w, region = key_parts[i], w_parts[i], self._region(int(ranks[i]))
            elif j > i:
                keys, w = np.concatenate(key_parts[i:j]), np.concatenate(w_parts[i:j])
                region = self._region(np.repeat(ranks[i:j], [part.shape[0] for part in key_parts[i:j]]))
            else:
                continue
            yield probe_insert(self.keys, self.counts, keys, w, *region)

    def _regrow(self, new_caps: np.ndarray) -> None:
        """Re-layout with grown regions; unchanged regions copy verbatim.

        The grown regions' items, each sorted by key, re-claim their slots
        through the one blocked probe loop.
        """
        old_base = self.region_base
        old_keys = self.keys
        old_counts = self.counts
        old_caps = self.capacities
        grown = np.flatnonzero(new_caps != old_caps)
        grown = grown[self.n_entries_per_rank[grown] > 0]
        rehash = [self.items_of(r) for r in grown]
        self._layout(new_caps)
        for r in np.flatnonzero(new_caps == old_caps):
            olo, ohi = int(old_base[r]), int(old_base[r + 1])
            nlo, nhi = int(self.region_base[r]), int(self.region_base[r + 1])
            self.keys[nlo:nhi] = old_keys[olo:ohi]
            self.counts[nlo:nhi] = old_counts[olo:ohi]
        if rehash:  # every key re-claims a slot; a rehash's probe statistics are not reported
            for _ in self._probe_blocks(grown, *zip(*rehash)):
                pass

    def lookup_of(self, rank: int, values: np.ndarray) -> np.ndarray:
        """Counts stored for ``rank``'s keys (0 where absent)."""
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        return probe_lookup(self.keys, self.counts, vals, *self._region(rank))


def view_blocks(views: list[SegmentedRankView]) -> list[tuple[int, int, SegmentedHashTable]]:
    """``(r0, r1, table)`` per run of consecutive views of one table.

    ``views`` lists whole tables' views in region order — what a layout
    that keeps ranks ``[r0, r1)`` in ``table`` holds — so the blocks tile
    ``range(len(views))``.
    """
    starts = [r for r, v in enumerate(views) if r == 0 or v.parent is not views[r - 1].parent]
    return [(r0, r1, views[r0].parent) for r0, r1 in zip(starts, [*starts[1:], len(views)])]
