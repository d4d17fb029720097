"""Open-addressing, linear-probing counting hash table ("device" side).

This is the paper's k-mer counter data structure (Section III-B3): keys find
slots via MurmurHash3, collisions resolve by linear probing, and inserts /
increments happen with atomic operations.  The GPU executes one logical
thread per received k-mer; here the same algorithm runs as *rounds* of
vectorized probes in which concurrent atomicCAS claims on the same slot are
resolved exactly like the hardware would (one winner per slot per round,
losers re-probe).

Duplicate keys inside a batch are pre-aggregated (one sort and a run
count, :func:`dedup_batch`; weighted keys through the pair fold,
:func:`merge_counts`) before probing; that changes no observable
state and the probe statistics are re-weighted by multiplicity so the
cost model still sees per-instance work.

Probe statistics (total/max probe distance, CAS conflicts) feed the kernel
cost model; correctness (exact counts) is asserted against the single-node
oracle in the tests.

There is one table class, :class:`~repro.gpu.segmented.SegmentedHashTable`
(power-of-two regions in one slab, one per rank of a block); a rank's
table is a :class:`SegmentedRankView` of it, and :class:`DeviceHashTable`
is the view of a one-region table.

Keys must be < 2**64 - 1 (the empty-slot sentinel); packed k-mers satisfy
this whenever k <= 31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing.murmur3 import hash_kmers_batch
from ..telemetry import active

__all__ = ["EMPTY_KEY", "MAX_LOAD_FACTOR", "SLOT_BYTES", "InsertStats", "SegmentedRankView", "DeviceHashTable"]

#: Slot-empty sentinel (all ones).  k <= 31 packed k-mers can never equal it.
EMPTY_KEY: np.uint64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Bytes of one table slot: a uint64 key and an int64 count.
SLOT_BYTES = 16

#: The load a table grows at unless told otherwise (the drive plan's too).
MAX_LOAD_FACTOR = 0.7


@dataclass(frozen=True)
class InsertStats:
    """Work performed by one ``insert_batch`` call.

    ``total_probes`` counts slot inspections weighted by key multiplicity
    (what the per-instance GPU threads would have done); ``cas_conflicts``
    counts lost claim attempts, the serialization the cost model charges.
    """

    n_instances: int
    n_distinct: int
    total_probes: int
    max_probe: int
    cas_conflicts: int
    rounds: int
    resizes: int

    @property
    def mean_probes(self) -> float:
        return self.total_probes / self.n_instances if self.n_instances else 0.0

    def combined(self, other: "InsertStats") -> "InsertStats":
        return InsertStats(
            n_instances=self.n_instances + other.n_instances,
            n_distinct=self.n_distinct + other.n_distinct,
            total_probes=self.total_probes + other.total_probes,
            max_probe=max(self.max_probe, other.max_probe),
            cas_conflicts=self.cas_conflicts + other.cas_conflicts,
            rounds=max(self.rounds, other.rounds),
            resizes=self.resizes + other.resizes,
        )

    @classmethod
    def zero(cls) -> "InsertStats":
        return cls(0, 0, 0, 0, 0, 0, 0)


#: Supported probe sequences (Section III-B3: "a probe sequence (linear,
#: quadratic, etc).  In this work, we use linear probing").
PROBING_SCHEMES = ("linear", "quadratic", "double")

# -- the table formulas ------------------------------------------------------
#
# Every function below works on a ``(keys, counts)`` slab holding one or
# many power-of-two *regions*.  ``mask`` (region capacity - 1) and ``base``
# (the region's first slot) say where each key lives: uint64 scalars when
# all keys share one region (one rank's lookup, a one-rank probe block),
# uint64 arrays parallel to the keys when they span several (the segmented
# table's blocked insert).  The table class carries no probe, lookup,
# dedup, growth or telemetry formula of its own.


def check_table_params(max_load_factor: float, probing: str) -> None:
    if not 0.1 <= max_load_factor < 1.0:
        raise ValueError("max_load_factor must be in [0.1, 1.0)")
    if probing not in PROBING_SCHEMES:
        raise ValueError(f"probing must be one of {PROBING_SCHEMES}, got {probing!r}")


def fit_capacity(capacity: int, need: int, max_load_factor: float) -> tuple[int, int]:
    """Double ``capacity`` until ``need`` keys fit under the load factor.

    Returns ``(capacity, doublings)``.  Growing straight to the final size
    equals growing one doubling at a time: every intermediate rehash would
    re-insert the same sorted item set into an empty region.
    """
    doublings = 0
    while need > capacity * max_load_factor:
        capacity *= 2
        doublings += 1
    return capacity, doublings


def initial_capacity(capacity_hint: int, max_load_factor: float) -> int:
    """Region size for ``capacity_hint`` keys: a power of two, at least 64."""
    if capacity_hint < 1:
        raise ValueError("capacity_hint must be positive")
    return fit_capacity(64, capacity_hint, max_load_factor)[0]


def check_batch(vals: np.ndarray, weights: np.ndarray | None) -> np.ndarray | None:
    """Validate a non-empty uint64 key batch; returns its int64 weights (or ``None``)."""
    if bool((vals == EMPTY_KEY).any()):
        raise ValueError("key equal to the EMPTY sentinel cannot be stored (need k <= 31)")
    if weights is None:
        return None
    wts = np.ascontiguousarray(weights, dtype=np.int64)
    if wts.shape != vals.shape:
        raise ValueError("weights must parallel values")
    if int(wts.min()) < 1:
        raise ValueError("weights must be >= 1")
    return wts


def dedup_batch(vals: np.ndarray, wts: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One region's checked batch as ``(sorted distinct keys, summed weights)``: the one run count.

    Unweighted: one sort, a head mask over the runs of equal keys, and the
    run lengths as the weights (what ``np.unique(return_counts=True)``
    gives, without its extra passes).  Weighted: the pair fold,
    :func:`merge_counts`.
    """
    if wts is not None:
        return merge_counts(vals, wts)
    keys = np.sort(vals)
    head = np.empty(keys.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return keys[starts], np.diff(starts, append=keys.shape[0])


def sort_pairs(
    keys: np.ndarray, counts: np.ndarray, *, consume: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, counts)`` ordered by key, as new arrays: the one pair sort.

    When a key and its count fit one 64-bit word together — always at the
    paper's k = 17 — the pairs sort as packed words ``key << count_bits |
    count`` with one in-place sort, built and unpacked in place (two
    full-size arrays, where an argsort and two gathers take three).  Equal
    keys then come out ordered by count, which no sum can see.  Otherwise
    (or for a negative count, 64 bits as a word) an argsort and two
    gathers.

    ``consume=True`` hands both arrays over (uint64 keys, int64 counts,
    neither read again by the caller): the words are packed into ``keys``
    and the sorted keys unpacked into ``counts``, so the packed sort
    allocates nothing as large as its input, and the results are views of
    the two arrays with their roles swapped.
    """
    counts = counts.astype(np.int64, copy=False)
    if keys.shape[0] == 0:
        return keys.copy(), counts.copy()
    count_bits = int(counts.view(np.uint64).max()).bit_length()
    key_bits = max(int(keys.max()).bit_length(), 1)  # so the shift stays below 64 bits
    if key_bits + count_bits > 64:
        order = np.argsort(keys)
        return keys[order], counts[order]
    shift = np.uint64(count_bits)
    packed = np.left_shift(keys, shift, out=keys if consume else None)
    np.bitwise_or(packed, counts.view(np.uint64), out=packed)
    packed.sort()
    keys = np.right_shift(packed, shift, out=counts.view(np.uint64) if consume else None)
    np.bitwise_and(packed, np.uint64((1 << count_bits) - 1), out=packed)
    return keys, packed.view(np.int64)


def merge_counts(
    keys: np.ndarray, counts: np.ndarray, *, consume: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` and each one's summed ``counts``: the one pair fold.

    Exact in int64 at any count: one pair sort (:func:`sort_pairs`, a
    packed-word sort at k = 17; ``consume`` as there), one boolean pass
    that asks whether a key repeats, and — only when one does — one
    ``reduceat`` over the runs of equal keys.  The engine's merge
    (``standard.merge_items``), a weighted insert's dedup and the
    sort-based counter all fold through it.
    """
    keys, counts = sort_pairs(keys, counts, consume=consume)
    if not (keys[1:] == keys[:-1]).any():  # no key repeats (or nothing at all)
        return keys, counts
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], starts))
    return keys[starts], np.add.reduceat(counts, starts)


def _at(region, idx: np.ndarray):
    """``region[idx]`` of a per-key array; a region-wide scalar as it is."""
    return region[idx] if np.ndim(region) else region


def _home_and_stride(keys: np.ndarray, seed: int, probing: str, mask):
    """Each key's first slot and probe stride within its region.

    Only double hashing has a stride: odd, hence coprime with the
    power-of-two capacity, so the sequence covers the whole region.
    """
    home = hash_kmers_batch(keys, seed=seed) & mask
    if probing != "double":
        return home, None
    return home, (hash_kmers_batch(keys, seed=seed + 0x9E3779B9) | np.uint64(1)) & mask


def _probe_slots(probing: str, pending: np.ndarray, home, step, stride, mask, base) -> np.ndarray:
    """Slab slot of each pending key's probe number ``step`` (0-based, uint64)."""
    offset = step[pending]
    if probing == "quadratic":
        offset = (offset * (offset + np.uint64(1))) // np.uint64(2)
    elif probing == "double":
        offset = offset * stride[pending]
    local = (home[pending] + offset) & _at(mask, pending)
    # int64 because NumPy gathers through a uint64 index ~3x slower.
    return (_at(base, pending) + local).astype(np.int64)


def _sorted_by_region_key(uniq: np.ndarray, base) -> bool:
    """Whether ``uniq`` is strictly increasing within each region, regions in slab order."""
    rising = uniq[1:] > uniq[:-1]
    if np.ndim(base):
        rising = (base[1:] > base[:-1]) | ((base[1:] == base[:-1]) & rising)
    return bool(rising.all())


def probe_insert(
    keys: np.ndarray, counts: np.ndarray, uniq: np.ndarray, w: np.ndarray, seed: int, probing: str, mask, base
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Insert pre-deduplicated keys with weights: the one probe loop.

    Rounds of vectorized probes over the pending keys; concurrent
    atomicCAS claims on one empty slot resolve to one winner, losers
    re-probe.  The winner is the smallest key among the slot's claimants:
    an empty slot holds the all-ones sentinel, so one ``np.minimum.at``
    over the claimed slots leaves exactly that key in each.

    Precondition: ``uniq`` is sorted by (region, key), strictly increasing
    within a region — what ``dedup_batch``, ``sorted_items`` and the
    segmented table's per-rank concatenation produce.  Regions are
    slot-disjoint, so a contested slot only sees candidates of one region:
    the smallest key is that region's first claimant in ``uniq`` order,
    the winner the region's own insert picks whatever other regions share
    the call.

    Returns per-key ``(probes, claimed, lost)``: slots inspected, whether
    the key claimed a new slot, and its lost claim attempts.
    """
    assert _sorted_by_region_key(uniq, base), "probe_insert needs uniq sorted by (region, key)"
    n = uniq.shape[0]
    home, stride = _home_and_stride(uniq, seed, probing, mask)
    step = np.zeros(n, dtype=np.uint64)
    claimed = np.zeros(n, dtype=bool)
    lost = np.zeros(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    guard = int(np.max(mask)) + 2  # largest region's capacity + 1
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > guard:
            raise RuntimeError("hash table probe loop failed to terminate (table full?)")
        s = _probe_slots(probing, pending, home, step, stride, mask, base)
        occupant = keys[s]
        vals = uniq[pending]

        # Hit: occupant already equals our key -> atomic count increment.
        hit = occupant == vals
        counts[s[hit]] += w[pending[hit]]

        # Claim: empty slot -> atomicCAS; the smallest claimant per slot wins.
        empty = occupant == EMPTY_KEY
        if empty.any():
            empty_idx = np.flatnonzero(empty)
            slots, claimants = s[empty_idx], vals[empty_idx]
            np.minimum.at(keys, slots, claimants)
            winners = keys[slots] == claimants
            won = pending[empty_idx[winners]]
            counts[slots[winners]] += w[won]
            claimed[won] = True
            if won.shape[0] != empty_idx.shape[0]:
                lost[pending[empty_idx]] += 1
                lost[won] -= 1

        # Anything whose slot now holds a different key keeps probing.
        pending = pending[keys[s] != vals]
        step[pending] += np.uint64(1)
    return step.astype(np.int64) + 1, claimed, lost


def probe_lookup(
    keys: np.ndarray, counts: np.ndarray, vals: np.ndarray, seed: int, probing: str, mask, base
) -> np.ndarray:
    """Counts stored for ``vals`` (0 where absent): the one lookup loop."""
    out = np.zeros(vals.shape[0], dtype=np.int64)
    if vals.size == 0:
        return out
    home, stride = _home_and_stride(vals, seed, probing, mask)
    step = np.zeros(vals.shape[0], dtype=np.uint64)
    pending = np.arange(vals.shape[0], dtype=np.int64)
    for _ in range(int(np.max(mask)) + 2):
        if not pending.size:
            break
        s = _probe_slots(probing, pending, home, step, stride, mask, base)
        occupant = keys[s]
        hit = occupant == vals[pending]
        out[pending[hit]] = counts[s[hit]]
        # Missing keys terminate at the first empty slot.
        pending = pending[~hit & (occupant != EMPTY_KEY)]
        step[pending] += np.uint64(1)
    return out


def occupied_slots(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupied ``(key, count)`` pairs of a slab or region, in slot order.

    Gathered through the slot indices with ``take``: on a table's random,
    at most ~70%-full occupancy that is several times faster than a
    boolean-mask gather (which wins only on mostly-True masks).
    """
    occ = np.flatnonzero(keys != EMPTY_KEY)
    return keys.take(occ), counts.take(occ)


def sorted_items(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupied ``(key, count)`` pairs of one region, sorted by key."""
    return sort_pairs(*occupied_slots(keys, counts), consume=True)


def dump_slots(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One region as it is: ``(occupancy bitmap, occupied keys, their counts)`` in slot order.

    No sort and no probe — the inverse of :func:`restore_slots`.  Region
    capacities are multiples of 8, so the bitmaps of consecutive regions
    concatenate to the bitmap of their slab, and a run of regions' bitmap
    is a slice of it.
    """
    return np.packbits(keys != EMPTY_KEY), *occupied_slots(keys, counts)


def restore_slots(
    keys: np.ndarray, counts: np.ndarray, bitmap: np.ndarray, occ_keys: np.ndarray, occ_counts: np.ndarray
) -> np.ndarray:
    """Refill the empty slab :func:`dump_slots` was taken from, in place: one scatter.

    ``keys``/``counts`` are the slab, sized as the dumped one; returns its
    occupancy mask.
    """
    occupied = np.unpackbits(bitmap, count=keys.shape[0]).view(bool)
    occ = np.flatnonzero(occupied)  # an index scatter: several times a boolean one on a table's fill
    keys[occ] = occ_keys
    counts[occ] = occ_counts
    return occupied


def record_insert_telemetry(
    stats: list[InsertStats], load_factor: float, probes: np.ndarray, w: np.ndarray
) -> None:
    """The ``hashtable_*`` model families of one insert per entry of ``stats``.

    ``load_factor`` is the highest among the regions inserted into;
    ``probes`` / ``w`` are their keys' probe counts and multiplicities.
    All commutative operations — identical totals whatever order rank
    worker threads interleave their inserts in, and whether P regions
    report one at a time or together: the bucket adds are integers and
    every partial float sum of the integer products stays below 2**53.
    """
    reg = active()
    if reg is None:
        return
    reg.counter("hashtable_inserts_total", "insert_batch calls").inc(len(stats))
    for name, desc, field in (
        ("hashtable_instances_total", "k-mer instances inserted", "n_instances"),
        ("hashtable_distinct_total", "New distinct keys claimed", "n_distinct"),
        ("hashtable_cas_conflicts_total", "Lost atomicCAS claims", "cas_conflicts"),
        ("hashtable_resizes_total", "Table growth events", "resizes"),
    ):
        reg.counter(name, desc).inc(sum(getattr(ins, field) for ins in stats))
    reg.gauge("hashtable_load_factor_max", "Peak table load factor").set_max(load_factor)
    reg.histogram(
        "hashtable_probe_length",
        "Probe-sequence length per inserted instance",
        buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128),
    ).observe_many(probes, w)


class SegmentedRankView:
    """One rank's table: a window onto its region of a :class:`~repro.gpu.segmented.SegmentedHashTable`.

    Everything the engine, its stages and the checkpoint touch of a table
    (insert, lookup, items, the slot arrays, capacity and fill), so a
    :class:`~repro.core.stages.checkpoint.PipelineState` holds one of these
    per rank whatever the layout; the parent table owns the storage and
    the insert.
    """

    def __init__(self, parent, rank: int) -> None:
        self.parent = parent
        self.rank = rank  # the region's index within ``parent``

    @property
    def seed(self) -> int:
        return self.parent.seed

    @property
    def max_load_factor(self) -> float:
        return self.parent.max_load_factor

    @property
    def probing(self) -> str:
        return self.parent.probing

    @property
    def capacity(self) -> int:
        return int(self.parent.capacities[self.rank])

    @property
    def n_entries(self) -> int:
        """Number of distinct keys stored."""
        return int(self.parent.n_entries_per_rank[self.rank])

    @property
    def load_factor(self) -> float:
        return self.n_entries / self.capacity

    @property
    def table_bytes(self) -> int:
        """Device memory footprint (keys + counts arrays)."""
        return self.capacity * SLOT_BYTES

    @property
    def keys(self) -> np.ndarray:
        return self.parent.slots_of(self.rank)[0]

    @property
    def counts(self) -> np.ndarray:
        return self.parent.slots_of(self.rank)[1]

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, count) pairs, sorted by key."""
        return self.parent.items_of(self.rank)

    def lookup_batch(self, values: np.ndarray) -> np.ndarray:
        """Counts for a batch of keys (0 where absent)."""
        return self.parent.lookup_of(self.rank, values)

    def insert_batch(self, values: np.ndarray, weights: np.ndarray | None = None) -> InsertStats:
        """Insert/increment a batch of keys; returns probe statistics."""
        parent = self.parent
        offs = np.zeros(parent.n_ranks + 1, dtype=np.int64)
        offs[self.rank + 1 :] = np.asarray(values).shape[0]
        return parent.insert_flat(values, offs, weights)[self.rank]


class DeviceHashTable(SegmentedRankView):
    """Counting hash table with open addressing and emulated atomics.

    The P = 1 case of the one table class: the view of a one-region
    :class:`~repro.gpu.segmented.SegmentedHashTable`, so a private table
    inserts, grows and reports statistics through the very code a rank of
    a block table does.  ``probing`` selects the collision-resolution
    sequence:

    * ``"linear"`` (the paper's choice): slot, slot+1, slot+2, ...
    * ``"quadratic"`` (triangular offsets ``i(i+1)/2``, which visit every
      slot of a power-of-two table exactly once);
    * ``"double"``: double hashing with an odd per-key stride (odd strides
      are units mod 2^n, so the sequence also covers the whole table).
    """

    def __init__(
        self,
        capacity_hint: int = 64,
        *,
        seed: int = 0,
        max_load_factor: float = MAX_LOAD_FACTOR,
        probing: str = "linear",
    ) -> None:
        from .segmented import SegmentedHashTable  # the table class builds on this module's formulas

        table = SegmentedHashTable([capacity_hint], seed=seed, max_load_factor=max_load_factor, probing=probing)
        super().__init__(table, 0)
