"""The flat layout: fused whole-cluster supersteps, each stage once over all ranks.

The per-rank layout executes every superstep as P independent per-rank
NumPy call sequences.  At fig6 scale (P = 96 simulated ranks, small
per-rank shards) host wall time is dominated by array-dispatch overhead
and allocation churn, not by the modeled work — the same observation
that drives the paper's GPU kernels ("launch one grid over all data, not
one per shard", Fig. 2).  This module applies that lesson to the
simulator itself:

* **parse/partition** — one :func:`window_values` / supermer build /
  ``owners`` call over the concatenation of all shards, with a shard-id
  segment array; one stable argsort on the composite ``(shard, owner)``
  key produces every rank's destination-ordered send buffer as a single
  rank-segmented flat array (which is *already* the wire form the
  exchange needs);
* **exchange** — :func:`repro.mpi.collectives.alltoallv_flat` on the
  flat array (one block-sized index gather per block of consecutive
  destinations, straight out of the send array into the receive array —
  no P slices + concat, no index of the whole round);
* **count** — the block-local segmented tables every layout counts
  into (:class:`~repro.core.stages.spill.Resident`), a block per call of
  the one count body over views of the flat receive arrays, so probe
  rounds span every pending key of a block of ranks at once;
* large temporaries are recycled through a
  :class:`repro.core.memory.ScratchArena`.

Bit-identity contract: every observable of the staged path — spectrum,
per-rank model times, timing floats, traffic matrices and byte totals,
InsertStats, model-metric telemetry — is reproduced exactly, and by
construction rather than by keeping copies in step: per-rank model times
and kernel telemetry are the composition's own substrate charges
(``comp.substrate.charge_parse`` / ``charge_count``) looped over the
per-rank figures, k-mer extraction is ``comp.count.extract_kmers``, the
checksum and exchange seconds are ``exchange_outcome``, and the tables
and the count body are the ones the per-rank layout counts with.  The golden suite
replays the full engine matrix with ``fused=True`` against the same
golden file.

Compositions whose stages are not the standard classes (custom
registered stages) fall back to the per-rank layout; plugin *hooks*
(bloom filter, balanced partition) are supported, since they act through
the standard stage seams.

:class:`FlatLayout` is one of the two layouts the round driver
(:meth:`repro.core.stages.scheduler.RoundScheduler._drive`) calls; the
skeleton, the accounting and the result assembly live there.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ...dna.encoding import canonical_batch
from ...dna.reads import ReadSet
from ...gpu.segmented import rank_blocks
from ...kmers.extract import window_values
from ...kmers.supermers import build_supermers_with_positions
from ...mpi.collectives import alltoallv_flat
from ..memory import ScratchArena
from ..parallel import get_pool
from .buffers import ExchangeOutcome, ParseSummary, round_split
from .registry import StageComposition
from .standard import (
    AlltoallvExchange,
    CpuSubstrate,
    GpuSubstrate,
    KmerHashPartition,
    KmerParse,
    MinimizerHashPartition,
    SpectrumMerge,
    SupermerParse,
    TableCount,
    exchange_outcome,
)

__all__ = ["FlatLayout", "supports_fusion"]

#: Extraction kernels (window packing, minimizer scans, supermer builds)
#: are multi-pass: they materialize several full-array intermediates per
#: element.  Run them over cache-sized blocks of *whole shards* instead of
#: the full concatenation — block boundaries on shard boundaries keep the
#: outputs bit-identical (no window/supermer spans a shard), while keeping
#: every pass's working set in L2.  128Ki bases ≈ 1-2 MB of intermediates
#: per pass (swept on the benchmark host; see docs/PERFORMANCE.md).
PARSE_BLOCK_BASES = 1 << 17


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate block outputs (empty-safe, no copy for a single part)."""
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def supports_fusion(comp: StageComposition) -> bool:
    """Whether a composition consists solely of the standard stage types.

    The flat layout runs the standard stages' bodies once over all ranks;
    a composition carrying a *custom* stage class must keep the per-rank
    layout (its semantics are unknown here).  Plugins are fine: they
    act through the standard seams (per-rank receive filter, merge
    adjustment, partition override), all of which the fused path honours.
    """
    return (
        type(comp.parse) in (KmerParse, SupermerParse)
        and type(comp.partition) in (KmerHashPartition, MinimizerHashPartition)
        and type(comp.exchange) is AlltoallvExchange
        and type(comp.count) is TableCount
        and type(comp.merge) is SpectrumMerge
        and type(comp.substrate) in (GpuSubstrate, CpuSubstrate)
    )


@dataclass
class _FlatSend:
    """Whole-cluster send buffers: rank-segmented flat arrays (the wire form)."""

    data: np.ndarray  # uint64, src-major / dst-segmented
    lengths: np.ndarray | None  # uint8, parallel to data (supermer mode)
    counts_matrix: np.ndarray  # (p, p) int64: [src, dst] item counts


class FlatLayout:
    """The flat data layout: rank-segmented arrays.

    The whole cluster's send buffer is one flat array (plus a counts
    matrix) and its receive buffer another, so parse and exchange are one
    whole-cluster block each on the driving thread, recorded as rank-0
    wall spans named ``fused:*``.  The count runs the residency's table
    blocks on the driving thread too (no pool), each over its views of
    the receive arrays (:meth:`block_recv`), as ``fused:count`` leaves.
    """

    flat = True
    prefix = "fused:"

    def __init__(self, scheduler, arena: ScratchArena) -> None:
        self.sched = scheduler
        self.arena = arena

    def pool(self) -> None:
        """Supersteps and count blocks run on the driving thread (parse blocks fetch their own pool)."""
        return None

    # -- the driver's layout calls ------------------------------------

    def send_lists(self, round_send):
        """Per-source views of the src-major flat round buffer (the exchange-stage form)."""
        data, lengths, counts, _owned = round_send
        p = counts.shape[0]
        base = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=1), out=base[1:])
        return (
            [data[base[s] : base[s + 1]] for s in range(p)],
            [lengths[base[s] : base[s + 1]] for s in range(p)] if lengths is not None else None,
            [counts[s] for s in range(p)],
        )

    def exchange(self, round_send, label: str, sctx) -> ExchangeOutcome:
        data, lengths, counts, _owned = round_send
        return self._exchange(data, lengths, counts, label, sctx)

    def release_round(self, round_send) -> None:
        """Hand a round-owned gather (multi-round runs) back to the arena."""
        data, lengths, _counts, owned = round_send
        if owned:
            self.arena.release(data, lengths)

    def release(self, send: _FlatSend) -> None:
        self.arena.release(send.data, send.lengths)

    def block_recv(self, outcome: ExchangeOutcome, r0: int, r1: int):
        """Ranks ``[r0, r1)``'s segments of the receive arrays (views): ``(recv, lengths, offsets)``."""
        offs = outcome.recv_offsets
        lo, hi = int(offs[r0]), int(offs[r1])
        lengths = outcome.recv_lengths[lo:hi] if outcome.recv_lengths is not None else None
        return outcome.recv_data[lo:hi], lengths, offs[r0 : r1 + 1] - lo

    def release_recv(self, outcome: ExchangeOutcome) -> None:
        """Hand the round's receive arrays back to the arena once every block is counted."""
        self.arena.release(outcome.recv_data, outcome.recv_lengths)

    # -- parse phase -------------------------------------------------

    def parse(self, shards: list[ReadSet], sctx) -> tuple[_FlatSend, ParseSummary]:
        t0 = perf_counter()
        comp = self.sched.comp
        config = self.sched.config
        p = len(shards)
        arena = self.arena

        # One flat code array over all shards.  Every shard is sentinel-
        # terminated, so no window/supermer can span a shard boundary and
        # the per-position results equal the per-shard ones.
        sizes = np.fromiter((s.codes.shape[0] for s in shards), dtype=np.int64, count=p)
        code_base = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(sizes, out=code_base[1:])
        total_codes = int(code_base[-1])
        codes = arena.take(total_codes, np.uint8)
        for s, shard in enumerate(shards):
            codes[code_base[s] : code_base[s + 1]] = shard.codes

        # Extraction runs block-by-block over whole shards (cache-sized
        # working sets, see PARSE_BLOCK_BASES); block outputs concatenate
        # to exactly the whole-array result because block boundaries fall
        # on shard boundaries.  Blocks are this path's pool work units —
        # the fused×parallel composition: each block closure reads only
        # its slice of the flat code array and returns fresh arrays, so
        # any substrate may run blocks concurrently and the in-order
        # concatenation below is bit-identical to the serial loop.
        blocks = rank_blocks(sizes, PARSE_BLOCK_BASES)
        pool = get_pool(self.sched.opts.parallel)
        supermer = sctx.supermer_mode
        if not supermer:

            def _extract_block(block: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
                s0, s1 = block
                lo, hi = int(code_base[s0]), int(code_base[s1])
                win = window_values(codes[lo:hi], config.k)
                bpos = np.flatnonzero(win.valid)
                vals = win.values[bpos]
                if lo:
                    bpos += lo
                return bpos, vals

            parts = pool.map(_extract_block, blocks)
            pos = _concat([bp for bp, _ in parts], np.int64)
            kmers = _concat([vals for _, vals in parts], np.uint64)
            if config.canonical:
                kmers = canonical_batch(kmers, config.k)
            shard_of = np.searchsorted(code_base, pos, side="right") - 1
            route_keys = kmers
            items_data = kmers
            items_lengths = None
            n_kmers = np.bincount(shard_of, minlength=p)
            n_supermers = np.zeros(p, dtype=np.int64)
            supermer_bases = np.zeros(p, dtype=np.int64)
        else:
            read_base = np.zeros(p + 1, dtype=np.int64)
            np.cumsum([s.n_reads for s in shards], out=read_base[1:])
            n_reads = int(read_base[-1])
            offsets = np.empty(n_reads, dtype=np.int64)
            lengths = np.empty(n_reads, dtype=np.int64)
            for s, shard in enumerate(shards):
                offsets[read_base[s] : read_base[s + 1]] = shard.offsets + code_base[s]
                lengths[read_base[s] : read_base[s + 1]] = shard.lengths
            def _build_block(block: tuple[int, int]):
                s0, s1 = block
                lo, hi = int(code_base[s0]), int(code_base[s1])
                block_reads = ReadSet(
                    codes=codes[lo:hi],
                    offsets=offsets[read_base[s0] : read_base[s1]] - lo,
                    lengths=lengths[read_base[s0] : read_base[s1]],
                )
                batch, spos = build_supermers_with_positions(
                    block_reads,
                    config.k,
                    config.minimizer_len,
                    window=config.effective_window,
                    ordering=config.ordering,
                    canonical_minimizers=config.canonical,
                )
                if lo:
                    spos += lo
                return spos, batch.packed, batch.n_kmers, batch.minimizers

            parts = pool.map(_build_block, blocks)
            start_pos = _concat([part[0] for part in parts], np.int64)
            sm_kmers = _concat([part[2] for part in parts], np.int32)
            shard_of = np.searchsorted(code_base, start_pos, side="right") - 1
            route_keys = _concat([part[3] for part in parts], np.uint64)
            items_data = _concat([part[1] for part in parts], np.uint64)
            items_lengths = sm_kmers.astype(np.uint8)
            n_kmers = np.bincount(shard_of, weights=sm_kmers, minlength=p).astype(np.int64)
            n_supermers = np.bincount(shard_of, minlength=p)
            supermer_bases = np.bincount(
                shard_of, weights=sm_kmers.astype(np.int64) + (config.k - 1), minlength=p
            ).astype(np.int64)

        # One partition call over every rank's route keys (the partition
        # stages are elementwise in the key, so this equals the per-rank
        # calls' concatenation).
        owners = comp.partition.owners(route_keys, p, config)

        # Composite (shard, owner) stable sort == concatenation of the
        # per-rank stable owner sorts of assemble_rank_parse.
        sort_key = shard_of * p + owners.astype(np.int64)
        counts_matrix = np.bincount(sort_key, minlength=p * p).reshape(p, p)
        # The key is < p*p, so narrow it before sorting: numpy's stable sort
        # on integers is a radix sort whose pass count scales with itemsize.
        if p * p <= np.iinfo(np.uint16).max:
            key_dtype = np.uint16
        elif p * p <= np.iinfo(np.uint32).max:
            key_dtype = np.uint32
        else:
            key_dtype = np.int64
        order = np.argsort(sort_key.astype(key_dtype), kind="stable")
        data = np.take(items_data, order, out=arena.take(order.shape[0], np.uint64))
        lengths_flat = (
            np.take(items_lengths, order, out=arena.take(order.shape[0], np.uint8))
            if items_lengths is not None
            else None
        )
        arena.release(codes)

        # Per-rank modeled parse time: the substrate's own charge, in rank
        # order (telemetry float sums accumulate as the per-rank layout's do).
        times = np.array(
            [
                comp.substrate.charge_parse(
                    comp.parse,
                    int(n_kmers[r]),
                    int(n_supermers[r]),
                    int(shards[r].codes.nbytes),
                    comp.parse.grid_threads(shards[r], config),
                    sctx,
                )
                for r in range(p)
            ]
        )

        if sctx.recorder is not None:
            sctx.recorder.record("fused:parse", 0, t0, perf_counter())
        send = _FlatSend(data=data, lengths=lengths_flat, counts_matrix=counts_matrix)
        return send, ParseSummary(
            times=times,
            n_kmers=n_kmers,
            counts_matrix=counts_matrix,
            n_supermers=int(n_supermers.sum()),
            supermer_bases=int(supermer_bases.sum()),
        )

    # -- exchange phase ----------------------------------------------

    def round_send(
        self, fp: _FlatSend, rnd: int, n_rounds: int
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, bool]:
        """Round ``rnd``'s slice of the flat send buffer (still src-major).

        Splits every (src, dst) segment evenly across rounds exactly like
        the per-rank ``_round_slice``; the gathered flat array equals the
        concatenation of the per-rank round buffers.  Returns
        ``(data, lengths, counts, arena_backed)``.
        """
        if n_rounds == 1:
            return fp.data, fp.lengths, fp.counts_matrix, False
        rlens, idx = round_split(fp.counts_matrix.reshape(-1), rnd, n_rounds)
        round_counts = rlens.reshape(fp.counts_matrix.shape)
        total = idx.shape[0]
        data = np.take(fp.data, idx, out=self.arena.take(total, np.uint64))
        lengths = (
            np.take(fp.lengths, idx, out=self.arena.take(total, np.uint8))
            if fp.lengths is not None
            else None
        )
        return data, lengths, round_counts, True

    def _exchange(
        self,
        send_flat: np.ndarray,
        send_lengths: np.ndarray | None,
        round_counts: np.ndarray,
        label: str,
        sctx,
    ) -> ExchangeOutcome:
        """One fused exchange round; mirrors ``AlltoallvExchange.exchange``."""
        wire = sctx.wire_bytes
        shuffled, dst_offsets = alltoallv_flat(
            send_flat,
            round_counts,
            stats=sctx.stats,
            label=label,
            bytes_per_item=wire,
            arena=self.arena,
        )
        shuffled_lengths: np.ndarray | None = None
        if send_lengths is not None:
            shuffled_lengths, _ = alltoallv_flat(
                send_lengths, round_counts, stats=None, arena=self.arena  # bytes counted in `wire`
            )
        return exchange_outcome(
            send_flat, shuffled, shuffled_lengths, round_counts, label, sctx, recv_offsets=dst_offsets
        )
