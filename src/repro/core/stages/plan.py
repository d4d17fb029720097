"""The drive plan: what a drive decides once, after its parse and before its first exchange.

Section III-A splits the exchange and the count into rounds "relative to
software limits (approximating available memory)".  Every law that sizes
a drive lives here — the device and host rounds laws and the host
budget's floor, the count's table blocks, the one-shot tables' capacity
hints and a streamed state's birth hints — and :func:`plan_drive` applies
them once per drive: a one-shot run, or one streamed batch.  The round
driver, the residencies' count and the SPMD rank program only read the
:class:`DrivePlan`; the floor needs no parse, so :func:`check_budget_floor`
applies it once per options object, before the drive's parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...gpu import segmented
from ...gpu.hashtable import MAX_LOAD_FACTOR, SLOT_BYTES

if TYPE_CHECKING:
    from ..config import PipelineConfig
    from .buffers import ParseSummary
    from .context import EngineOptions, StageContext

__all__ = ["DrivePlan", "check_budget_floor", "plan_drive", "table_blocks"]

#: Table bytes one key costs: a slot at the default load (16 / 0.7; the
#: host law in ``benchmarks/perf/workloads.py`` keeps a literal copy).
TABLE_BYTES_PER_KEY = SLOT_BYTES / MAX_LOAD_FACTOR


@dataclass(frozen=True)
class DrivePlan:
    """A drive's rounds, count blocks and table hints, as :func:`plan_drive` decided them."""

    n_rounds: int  # exchange rounds
    blocks: list[tuple[int, int]]  # the count's table blocks: ranks [r0, r1), tiling range(P)
    hints: list[int]  # per parsed rank: a one-shot table region's capacity hint
    births: list[int]  # per parsed rank: a streamed state's region's capacity hint at its birth


def _host_bytes_per_item(wire: int) -> float:
    """Host bytes one received item may cost: its wire buffer and copy, its unpacked 8-byte key, a table slot."""
    return wire * 2 + 8.0 + TABLE_BYTES_PER_KEY


def check_budget_floor(config: PipelineConfig, opts: EngineOptions) -> None:
    """Refuse a ``host_memory_budget`` below one received item's working set.

    Rounds cannot shrink a round below one item per rank, and the floor
    needs only the wire bytes and the work multiplier, so it is checked
    before any parse: once per options object, when the scheduler
    resolves its strategy for them.
    """
    budget, mult = opts.host_memory_budget, opts.work_multiplier
    if budget is None:
        return
    per_item = _host_bytes_per_item(config.wire_bytes)
    floor = int(np.ceil(per_item * mult))
    if budget < floor:
        raise ValueError(
            f"host_memory_budget={budget} is below the working-set "
            f"floor of one received item: {floor} bytes "
            f"({per_item:.1f} B/item at work_multiplier {mult:g})"
        )


def table_blocks(expected_keys: np.ndarray) -> list[tuple[int, int]]:
    """The rank blocks whose tables would total about ``segmented.INSERT_BLOCK_BYTES``.

    ``expected_keys[r]`` estimates rank ``r``'s keys (an upper bound is
    fine), a slot each at the default load.  Any partition into whole
    consecutive ranks gives the same slots, so it only steers speed.
    """
    slots = np.maximum(64, np.asarray(expected_keys, dtype=np.float64) / MAX_LOAD_FACTOR)
    return segmented.rank_blocks((slots * SLOT_BYTES).astype(np.int64), segmented.INSERT_BLOCK_BYTES)


def plan_drive(summary: ParseSummary, sctx: StageContext, *, last: bool = False) -> DrivePlan:
    """The plan of the drive whose parse gave ``summary``.

    Rounds are ⌈worst rank's received items (the counts matrix's column
    sums, at full scale) × bytes per item / budget⌉: on the device, the
    wire buffer, its staged copy and the table slots an item may add; on
    the host, also its unpacked 8-byte key.  They bound the receive extent
    a count block takes of a round, not the send array.  A streamed batch
    is planned by the same laws, from its own counts matrix.

    A one-shot table region is hinted at its rank's parsed k-mers over P,
    plus 16, and its first insert sizes it at the keys it receives.  A
    streamed state's region is born (by the first batch that counts into
    it) at its rank's parsed k-mers of the batch, as many as the budget
    holds table bytes for, at least 64: on a balanced partition an upper
    bound on the distinct keys the batch brings, so later batches of
    mostly known keys need not regrow it.  That spends declared memory
    ahead of the keys: with no budget, or when no batch follows (``last``:
    the job said so), the region is born at 64 and sized by its first
    insert, as a one-shot one is.
    """
    opts = sctx.opts
    wire, mult = sctx.config.wire_bytes, opts.work_multiplier
    recv_items = summary.counts_matrix.sum(axis=0)
    worst = float(recv_items.max(initial=0)) * mult
    budget = opts.host_memory_budget
    n_rounds = sctx.config.n_rounds
    if opts.auto_rounds and sctx.substrate.device_memory:
        device_budget = opts.machine.resolved_device.hbm_bytes * opts.memory_budget_fraction
        n_rounds = max(n_rounds, int(np.ceil(worst * (wire * 2 + TABLE_BYTES_PER_KEY) / device_budget)))
    if budget is not None:
        n_rounds = max(n_rounds, int(np.ceil(worst * _host_bytes_per_item(wire) / budget)))
    p = sctx.n_ranks
    # Python ints, not int64 scalars: a table sizes its regions in a Python loop.
    hints = np.maximum(64, summary.n_kmers // max(p, 1) + 16).tolist()
    room = 0 if budget is None or last else int(budget / (TABLE_BYTES_PER_KEY * mult))
    births = np.maximum(64, np.minimum(summary.n_kmers, room)).tolist()
    return DrivePlan(n_rounds=n_rounds, blocks=table_blocks(recv_items), hints=hints, births=births)
