"""Bulk-synchronous collective operations on per-rank buffer lists.

The paper's pipeline is three bulk-synchronous supersteps (parse ->
exchange -> count), so the deterministic simulation engine represents a
collective as a plain function over *all* ranks' send buffers at once:
``alltoallv`` takes ``send[src][dst]`` and returns ``recv[dst][src]``.
Byte/item traffic is recorded exactly into a :class:`TrafficStats`.

These functions define the semantics; :class:`repro.mpi.comm.ThreadedWorld`
provides the same operations with real per-rank SPMD call sites, and the
test suite checks the two agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..telemetry import active
from .stats import TrafficStats

if TYPE_CHECKING:  # import for typing only; no runtime mpi -> core dependency
    from ..core.memory import ScratchArena
    from ..core.parallel import RankPool

__all__ = [
    "alltoallv",
    "alltoallv_segments",
    "alltoallv_flat",
    "account_alltoallv",
    "send_counts_matrix",
    "alltoall",
    "allreduce",
    "allgather",
    "gather",
    "bcast",
    "scatter",
]


def _check_square(buffers: Sequence[Sequence[Any]]) -> int:
    p = len(buffers)
    for src, row in enumerate(buffers):
        if len(row) != p:
            raise ValueError(f"rank {src} supplied {len(row)} destination buffers, expected {p}")
    return p


def _nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if hasattr(obj, "wire_bytes"):
        return int(obj.wire_bytes())
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    raise TypeError(f"cannot determine wire size of {type(obj).__name__}")


def _nitems(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.shape[0]) if obj.ndim else 1
    if hasattr(obj, "__len__"):
        return len(obj)
    return 1


def alltoallv(
    send: Sequence[Sequence[Any]],
    *,
    stats: TrafficStats | None = None,
    label: str = "",
) -> list[list[Any]]:
    """Irregular all-to-all: ``send[src][dst]`` -> ``recv[dst][src]``.

    Buffers are passed by reference (zero-copy, like a GPUDirect exchange);
    callers own any defensive copying.  Each buffer must expose its wire
    size (NumPy array, bytes, or an object with ``wire_bytes()``/``nbytes``).
    """
    p = _check_square(send)
    if stats is not None:
        bytes_matrix = np.empty((p, p), dtype=np.int64)
        items_matrix = np.empty((p, p), dtype=np.int64)
        for src in range(p):
            for dst in range(p):
                bytes_matrix[src, dst] = _nbytes(send[src][dst])
                items_matrix[src, dst] = _nitems(send[src][dst])
        stats.record("alltoallv", bytes_matrix, label=label, items_matrix=items_matrix)
    return [[send[src][dst] for src in range(p)] for dst in range(p)]


def send_counts_matrix(send_data: Sequence[np.ndarray], send_counts: Sequence[np.ndarray]) -> np.ndarray:
    """The validated ``[src, dst]`` item matrix of per-source ``send_counts`` rows."""
    p = len(send_data)
    if len(send_counts) != p:
        raise ValueError("send_data and send_counts must have one entry per rank")
    counts_matrix = np.zeros((p, p), dtype=np.int64)
    for src in range(p):
        counts = np.ascontiguousarray(send_counts[src], dtype=np.int64)
        if counts.shape != (p,):
            raise ValueError(f"rank {src} send_counts must have shape ({p},)")
        if int(counts.sum()) != send_data[src].shape[0]:
            raise ValueError(f"rank {src}: counts sum {int(counts.sum())} != data length {send_data[src].shape[0]}")
        counts_matrix[src] = counts
    return counts_matrix


def account_alltoallv(
    counts_matrix: np.ndarray, *, stats: TrafficStats | None, label: str, bytes_per_item: float
) -> None:
    """The model accounting of one alltoallv, wherever its payload lands.

    Emits the collective-layer telemetry counters and, when ``stats`` is
    given, appends the byte/item traffic record — the in-memory gathers
    below and the spooled exchange (``repro.core.stages.spill``) all
    account through here, so their observables cannot differ.
    """
    p = counts_matrix.shape[0]
    reg = active()
    if reg is not None:
        reg.counter("comm_alltoallv_calls_total", "alltoallv_segments invocations").inc()
        # One wire message per off-diagonal (src, dst) pair, as MPI would send.
        reg.counter("comm_messages_total", "Rank-to-rank messages carried by collectives").inc(
            max(p * (p - 1), 0)
        )
    if stats is not None:
        bytes_matrix = (counts_matrix * float(bytes_per_item)).astype(np.int64)
        stats.record("alltoallv", bytes_matrix, label=label, items_matrix=counts_matrix)


def _segment_starts(counts_matrix: np.ndarray) -> np.ndarray:
    """``[src, dst]`` start of each segment in the src-major concatenation of all send buffers."""
    p = counts_matrix.shape[0]
    src_base = np.zeros(p, dtype=np.int64)
    np.cumsum(counts_matrix.sum(axis=1)[:-1], out=src_base[1:])
    seg_offsets = np.zeros((p, p), dtype=np.int64)  # start of (src, dst) segment within src's buffer
    np.cumsum(counts_matrix[:, :-1], axis=1, out=seg_offsets[:, 1:])
    return src_base[:, None] + seg_offsets


def alltoallv_flat(
    global_data: np.ndarray,
    counts_matrix: np.ndarray,
    *,
    stats: TrafficStats | None = None,
    label: str = "",
    bytes_per_item: float | None = None,
    arena: "ScratchArena | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All-to-all over one flat, rank-segmented send array.

    ``global_data`` is the concatenation of every source rank's
    destination-ordered send buffer — segment ``(src, dst)`` holds
    ``counts_matrix[src, dst]`` items, laid out src-major.  Returns
    ``(shuffled, dst_offsets)`` where ``shuffled`` is the same items in
    (dst, src)-major order and ``recv[dst] = shuffled[dst_offsets[dst]:
    dst_offsets[dst + 1]]``.  This is the wire-level core of
    :func:`alltoallv_segments`, exposed directly so the fused engine can
    exchange whole-cluster arrays without slicing them into per-rank
    buffers first.

    ``arena`` optionally supplies the output buffer from a recycled
    scratch pool; the caller owns releasing it.
    """
    counts_matrix = np.asarray(counts_matrix, dtype=np.int64)
    p = counts_matrix.shape[0]
    if counts_matrix.shape != (p, p):
        raise ValueError("counts_matrix must be square")
    if int(counts_matrix.sum()) != global_data.shape[0]:
        raise ValueError(
            f"counts sum {int(counts_matrix.sum())} != data length {global_data.shape[0]}"
        )

    per_item = bytes_per_item if bytes_per_item is not None else global_data.itemsize
    account_alltoallv(counts_matrix, stats=stats, label=label, bytes_per_item=per_item)
    if p == 0:
        return global_data, np.zeros(1, dtype=np.int64)

    seg_starts_global = _segment_starts(counts_matrix).T.ravel()  # (dst, src) order
    seg_lens = counts_matrix.T.ravel()
    out_offsets = np.zeros(seg_lens.shape[0], dtype=np.int64)
    np.cumsum(seg_lens[:-1], out=out_offsets[1:])
    total_items = int(seg_lens.sum())
    idx = (
        np.arange(total_items, dtype=np.int64)
        - np.repeat(out_offsets, seg_lens)
        + np.repeat(seg_starts_global, seg_lens)
    )
    if arena is not None:
        shuffled = np.take(global_data, idx, out=arena.take(total_items, global_data.dtype))
    else:
        shuffled = global_data[idx]
    dst_offsets = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(counts_matrix.sum(axis=0), out=dst_offsets[1:])
    return shuffled, dst_offsets


def alltoallv_segments(
    send_data: Sequence[np.ndarray],
    send_counts: Sequence[np.ndarray],
    *,
    stats: TrafficStats | None = None,
    label: str = "",
    bytes_per_item: float | None = None,
    pool: "RankPool | None" = None,
    arena: "ScratchArena | None" = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """All-to-all of destination-ordered segment arrays (the MPI wire form).

    This is how real ``MPI_Alltoallv`` is driven: each rank contributes one
    contiguous array ``send_data[src]`` whose first ``send_counts[src][0]``
    items go to rank 0, the next ``send_counts[src][1]`` to rank 1, etc.
    Returns ``(recv_data, counts_matrix)`` where ``recv_data[dst]`` is the
    concatenation of every source's segment for ``dst`` (ordered by source
    rank) and ``counts_matrix[src, dst]`` is the item matrix.

    ``bytes_per_item`` overrides the wire size per item for byte accounting
    (e.g. ``8 + 1`` for a supermer word plus its length byte); by default
    the array's own itemsize is used.

    ``pool`` optionally parallelizes the destination-side segment packing
    (one gather per destination rank) across worker threads; each
    destination's receive buffer is private, so the packed result is
    identical to the single fancy-index path byte for byte.
    """
    p = len(send_data)
    counts_matrix = send_counts_matrix(send_data, send_counts)

    # The per-destination gather only pays off when workers share this
    # address space: under an out-of-process pool every destination buffer
    # would be copied back through shared memory for zero overlap benefit,
    # so the process substrate takes the flat sequential gather below.
    if pool is not None and pool.is_parallel and getattr(pool, "in_process", True) and p > 1:
        per_item = bytes_per_item if bytes_per_item is not None else send_data[0].itemsize
        account_alltoallv(counts_matrix, stats=stats, label=label, bytes_per_item=per_item)
        global_data = np.concatenate(send_data)
        seg_starts_matrix = _segment_starts(counts_matrix)

        # Per-destination packing: each worker gathers one destination's
        # segments into that destination's private receive buffer.
        def _pack_dst(d: int) -> np.ndarray:
            lens = counts_matrix[:, d]
            starts = seg_starts_matrix[:, d]
            offs = np.zeros(p, dtype=np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            n = int(lens.sum())
            idx = np.arange(n, dtype=np.int64) - np.repeat(offs, lens) + np.repeat(starts, lens)
            return global_data[idx]

        return pool.map(_pack_dst, range(p)), counts_matrix

    # Sequential path: concatenate all send buffers, then gather the P*P
    # segments in (dst, src) order with one fancy-index via alltoallv_flat —
    # O(total + P^2) NumPy work, no per-segment Python loop.
    if p == 0:
        alltoallv_flat(np.empty(0, dtype=np.int64), counts_matrix, stats=None)
        return [], counts_matrix
    global_data = np.concatenate(send_data) if p > 1 else send_data[0]
    shuffled, dst_offsets = alltoallv_flat(
        global_data,
        counts_matrix,
        stats=stats,
        label=label,
        bytes_per_item=bytes_per_item if bytes_per_item is not None else float(send_data[0].itemsize),
        arena=arena,
    )
    recv_data = [shuffled[dst_offsets[d] : dst_offsets[d + 1]] for d in range(p)]
    return recv_data, counts_matrix


def alltoall(
    send: Sequence[Sequence[Any]],
    *,
    stats: TrafficStats | None = None,
    label: str = "",
) -> list[list[Any]]:
    """Regular all-to-all of single items (e.g. the counts exchange)."""
    p = _check_square(send)
    if stats is not None:
        bytes_matrix = np.full((p, p), 8, dtype=np.int64)  # one word each
        stats.record("alltoall", bytes_matrix, label=label)
    return [[send[src][dst] for src in range(p)] for dst in range(p)]


def allreduce(values: Sequence[Any], op: Callable[[Any, Any], Any]) -> list[Any]:
    """All ranks receive ``reduce(op, values)``."""
    if not values:
        return []
    acc = values[0]
    for v in values[1:]:
        acc = op(acc, v)
    return [acc for _ in values]


def allgather(values: Sequence[Any]) -> list[list[Any]]:
    """Every rank receives the full list of contributions."""
    gathered = list(values)
    return [list(gathered) for _ in values]


def gather(values: Sequence[Any], root: int = 0) -> list[list[Any] | None]:
    """Root receives all contributions; others receive ``None``."""
    p = len(values)
    if not 0 <= root < p:
        raise ValueError(f"root {root} out of range for {p} ranks")
    return [list(values) if r == root else None for r in range(p)]


def bcast(value: Any, p: int) -> list[Any]:
    """All ranks receive the root's value."""
    return [value for _ in range(p)]


def scatter(values: Sequence[Any], p: int | None = None) -> list[Any]:
    """Root's list of ``P`` items is distributed one per rank."""
    items = list(values)
    if p is not None and len(items) != p:
        raise ValueError(f"scatter needs exactly {p} items, got {len(items)}")
    return items
