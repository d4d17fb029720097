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

from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..gpu.segmented import rank_blocks
from ..telemetry import active
from .stats import TrafficStats

if TYPE_CHECKING:  # import for typing only; no runtime mpi -> core dependency
    from ..core.memory import ScratchArena

__all__ = [
    "alltoallv",
    "alltoallv_segments",
    "alltoallv_flat",
    "account_alltoallv",
    "send_counts_matrix",
    "segment_blocks",
    "segment_gather_index",
    "segment_starts",
    "SegmentBlock",
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
    below and both residencies' exchanges (``repro.core.stages.spill``)
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


#: Target bytes of one destination block of the exchange gather
#: (:func:`segment_blocks`): the block's items plus the int64 gather index
#: of as many entries, the two transients a block adds beside the send
#: array.  Cache-sized on purpose.  Resident, a sweep of
#: 8 k to 1 M items per block moved the gather by at most 20% as long as
#: the index stayed under ~2 MiB; past that the allocator maps and faults
#: in each block's index afresh and the gather doubles.  Spooled (the
#: 672-rank two-round workload), 2 MiB and 16 MiB of items per block spool
#: equally fast (the per-block Python work is P slices either way), but
#: 16 MiB raised peak RSS 218 -> 230 MB and pushed ``tools/check_spill.py``'s
#: staged probe over its default ``RLIMIT_AS`` cap.
SEGMENT_BLOCK_BYTES = 1 << 21


def segment_gather_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Index that concatenates the segments ``[starts[i], starts[i] + lens[i])`` in order.

    ``buffer[segment_gather_index(starts, lens)]`` equals
    ``np.concatenate([buffer[s : s + n] for s, n in zip(starts, lens)])``
    without the Python-level loop: one ``arange`` plus each segment's
    (source start − output start) shift, repeated over its items.
    """
    out_starts = np.cumsum(lens) - lens
    idx = np.repeat(starts - out_starts, lens)
    idx += np.arange(idx.shape[0], dtype=np.int64)
    return idx


class SegmentBlock(NamedTuple):
    """One block of consecutive destinations of an exchange round."""

    d0: int  # destination ranks [d0, d1)
    d1: int
    o0: int  # the block's items [o0, o1) in the (dst, src)-major receive order
    o1: int
    counts: np.ndarray  # [src, dst - d0] items
    starts: np.ndarray  # [src, dst - d0] start of each segment in the src-major send array

    def index(self) -> np.ndarray:
        """The block's (dst, src)-major gather index into the src-major send array.

        Every entry addresses an item of a segment — the callers validate
        the counts against the buffer lengths before any block is built —
        so they gather with ``mode="clip"``: NumPy's default ``"raise"``
        buffers the whole output.
        """
        return segment_gather_index(self.starts.T.reshape(-1), self.counts.T.reshape(-1))

    def take(self, sends: Sequence[np.ndarray], outs: Sequence[np.ndarray]) -> None:
        """Fill ``outs[i]`` with the block's items of the src-major array ``sends[i]``, (dst, src)-major.

        A one-destination block is already in order — one contiguous slice
        per source — and is copied slice by slice: building its index would
        cost three more passes over the block's items than the copy itself,
        and such a block is usually a large one (its next destination did
        not fit beside it).  A wider block is gathered with one
        :meth:`index` shared by every entry of ``sends`` (the payload and,
        in supermer mode, its length bytes).
        """
        if self.d1 - self.d0 == 1:
            lo = self.starts[:, 0]
            bounds = list(zip(lo.tolist(), (lo + self.counts[:, 0]).tolist()))
            for send, out in zip(sends, outs):
                np.concatenate([send[a:b] for a, b in bounds], out=out)
            return
        idx = self.index()
        for send, out in zip(sends, outs):
            np.take(send, idx, out=out, mode="clip")


def segment_starts(counts_matrix: np.ndarray) -> np.ndarray:
    """``[src, dst]`` start of each segment in the src-major array ``counts_matrix`` lays out back to back."""
    seg_lens = counts_matrix.reshape(-1)
    return (np.cumsum(seg_lens) - seg_lens).reshape(counts_matrix.shape)


def segment_blocks(
    counts_matrix: np.ndarray, item_bytes: int, starts: np.ndarray | None = None
) -> Iterator[SegmentBlock]:
    """The non-empty destination blocks of one exchange round, in rank order.

    Consecutive destinations are grouped until their received items
    (``item_bytes`` each) and the index over them reach
    :data:`SEGMENT_BLOCK_BYTES` (one oversized destination is its own
    block).  ``starts[src, dst]`` is where each segment begins in the send
    array; by default the segments lie back to back
    (:func:`segment_starts`), and a round of a larger send array passes
    its own, so one gather serves every round.  The gather below and the
    spooled exchange (``repro.core.stages.spill``) iterate this one
    generator, so the receive side is laid out identically wherever it
    lands.
    """
    if starts is None:
        starts = segment_starts(counts_matrix)
    recv = counts_matrix.sum(axis=0)
    o0 = 0
    for d0, d1 in rank_blocks(recv * (item_bytes + 8), SEGMENT_BLOCK_BYTES):
        o1 = o0 + int(recv[d0:d1].sum())
        if o1 > o0:
            yield SegmentBlock(d0, d1, o0, o1, counts_matrix[:, d0:d1], starts[:, d0:d1])
        o0 = o1


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
    dst_offsets[dst + 1]]``.  Each destination block
    (:func:`segment_blocks`) is gathered out of ``global_data`` straight
    into its slice of ``shuffled`` (:meth:`SegmentBlock.take`: its source
    slices, or a block-sized index) — no index of the whole round exists.
    No engine path calls it: the engine's exchange never builds a whole
    receive array, its count gathers each table block's segments out of
    the send array with the same :meth:`SegmentBlock.take`
    (``repro.core.stages.spill``).

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

    take = arena.take if arena is not None else np.empty
    shuffled = take(global_data.shape[0], global_data.dtype)
    for blk in segment_blocks(counts_matrix, global_data.itemsize):
        blk.take([global_data], [shuffled[blk.o0 : blk.o1]])
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
) -> tuple[list[np.ndarray], np.ndarray]:
    """All-to-all of destination-ordered segment arrays (the MPI wire form).

    This is how real ``MPI_Alltoallv`` is driven: each rank contributes one
    contiguous array ``send_data[src]`` whose first ``send_counts[src][0]``
    items go to rank 0, the next ``send_counts[src][1]`` to rank 1, etc.
    Returns ``(recv_data, counts_matrix)`` where ``recv_data[dst]`` is the
    concatenation of every source's segment for ``dst`` (ordered by source
    rank) and ``counts_matrix[src, dst]`` is the item matrix.

    A thin wrapper over :func:`alltoallv_flat`: the validated send buffers
    are concatenated src-major and gathered, and the receive buffers are
    views of its one (dst, src)-major array.  ``bytes_per_item`` overrides
    the wire size per item for byte accounting (e.g. ``8 + 1`` for a
    supermer word plus its length byte); by default the array's own
    itemsize is used.
    """
    p = len(send_data)
    counts_matrix = send_counts_matrix(send_data, send_counts)
    dtype = send_data[0].dtype if p else np.dtype(np.int64)
    flat = np.concatenate(send_data, dtype=dtype) if p else np.empty(0, dtype)
    shuffled, dst_offsets = alltoallv_flat(
        flat, counts_matrix, stats=stats, label=label, bytes_per_item=bytes_per_item
    )
    return [shuffled[dst_offsets[d] : dst_offsets[d + 1]] for d in range(p)], counts_matrix


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
