"""Tests for the BSP collectives and traffic accounting."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi.collectives as collectives
from repro.mpi.collectives import (
    allgather,
    allreduce,
    alltoall,
    alltoallv,
    alltoallv_flat,
    alltoallv_segments,
    bcast,
    gather,
    scatter,
    segment_blocks,
)
from repro.mpi.stats import TrafficStats

pytestmark = pytest.mark.engines


class TestAlltoallv:
    def test_transpose_semantics(self):
        p = 4
        send = [[f"{s}->{d}" for d in range(p)] for s in range(p)]
        # strings lack nbytes; skip stats
        recv = alltoallv(send)
        for d in range(p):
            assert recv[d] == [f"{s}->{d}" for s in range(p)]

    def test_stats_bytes_and_items(self):
        p = 3
        send = [[np.zeros(s + d, dtype=np.int64) for d in range(p)] for s in range(p)]
        stats = TrafficStats()
        alltoallv(send, stats=stats, label="x")
        rec = stats.records[0]
        assert rec.bytes_matrix[1, 2] == 3 * 8
        assert rec.items_matrix[1, 2] == 3
        assert rec.total_items == sum(s + d for s in range(p) for d in range(p))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            alltoallv([[1, 2], [1]])


class TestAlltoallvSegments:
    @staticmethod
    def naive(send_data, send_counts):
        p = len(send_data)
        offs = [np.concatenate(([0], np.cumsum(c))) for c in send_counts]
        out = []
        for d in range(p):
            pieces = [send_data[s][offs[s][d] : offs[s][d + 1]] for s in range(p)]
            out.append(np.concatenate(pieces))
        return out

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=50), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_matches_naive(self, p, n_per_rank, seed):
        rng = np.random.default_rng(seed)
        send_data, send_counts = [], []
        for _s in range(p):
            counts = rng.multinomial(n_per_rank, np.ones(p) / p)
            data = rng.integers(0, 1000, size=n_per_rank).astype(np.uint64)
            send_data.append(data)
            send_counts.append(counts.astype(np.int64))
        recv, matrix = alltoallv_segments(send_data, send_counts)
        expected = self.naive(send_data, send_counts)
        for d in range(p):
            assert np.array_equal(recv[d], expected[d])
        assert matrix.sum() == sum(c.sum() for c in send_counts)

    def test_source_order_within_destination(self):
        send_data = [np.array([10, 11], dtype=np.int64), np.array([20], dtype=np.int64)]
        send_counts = [np.array([1, 1]), np.array([1, 0])]
        recv, _ = alltoallv_segments(send_data, send_counts)
        assert recv[0].tolist() == [10, 20]
        assert recv[1].tolist() == [11]

    def test_dtype_preserved(self):
        send_data = [np.array([1, 2], dtype=np.uint8), np.array([3], dtype=np.uint8)]
        send_counts = [np.array([1, 1]), np.array([0, 1])]
        recv, _ = alltoallv_segments(send_data, send_counts)
        assert recv[0].dtype == np.uint8 and recv[1].dtype == np.uint8

    def test_bytes_per_item_override(self):
        stats = TrafficStats()
        send_data = [np.zeros(4, dtype=np.uint64), np.zeros(0, dtype=np.uint64)]
        send_counts = [np.array([2, 2]), np.array([0, 0])]
        alltoallv_segments(send_data, send_counts, stats=stats, label="s", bytes_per_item=9)
        assert stats.records[0].bytes_matrix[0, 1] == 18

    def test_count_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts sum"):
            alltoallv_segments([np.zeros(3)], [np.array([5])])

    def test_count_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            alltoallv_segments([np.zeros(3), np.zeros(0)], [np.array([3]), np.array([0])])


@st.composite
def _rounds(draw):
    """``(counts_matrix, seed)``: zero rows/columns, P = 1, all-empty, one oversized destination."""
    p = draw(st.integers(min_value=1, max_value=9))
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, 12), min_size=p, max_size=p), min_size=p, max_size=p)),
        dtype=np.int64,
    )
    for axis in draw(st.lists(st.sampled_from(["row", "col", "all", "big"]), max_size=3)):
        i = draw(st.integers(0, p - 1))
        if axis == "row":
            counts[i, :] = 0
        elif axis == "col":
            counts[:, i] = 0
        elif axis == "all":
            counts[:] = 0
        else:
            counts[:, i] *= 40
    return counts, draw(st.integers(0, 2**32))


class TestBlockedSegmentGather:
    """The one blocked gather equals the per-segment concatenation, whatever the block size."""

    @given(
        _rounds(),
        st.sampled_from([np.uint64, np.uint8]),
        st.sampled_from([1, 2, 7, 64, 1 << 30]),  # items per block: one ... more than the round
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_per_segment_concatenate(self, round_, dtype, block_items):
        counts, seed = round_
        rng = np.random.default_rng(seed)
        p = counts.shape[0]
        send_data = [rng.integers(0, 250, size=int(n)).astype(dtype) for n in counts.sum(axis=1)]
        expected = TestAlltoallvSegments.naive(send_data, list(counts))  # one slice per (src, dst)
        block_bytes = block_items * (np.dtype(dtype).itemsize + 8)
        with mock.patch.object(collectives, "SEGMENT_BLOCK_BYTES", block_bytes):
            blocks = list(segment_blocks(counts, np.dtype(dtype).itemsize))
            # Blocks tile the non-empty destinations in order, one oversized destination alone.
            assert [b.o0 for b in blocks] == [0, *(b.o1 for b in blocks)][: len(blocks)]
            assert sum(b.o1 - b.o0 for b in blocks) == counts.sum()
            for b in blocks:
                assert b.d1 - b.d0 == 1 or b.o1 - b.o0 <= block_items

            shuffled, dst_offsets = alltoallv_flat(np.concatenate(send_data), counts)
            recv = alltoallv_segments(send_data, list(counts))[0]
        assert shuffled.dtype == dtype
        assert shuffled.tobytes() == np.concatenate(expected).tobytes()
        assert np.array_equal(dst_offsets, np.concatenate(([0], np.cumsum(counts.sum(axis=0)))))
        assert len(recv) == p
        for d in range(p):
            assert recv[d].dtype == dtype and recv[d].tobytes() == expected[d].tobytes()


class TestSimpleCollectives:
    def test_allreduce(self):
        assert allreduce([1, 2, 3], lambda a, b: a + b) == [6, 6, 6]
        assert allreduce([], lambda a, b: a + b) == []

    def test_allgather(self):
        assert allgather(["a", "b"]) == [["a", "b"], ["a", "b"]]

    def test_gather(self):
        out = gather([10, 20, 30], root=1)
        assert out[0] is None and out[2] is None
        assert out[1] == [10, 20, 30]

    def test_gather_bad_root(self):
        with pytest.raises(ValueError):
            gather([1, 2], root=5)

    def test_bcast(self):
        assert bcast("x", 3) == ["x", "x", "x"]

    def test_scatter(self):
        assert scatter([1, 2, 3]) == [1, 2, 3]
        with pytest.raises(ValueError):
            scatter([1, 2], p=3)

    def test_alltoall_stats(self):
        stats = TrafficStats()
        alltoall([[1, 2], [3, 4]], stats=stats)
        assert stats.records[0].op == "alltoall"
        assert stats.total_bytes() == 4 * 8


class TestTrafficStats:
    def test_aggregates(self):
        stats = TrafficStats()
        stats.record("alltoallv", np.full((2, 2), 10), label="a")
        stats.record("alltoallv", np.full((2, 2), 5), label="b")
        assert stats.n_collectives == 2
        assert stats.total_bytes() == 60
        assert stats.total_bytes("alltoallv") == 60
        assert len(stats.by_label("a")) == 1
        merged = stats.merged_matrix()
        assert merged.tolist() == [[15, 15], [15, 15]]

    def test_off_diagonal(self):
        stats = TrafficStats()
        rec = stats.record("alltoallv", np.array([[5, 1], [2, 5]]))
        assert rec.off_diagonal_bytes == 3
        assert rec.bytes_sent_per_rank().tolist() == [6, 7]
        assert rec.bytes_received_per_rank().tolist() == [7, 6]

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            TrafficStats().record("x", np.zeros((2, 3)))

    def test_items_shape_checked(self):
        with pytest.raises(ValueError):
            TrafficStats().record("x", np.zeros((2, 2)), items_matrix=np.zeros((3, 3)))

    def test_clear(self):
        stats = TrafficStats()
        stats.record("x", np.zeros((1, 1)))
        stats.clear()
        assert stats.n_collectives == 0
