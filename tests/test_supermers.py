"""Tests for supermer construction (Algorithm 2) and the wire codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.encoding import codes_to_string
from repro.dna.reads import ReadSet
from repro.kmers.extract import extract_kmers, extract_kmers_scalar
from repro.kmers.supermers import (
    UNPACK_BLOCK_SUPERMERS,
    SupermerBatch,
    build_supermers,
    build_supermers_scalar,
    build_supermers_with_positions,
    extract_kmers_from_packed,
    max_window_for,
)

from .test_minimizers import KM_MATRIX, ORDERINGS, random_codes, scalar_minimizer

dna = st.text(alphabet="ACGTN", min_size=0, max_size=150)


def matrix_reads(k: int, seed: int) -> list[str]:
    """Seeded reads with Ns: long, shorter than k, exactly k, all-N, long."""
    long_a = codes_to_string(random_codes(seed, 90))
    long_b = codes_to_string(random_codes(seed + 1, 70))
    exact = codes_to_string(np.random.default_rng(seed).integers(0, 4, size=k).astype(np.uint8))
    return [long_a, exact[: k - 1], exact, "N" * (k + 2), long_b]


def reference_supermers(
    read: str, k: int, m: int, window: int, ordering: str, canonical: bool
) -> list[tuple[str, int]]:
    """The module docstring's boundary rule over per-k-mer scalar minimizers."""
    out: list[tuple[str, int]] = []
    start = prev = None
    for i in range(len(read) - k + 2):  # one step past the end flushes the tail
        kmer = read[i : i + k]
        cur = None if len(kmer) < k or "N" in kmer else scalar_minimizer(kmer, m, ordering, canonical)[0]
        if start is not None and (cur is None or cur != prev or i % window == 0):
            out.append((read[start : i + k - 1], prev))
            start = None
        if cur is not None and start is None:
            start = i
        prev = cur
    return out


class TestMaxWindow:
    def test_paper_configuration(self):
        # k=17 leaves room for a window of 16; the paper chose 15.
        assert max_window_for(17) == 16

    def test_bounds(self):
        assert max_window_for(31) == 2
        with pytest.raises(ValueError):
            max_window_for(32)
        with pytest.raises(ValueError):
            max_window_for(1)


class TestScalarVsVector:
    @given(
        dna,
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=120)
    def test_identical_supermers(self, read, k, m_raw, window, ordering):
        m = min(m_raw, k - 1)
        window = min(window, max_window_for(k))
        rs = ReadSet.from_strings([read])
        batch = build_supermers(rs, k, m, window=window, ordering=ordering)
        ref = build_supermers_scalar(read, k, m, window=window, ordering=ordering)
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == ref

    @pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("widest", [False, True], ids=["window1", "windowmax"])
    @pytest.mark.parametrize("k,m", [(k, m) for k, m in KM_MATRIX if k <= 31])
    def test_matrix_matches_reference(self, k, m, widest, ordering, canonical):
        """Build and unpack on every dtype boundary, against the scalar references."""
        window = max_window_for(k) if widest else 1
        reads = matrix_reads(k, seed=1000 * k + m)
        rs = ReadSet.from_strings(reads)
        batch, starts = build_supermers_with_positions(
            rs, k, m, window=window, ordering=ordering, canonical_minimizers=canonical
        )
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == [sm for r in reads for sm in reference_supermers(r, k, m, window, ordering, canonical)]
        if not canonical:
            scalar = [build_supermers_scalar(r, k, m, window=window, ordering=ordering) for r in reads]
            assert got == [sm for per_read in scalar for sm in per_read]
        # Start positions index the first base of each supermer in the code array.
        flat = codes_to_string(rs.codes)
        assert [flat[p : p + len(seq)] for p, (seq, _) in zip(starts.tolist(), got, strict=True)] == [s for s, _ in got]
        # The wire codec returns the k-mers in read order, not merely the same multiset.
        wire = extract_kmers_from_packed(batch.packed, batch.n_kmers.astype(np.uint8), k)
        assert wire.tolist() == [v for r in reads for v in extract_kmers_scalar(r, k)]

    def test_multi_read(self):
        reads = ["ACGTACGTACGTAA", "TTTTTTTT", "GCGCGCGCGC"]
        rs = ReadSet.from_strings(reads)
        batch = build_supermers(rs, 5, 3, window=4)
        ref = [sm for r in reads for sm in build_supermers_scalar(r, 5, 3, window=4)]
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == ref


class TestDegenerateInputs:
    """Inputs at the kernels' edges produce nothing or exactly the reference."""

    @pytest.mark.parametrize("reads", [[], [""], ["ACGT"], ["ACGT", "", "AC"], ["NNNNNNNNNNNN"], ["ACGTNACG"]])
    def test_nothing_to_build(self, reads):
        batch, starts = build_supermers_with_positions(ReadSet.from_strings(reads), 5, 3)
        assert len(batch) == 0 and starts.shape == (0,) and starts.dtype == np.int64
        assert batch.extract_kmers().shape == (0,)

    def test_empty_readset(self):
        batch, starts = build_supermers_with_positions(ReadSet.empty(), 17, 7)
        assert len(batch) == 0 and starts.shape == (0,)

    def test_read_of_exactly_k_bases(self):
        batch, starts = build_supermers_with_positions(ReadSet.from_strings(["GATTACA"]), 7, 3)
        assert [batch.supermer_string(i) for i in range(len(batch))] == ["GATTACA"]
        assert batch.n_kmers.tolist() == [1] and starts.tolist() == [0]

    @pytest.mark.parametrize("window", [1, 3, 4, 12])
    def test_read_length_multiple_of_window(self, window):
        """12 k-mer positions: the last window is full, and no flag falls past the read."""
        k, m = 5, 2
        read = codes_to_string(np.random.default_rng(window).integers(0, 4, size=12 + k - 1).astype(np.uint8))
        rs = ReadSet.from_strings([read, read])
        batch = build_supermers(rs, k, m, window=window)
        ref = build_supermers_scalar(read, k, m, window=window)
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == ref + ref
        assert int(batch.n_kmers.max()) <= window

    @pytest.mark.parametrize("k,m", [(17, 7), (31, 15), (5, 2), (2, 1)])
    def test_last_supermer_ends_on_final_base(self, k, m):
        """No trailing sentinel: the last supermer's 32-base window hangs off the array."""
        read = codes_to_string(np.random.default_rng(k).integers(0, 4, size=3 * k).astype(np.uint8))
        with_sentinel = ReadSet.from_strings([read])
        bare = ReadSet(codes=with_sentinel.codes[:-1], offsets=[0], lengths=[len(read)])
        a, a_pos = build_supermers_with_positions(with_sentinel, k, m)
        b, b_pos = build_supermers_with_positions(bare, k, m)
        assert int(b_pos[-1]) + int(b.n_kmers[-1]) + k - 1 == bare.codes.shape[0]
        for x, y in [(a.packed, b.packed), (a.n_kmers, b.n_kmers), (a.minimizers, b.minimizers), (a_pos, b_pos)]:
            assert np.array_equal(x, y)
        got = [(b.supermer_string(i), int(b.minimizers[i])) for i in range(len(b))]
        assert got == build_supermers_scalar(read, k, m)


class TestKmerConservation:
    @given(
        st.lists(dna, min_size=0, max_size=6),
        st.integers(min_value=4, max_value=10),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=80)
    def test_supermers_carry_every_kmer(self, reads, k, ordering):
        """The k-mer multiset reconstructed from supermers equals direct
        extraction — the pipeline's fundamental conservation law."""
        m = k // 2
        rs = ReadSet.from_strings(reads)
        batch = build_supermers(rs, k, m, ordering=ordering)
        direct = np.sort(extract_kmers(rs, k))
        via_supermers = np.sort(batch.extract_kmers())
        assert np.array_equal(direct, via_supermers)

    def test_total_kmers_property(self, genome_reads):
        batch = build_supermers(genome_reads, 17, 7)
        assert batch.total_kmers == extract_kmers(genome_reads, 17).shape[0]


class TestWindowSemantics:
    def test_window_caps_supermer_length(self, genome_reads):
        k, m, w = 17, 7, 9
        batch = build_supermers(genome_reads, k, m, window=w)
        assert int(batch.n_kmers.max()) <= w
        assert int(batch.n_bases.max()) <= w + k - 1

    def test_wider_window_fewer_supermers(self, genome_reads):
        small = build_supermers(genome_reads, 17, 7, window=4)
        large = build_supermers(genome_reads, 17, 7, window=15)
        assert len(large) < len(small)
        assert small.total_kmers == large.total_kmers

    def test_window_too_large_rejected(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        with pytest.raises(ValueError, match="32 bases"):
            build_supermers(rs, 17, 7, window=17)

    def test_window_must_be_positive(self):
        rs = ReadSet.from_strings(["ACGTACGT"])
        with pytest.raises(ValueError):
            build_supermers(rs, 5, 3, window=0)


class TestMinimizerLengthEffect:
    def test_smaller_m_longer_supermers(self, genome_reads):
        """Section V-D: smaller minimizer length -> longer, fewer supermers."""
        m7 = build_supermers(genome_reads, 17, 7, window=15)
        m9 = build_supermers(genome_reads, 17, 9, window=15)
        assert len(m7) < len(m9)
        assert m7.mean_length() > m9.mean_length()


class TestBatchContainer:
    def test_empty(self):
        b = SupermerBatch.empty(17)
        assert len(b) == 0 and b.total_kmers == 0 and b.mean_length() == 0.0
        assert b.extract_kmers().shape == (0,)

    def test_wire_bytes(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        b = build_supermers(rs, 5, 3)
        # 8-byte word + 1 length byte per supermer (Section V-D).
        assert b.wire_bytes() == 9 * len(b)

    def test_select_and_concat(self):
        rs = ReadSet.from_strings(["ACGTACGTACGTACGT", "TTTTTTTTTT"])
        b = build_supermers(rs, 5, 3)
        first = b.select(np.arange(len(b)) < 2)
        rest = b.select(np.arange(len(b)) >= 2)
        back = SupermerBatch.concat([first, rest])
        assert np.array_equal(back.packed, b.packed)
        assert np.array_equal(back.n_kmers, b.n_kmers)

    def test_concat_empty_requires_k(self):
        with pytest.raises(ValueError):
            SupermerBatch.concat([])
        assert SupermerBatch.concat([], k=11).k == 11

    def test_concat_mixed_k_rejected(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        a = build_supermers(rs, 5, 3)
        b = build_supermers(rs, 6, 3)
        with pytest.raises(ValueError, match="different k"):
            SupermerBatch.concat([a, b])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            SupermerBatch(
                k=5,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([0], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="parallel"):
            SupermerBatch(
                k=5,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([1, 1], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="word-packed"):
            SupermerBatch(
                k=20,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([14], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )


class TestWireCodec:
    def test_extract_from_packed_matches_method(self, genome_reads):
        b = build_supermers(genome_reads, 17, 7)
        direct = b.extract_kmers()
        wire = extract_kmers_from_packed(b.packed, b.n_kmers, b.k)
        assert np.array_equal(direct, wire)

    def test_single_kmer_supermer(self):
        from repro.dna.encoding import string_to_kmer

        packed = np.array([string_to_kmer("ACGTA")], dtype=np.uint64)
        out = extract_kmers_from_packed(packed, np.array([1]), 5)
        assert out.tolist() == [string_to_kmer("ACGTA")]

    def test_known_decomposition(self):
        from repro.dna.encoding import string_to_kmer

        # supermer GTCAT with k=3 carries GTC, TCA, CAT.
        packed = np.array([string_to_kmer("GTCAT")], dtype=np.uint64)
        out = extract_kmers_from_packed(packed, np.array([3]), 3)
        assert out.tolist() == [string_to_kmer(s) for s in ["GTC", "TCA", "CAT"]]

    def test_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            extract_kmers_from_packed(np.zeros(2, dtype=np.uint64), np.zeros(1, dtype=np.int32), 5)
        with pytest.raises(ValueError, match="at least one"):
            extract_kmers_from_packed(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int32), 5)

    @pytest.mark.parametrize("k", [17, 31])
    def test_rejects_lengths_no_word_can_carry(self, k):
        """A corrupted length byte (spool or run file) is an error, not garbage k-mers."""
        packed = np.zeros(3, dtype=np.uint64)
        longest = 32 - k + 1
        assert extract_kmers_from_packed(packed, np.array([1, longest, 1], dtype=np.uint8), k).shape == (longest + 2,)
        with pytest.raises(ValueError, match="word-packed"):
            extract_kmers_from_packed(packed, np.array([1, longest + 1, 1], dtype=np.uint8), k)
        with pytest.raises(ValueError, match="at least one"):
            extract_kmers_from_packed(packed, np.array([1, 0, 1], dtype=np.uint8), k)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_block_boundaries_equal_unblocked_formula(self, delta):
        """Sizes straddling the unpack block: k-mer i of a b-base word is bits [2(b-k-i), 2(b-i))."""
        k = 17
        n = 2 * UNPACK_BLOCK_SUPERMERS + delta
        rng = np.random.default_rng(n)
        counts = rng.integers(1, 32 - k + 2, size=n)
        packed = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) >> (2 * (32 - (counts + k - 1))).astype(np.uint64)
        owner = np.repeat(np.arange(n), counts)
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        expected = (packed[owner] >> (2 * (counts[owner] - 1 - within)).astype(np.uint64)) & np.uint64((1 << 2 * k) - 1)
        assert np.array_equal(extract_kmers_from_packed(packed, counts, k), expected)
        half = n // 2
        assert np.array_equal(extract_kmers_from_packed(packed[:half], counts[:half], k), expected[: counts[:half].sum()])


class TestCompressionRatios:
    def test_table2_ratio_band(self, genome_reads):
        """Items ratio at k=17, w=15 lands in Table II's ~3.3-3.9x band."""
        kmers = extract_kmers(genome_reads, 17).shape[0]
        for m, lo, hi in [(7, 3.0, 4.6), (9, 2.6, 4.2)]:
            batch = build_supermers(genome_reads, 17, m, window=15)
            ratio = kmers / len(batch)
            assert lo < ratio < hi, (m, ratio)

    def test_paper_fig4_communication_example(self):
        """Fig. 4's arithmetic: 19-base read, k=8, m=4 -> 12 k-mers whose
        individual transport costs 96 bases vs ~3 supermers of total ~33."""
        read = "GGTCAGTCAGGGTCAGTCA"  # 19 bases, same spirit as Fig. 4
        batch = build_supermers(ReadSet.from_strings([read]), 8, 4, window=12, ordering="lexicographic")
        assert batch.total_kmers == 12
        kmer_bases = batch.total_kmers * 8
        assert kmer_bases == 96
        assert batch.total_bases < kmer_bases / 2  # >2x base reduction
