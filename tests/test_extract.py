"""Tests for vectorized k-mer extraction (scalar cross-check, N handling)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.encoding import canonical_value, string_to_kmer
from repro.dna.reads import ReadSet
from repro.kmers.extract import extract_kmers, extract_kmers_scalar, pack_windows, window_values

dna_with_n = st.text(alphabet="ACGTN", min_size=0, max_size=120)
read_lists = st.lists(dna_with_n, min_size=0, max_size=8)


class TestWindowValues:
    def test_simple(self):
        from repro.dna.encoding import string_to_codes

        w = window_values(string_to_codes("ACGT"), 2)
        assert w.n_windows == 3
        assert w.valid.all()
        assert w.values.tolist() == [string_to_kmer(s) for s in ["AC", "CG", "GT"]]

    def test_sentinel_invalidates_windows(self):
        from repro.dna.encoding import string_to_codes

        w = window_values(string_to_codes("ACNGT"), 2)
        assert w.valid.tolist() == [True, False, False, True]

    def test_too_short(self):
        from repro.dna.encoding import string_to_codes

        w = window_values(string_to_codes("AC"), 5)
        assert w.n_windows == 0 and w.n_valid == 0

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            window_values(np.zeros(10, dtype=np.uint8), 0)
        with pytest.raises(ValueError):
            window_values(np.zeros(40, dtype=np.uint8), 33)

    @pytest.mark.parametrize("width", range(1, 33))
    def test_every_width_matches_scalar(self, width):
        """Doubling pack and doubling validity, power-of-two widths and not."""
        from repro.dna.encoding import codes_to_string

        rng = np.random.default_rng(width)
        codes = rng.integers(0, 4, size=120).astype(np.uint8)
        codes[rng.integers(0, 120, size=3)] = 4
        codes[60:62] = 4
        read = codes_to_string(codes)
        w = window_values(codes, width)
        assert w.values.dtype == np.uint64 and w.valid.dtype == bool
        assert w.valid.tolist() == ["N" not in read[i : i + width] for i in range(120 - width + 1)]
        assert w.compact().tolist() == extract_kmers_scalar(read, width)

    def test_compact(self):
        from repro.dna.encoding import string_to_codes

        w = window_values(string_to_codes("ANA"), 1)
        assert w.compact().tolist() == [0, 0]


class TestPackWindows:
    """The narrow-level pack equals a per-base shift-or loop, in the narrowest dtype holding it."""

    @staticmethod
    def _shift_or(codes: np.ndarray, width: int) -> np.ndarray:
        n = codes.shape[0] - width + 1
        out = np.zeros(n, dtype=np.uint64)
        for j in range(width):
            out = (out << np.uint64(2)) | codes[j : j + n].astype(np.uint64)
        return out

    @pytest.mark.parametrize("in_dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("width", range(1, 33))
    def test_every_width_matches_the_shift_or_loop(self, in_dtype, width):
        codes = np.random.default_rng(width).integers(0, 4, size=150).astype(in_dtype)
        codes[:40] = 3  # all-ones fields: a level one dtype too narrow would lose the top bits
        uints = (np.uint8, np.uint16, np.uint32, np.uint64)
        narrowest = next(dt for dt in uints if 2 * width <= np.iinfo(dt).bits)
        packed = pack_windows(codes, width)
        assert packed.dtype == np.promote_types(in_dtype, narrowest)  # the input's dtype when that holds it
        assert np.array_equal(packed.astype(np.uint64), self._shift_or(codes, width))


class TestExtract:
    @given(read_lists, st.integers(min_value=2, max_value=12))
    @settings(max_examples=100)
    def test_matches_scalar_reference(self, reads, k):
        rs = ReadSet.from_strings(reads)
        vec = extract_kmers(rs, k).tolist()
        sca = [v for r in reads for v in extract_kmers_scalar(r, k)]
        assert vec == sca

    def test_no_cross_read_windows(self):
        """Windows never span two reads (sentinels break them)."""
        rs = ReadSet.from_strings(["AAA", "TTT"])
        kmers = extract_kmers(rs, 3)
        assert kmers.tolist() == [string_to_kmer("AAA"), string_to_kmer("TTT")]

    def test_count_matches_kmer_count_when_no_n(self):
        rs = ReadSet.from_strings(["ACGTACGTAC", "GGGGG"])
        assert extract_kmers(rs, 4).shape[0] == rs.kmer_count(4)

    def test_canonical_mode(self):
        rs = ReadSet.from_strings(["ACGTT"])
        k = 5
        got = extract_kmers(rs, k, canonical=True)
        assert int(got[0]) == canonical_value(string_to_kmer("ACGTT"), k)

    def test_empty_readset(self):
        assert extract_kmers(ReadSet.empty(), 5).shape == (0,)

    def test_scalar_invalid_k(self):
        with pytest.raises(ValueError):
            extract_kmers_scalar("ACGT", 0)

    @given(st.text(alphabet="ACGT", min_size=32, max_size=64))
    def test_k32_full_word(self, s):
        rs = ReadSet.from_strings([s])
        kmers = extract_kmers(rs, 32)
        assert int(kmers[0]) == string_to_kmer(s[:32])
        assert kmers.shape[0] == len(s) - 31
