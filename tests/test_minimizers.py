"""Tests for minimizer computation (scalar cross-check across orderings)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.alphabet import get_ordering
from repro.dna.encoding import canonical_value, codes_to_string, string_to_codes, string_to_kmer
from repro.kmers.minimizers import minimizer_scalar, minimizers_for_windows

ORDERINGS = ["lexicographic", "kmc2", "random-base"]

#: Minimizer lengths on every dtype boundary of the kernels (rank bits
#: ``2m + 1`` = 15/17/31/33, and the packed (rank, offset) key one step
#: later), crossed with k at the packing boundaries.  The spans
#: ``k - m + 1`` this yields include 2, 8, 11, 16 and 31 — power-of-two
#: and not.
_MS = (1, 2, 3, 7, 8, 9, 15, 16, 17)
KM_MATRIX = sorted({(k, m) for k in (2, 3, 16, 17, 31, 32) for m in (*_MS, k - 1) if 1 <= m < k})


def random_codes(seed: int, n: int) -> np.ndarray:
    """Seeded random storage codes with single Ns, an N run and sentinels."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    codes[rng.integers(0, n, size=max(n // 60, 1))] = 4
    codes[n // 2 : n // 2 + 3] = 4
    codes[-1] = 4
    return codes


def scalar_minimizer(kmer: str, m: int, ordering: str, canonical: bool) -> tuple[int, int]:
    """:func:`minimizer_scalar`, extended to canonical m-mers by the definition."""
    if not canonical:
        return minimizer_scalar(kmer, m, ordering)
    order = get_ordering(ordering)
    best = None
    for i in range(len(kmer) - m + 1):
        value = canonical_value(string_to_kmer(kmer[i : i + m]), m)
        rank = int(order.rank_array(np.array([value], dtype=np.uint64), m)[0])
        if best is None or rank < best[0]:
            best = (rank, value, i)
    return best[1], best[2]


class TestMinimizerScalar:
    def test_lexicographic_example(self):
        # minimizers of GTCA with m=2: GT, TC, CA -> CA smallest.
        value, pos = minimizer_scalar("GTCA", 2, "lexicographic")
        assert value == string_to_kmer("CA")
        assert pos == 2

    def test_paper_fig4_style_example(self):
        """Fig. 4 uses lexicographic minimizers of length 4 within k=8."""
        kmer = "GGTCAGTC"
        value, pos = minimizer_scalar(kmer, 4, "lexicographic")
        # m-mers: GGTC GTCA TCAG CAGT AGTC -> AGTC smallest.
        assert value == string_to_kmer("AGTC")
        assert pos == 4

    def test_leftmost_tie(self):
        value, pos = minimizer_scalar("ACAC", 2, "lexicographic")
        assert value == string_to_kmer("AC")
        assert pos == 0

    def test_random_base_changes_winner(self):
        # lexicographic prefers A...; random-base prefers C... (C maps to 0).
        v_lex, _ = minimizer_scalar("AACC", 2, "lexicographic")
        v_rnd, _ = minimizer_scalar("AACC", 2, "random-base")
        assert v_lex == string_to_kmer("AA")
        assert v_rnd == string_to_kmer("CC")

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            minimizer_scalar("ACGT", 4)
        with pytest.raises(ValueError):
            minimizer_scalar("ACGT", 0)

    def test_rejects_n(self):
        with pytest.raises(ValueError):
            minimizer_scalar("ACNT", 2)


class TestVectorized:
    @given(
        st.text(alphabet="ACGTN", min_size=0, max_size=80),
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=120)
    def test_matches_scalar(self, read, k, m_raw, ordering):
        m = min(m_raw, k - 1)
        codes = string_to_codes(read)
        mins = minimizers_for_windows(codes, k, m, ordering)
        for i in range(mins.n_windows):
            window = read[i : i + k]
            if "N" in window:
                assert not mins.valid[i]
                continue
            assert mins.valid[i]
            value, pos = minimizer_scalar(window, m, ordering)
            assert int(mins.minimizer_values[i]) == value
            assert int(mins.minimizer_positions[i]) == i + pos

    @pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k,m", KM_MATRIX)
    def test_matrix_matches_scalar(self, k, m, ordering, canonical):
        """Every dtype boundary and span, against the textbook definition."""
        codes = random_codes(seed=1000 * k + m, n=150)
        read = codes_to_string(codes)
        mins = minimizers_for_windows(codes, k, m, ordering, canonical=canonical)
        assert mins.n_windows == codes.shape[0] - k + 1
        assert mins.minimizer_values.dtype == np.uint64
        assert mins.minimizer_positions.dtype == np.int64
        n_valid = 0
        for i in range(mins.n_windows):
            window = read[i : i + k]
            assert bool(mins.valid[i]) == ("N" not in window)
            if mins.valid[i]:
                value, pos = scalar_minimizer(window, m, ordering, canonical)
                assert (int(mins.minimizer_values[i]), int(mins.minimizer_positions[i])) == (value, i + pos)
                n_valid += 1
        assert n_valid > 0

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k,m", [(5, 2), (17, 7), (17, 10), (31, 1), (32, 31)])
    def test_ties_resolve_leftmost(self, k, m, ordering):
        """A homopolymer ties every m-mer; a period-2 read ties every other."""
        n = 70
        homopolymer = minimizers_for_windows(string_to_codes("A" * n), k, m, ordering)
        assert np.array_equal(homopolymer.minimizer_positions, np.arange(n - k + 1))
        read = "AC" * (n // 2)
        period2 = minimizers_for_windows(string_to_codes(read), k, m, ordering)
        for i in range(period2.n_windows):
            value, pos = minimizer_scalar(read[i : i + k], m, ordering)
            assert pos <= 1
            assert (int(period2.minimizer_values[i]), int(period2.minimizer_positions[i])) == (value, i + pos)

    def test_positions_absolute(self):
        codes = string_to_codes("TTTTACGT")
        mins = minimizers_for_windows(codes, 4, 2, "lexicographic")
        # window starting at 3 is TACG; minimizer AC at absolute position 4.
        assert int(mins.minimizer_positions[3]) == 4

    def test_empty_input(self):
        for codes in (string_to_codes("AC"), np.empty(0, dtype=np.uint8)):
            mins = minimizers_for_windows(codes, 5, 3)
            assert mins.n_windows == 0
            assert mins.minimizer_values.shape == mins.minimizer_positions.shape == mins.valid.shape == (0,)

    def test_exactly_k_and_all_n(self):
        one = minimizers_for_windows(string_to_codes("ACGTA"), 5, 3, "lexicographic")
        assert one.n_windows == 1 and one.valid.all()
        got = (int(one.minimizer_values[0]), int(one.minimizer_positions[0]))
        assert got == minimizer_scalar("ACGTA", 3, "lexicographic")
        all_n = minimizers_for_windows(string_to_codes("N" * 12), 5, 3)
        assert all_n.n_windows == 8 and not all_n.valid.any()

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            minimizers_for_windows(string_to_codes("ACGTACGT"), 4, 4)

    def test_bias_beyond_rank_dtype_rejected(self):
        """Ranks are held in 2m+1 bits; an ordering that needs more must not wrap."""

        class Demoting(type(get_ordering("lexicographic"))):
            def bias_array(self, mmer_values, m):
                return np.full(mmer_values.shape, 4 ** (m + 1), dtype=np.uint64)

        with pytest.raises(ValueError, match="2m\\+1 bits"):
            minimizers_for_windows(string_to_codes("ACGTACGTAC"), 8, 7, Demoting())

    def test_adjacent_windows_share_minimizer_occurrence(self):
        """Consecutive k-mers usually share the same minimizer — the property
        supermers exploit (Section II-B)."""
        rng = np.random.default_rng(0)
        read = "".join("ACGT"[c] for c in rng.integers(0, 4, size=2000))
        mins = minimizers_for_windows(string_to_codes(read), 17, 7, "random-base")
        same = (mins.minimizer_values[1:] == mins.minimizer_values[:-1]).mean()
        assert same > 0.7  # expected ~ (k-m)/(k-m+1) = 10/11
