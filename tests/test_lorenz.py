"""The Gini / Kolkata kernel and the Hirsch index."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeineq import (
    EmptyInput,
    ValidationError,
    ZeroTotal,
    hirsch,
    index_pair,
    index_pairs,
)
from citeineq.lorenz import CHUNK
from helpers import fraction_pair, gini_pairwise, lorenz_at

# nonempty, not all zero, bounded like real citation counts
count_vectors = st.lists(st.integers(0, 10**5), min_size=1, max_size=200).filter(any)


class TestRefusals:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            index_pair([])

    def test_all_zero_rejected(self):
        with pytest.raises(ZeroTotal):
            index_pair([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            index_pair([3, -1, 2])

    @pytest.mark.parametrize("counts", [["a"], [1, None]])
    def test_non_numeric_rejected(self, counts):
        with pytest.raises(ValidationError, match="^citation counts must be integers or floats$"):
            index_pair(counts)


class TestGini:
    def test_perfect_equality(self):
        assert index_pair([5, 5, 5, 5]).g == 0.0

    def test_single_spike(self):
        assert index_pair([0, 0, 0, 10]).g == 0.75

    def test_hand_case(self):
        assert index_pair([1, 2, 3, 4]).g == 0.25

    @given(count_vectors)
    def test_matches_pairwise_oracle(self, counts):
        assert index_pair(counts).g == gini_pairwise(counts)

    @given(count_vectors)
    def test_bounds(self, counts):
        assert 0.0 <= index_pair(counts).g <= 1.0


class TestKolkata:
    def test_perfect_equality(self):
        assert index_pair([5, 5, 5, 5]).k == 0.5

    def test_single_spike(self):
        assert index_pair([0, 0, 0, 10]).k == 0.8

    def test_hand_case(self):
        assert index_pair([1, 2, 3, 4]).k == 13 / 22

    @given(count_vectors)
    def test_fixed_point_residual(self, counts):
        k = index_pair(counts).k
        assert 0.5 <= k <= 1.0
        assert abs(1.0 - lorenz_at(counts, k) - k) <= 1e-12

    @given(st.integers(1, 150), st.integers(1, 10**5))
    def test_equality_maps_to_half(self, n, value):
        assert index_pair([value] * n) == (0.0, 0.5)

    @given(count_vectors)
    def test_unequal_maps_above_half(self, counts):
        g, k = index_pair(counts)
        if g > 1e-9:
            assert k > 0.5


class TestExactRounding:
    """Integer counts give the doubles nearest the exact (g, k)."""

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200).filter(any))
    def test_index_pair_is_exactly_rounded(self, counts):
        assert index_pair(counts) == fraction_pair(counts)

    def test_products_past_float_precision(self):
        # nT in [2^53, 2^63): int64 sums are exact, but a float division is not
        counts = np.random.default_rng(53).integers(10**9 // 2, 10**9, size=10_000, endpoint=True)
        assert 2**53 <= counts.size * int(counts.sum()) < 2**63
        assert index_pair(counts) == fraction_pair(counts)

    def test_products_past_int64(self):
        counts = np.random.default_rng(63).integers(95 * 10**7, 10**9, size=100_000, endpoint=True)
        assert counts.size * int(counts.sum()) >= 2**63
        assert index_pair(counts) == fraction_pair(counts)

    def test_counts_past_int64_sums(self):
        counts = [2**70, 3, 0, 2**65]
        assert index_pair(counts) == fraction_pair(counts)

    def test_many_chunks_and_both_paths_in_one_call(self):
        # small-count slices run in int64 over several chunks; the slices over
        # the 10^9 block need Python ints; results land in slice order
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.integers(0, 1000, size=6000), np.full(20_000, 10**9)])
        lo = np.concatenate([np.arange(0, 5000, 100), [6000, 9000]])
        hi = lo + np.where(lo < 6000, 1000, 11_000)
        assert (hi - lo).sum() > 3 * CHUNK
        g, k = index_pairs(x, lo, hi)
        expected = [fraction_pair(x[a:b]) for a, b in zip(lo, hi)]
        assert list(zip(g.tolist(), k.tolist())) == expected

    @pytest.mark.parametrize("size, width", [(7, 3), (4000, 1)])
    def test_huge_counts_in_small_slices(self, size, width):
        # slices of counts near 2^51 in one pass: a key of value + slice * base
        # would pass int64, so the slices are sorted together another way
        x = np.random.default_rng(size).integers(2**51, 2**52, size=size)
        lo = np.arange(size - width + 1)
        g, k = index_pairs(x, lo, lo + width)
        assert list(zip(g.tolist(), k.tolist())) == [fraction_pair(x[a : a + width]) for a in lo]

    @given(count_vectors, st.integers(0, 2**32 - 1))
    def test_slices_equal_single_calls(self, counts, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, len(counts), size=8)
        hi = np.minimum(lo + rng.integers(1, len(counts) + 1, size=8), len(counts))
        x = np.asarray(counts)
        keep = [x[a:b].any() for a, b in zip(lo, hi)]
        g, k = index_pairs(x, lo[keep], hi[keep])
        assert list(zip(g, k)) == [index_pair(x[a:b]) for a, b in zip(lo[keep], hi[keep])]

    def test_slice_errors(self):
        with pytest.raises(ZeroTotal):
            index_pairs([0, 0, 1], [0], [2])
        with pytest.raises(EmptyInput):
            index_pairs([1, 2], [1], [1])
        with pytest.raises(EmptyInput):
            index_pairs([1, 2], [0], [3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_refused(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            index_pair([bad, 1.0])

    def test_float_equality_stays_in_range(self):
        assert index_pair([0.1] * 7) == (0.0, 0.5)


class TestHirsch:
    def test_no_cited_papers(self):
        assert hirsch([0, 0, 0]) == 0

    def test_definition_scan(self):
        assert hirsch([10, 8, 5, 4, 3]) == 4
        assert hirsch([5, 4, 3, 2, 1]) == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            hirsch([])

    @given(st.lists(st.integers(0, 10**5), min_size=1, max_size=200))
    def test_bounds(self, counts):
        h = hirsch(counts)
        assert 0 <= h <= len(counts)
        assert h <= max(counts)


class TestInvariances:
    @given(count_vectors, st.integers(1, 500), st.integers(1, 500))
    def test_scale_invariance(self, counts, num, den):
        scale = num / den
        g0, k0 = index_pair(counts)
        g1, k1 = index_pair(np.asarray(counts, dtype=float) * scale)
        assert g1 == pytest.approx(g0, abs=1e-12)
        assert k1 == pytest.approx(k0, abs=1e-12)

    @given(count_vectors, st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, counts, seed):
        shuffled = np.random.default_rng(seed).permutation(counts)
        assert index_pair(shuffled) == index_pair(counts)
        assert hirsch(shuffled) == hirsch(counts)

    @given(count_vectors, st.integers(1, 10))
    def test_replication_invariance(self, counts, m):
        assert index_pair(list(counts) * m) == index_pair(counts)

    @given(
        st.lists(st.integers(0, 10**5), min_size=2, max_size=200).filter(any),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_pigou_dalton_transfer(self, counts, pick_lo, pick_hi):
        # move one citation from a lower-cited to a higher-cited paper
        x = sorted(counts)
        i = pick_lo % (len(x) - 1)
        j = len(x) - 1 - (pick_hi % (len(x) - 1 - i))
        if x[i] < 1 or x[i] >= x[j]:
            return
        g0, k0 = index_pair(x)
        x[i] -= 1
        x[j] += 1
        g1, k1 = index_pair(x)
        assert g1 > g0
        assert k1 >= k0  # k stays where the transfer leaves L(k)
