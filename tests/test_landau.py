"""Quadratic Lorenz model, its linear limit, and the k-vs-g fit."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeineq import (
    ANALYTIC_SLOPE,
    EMPIRICAL_SLOPE,
    DegenerateFit,
    OutOfRange,
    fit_k_vs_g,
    landau_k_approx,
    landau_k_exact,
)
from citeineq.report import read_series_csv

GOLDEN = Path(__file__).resolve().parent / "golden" / "profiles"

gini_values = st.floats(0.0, 1.0, allow_nan=False)


def quadratic_root_oracle(g: float) -> float:
    """Root in [0.5, 1] of 3g k^2 + (2 - 3g) k - 1, via numpy's solver."""
    if g == 0.0:
        return 0.5
    roots = np.roots([3.0 * g, 2.0 - 3.0 * g, -1.0])
    real = roots[np.isreal(roots)].real
    inside = real[(real >= 0.5 - 1e-9) & (real <= 1.0 + 1e-9)]
    assert inside.size == 1
    return float(inside[0])


class TestExactRoot:
    def test_equality_limit(self):
        assert landau_k_exact(0.0) == 0.5

    def test_large_g(self):
        assert landau_k_exact(0.8) == pytest.approx(0.734187, abs=1e-6)

    def test_small_g(self):
        assert landau_k_exact(1e-3) == pytest.approx(0.500375, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            landau_k_exact(-0.1)
        with pytest.raises(OutOfRange):
            landau_k_exact(1.1)

    # below ~1e-9 the quadratic is too degenerate for the companion-matrix
    # oracle itself; the residual property below still covers that range
    @given(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))
    def test_matches_polynomial_solver(self, g):
        assert landau_k_exact(g) == pytest.approx(quadratic_root_oracle(g), abs=1e-9)

    @given(gini_values)
    def test_root_residual(self, g):
        k = landau_k_exact(g)
        assert 0.5 <= k <= 1.0
        assert abs(3 * g * k * k + (2 - 3 * g) * k - 1) <= 1e-10

    def test_strictly_increasing(self):
        grid = np.linspace(0, 1, 1001)
        values = np.array([landau_k_exact(g) for g in grid])
        assert np.all(np.diff(values) > 0)

    def test_matches_the_numpy_form_bit_for_bit(self):
        # math.sqrt and np.sqrt are both correctly rounded
        for g in np.linspace(0, 1, 1001).tolist():
            b = 2.0 - 3.0 * g
            assert landau_k_exact(g) == float(2.0 / (np.sqrt(b * b + 12.0 * g) + b)), g


class TestApprox:
    def test_values(self):
        assert landau_k_approx(0.0) == 0.5
        assert landau_k_approx(0.8) == 0.8  # exact: the 80/20 point
        assert landau_k_approx(0.4) == pytest.approx(0.65)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            landau_k_approx(2.0)

    def test_agrees_with_exact_at_small_g(self):
        assert abs(landau_k_exact(1e-3) - landau_k_approx(1e-3)) <= 1e-6

    def test_difference_shrinks_toward_zero(self):
        grid = np.logspace(-3, 0, 25)
        diffs = [abs(landau_k_exact(g) - landau_k_approx(g)) for g in grid]
        assert all(lo < hi for lo, hi in zip(diffs, diffs[1:]))


class TestFit:
    def test_recovers_empirical_slope(self):
        pts = [(g, 0.5 + EMPIRICAL_SLOPE * g) for g in np.linspace(0.1, 0.9, 17)]
        fit = fit_k_vs_g(pts)
        assert fit.c == pytest.approx(EMPIRICAL_SLOPE, abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.g_star == pytest.approx(0.5 / 0.61, abs=1e-9)
        assert fit.n_points == 17

    def test_recovers_analytic_slope(self):
        pts = [(g, 0.5 + ANALYTIC_SLOPE * g) for g in (0.05, 0.1, 0.2)]
        fit = fit_k_vs_g(pts)
        assert fit.c == pytest.approx(ANALYTIC_SLOPE, abs=1e-12)
        assert fit.g_star == pytest.approx(0.8, abs=1e-12)

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_k_vs_g([(0.5, 0.7)])

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_points_message_gives_count(self, n):
        with pytest.raises(DegenerateFit, match=f"^need at least 2 \\(g, k\\) points, got {n}$"):
            fit_k_vs_g([(0.5, 0.7)] * n)

    @pytest.mark.parametrize(
        "pts, shape",
        [
            ([(0.1, 0.5, 1.0), (0.2, 0.6, 1.0)], (2, 3)),
            ([(), ()], (2, 0)),
            ([0.1, 0.5], (2,)),
            ([[(0.1, 0.5)], [(0.2, 0.6)]], (2, 1, 2)),
        ],
    )
    def test_points_that_are_not_pairs_name_their_shape(self, pts, shape):
        with pytest.raises(DegenerateFit) as info:
            fit_k_vs_g(pts)
        assert str(info.value) == f"points must be (g, k) pairs, got an array of shape {shape}"

    @pytest.mark.parametrize("pts", [[(0.1, 0.5), (0.2,)], [(0.1, 0.5), ("a", 0.6)]])
    def test_points_that_are_not_pairs_of_numbers(self, pts):
        with pytest.raises(DegenerateFit, match=r"^points must be \(g, k\) pairs of numbers: "):
            fit_k_vs_g(pts)

    @pytest.mark.parametrize("bad", [(0.2, float("nan")), (float("inf"), 0.6), (float("-inf"), 0.6), (None, 0.6)])
    def test_non_finite_point_is_out_of_range(self, bad):
        with pytest.raises(OutOfRange, match=r"^g and k must be finite, got point 1: "):
            fit_k_vs_g([(0.1, 0.55), bad, (0.3, 0.6)])

    @pytest.mark.parametrize(
        "pts",
        [
            [(1e300, 1e10), (1e300, -1e10)],  # products of +inf and -inf
            [(0.5, 1e308)] * 2,  # c overflows
            [(1.3e154, 0.6)] * 2,  # the sum of g^2 overflows
            [(1e200, 0.6)] * 2,  # g^2 overflows, and c would read 0
            [(1.0, 1e200), (1.0, -1e200)],  # the squared residuals overflow
        ],
    )
    def test_overflow_is_out_of_range(self, pts):
        with pytest.raises(OutOfRange, match=r"^the fit of 2 \(g, k\) points overflows a float$"):
            fit_k_vs_g(pts)

    def test_int_past_the_float_range_is_out_of_range(self):
        with pytest.raises(OutOfRange, match=r"^g and k must be finite: int too large to convert to float$"):
            fit_k_vs_g([(0.1, 0.55), (10**400, 0.6)])

    @pytest.mark.parametrize("pts", [[(1, 1), (0, 0.5)], [[0.25, 0.625], (True, 0.875)], [(np.float64(0.5), 0.7)] * 2])
    def test_ints_lists_and_numpy_floats_read_as_floats(self, pts):
        as_floats = [(float(g), float(k)) for g, k in pts]
        assert fit_k_vs_g(pts) == fit_k_vs_g(as_floats)

    def test_all_zero_g_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_k_vs_g([(0.0, 0.5), (0.0, 0.6)])

    def test_g_star_undefined_at_steep_slope(self):
        fit = fit_k_vs_g([(0.1, 0.5 + 1.2 * 0.1), (0.5, 0.5 + 1.2 * 0.5)])
        assert fit.g_star is None

    @given(
        st.floats(-0.5, 0.99),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40, unique=True),
    )
    def test_planted_slope_recovery(self, slope, gs):
        pts = [(g, 0.5 + slope * g) for g in gs]
        fit = fit_k_vs_g(pts)
        assert fit.c == pytest.approx(slope, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(0.5, 1.0)),
            min_size=2,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_permutation_invariant_and_closed_form(self, pts, seed):
        fit = fit_k_vs_g(pts)
        order = np.random.default_rng(seed).permutation(len(pts))
        assert fit_k_vs_g([pts[i] for i in order]) == fit  # bit for bit: each sum is exactly rounded
        g = np.array([p[0] for p in pts])
        k = np.array([p[1] for p in pts])
        closed_form = float(np.sum(g * (k - 0.5)) / np.sum(g * g))
        assert fit.c == pytest.approx(closed_form, abs=1e-12)

    @pytest.mark.parametrize("name", ["powerlaw-02", "powerlaw-05", "powerlaw-08", "uniform-04", "uniform-07"])
    def test_golden_series_fit_does_not_depend_on_point_order(self, name):
        pts = read_series_csv(GOLDEN / f"{name}_series.csv").pairs()
        fit = fit_k_vs_g(pts)
        for seed in range(20):
            shuffled = list(pts)
            random.Random(seed).shuffle(shuffled)
            assert fit_k_vs_g(shuffled) == fit, seed
