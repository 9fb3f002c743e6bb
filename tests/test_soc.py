"""Crossing classification, career summaries, and the peak-ratio indicator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeineq import (
    AllSkipped,
    EMPIRICAL_SLOPE,
    IndexSeries,
    SocConfig,
    WindowConfig,
    WindowEntry,
    ZeroCitations,
    career_summary,
    cites_per_paper,
    classify_crossing,
    hirsch_sqrt_ratio,
    peak_ratio,
    window_series,
)
from citeineq.profiles import MAX_CITATIONS
from citeineq.windows import SKIP_TOO_FEW
from helpers import CROSSING_WINDOW, fraction_pair, make_profile, series_from_pairs

CLASS_RANK = {"No": 0, "Marginally": 1, "Yes": 2}

pair_lists = st.lists(
    st.tuples(st.floats(0.3, 1.0), st.floats(0.5, 1.0)), min_size=1, max_size=30
)


class TestClassifyCrossing:
    def test_yes_with_years_and_levels(self):
        series = series_from_pairs([(0.7, 0.8), (0.85, 0.83), (0.8, 0.82)], start_year=2001)
        result = classify_crossing(series)
        assert result.classification == "Yes"
        assert result.crossing_years == (2002,)
        assert result.crossing_levels == (pytest.approx((0.85 + 0.83) / 2),)

    def test_marginal_within_tolerance(self):
        series = series_from_pairs([(0.7, 0.8), (0.796, 0.8)])
        result = classify_crossing(series)
        assert result.classification == "Marginally"
        assert result.crossing_years == ()
        assert result.min_gap == pytest.approx(0.004)

    def test_no(self):
        series = series_from_pairs([(0.60, 0.72)] * 4)
        result = classify_crossing(series)
        assert result.classification == "No"
        assert result.min_gap == pytest.approx(0.12)

    def test_all_skipped(self):
        series = IndexSeries(entries=[WindowEntry(2000, None, None, 1, 3, SKIP_TOO_FEW)])
        with pytest.raises(AllSkipped):
            classify_crossing(series)

    def test_tolerance_configurable(self):
        series = series_from_pairs([(0.77, 0.8)])
        assert classify_crossing(series, SocConfig(marginal_tolerance=0.05)).classification == "Marginally"
        assert classify_crossing(series, SocConfig(marginal_tolerance=0.01)).classification == "No"

    @given(pair_lists)
    def test_years_nonempty_iff_yes(self, pairs):
        result = classify_crossing(series_from_pairs(pairs))
        assert (result.classification == "Yes") == bool(result.crossing_years)
        assert len(result.crossing_years) == len(result.crossing_levels)

    @given(pair_lists, st.integers(0, 29), st.floats(0.0, 0.5))
    def test_monotone_in_g(self, pairs, which, bump):
        i = which % len(pairs)
        before = classify_crossing(series_from_pairs(pairs))
        g, k = pairs[i]
        pairs[i] = (min(g + bump, 1.0), k)
        after = classify_crossing(series_from_pairs(pairs))
        assert CLASS_RANK[after.classification] >= CLASS_RANK[before.classification]

    @given(pair_lists)
    def test_skipped_entries_ignored(self, pairs):
        series = series_from_pairs(pairs)
        padded = IndexSeries(
            entries=series.entries
            + [WindowEntry(2400, None, None, 0, 0, "no_publications")]
        )
        assert classify_crossing(padded) == classify_crossing(series)

    def test_on_empirical_line_crossing_sits_in_band(self):
        gs = [0.5 + 0.01 * i for i in range(41)]  # 0.50 .. 0.90
        series = series_from_pairs([(g, 0.5 + EMPIRICAL_SLOPE * g) for g in gs])
        result = classify_crossing(series)
        assert result.classification == "Yes"
        first_crossing_g = gs[result.crossing_years[0] - 2000]
        assert 0.80 <= first_crossing_g <= 0.84


class TestCareerSummary:
    def _profile_series(self, citations_by_year, **window_kwargs):
        profile = make_profile(citations_by_year)
        config = WindowConfig(**window_kwargs)
        return profile, window_series(profile, config)

    def test_equal_citations(self):
        profile, series = self._profile_series({y: [9, 9] for y in range(2000, 2005)}, end_year=2004)
        summary = career_summary(profile, series)
        assert summary.cites_per_paper == 9.0
        assert summary.max_citations == 9
        assert summary.peak_ratio == 1.0
        assert not summary.soc_flagged
        assert summary.crossing.classification == "No"

    def test_crossing_career(self):
        by_year = {2000 + i: CROSSING_WINDOW[10 * i : 10 * (i + 1)] for i in range(5)}
        profile, series = self._profile_series(by_year, end_year=2004)
        summary = career_summary(profile, series)
        assert summary.crossing.classification == "Yes"
        assert summary.soc_flagged
        assert summary.peak_ratio >= 40
        assert summary.n_pubs == 50 and summary.n_cites == sum(CROSSING_WINDOW)

    def test_summary_arithmetic_consistency(self):
        profile, series = self._profile_series(
            {2000: [1, 2], 2001: [3, 4], 2002: [50]}, end_year=2006
        )
        summary = career_summary(profile, series)
        assert summary.n_pubs == 5
        assert summary.n_cites == 60
        assert summary.cites_per_paper == pytest.approx(12.0)
        # peak ratio equals max * n_pubs / n_cites
        assert summary.peak_ratio == pytest.approx(
            summary.max_citations * summary.n_pubs / summary.n_cites, rel=1e-12
        )

    def test_scale_covariance_of_peak_ratio(self):
        base = {2000: [1, 2], 2001: [3, 4], 2002: [50]}
        profile, series = self._profile_series(base, end_year=2006)
        scaled = {y: [7 * c for c in cs] for y, cs in base.items()}
        profile7, series7 = self._profile_series(scaled, end_year=2006)
        s1 = career_summary(profile, series)
        s7 = career_summary(profile7, series7)
        assert s7.peak_ratio == pytest.approx(s1.peak_ratio, rel=1e-12)

    def test_overall_and_window_pairs_past_int64_are_exactly_rounded(self):
        # 100,000 papers near the citation cap: nT passes 2^63 for the career
        # and for the window that holds every paper
        counts = np.random.default_rng(7).integers(95 * 10**7, 10**9, size=100_000, endpoint=True)
        by_year = {2000 + i: counts[i::5].tolist() for i in range(5)}
        profile, series = self._profile_series(by_year, end_year=2006)
        assert counts.size * int(counts.sum()) >= 2**63
        summary = career_summary(profile, series)
        assert (summary.g_overall, summary.k_overall) == fraction_pair(counts)
        assert (series.entries[0].g, series.entries[0].k) == fraction_pair(counts)
        for e in series.valid_entries():
            start = e.central_year - 2
            window = profile.citations[(profile.years >= start) & (profile.years <= start + 4)]
            assert (e.g, e.k) == fraction_pair(window)


class TestPeakRatioArithmetic:
    def test_reference_row_flagged(self):
        # H Amano's published totals
        d = cites_per_paper(2161, 57281)
        assert d == pytest.approx(26.51, abs=0.01)
        r = peak_ratio(3154, 2161, 57281)
        assert r == pytest.approx(119.0, abs=0.05)
        assert r >= 40

    def test_reference_row_unflagged(self):
        # I Fofana's published totals
        d = cites_per_paper(353, 5759)
        assert d == pytest.approx(16.31, abs=0.01)
        r = peak_ratio(333, 353, 5759)
        assert r == pytest.approx(20.4, abs=0.05)
        assert r < 40

    def test_zero_citations(self):
        with pytest.raises(ZeroCitations):
            cites_per_paper(10, 0)
        with pytest.raises(ZeroCitations):
            peak_ratio(0, 10, 0)

    @given(st.integers(0, MAX_CITATIONS), st.integers(1, 10**7), st.integers(1, 10**16))
    def test_peak_ratio_is_rounded_once(self, max_citations, n_pubs, n_cites):
        expected = float(Fraction(max_citations * n_pubs, n_cites))
        assert peak_ratio(max_citations, n_pubs, n_cites) == expected


class TestHirschSqrtDiagnostic:
    def test_reference_values(self):
        assert hirsch_sqrt_ratio(106, 57281) == pytest.approx(0.443, abs=5e-4)
        assert hirsch_sqrt_ratio(50, 10000) == 0.5
        assert hirsch_sqrt_ratio(22, 11685) == pytest.approx(0.204, abs=5e-4)

    def test_zero_citations(self):
        with pytest.raises(ZeroCitations):
            hirsch_sqrt_ratio(5, 0)

    def test_from_summary(self):
        profile = make_profile({y: [4, 4] for y in range(2000, 2005)})
        series = window_series(profile, WindowConfig(end_year=2004))
        summary = career_summary(profile, series)
        expected = summary.h_index / (summary.n_cites ** 0.5)
        assert hirsch_sqrt_ratio(summary.h_index, summary.n_cites) == pytest.approx(expected, rel=1e-12)
