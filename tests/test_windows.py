"""Sliding-window series construction and yearly averages."""

import json
import math
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citeineq import (
    AllSkipped,
    EmptyProfile,
    NoWindows,
    Publication,
    ResearcherProfile,
    ValidationError,
    WindowConfig,
    WindowEntry,
    index_pair,
    window_series,
    yearly_average,
)
from citeineq.report import read_series_csv
from citeineq.windows import SKIP_NO_PUBS, SKIP_TOO_FEW, SKIP_ZERO_CITES
from helpers import citations_in, fraction_pair, make_profile, profile_of, reread_series, series_from_pairs

# year -> citation lists drawn like modest careers
profiles = st.dictionaries(
    st.integers(1990, 2018),
    st.lists(st.integers(0, 1000), min_size=1, max_size=6),
    min_size=1,
    max_size=20,
).map(make_profile)

# few papers with few citations, so that every skip reason is common
sparse_profiles = st.dictionaries(
    st.integers(1990, 2018),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
    min_size=1,
    max_size=8,
).map(make_profile)


class TestWindowSeries:
    def test_window_arithmetic_2000_2010(self):
        profile = make_profile({y: [3, 8, 1] for y in range(2000, 2011)})
        series = window_series(profile, WindowConfig())
        years = [e.central_year for e in series.entries]
        assert years == list(range(2002, 2021))
        # publications stop in 2010; windows starting 2011+ hold nothing
        assert [e.central_year for e in series.entries if e.skipped] == list(range(2013, 2021))
        for e in series.entries:
            if e.skipped:
                assert e.g is None and e.k is None
                assert e.reason == "no_publications"

    def test_single_equal_window(self):
        profile = make_profile({y: [7] for y in range(2000, 2005)})
        series = window_series(profile, WindowConfig(end_year=2004))
        assert len(series.entries) == 1
        entry = series.entries[0]
        assert (entry.central_year, entry.g, entry.k) == (2002, 0.0, 0.5)
        assert (entry.n_pubs, entry.n_cites) == (5, 35)

    def test_window_matches_direct_evaluation(self):
        profile = make_profile({2000: [0, 0], 2001: [0, 10]})
        series = window_series(profile, WindowConfig(width_years=4, end_year=2003))
        entry = series.entries[0]
        assert (entry.g, entry.k) == (0.75, 0.8)

    def test_too_few_pubs_skipped(self):
        profile = make_profile({2000: [5], 2010: [5, 6]})
        series = window_series(profile, WindowConfig(end_year=2014))
        first = series.entries[0]
        assert first.skipped and first.reason == "too_few_publications"
        assert first.n_pubs == 1

    def test_zero_citation_window_skipped(self):
        profile = make_profile({2000: [0, 0, 0], 2010: [1, 2]})
        series = window_series(profile, WindowConfig(end_year=2014))
        first = series.entries[0]
        assert first.skipped and first.reason == "zero_citations"
        assert first.n_pubs == 3 and first.n_cites == 0

    def test_skip_state_is_the_reason(self):
        assert "skipped" not in {f.name for f in fields(WindowEntry)}
        assert WindowEntry(2000, None, None, 0, 0, SKIP_NO_PUBS).skipped
        assert not WindowEntry(2000, 0.5, 0.6, 3, 9).skipped

    @pytest.mark.parametrize(
        "g, k, reason, message",
        [
            (0.5, 0.6, "zero_citations", "skipped row has g or k"),
            (None, 0.6, "zero_citations", "skipped row has g or k"),
            (0.5, None, None, "non-skipped row missing g or k"),
            (float("nan"), 0.6, None, "must lie in"),
            (0.5, 1.5, None, "must lie in"),
            (-0.25, 0.6, None, "must lie in"),
            (None, None, "banana", "^skip reason must be one of no_publications, too_few_publications, "
                                   "zero_citations, got 'banana'$"),
            (None, None, "too_few", "skip reason must be one of"),
            (None, None, "", "skip reason must be one of"),
        ],
    )
    def test_entry_rules_checked_on_construction(self, g, k, reason, message):
        with pytest.raises(ValidationError, match=message):
            WindowEntry(2000, g, k, 3, 9, reason)

    @pytest.mark.parametrize("reason", [None, SKIP_NO_PUBS])
    @pytest.mark.parametrize("n_pubs, n_cites", [(-3, -9), (-1, 0), (0, -1)])
    def test_negative_counts_refused_on_construction(self, n_pubs, n_cites, reason):
        g = k = None if reason else 0.5
        with pytest.raises(ValidationError, match=f"^n_pubs and n_cites must not be negative, got {n_pubs}, {n_cites}$"):
            WindowEntry(2000, g, k, n_pubs, n_cites, reason)

    @pytest.mark.parametrize(
        "n_pubs, n_cites, reason, rule",
        [
            (0, 0, None, "non-skipped row needs n_pubs > 0 and n_cites > 0"),
            (5, 0, None, "non-skipped row needs n_pubs > 0 and n_cites > 0"),
            (0, 3, None, "non-skipped row needs n_pubs > 0 and n_cites > 0"),
            (5, 50, SKIP_NO_PUBS, "no_publications row needs n_pubs = 0 and n_cites = 0"),
            (0, 7, SKIP_NO_PUBS, "no_publications row needs n_pubs = 0 and n_cites = 0"),
            (0, 0, SKIP_ZERO_CITES, "zero_citations row needs n_pubs > 0 and n_cites = 0"),
            (4, 7, SKIP_ZERO_CITES, "zero_citations row needs n_pubs > 0 and n_cites = 0"),
            (0, 0, SKIP_TOO_FEW, "too_few_publications row needs n_pubs > 0"),
            (0, 3, SKIP_TOO_FEW, "too_few_publications row needs n_pubs > 0"),
        ],
    )
    def test_counts_must_fit_the_reason_on_construction(self, n_pubs, n_cites, reason, rule):
        g = k = None if reason else 0.5
        with pytest.raises(ValidationError, match=rf"^{rule}, got {n_pubs}, {n_cites}$"):
            WindowEntry(2000, g, k, n_pubs, n_cites, reason)

    @given(profiles | sparse_profiles, st.integers(1, 5), st.integers(1, 8))
    def test_series_rows_keep_the_count_rules(self, tmp_path_factory, profile, min_pubs, width):
        # the rules the series reader checks, stated apart from WindowEntry
        config = WindowConfig(width_years=width, end_year=2026, min_pubs=min_pubs)
        series = window_series(profile, config)
        for e in series.entries:
            assert (e.reason == SKIP_NO_PUBS) == (e.n_pubs == 0)
            if e.reason == SKIP_NO_PUBS:
                assert e.n_cites == 0
            elif e.reason == SKIP_ZERO_CITES:
                assert e.n_pubs >= 1 and e.n_cites == 0
            elif e.reason is None:
                assert e.n_pubs >= 1 and e.n_cites >= 1
        assert reread_series(series, tmp_path_factory.mktemp("series")) == series

    def test_no_windows(self):
        profile = make_profile({2021: [4, 5]})
        with pytest.raises(NoWindows):
            window_series(profile, WindowConfig(width_years=5, end_year=2022))

    def test_empty_profile_rejected_on_construction(self):
        with pytest.raises(EmptyProfile):
            ResearcherProfile(name="nobody", tags=[], pub_ids=[], years=[], citations=[])

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            WindowConfig(width_years=0)

    @pytest.mark.parametrize(
        "field, value",
        [("width_years", 4.0), ("stride_years", True), ("end_year", 2022.0), ("min_pubs", np.int64(2))],
    )
    def test_integer_fields_must_be_ints(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an int, got "):
            WindowConfig(**{field: value})

    @given(profiles, st.integers(1, 8), st.integers(1, 4))
    def test_window_count_formula(self, profile, width, stride):
        config = WindowConfig(width_years=width, stride_years=stride, end_year=2022)
        if int(profile.years[0]) + width - 1 > 2022:
            with pytest.raises(NoWindows):
                window_series(profile, config)
            return
        series = window_series(profile, config)
        expected = (2022 - int(profile.years[0]) - width + 1) // stride + 1
        assert len(series.entries) == expected
        years = [e.central_year for e in series.entries]
        assert years == list(range(years[0], years[0] + stride * len(years), stride))

    @given(profiles, st.integers(1, 8))
    def test_membership_counts(self, profile, width):
        # stride 1: a publication appears in `width` windows except near the
        # series boundaries, where the run of windows is clipped
        config = WindowConfig(width_years=width, stride_years=1, end_year=2022)
        first = int(profile.years[0])
        if first + width - 1 > 2022:
            with pytest.raises(NoWindows):
                window_series(profile, config)
            return
        series = window_series(profile, config)
        last_start = 2022 - width + 1
        member_counts = {}
        for e in series.entries:
            start = e.central_year - width // 2
            for pub in profile.publications:
                if start <= pub.year <= start + width - 1:
                    member_counts[pub.pub_id] = member_counts.get(pub.pub_id, 0) + 1
        for pub in profile.publications:
            expected = min(pub.year, last_start) - max(first, pub.year - width + 1) + 1
            assert member_counts.get(pub.pub_id, 0) == max(expected, 0)

    @given(profiles, st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, profile, seed):
        rows = profile.publications
        order = np.random.default_rng(seed).permutation(len(rows))
        shuffled = profile_of([rows[i] for i in order], name=profile.name, tags=profile.tags)
        assert window_series(shuffled, WindowConfig()) == window_series(profile, WindowConfig())

    @given(profiles)
    def test_publication_after_end_year_ignored(self, profile):
        config = WindowConfig(end_year=2022)
        base = window_series(profile, config)
        extended = profile_of(
            profile.publications + [Publication("late-entry", 2023, 999)],
            name=profile.name,
            tags=profile.tags,
        )
        assert window_series(extended, config) == base

    @given(profiles, st.integers(1, 8), st.integers(1, 4))
    def test_entries_match_direct_index_pair(self, profile, width, stride):
        # end year 2026 admits a window for every drawn first year (<= 2018) and width
        config = WindowConfig(width_years=width, stride_years=stride, end_year=2026)
        for e in window_series(profile, config).entries:
            start = e.central_year - width // 2
            window = citations_in(profile, start, start + width - 1)
            assert e.n_pubs == len(window) and e.n_cites == sum(window)
            if not e.skipped:
                assert (e.g, e.k) == index_pair(window)


    @given(
        st.dictionaries(
            st.integers(1990, 2018),
            st.lists(st.integers(0, 10**9), min_size=1, max_size=6),
            min_size=1,
            max_size=20,
        ).map(make_profile),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    def test_valid_entries_are_exactly_rounded(self, profile, width, stride):
        config = WindowConfig(width_years=width, stride_years=stride, end_year=2026)
        for e in window_series(profile, config).valid_entries():
            start = e.central_year - width // 2
            assert (e.g, e.k) == fraction_pair(citations_in(profile, start, start + width - 1))

    def test_windows_past_float_precision_are_exactly_rounded(self):
        # 10,000 papers near the citation cap over 10 years: each window's nT
        # lies in [2^53, 2^63), and the windows span several chunks
        rng = np.random.default_rng(53)
        by_year = {2000 + i: rng.integers(5 * 10**8, 10**9, size=1000).tolist() for i in range(10)}
        profile = make_profile(by_year)
        series = window_series(profile, WindowConfig(end_year=2009))
        assert len(series.valid_entries()) == 6
        for e in series.valid_entries():
            window = citations_in(profile, e.central_year - 2, e.central_year + 2)
            assert 2**53 <= len(window) * sum(window) < 2**63
            assert (e.g, e.k) == fraction_pair(window)


GOLDEN_PROFILES = Path(__file__).resolve().parent / "golden" / "profiles"
unit_floats = st.floats(0.0, 1.0)


def exact_mean_variance(xs) -> tuple[Fraction, Fraction]:
    """The mean and population variance of ``xs`` as Fractions."""
    values = [Fraction(x) for x in xs]
    mean = sum(values) / len(values)
    return mean, sum((v - mean) ** 2 for v in values) / len(values)


def is_nearest_root(sd: float, variance: Fraction) -> bool:
    """Whether ``sd`` is a double nearest sqrt(variance): the variance lies
    between the squares of the midpoints from ``sd`` to its two neighbours."""
    below = max(Fraction(0), (Fraction(math.nextafter(sd, -1)) + Fraction(sd)) / 2)
    above = (Fraction(sd) + Fraction(math.nextafter(sd, 2))) / 2
    return below**2 <= variance <= above**2


def assert_exactly_rounded(mean_g, sd_g, mean_k, sd_k, pairs):
    for mean, sd, xs in ((mean_g, sd_g, [g for g, _ in pairs]), (mean_k, sd_k, [k for _, k in pairs])):
        exact_mean, variance = exact_mean_variance(xs)
        assert mean == float(exact_mean)
        assert is_nearest_root(sd, variance), (sd, variance)


class TestYearlyAverage:
    def test_constant_series(self):
        series = series_from_pairs([(0.7, 0.78)] * 5)
        avg = yearly_average(series)
        assert (avg.mean_g, avg.sd_g, avg.mean_k, avg.sd_k) == (0.7, 0.0, 0.78, 0.0)
        assert avg.n_windows == 5

    def test_two_point_population_sd(self):
        series = series_from_pairs([(0.6, 0.7), (0.8, 0.9)])
        avg = yearly_average(series)
        assert avg.mean_g == float((Fraction(0.6) + Fraction(0.8)) / 2)
        # the exact sd (0.8 - 0.6) / 2 is a double
        assert avg.sd_g == float((Fraction(0.8) - Fraction(0.6)) / 2) == (0.8 - 0.6) / 2

    @given(st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=40))
    @example([(0.15, 0.85), (0.7, 0.04)])  # numpy misses g's mean or sd; math.sqrt of the rounded variance, k's sd
    @example([(0.94, 0.5), (0.64, 0.5), (0.58, 0.5)])  # math.fsum(xs) / n misses g's mean
    @example([(0.0, 1.0), (5e-324, 0.0)])  # g's mean and sd are ties, rounded to even
    def test_mean_and_sd_are_exactly_rounded(self, pairs):
        avg = yearly_average(series_from_pairs(pairs))
        assert_exactly_rounded(avg.mean_g, avg.sd_g, avg.mean_k, avg.sd_k, pairs)

    @pytest.mark.parametrize("path", sorted(GOLDEN_PROFILES.glob("*_summary.json")), ids=attrgetter("stem"))
    def test_golden_summaries_hold_the_exact_values(self, path):
        summary = json.loads(path.read_text(encoding="utf-8"))
        pairs = read_series_csv(path.with_name(path.name.replace("_summary.json", "_series.csv"))).pairs()
        assert summary["n_windows"] == len(pairs)
        assert_exactly_rounded(*(summary[f"{i}_yearly_{s}"] for i in "gk" for s in ("mean", "sd")), pairs)

    def test_all_skipped(self):
        profile = make_profile({2000: [5], 2001: [5]})
        series = window_series(profile, WindowConfig(min_pubs=5, end_year=2006))
        assert series.valid_entries() == []
        with pytest.raises(AllSkipped):
            yearly_average(series)
