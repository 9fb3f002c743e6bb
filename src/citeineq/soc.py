"""Crossing classification against the g = k precursor mark and career summaries.

A career series "crosses" when the Gini value of any window reaches its
Kolkata value; on the empirical line k = 1/2 + 0.39 g this can only happen
near g = k ~ 0.82, so g >= k alone is the crossing criterion and the level
(g + k)/2 is reported per crossing for proximity checks.  A cheap proxy is
the ratio of the most-cited paper's citations to the career's citations
per paper: careers with ratio >= 40 almost always cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AllSkipped, ValidationError, ZeroCitations
from .lorenz import hirsch, index_pair
from .profiles import ResearcherProfile
from .windows import IndexSeries, YearlyAverage, yearly_average

#: Windowed-statistics precursor level for the g = k crossing.
SOC_MARK = 0.82

CROSS_YES = "Yes"
CROSS_MARGINAL = "Marginally"
CROSS_NO = "No"


@dataclass(frozen=True)
class SocConfig:
    marginal_tolerance: float = 0.01
    r_threshold: float = 40.0

    def __post_init__(self):
        for name in ("marginal_tolerance", "r_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CrossingResult:
    """Outcome of the crossing rule over a window series.

    ``crossing_years`` lists the central years with g >= k (empty unless
    the classification is Yes) and ``crossing_levels`` the (g + k)/2 value
    at each of them.  ``min_gap`` is min(k - g) over valid windows; it is
    negative or zero exactly when the classification is Yes.
    """

    classification: str
    crossing_years: tuple[int, ...]
    crossing_levels: tuple[float, ...]
    min_gap: float


@dataclass(frozen=True)
class CareerSummary:
    """Whole-career statistics plus the windowed crossing outcome."""

    name: str
    n_pubs: int
    n_cites: int
    h_index: int
    g_overall: float
    k_overall: float
    yearly: YearlyAverage
    max_citations: int
    cites_per_paper: float
    peak_ratio: float
    crossing: CrossingResult
    soc_flagged: bool
    tags: tuple[str, ...]


def classify_crossing(series: IndexSeries, config: SocConfig = SocConfig()) -> CrossingResult:
    """Classify a series as Yes / Marginally / No against the crossing rule.

    Yes when any non-skipped window has g >= k; Marginally when none does
    but min(k - g) <= the marginal tolerance; No otherwise.

    Raises
    ------
    AllSkipped
        If the series has no non-skipped entry.
    """
    valid = series.valid_entries()
    if not valid:
        raise AllSkipped("every window in the series was skipped")
    crossings = [(e.central_year, (e.g + e.k) / 2.0) for e in valid if e.g >= e.k]
    min_gap = min(e.k - e.g for e in valid)
    if crossings:
        classification = CROSS_YES
    elif min_gap <= config.marginal_tolerance:
        classification = CROSS_MARGINAL
    else:
        classification = CROSS_NO
    return CrossingResult(
        classification=classification,
        crossing_years=tuple(y for y, _ in crossings),
        crossing_levels=tuple(lvl for _, lvl in crossings),
        min_gap=float(min_gap),
    )


def cites_per_paper(n_pubs: int, n_cites: int) -> float:
    """Average citations per paper (the career's effective Dunbar number)."""
    if n_cites <= 0:
        raise ZeroCitations("career has no citations")
    return n_cites / n_pubs


def peak_ratio(max_citations: int, n_pubs: int, n_cites: int) -> float:
    """Most-cited paper's citations over the citations-per-paper average,
    rounded once: CPython rounds an int divided by an int correctly."""
    if n_cites <= 0:
        raise ZeroCitations("career has no citations")
    return max_citations * n_pubs / n_cites


def career_summary(
    profile: ResearcherProfile,
    series: IndexSeries,
    config: SocConfig = SocConfig(),
) -> CareerSummary:
    """Assemble the full career summary for one researcher.

    Overall g and k pool every publication regardless of year; the yearly
    averages and the crossing classification come from the window series.
    Component errors (all-zero citations, all-skipped series) propagate.
    """
    counts = profile.citations
    n_pubs = len(counts)
    n_cites = int(counts.sum())
    overall = index_pair(counts)  # raises ZeroTotal before cites_per_paper's ZeroCitations
    max_citations = int(counts.max())
    r = peak_ratio(max_citations, n_pubs, n_cites)
    return CareerSummary(
        name=profile.name,
        n_pubs=n_pubs,
        n_cites=n_cites,
        h_index=hirsch(counts),
        g_overall=overall.g,
        k_overall=overall.k,
        yearly=yearly_average(series),
        max_citations=max_citations,
        cites_per_paper=cites_per_paper(n_pubs, n_cites),
        peak_ratio=r,
        crossing=classify_crossing(series, config),
        soc_flagged=r >= config.r_threshold,
        tags=tuple(profile.tags),
    )


def hirsch_sqrt_ratio(h_index: int, n_cites: int) -> float:
    """h / sqrt(total citations); statistically ~0.5 for prolific careers.

    Purely informational: values far from 0.5 flag unusual citation
    concentration, not an error.
    """
    if n_cites <= 0:
        raise ZeroCitations("ratio undefined without citations")
    return h_index / math.sqrt(n_cites)
