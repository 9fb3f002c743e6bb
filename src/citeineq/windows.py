"""Sliding-window (g, k) series over a researcher's publication record.

Fixed-width year windows start at the first publication year and advance
by a fixed stride until the window's last year passes the configured end
year.  Each window that holds enough publications and at least one citation
contributes a (gini, kolkata) entry at the window's central year; every
other window is kept as a skipped entry so the time axis stays contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllSkipped, NoWindows, ValidationError
from .lorenz import IndexPair, index_pairs
from .profiles import ResearcherProfile

SKIP_NO_PUBS = "no_publications"
SKIP_TOO_FEW = "too_few_publications"
SKIP_ZERO_CITES = "zero_citations"


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry; defaults give 5-year windows sliding by one year."""

    width_years: int = 5
    stride_years: int = 1
    end_year: int = 2022
    min_pubs: int = 2

    def __post_init__(self):
        for name in ("width_years", "stride_years", "min_pubs"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class WindowEntry:
    """One window of the series, validated on construction.

    A window is skipped when it has a reason, and then its g and k are None;
    otherwise both g and k lie in [0, 1].
    """

    central_year: int
    g: float | None
    k: float | None
    n_pubs: int
    n_cites: int
    reason: str | None = None

    def __post_init__(self):
        if self.reason is not None:
            if self.g is not None or self.k is not None:
                raise ValidationError("skipped row has g or k")
        elif self.g is None or self.k is None:
            raise ValidationError("non-skipped row missing g or k")
        elif not (0.0 <= self.g <= 1.0 and 0.0 <= self.k <= 1.0):  # also false for nan
            raise ValidationError(f"g and k must lie in [0, 1], got {self.g!r}, {self.k!r}")

    @property
    def skipped(self) -> bool:
        return self.reason is not None


@dataclass
class IndexSeries:
    """Ordered per-window entries; central years ascend by the stride."""

    entries: list[WindowEntry] = field(default_factory=list)

    def valid_entries(self) -> list[WindowEntry]:
        return [e for e in self.entries if e.reason is None]

    def pairs(self) -> list[IndexPair]:
        """The (g, k) pairs of the non-skipped entries, in year order."""
        return [IndexPair(e.g, e.k) for e in self.valid_entries()]


@dataclass(frozen=True)
class YearlyAverage:
    """Mean and population standard deviation of g and k over valid windows."""

    mean_g: float
    sd_g: float
    mean_k: float
    sd_k: float
    n_windows: int


def window_series(profile: ResearcherProfile, config: WindowConfig = WindowConfig()) -> IndexSeries:
    """Compute the per-window (g, k) series of a profile.

    Windows [y, y + width - 1] start at the first publication year and
    step by the stride while they end at or before ``config.end_year``.
    A window is skipped (with a reason) when it holds no publications,
    fewer than ``min_pubs`` publications, or zero total citations.

    Raises
    ------
    NoWindows
        If even the first window would end past ``config.end_year``.
    """
    years, citations = profile.years, profile.citations
    first = int(years[0])
    width, stride = config.width_years, config.stride_years
    if first + width - 1 > config.end_year:
        raise NoWindows(
            f"first window [{first}, {first + width - 1}] ends past {config.end_year}"
        )

    # each window [start, start + width) is the slice lo:hi of the sorted columns
    starts = np.arange(first, config.end_year - width + 2, stride)
    lo = years.searchsorted(starts)
    hi = years.searchsorted(starts + width)
    cum = np.concatenate(([0], citations.cumsum()))
    n_pubs, n_cites = hi - lo, cum[hi] - cum[lo]

    reasons, g, k = np.full((3, starts.size), None, dtype=object)
    reasons[n_cites == 0] = SKIP_ZERO_CITES
    reasons[n_pubs < config.min_pubs] = SKIP_TOO_FEW
    reasons[n_pubs == 0] = SKIP_NO_PUBS
    valid = (n_pubs >= config.min_pubs) & (n_cites > 0)
    g[valid], k[valid] = index_pairs(citations, lo[valid], hi[valid])
    rows = zip((starts + width // 2).tolist(), g.tolist(), k.tolist(),
               n_pubs.tolist(), n_cites.tolist(), reasons.tolist())
    entries = [WindowEntry(*row) for row in rows]
    return IndexSeries(entries=entries)


def yearly_average(series: IndexSeries) -> YearlyAverage:
    """Mean +- population sd of g and k over the non-skipped entries.

    Raises
    ------
    AllSkipped
        If the series has no non-skipped entry.
    """
    valid = series.valid_entries()
    if not valid:
        raise AllSkipped("every window in the series was skipped")
    g = np.array([e.g for e in valid])
    k = np.array([e.k for e in valid])
    return YearlyAverage(
        mean_g=float(np.mean(g)),
        sd_g=float(np.std(g)),
        mean_k=float(np.mean(k)),
        sd_k=float(np.std(k)),
        n_windows=len(valid),
    )
