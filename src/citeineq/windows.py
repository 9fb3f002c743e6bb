"""Sliding-window (g, k) series over a researcher's publication record.

Fixed-width year windows start at the first publication year and advance
by a fixed stride until the window's last year passes the configured end
year.  Each window that holds enough publications and at least one citation
contributes a (gini, kolkata) entry at the window's central year; every
other window is kept as a skipped entry so the time axis stays contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .errors import AllSkipped, NoWindows, ValidationError, echo
from .lorenz import IndexPair, index_pairs
from .profiles import MAX_YEAR, MIN_YEAR, ResearcherProfile

SKIP_NO_PUBS = "no_publications"
SKIP_TOO_FEW = "too_few_publications"
SKIP_ZERO_CITES = "zero_citations"
SKIP_REASONS = (SKIP_NO_PUBS, SKIP_TOO_FEW, SKIP_ZERO_CITES)

#: The (n_pubs > 0, n_cites > 0) that ``window_series`` gives a window with
#: each skip reason, or with none, and the rule that states them.
_COUNT_RULES = {
    None: ({(True, True)}, "n_pubs > 0 and n_cites > 0"),
    SKIP_NO_PUBS: ({(False, False)}, "n_pubs = 0 and n_cites = 0"),
    SKIP_TOO_FEW: ({(True, True), (True, False)}, "n_pubs > 0"),
    SKIP_ZERO_CITES: ({(True, False)}, "n_pubs > 0 and n_cites = 0"),
}


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry; defaults give 5-year windows sliding by one year."""

    width_years: int = 5
    stride_years: int = 1
    end_year: int = 2022
    min_pubs: int = 2

    def __post_init__(self):
        for name in ("width_years", "stride_years", "end_year", "min_pubs"):
            value = getattr(self, name)
            if type(value) is not int:  # a float width would give central years such as 2002.0
                raise ValidationError(f"{name} must be an int, got {echo(value)}")
        for name in ("width_years", "stride_years", "min_pubs"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if not MIN_YEAR <= self.end_year <= MAX_YEAR:
            raise ValidationError(f"end_year must be in [{MIN_YEAR}, {MAX_YEAR}], got {echo(self.end_year)}")


@dataclass(frozen=True)
class WindowEntry:
    """One window of the series, validated on construction.

    A window is skipped when it has a reason, one of ``SKIP_REASONS``, and
    then its g and k are None; otherwise both g and k lie in [0, 1].  Its
    counts are not negative, and they fit the reason as ``window_series``
    gives them: a window has papers unless it is skipped for
    ``no_publications``, and then no citations; ``zero_citations`` has no
    citations, and a window that is not skipped has some.
    """

    central_year: int
    g: float | None
    k: float | None
    n_pubs: int
    n_cites: int
    reason: str | None = None

    def __post_init__(self):
        if self.n_pubs < 0 or self.n_cites < 0:
            raise ValidationError(f"n_pubs and n_cites must not be negative, got {echo(self.n_pubs)}, {echo(self.n_cites)}")
        if self.reason is not None:
            if self.reason not in SKIP_REASONS:
                raise ValidationError(f"skip reason must be one of {', '.join(SKIP_REASONS)}, got {echo(self.reason)}")
            if self.g is not None or self.k is not None:
                raise ValidationError("skipped row has g or k")
        elif self.g is None or self.k is None:
            raise ValidationError("non-skipped row missing g or k")
        elif not (0.0 <= self.g <= 1.0 and 0.0 <= self.k <= 1.0):  # also false for nan
            raise ValidationError(f"g and k must lie in [0, 1], got {echo(self.g)}, {echo(self.k)}")
        signs, rule = _COUNT_RULES[self.reason]
        if (self.n_pubs > 0, self.n_cites > 0) not in signs:
            raise ValidationError(
                f"{self.reason or 'non-skipped'} row needs {rule}, got {echo(self.n_pubs)}, {echo(self.n_cites)}")

    @property
    def skipped(self) -> bool:
        return self.reason is not None


@dataclass
class IndexSeries:
    """Ordered per-window entries; central years strictly ascend.

    Entries whose years repeat or fall raise ``ValidationError`` on
    construction, with the first out-of-order entry's index as ``row``.
    """

    entries: list[WindowEntry] = field(default_factory=list)

    def __post_init__(self):
        years = [e.central_year for e in self.entries]
        for row in range(1, len(years)):
            if years[row] <= years[row - 1]:
                raise ValidationError(
                    f"central_year must ascend, but {echo(years[row])} follows {echo(years[row - 1])}", row=row)

    def valid_entries(self) -> list[WindowEntry]:
        return [e for e in self.entries if e.reason is None]

    def pairs(self) -> list[IndexPair]:
        """The (g, k) pairs of the non-skipped entries, in year order."""
        return [IndexPair(e.g, e.k) for e in self.valid_entries()]


@dataclass(frozen=True, slots=True)
class YearlyAverage:
    """Mean and population standard deviation of g and k over valid windows,
    each the double nearest its exact value."""

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

    Each is computed exactly in integers and rounded once, so it does not
    depend on the order of the entries or on numpy's summation.

    Raises
    ------
    AllSkipped
        If the series has no non-skipped entry.
    """
    valid = series.valid_entries()
    if not valid:
        raise AllSkipped("every window in the series was skipped")
    mean_g, sd_g = _mean_sd([e.g for e in valid])
    mean_k, sd_k = _mean_sd([e.k for e in valid])
    return YearlyAverage(mean_g, sd_g, mean_k, sd_k, len(valid))


def _mean_sd(xs: list[float]) -> tuple[float, float]:
    """The doubles nearest the mean and the population sd of ``xs``.

    Each double is an integer over a power of two, so every sum is an exact int."""
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    n, total = len(ints), sum(ints)
    # variance = (n * sum(i^2) - total^2) / (n * scale)^2
    return total / (n * scale), _sqrt_ratio(n * sum(i * i for i in ints) - total * total, (n * scale) ** 2)


def _sqrt_ratio(p: int, q: int) -> float:
    """The double nearest sqrt(p / q), for ints p >= 0 and q > 0: the root is
    rounded to odd at 2 * 53 + 3 bits or more, then once to a double."""
    s = max(0, (q.bit_length() - p.bit_length() + 109) // 2 + 1)
    root = math.isqrt((p << 2 * s) // q)
    return (root | (root * root * q != p << 2 * s)) / (1 << s)
