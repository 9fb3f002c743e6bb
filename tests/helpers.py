"""Shared oracles and builders for the test suite."""

from fractions import Fraction
from itertools import accumulate

import numpy as np

from citeineq import IndexSeries, Publication, ResearcherProfile, WindowEntry

# Integer vector whose window statistics show g >= k and a peak ratio >= 40;
# heavy-tailed with many barely-cited papers, like a real crossing career.
CROSSING_WINDOW = (
    [0] * 10 + [1] * 21 + [2] * 8 + [3, 3, 4, 5, 11, 16, 30, 33, 135, 462, 5821]
)


def gini_pairwise(counts) -> float:
    """Mean-absolute-difference Gini: sum_ij |x_i - x_j| / (2 n^2 mean).

    Independent of the Lorenz-curve code path; exact integer pair sums,
    accumulated in row blocks to bound memory for large vectors.
    """
    x = np.asarray(counts, dtype=np.int64)
    pair_sum = 0
    for start in range(0, x.size, 512):
        block = x[start : start + 512]
        pair_sum += int(np.abs(block[:, None] - x[None, :]).sum())
    return pair_sum / (2 * x.size * int(x.sum()))


def fraction_pair(counts) -> tuple[float, float]:
    """Exact (Gini, Kolkata) of integer counts, each rounded once to a double.

    Gini is the pairwise sum_{i<j} (x_(j) - x_(i)) / (nT) over the sorted
    counts, summed in Python ints.  Kolkata is the zero of f(p) = 1 - L(p) - p
    on the first Lorenz segment where f reaches 0, by linear interpolation in
    rationals.  No step is shared with ``citeineq.lorenz``.
    """
    x = sorted(int(c) for c in counts)
    n, total = len(x), sum(x)
    g = Fraction(sum((2 * i - n - 1) * xi for i, xi in enumerate(x, start=1)), n * total)
    cum = [0, *accumulate(x)]

    def f(i):  # 1 - L(p) - p at vertex i
        return Fraction(total - cum[i], total) - Fraction(i, n)

    j = next(i for i in range(1, n + 1) if n * (total - cum[i]) <= i * total)
    k = Fraction(j - 1, n) + f(j - 1) / (f(j - 1) - f(j)) / n
    return float(g), float(k)


def citations_in(profile: ResearcherProfile, start_year: int, end_year: int) -> list[int]:
    """Row-by-row oracle: citation counts of publications dated within [start, end]."""
    return [p.citations for p in profile.publications if start_year <= p.year <= end_year]


def make_profile(citations_by_year: dict[int, list[int]], name: str = "test") -> ResearcherProfile:
    pubs = []
    for year in sorted(citations_by_year):
        for j, cites in enumerate(citations_by_year[year]):
            pubs.append(Publication(pub_id=f"{year}-{j:03d}", year=year, citations=int(cites)))
    return ResearcherProfile(name=name, tags=[], publications=pubs)


def series_from_pairs(pairs, start_year: int = 2000) -> IndexSeries:
    """Build a valid-entry series directly from (g, k) pairs."""
    entries = [
        WindowEntry(start_year + i, float(g), float(k), 10, 100)
        for i, (g, k) in enumerate(pairs)
    ]
    return IndexSeries(entries=entries)
