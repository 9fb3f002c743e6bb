"""Discrete Lorenz curves and the Gini, Kolkata, and Hirsch indices.

The Lorenz curve of a citation vector is the piecewise-linear curve through
the vertices (i/n, C_i/C_n), where C_i is the running sum of the counts
sorted ascending.  Gini is twice the area between the curve and the equality
diagonal; Kolkata is the fixed point of the complementary curve 1 - L(p).

With the counts sorted, running sums C_1..C_n, total T = C_n and
S = C_1 + ... + C_n, both indices are ratios of integers:

    g = (nT - 2S + T) / (nT)
    k = (T - C_{j-1} + (j - 1) d) / (T + nd),  d = C_j - C_{j-1},

where j is the first vertex with n(T - C_j) <= jT.  ``index_pairs`` evaluates
them for many slices of one vector in a few numpy passes, with one division
each, so integer counts give the doubles nearest the exact values whatever
their order.  ``build_lorenz``, ``gini`` and ``kolkata`` follow the curve
itself and are kept as the reference the tests compare against.

All functions are pure and hold no shared state; zero-citation publications
count as zero-wealth members of the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyInput, ValidationError, ZeroTotal


class IndexPair(NamedTuple):
    """A (gini, kolkata) value pair for one population."""

    g: float
    k: float


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear cumulative-share curve of a citation vector.

    Attributes
    ----------
    p : np.ndarray
        Population fractions at the vertices, 0, 1/n, ..., 1.
    shares : np.ndarray
        Cumulative citation shares L(p) at the vertices; shares[0] == 0
        and shares[-1] == 1.
    n : int
        Population size.
    total : float
        Total citations over the population.
    """

    p: np.ndarray
    shares: np.ndarray
    n: int
    total: float

    def interpolate(self, q) -> np.ndarray | float:
        """Evaluate L(q) by linear interpolation between vertices."""
        return np.interp(q, self.p, self.shares)


#: Most counts one vectorized pass gathers; larger passes cost more in memory
#: traffic than they save in calls.
CHUNK = 2**13

#: Integers below this convert to float64 exactly, so that one division of
#: two of them is correctly rounded.
_EXACT_FLOAT = 2**53

_INT64_LIMIT = 2**63


def _as_counts(counts) -> np.ndarray:
    """``counts`` as a nonempty 1-d array of float64, of int64 when every sum
    of its counts fits int64, and else of Python ints."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("citation vector must be a nonempty 1-d sequence")
    kind = arr.dtype.kind
    if kind not in "biuf" and not all(isinstance(v, int) for v in arr.tolist()):
        raise ValidationError("citation counts must be integers or floats")
    if kind == "f" and not np.isfinite(arr).all():
        raise ValidationError("citation counts must be finite")
    if arr.min() < 0:
        raise ValidationError("citation counts must be nonnegative")
    if kind == "f":
        return arr.astype(np.float64, copy=False)
    fits = int(arr.max()) * arr.size < _INT64_LIMIT
    return arr.astype(np.int64 if fits else object, copy=False)


def build_lorenz(counts) -> LorenzCurve:
    """Construct the discrete Lorenz curve of a citation vector.

    Parameters
    ----------
    counts : array-like
        Nonnegative per-publication citation counts. Integer input is
        accumulated exactly before normalization.

    Returns
    -------
    LorenzCurve
        Vertices (i/n, C_i/C_n) for i = 0..n over the ascending-sorted
        counts.

    Raises
    ------
    EmptyInput
        If the vector has no elements.
    ZeroTotal
        If every count is zero (shares are undefined).
    """
    arr = _as_counts(counts)
    n = arr.size
    cum = np.concatenate(([0], np.cumsum(np.sort(arr))))
    total = cum[-1]
    if total <= 0:
        raise ZeroTotal("all citation counts are zero")
    p = np.arange(n + 1) / n
    shares = cum / total
    return LorenzCurve(p=p, shares=shares, n=n, total=float(total))


def gini(curve: LorenzCurve) -> float:
    """Gini index of a Lorenz curve.

    Twice the area between the equality diagonal and the curve, computed
    as 1 minus twice the trapezoidal integral of the piecewise-linear
    L(p).  Equals the pairwise mean-absolute-difference form
    sum_ij |x_i - x_j| / (2 n^2 mean).
    """
    L = curve.shares
    g = 1.0 - np.sum(L[:-1] + L[1:]) / curve.n
    # round-off on near-equality input can undershoot 0 by ~1 ulp
    return float(min(max(g, 0.0), 1.0))


def kolkata(curve: LorenzCurve) -> float:
    """Kolkata index: the fixed point of the complementary Lorenz curve.

    Solves 1 - L(k) = k.  Since f(p) = 1 - L(p) - p falls strictly from
    +1 at p=0 to -1 at p=1, the fixed point exists, is unique, and lies
    in [0.5, 1].  The crossing segment is located by scanning vertex
    signs and solved exactly on that linear piece.
    """
    p, L, n = curve.p, curve.shares, curve.n
    f = 1.0 - L - p
    # first vertex at or below zero; f[0] = 1 > 0 and f[-1] = -1 < 0
    j = int(np.argmax(f <= 0.0))
    slope = (L[j] - L[j - 1]) * n
    k = (1.0 - L[j - 1] + slope * p[j - 1]) / (1.0 + slope)
    return float(min(max(k, 0.5), 1.0))


def hirsch(counts) -> int:
    """Hirsch index: the largest h such that h papers have >= h citations.

    Returns 0 when no paper has at least one citation.
    """
    arr = _as_counts(counts)
    ranked = np.sort(arr)[::-1]
    return int(np.sum(ranked >= np.arange(1, arr.size + 1)))


def index_pair(counts) -> IndexPair:
    """Gini and Kolkata indices of a citation vector: ``index_pairs`` of one slice."""
    arr = np.asarray(counts)
    g, k = index_pairs(arr, [0], [arr.size])
    return IndexPair(g=float(g[0]), k=float(k[0]))


def index_pairs(values, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gini and Kolkata of every slice ``values[lo[i]:hi[i]]``, as two float64 arrays.

    Integer counts give the doubles nearest the exact ratios.  Sums stay in
    int64, and a slice is divided in float64 only while (n + 1) T < 2^53, so
    that every operand converts exactly; a larger slice is evaluated in
    Python ints, whose true division CPython rounds correctly.  Float counts
    take the same formulas in float64, clipped to the indices' ranges.

    Raises
    ------
    EmptyInput
        If ``values`` or any slice is empty, or a slice reaches outside it.
    ZeroTotal
        If every count of some slice is zero.
    """
    x = _as_counts(values)
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    n = hi - lo
    if n.size and (n.min() < 1 or lo.min() < 0 or hi.max() > x.size):
        raise EmptyInput("every slice must hold at least one count of the vector")
    if x.dtype.kind == "f":
        # a float running sum restarts exactly only at the start of a pass
        g, k = _pairs(x, lo, hi, limit=1)
        return np.clip(g, 0.0, 1.0, out=g), np.clip(k, 0.5, 1.0, out=k)
    if x.dtype.kind == "i" and (x.size + 1) * int(x.sum()) < _EXACT_FLOAT:
        return _pairs(x, lo, hi)  # no slice of x can reach the bound
    big = np.ones(n.size, dtype=bool)
    if x.dtype.kind == "i":
        cum = np.concatenate(([0], x.cumsum()))
        big = cum[hi] - cum[lo] > (_EXACT_FLOAT - 1) // (n + 1)
    g, k = np.empty(n.size), np.empty(n.size)
    g[~big], k[~big] = _pairs(x, lo[~big], hi[~big])
    if big.any():
        g[big], k[big] = _pairs(x.astype(object), lo[big], hi[big])
    return g, k


def _pairs(x, lo, hi, limit=CHUNK):
    """``_slice_pairs`` over runs of slices that together hold at most
    ``limit`` counts, or one slice each past that."""
    ends = (hi - lo).cumsum()
    if ends.size and ends[-1] <= limit:
        return _slice_pairs(x, lo, hi)
    g, k = np.empty(lo.size), np.empty(lo.size)
    i = 0
    while i < lo.size:
        reach = ends[i] - (hi[i] - lo[i]) + limit
        stop = max(i + 1, int(np.searchsorted(ends, reach, "right")))
        g[i:stop], k[i:stop] = _slice_pairs(x, lo[i:stop], hi[i:stop])
        i = stop
    return g, k


def _slice_pairs(x, lo, hi):
    """(g, k) of each slice ``x[lo:hi]`` from the integer formulas, in x's dtype."""
    n = hi - lo
    first = n.cumsum() - n  # where each slice starts among the gathered counts
    rank = np.arange(1, n.sum() + 1) - first.repeat(n)  # vertex i within the slice
    vals = x[(lo - 1).repeat(n) + rank]
    base = int(vals.max()) + 1
    if n.size == 1:
        vals.sort()
    elif vals.dtype.kind == "i" and n.size * base < _INT64_LIMIT:
        # one flat sort of value + slice * base sorts every slice in place
        offset = (np.arange(n.size) * base).repeat(n)
        vals += offset
        vals.sort()
        vals -= offset
    else:
        vals = vals[np.lexsort((vals, np.arange(n.size).repeat(n)))]
    cum = vals.cumsum()
    # running sums restart at each slice; an int64 sum that wraps past 2^63
    # still leaves exact differences, since each slice's own sums fit
    c = cum - (cum[first] - vals[first]).repeat(n)
    total = c[first + n - 1]
    if not total.all():
        raise ZeroTotal("all citation counts are zero")
    s = np.add.reduceat(c, first)
    # f falls along the slice, so the vertices before j are those failing n(T - C_i) <= iT
    tot = total.repeat(n)
    j = np.add.reduceat(n.repeat(n) * (tot - c) > rank * tot, first, dtype=np.int64) + 1
    at = first + j - 1
    d = vals[at]
    before = c[at] - d
    nt = n * total
    return (nt - 2 * s + total) / nt, (total - before + (j - 1) * d) / (total + n * d)
