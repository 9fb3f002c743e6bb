"""Quadratic Lorenz expansion relating the Kolkata index to the Gini index.

Modelling the Lorenz curve as L(p) = A p + B p^2 with A + B = 1 ties both
coefficients to the Gini index (A = 1 - 3g, B = 3g) and turns the Kolkata
fixed-point condition 1 - L(k) = k into a quadratic in k.  Its small-g
limit is the straight line k = 1/2 + (3/8) g; empirically, career series
follow k = 1/2 + 0.39 g, which extrapolates to a g = k crossing near 0.82.

Everything here is plain float arithmetic: ``math.sqrt`` for the root, and
``math.fsum`` for the fit's sums, so that the fitted slope does not depend
on the order of the points or on the machine.  numpy is imported only for
points that are not pairs of floats, to convert them or to name what is
wrong with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from ._lazy import np
from .errors import DegenerateFit, OutOfRange

#: Slope of the small-g limit of the quadratic model.
ANALYTIC_SLOPE = 0.375

#: Slope observed on real career (g, k) clouds.
EMPIRICAL_SLOPE = 0.39


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of k = 1/2 + c*g with the intercept pinned at 1/2.

    ``g_star`` is the extrapolated g = k crossing 0.5/(1 - c); it is None
    when c >= 1 (the lines never cross).
    """

    c: float
    intercept_fixed: float
    residual_rms: float
    g_star: float | None
    n_points: int


def _check_g(g: float) -> float:
    g = float(g)
    if not 0.0 <= g <= 1.0:
        raise OutOfRange(f"gini index must lie in [0, 1], got {g}")
    return g


def landau_k_exact(g: float) -> float:
    """Kolkata index of the quadratic Lorenz model at Gini index g.

    Root in [0.5, 1] of 3g*k^2 + (2 - 3g)*k - 1 = 0, written in the
    cancellation-free form 2 / (sqrt((2-3g)^2 + 12g) + 2 - 3g) so that
    g = 0 yields exactly 0.5 with no special case.  ``math.sqrt`` is
    correctly rounded, as numpy's is, so the root is the same double.
    """
    g = _check_g(g)
    b = 2.0 - 3.0 * g
    return 2.0 / (math.sqrt(b * b + 12.0 * g) + b)


def landau_k_approx(g: float) -> float:
    """Small-g linear approximation k = 1/2 + (3/8) g."""
    g = _check_g(g)
    return 0.5 + ANALYTIC_SLOPE * g


def _float_pairs(points) -> list:
    """The points as (g, k) floats.

    Tuples or lists of two floats are taken as they are; anything else (an
    int, a numpy scalar, a string, a point of another length) goes through
    numpy's conversion, which also names what is wrong with a point.
    """
    pts = list(points)
    if (all(map(isinstance, pts, repeat((tuple, list)))) and set(map(len, pts)) <= {2}
            and set(map(type, chain.from_iterable(pts))) <= {float}):
        return pts
    try:
        arr = np.asarray(pts, dtype=float)
    except OverflowError as exc:
        raise OutOfRange(f"g and k must be finite: {exc}") from None
    except (TypeError, ValueError) as exc:  # points of unequal lengths, or a value that is not a number
        raise DegenerateFit(f"points must be (g, k) pairs of numbers: {exc}") from None
    if len(arr) and (arr.ndim != 2 or arr.shape[1] != 2):
        raise DegenerateFit(f"points must be (g, k) pairs, got an array of shape {arr.shape}")
    return arr.tolist()


def fit_k_vs_g(points) -> FitResult:
    """Fit the slope of k = 1/2 + c*g to an unordered set of (g, k) points.

    The intercept is pinned at 1/2, so the least-squares slope has the
    closed form c = sum g*(k - 1/2) / sum g^2.  Each sum, and the one in
    the rms residual, is the ``math.fsum`` of the rounded products: the
    exactly rounded total, whatever the order of the points, so c and the
    rms residual do not depend on that order or on the machine.

    Raises
    ------
    DegenerateFit
        With points that are not (g, k) pairs of numbers, fewer than 2
        points, or when every g is zero.
    OutOfRange
        When a g or k is not finite, or the sums, c or the rms residual
        overflow a float.
    """
    pts = _float_pairs(points)
    n = len(pts)
    if n < 2:
        raise DegenerateFit(f"need at least 2 (g, k) points, got {n}")
    for i, (g, k) in enumerate(pts):
        if not (math.isfinite(g) and math.isfinite(k)):
            raise OutOfRange(f"g and k must be finite, got point {i}: {(g, k)}")
    overflow = f"the fit of {n} (g, k) points overflows a float"
    try:
        gg = math.fsum([g * g for g, _ in pts])
        if gg == 0.0:
            raise DegenerateFit("all g values are zero; slope is unidentifiable")
        c = math.fsum([g * (k - 0.5) for g, k in pts]) / gg
        resid = [k - 0.5 - c * g for g, k in pts]
        rms = math.sqrt(math.fsum([r * r for r in resid]) / n)
    except (OverflowError, ValueError):  # fsum's sum past the float range, or of +inf and -inf terms
        raise OutOfRange(overflow) from None
    if not all(map(math.isfinite, (gg, c, rms))):
        raise OutOfRange(overflow)
    g_star = 0.5 / (1.0 - c) if c < 1.0 else None
    return FitResult(
        c=c,
        intercept_fixed=0.5,
        residual_rms=rms,
        g_star=g_star,
        n_points=n,
    )
