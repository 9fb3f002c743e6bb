"""Quadratic Lorenz expansion relating the Kolkata index to the Gini index.

Modelling the Lorenz curve as L(p) = A p + B p^2 with A + B = 1 ties both
coefficients to the Gini index (A = 1 - 3g, B = 3g) and turns the Kolkata
fixed-point condition 1 - L(k) = k into a quadratic in k.  Its small-g
limit is the straight line k = 1/2 + (3/8) g; empirically, career series
follow k = 1/2 + 0.39 g, which extrapolates to a g = k crossing near 0.82.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    g = 0 yields exactly 0.5 with no special case.
    """
    g = _check_g(g)
    b = 2.0 - 3.0 * g
    return float(2.0 / (np.sqrt(b * b + 12.0 * g) + b))


def landau_k_approx(g: float) -> float:
    """Small-g linear approximation k = 1/2 + (3/8) g."""
    g = _check_g(g)
    return 0.5 + ANALYTIC_SLOPE * g


def fit_k_vs_g(points) -> FitResult:
    """Fit the slope of k = 1/2 + c*g to an unordered set of (g, k) points.

    The intercept is pinned at 1/2, so the least-squares slope has the
    closed form c = sum g*(k - 1/2) / sum g^2.

    Raises
    ------
    DegenerateFit
        With points that are not (g, k) pairs of numbers, fewer than 2
        points, or when every g is zero.
    OutOfRange
        When a g or k is not finite.
    """
    try:
        pts = np.asarray(list(points), dtype=float)
    except (TypeError, ValueError) as exc:  # points of unequal lengths, or a value that is not a number
        raise DegenerateFit(f"points must be (g, k) pairs of numbers: {exc}") from None
    if len(pts) and (pts.ndim != 2 or pts.shape[1] != 2):
        raise DegenerateFit(f"points must be (g, k) pairs, got an array of shape {pts.shape}")
    if len(pts) < 2:
        raise DegenerateFit(f"need at least 2 (g, k) points, got {len(pts)}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise OutOfRange(f"g and k must be finite, got point {bad}: {tuple(pts[bad].tolist())}")
    g, k = pts[:, 0], pts[:, 1]
    gg = float(np.dot(g, g))
    if gg == 0.0:
        raise DegenerateFit("all g values are zero; slope is unidentifiable")
    c = float(np.dot(g, k - 0.5) / gg)
    resid = k - 0.5 - c * g
    rms = float(np.sqrt(np.mean(resid**2)))
    g_star = 0.5 / (1.0 - c) if c < 1.0 else None
    return FitResult(
        c=c,
        intercept_fixed=0.5,
        residual_rms=rms,
        g_star=g_star,
        n_points=int(pts.shape[0]),
    )
