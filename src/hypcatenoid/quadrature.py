"""The globally adaptive Gauss-Kronrod 7/15 integrator, quad_finite.

The package no longer integrates numerically: every quantity it ships is a
closed form, and no package path imports this module.  It is kept only for
the benchmark's span tracer in perfbench/, which imports it by path and
patches quad_finite, until ROADMAP item 1 stage B deletes it.  Tolerance
and EvaluationBudgetError live in catenoid.py and are imported here.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .catenoid import EvaluationBudgetError, Tolerance

__all__ = ["QuadratureResult", "quad_finite"]


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error indicator, and cost of one numerical integral."""

    value: float
    error_estimate: float
    evaluations: int


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].  Even-indexed entries of
# _XGK are the Kronrod extension points, odd-indexed ones (plus the center)
# carry the embedded 7-point Gauss rule.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694

# Below this multiple of eps * integral(|g|) the K15-G7 indicator is pure
# floating-point noise and further bisection cannot reduce it.
_ROUNDOFF_FACTOR = 50.0 * sys.float_info.epsilon

# quad_finite raises EvaluationBudgetError rather than spend more
# integrand evaluations than this on one integral.
_MAX_EVALUATIONS = 2_000_000


def _gk15(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """One Gauss7/Kronrod15 panel; returns (value, error indicator, int of |g|)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = g(center)
    k15 = _WGK_CENTER * fc
    g7 = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    for i in range(7):
        dx = half * _XGK[i]
        f1 = g(center - dx)
        f2 = g(center + dx)
        pair = f1 + f2
        k15 += _WGK[i] * pair
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            g7 += _WG[i // 2] * pair
    value = half * k15
    if not math.isfinite(value):
        raise ValueError(f"integrand returned a non-finite value on [{lo}, {hi}]")
    return value, abs(half * (k15 - g7)), half * resabs


def quad_finite(
    g: Callable[[float], float], lo: float, hi: float, tol: Tolerance
) -> QuadratureResult:
    """Integrate a smooth g over the finite interval [lo, hi].

    Globally adaptive: the subinterval with the worst K15-G7 indicator is
    bisected until the summed indicator meets tol.abs_tol.  A roundoff floor
    (relative to the integral of |g|) stops subdivision once the indicator
    is dominated by double-precision noise; without it, integrands with
    huge values would burn the whole budget on an unreachable tolerance.
    """
    if not lo <= hi:
        raise ValueError(f"integration bounds out of order: lo={lo} > hi={hi}")
    if lo == hi:
        g(lo)
        return QuadratureResult(0.0, 0.0, 1)

    value, err, resabs = _gk15(g, lo, hi)
    evaluations = 15
    total_err = err
    total_resabs = resabs
    counter = 0
    intervals = [(-err, counter, lo, hi, value, err, resabs)]

    while total_err > tol.abs_tol and total_err > _ROUNDOFF_FACTOR * total_resabs:
        if evaluations + 30 > _MAX_EVALUATIONS:
            raise EvaluationBudgetError(
                f"needed more than {_MAX_EVALUATIONS} evaluations to reach "
                f"abs_tol={tol.abs_tol} (error indicator {total_err:.3e})"
            )
        _, _, a, b, v_parent, e_parent, r_parent = heapq.heappop(intervals)
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            # Interval at machine resolution; its error is irreducible.
            heapq.heappush(
                intervals, (0.0, counter + 1, a, b, v_parent, e_parent, r_parent)
            )
            counter += 1
            break
        v1, e1, r1 = _gk15(g, a, mid)
        v2, e2, r2 = _gk15(g, mid, b)
        evaluations += 30
        total_err += e1 + e2 - e_parent
        total_resabs += r1 + r2 - r_parent
        heapq.heappush(intervals, (-e1, counter + 1, a, mid, v1, e1, r1))
        heapq.heappush(intervals, (-e2, counter + 2, mid, b, v2, e2, r2))
        counter += 2

    value = math.fsum(item[4] for item in intervals)
    error = math.fsum(item[5] for item in intervals)
    return QuadratureResult(value, max(error, 0.0), evaluations)
