"""Solvers for the named constants of the catenoid stability theory.

The bundle collects: the integral constant K, the maximizer a_c of rho with
the maximal separation 2*rho(a_c), the concavity threshold a_0, the closed
form a_l = arccosh(1/(1-K)), and the deficit zero a_L with its separation
2*rho(a_L).  K is the literal _K that mvt_f and solve_a_0 read; a_c, a_0
and a_L are roots of closed forms with closed-form slopes (phi', mvt_f and
phi), found by solve_root's safeguarded Newton iteration to eps times the
bracket's smaller end, so no value depends on the tolerance.  A cold bundle
makes 4, 7 and 6 such calls; the 10 for a_c and a_L, and rho(a_c) and
rho(a_L), are one AGM loop of _neck_terms each.  The bundle is computed
lazily once per tolerance and cached for the 32 most recently used ones.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import _EXPORTS
from .catenoid import (
    ConsistencyError,
    EvaluationBudgetError,
    Tolerance,
    _K,
    _neck_terms,
    gomes_rho,
    mvt_f,
)

__all__ = _EXPORTS["constants"]

_EPS = sys.float_info.epsilon

# Every bracket the package solves closes within a few dozen iterations; this
# is the guard against one that cannot close.
_MAX_ITERATIONS = 100


class BracketError(ValueError):
    """Raised when a root bracket fails to straddle a sign change."""


@dataclass(frozen=True)
class ConstantsBundle:
    """All solved constants, ordered 0 < a_0 < a_c < a_L < a_l; the CLI
    prints the fields in their declared order.  Each field is within 1 ulp
    of its exact value; two_rho_aL, which carries rho's rounding at a_L, is
    within 2 ulps.  Unlike the other records it is a dataclass, because the
    benchmark's smoke test corrupts one with dataclasses.replace."""

    K: float
    a_c: float
    two_rho_ac: float
    a_0: float
    a_l: float
    a_L: float
    two_rho_aL: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a_0 < self.a_c < self.a_L < self.a_l:
            raise ConsistencyError(
                "constants violate the ordering 0 < a_0 < a_c < a_L < a_l: "
                f"a_0={self.a_0}, a_c={self.a_c}, a_L={self.a_L}, a_l={self.a_l}"
            )


def solve_root(f: Callable[[float], tuple[float, float]], lo: float, hi: float) -> float:
    """Root of f in [lo, hi] by Newton's method, safeguarded by bisection.

    f(x) returns (value, slope) and must change sign once on [lo, hi], at a
    simple root (nonzero slope).  The slope need not be f'(x): any nonzero
    slope with f''s sign is safe.  The iteration starts at the midpoint,
    takes the direction of the crossing from the first slope (or from f(lo)
    if that slope is 0), and moves the end of each iterate's sign to it.  It
    takes the Newton step when that lands strictly inside the bracket or is
    already within the stop test, and bisects otherwise, until a step is
    within x_tol = eps * min(|lo|, |hi|) plus rounding, 2 eps |x|; so a root
    near a small end keeps its relative digits.  A Newton step onto an end
    already evaluated means the iterates cycle in the rounding noise of f,
    and the bisection it gets instead closes the few-ulp bracket.  An end is
    evaluated only if the iteration closes on it, raising BracketError if f
    has no sign change there; EvaluationBudgetError after _MAX_ITERATIONS
    steps.  A multiple root converges only linearly and may exhaust that
    budget.
    """
    if not lo < hi:
        raise ValueError(f"bracket out of order: [{lo}, {hi}]")
    x_tol = _EPS * min(abs(lo), abs(hi))
    x = 0.5 * (lo + hi)
    lo_seen = hi_seen = False  # until an iterate replaces it, an end is trusted
    up = 0.0  # +1 if f crosses upward, -1 if downward
    for _ in range(_MAX_ITERATIONS):
        value, slope = f(x)
        if not up:
            up = math.copysign(1.0, slope if slope else -f(lo)[0])
        if value * up > 0.0:
            hi, hi_seen = x, True
        else:
            lo, lo_seen = x, True
        newton = value / slope if slope else math.inf
        tol = x_tol + 2.0 * _EPS * abs(x)
        step = newton if abs(newton) <= tol or lo < x - newton < hi else x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= tol:
            for end, seen, sign in ((lo, lo_seen, -up), (hi, hi_seen, up)):
                if not seen and abs(end - x) <= tol and not f(end)[0] * sign >= 0.0:
                    raise BracketError(f"f does not change sign at the bracket end {end}")
            return x
    raise EvaluationBudgetError(
        f"root not reached to x_tol={x_tol} within {_MAX_ITERATIONS} iterations"
    )


def compute_K() -> float:
    """The constant K = int_0^1 (1/x**2) (1/sqrt(1-x**4) - 1) dx.

    K = 1 - sqrt(pi) Gamma(3/4) / Gamma(1/4) = 0.4009298826322038962..., the
    Beta integral int_0^1 x**(s-1) ((1-x**4)**(-1/2) - 1) dx continued to
    s = -1 (DLMF 5.12); the value is the double nearest K.
    """
    return _K


def solve_a_c(tol: Tolerance) -> float:
    """Maximizer a_c of rho, located as the root of phi' = 2 pi sinh(2a) rho'.

    With w = sinh(a)**2, c = 1 + 2w and p = 1 + w, rho' = (2p/3) R_D(0, w, c)
    - R_F(0, w, c), so phi' shares rho's root, and one AGM loop gives phi'
    and its slope phi'' together (see _neck_terms).  The root is bracketed
    by [0.3, 0.7].
    """
    return solve_root(lambda a: _neck_terms(a)[3:], 0.3, 0.7)


def solve_a_0() -> float:
    """Unique zero of the comparison function mvt_f on (0, log(3/2)).

    mvt_f and the slope handed with it are elementary, in K = compute_K().
    """

    def f(x: float) -> tuple[float, float]:
        sinh, cosh = math.sinh, math.cosh
        slope = 10.0 * (7.0 * cosh(7.0 * x) - 9.0 * (sinh(3.0 * x) + sinh(5.0 * x)))
        return mvt_f(x), slope + 120.0 * (1.0 - _K) * sinh(8.0 * x)

    return solve_root(f, 1.0e-6, math.log(1.5))


@functools.lru_cache(maxsize=32)
def constants_bundle(tol: Tolerance) -> ConstantsBundle:
    """All constants, cached for the 32 most recently used tolerances; two
    concurrent first calls for one may return equal but distinct bundles."""
    K = compute_K()
    a_c = solve_a_c(tol)
    a_0 = solve_a_0()
    a_l = math.acosh(1.0 / (1.0 - K))
    a_L = solve_root(lambda a: _neck_terms(a)[2:4], a_c, a_l)
    return ConstantsBundle(
        K=K,
        a_c=a_c,
        two_rho_ac=2.0 * gomes_rho(a_c, tol),
        a_0=a_0,
        a_l=a_l,
        a_L=a_L,
        two_rho_aL=2.0 * gomes_rho(a_L, tol),
    )
