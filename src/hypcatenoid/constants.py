"""Solvers for the named constants of the catenoid stability theory.

The bundle collects: the integral constant K, the maximizer a_c of rho with
the maximal separation 2*rho(a_c), the concavity threshold a_0, the closed
form a_l = arccosh(1/(1-K)), and the deficit zero a_L with its separation
2*rho(a_L).  K is a closed form in Gamma functions; a_c, a_0 and a_L are
roots of closed forms (rho', mvt_f and phi), found by solve_root, which
stops at eps times the bracket's smaller end, so no value depends on the
tolerance.  The bundle is still computed lazily once per tolerance and
cached.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

from .catenoid import (
    ConsistencyError,
    EvaluationBudgetError,
    Tolerance,
    _K,
    _rho_prime,
    area_deficit,
    gomes_rho,
    mvt_f,
)

__all__ = [
    "BracketError",
    "ConsistencyError",
    "ConstantsBundle",
    "compute_K",
    "constants_bundle",
    "solve_a_0",
    "solve_a_L",
    "solve_a_c",
    "solve_root",
]

_EPS = sys.float_info.epsilon

# Every bracket the package solves closes within a few dozen iterations; this
# is the guard against one that cannot close.
_MAX_ITERATIONS = 100


class BracketError(ValueError):
    """Raised when a root bracket fails to straddle a sign change."""


@dataclass(frozen=True)
class ConstantsBundle:
    """All solved constants, ordered 0 < a_0 < a_c < a_L < a_l."""

    K: float
    a_c: float
    rho_max: float
    a_0: float
    a_l: float
    a_L: float
    two_rho_ac: float
    two_rho_aL: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a_0 < self.a_c < self.a_L < self.a_l:
            raise ConsistencyError(
                "constants violate the ordering 0 < a_0 < a_c < a_L < a_l: "
                f"a_0={self.a_0}, a_c={self.a_c}, a_L={self.a_L}, a_l={self.a_l}"
            )


def solve_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Find a root of f inside the sign-changing bracket [lo, hi] (Brent's method).

    Combines bisection with inverse-quadratic acceleration; every iterate
    stays inside the current bracket.  It stops once the bracket is within
    x_tol = eps * min(|lo|, |hi|), so a root near a small bracket end keeps
    its relative digits, and raises EvaluationBudgetError if that takes more
    than _MAX_ITERATIONS steps.
    """
    if not lo < hi:
        raise ValueError(f"bracket out of order: [{lo}, {hi}]")
    x_tol = _EPS * min(abs(lo), abs(hi))
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"no sign change on [{a}, {b}]: f(lo)={fa:.6e}, f(hi)={fb:.6e}"
        )
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITERATIONS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * x_tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise EvaluationBudgetError(
        f"root not bracketed to x_tol={x_tol} within {_MAX_ITERATIONS} iterations"
    )


def compute_K(tol: Tolerance) -> float:
    """The constant K = int_0^1 (1/x**2) (1/sqrt(1-x**4) - 1) dx.

    K = 1 - sqrt(pi) Gamma(3/4) / Gamma(1/4) = 0.4009298826322038892..., the
    Beta integral int_0^1 x**(s-1) ((1-x**4)**(-1/2) - 1) dx continued to
    s = -1 (DLMF 5.12); exact to rounding whatever tol is.
    """
    return _K


def solve_a_c(tol: Tolerance) -> float:
    """Maximizer a_c of rho, located as the root of rho'.

    rho' is a closed form in Carlson's R_J and R_D; rho'(a_c) = 0 is
    bracketed by [0.3, 0.7].
    """
    return solve_root(_rho_prime, 0.3, 0.7)


def solve_a_0(K: float, tol: Tolerance) -> float:
    """Unique zero of the comparison function mvt_f on (0, log(3/2)).

    mvt_f is elementary and checks K itself, so the root does not depend on
    tol.
    """
    return solve_root(lambda x: mvt_f(x, K), 1.0e-6, math.log(1.5))


def solve_a_L(tol: Tolerance) -> float:
    """Unique zero a_L of the area deficit, the bundle's root of phi on [a_c, a_l].

    phi is a closed form in R_F and R_D, so a_L does not depend on tol.
    """
    return constants_bundle(tol).a_L


# Bundles kept at once; inserting past this evicts the oldest tolerance.
_CACHE_SIZE = 32
_CACHE: dict[tuple[float, int], ConstantsBundle] = {}
_CACHE_LOCK = threading.Lock()


def constants_bundle(tol: Tolerance) -> ConstantsBundle:
    """All constants for one tolerance, solved once per process and cached."""
    key = (tol.abs_tol, tol.max_evaluations)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is not None:
        return cached

    K = compute_K(tol)
    a_c = solve_a_c(tol)
    rho_max = gomes_rho(a_c, tol)
    a_0 = solve_a_0(K, tol)
    a_l = math.acosh(1.0 / (1.0 - K))
    a_L = solve_root(lambda a: area_deficit(a, tol), a_c, a_l)
    bundle = ConstantsBundle(
        K=K,
        a_c=a_c,
        rho_max=rho_max,
        a_0=a_0,
        a_l=a_l,
        a_L=a_L,
        two_rho_ac=2.0 * rho_max,
        two_rho_aL=2.0 * gomes_rho(a_L, tol),
    )
    with _CACHE_LOCK:
        bundle = _CACHE.setdefault(key, bundle)
        if len(_CACHE) > _CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
        return bundle
