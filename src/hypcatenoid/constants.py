"""Solvers for the named constants of the catenoid stability theory.

The bundle collects: the integral constant K, the maximizer a_c of rho with
the maximal separation 2*rho(a_c), the concavity threshold a_0, the closed
form a_l = arccosh(1/(1-K)), and the deficit zero a_L with its separation
2*rho(a_L).  All are recovered from first principles by quadrature or
Carlson's closed forms plus bracketed root finding, computed lazily once per
tolerance and cached.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

from .catenoid import _rho_prime, area_deficit, gomes_rho, mvt_f
from .quadrature import EvaluationBudgetError, Tolerance, quad_sqrt_endpoint

__all__ = [
    "BracketError",
    "ConsistencyError",
    "ConstantsBundle",
    "RootFindConfig",
    "compute_K",
    "constants_bundle",
    "solve_a_0",
    "solve_a_L",
    "solve_a_c",
    "solve_root",
]

_EPS = sys.float_info.epsilon


class BracketError(ValueError):
    """Raised when a root bracket fails to straddle a sign change."""


class ConsistencyError(RuntimeError):
    """Raised when solved constants violate their required ordering."""


@dataclass(frozen=True)
class RootFindConfig:
    """Bracket and stopping parameters for solve_root."""

    bracket_lo: float
    bracket_hi: float
    x_tol: float = 1.0e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not self.bracket_lo < self.bracket_hi:
            raise ValueError(
                f"bracket out of order: [{self.bracket_lo}, {self.bracket_hi}]"
            )
        if not self.x_tol > 0.0:
            raise ValueError(f"x_tol must be positive, got {self.x_tol}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be a positive integer, got {self.max_iterations}"
            )


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


def solve_root(f: Callable[[float], float], cfg: RootFindConfig) -> float:
    """Find a root of f inside a sign-changing bracket (Brent's method).

    Combines bisection with inverse-quadratic acceleration; every iterate
    stays inside the current bracket, so convergence to x_tol is guaranteed
    for continuous f.
    """
    a, b = cfg.bracket_lo, cfg.bracket_hi
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
    for _ in range(cfg.max_iterations):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * cfg.x_tol
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
        f"root not bracketed to x_tol={cfg.x_tol} within "
        f"{cfg.max_iterations} iterations"
    )


def compute_K(tol: Tolerance) -> float:
    """The constant K = int_0^1 (1/x**2) (1/sqrt(1-x**4) - 1) dx.

    The integrand extends continuously by 0 at x = 0 (it behaves like
    x**2/2 there) and carries a 1/sqrt(1-x) singularity at x = 1; it is
    evaluated in the cancellation-free form
    x**2 / (sqrt(1-x**4) * (1 + sqrt(1-x**4))) with the singular factor
    split off for the substitution.
    """

    def smooth(x: float) -> float:
        quartic = max(1.0 - x * x * x * x, 0.0)
        return x * x / (
            math.sqrt((1.0 + x) * (1.0 + x * x)) * (1.0 + math.sqrt(quartic))
        )

    return quad_sqrt_endpoint(smooth, "upper", 0.0, 1.0, tol).value


def solve_a_c(tol: Tolerance) -> float:
    """Maximizer a_c of rho, located as the root of rho'.

    rho' is a closed form in Carlson's R_J and R_D; rho'(a_c) = 0 is
    bracketed by [0.3, 0.7].
    """
    cfg = RootFindConfig(0.3, 0.7, x_tol=1.0e-10, max_iterations=100)
    return solve_root(lambda a: _rho_prime(a, tol), cfg)


def solve_a_0(K: float, tol: Tolerance) -> float:
    """Unique zero of the comparison function mvt_f on (0, log(3/2))."""
    if not 0.0 < K < 1.0:
        raise ValueError(f"K must lie in (0, 1), got {K}")
    cfg = RootFindConfig(
        1.0e-6,
        math.log(1.5),
        x_tol=max(tol.abs_tol, 1.0e-14),
        max_iterations=200,
    )
    return solve_root(lambda x: mvt_f(x, K), cfg)


def _solve_a_L_between(a_c: float, a_l: float, tol: Tolerance) -> float:
    cfg = RootFindConfig(a_c, a_l, x_tol=1.0e-10, max_iterations=100)
    return solve_root(lambda a: area_deficit(a, tol), cfg)


def solve_a_L(tol: Tolerance) -> float:
    """Unique zero a_L of the area deficit, bracketed between a_c and a_l."""
    a_c = solve_a_c(tol)
    K = compute_K(tol)
    a_l = math.acosh(1.0 / (1.0 - K))
    return _solve_a_L_between(a_c, a_l, tol)


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
    a_L = _solve_a_L_between(a_c, a_l, tol)
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
