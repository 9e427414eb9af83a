"""Scalar functions of the spherical catenoid family.

A catenoid is labeled by its neck distance a > 0 to the rotation axis.  In
warped-product coordinates (x along the axis, y distance to the axis) its
profile is the catenary x(y), an integral with an inverse-square-root
singularity at y = a.  This module evaluates the profile, the asymptotic
half-separation rho(a), tube and disk areas, the area difference Phi(a, r),
its large-r limit (the deficit), and the two terms of the deficit's second
derivative.

Every integral runs over delta = t - a from the neck, where each integrand
f(delta) carries a 1/sqrt(delta) singularity and decays like exp(-3 delta).
The radicand sinh(2t)**2 - sinh(2a)**2 is evaluated through the exact
factorization sinh(2 delta) * sinh(4a + 2 delta), which is nonnegative by
construction and free of cancellation.  One helper integrates every such f:
on delta in [0, 1] it substitutes delta = u**2, which removes the singular
weight, and past delta = 1 it integrates f itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import Tolerance, quad_finite, quad_semi_infinite

__all__ = [
    "AreaReport",
    "Catenoid",
    "CatenarySample",
    "area_deficit",
    "area_difference",
    "catenary_x",
    "concavity_terms",
    "disk_area_total",
    "gomes_rho",
    "mvt_f",
    "plane_separation",
    "sample_catenary",
    "tube_area",
]

_FOUR_PI = 4.0 * math.pi

# sinh(2a)**2 degrades doubles long before overflow; public entry points
# refuse neck distances past this cap.
_NECK_CAP = 25.0

# Split of every integral over delta: the u**2 substitution needs a finite
# interval and the exponential decay bounds hold past delta = 1.  Substituting
# over the whole ray instead costs more evaluations on the same tolerance.
_HEAD_SPAN = 1.0

# Integrands below decay like exp(-3 delta); past delta = _TAIL_SPAN their
# remaining mass is ~1e-41 at worst and is dropped when the upper limit is
# finite.
_TAIL_SPAN = 40.0

_DECAY_RATE = 3.0


def _check_neck(a: float) -> None:
    if not 0.0 < a <= _NECK_CAP:
        raise ValueError(f"neck distance must be in (0, {_NECK_CAP}], got {a}")


@dataclass(frozen=True)
class Catenoid:
    """A spherical catenoid, identified by its neck distance to the axis."""

    neck_distance: float

    def __post_init__(self) -> None:
        _check_neck(self.neck_distance)


@dataclass(frozen=True)
class CatenarySample:
    """Sampled catenary profile points (x, y) with their neck parameter."""

    points: tuple[tuple[float, float], ...]
    neck_distance: float


@dataclass(frozen=True)
class AreaReport:
    """Tube area, total disk area, and their difference Phi(a, r)."""

    tube_area: float
    disk_area_total: float
    phi_a_r: float


def _profile(a: float):
    """Catenary integrand sinh(2a) / (cosh t * sqrt(sinh(2t)**2 - sinh(2a)**2))."""
    sinh_2a = math.sinh(2.0 * a)

    def f(delta: float) -> float:
        radicand = math.sinh(2.0 * delta) * math.sinh(4.0 * a + 2.0 * delta)
        return sinh_2a / (math.cosh(a + delta) * math.sqrt(radicand))

    return f


def _ray_integral(f, hi: float, tol: Tolerance) -> float:
    """int_0^hi f(delta) d delta for f ~ 1/sqrt(delta) at 0; hi may be inf.

    The head is 2 * int u * f(u**2) du over [0, sqrt(min(hi, 1))], which has
    no singularity; past delta = 1 f decays like exp(-3 delta).  f is never
    evaluated at delta = 0, so a zero-width range costs nothing.
    """
    if hi == 0.0:
        return 0.0

    def head(u: float) -> float:
        return 2.0 * u * f(u * u)

    total = quad_finite(head, 0.0, math.sqrt(min(hi, _HEAD_SPAN)), tol).value
    if hi <= _HEAD_SPAN:
        return total
    if math.isinf(hi):
        return total + quad_semi_infinite(f, _HEAD_SPAN, _DECAY_RATE, tol).value
    return total + quad_finite(f, _HEAD_SPAN, min(hi, _TAIL_SPAN), tol).value


def gomes_rho(a: float, tol: Tolerance) -> float:
    """Asymptotic half-separation rho(a) of the catenoid's boundary planes.

    Integrates sinh(2a) / (cosh t * sqrt(sinh(2t)**2 - sinh(2a)**2)) for t
    from a to infinity.
    """
    _check_neck(a)
    return _ray_integral(_profile(a), math.inf, tol)


def _rho_prime(a: float, tol: Tolerance) -> float:
    """Derivative of rho, differentiated under the integral sign.

    In delta = t - a the singular factor 1/sqrt(sinh 2 delta) does not depend
    on a, so d/da acts on the profile integrand f through its log-derivative
    2 coth 2a - tanh(a + delta) - 2 coth(4a + 2 delta).
    """
    f = _profile(a)
    coth_2a = 1.0 / math.tanh(2.0 * a)

    def df(delta: float) -> float:
        slope = (
            2.0 * coth_2a
            - math.tanh(a + delta)
            - 2.0 / math.tanh(4.0 * a + 2.0 * delta)
        )
        return f(delta) * slope

    return _ray_integral(df, math.inf, tol)


def catenary_x(a: float, y: float, tol: Tolerance) -> float:
    """Axial coordinate x(y) of the catenary profile, zero at the neck y = a."""
    _check_neck(a)
    if y < a:
        raise ValueError(f"profile coordinate y={y} below the neck distance a={a}")
    return _ray_integral(_profile(a), y - a, tol)


def sample_catenary(a: float, y_max: float, n: int, tol: Tolerance) -> CatenarySample:
    """Sample n profile points graded toward the neck where dx/dy blows up.

    Node spacing follows y_i = a + (y_max - a) * (i/(n-1))**2, matching the
    (y - a)**(-1/2) growth of the profile slope at the neck.
    """
    _check_neck(a)
    if not y_max > a:
        raise ValueError(f"y_max={y_max} must exceed the neck distance a={a}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    span = y_max - a
    points = []
    for i in range(n):
        frac = i / (n - 1)
        y = a + span * frac * frac
        points.append((catenary_x(a, y, tol), y))
    return CatenarySample(tuple(points), a)


def disk_area_total(r: float) -> float:
    """Combined area 4*pi*(cosh r - 1) of the two geodesic disks of radius r."""
    if r < 0.0:
        raise ValueError(f"disk radius must be nonnegative, got {r}")
    return _FOUR_PI * (math.cosh(r) - 1.0)


def _deficit(a: float):
    """Combined tube-minus-disk integrand.

    True integrand: 4*pi*sinh(t) * (sinh(2t)/sqrt(D) - 1) with
    D = sinh(2t)**2 - sinh(2a)**2, rewritten as
    4*pi*sinh(t) * sinh(2a)**2 / (sqrt(D) * (sinh(2t) + sqrt(D))) so the
    e^(-3t) signal survives in doubles.
    """
    sinh_2a_sq = math.sinh(2.0 * a) ** 2

    def f(delta: float) -> float:
        sqrt_d = math.sqrt(math.sinh(2.0 * delta) * math.sinh(4.0 * a + 2.0 * delta))
        return (
            _FOUR_PI
            * math.sinh(a + delta)
            * sinh_2a_sq
            / (sqrt_d * (math.sinh(2.0 * a + 2.0 * delta) + sqrt_d))
        )

    return f


def _deficit_integral(a: float, r: float, tol: Tolerance) -> float:
    """4*pi * int_a^r sinh(t) * (sinh(2t)/sqrt(D) - 1) dt, r may be inf."""
    return _ray_integral(_deficit(a), r - a, tol)


def area_difference(a: float, r: float, tol: Tolerance) -> AreaReport:
    """Area difference Phi(a, r) between the tube and its two spanning disks.

    Phi is evaluated from the combined integrand, never as a difference of
    two large areas, so its absolute accuracy is independent of r; the tube
    area is reconstructed as Phi plus the closed-form disk area.
    """
    _check_neck(a)
    if r < a:
        raise ValueError(f"tube radius r={r} must be at least the neck distance a={a}")
    phi = _deficit_integral(a, r, tol) - _FOUR_PI * (math.cosh(a) - 1.0)
    disks = disk_area_total(r)
    return AreaReport(tube_area=phi + disks, disk_area_total=disks, phi_a_r=phi)


def tube_area(a: float, r: float, tol: Tolerance) -> float:
    """Area of the compact tube between the neck circle at a and radius r."""
    return area_difference(a, r, tol).tube_area


def area_deficit(a: float, tol: Tolerance) -> float:
    """Limit phi(a) of Phi(a, r) as r grows; positive exactly below its zero."""
    _check_neck(a)
    return _deficit_integral(a, math.inf, tol) - _FOUR_PI * (math.cosh(a) - 1.0)


def plane_separation(a: float, r: float, tol: Tolerance) -> float:
    """Distance L between the two spanning disks' planes; equals 2*x(r)."""
    _check_neck(a)
    if r < a:
        raise ValueError(f"tube radius r={r} must be at least the neck distance a={a}")
    return 2.0 * catenary_x(a, r, tol)


def mvt_f(x: float, K: float) -> float:
    """Increasing comparison function whose unique zero separates deficit concavity.

    f(x) = -30 cosh 3x - 18 cosh 5x + 10 sinh 7x + 15 (1-K) cosh 8x.
    """
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if not 0.0 < K < 1.0:
        raise ValueError(f"K must lie in (0, 1), got {K}")
    return (
        -30.0 * math.cosh(3.0 * x)
        - 18.0 * math.cosh(5.0 * x)
        + 10.0 * math.sinh(7.0 * x)
        + 15.0 * (1.0 - K) * math.cosh(8.0 * x)
    )


def _concavity(a: float):
    """Second concavity integrand, t-shifted so the singularity sits at 0.

    -4*pi * N(t) / (sqrt(sinh(2t) * sinh(4a+2t)) * sinh(4a+2t)**2) with
    N(t) = 5 cosh(a+t) - 3 cosh(3a+3t) - 3 cosh(5a+t) + cosh(7a+3t).
    """

    def f(t: float) -> float:
        numer = (
            5.0 * math.cosh(a + t)
            - 3.0 * math.cosh(3.0 * a + 3.0 * t)
            - 3.0 * math.cosh(5.0 * a + t)
            + math.cosh(7.0 * a + 3.0 * t)
        )
        sinh_outer = math.sinh(4.0 * a + 2.0 * t)
        radicand = math.sinh(2.0 * t) * sinh_outer
        return -_FOUR_PI * numer / (math.sqrt(radicand) * sinh_outer * sinh_outer)

    return f


def concavity_terms(a: float, tol: Tolerance) -> tuple[float, float]:
    """The two terms I1(a), I2(a) whose sum is the deficit's second derivative."""
    from .constants import compute_K  # deferred: constants builds on this module

    _check_neck(a)
    K = compute_K(tol)
    i1 = _deficit_integral(a, math.inf, tol) - _FOUR_PI * K * math.cosh(a)
    i2 = _ray_integral(_concavity(a), math.inf, tol)
    i2 -= _FOUR_PI * (1.0 - K) * math.cosh(a)
    return i1, i2
