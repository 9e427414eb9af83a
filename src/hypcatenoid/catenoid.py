"""Scalar functions of the spherical catenoid family.

A catenoid is labeled by its neck distance a > 0 to the rotation axis.  In
warped-product coordinates (x along the axis, y distance to the axis) its
profile is the catenary x(y), an integral with an inverse-square-root
singularity at y = a.  This module evaluates the profile, the asymptotic
half-separation rho(a), tube and disk areas, the area difference Phi(a, r),
its large-r limit (the deficit), and the two terms of the deficit's second
derivative.

The profile is an elliptic integral of the third kind.  With w = sinh(a)**2
and s = sinh(t)**2 - w its integrand becomes
sinh(2a) / (4 (s + 1 + w) sqrt(s (s + w) (s + 1 + 2w))) ds, so rho(a), its
derivative and x(y) are Carlson symmetric integrals R_F, R_J and R_D,
evaluated to rounding by duplication (Carlson, Numer. Algorithms 10, 1995;
DLMF 19.36) with no quadrature; their tol arguments do not affect them.

The area integrals run over delta = t - a from the neck, where each
integrand f(delta) carries a 1/sqrt(delta) singularity and decays like
exp(-3 delta).  The radicand sinh(2t)**2 - sinh(2a)**2 is evaluated through
the exact factorization sinh(2 delta) * sinh(4a + 2 delta), which is
nonnegative by construction and free of cancellation.  One helper
integrates every such f: on delta in [0, 1] it substitutes delta = u**2,
which removes the singular weight, and past delta = 1 it integrates f
itself.
"""

from __future__ import annotations

import math
import sys
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
# finite.  catenary_x clamps y - a here for the same reason.
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


# Duplication stops once the arguments agree to this relative spread: the
# fifth-order series then errs by O(spread**6) ~ eps / 4 (Carlson 1995).
_DUPLICATION_SPREAD = (sys.float_info.epsilon / 4.0) ** (1.0 / 6.0)


def _rc_unit(e: float) -> float:
    """Carlson's R_C(1, 1 + e) for e > -1: atan(sqrt(e)) / sqrt(e), or atanh."""
    if abs(e) < 1.0e-4:
        return 1.0 - e * (1.0 / 3.0 - e * (0.2 - e / 7.0))
    if e > 0.0:
        s = math.sqrt(e)
        return math.atan(s) / s
    s = math.sqrt(-e)
    return math.atanh(s) / s


def _carlson(
    x: float, y: float, z: float, p: float, gap: float
) -> tuple[float, float]:
    """Carlson's R_F(x, y, z) and R_J(x, y, z, p) from one duplication sequence.

    x, y, z >= 0 with at most one zero, p > 0, and gap = (p-x)(p-y)(p-z)
    supplied exactly by the caller; R_D(x, y, z) is R_J(x, y, z, z) with
    gap 0.  Each step moves every argument v to (v + lam) / 4, which leaves
    R_F unchanged and changes R_J by a known R_C term, until the arguments
    agree closely enough for a fifth-order series about their mean
    (Carlson, Numer. Algorithms 10, 1995; DLMF 19.36.i).  The first R_C
    term loses digits as gap / ((sp + sx)(sp + sy)(sp + sz))**2 nears -1,
    with sv = sqrt(v); for every caller here that ratio stays above -0.02.
    """
    # Every step keeps the order of the arguments and divides their spread
    # by 4, so the spread need not be recomputed: only the smallest moves.
    spread = (max(x, y, z, p) - min(x, y, z, p)) / _DUPLICATION_SPREAD
    least = min(x, y, z, p)
    scale = 1.0  # 4**-m after m steps
    tail = 0.0
    while spread * scale > least:
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        tail += scale * _rc_unit(gap * scale**3 / (d * d)) / d
        x, y = 0.25 * (x + lam), 0.25 * (y + lam)
        z, p = 0.25 * (z + lam), 0.25 * (p + lam)
        least = 0.25 * (least + lam)
        scale *= 0.25

    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0)
    rf /= math.sqrt(mean)

    mean = (x + y + z + 2.0 * p) / 5.0
    dx, dy, dz = 1.0 - x / mean, 1.0 - y / mean, 1.0 - z / mean
    dp = -0.5 * (dx + dy + dz)
    xyz = dx * dy * dz
    e2 = dx * dy + dx * dz + dy * dz - 3.0 * dp * dp
    e3 = xyz + 2.0 * e2 * dp + 4.0 * dp**3
    e4 = (2.0 * xyz + e2 * dp + 3.0 * dp**3) * dp
    e5 = xyz * dp * dp
    series = (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
    )
    rj = scale * series / (mean * math.sqrt(mean)) + 6.0 * tail
    return rf, rj


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


def _rho_rj(w: float) -> float:
    """R_J(0, w, 1 + 2w, 1 + w); rho(a) is sinh(2a) / 6 times it at w = sinh(a)**2."""
    return _carlson(0.0, w, 1.0 + 2.0 * w, 1.0 + w, -w * (1.0 + w))[1]


def gomes_rho(a: float, tol: Tolerance) -> float:
    """Asymptotic half-separation rho(a) of the catenoid's boundary planes.

    rho(a) is the integral of sinh(2a) / (cosh t * sqrt(sinh(2t)**2 -
    sinh(2a)**2)) for t from a to infinity.  With w = sinh(a)**2 and
    s = sinh(t)**2 - w it is (sinh(2a) / 6) * R_J(0, w, 1 + 2w, 1 + w),
    evaluated to rounding whatever tol is.
    """
    _check_neck(a)
    return math.sinh(2.0 * a) / 6.0 * _rho_rj(math.sinh(a) ** 2)


def _rho_prime(a: float, tol: Tolerance) -> float:
    """Derivative of rho in closed form, exact to rounding whatever tol is.

    d/da of (sinh(2a) / 6) * R_J(0, w, 1 + 2w, 1 + w) with dw/da = sinh(2a).
    The partial derivatives of R_J come from R_D and the degree -3/2
    homogeneity of R_J, with the exact differences p - y = 1, p - z = -w.
    """
    w = math.sinh(a) ** 2
    y, z, p = w, 1.0 + 2.0 * w, 1.0 + w
    rj = _rho_rj(w)
    d_y = -0.5 * (_carlson(0.0, z, y, y, 0.0)[1] - rj)
    d_z = (_carlson(0.0, y, z, z, 0.0)[1] - rj) / (2.0 * w)
    d_p = (-1.5 * rj - y * d_y - z * d_z) / p
    return (
        math.cosh(2.0 * a) / 3.0 * rj
        + math.sinh(2.0 * a) ** 2 / 6.0 * (d_y + 2.0 * d_z + d_p)
    )


def catenary_x(a: float, y: float, tol: Tolerance) -> float:
    """Axial coordinate x(y) of the catenary profile, zero at the neck y = a.

    With w = sinh(a)**2 and T = sinh(y - a) * sinh(y + a) = sinh(y)**2 - w,
    x(y) = (sinh(2a) / 4) * int_0^T ds / ((s + p) sqrt(s (s + w) (s + c)))
    for p = 1 + w, c = 1 + 2w.  The substitution s = T w c / (u + w c) maps
    [0, T] onto the ray and gives R_F minus an R_J term that is O(T) smaller,
    so x(y) keeps full relative accuracy at the neck.  Past y - a =
    _TAIL_SPAN, x(y) equals rho(a) to rounding and y is clamped there, which
    keeps sinh finite.  The value is exact to rounding whatever tol is.
    """
    _check_neck(a)
    if y < a:
        raise ValueError(f"profile coordinate y={y} below the neck distance a={a}")
    delta = min(y - a, _TAIL_SPAN)
    t = math.sinh(delta) * math.sinh(2.0 * a + delta)
    w = math.sinh(a) ** 2
    c, p = 1.0 + 2.0 * w, 1.0 + w
    wc = w * c
    rf, rj = _carlson(
        c * (t + w),
        w * (t + c),
        wc,
        wc * (t + p) / p,
        -(c * t / p) * (w * w * t / p) * (wc * t / p),
    )
    scale = math.sinh(2.0 * a) * math.sqrt(t) / (2.0 * p)
    return scale * (rf - wc * t / (3.0 * p) * rj)


def sample_catenary(a: float, y_max: float, n: int, tol: Tolerance) -> CatenarySample:
    """Sample n profile points graded toward the neck where dx/dy blows up.

    Node spacing follows y_i = a + (y_max - a) * (i/(n-1))**2, matching the
    (y - a)**(-1/2) growth of the profile slope at the neck.  Each x is
    catenary_x, exact to rounding whatever tol is.
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
