"""Circles on the sphere at infinity and their hyperbolic plane distance.

A circle in the boundary plane chart, Euclidean lines included, is stored as
a spacelike unit vector in Minkowski 4-space (inversive coordinates); the
distance between the geodesic planes spanning two disjoint circles is then
arccosh of the inner product's magnitude.  The same vector is the circle's
Hermitian matrix, whose null combinations give a disjoint pair's limit
points and so the Moebius map reducing it to concentric position
(Schwerdtfeger, Geometry of Complex Numbers, 1962).  The module also
enumerates the catenoids asymptotic to a given pair.
"""

from __future__ import annotations

import cmath
import math

from . import _EXPORTS
from .catenoid import _NECK_CAP, Tolerance, _Record, _neck_terms
from .competitor import RegimeLabel, classify_regime
from .constants import BracketError, ConstantsBundle, solve_root

__all__ = _EXPORTS["circles"]

class IntersectingCirclesError(ValueError):
    """Raised for circle pairs that intersect or touch; no plane distance exists."""


class DegenerateCircleError(ValueError):
    """Raised for a circle or pair the chart cannot hold."""


class CircleAtInfinity(_Record):
    """Round circle on the boundary sphere, as inversive coordinates.

    The vector (v1, v2, v3, v4) is unit spacelike for the quadratic form
    v1**2 + v2**2 + v3**2 - v4**2 and is canonically signed so v4 - v3,
    which equals 1/radius in the planar chart, is nonnegative.  Euclidean
    lines (circles through the chart's point at infinity) have v4 = v3.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[float, float, float, float]):
        object.__setattr__(self, "coords", coords)


def _check_parameters(c: complex, rho_e: float) -> None:
    if not rho_e > 0.0:
        raise ValueError(f"radius must be positive, got {rho_e}")
    if not (cmath.isfinite(c) and math.isfinite(rho_e)):
        raise ValueError(f"circle parameters must be finite, got c={c}, rho_e={rho_e}")


def circle_from_center_radius(c: complex, rho_e: float) -> CircleAtInfinity:
    """Circle with Euclidean center c and radius rho_e in the boundary chart.

    Its vector (Re c, Im c, (|c|**2 - rho_e**2 - 1) / 2, (|c|**2 - rho_e**2
    + 1) / 2) / rho_e has Minkowski norm exactly 1 and v4 - v3 = 1 / rho_e
    > 0, so it is stored as built, already unit and canonically signed.
    Recomputing the norm would cancel terms of size (|c|**2 / rho_e)**2.
    A pair far from the chart origin compared with both radii (v3 and v4
    then nearly agree), or with radii far below 1, loses digits in its
    inversive product that no later step restores; circle_pair builds the
    pair after moving the first circle onto the unit circle.
    """
    c = complex(c)
    _check_parameters(c, rho_e)
    norm = c.real * c.real + c.imag * c.imag
    half_inv = 0.5 / rho_e
    # 1 - rho_e**2 as a product keeps its digits for radii near 1.
    v3 = (norm - rho_e * rho_e - 1.0) * half_inv
    v4 = (norm + (1.0 - rho_e) * (1.0 + rho_e)) * half_inv
    # A finite v4 - v3 = 1 / rho_e also bounds v1, v2, v3 and v4.
    if not 0.0 < v4 - v3 < math.inf:
        raise DegenerateCircleError(
            f"circle of radius {rho_e} at {c} does not fit the inversive chart"
        )
    return CircleAtInfinity((c.real / rho_e, c.imag / rho_e, v3, v4))


def circle_pair(
    c1: complex, r1: float, c2: complex, r2: float
) -> tuple[CircleAtInfinity, CircleAtInfinity]:
    """Two circles of centres c1, c2 and radii r1, r2, moved by z -> (z - c1) / r1.

    Translating and dilating is an isometry, so plane distances and
    catenoids are unchanged; with the first circle on the unit circle, the
    pair keeps the digits it would lose if built far from the chart origin
    or with radii far below 1 (see circle_from_center_radius).
    """
    _check_parameters(c1, r1)
    _check_parameters(c2, r2)
    ratio, shift = r2 / r1, c2 - c1
    offset = complex(shift.real / r1, shift.imag / r1)
    # A ratio whose reciprocal overflows has underflowed to subnormal, and
    # the second circle's vector, which holds 1/ratio, cannot be built.
    if not (0.0 < ratio < math.inf and 1.0 / ratio < math.inf):
        change = "overflows" if ratio == math.inf else "underflows"
        raise DegenerateCircleError(f"radius ratio r2/r1 = {r2}/{r1} {change}")
    if not cmath.isfinite(offset):
        raise DegenerateCircleError(f"offset (c2 - c1)/r1 = ({c2} - {c1})/{r1} overflows")
    return circle_from_center_radius(0j, 1.0), circle_from_center_radius(offset, ratio)


def inversive_product(circle1: CircleAtInfinity, circle2: CircleAtInfinity) -> float:
    """Minkowski inner product of the two inversive vectors."""
    u1, u2, u3, u4 = circle1.coords
    w1, w2, w3, w4 = circle2.coords
    return u1 * w1 + u2 * w2 + u3 * w3 - u4 * w4


def _disjoint_excess(
    circle1: CircleAtInfinity, circle2: CircleAtInfinity
) -> tuple[float, float]:
    """The inversive product p and |p| - 1 > 0, or IntersectingCirclesError.

    For unit vectors u, w and n = u - sign(p) w, |p| - 1 = -<n, n> / 2.  When
    n is small against the terms of p, the pair is near tangency or near
    coincidence and p - sign(p) cancels, while <n, n> keeps its digits; so
    the sign of |p| - 1 decides disjointness with no margin.
    """
    u1, u2, u3, u4 = circle1.coords
    w1, w2, w3, w4 = circle2.coords
    p = u1 * w1 + u2 * w2 + u3 * w3 - u4 * w4
    sign = math.copysign(1.0, p)
    n1, n2, n3, n4 = u1 - sign * w1, u2 - sign * w2, u3 - sign * w3, u4 - sign * w4
    spatial = n1 * n1 + n2 * n2 + n3 * n3
    if spatial + n4 * n4 < abs(u1 * w1) + abs(u2 * w2) + abs(u3 * w3) + abs(u4 * w4):
        excess = 0.5 * (n4 * n4 - spatial)
    else:
        excess = abs(p) - 1.0
    if not excess > 0.0:
        raise IntersectingCirclesError(
            f"circles intersect or are tangent (inversive product {p})"
        )
    return p, excess


def plane_distance(circle1: CircleAtInfinity, circle2: CircleAtInfinity) -> float:
    """Hyperbolic distance between the geodesic planes spanning two circles.

    Requires a disjoint pair (inversive product magnitude above 1).  The
    distance d has cosh d = |p|, computed as 2 asinh(sqrt((|p| - 1) / 2)) so
    that a near-tangent pair keeps its digits.  Vectors built far from the
    chart origin compared with both radii have already lost digits (see
    circle_from_center_radius) that it cannot restore.
    """
    excess = _disjoint_excess(circle1, circle2)[1]
    return 2.0 * math.asinh(math.sqrt(0.5 * excess))


class IsometryMap(_Record):
    """Moebius map z -> (a z + b) / (c z + d) of a nonsingular matrix of any scale."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        if a * d == b * c:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)


def _limit_point(
    u: tuple[float, ...], w: tuple[float, ...], t: float
) -> tuple[complex, complex]:
    """Homogeneous point (x : y) of the null vector n = u + t w.

    Both (n1 + i n2 : n4 - n3) and (n4 + n3 : n1 - i n2) span the kernel of
    n's rank-one Hermitian matrix; the one with the larger pivot is used.
    """
    n1, n2, n3, n4 = (ui + t * wi for ui, wi in zip(u, w))
    if abs(n4 - n3) >= abs(n4 + n3):
        return complex(n1, n2), complex(n4 - n3)
    return complex(n4 + n3), complex(n1, -n2)


def normalize_coaxial(
    circle1: CircleAtInfinity, circle2: CircleAtInfinity
) -> IsometryMap:
    """Isometry carrying a disjoint pair to concentric circles about 0.

    The pencil's limit points are the null vectors u + s w of the pair's
    span, s**2 + 2 p s + 1 = 0 with p = <u, w>; the roots are t and 1/t
    with |t| > 1.  A map sending the limit point of s to 0 and the other
    to infinity carries u and w to concentric circles of radii r_u and r_w
    with r_u / r_w = |s|: written in the two null vectors, each image's
    radius squared is the ratio of its two coefficients.  So the map sends
    the limit point of 1/t to 0, and the first circle's image is the inner
    one; log of the radii ratio then reproduces the plane distance.
    Separated, nested, concentric and line pairs all take this one path.
    The limit points are the matrix rows as they come: its scale is free.
    """
    p, excess = _disjoint_excess(circle1, circle2)
    # The root of larger magnitude avoids cancellation; the roots multiply to 1.
    t = -p - math.copysign(math.sqrt(excess * (excess + 2.0)), p)
    (x1, y1), (x2, y2) = (
        _limit_point(circle1.coords, circle2.coords, root) for root in (t, 1.0 / t)
    )
    return IsometryMap(y2, -x2, y1, -x1)


class CatenoidSolutions(_Record):
    """Catenoids asymptotic to a circle pair at the given plane separation."""

    __slots__ = ("separation", "solutions")

    def __init__(self, separation: float, solutions: tuple[tuple[float, RegimeLabel], ...]):
        object.__setattr__(self, "separation", separation)
        object.__setattr__(self, "solutions", solutions)


# 2*rho(25): the outer root is sought up to a = 25, the end of rho's domain,
# so no smaller separation has one.
_MIN_SEPARATION = 2.0 * _neck_terms(_NECK_CAP)[0]


def catenoids_for_separation(
    d: float,
    bundle: ConstantsBundle,
    tol: Tolerance,
) -> CatenoidSolutions:
    """Solve 2*rho(a) = d for all neck distances a.

    Above the maximal separation 2*rho(a_c) there is no solution; within
    2*abs_tol of it, the tie window the caller sets (``--tol`` on the CLI),
    the two branches merge into the single a_c; below it one root lies on
    each side of a_c.  The outer root is sought up to a = 25, the end of
    rho's domain, so d below 2*rho(25) ~ 3.3e-11 raises BracketError
    before any root is solved.

    Each root solves g(a) = log(2 rho(a) / d) = 0 by Chebyshev's third-order
    step (Traub, Iterative Methods for the Solution of Equations, 1964,
    ch. 5): the residual's one AGM loop also gives phi'', hence rho'', and
    its slope g' / (1 + t), t = g g'' / (2 g'**2), makes solve_root's Newton
    step the Chebyshev step (g / g') (1 + t).
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"plane separation must be positive and finite, got {d}")
    window = 2.0 * tol.abs_tol
    if d > bundle.two_rho_ac + window:
        return CatenoidSolutions(d, ())
    if abs(d - bundle.two_rho_ac) <= window:
        a = bundle.a_c
        return CatenoidSolutions(d, ((a, classify_regime(a, bundle)),))
    if d < _MIN_SEPARATION:
        raise BracketError(f"outer branch of 2*rho(a) = {d} has no root up to a = {_NECK_CAP}")

    def residual(a: float) -> tuple[float, float]:
        rho, drho, _, _, dphi2 = _neck_terms(a)
        g, slope = math.log(2.0 * rho / d), drho / rho
        if drho == 0.0:
            return g, slope
        # rho'' from phi'' = 2 pi (2 cosh(2a) rho' + sinh(2a) rho''); t in
        # the scale-free form g (rho rho'' / rho'**2 - 1) / 2 stays finite
        # where g'' = rho''/rho - g'**2 overflows, below a ~ 1e-154.
        two_a = 2.0 * a
        drho2 = (dphi2 / (2.0 * math.pi) - 2.0 * math.cosh(two_a) * drho) / math.sinh(two_a)
        t = 0.5 * g * (rho * drho2 / (drho * drho) - 1.0)
        # solve_root reads the crossing direction off the slope's sign.
        return g, slope / (1.0 + t) if 1.0 + t > 0.0 else slope

    # Near the maximum each root starts at a_c -+ q on the parabola through
    # (a_c, rho(a_c)), flat there, and (a_L, rho(a_L)).
    q = (bundle.a_L - bundle.a_c) * math.sqrt(
        (bundle.two_rho_ac - d) / (bundle.two_rho_ac - bundle.two_rho_aL)
    )
    # rho(a) < a log(2/a) on the inner branch and lo = d / (4 log(4/d)) has
    # lo log(2/lo) < d/2, so lo is below the root; one fixed-point step of
    # a = (d/2) / log(2/a) from 2 lo starts near it.  rho(a_c) > d/2 signs
    # the other end, and the floor eps * lo keeps a tiny root's digits.
    lo = d / (4.0 * math.log(4.0 / d))
    start = max(0.5 * d / math.log(1.0 / lo), bundle.a_c - q)
    inner = solve_root(residual, lo, bundle.a_c, start)
    # rho(a) e^a rises to 2 (1 - K), so a = log(4 (1 - K) / d) lies past the
    # outer root, and is the closer start once d < 2 rho(a_L) puts it past a_L.
    far = math.log(4.0 * (1.0 - bundle.K) / d)
    start = bundle.a_c + q if d >= bundle.two_rho_aL else far
    outer = solve_root(residual, bundle.a_c, _NECK_CAP, start)
    return CatenoidSolutions(
        d,
        (
            (inner, classify_regime(inner, bundle)),
            (outer, classify_regime(outer, bundle)),
        ),
    )


def catenoids_for_circles(
    circle1: CircleAtInfinity,
    circle2: CircleAtInfinity,
    bundle: ConstantsBundle,
    tol: Tolerance,
) -> CatenoidSolutions:
    """Catenoids asymptotic to a disjoint circle pair, via their plane distance."""
    return catenoids_for_separation(plane_distance(circle1, circle2), bundle, tol)
