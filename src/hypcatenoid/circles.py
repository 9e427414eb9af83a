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

import bisect
import cmath
import functools
import math

from . import _EXPORTS
from .catenoid import _NECK_CAP, Tolerance, _Record, _neck_terms
from .competitor import RegimeLabel, classify_regime
from .constants import BracketError, ConstantsBundle, solve_a_c

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


# Nodes per branch of the start table: 32 hold every start within eps**(1/3)
# of its root, so one Chebyshev step lands inside the root's rounding band.
_START_NODES = 32


def _rho_second(a: float, drho: float, dphi2: float) -> float:
    """rho''(a) from phi'' = 2 pi (2 cosh(2a) rho' + sinh(2a) rho'')."""
    two_a = 2.0 * a
    return (dphi2 / (2.0 * math.pi) - 2.0 * math.cosh(two_a) * drho) / math.sinh(two_a)


def _hermite(nodes: list[tuple[float, float, float]]) -> tuple[tuple, tuple]:
    """Knots and Horner coefficients of the cubic Hermite interpolant of
    nodes (s, y, dy/ds) in increasing s."""
    knots, cubics = [], []
    for (s0, y0, dy0), (s1, y1, dy1) in zip(nodes, nodes[1:]):
        h = s1 - s0
        m = (y1 - y0) / h
        knots.append(s0)
        c2, c3 = (3.0 * m - 2.0 * dy0 - dy1) / h, (dy0 + dy1 - 2.0 * m) / (h * h)
        cubics.append((s0, y0, dy0, c2, c3))
    return tuple(knots), tuple(cubics)


def _read(table: tuple[tuple, tuple], s: float) -> float:
    """The interpolant at s >= 0; past the last node, its last cubic."""
    knots, cubics = table
    s0, c0, c1, c2, c3 = cubics[bisect.bisect(knots, s) - 1]
    x = s - s0
    return c0 + x * (c1 + x * (c2 + x * c3))


@functools.cache
def _start_table() -> tuple[float, float, tuple[tuple, tuple], tuple[tuple, tuple]]:
    """2 rho(25) and 2 rho(a_c), which bound every d with roots, and the
    starts of both branches, as inverses of rho in sigma.

    On either branch the root a of 2 rho(a) = d is a smooth function of
    sigma = sqrt(log(2 rho(a_c) / d)), though a square root of d at the
    maximum: sigma**2 = log(rho(a_c) / rho(a)) is flat there, and a leaves
    a_c with slope -+q in sigma, q = sqrt(2 rho / -rho'') at a_c.  The inner
    branch tabulates log(a / d) = log(a / (2 rho(a))), which only drifts
    like -log log(1/a) as a -> 0.  The outer one tabulates a - sigma**2 =
    log(2 (1 - K) / rho(a_c)) + log(rho(a) e**a / (2 (1 - K))), whose last
    term rises to 0, so a tiny separation keeps the start a = log(4 (1 - K)
    / d), exact to rounding.  The nodes a_c exp(-t (t + q / a_c)) and
    a_c + t (t + q) lie about sigma = t apart; t runs to where the outer
    node reaches the cap a = 25, and the inner one there is past every
    inner root.  Each node takes rho and rho' from one AGM loop, so a build
    is 2 * 31 + 6 calls of _neck_terms (4 of them for a_c, 1 for rho(25)),
    once per process.
    """
    a_c = solve_a_c(Tolerance())
    rho_c, drho, _, _, dphi2 = _neck_terms(a_c)
    q = math.sqrt(-2.0 * rho_c / _rho_second(a_c, drho, dphi2))
    inner, outer = [(0.0, math.log(a_c / (2.0 * rho_c)), -q / a_c)], [(0.0, a_c, q)]
    t_end = 0.5 * (math.sqrt(q * q + 4.0 * (_NECK_CAP - a_c)) - q)

    def node(a: float) -> tuple[float, float, float, float, float]:
        """rho, rho', sigma**2, sigma and da/dsigma at a."""
        rho, drho = _neck_terms(a)[:2]
        s2 = math.log(rho_c / rho)
        s = math.sqrt(s2)
        return rho, drho, s2, s, -2.0 * rho * s / drho

    for k in range(1, _START_NODES):
        t = t_end * k / (_START_NODES - 1)
        a = a_c * math.exp(-t * (t + q / a_c))
        rho, drho, _, s, slope = node(a)
        inner.append((s, math.log(a / (2.0 * rho)), (1.0 / a - drho / rho) * slope))
        a = a_c + t * (t + q)
        _, _, s2, s, slope = node(a)
        outer.append((s, a - s2, slope - 2.0 * s))
    two_rho_cap = 2.0 * _neck_terms(_NECK_CAP)[0]
    return two_rho_cap, 2.0 * rho_c, _hermite(inner), _hermite(outer)


def _chebyshev_root(a: float, d: float) -> float:
    """a less Chebyshev's step (g / g') (1 + t) for g = log(2 rho / d).

    t = g g'' / (2 g'**2) in the scale-free form g (rho rho'' / rho'**2 - 1)
    / 2 stays finite where g'' = rho'' / rho - g'**2 overflows, below
    a ~ 1e-154.  No start is a_c, where rho' = 0: d = 2 rho(a_c) takes the
    tie, and a d one ulp below starts 1.2e-8 from a_c, where |rho'| ~ 2e-8.
    """
    rho, drho, _, _, dphi2 = _neck_terms(a)
    g = math.log(2.0 * rho / d)
    t = 0.5 * g * (rho * _rho_second(a, drho, dphi2) / (drho * drho) - 1.0)
    return a - g * rho / drho * (1.0 + t)


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
    before any root is solved.  Both bounds are rho's, from _start_table;
    the bundle names the tie's a_c and labels the roots.

    Both roots start from a piecewise-cubic Hermite inverse of rho
    (_start_table), built once per process in about 0.3 ms and read in
    about 1 us, which holds each start within eps**(1/3) of its root.  Each
    root is then one Chebyshev step (Traub, Iterative Methods for the
    Solution of Equations, 1964, ch. 5) on g(a) = log(2 rho(a) / d), whose
    third order lands it within the rounding band (_RHO_ERROR + eps) / |g'|
    of g; its one AGM loop gives rho, rho' and phi'', hence rho''.  So a
    root costs one AGM loop.
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"plane separation must be positive and finite, got {d}")
    two_rho_cap, two_rho_c, inner_start, outer_start = _start_table()
    window = 2.0 * tol.abs_tol
    if d > two_rho_c + window:
        return CatenoidSolutions(d, ())
    if abs(d - two_rho_c) <= window:
        a = bundle.a_c
        return CatenoidSolutions(d, ((a, classify_regime(a, bundle)),))
    if d < two_rho_cap:
        raise BracketError(f"outer branch of 2*rho(a) = {d} has no root up to a = {_NECK_CAP}")
    s2 = math.log1p((two_rho_c - d) / d)
    s = math.sqrt(s2)
    inner = _chebyshev_root(d * math.exp(_read(inner_start, s)), d)
    outer = _chebyshev_root(s2 + _read(outer_start, s), d)
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
