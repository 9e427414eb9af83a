"""Circles on the sphere at infinity and their hyperbolic plane distance.

A circle in the boundary plane chart is stored as a spacelike unit vector in
Minkowski 4-space (inversive coordinates); the distance between the geodesic
planes spanning two disjoint circles is then arccosh of the inner product's
magnitude.  The module also provides Moebius actions, reduction of a disjoint
pair to concentric position, and the enumeration of catenoids asymptotic to
a given pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .catenoid import gomes_rho
from .competitor import RegimeLabel, classify_regime
from .constants import BracketError, ConstantsBundle, RootFindConfig, solve_root
from .quadrature import Tolerance

__all__ = [
    "CatenoidSolutions",
    "CircleAtInfinity",
    "DegenerateCircleError",
    "IntersectingCirclesError",
    "IsometryMap",
    "apply_isometry",
    "axis_translation",
    "boundary_circles",
    "catenoids_for_circles",
    "catenoids_for_separation",
    "circle_from_center_radius",
    "inversive_product",
    "normalize_coaxial",
    "plane_distance",
]

# Pairs with inversive product magnitude within this margin of 1 are treated
# as tangent; the underlying theory requires strictly disjoint circles.
_TANGENCY_MARGIN = 1.0e-12

# Relative collinearity threshold for the three-point circle refit.
_COLLINEAR_TOL = 1.0e-10

# Outer-branch brackets stop expanding here; separations below 2*rho(25)
# (about 3e-11) are indistinguishable from zero anyway.
_BRANCH_CAP = 25.0


class IntersectingCirclesError(ValueError):
    """Raised for circle pairs that intersect or touch; no plane distance exists."""


class DegenerateCircleError(ValueError):
    """Raised when a chart operation meets a line-like or collapsed circle."""


@dataclass(frozen=True)
class CircleAtInfinity:
    """Round circle on the boundary sphere, as inversive coordinates.

    The vector (v1, v2, v3, v4) is unit spacelike for the quadratic form
    v1**2 + v2**2 + v3**2 - v4**2 and is canonically signed so v4 - v3,
    which equals 1/radius in the planar chart, is nonnegative.  Euclidean
    lines (circles through the chart's point at infinity) have v4 = v3 and
    no center/radius readback.
    """

    coords: tuple[float, float, float, float]

    @property
    def is_line(self) -> bool:
        v1, v2, v3, v4 = self.coords
        return v4 - v3 == 0.0

    @property
    def radius(self) -> float:
        v1, v2, v3, v4 = self.coords
        gap = v4 - v3
        if gap <= 0.0:
            raise DegenerateCircleError("a chart line has no center/radius readback")
        return 1.0 / gap

    @property
    def center(self) -> complex:
        rho = self.radius
        v1, v2, _, _ = self.coords
        return complex(v1 * rho, v2 * rho)


def _circle_from_coords(v1: float, v2: float, v3: float, v4: float) -> CircleAtInfinity:
    """Normalize a raw Minkowski vector to a canonical unit representative."""
    norm_sq = v1 * v1 + v2 * v2 + v3 * v3 - v4 * v4
    if not norm_sq > 0.0:
        raise DegenerateCircleError(
            f"inversive vector is not spacelike (norm^2 = {norm_sq})"
        )
    scale = 1.0 / math.sqrt(norm_sq)
    v1, v2, v3, v4 = v1 * scale, v2 * scale, v3 * scale, v4 * scale
    gap = v4 - v3
    if gap < 0.0 or (gap == 0.0 and (v1 < 0.0 or (v1 == 0.0 and v2 < 0.0))):
        v1, v2, v3, v4 = -v1, -v2, -v3, -v4
    return CircleAtInfinity((v1, v2, v3, v4))


def circle_from_center_radius(c: complex, rho_e: float) -> CircleAtInfinity:
    """Circle with Euclidean center c and radius rho_e in the boundary chart."""
    c = complex(c)
    if not rho_e > 0.0:
        raise ValueError(f"radius must be positive, got {rho_e}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag) and math.isfinite(rho_e)):
        raise ValueError(f"circle parameters must be finite, got c={c}, rho_e={rho_e}")
    cc = c.real * c.real + c.imag * c.imag
    half_inv = 0.5 / rho_e
    return _circle_from_coords(
        c.real / rho_e,
        c.imag / rho_e,
        (cc - rho_e * rho_e - 1.0) * half_inv,
        (cc - rho_e * rho_e + 1.0) * half_inv,
    )


def inversive_product(circle1: CircleAtInfinity, circle2: CircleAtInfinity) -> float:
    """Minkowski inner product of the two inversive vectors."""
    u1, u2, u3, u4 = circle1.coords
    w1, w2, w3, w4 = circle2.coords
    return u1 * w1 + u2 * w2 + u3 * w3 - u4 * w4


def plane_distance(
    circle1: CircleAtInfinity, circle2: CircleAtInfinity, closed: bool = False
) -> float:
    """Hyperbolic distance between the geodesic planes spanning two circles.

    Requires a disjoint pair (inversive product magnitude above 1).  With
    closed=True, tangent or identical circles return distance 0 instead of
    raising.
    """
    product = inversive_product(circle1, circle2)
    magnitude = abs(product)
    if magnitude <= 1.0 + _TANGENCY_MARGIN:
        if closed and magnitude >= 1.0 - _TANGENCY_MARGIN:
            return 0.0
        raise IntersectingCirclesError(
            f"circles intersect or are tangent (inversive product {product})"
        )
    return math.acosh(magnitude)


@dataclass(frozen=True)
class IsometryMap:
    """Linear fractional transformation as a 2x2 complex matrix, det = 1.

    Identified up to overall sign; build instances through from_matrix,
    which normalizes the determinant.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        ad, bc = self.a * self.d, self.b * self.c
        det = ad - bc
        # ad - bc carries roundoff of the order eps * max(|ad|, |bc|).
        if abs(det - 1.0) > 1.0e-12 * max(1.0, abs(ad), abs(bc)):
            raise ValueError(f"matrix determinant must be 1, got {det}")

    @classmethod
    def from_matrix(cls, a: complex, b: complex, c: complex, d: complex) -> IsometryMap:
        det = a * d - b * c
        if det == 0:
            raise ValueError("matrix is singular")
        scale = cmath.sqrt(det)
        return cls(a / scale, b / scale, c / scale, d / scale)

    @classmethod
    def identity(cls) -> IsometryMap:
        return cls(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def compose(self, other: IsometryMap) -> IsometryMap:
        """The map z -> self(other(z))."""
        return IsometryMap.from_matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> IsometryMap:
        return IsometryMap(self.d, -self.b, -self.c, self.a)


def axis_translation(lam: float) -> IsometryMap:
    """Translation by log(lam) along the vertical axis: z -> lam * z on the chart."""
    if not lam > 0.0:
        raise ValueError(f"scaling factor must be positive, got {lam}")
    root = math.sqrt(lam)
    return IsometryMap(complex(root), 0.0j, 0.0j, complex(1.0 / root))


def _three_points(circle: CircleAtInfinity, mapping: IsometryMap) -> list[complex]:
    """Three points of the circle, steered away from the mapping's pole."""
    if circle.is_line:
        v1, v2, v3, _ = circle.coords
        normal = complex(v1, v2)
        base = v3 * normal
        direction = complex(-v2, v1)
        return [base - direction, base, base + direction]
    center = circle.center
    radius = circle.radius
    base_angle = 0.0
    if mapping.c != 0:
        pole = -mapping.d / mapping.c
        offset = pole - center
        if offset != 0:
            # The pole may sit on the circle; keep all samples at angular
            # distance >= pi/3 from it.
            base_angle = math.atan2(offset.imag, offset.real) + math.pi / 3.0
    third = 2.0 * math.pi / 3.0
    return [
        center + radius * cmath.exp(1j * (base_angle + k * third)) for k in range(3)
    ]


def apply_isometry(mapping: IsometryMap, circle: CircleAtInfinity) -> CircleAtInfinity:
    """Image of a circle under a linear fractional map, by three-point refit."""
    try:
        w1, w2, w3 = (mapping(z) for z in _three_points(circle, mapping))
    except ZeroDivisionError as exc:
        raise DegenerateCircleError("a sample point hit the mapping's pole") from exc
    num = (
        (w1.real * w1.real + w1.imag * w1.imag) * (w2 - w3)
        + (w2.real * w2.real + w2.imag * w2.imag) * (w3 - w1)
        + (w3.real * w3.real + w3.imag * w3.imag) * (w1 - w2)
    )
    den = w1.conjugate() * (w2 - w3) + w2.conjugate() * (w3 - w1) + w3.conjugate() * (w1 - w2)
    span = max(abs(w1 - w2), abs(w2 - w3), abs(w3 - w1))
    if not span > 0.0 or not math.isfinite(span):
        raise DegenerateCircleError("image points collapsed or overflowed")
    if abs(den) <= _COLLINEAR_TOL * span * span:
        raise DegenerateCircleError(
            "image points are nearly collinear; the image is a line through infinity"
        )
    center = num / den
    radius = (abs(w1 - center) + abs(w2 - center) + abs(w3 - center)) / 3.0
    return circle_from_center_radius(center, radius)


def normalize_coaxial(
    circle1: CircleAtInfinity, circle2: CircleAtInfinity
) -> IsometryMap:
    """Isometry carrying a disjoint pair to concentric circles about 0.

    Sends the pencil's two limit points to 0 and infinity, oriented so the
    first circle's image is the inner one; log of the image radii ratio then
    reproduces the plane distance.
    """
    if abs(inversive_product(circle1, circle2)) <= 1.0 + _TANGENCY_MARGIN:
        raise IntersectingCirclesError("coaxial normalization needs a disjoint pair")
    if circle1.is_line or circle2.is_line:
        raise DegenerateCircleError("coaxial normalization supports chart circles only")
    c1, r1 = circle1.center, circle1.radius
    c2, r2 = circle2.center, circle2.radius
    sep = abs(c2 - c1)

    if sep <= 1.0e-14 * max(r1, r2, 1.0):
        # Already concentric: translate the common center to 0 and invert
        # if needed so the first circle lands inside.
        recenter = IsometryMap.from_matrix(1.0, -c1, 0.0, 1.0)
        if r1 > r2:
            return IsometryMap.from_matrix(0.0, 1.0, 1.0, 0.0).compose(recenter)
        return recenter

    axis = (c2 - c1) / sep
    midpoint = (sep * sep + r1 * r1 - r2 * r2) / (2.0 * sep)
    disc = midpoint * midpoint - r1 * r1
    if disc <= 0.0:
        raise IntersectingCirclesError(
            "limit points are not real; circles are too close to tangency"
        )
    shift = math.sqrt(disc)
    p = c1 + (midpoint - shift) * axis
    q = c1 + (midpoint + shift) * axis
    mapping = IsometryMap.from_matrix(1.0, -p, 1.0, -q)
    if apply_isometry(mapping, circle1).radius > apply_isometry(mapping, circle2).radius:
        mapping = IsometryMap.from_matrix(1.0, -q, 1.0, -p)
    return mapping


@dataclass(frozen=True)
class CatenoidSolutions:
    """Catenoids asymptotic to a circle pair at the given plane separation."""

    separation: float
    solutions: tuple[tuple[float, RegimeLabel], ...]


def catenoids_for_separation(
    d: float,
    bundle: ConstantsBundle,
    tol: Tolerance,
    critical_window: float = 1.0e-4,
) -> CatenoidSolutions:
    """Solve 2*rho(a) = d for all neck distances a.

    Above the maximal separation 2*rho(a_c) there is no solution; within
    critical_window of it the two branches merge into the single a_c; below
    it one root lies on each side of a_c.
    """
    if not d > 0.0:
        raise ValueError(f"plane separation must be positive, got {d}")
    if d > bundle.two_rho_ac + critical_window:
        return CatenoidSolutions(d, ())
    if abs(d - bundle.two_rho_ac) <= critical_window:
        a = bundle.a_c
        return CatenoidSolutions(d, ((a, classify_regime(a, bundle)),))

    def residual(a: float) -> float:
        return 2.0 * gomes_rho(a, tol) - d

    x_tol = max(tol.abs_tol, 1.0e-12)
    inner = solve_root(
        residual, RootFindConfig(1.0e-6, bundle.a_c, x_tol=x_tol, max_iterations=100)
    )

    hi = 2.0 * bundle.a_c
    while residual(hi) > 0.0:
        hi *= 2.0
        if hi > _BRANCH_CAP:
            raise BracketError(
                f"outer branch of 2*rho(a) = {d} not bracketed below a = {_BRANCH_CAP}"
            )
    outer = solve_root(
        residual, RootFindConfig(bundle.a_c, hi, x_tol=x_tol, max_iterations=100)
    )
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
    critical_window: float = 1.0e-4,
) -> CatenoidSolutions:
    """Catenoids asymptotic to a disjoint circle pair, via their plane distance."""
    d = plane_distance(circle1, circle2)
    return catenoids_for_separation(d, bundle, tol, critical_window=critical_window)


def boundary_circles(
    a: float, bundle: ConstantsBundle, tol: Tolerance
) -> tuple[CircleAtInfinity, CircleAtInfinity]:
    """Asymptotic boundary circles of the standard catenoid with neck distance a.

    The axis is the vertical line of the half-space chart and the surface is
    symmetric about height 1, giving concentric circles of radii
    exp(-rho(a)) and exp(+rho(a)); their plane distance is 2*rho(a).  The
    bundle argument mirrors the other classification entry points and is not
    consulted.
    """
    rho = gomes_rho(a, tol)
    return (
        circle_from_center_radius(0.0j, math.exp(-rho)),
        circle_from_center_radius(0.0j, math.exp(rho)),
    )
