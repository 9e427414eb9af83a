"""Circles on the sphere at infinity and their hyperbolic plane distance.

A circle in the boundary plane chart, Euclidean lines included, is stored as
a spacelike unit vector in Minkowski 4-space (inversive coordinates); the
distance between the geodesic planes spanning two disjoint circles is then
arccosh of the inner product's magnitude.  The same vector is the circle's
Hermitian matrix, on which a Moebius map acts linearly, so images of circles
and the reduction of a disjoint pair to concentric position are exact
(Schwerdtfeger, Geometry of Complex Numbers, 1962).  The module also
enumerates the catenoids asymptotic to a given pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .catenoid import _NECK_CAP, Tolerance, gomes_rho
from .competitor import RegimeLabel, classify_regime
from .constants import BracketError, ConstantsBundle, solve_root

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
    return _canonical(v1 * scale, v2 * scale, v3 * scale, v4 * scale)


def _canonical(v1: float, v2: float, v3: float, v4: float) -> CircleAtInfinity:
    """Sign a unit vector so v4 - v3 >= 0, breaking ties for lines on v1, v2."""
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


def plane_distance(circle1: CircleAtInfinity, circle2: CircleAtInfinity) -> float:
    """Hyperbolic distance between the geodesic planes spanning two circles.

    Requires a disjoint pair (inversive product magnitude above 1).
    """
    product = inversive_product(circle1, circle2)
    magnitude = abs(product)
    if magnitude <= 1.0 + _TANGENCY_MARGIN:
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
        """The map z -> self(other(z)).

        The product of unit-determinant matrices is unit-determinant, so no
        renormalization is needed (and none can fail on a rounded det of 0).
        """
        return IsometryMap(
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


def apply_isometry(mapping: IsometryMap, circle: CircleAtInfinity) -> CircleAtInfinity:
    """Image of a circle (or line) under a linear fractional map, exactly.

    The circle is the zero set of h11 |z|^2 + 2 Re(h12 conj(z)) + h22 with
    (h11, h12, h22) = (v4 - v3, -(v1 + i v2), v4 + v3); its image under M is
    the zero set of N^dagger H N with N = M^-1.  det N = 1 keeps det H = -1,
    so the image vector stays unit and only its sign is canonicalized.
    """
    v1, v2, v3, v4 = circle.coords
    h11, h12, h22 = v4 - v3, -complex(v1, v2), v4 + v3
    n11, n12, n21, n22 = mapping.d, -mapping.b, -mapping.c, mapping.a

    def form(p: complex, q: complex, r: complex, s: complex) -> complex:
        """(p, q)^dagger H (r, s)."""
        return p.conjugate() * (h11 * r + h12 * s) + q.conjugate() * (
            h12.conjugate() * r + h22 * s
        )

    g11 = form(n11, n21, n11, n21).real
    g12 = form(n11, n21, n12, n22)
    g22 = form(n12, n22, n12, n22).real
    return _canonical(-g12.real, -g12.imag, 0.5 * (g22 - g11), 0.5 * (g22 + g11))


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

    The pencil's limit points are the null vectors u + t w of the pair's
    span, 1 + 2 t p + t^2 = 0 with p = <u, w>.  The map sends one to 0 and
    the other to infinity, oriented so the first circle's image is the inner
    one; log of the image radii ratio then reproduces the plane distance.
    Separated, nested, concentric and line pairs all take this one path.
    """
    p = inversive_product(circle1, circle2)
    if abs(p) <= 1.0 + _TANGENCY_MARGIN:
        raise IntersectingCirclesError("coaxial normalization needs a disjoint pair")
    # The root of larger magnitude avoids cancellation; the roots multiply to 1.
    t = -p - math.copysign(math.sqrt((abs(p) - 1.0) * (abs(p) + 1.0)), p)
    (x1, y1), (x2, y2) = (
        _limit_point(circle1.coords, circle2.coords, root) for root in (t, 1.0 / t)
    )
    mapping = IsometryMap.from_matrix(y1, -x1, y2, -x2)
    image1, image2 = (apply_isometry(mapping, c).coords for c in (circle1, circle2))
    # The inner image has the larger curvature v4 - v3 = 1 / radius.
    if image1[3] - image1[2] < image2[3] - image2[2]:
        mapping = IsometryMap.from_matrix(y2, -x2, y1, -x1)
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
) -> CatenoidSolutions:
    """Solve 2*rho(a) = d for all neck distances a.

    Above the maximal separation 2*rho(a_c) there is no solution; within
    2*abs_tol of it, the tie window the caller sets (``--tol`` on the CLI),
    the two branches merge into the single a_c; below it one root lies on
    each side of a_c.  The outer root is sought below a = 25, the end of
    rho's domain, so d must exceed 2*rho(25) ~ 3.3e-11.
    """
    if not d > 0.0:
        raise ValueError(f"plane separation must be positive, got {d}")
    window = 2.0 * tol.abs_tol
    if d > bundle.two_rho_ac + window:
        return CatenoidSolutions(d, ())
    if abs(d - bundle.two_rho_ac) <= window:
        a = bundle.a_c
        return CatenoidSolutions(d, ((a, classify_regime(a, bundle)),))

    def residual(a: float) -> float:
        return 2.0 * gomes_rho(a, tol) - d

    # rho(a) < a log(2/a) on the inner branch, and lo = d / (4 log(4/d)),
    # half the leading-order inverse of rho = d/2, has lo log(2/lo) < d/2.
    # solve_root stops at eps times the bracket's lower end, so a tiny inner
    # root keeps its digits.
    lo = d / (4.0 * math.log(4.0 / d))
    inner = solve_root(residual, lo, bundle.a_c)

    hi = 2.0 * bundle.a_c
    while residual(hi) > 0.0:
        if hi == _NECK_CAP:
            raise BracketError(
                f"outer branch of 2*rho(a) = {d} not bracketed below a = {_NECK_CAP}"
            )
        hi = min(2.0 * hi, _NECK_CAP)
    outer = solve_root(residual, bundle.a_c, hi)
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


def boundary_circles(a: float, tol: Tolerance) -> tuple[CircleAtInfinity, CircleAtInfinity]:
    """Asymptotic boundary circles of the standard catenoid with neck distance a.

    The axis is the vertical line of the half-space chart and the surface is
    symmetric about height 1, giving concentric circles of radii
    exp(-rho(a)) and exp(+rho(a)); their plane distance is 2*rho(a).
    """
    rho = gomes_rho(a, tol)
    return (
        circle_from_center_radius(0.0j, math.exp(-rho)),
        circle_from_center_radius(0.0j, math.exp(rho)),
    )
