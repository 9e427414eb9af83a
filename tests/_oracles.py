"""Brute-force oracles and random-geometry samplers shared across test modules.

Everything here is deliberately independent of the package's own quadrature:
composite rules over numpy arrays, plus a sampler for disjoint circle pairs
and pointwise and closed-form checks of Moebius maps used by the
distance-equivalence properties, and the inverse of the mesh's ball map.
Circles are read from their inversive vectors here, and maps from their
matrix entries, with no package code between.
"""

import cmath
import math

import numpy as np

from hypcatenoid import circle_from_center_radius


def midpoint(f, lo, hi, n=1_000_000):
    """Composite midpoint rule with n panels; f must accept numpy arrays."""
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(x)) * h)


def profile_coordinates(point):
    """(x, y) of a ball point of the swept catenoid, from its coordinates alone.

    The mesh maps profile point (x, y) to u = sinh x / den and radius
    r = tanh y / den about the first axis, den = cosh x + sech y.  With
    q = |p|**2, 1 + q = 2 cosh x / den and 1 - q = 2 sech y / den, so
    x = atanh(2u / (1 + q)) and y = asinh(2r / (1 - q)).
    """
    u, v, w = point
    q = u * u + v * v + w * w
    return math.atanh(2.0 * u / (1.0 + q)), math.asinh(2.0 * math.hypot(v, w) / (1.0 - q))


def decode(circle):
    """(centre, radius) of a circle from its vector (v1, v2, v3, v4), or None for a line.

    v4 - v3 = 1 / radius and (v1, v2) = centre / radius; a line has v4 = v3.
    """
    v1, v2, v3, v4 = circle.coords
    if v4 == v3:
        return None
    radius = 1.0 / (v4 - v3)
    return complex(v1 * radius, v2 * radius), radius


def minkowski_product(circle1, circle2):
    """u1 w1 + u2 w2 + u3 w3 - u4 w4 of the two inversive vectors."""
    (u1, u2, u3, u4), (w1, w2, w3, w4) = circle1.coords, circle2.coords
    return u1 * w1 + u2 * w2 + u3 * w3 - u4 * w4


def random_disjoint_pair(rng):
    """Two disjoint circles with radii in [0.2, 3] and centers within |c| <= 5.

    Pairs are rejected until the inversive product magnitude clears 1 by at
    least 1e-3, keeping acosh well-conditioned.
    """
    while True:
        c1 = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        c2 = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        r1 = rng.uniform(0.2, 3.0)
        r2 = rng.uniform(0.2, 3.0)
        circle1 = circle_from_center_radius(c1, r1)
        circle2 = circle_from_center_radius(c2, r2)
        if abs(minkowski_product(circle1, circle2)) >= 1.0 + 1.0e-3:
            return circle1, circle2


def circle_points(circle, n=5):
    """n points of a circle, or of a line n . z = h with unit normal n."""
    chart = decode(circle)
    if chart is None:
        v1, v2, h, _ = circle.coords
        normal = complex(v1, v2)
        return [normal * complex(h, t) for t in range(-(n // 2), n - n // 2)]
    center, radius = chart
    return [center + radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]


def coaxial_images(mapping, circle1, circle2):
    """(spread, radius) of each circle's image under mapping, about 0.

    Each image's radii are |(a z + b) / (c z + d)|, from the map's entries,
    at the circle's sample points z, so a relative spread (max - min) / max
    of 0 puts the image's centre at 0; radius is the first sample's.
    """
    a, b, c, d = mapping.a, mapping.b, mapping.c, mapping.d
    images = []
    for circle in (circle1, circle2):
        radii = [abs((a * z + b) / (c * z + d)) for z in circle_points(circle)]
        images.append(((max(radii) - min(radii)) / max(radii), radii[0]))
    return images


def moved_pair(rng, circle1, circle2):
    """Both circles under one random isometry, from closed-form images.

    z -> lam e^(i theta) z + t takes centre c and radius r to
    lam e^(i theta) c + t and lam r; half of the time z -> 1/z follows,
    taking them to conj(c) / (|c|^2 - r^2) and r / ||c|^2 - r^2|.
    """
    scale = cmath.rect(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
    shift = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    invert = rng.random() < 0.5
    moved = []
    for circle in (circle1, circle2):
        center, radius = decode(circle)
        c, r = scale * center + shift, abs(scale) * radius
        if invert:
            power = abs(c) ** 2 - r * r
            c, r = c.conjugate() / power, r / abs(power)
        moved.append(circle_from_center_radius(c, r))
    return tuple(moved)
