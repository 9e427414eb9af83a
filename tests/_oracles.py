"""Brute-force oracles and random-geometry samplers shared across test modules.

Everything here is deliberately independent of the package's own quadrature:
composite rules over numpy arrays, plus samplers for disjoint circle pairs
and Moebius maps used by the distance-equivalence properties.
"""

import math

import numpy as np

from hypcatenoid import (
    IsometryMap,
    apply_isometry,
    axis_translation,
    circle_from_center_radius,
    inversive_product,
)


def midpoint(f, lo, hi, n=1_000_000):
    """Composite midpoint rule with n panels; f must accept numpy arrays."""
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(x)) * h)


def sqrt_endpoint_midpoint(g, lo, hi, n=1_000_000):
    """Oracle for integrands g(t)/sqrt(t - lo): midpoint rule after u**2 = t - lo."""
    width = math.sqrt(hi - lo)
    return 2.0 * midpoint(lambda u: g(lo + u * u), 0.0, width, n)


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
        if abs(inversive_product(circle1, circle2)) >= 1.0 + 1.0e-3:
            return circle1, circle2


def random_isometry(rng):
    """Random isometry composed from a rotation, an axis scaling, a translation
    and, half of the time, an inversion followed by another translation."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    mapping = IsometryMap.from_matrix(
        complex(math.cos(angle), math.sin(angle)), 0.0, 0.0, 1.0
    )
    mapping = axis_translation(math.exp(rng.uniform(-1.0, 1.0))).compose(mapping)
    shift = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    mapping = IsometryMap.from_matrix(1.0, shift, 0.0, 1.0).compose(mapping)
    if rng.random() < 0.5:
        mapping = IsometryMap.from_matrix(0.0, 1.0, 1.0, 0.0).compose(mapping)
        shift = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        mapping = IsometryMap.from_matrix(1.0, shift, 0.0, 1.0).compose(mapping)
    return mapping


def mapped_pair(rng, circle1, circle2):
    """A random isometry applied to both circles of a pair."""
    mapping = random_isometry(rng)
    return apply_isometry(mapping, circle1), apply_isometry(mapping, circle2)
