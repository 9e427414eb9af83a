"""Regime classification and the cheaper-annulus competitor construction.

A catenoid is unstable below a_c, stable but not area minimizing between
a_c and a_L, and area minimizing from a_L on.  In the middle regime the
tube is beaten by a competitor surface built from a thin coaxial cylinder
joining the two boundary planes plus the two disks with the cylinder's
footprint removed; its area admits a closed form once the plane separation
L is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .catenoid import Tolerance, area_difference, plane_separation

if TYPE_CHECKING:
    from .constants import ConstantsBundle

__all__ = [
    "CompetitorReport",
    "RegimeKind",
    "RegimeLabel",
    "classify_regime",
    "competitor_area",
    "find_cheaper_competitor",
]

_FOUR_PI = 4.0 * math.pi

# Neck distances within this of a_c or a_L are flagged as at the threshold,
# and ties at a_c resolve to the stable side.
_BOUNDARY_TOL = 1.0e-9

# Deepest level of the geometric search grid s = a/2, a/4, ..., a/2**20.
_GRID_DEPTH = 20


class RegimeKind(str, Enum):
    UNSTABLE = "unstable"
    STABLE_NOT_MINIMIZING = "stable_not_minimizing"
    AREA_MINIMIZING = "area_minimizing"


@dataclass(frozen=True)
class RegimeLabel:
    """Stability regime of one catenoid, with flags for the two thresholds."""

    kind: RegimeKind
    at_a_c: bool
    at_a_L: bool


@dataclass(frozen=True)
class CompetitorReport:
    """Result of the competitor search; s and the derived fields are absent
    when no grid point yields a positive margin."""

    a: float
    r: float
    s: Optional[float]
    area_catenoid: float
    area_competitor: Optional[float]
    margin: Optional[float]


def classify_regime(a: float, bundle: ConstantsBundle) -> RegimeLabel:
    """Classify the catenoid with neck distance a against the bundle thresholds.

    Ties within 1e-9 of a_c resolve to the stable side.
    """
    if not a > 0.0:
        raise ValueError(f"neck distance must be positive, got {a}")
    if a < bundle.a_c - _BOUNDARY_TOL:
        kind = RegimeKind.UNSTABLE
    elif a < bundle.a_L:
        kind = RegimeKind.STABLE_NOT_MINIMIZING
    else:
        kind = RegimeKind.AREA_MINIMIZING
    return RegimeLabel(
        kind=kind,
        at_a_c=abs(a - bundle.a_c) <= _BOUNDARY_TOL,
        at_a_L=abs(a - bundle.a_L) <= _BOUNDARY_TOL,
    )


def _cylinder_plus_disks(L: float, r: float, s: float) -> float:
    """Closed-form competitor area for cylinder radius s and plane separation L."""
    return (
        2.0 * math.pi * L * math.sinh(s) * math.cosh(s)
        + _FOUR_PI * (math.cosh(r) - 1.0)
        - _FOUR_PI * (math.cosh(s) - 1.0)
    )


def _margin(phi: float, L: float, s: float) -> float:
    """Tube area minus competitor area, from Phi = tube area - disk area.

    Both areas contain the disks' 4 pi (cosh r - 1); subtracting them would
    cancel every digit at large r, so the margin is Phi - pi L sinh 2s +
    4 pi (cosh s - 1).
    """
    return phi - math.pi * L * math.sinh(2.0 * s) + _FOUR_PI * (math.cosh(s) - 1.0)


def competitor_area(a: float, r: float, s: float, tol: Tolerance) -> float:
    """Area of the competitor surface: coaxial cylinder of radius s between
    the two boundary planes, plus the two spanning disks with the cylinder's
    footprint disks removed.

    Restricting s to (0, a] keeps the cylinder inside the region enclosed by
    the catenoid, where the comparison is meaningful.
    """
    if not 0.0 < s <= a:
        raise ValueError(f"cylinder radius s={s} must lie in (0, a] with a={a}")
    if not r > a:
        raise ValueError(f"tube radius r={r} must exceed the neck distance a={a}")
    return _cylinder_plus_disks(plane_separation(a, r, tol), r, s)


def find_cheaper_competitor(a: float, r: float, tol: Tolerance) -> CompetitorReport:
    """Search the geometric grid s = a/2**k for the cheapest competitor.

    Returns the grid point with the largest positive margin (catenoid area
    minus competitor area), or a report with absent fields when every grid
    point loses.  As s shrinks the margin approaches the area difference
    Phi(a, r), so a positive Phi guarantees a witness on a fine enough grid.
    """
    if not r > a:
        raise ValueError(f"tube radius r={r} must exceed the neck distance a={a}")
    report = area_difference(a, r, tol)
    sigma = report.tube_area
    L = plane_separation(a, r, tol)

    best_s: Optional[float] = None
    best_margin = 0.0
    for k in range(1, _GRID_DEPTH + 1):
        s = a / (2.0**k)
        margin = _margin(report.phi_a_r, L, s)
        if margin > best_margin:
            best_s = s
            best_margin = margin

    if best_s is None:
        return CompetitorReport(
            a=a, r=r, s=None, area_catenoid=sigma, area_competitor=None, margin=None
        )
    return CompetitorReport(
        a=a,
        r=r,
        s=best_s,
        area_catenoid=sigma,
        area_competitor=_cylinder_plus_disks(L, r, best_s),
        margin=best_margin,
    )
