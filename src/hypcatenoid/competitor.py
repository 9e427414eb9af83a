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
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .catenoid import (
    Tolerance,
    _check_neck,
    area_difference,
    disk_area_total,
    plane_separation,
)

if TYPE_CHECKING:
    from .constants import ConstantsBundle

__all__ = [
    "CompetitorReport",
    "RegimeKind",
    "RegimeLabel",
    "classify_regime",
    "competitor_report",
    "find_cheaper_competitor",
]

# Neck distances within this of a_c or a_L are flagged as at the threshold,
# and ties at a_c resolve to the stable side.
_BOUNDARY_TOL = 1.0e-9


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
    """Catenoid and cylinder-plus-disks areas for one cylinder radius s.

    margin is the catenoid's area minus the competitor's.  competitor_report
    gives it at any s in (0, a].  find_cheaper_competitor reports
    s = a / 2**20, the best radius in (0, a] to within 2 pi L s (where
    L >= 1 / sqrt(2) the margin falls strictly in s with no tanh bound);
    its s and derived fields are absent when its margin is not positive,
    which is when Phi(a, r) <= 0 up to rounding.
    """

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
    _check_neck(a)
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


def competitor_report(a: float, r: float, s: float, tol: Tolerance) -> CompetitorReport:
    """Report for the cylinder of radius s, with a margin of either sign.

    The competitor is the coaxial cylinder of radius s between the two
    boundary planes plus the two spanning disks less its footprints; s in
    (0, a] keeps the cylinder inside the region enclosed by the catenoid,
    where the comparison is meaningful.  Both areas hold the disks'
    4 pi (cosh r - 1), which would cancel every digit of their difference
    at large r, so the margin is Phi - pi L sinh 2s + 4 pi (cosh s - 1),
    from Phi = tube area - disk area.
    """
    _check_neck(a)
    if not r > a:
        raise ValueError(f"tube radius r={r} must exceed the neck distance a={a}")
    # L first: below the profile's neck floor, where a / 2**20 may underflow
    # to 0, the floor is the error to report.
    L = plane_separation(a, r, tol)
    if not 0.0 < s <= a:
        raise ValueError(f"cylinder radius s={s} must lie in (0, a] with a={a}")
    area = area_difference(a, r, tol)
    cylinder = 2.0 * math.pi * L * math.sinh(s) * math.cosh(s)
    footprints = disk_area_total(s)
    return CompetitorReport(
        a=a,
        r=r,
        s=s,
        area_catenoid=area.tube_area,
        area_competitor=cylinder + area.disk_area_total - footprints,
        margin=area.phi_a_r - math.pi * L * math.sinh(2.0 * s) + footprints,
    )


def find_cheaper_competitor(a: float, r: float, tol: Tolerance) -> CompetitorReport:
    """The competitor of cylinder radius s = a / 2**20, if it beats the catenoid.

    The margin m(s) = Phi(a, r) - pi L sinh 2s + 4 pi (cosh s - 1) tends to
    Phi as s -> 0+, and m(s) < Phi exactly when L > 2 tanh(s/2) / cosh s.
    That bound rises on (0, 1.06], which holds (0, a_L], and along the zero
    of Phi(a, .) for a in (0, a_L) the separation L is at least 1.27 times
    the bound at s = a (4 / pi times as a -> 0).  Phi and L both grow with
    r, so wherever Phi > 0 every s in (0, a] gives m(s) < Phi: the best
    margin over (0, a] is Phi itself, approached only as s -> 0+, so no
    radius beats s = a / 2**20 by more than pi L sinh 2s and no grid of
    radii is needed.  Where L >= 1 / sqrt(2) that needs no tanh bound: with
    x = sinh s, m'(s) = 2 pi (2x - L (1 + 2x**2)) < 0 for every x except
    one at L = 1 / sqrt(2), so m is strictly decreasing on (0, a].
    Returns competitor_report(a, r, a / 2**20, tol), with absent fields
    when the margin is not positive.
    """
    report = competitor_report(a, r, a * 2.0**-20, tol)
    if report.margin > 0.0:
        return report
    return replace(report, s=None, area_competitor=None, margin=None)
