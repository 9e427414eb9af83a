"""Independent checks of the package's results against the frozen reference.

``reference.json`` holds mpmath values (see make_reference.py); everything
else here is closed-form geometry written from the definitions, so no check
calls back into the package under test.  Each check returns a list of
problems, empty when the result is right.

Allowed errors scale with the requested quadrature tolerance ``tol`` plus
the root tolerance the package documents (``x_tol`` of 1e-10 for a_c and
a_L).  Roots of 2 rho(a) = d are checked in a-space with the conditioning
1/|rho'(a)| frozen at each reference root, so the check tightens where the
problem is well posed and relaxes only near the maximum at a_c.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Slack on values computed at absolute quadrature tolerance tol.
VALUE_SLACK = 20.0
# Root tolerance of solve_a_c and of the a_L solve (RootFindConfig x_tol).
ROOT_X_TOL = 1.0e-10
# Labels within this distance of a threshold may go either way.
LABEL_MARGIN = 1.0e-7


def value_tol(tol: float, scale: float = 1.0) -> float:
    return VALUE_SLACK * tol + 1.0e-13 * max(1.0, abs(scale))


class Reference:
    """The frozen oracle, as doubles."""

    def __init__(self, path: str = REFERENCE):
        with open(path) as handle:
            doc = json.load(handle)
        self.constants = {k: float(v) for k, v in doc["constants"].items()}
        grid = doc["a_grid"]
        self.a = [float(a) for a in grid["a"]]
        self.rho = [float(v) for v in grid["rho"]]
        self.phi = [float(v) for v in grid["phi"]]
        self.separations = [
            (
                float(s["d"]),
                [float(a) for a in s["roots"]],
                [float(v) for v in s["drho"]],
            )
            for s in doc["separations"]
        ]
        self.catenary = [
            (float(c["a"]), float(c["y_max"]), int(c["n"]), [float(x) for x in c["x"]])
            for c in doc["catenary"]
        ]
        self.competitor = [
            (float(c["a"]), float(c["r"]), float(c["phi_ar"]), float(c["L"]))
            for c in doc["competitor"]
        ]

    def grid_index(self, a: float) -> int:
        """Index of the a-grid point a lies on; raises if it is not on the grid."""
        i = bisect.bisect_left(self.a, a - 1.0e-12)
        if i == len(self.a) or abs(self.a[i] - a) > 1.0e-12:
            raise KeyError(f"a={a!r} is not a reference grid point")
        return i

    def regime(self, a: float) -> str | None:
        """Expected regime label, or None inside the margin around a threshold."""
        a_c, a_L = self.constants["a_c"], self.constants["a_L"]
        if abs(a - a_c) < LABEL_MARGIN or abs(a - a_L) < LABEL_MARGIN:
            return None
        if a < a_c:
            return "unstable"
        return "stable_not_minimizing" if a < a_L else "area_minimizing"


def close_to(name, got, want, allowed):
    if got is None or not math.isfinite(got) or abs(got - want) > allowed:
        return [f"{name}={got!r}, reference {want!r} (allowed error {allowed:.3g})"]
    return []


def bundle_allowances(tol: float) -> dict[str, float]:
    """Allowed error of each bundle constant solved at tolerance tol."""
    value = value_tol(tol)
    root = value + 2.0 * ROOT_X_TOL
    return {
        "K": value,
        "a_0": value + 2.0 * max(tol, 1.0e-14),  # solve_a_0 stops at x_tol = tol
        "a_c": root,
        "a_l": value,
        "a_L": root,
        "two_rho_ac": 2.0 * value,
        # 2 rho(a_L) inherits the a_L root error through |rho'(a_L)| < 1.
        "two_rho_aL": 2.0 * root,
    }


def check_bundle(ref: Reference, bundle: dict, tol: float, printed: float = 0.0) -> list[str]:
    """A constants bundle, as a name -> value dict, solved at tolerance tol.

    printed is the relative rounding of values read back from text output.
    """
    problems = []
    for name, allowed in bundle_allowances(tol).items():
        want = ref.constants[name]
        problems += close_to(name, bundle[name], want, allowed + printed * abs(want))
    return problems


def check_roots(ref: Reference, index: int, d: float, found: list, tol: float) -> list[str]:
    """Necks found for plane distance d (which the caller got for reference entry index).

    ``found`` holds (a, kind) pairs.  d may differ from the reference entry by
    rounding (circle geometry); that difference enters the allowed error.
    """
    d_ref, roots, drhos = ref.separations[index]
    if len(found) != len(roots):
        return [f"d={d!r}: {len(found)} necks {found!r}, reference has {len(roots)}: {roots!r}"]
    problems = []
    x_tol = max(tol, 1.0e-12)
    for (a, kind), a_ref, slope in zip(sorted(found), roots, drhos):
        allowed = (abs(d - d_ref) + 2.0 * value_tol(tol)) / (2.0 * abs(slope)) + 4.0 * x_tol
        problems += close_to(f"neck for d={d!r}", a, a_ref, allowed)
        want = ref.regime(a_ref)
        if want is not None and kind != want:
            problems.append(f"neck a={a!r}: kind {kind!r}, expected {want!r}")
    return problems


def plane_distance(c1: complex, r1: float, c2: complex, r2: float) -> float:
    """Distance of the planes over two disjoint circles, from Euclidean data."""
    s2 = abs(c1 - c2) ** 2
    return math.acosh(abs(r1 * r1 + r2 * r2 - s2) / (2.0 * r1 * r2))


def circle_pair(rng, d: float):
    """A seeded non-concentric disjoint pair (c1, r1, c2, r2) at plane distance d.

    Nested pairs put the second circle around the first; exterior pairs put
    them side by side.  Both have cosh d = |r1^2 + r2^2 - |c1 - c2|^2| / (2 r1 r2).
    """
    r1 = math.exp(rng.uniform(-1.0, 1.0))
    c1 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    direction = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if rng.random() < 0.5:
        r2 = r1 * math.exp(d) * (1.0 + rng.uniform(0.2, 2.0))
        gap = math.sqrt((r2 - r1 * math.exp(d)) * (r2 - r1 * math.exp(-d)))
    else:
        r2 = math.exp(rng.uniform(-1.0, 1.0))
        gap = math.sqrt(r1 * r1 + r2 * r2 + 2.0 * r1 * r2 * math.cosh(d))
    return c1, r1, c1 + gap * direction, r2


def check_coaxial(mapping, c1, r1, c2, r2, d_ref: float) -> list[str]:
    """The map sends the pair to circles about 0, the first one inside."""
    a, b, c, dd = mapping.a, mapping.b, mapping.c, mapping.d

    def image_radii(center, radius):
        out = []
        for k in range(5):
            z = center + radius * cmath.exp(2j * math.pi * (k + 0.25) / 5)
            out.append(abs((a * z + b) / (c * z + dd)))
        return out

    inner, outer = image_radii(c1, r1), image_radii(c2, r2)
    problems = []
    for label, radii in (("first", inner), ("second", outer)):
        spread = (max(radii) - min(radii)) / max(radii)
        if not spread <= 1.0e-8:
            problems.append(f"{label} image is not centred at 0 (radius spread {spread:.3g})")
    if problems:
        return problems
    if not inner[0] < outer[0]:
        problems.append("first circle's image is not the inner one")
    problems += close_to("log radius ratio", math.log(outer[0] / inner[0]), d_ref, 1.0e-8 * max(1.0, d_ref))
    return problems


def halfspace_to_ball(x: float, y: float, theta: float) -> tuple[float, float, float]:
    """Swept profile point (x, y) at angle theta, mapped into the Poincare ball."""
    radius = math.exp(x)
    h = radius * math.tanh(y)
    x1, x2, x3 = h * math.cos(theta), h * math.sin(theta), radius / math.cosh(y)
    den = x1 * x1 + x2 * x2 + (x3 + 1.0) ** 2
    return ((x1 * x1 + x2 * x2 + x3 * x3 - 1.0) / den, 2.0 * x1 / den, 2.0 * x2 / den)


def competitor_area(L: float, r: float, s: float) -> float:
    """Cylinder of radius s across separation L plus the two punctured disks."""
    return (
        2.0 * math.pi * L * math.sinh(s) * math.cosh(s)
        + 4.0 * math.pi * (math.cosh(r) - 1.0)
        - 4.0 * math.pi * (math.cosh(s) - 1.0)
    )


def check_competitor(ref: Reference, index: int, report: dict, tol: float) -> list[str]:
    """A find_cheaper_competitor report, as a dict of its fields."""
    a, r, phi_ar, L = ref.competitor[index]
    disks = 4.0 * math.pi * (math.cosh(r) - 1.0)
    problems = close_to("area_catenoid", report["area_catenoid"], phi_ar + disks, value_tol(tol, disks))
    margin, s = report["margin"], report["s"]
    if abs(phi_ar) < 1.0e-4:
        return problems  # the witness may go either way this close to Phi = 0
    if (margin is not None) != (phi_ar > 0.0):
        return problems + [f"a={a}, r={r}: margin {margin!r} but Phi(a, r) = {phi_ar!r}"]
    if margin is not None:
        if not 0.0 < s <= a:
            problems.append(f"cylinder radius s={s!r} outside (0, a={a}]")
        else:
            own = report["area_catenoid"] - competitor_area(L, r, s)
            problems += close_to("margin", margin, own, value_tol(tol, disks))
            # s -> 0 approaches Phi(a, r); a witness must get close to it.
            if margin < phi_ar - 1.0e-4 * max(1.0, L):
                problems.append(f"margin {margin!r} far below Phi(a, r) = {phi_ar!r}")
    return problems
