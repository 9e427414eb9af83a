"""Acceptance gate: one test per shipped accuracy claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts at its stated tolerance.
"""

import math
import random

import pytest

from hypcatenoid import (
    MeshParams,
    RegimeKind,
    area_deficit,
    area_difference,
    build_mesh,
    catenoids_for_circles,
    circle_from_center_radius,
    compute_K,
    find_cheaper_competitor,
    gomes_rho,
    mvt_f,
    normalize_coaxial,
    plane_distance,
)

from _oracles import coaxial_images, moved_pair, profile_coordinates, random_disjoint_pair


def _report(number: int, description: str, ok: bool) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description}")
    return ok


def test_criterion_01():
    ok = abs(compute_K() - 0.40093) <= 5e-5
    assert _report(1, "K = 0.40093 within 5e-5", ok)


def test_criterion_02(bundle, tol):
    ok_a = abs(bundle.a_c - 0.49577) <= 1e-4
    ok_d = abs(2.0 * gomes_rho(bundle.a_c, tol) - 1.00229) <= 1e-4
    assert _report(2, "a_c = 0.49577 and 2 rho(a_c) = 1.00229 within 1e-4", ok_a and ok_d)


def test_criterion_03():
    a_l = math.acosh(1.0 / (1.0 - compute_K()))
    ok = abs(a_l - 1.10055) <= 1e-4
    assert _report(3, "acosh(1/(1-K)) = 1.10055 within 1e-4", ok)


def test_criterion_04(bundle, tol):
    ok_a = abs(bundle.a_L - 0.847486) <= 1e-5
    ok_d = abs(2.0 * gomes_rho(bundle.a_L, tol) - 0.876895) <= 1e-5
    assert _report(4, "a_L = 0.847486 and 2 rho(a_L) = 0.876895 within 1e-5", ok_a and ok_d)


def test_criterion_05(tol):
    ok = abs(area_deficit(0.530638, tol) - 0.781314) <= 1e-4
    assert _report(5, "area_deficit(0.530638) = 0.781314 within 1e-4", ok)


def test_criterion_06(bundle):
    upper = 0.405465
    ok_interval = 0.0 < bundle.a_0 < upper
    ok_ends = mvt_f(1e-9) < 0.0 < mvt_f(upper)
    ok_flip = mvt_f(bundle.a_0 - 1e-3) < 0.0 < mvt_f(bundle.a_0 + 1e-3)
    ok = ok_interval and ok_ends and ok_flip
    assert _report(6, "a_0 in (0, 0.405465) with a sign change of the slope bound", ok)


def test_criterion_07(bundle):
    ok = 0.0 < bundle.a_0 < bundle.a_c < bundle.a_L < bundle.a_l
    assert _report(7, "ordering 0 < a_0 < a_c < a_L < a_l", ok)


def test_criterion_08(tol):
    grid = (0.2, 0.5, 0.9, 1.5)

    ok_monotone = True
    ok_collapsed = True
    ok_limit = True
    for a in grid:
        values = [area_difference(a, a + 0.5 * k) for k in range(11)]
        ok_monotone &= all(v2 - v1 >= -1e-12 for v1, v2 in zip(values, values[1:]))
        ok_collapsed &= values[0] == -(8.0 * math.pi * math.sinh(0.5 * a) ** 2)
        limit = area_difference(a, a + 20.0)
        ok_limit &= abs(limit - area_deficit(a, tol)) <= 1e-6

    abscissas = [0.01 + (3.0 - 0.01) * i / 299 for i in range(300)]
    deficits = [area_deficit(a, tol) for a in abscissas]
    flips = sum(
        1 for v1, v2 in zip(deficits, deficits[1:]) if (v1 > 0.0) != (v2 > 0.0)
    )
    ok_single_zero = flips == 1

    assert _report(
        8,
        "Phi nondecreasing in r, exact at r = a, limit within 1e-6, "
        "single sign change of phi",
        ok_monotone and ok_collapsed and ok_limit and ok_single_zero,
    )


def test_criterion_09():
    rng = random.Random(20260819)
    ok = True
    for _ in range(1000):
        circle1, circle2 = random_disjoint_pair(rng)
        reference = plane_distance(circle1, circle2)

        for first, second in ((circle1, circle2), (circle2, circle1)):
            mapping = normalize_coaxial(first, second)
            (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, first, second)
            ok &= spread1 <= 1e-9 and spread2 <= 1e-9
            ok &= radius1 < radius2
            log_ratio = math.log(radius2 / radius1)
            ok &= abs(log_ratio - reference) <= 1e-9

        moved1, moved2 = moved_pair(rng, circle1, circle2)
        ok &= abs(plane_distance(moved1, moved2) - reference) <= 1e-9

    assert _report(
        9, "distance oracle equivalence (inner image first, both orders) and "
        "isometry invariance within 1e-9 on 1000 pairs", ok,
    )


def test_criterion_10(bundle, tol):
    def solve(d):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.exp(d))
        return catenoids_for_circles(circle1, circle2, bundle, tol)

    found = solve(0.8)
    kinds = tuple(label.kind for _, label in found.solutions)
    ok_08 = (
        len(found.solutions) == 2
        and all(
            abs(2.0 * gomes_rho(a, tol) - found.separation) <= 1e-6
            for a, _ in found.solutions
        )
        and kinds == (RegimeKind.UNSTABLE, RegimeKind.AREA_MINIMIZING)
    )

    found = solve(0.95)
    kinds = tuple(label.kind for _, label in found.solutions)
    ok_095 = (
        len(found.solutions) == 2
        and all(
            abs(2.0 * gomes_rho(a, tol) - found.separation) <= 1e-6
            for a, _ in found.solutions
        )
        and kinds == (RegimeKind.UNSTABLE, RegimeKind.STABLE_NOT_MINIMIZING)
    )

    ok_15 = solve(1.5).solutions == ()

    assert _report(
        10,
        "circle-pair solves: d=0.8 and d=0.95 give two roots with the "
        "expected regimes, d=1.5 gives none",
        ok_08 and ok_095 and ok_15,
    )


def test_criterion_11(tol):
    radii = (1.0, 3.0, 10.0)

    ok_witness = True
    for a in (0.5, 0.6, 0.7, 0.8):
        reports = [find_cheaper_competitor(a, a + dr, tol) for dr in radii]
        ok_witness &= any(
            report.margin is not None and report.margin > 0.0 for report in reports
        )

    ok_absent = True
    for a in (0.9, 1.0, 1.5):
        for dr in radii:
            ok_absent &= find_cheaper_competitor(a, a + dr, tol).margin is None

    assert _report(
        11,
        "competitor witness exists for a in {0.5..0.8} and never for "
        "a in {0.9, 1.0, 1.5}",
        ok_witness and ok_absent,
    )


def test_criterion_12(tol):
    a, y_max = 0.6, 3.0
    mesh = build_mesh(MeshParams(a, y_max, 48, 16), tol)
    n_angle = mesh.params.n_angle

    ok_inside = all(math.hypot(*vertex) < 1.0 for vertex in mesh.vertices)

    # Per row, the axis distance y recovered from the embedded vertices must
    # agree across the row and stay within the requested span.
    rows = [
        mesh.vertices[j * n_angle : (j + 1) * n_angle]
        for j in range(len(mesh.vertices) // n_angle)
    ]
    ok_axis = True
    recovered = []
    for row in rows:
        coordinates = [profile_coordinates(vertex) for vertex in row]
        distances = [y for _, y in coordinates]
        ok_axis &= max(distances) - min(distances) <= 1e-6
        ok_axis &= a - 1e-6 <= distances[0] <= y_max + 1e-6
        recovered.append(coordinates[0])
    ok_axis &= abs(recovered[len(rows) // 2][1] - a) <= 1e-6
    ok_axis &= abs(recovered[0][1] - y_max) <= 1e-6
    ok_axis &= abs(recovered[-1][1] - y_max) <= 1e-6

    expected = math.pi * math.sinh(2.0 * a)
    ok_flux = True
    for (x0, y0), (x1, y1) in zip(recovered, recovered[1:]):
        dx = x1 - x0
        dy = y1 - y0
        ym = 0.5 * (y0 + y1)
        sin_theta = abs(math.cosh(ym) * dx) / math.hypot(math.cosh(ym) * dx, dy)
        flux = 2.0 * math.pi * math.sinh(ym) * math.cosh(ym) * sin_theta
        ok_flux &= abs(flux - expected) <= 0.01 * expected

    assert _report(
        12,
        "mesh vertices inside the ball, axis distance recovered to 1e-6, "
        "conservation law within 1%",
        ok_inside and ok_axis and ok_flux,
    )
