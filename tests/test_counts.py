"""Pinned integrand-evaluation counts of canonical calls at abs_tol 1e-10.

Every integrand call made through quad_finite is counted by wrapping the
integrand, in every module namespace that holds quad_finite.
quad_sqrt_endpoint and quad_semi_infinite integrate through quad_finite, so
their calls are counted too; only the eight envelope samples of
quad_semi_infinite bypass it.  The counts are deterministic, so a change to
any of them is a change in the algorithm and must be explained.
"""

import pytest

import hypcatenoid
from hypcatenoid import (
    MeshParams,
    Tolerance,
    area_deficit,
    build_mesh,
    catenoid,
    catenoids_for_circles,
    circle_from_center_radius,
    circles,
    competitor,
    constants,
    constants_bundle,
    mesh,
    quadrature,
)

TOL = Tolerance(abs_tol=1.0e-10)


@pytest.fixture
def count_evaluations(monkeypatch):
    """Run fn and return how many integrand calls reached quad_finite."""
    original = quadrature.quad_finite
    calls = 0

    def counting(g, lo, hi, tol):
        def counted(x):
            nonlocal calls
            calls += 1
            return g(x)

        return original(counted, lo, hi, tol)

    modules = (quadrature, catenoid, constants, circles, competitor, mesh)
    for namespace in (hypcatenoid, *modules):
        for name, value in list(vars(namespace).items()):
            if value is original:
                monkeypatch.setattr(namespace, name, counting)

    def run(fn):
        nonlocal calls
        calls = 0
        fn()
        return calls

    return run


def test_cold_bundle(count_evaluations, monkeypatch):
    monkeypatch.setattr(constants, "_CACHE", {})
    assert count_evaluations(lambda: constants_bundle(TOL)) == 1545


def test_solve_a_c(count_evaluations):
    assert count_evaluations(lambda: constants.solve_a_c(TOL)) == 0


def test_catenoids_for_circles(count_evaluations):
    bundle = constants_bundle(TOL)
    inner = circle_from_center_radius(0j, 1.0)
    outer = circle_from_center_radius(0j, 2.2)
    count = count_evaluations(lambda: catenoids_for_circles(inner, outer, bundle, TOL))
    assert count == 0


def test_deficit_sweep(count_evaluations):
    def sweep():
        for i in range(300):
            area_deficit(0.01 + i * (2.99 / 299), TOL)

    assert count_evaluations(sweep) == 50610


def test_build_mesh(count_evaluations):
    count = count_evaluations(lambda: build_mesh(MeshParams(0.6, 3.0, 48, 64), TOL))
    assert count == 0
