"""Pinned integrand-evaluation and root-solver counts of canonical calls.

quad_finite, quad_semi_infinite and quad_sqrt_endpoint are each wrapped in
every module namespace that holds them, and the integrand of the outermost
quad_* call is counted, so the envelope samples of quad_semi_infinite, which
never reach quad_finite, are counted too.  Every quantity the package ships
is a closed form, so every pin is 0: a nonzero count means a package path
reached the quadrature layer again.

The solver pins count calls of the f handed to solve_root, wrapped in the
constants and circles namespaces: the calls Brent's method makes to reach
solve_root's relative floor.
"""

import math

import pytest

import hypcatenoid
from hypcatenoid import (
    EvaluationBudgetError,
    MeshParams,
    Tolerance,
    area_deficit,
    area_difference,
    build_mesh,
    catenoid,
    catenoids_for_circles,
    catenoids_for_separation,
    circle_from_center_radius,
    circles,
    competitor,
    compute_K,
    concavity_terms,
    constants,
    constants_bundle,
    find_cheaper_competitor,
    mesh,
    quadrature,
    solve_root,
)

TOL = Tolerance(abs_tol=1.0e-10)
QUAD = ("quad_finite", "quad_semi_infinite", "quad_sqrt_endpoint")


@pytest.fixture
def count_evaluations(monkeypatch):
    """Run fn and return how many integrand calls reached any quad_*."""
    calls = 0
    depth = 0

    def counting(original):
        def wrapper(g, *args):
            nonlocal depth
            if depth == 0:  # count only the caller's integrand, once
                inner = g

                def g(x):
                    nonlocal calls
                    calls += 1
                    return inner(x)

            depth += 1
            try:
                return original(g, *args)
            finally:
                depth -= 1

        return wrapper

    modules = (quadrature, catenoid, constants, circles, competitor, mesh)
    for name in QUAD:
        original = getattr(quadrature, name)
        replacement = counting(original)
        for namespace in (hypcatenoid, *modules):
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, replacement)

    def run(fn):
        nonlocal calls
        calls = 0
        fn()
        return calls

    return run


def test_fixture_counts_envelope_samples(count_evaluations):
    results = []

    def decaying(t):
        return math.exp(-3.0 * t)

    def integrate():
        results.append(quadrature.quad_semi_infinite(decaying, 1.0, 3.0, TOL))

    count = count_evaluations(integrate)
    assert count == results[0].evaluations > 8


def test_cold_bundle(count_evaluations, monkeypatch):
    monkeypatch.setattr(constants, "_CACHE", {})
    assert count_evaluations(lambda: constants_bundle(TOL)) == 0


def test_solve_a_c(count_evaluations):
    assert count_evaluations(lambda: constants.solve_a_c(TOL)) == 0


def test_compute_K(count_evaluations):
    assert count_evaluations(lambda: compute_K(TOL)) == 0


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

    assert count_evaluations(sweep) == 0


def test_area_difference(count_evaluations):
    def evaluate():
        for r in (0.6, 0.6 + 1e-7, 3.0, 50.0):
            area_difference(0.6, r, TOL)

    assert count_evaluations(evaluate) == 0


def test_find_cheaper_competitor(count_evaluations):
    assert count_evaluations(lambda: find_cheaper_competitor(0.6, 3.0, TOL)) == 0


def test_concavity_terms(count_evaluations):
    assert count_evaluations(lambda: concavity_terms(0.6, TOL)) == 0


def test_build_mesh(count_evaluations):
    count = count_evaluations(lambda: build_mesh(MeshParams(0.6, 3.0, 48, 64), TOL))
    assert count == 0


@pytest.fixture
def count_solver_calls(monkeypatch):
    """Run fn and return the f-call count of each solve_root call, in order."""
    solves = []

    def counted_solve(f, lo, hi):
        solves.append(0)
        index = len(solves) - 1

        def g(x):
            solves[index] += 1
            return f(x)

        return solve_root(g, lo, hi)

    for namespace in (constants, circles):
        monkeypatch.setattr(namespace, "solve_root", counted_solve)

    def run(fn):
        solves.clear()
        fn()
        return list(solves)

    return run


def test_cold_bundle_solver_calls(count_solver_calls, monkeypatch):
    monkeypatch.setattr(constants, "_CACHE", {})
    # rho' for a_c, mvt_f for a_0, phi for a_L.
    assert count_solver_calls(lambda: constants_bundle(TOL)) == [12, 11, 12]


def test_circles_solver_calls(count_solver_calls):
    bundle = constants_bundle(TOL)
    inner = circle_from_center_radius(0j, 1.0)
    outer = circle_from_center_radius(0j, 2.2)
    solves = count_solver_calls(lambda: catenoids_for_circles(inner, outer, bundle, TOL))
    assert sum(solves) == 17


def test_tiny_separation_solver_calls(count_solver_calls):
    bundle = constants_bundle(TOL)
    solves = count_solver_calls(lambda: catenoids_for_separation(1e-9, bundle, TOL))
    assert sum(solves) == 23


def test_solver_budget_calls():
    calls = 0

    def step(x):
        nonlocal calls
        calls += 1
        return math.copysign(1.0, x - 1.0)

    with pytest.raises(EvaluationBudgetError):
        solve_root(step, 1e-300, 1e300)
    assert calls == 102  # both bracket ends, then the 100-iteration cap
