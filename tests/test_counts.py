"""Pinned integrand-evaluation, root-solver and kernel counts of canonical calls.

quad_finite, quad_semi_infinite and quad_sqrt_endpoint are each wrapped in
every module namespace that holds them, and the integrand of the outermost
quad_* call is counted, so the envelope samples of quad_semi_infinite, which
never reach quad_finite, are counted too.  Every quantity the package ships
is a closed form, so every pin is 0: a nonzero count means a package path
reached the quadrature layer again.

The solver pins count calls of the f handed to solve_root, wrapped in the
constants namespace: the (value, slope) calls its safeguarded Newton
iteration makes for a_c, a_0 and a_L to reach solve_root's relative floor,
with no call at a bracket end whose sign is known.  The kernel pins count
calls of _neck_terms, one AGM loop each, and of _carlson, one duplication
sequence each, in every namespace that binds them; the AGM and
duplication pins count the loops' steps.  Every kernel pin is exact, so a
count that falls fails as one that rises does.  A separation root is one
Chebyshev step from its table start, so its pins count exactly one AGM
loop per root.  Both fixtures first build the start table of
catenoids_for_separation, which is built once per process, so no pin
depends on test order; test_start_table_calls pins the build itself.
"""

import math
import os
import subprocess
import sys

import pytest

import hypcatenoid
from hypcatenoid import (
    BracketError,
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
    competitor_report,
    compute_K,
    concavity_terms,
    constants,
    constants_bundle,
    find_cheaper_competitor,
    gomes_rho,
    mesh,
    quadrature,
    sample_catenary,
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


def test_cold_bundle(count_evaluations):
    constants_bundle.cache_clear()
    assert count_evaluations(lambda: constants_bundle(TOL)) == 0


def test_solve_a_c(count_evaluations):
    assert count_evaluations(lambda: constants.solve_a_c(TOL)) == 0


def test_compute_K(count_evaluations):
    assert count_evaluations(lambda: compute_K()) == 0


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
            area_difference(0.6, r)

    assert count_evaluations(evaluate) == 0


def test_find_cheaper_competitor(count_evaluations):
    assert count_evaluations(lambda: find_cheaper_competitor(0.6, 3.0, TOL)) == 0


def test_concavity_terms(count_evaluations):
    assert count_evaluations(lambda: concavity_terms(0.6)) == 0


def test_build_mesh(count_evaluations):
    count = count_evaluations(lambda: build_mesh(MeshParams(0.6, 3.0, 48, 64), TOL))
    assert count == 0


@pytest.fixture
def count_solver_calls(monkeypatch):
    """Run fn and return the f-call count of each solve_root call, in order."""
    circles._start_table()  # built once per process, outside every count
    solves = []

    def counted_solve(f, lo, hi):
        solves.append(0)
        index = len(solves) - 1

        def g(x):
            solves[index] += 1
            return f(x)

        return solve_root(g, lo, hi)

    monkeypatch.setattr(constants, "solve_root", counted_solve)

    def run(fn):
        solves.clear()
        fn()
        return list(solves)

    return run


def test_cold_bundle_solver_calls(count_solver_calls):
    constants_bundle.cache_clear()
    # phi' for a_c, mvt_f for a_0, phi for a_L.
    assert count_solver_calls(lambda: constants_bundle(TOL)) == [4, 7, 6]


def test_circles_solver_calls(count_calls):
    bundle = constants_bundle(TOL)
    inner = circle_from_center_radius(0j, 1.0)
    outer = circle_from_center_radius(0j, 2.2)
    count = count_calls(
        catenoid, "_neck_terms", lambda: catenoids_for_circles(inner, outer, bundle, TOL)
    )
    assert count == 2


def test_tiny_separation_solver_calls(count_calls):
    # The outer root's asymptotic start is exact to rounding, and still
    # takes its one step.
    bundle = constants_bundle(TOL)
    count = count_calls(
        catenoid, "_neck_terms", lambda: catenoids_for_separation(1e-9, bundle, TOL)
    )
    assert count == 2


@pytest.mark.parametrize(
    "d", [0.999 * 2.0 * gomes_rho(25.0, TOL), 1e-300], ids=["just_below_cap", "1e-300"]
)
def test_below_outer_cap_solver_calls(count_calls, d):
    # Below 2 rho(25) the outer branch has no root, which is known before
    # either root is solved.
    bundle = constants_bundle(TOL)

    def below_cap():
        with pytest.raises(BracketError, match="outer branch"):
            catenoids_for_separation(d, bundle, TOL)

    assert count_calls(catenoid, "_neck_terms", below_cap) == 0


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_L_solver_calls_across_brackets(side):
    # phi's rounding near a_L is above the stop test, so the last Newton
    # steps can cycle between two evaluated points; each such step must
    # bisect the few ulps between them, not the bracket's untouched far end.
    bundle = constants_bundle(TOL)
    a_c, a_l, a_L = bundle.a_c, bundle.a_l, bundle.a_L
    calls = 0

    def phi(a):
        nonlocal calls
        calls += 1
        return catenoid._neck_terms(a)[2:4]

    for k in range(300):
        if side == "lower":
            lo, hi = a_c * (1.0 + k * 1e-4), a_l
        else:
            lo, hi = a_c, a_l - k * 1e-3 * (a_l - a_L)
        calls = 0
        root = solve_root(phi, lo, hi)
        assert calls <= 8, (k, calls)
        assert abs(root - a_L) <= 4.0 * math.ulp(a_L), k


def test_separation_sweep_solver_calls(count_calls):
    # The README sweep: 413 log-spaced separations in [1e-10, 1.0022] and
    # twelve just below 2 rho(a_c); the four within the tie window of it
    # take a_c without a solve, and each of the other 842 roots takes one
    # AGM loop.
    bundle = constants_bundle(TOL)
    span = math.log10(1.0022) + 10.0
    separations = [10.0 ** (-10.0 + k * span / 412) for k in range(413)]
    separations += [bundle.two_rho_ac - 10.0**-k for k in range(2, 14)]

    def sweep():
        for d in separations:
            catenoids_for_separation(d, bundle, TOL)

    assert count_calls(catenoid, "_neck_terms", sweep) == 842


def test_solver_budget_calls():
    calls = 0

    def step(x):
        nonlocal calls
        calls += 1
        return math.copysign(1.0, x - 1.0), 0.0

    with pytest.raises(EvaluationBudgetError):
        solve_root(step, 1e-300, 1e300)
    # The 100-iteration cap, and f(lo) for the direction, as every slope is 0.
    assert calls == 101



@pytest.fixture
def count_calls(monkeypatch):
    """Run fn with every binding of module.name wrapped; return the calls made."""
    circles._start_table()  # built once per process, outside every count

    def run(module, name, fn):
        calls = 0
        original = getattr(module, name)

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        with monkeypatch.context() as patch:
            for namespace in (catenoid, constants, circles):
                if getattr(namespace, name, None) is original:
                    patch.setattr(namespace, name, counted)
            fn()
        return calls

    return run


def test_rho_prime_carlson_calls(count_calls):
    # rho, rho', phi and both slopes of phi, for every residual and slope
    # the solvers use, come from one AGM loop and no duplication sequence.
    for a in (0.01, 0.5, 3.0):
        assert count_calls(catenoid, "_carlson", lambda: catenoid._neck_terms(a)) == 0


def test_cold_bundle_carlson_calls(count_calls):
    constants_bundle.cache_clear()
    assert count_calls(catenoid, "_carlson", lambda: constants_bundle(TOL)) == 0


def test_cold_bundle_kernel_calls(count_calls):
    constants_bundle.cache_clear()
    # 4 phi' calls for a_c, rho(a_c), 6 phi calls for a_L, rho(a_L).
    assert count_calls(catenoid, "_neck_terms", lambda: constants_bundle(TOL)) == 12


def test_cold_bundle_named_calls(monkeypatch):
    # A cold bundle takes K, a_c and a_0 through the constants module's
    # globals, once each, and a cached one calls none of them.
    calls = {"compute_K": [], "solve_a_c": [], "solve_a_0": []}
    for name, seen in calls.items():
        original = getattr(constants, name)

        def counted(*args, original=original, seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(constants, name, counted)
    constants_bundle.cache_clear()
    bundle = constants_bundle(TOL)
    cold = {"compute_K": [()], "solve_a_c": [(TOL,)], "solve_a_0": [(bundle.K,)]}
    assert calls == cold
    assert constants_bundle(TOL) is bundle
    assert calls == cold


def _separations():
    bundle = constants_bundle(TOL)
    inner = circle_from_center_radius(0j, 1.0)
    outer = circle_from_center_radius(0j, 2.2)
    return (
        lambda: catenoids_for_separation(1e-9, bundle, TOL),
        lambda: catenoids_for_circles(inner, outer, bundle, TOL),
    )


def test_separation_carlson_calls(count_calls):
    for solve in _separations():
        assert count_calls(catenoid, "_carlson", solve) == 0


def test_separation_kernel_calls(count_calls):
    # One kernel call per root: rho, rho' and phi'' come from one AGM loop.
    tiny, pair = (count_calls(catenoid, "_neck_terms", solve) for solve in _separations())
    assert (tiny, pair) == (2, 2)


def test_start_table_calls(count_calls, count_solver_calls):
    # The table takes a_c from solve_a_c's 4 calls, rho and rho'' at a_c
    # from one more, rho and rho' at 31 further nodes per branch, and
    # rho(25) from one more; a built table is not built again.
    build = circles._start_table
    for name, calls in (("_neck_terms", 68), ("_carlson", 0)):
        build.cache_clear()
        assert count_calls(catenoid, name, build) == calls
        assert count_calls(catenoid, name, build) == 0
    build.cache_clear()
    assert count_solver_calls(build) == [4]


def test_import_kernel_calls():
    # Importing circles runs no AGM loop: 2 rho(25) and 2 rho(a_c) come with
    # the start table, on the first separation solved.  The count runs in a
    # fresh interpreter, where circles is not yet imported.
    package_root = os.path.dirname(os.path.dirname(hypcatenoid.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys\n"
        "from hypcatenoid import catenoid\n"
        "assert 'hypcatenoid.circles' not in sys.modules\n"
        "calls, kernel = [], catenoid._neck_terms\n"
        "catenoid._neck_terms = lambda a: calls.append(a) or kernel(a)\n"
        "import hypcatenoid.circles\n"
        "print(len(calls))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_area_difference_kernel_calls(count_calls):
    # Phi takes phi from the AGM loop and its tail from one duplication.
    for name in ("_neck_terms", "_carlson"):
        assert count_calls(catenoid, name, lambda: area_difference(0.6, 3.0)) == 1


def test_sample_kernel_calls(count_calls):
    # rho from one AGM loop for the whole sample, and one duplication per
    # row past the neck; the neck row is 0.0 with none.
    sample = lambda: sample_catenary(0.6, 3.0, 6, TOL)
    assert count_calls(catenoid, "_neck_terms", sample) == 1
    assert count_calls(catenoid, "_carlson", sample) == 5


@pytest.mark.parametrize(
    "compete",
    [lambda: competitor_report(0.6, 3.0, 0.05), lambda: find_cheaper_competitor(0.6, 3.0, TOL)],
    ids=["competitor_report", "find_cheaper_competitor"],
)
def test_competitor_kernel_calls(count_calls, compete):
    # rho and phi from one AGM loop; Phi's R_F and R_D and the tail R_J of
    # L = 2 x(r) from one duplication sequence.
    for name in ("_neck_terms", "_carlson"):
        assert count_calls(catenoid, name, compete) == 1


def test_build_mesh_kernel_calls(count_calls):
    # The rho that places the end row also serves the 47 rows past the neck.
    build = lambda: build_mesh(MeshParams(0.6, 3.0, 48, 64), TOL)
    assert count_calls(catenoid, "_neck_terms", build) == 1
    assert count_calls(catenoid, "_carlson", build) == 47


class _RootCountingMath:
    """The math module with its square roots counted."""

    def __init__(self):
        self.roots = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def sqrt(self, x):
        self.roots += 1
        return math.sqrt(x)


def test_agm_steps(monkeypatch):
    # _neck_terms takes sqrt(c) and sqrt(p / c), then one root per AGM step
    # but the last, so a loop of n steps takes n + 1 roots.
    counting = _RootCountingMath()
    monkeypatch.setattr(catenoid, "math", counting)
    necks = [10.0 ** (-6.0 + k * (math.log10(25.0) + 6.0) / 400) for k in range(401)]
    steps = {}
    for a in necks:
        counting.roots = 0
        catenoid._neck_terms(a)
        steps[counting.roots - 1] = steps.get(counting.roots - 1, 0) + 1
    assert max(steps) <= 7
    assert steps == {4: 84, 5: 52, 6: 92, 7: 173}


class _StepCountingMath(_RootCountingMath):
    """Roots less the one each atanh R_C term takes."""

    def atanh(self, x):
        self.roots -= 1
        return math.atanh(x)


def test_duplication_steps(monkeypatch):
    # Past its atanh terms, a duplication sequence of n steps returning k
    # integrals takes 4n + k roots: four a step, one per closing series.
    # The profile's tail form, rho less (sinh(2a) / 6) R_J(T, T + w, T + c,
    # T + p), has x < y among its arguments; the neck form has x > y.  Of
    # the 600 rows past the neck, 249 take the tail form; with the neck
    # form alone, all 600 took 3,947 steps.
    counting = _StepCountingMath()
    monkeypatch.setattr(catenoid, "math", counting)
    original = catenoid._carlson
    steps = {"tail": [], "neck": []}

    def counted(*args):
        before = counting.roots
        result = original(*args)
        taken, closing = divmod(counting.roots - before, 4)
        assert closing == len(result)
        steps["tail" if args[0] < args[1] else "neck"].append(taken)
        return result

    monkeypatch.setattr(catenoid, "_carlson", counted)
    necks = [10.0 ** (-6.0 + k * (math.log10(25.0) + 6.0) / 24) for k in range(25)]
    for a in necks:
        for span in (0.1, 1.0, 10.0):
            sample_catenary(a, a + span, 9, TOL)
    totals = {form: (len(taken), sum(taken)) for form, taken in steps.items()}
    assert totals == {"tail": (249, 692), "neck": (351, 2033)}
