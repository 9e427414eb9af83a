import math
import sys
import threading

import numpy as np
import pytest

from hypcatenoid import (
    BracketError,
    ConsistencyError,
    ConstantsBundle,
    EvaluationBudgetError,
    Tolerance,
    area_deficit,
    compute_K,
    constants_bundle,
    gomes_rho,
    mvt_f,
    solve_a_0,
    solve_a_c,
    solve_root,
)

# Frozen from an independent high-precision evaluation.
K_REF = 0.400929882632
A_C_REF = 0.49577389065
RHO_MAX_REF = 0.501142951212
A_0_REF = 0.287190817189
A_L_REF = 0.847485601949
A_L_LOWER_REF = 1.10055020277
TWO_RHO_AL_REF = 0.876894857279


class TestSolveRoot:
    def test_linear(self):
        root = solve_root(lambda x: (x - 1.0, 1.0), 0.0, 2.0)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self):
        root = solve_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_cube_root_of_two(self):
        root = solve_root(lambda x: (x**3 - 2.0, 3.0 * x * x), 1.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_relative_floor(self):
        # x_tol is eps times the smaller bracket end, so a tiny root keeps
        # its relative digits.
        root = solve_root(lambda x: (x**3 - 2.7e-35, 3.0 * x * x), 1e-13, 1.0)
        assert root == pytest.approx(3e-12, rel=4.0 * sys.float_info.epsilon)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_root(lambda x: (x * x + 1.0, 2.0 * x), 1.0, 2.0)

    def test_no_sign_change_at_start_end(self):
        # The iteration closes on the end 2.0 from the midpoint; that end's
        # sign is wrong, so it is checked there.
        with pytest.raises(BracketError, match="at the bracket end 2.0"):
            solve_root(lambda x: (x - 3.0, 1.0), 0.0, 2.0)

    def test_ends_not_evaluated(self):
        # Ends whose signs the caller knows are never evaluated unless the
        # iteration closes on them.
        seen = []

        def f(x):
            seen.append(x)
            return math.log(x / 3.0), 1.0 / x

        root = solve_root(f, 1e-3, 10.0)
        assert root == pytest.approx(3.0, rel=4.0 * sys.float_info.epsilon)
        assert 1e-3 not in seen and 10.0 not in seen
        assert len(seen) == 6

    def test_iteration_budget(self):
        # A step function over 600 decades has slope 0, so every step is a
        # bisection, and it cannot be closed to the relative floor within the
        # iteration cap.
        with pytest.raises(EvaluationBudgetError):
            solve_root(lambda x: (math.copysign(1.0, x - 1.0), 0.0), 1e-300, 1e300)

    def test_multiple_root(self):
        # Where the slope vanishes, a Newton step cuts the distance to a root
        # of multiplicity m only by the factor 1 - 1/m: a double root still
        # reaches the relative floor, and one of multiplicity 10 cannot
        # within the iteration cap.
        def power(m):
            def f(x):
                t = x - 0.3
                return t * abs(t) ** (m - 1), m * abs(t) ** (m - 1)

            return f

        root = solve_root(power(2), 0.0, 2.0)
        assert root == pytest.approx(0.3, rel=4.0 * sys.float_info.epsilon)
        with pytest.raises(EvaluationBudgetError):
            solve_root(power(10), 0.0, 2.0)

    def test_bracket_order(self):
        with pytest.raises(ValueError):
            solve_root(lambda x: (x - 1.5, 1.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            solve_root(lambda x: (x - 1.0, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_root(lambda x: (x - 1.0, 1.0), math.nan, 2.0)


class TestComputeK:
    def test_printed_value(self):
        assert compute_K() == pytest.approx(0.40093, abs=5e-5)

    def test_frozen_reference(self):
        assert compute_K() == pytest.approx(K_REF, abs=1e-10)

    def test_lower_threshold_identity(self):
        K = compute_K()
        assert math.acosh(1.0 / (1.0 - K)) == pytest.approx(1.10055, abs=1e-4)

    def test_integrand_vanishes_at_origin(self):
        # (1/x^2) (1/sqrt(1 - x^4) - 1) ~ x^2/2 near 0.  The raw form loses
        # the signal to cancellation (half an ulp of 1 divided by x^2 is
        # 2.2e-8 at x = 1e-4), so it is only checked to that granularity;
        # the equivalent cancellation-free form must hit the Taylor value.
        x = 1e-4
        raw = (1.0 / (x * x)) * (1.0 / math.sqrt(1.0 - x**4) - 1.0)
        assert abs(raw) < 1e-7
        root = math.sqrt(1.0 - x**4)
        rewritten = (x * x) / (root * (1.0 + root))
        assert rewritten == pytest.approx(0.5 * x * x, rel=1e-6)


class TestSolveAc:
    def test_printed_value(self, tol):
        assert solve_a_c(tol) == pytest.approx(0.49577, abs=1e-4)

    def test_frozen_reference(self, tol):
        assert solve_a_c(tol) == pytest.approx(A_C_REF, abs=1e-8)

    def test_doubled_rho(self, tol):
        a_c = solve_a_c(tol)
        assert 2.0 * gomes_rho(a_c, tol) == pytest.approx(1.00229, abs=1e-4)

    def test_interior_maximum(self, tol):
        a_c = solve_a_c(tol)
        peak = gomes_rho(a_c, tol)
        assert gomes_rho(a_c - 0.05, tol) < peak
        assert gomes_rho(a_c + 0.05, tol) < peak


class TestSolveA0:
    def test_within_proof_bounds(self):
        a_0 = solve_a_0()
        assert 0.0 < a_0 < 0.405465

    def test_sign_change(self):
        a_0 = solve_a_0()
        assert mvt_f(a_0 - 0.01) < 0.0 < mvt_f(a_0 + 0.01)

    def test_frozen_reference(self):
        assert solve_a_0() == pytest.approx(A_0_REF, abs=1e-8)

    def test_against_sign_scan(self):
        # Brute-force bracket: locate the sign flip on a dense grid.
        K = compute_K()
        x = np.linspace(1e-6, 0.405465, 100_000)
        f = (
            -30.0 * np.cosh(3.0 * x)
            - 18.0 * np.cosh(5.0 * x)
            + 10.0 * np.sinh(7.0 * x)
            + 15.0 * (1.0 - K) * np.cosh(8.0 * x)
        )
        flips = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
        assert len(flips) == 1
        lo, hi = x[flips[0]], x[flips[0] + 1]
        assert lo <= solve_a_0() <= hi


class TestSolveAL:
    """The bundle's a_L, the zero of the area deficit on [a_c, a_l]."""

    def test_printed_value(self, tol):
        assert constants_bundle(tol).a_L == pytest.approx(0.847486, abs=1e-5)

    def test_frozen_reference(self, tol):
        assert constants_bundle(tol).a_L == pytest.approx(A_L_REF, abs=1e-8)

    def test_doubled_rho(self, tol):
        a_L = constants_bundle(tol).a_L
        assert 2.0 * gomes_rho(a_L, tol) == pytest.approx(0.876895, abs=1e-5)

    def test_sign_change(self, tol):
        a_L = constants_bundle(tol).a_L
        assert area_deficit(a_L - 0.01, tol) > 0.0 > area_deficit(a_L + 0.01, tol)


class TestConstantsBundle:
    def test_ordering_invariant(self, bundle):
        assert 0.0 < bundle.a_0 < bundle.a_c < bundle.a_L < bundle.a_l

    def test_printed_ordering_values(self, bundle):
        assert bundle.a_c == pytest.approx(0.49577, abs=1e-4)
        assert bundle.a_L == pytest.approx(0.847486, abs=1e-5)
        assert bundle.a_l == pytest.approx(1.10055, abs=1e-4)

    def test_frozen_references(self, bundle):
        assert bundle.K == pytest.approx(K_REF, abs=1e-10)
        assert bundle.two_rho_ac / 2 == pytest.approx(RHO_MAX_REF, abs=1e-9)
        assert bundle.a_l == pytest.approx(A_L_LOWER_REF, abs=1e-9)
        assert bundle.two_rho_aL == pytest.approx(TWO_RHO_AL_REF, abs=1e-9)

    def test_derived_fields(self, bundle, tol):
        assert bundle.two_rho_ac == 2.0 * gomes_rho(bundle.a_c, tol)
        assert bundle.two_rho_ac == pytest.approx(1.00229, abs=1e-4)
        assert bundle.a_l == pytest.approx(
            math.acosh(1.0 / (1.0 - bundle.K)), abs=1e-12
        )

    def test_solved_residuals(self, bundle, tol):
        assert abs(area_deficit(bundle.a_L, tol)) <= 1e-8
        assert abs(mvt_f(bundle.a_0)) <= 1e-7

    def test_cache_identity(self, tol):
        assert constants_bundle(tol) is constants_bundle(tol)
        assert constants_bundle(Tolerance()) is constants_bundle(tol)

    def test_cache_bounded(self):
        for i in range(100):
            constants_bundle(Tolerance(abs_tol=1e-8 * (1.0 + i / 100)))
        assert constants_bundle.cache_info().currsize == 32
        repeated = Tolerance(abs_tol=1e-8 * 1.99)
        assert constants_bundle(repeated) is constants_bundle(repeated)

    def test_cache_evicts_least_recently_used(self):
        constants_bundle.cache_clear()
        tols = [Tolerance(abs_tol=1e-8 * (1.0 + i / 100)) for i in range(33)]
        first = constants_bundle(tols[0])
        for tol in tols[1:32]:
            constants_bundle(tol)
        assert constants_bundle(tols[0]) is first
        constants_bundle(tols[32])
        assert constants_bundle(tols[0]) is first
        misses = constants_bundle.cache_info().misses
        constants_bundle(tols[1])
        assert constants_bundle.cache_info().misses == misses + 1

    def test_concurrent_calls_agree(self, tol):
        # More threads than cores and a short switch interval interleave the
        # cache's lookups, solves and evictions; every bundle must be equal.
        reference = constants_bundle(tol)
        tols = [Tolerance(abs_tol=1e-9 * (1.0 + i / 50)) for i in range(40)]
        results = []

        def worker(offset):
            results.extend(constants_bundle(tols[(offset + i) % 40]) for i in range(80))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6 * 80
        assert all(bundle == reference for bundle in results)
        assert constants_bundle.cache_info().currsize <= 32

    def test_self_consistency_across_tolerances(self):
        coarse = constants_bundle(Tolerance(abs_tol=1e-8))
        fine = constants_bundle(Tolerance(abs_tol=1e-9))
        for field in ("K", "a_c", "a_0", "a_l", "a_L", "two_rho_ac", "two_rho_aL"):
            assert getattr(coarse, field) == pytest.approx(
                getattr(fine, field), abs=1e-8
            )

    def test_ordering_enforced_on_construction(self):
        with pytest.raises(ConsistencyError):
            ConstantsBundle(
                K=0.4,
                a_c=0.5,
                a_0=0.6,
                a_l=1.1,
                a_L=0.85,
                two_rho_ac=1.0,
                two_rho_aL=0.88,
            )

    def test_second_split_function_derivative_at_zero(self, bundle):
        # -90 sinh(3x) - 20 sinh(5x) + 120 (1-K) sinh(8x) vanishes at x = 0
        # exactly, with no tolerance needed.
        x = 0.0
        derivative = (
            -90.0 * math.sinh(3.0 * x)
            - 20.0 * math.sinh(5.0 * x)
            + 120.0 * (1.0 - bundle.K) * math.sinh(8.0 * x)
        )
        assert derivative == 0.0
