import math
import random
import threading

import numpy as np
import pytest

from hypcatenoid import quadrature
from hypcatenoid.quadrature import EvaluationBudgetError, Tolerance, quad_finite

from _oracles import midpoint


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1.0e-10

    def test_rejects_nonpositive_abs_tol(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1.0)


class TestQuadFinite:
    def test_constant(self, tol):
        res = quad_finite(lambda t: 1.0, 0.0, 1.0, tol)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.error_estimate <= tol.abs_tol
        assert res.evaluations >= 1

    def test_cosine(self, tol):
        res = quad_finite(math.cos, 0.0, math.pi / 2.0, tol)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_against_midpoint_oracle(self, tol):
        res = quad_finite(lambda t: math.exp(-t * t), 0.0, 1.0, tol)
        oracle = midpoint(lambda t: np.exp(-t * t), 0.0, 1.0)
        assert abs(res.value - oracle) <= 1e-10
        # erf gives the closed form; the estimate must bound the true error.
        exact = math.sqrt(math.pi) / 2.0 * math.erf(1.0)
        assert abs(res.value - exact) <= res.error_estimate + 1e-13

    def test_error_estimate_bounds_true_error(self, tol):
        cases = [
            (math.cos, 0.0, math.pi / 2.0, 1.0),
            (math.exp, 0.0, 1.0, math.e - 1.0),
            (lambda t: t**3, 0.0, 2.0, 4.0),
            (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
        ]
        for f, lo, hi, exact in cases:
            res = quad_finite(f, lo, hi, tol)
            assert abs(res.value - exact) <= res.error_estimate + 1e-13

    def test_zero_width_interval(self, tol):
        res = quad_finite(math.exp, 2.0, 2.0, tol)
        assert res.value == 0.0
        assert res.error_estimate == 0.0
        assert res.evaluations == 1

    def test_reversed_interval_rejected(self, tol):
        with pytest.raises(ValueError):
            quad_finite(math.exp, 1.0, 0.0, tol)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 200)
        tight = Tolerance(abs_tol=1.0e-14)
        with pytest.raises(EvaluationBudgetError):
            quad_finite(lambda t: math.cos(200.0 * t), 0.0, 10.0, tight)

    def test_nonfinite_integrand_rejected(self, tol):
        with pytest.raises(ValueError):
            quad_finite(lambda t: 1.0 / t, 0.0, 1.0, tol)

    def test_linearity(self, tol):
        rng = random.Random(1234)
        for _ in range(10):
            a3, a2, a1, a0 = (rng.uniform(-2.0, 2.0) for _ in range(4))
            omega = rng.uniform(0.5, 3.0)

            def g(t):
                return a3 * t**3 + a2 * t**2 + a1 * t + a0

            def h(t):
                return math.sin(omega * t) + math.cos(t)

            alpha = rng.uniform(-2.0, 2.0)
            beta = rng.uniform(-2.0, 2.0)
            combined = quad_finite(
                lambda t: alpha * g(t) + beta * h(t), 0.0, 1.5, tol
            )
            parts = alpha * quad_finite(g, 0.0, 1.5, tol).value + beta * quad_finite(
                h, 0.0, 1.5, tol
            ).value
            assert abs(combined.value - parts) <= 2.0 * tol.abs_tol

    def test_interval_additivity(self, tol):
        rng = random.Random(99)
        for _ in range(10):
            mid = rng.uniform(0.5, 1.5)

            def f(t):
                return math.exp(-t) * math.sin(3.0 * t) + t * t

            whole = quad_finite(f, 0.0, 2.0, tol).value
            split = (
                quad_finite(f, 0.0, mid, tol).value
                + quad_finite(f, mid, 2.0, tol).value
            )
            assert abs(whole - split) <= 2.0 * tol.abs_tol

    def test_thread_safety_smoke(self, tol):
        results = [None] * 8
        expected = quad_finite(lambda t: math.exp(-t * t), 0.0, 1.0, tol).value

        def worker(i):
            results[i] = quad_finite(lambda t: math.exp(-t * t), 0.0, 1.0, tol).value

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results)

