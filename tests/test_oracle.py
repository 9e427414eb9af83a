"""Accuracy of the shipped quantities against an mpmath oracle at 30 digits.

The oracle integrates the definitions in t = a + u**2, which makes every
integrand smooth in u, with mpmath's tanh-sinh rule.  It shares no code with
the package: rho' is the complex-step derivative Im rho(a + ih) / h of the
oracle rho (Squire and Trapp, SIAM Review 40, 1998), which has no
cancellation, rather than the integrand differentiated under the integral
sign; K comes from its closed form 1 + Gamma(-1/4) sqrt(pi) / (4 Gamma(1/4)).

A quadrature value must lie within abs_tol of the oracle.  a_c and a_L are
roots solved to x_tol = 1e-10 of functions known to abs_tol, so they get
20 * abs_tol + 2e-10.
"""

import functools

import mpmath
import pytest
from mpmath import mp, mpf

from hypcatenoid import (
    Tolerance,
    area_deficit,
    catenary_x,
    compute_K,
    constants_bundle,
    gomes_rho,
)
from hypcatenoid.catenoid import _rho_prime

TOLERANCES = (1e-8, 1e-10, 1e-12)
NECKS = (0.05, 0.3, 0.8, 2.0)
PROFILE_POINTS = ((0.3, 0.8), (0.6, 3.0), (1.5, 2.2), (0.1, 45.0))
DIGITS = 30
STEP = mpf("1e-20")  # complex step: truncation error ~ STEP**2


def _u_integral(g, a, u_hi):
    """int_0^u_hi g(u) du, split where the integrand turns over near sqrt(a)."""
    turn = mpmath.sqrt(mpmath.re(a))
    breaks = [mpf(0)] + [b for b in (turn, mpf(1), mpf(2)) if b < u_hi]
    return mpmath.quad(g, breaks + [u_hi])


def _sqrt_radicand(a, u):
    return mpmath.sqrt(mpmath.sinh(2 * u * u) * mpmath.sinh(4 * a + 2 * u * u))


def _x(a, u_hi):
    """int_0^u_hi of the catenary integrand sinh(2a) / (cosh t sqrt(D)) dt/du."""

    def g(u):
        return 2 * u * mpmath.sinh(2 * a) / (
            mpmath.cosh(a + u * u) * _sqrt_radicand(a, u)
        )

    return _u_integral(g, a, u_hi)


def _phi(a):
    """4 pi int_a^inf sinh t (sinh 2t / sqrt(D) - 1) dt - 4 pi (cosh a - 1)."""

    def g(u):
        t = a + u * u
        root = _sqrt_radicand(a, u)
        return (
            2 * u * 4 * mpmath.pi * mpmath.sinh(t) * mpmath.sinh(2 * a) ** 2
            / (root * (mpmath.sinh(2 * t) + root))
        )

    return _u_integral(g, a, mpmath.inf) - 4 * mpmath.pi * (mpmath.cosh(a) - 1)


@functools.cache
def oracle_x(a, y):
    with mp.workdps(DIGITS):
        return _x(mpf(a), mpmath.sqrt(mpf(y) - mpf(a)))


@functools.cache
def oracle_rho(a):
    with mp.workdps(DIGITS):
        return _x(mpf(a), mpmath.inf)


def _drho(a):
    return mpmath.im(_x(a + 1j * STEP, mpmath.inf)) / STEP


@functools.cache
def oracle_drho(a):
    with mp.workdps(DIGITS):
        return _drho(mpf(a))


@functools.cache
def oracle_phi(a):
    with mp.workdps(DIGITS):
        return _phi(mpf(a))


@functools.cache
def oracle_K():
    with mp.workdps(DIGITS):
        return 1 + mpmath.gamma(-0.25) * mpmath.sqrt(mpmath.pi) / (
            4 * mpmath.gamma(0.25)
        )


@functools.cache
def oracle_a_c():
    with mp.workdps(DIGITS):
        return mpmath.findroot(_drho, (mpf("0.4957"), mpf("0.4958")))


@functools.cache
def oracle_a_L():
    with mp.workdps(DIGITS):
        return mpmath.findroot(_phi, (mpf("0.847"), mpf("0.848")))


def _close(value, reference, allowed):
    error = abs(mpf(value) - reference)
    assert error <= allowed, f"error {mpmath.nstr(error, 3)} > {allowed:.1e}"


@pytest.mark.parametrize("abs_tol", TOLERANCES)
class TestQuadratureValues:
    def test_rho(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in NECKS + (float(oracle_a_c()),):
            _close(gomes_rho(a, tol), oracle_rho(a), abs_tol)

    def test_rho_prime(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in NECKS + (float(oracle_a_c()),):
            _close(_rho_prime(a, tol), oracle_drho(a), abs_tol)

    def test_phi(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in NECKS + (float(oracle_a_L()),):
            _close(area_deficit(a, tol), oracle_phi(a), abs_tol)

    def test_catenary_x(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a, y in PROFILE_POINTS:
            _close(catenary_x(a, y, tol), oracle_x(a, y), abs_tol)

    def test_K(self, abs_tol):
        _close(compute_K(Tolerance(abs_tol=abs_tol)), oracle_K(), abs_tol)


@pytest.mark.parametrize("abs_tol", TOLERANCES)
class TestClosedForms:
    """rho and x(y) come from Carlson integrals, exact whatever abs_tol is."""

    def test_rho_relative(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in (1e-9, 1e-6, 1e-3, 0.5, 5.0, 25.0):
            _close(gomes_rho(a, tol), oracle_rho(a), 1e-13 * float(oracle_rho(a)))

    def test_catenary_x_relative(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in (1e-6, 0.5, 5.0):
            for offset in (1e-12, 1e-6, 0.3, 3.0):
                y = a + offset
                reference = oracle_x(a, y)
                _close(catenary_x(a, y, tol), reference, 1e-13 * float(reference))


@pytest.mark.parametrize("abs_tol", TOLERANCES)
def test_thresholds(abs_tol):
    bundle = constants_bundle(Tolerance(abs_tol=abs_tol))
    allowed = 20.0 * abs_tol + 2.0e-10
    _close(bundle.a_c, oracle_a_c(), allowed)
    _close(bundle.a_L, oracle_a_L(), allowed)
