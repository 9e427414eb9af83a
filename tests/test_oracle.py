"""Accuracy of the shipped quantities against an mpmath oracle at 30 digits.

The oracle integrates the definitions in t = a + u**2, which makes every
integrand smooth in u, with mpmath's tanh-sinh rule.  It shares no code with
the package and never calls mpmath's Carlson integrals: rho' is the
complex-step derivative Im rho(a + ih) / h of the oracle rho (Squire and
Trapp, SIAM Review 40, 1998), which has no cancellation, rather than the
integrand differentiated under the integral sign; K comes from its closed
form 1 + Gamma(-1/4) sqrt(pi) / (4 Gamma(1/4)) at 50 digits.

Every shipped value is a closed form or a root of one, exact to rounding
whatever abs_tol is.  rho is held to abs_tol and x(y) to 1e-12, both to
1e-13 relative, and x(y) at necks near its floor (about 2.8e-103) to 2e-15
relative; rho' to 1e-14 * max(1, |rho'|); phi to 1.5e-14 * max(1, |phi|)
and Phi to 1e-13 * max(1, |Phi|), phi never looser than abs_tol; I2 to
1e-12 * max(1, |I2|); K exactly, as the double nearest the oracle.  Each
field of the constants bundle is held to 1 ulp of its oracle at 50
digits, two_rho_aL to 2 ulps.

The package computes rho' as the closed form of phi' / (2 pi sinh(2a))
through the identity phi'(a) = 2 pi sinh(2a) rho'(a); test_phi_rho_identity
checks it between the two oracles alone, with phi' the complex-step
derivative of phi.

The kernel and Carlson tests alone call mpmath's elliprf, elliprj and
elliprd: they hold each output of the AGM loop that yields rho, rho', phi,
phi' and phi'' together to its closed form (rho, rho' and phi' to 2e-15
relative, phi to 1.5e-14 * max(1, |phi|)), the duplication sequence that
remains for the incomplete x(y) and Phi(a, r) to 1e-15 relative, and the
solvers' slopes phi' and phi'' (and with them rho'' = (phi'' - 4 pi
cosh(2a) rho') / (2 pi sinh(2a))) to mpmath's derivative of the closed
form of rho'.
"""

import dataclasses
import functools
import hashlib
import math

import mpmath
import pytest
from mpmath import mp, mpf

from hypcatenoid import (
    Tolerance,
    area_deficit,
    area_difference,
    catenary_x,
    compute_K,
    concavity_terms,
    constants_bundle,
    gomes_rho,
)
from hypcatenoid.catenoid import _K, _carlson, _neck_terms

TOLERANCES = (1e-8, 1e-10, 1e-12)
NECKS = (0.05, 0.3, 0.8, 2.0)
PROFILE_POINTS = ((0.3, 0.8), (0.6, 3.0), (1.5, 2.2), (0.1, 45.0))
# Tube radii r - a from 1e-7 to 3, and out to r = 20.
AREA_POINTS = (
    (0.6, 0.6 + 1e-7), (0.3, 0.3 + 1e-3), (0.8, 1.3), (1.5, 4.5), (0.6, 20.0)
)
DIGITS = 30
# Neck distances log-spaced over the package's domain [1e-6, 25].
SPAN = tuple(10.0 ** (-6.0 + k * (math.log10(25.0) + 6.0) / 24) for k in range(25))
STEP = mpf("1e-20")  # complex step: truncation error ~ STEP**2
# The bundle's fields are held to ulps, so their oracles carry more digits.
BUNDLE_DIGITS = 50
# Allowed error of each bundle field in ulps of the shipped double.
# two_rho_aL errs by +1.82 ulps, from evaluating rho at a_L, not from a_L.
BUNDLE_ULPS = {
    "K": 1, "a_c": 1, "two_rho_ac": 1, "a_0": 1,
    "a_l": 1, "a_L": 1, "two_rho_aL": 2,
}


# The smallest neck the u form is checked at (test_rho_relative).  Below it
# the form drifts: at a = 1e-100, y = 1 oracle_x is 34% off.
U_FORM_NECK_MIN = 1e-9


def _u_integral(g, a, u_hi):
    """int_0^u_hi g(u) du, split where the integrand turns over near sqrt(a)."""
    if mpmath.re(a) < U_FORM_NECK_MIN:
        raise ValueError(
            f"the u-form oracle is unchecked below a = {U_FORM_NECK_MIN}, got "
            f"a = {mpmath.nstr(mpmath.re(a), 5)}; integrate in v as "
            "test_catenary_x_tiny_necks does"
        )
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


def _phi(a, u_hi=mpmath.inf):
    """4 pi int_a^r sinh t (sinh 2t / sqrt(D) - 1) dt - 4 pi (cosh a - 1).

    r = a + u_hi**2; the default r = inf gives the deficit phi(a).
    """

    def g(u):
        t = a + u * u
        root = _sqrt_radicand(a, u)
        return (
            2 * u * 4 * mpmath.pi * mpmath.sinh(t) * mpmath.sinh(2 * a) ** 2
            / (root * (mpmath.sinh(2 * t) + root))
        )

    return _u_integral(g, a, u_hi) - 4 * mpmath.pi * (mpmath.cosh(a) - 1)


def _i2(a):
    """int_0^inf -4 pi N / (sqrt(sinh 2s sinh(4a+2s)) sinh(4a+2s)**2) ds
    - 4 pi (1 - K) cosh a, with s = t - a and
    N = 5 cosh(a+s) - 3 cosh(3a+3s) - 3 cosh(5a+s) + cosh(7a+3s)."""

    def g(u):
        s = u * u
        numer = (
            5 * mpmath.cosh(a + s)
            - 3 * mpmath.cosh(3 * a + 3 * s)
            - 3 * mpmath.cosh(5 * a + s)
            + mpmath.cosh(7 * a + 3 * s)
        )
        outer = mpmath.sinh(4 * a + 2 * s)
        return -2 * u * 4 * mpmath.pi * numer / (_sqrt_radicand(a, u) * outer * outer)

    tail = 4 * mpmath.pi * (1 - oracle_K()) * mpmath.cosh(a)
    return _u_integral(g, a, mpmath.inf) - tail


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
def oracle_area_difference(a, r):
    with mp.workdps(DIGITS):
        return _phi(mpf(a), mpmath.sqrt(mpf(r) - mpf(a)))


@functools.cache
def oracle_i2(a):
    with mp.workdps(DIGITS):
        return _i2(mpf(a))


@functools.cache
def oracle_K():
    with mp.workdps(50):
        return 1 + mpmath.gamma(-0.25) * mpmath.sqrt(mpmath.pi) / (
            4 * mpmath.gamma(0.25)
        )


@functools.cache
def oracle_a_c():
    with mp.workdps(BUNDLE_DIGITS):
        return mpmath.findroot(_drho, (mpf("0.4957"), mpf("0.4958")))


@functools.cache
def oracle_a_L():
    with mp.workdps(BUNDLE_DIGITS):
        return mpmath.findroot(_phi, (mpf("0.847"), mpf("0.848")))


def _mvt_f(x, K):
    """The comparison function whose zero is a_0."""
    return (-30 * mpmath.cosh(3 * x) - 18 * mpmath.cosh(5 * x)
            + 10 * mpmath.sinh(7 * x) + 15 * (1 - K) * mpmath.cosh(8 * x))


@functools.cache
def oracle_bundle():
    """Every ConstantsBundle field, by name, at BUNDLE_DIGITS digits."""
    with mp.workdps(BUNDLE_DIGITS):
        K, a_c, a_L = oracle_K(), oracle_a_c(), oracle_a_L()
        return {
            "K": K,
            "a_c": a_c,
            "two_rho_ac": 2 * _x(a_c, mpmath.inf),
            "a_0": mpmath.findroot(lambda x: _mvt_f(x, K), mpf("0.287")),
            "a_l": mpmath.acosh(1 / (1 - K)),
            "a_L": a_L,
            "two_rho_aL": 2 * _x(a_L, mpmath.inf),
        }


def _close(value, reference, allowed):
    error = abs(mpf(value) - reference)
    assert error <= allowed, f"error {mpmath.nstr(error, 3)} > {allowed:.1e}"


def _scaled(reference, factor):
    """factor * max(1, |reference|): relative above size 1, absolute below."""
    return factor * max(1.0, abs(float(reference)))


@pytest.mark.parametrize("abs_tol", TOLERANCES)
class TestQuadratureValues:
    def test_rho(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in NECKS + (float(oracle_a_c()),):
            _close(gomes_rho(a, tol), oracle_rho(a), abs_tol)

    def test_rho_prime(self, abs_tol):
        for a in (1e-4,) + NECKS + (float(oracle_a_c()),):
            reference = oracle_drho(a)
            _close(_neck_terms(a)[1], reference, _scaled(reference, 1e-14))

    def test_phi(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in NECKS + (float(oracle_a_L()),):
            reference = oracle_phi(a)
            allowed = min(abs_tol, _scaled(reference, 1.5e-14))
            _close(area_deficit(a, tol), reference, allowed)

    # x(y) and K take no tolerance: each case holds the tightest bound, and
    # the cases repeat until Tolerance itself goes (ROADMAP item 3).
    def test_catenary_x(self, abs_tol):
        for a, y in PROFILE_POINTS:
            _close(catenary_x(a, y), oracle_x(a, y), min(TOLERANCES))

    def test_K(self, abs_tol):
        # K is held as the double nearest its closed form; the Gamma form
        # evaluated in doubles lands 0.65 ulp below it.
        assert compute_K() == float(oracle_K())
        gamma_form = 1.0 - math.sqrt(math.pi) * math.gamma(0.75) / math.gamma(0.25)
        assert abs(gamma_form - _K) <= math.ulp(_K)


@pytest.mark.parametrize("abs_tol", TOLERANCES)
class TestClosedForms:
    """rho, x(y), Phi and I2 come from Carlson integrals, exact whatever abs_tol is;
    only rho takes a tolerance, so the other cases repeat until Tolerance goes."""

    def test_rho_relative(self, abs_tol):
        tol = Tolerance(abs_tol=abs_tol)
        for a in (1e-9, 1e-6, 1e-3, 0.5, 5.0, 25.0):
            _close(gomes_rho(a, tol), oracle_rho(a), 1e-13 * float(oracle_rho(a)))

    def test_catenary_x_relative(self, abs_tol):
        for a in (1e-6, 0.5, 5.0):
            for offset in (1e-12, 1e-6, 0.3, 3.0):
                y = a + offset
                reference = oracle_x(a, y)
                _close(catenary_x(a, y), reference, 1e-13 * float(reference))

    def test_area_difference(self, abs_tol):
        for a, r in AREA_POINTS:
            reference = oracle_area_difference(a, r)
            phi = area_difference(a, r).phi_a_r
            _close(phi, reference, _scaled(reference, 1e-13))

    def test_i2(self, abs_tol):
        for a in (0.2, 0.6, 1.5):
            reference = oracle_i2(a)
            _close(concavity_terms(a)[1], reference, _scaled(reference, 1e-12))


@pytest.mark.parametrize("abs_tol", TOLERANCES)
def test_thresholds(abs_tol):
    bundle = constants_bundle(Tolerance(abs_tol=abs_tol))
    reference = oracle_bundle()
    assert set(BUNDLE_ULPS) == {field.name for field in dataclasses.fields(bundle)}
    for name, ulps in BUNDLE_ULPS.items():
        value = getattr(bundle, name)
        error = float((mpf(value) - reference[name]) / math.ulp(value))
        assert abs(error) <= ulps, f"{name} errs by {error:+.3f} ulps"


def test_phi_rho_identity():
    """phi'(a) = 2 pi sinh(2a) rho'(a), from the oracles and no package code."""
    for a in NECKS + (float(oracle_a_c()),):
        with mp.workdps(DIGITS):
            dphi = mpmath.im(_phi(mpf(a) + 1j * STEP)) / STEP
            expected = 2 * mpmath.pi * mpmath.sinh(2 * mpf(a)) * oracle_drho(a)
            _close(dphi, expected, _scaled(expected, 1e-25))


# 120 necks log-spaced over [1e-6, 25], a finer grid than SPAN.
KERNEL_SPAN = tuple(
    10.0 ** (-6.0 + k * (math.log10(25.0) + 6.0) / 119) for k in range(120)
)


def _neck_closed_forms(a):
    """rho, rho', phi, phi' and phi'' from mpmath's R_F, R_J and R_D."""
    t = mpf(a)
    w = mpmath.sinh(t) ** 2
    c, p = 1 + 2 * w, 1 + w
    rf, rd = mpmath.elliprf(0, w, c), mpmath.elliprd(0, w, c)
    s2a = mpmath.sinh(2 * t)
    drho = 2 * p / 3 * rd - rf
    return (
        s2a / 6 * mpmath.elliprj(0, w, c, p),
        drho,
        4 * mpmath.pi * (1 - p * rf + c * p / 3 * rd),
        2 * mpmath.pi * s2a * drho,
        4 * mpmath.pi * (p * (c * c + 2) * rd / 3 - (2 + 3 * w + 2 * w * w) * rf) / c,
    )


def test_neck_terms_closed_forms():
    """Each output of the AGM kernel against its Carlson closed form.

    Below a ~ 1.5e-154 w = sinh(a)**2 is subnormal, and below ~2e-162 it
    is 0; the AGM's kc = sinh(a) / sqrt(c) stays positive and keeps its
    digits there.
    """
    for a in KERNEL_SPAN + (1e-300, 1e-160, 1e-100):
        rho, drho, phi, dphi, d2phi = _neck_terms(a)
        with mp.workdps(DIGITS):
            ref_rho, ref_drho, ref_phi, ref_dphi, ref_d2phi = _neck_closed_forms(a)
        _close(rho, ref_rho, 2e-15 * float(ref_rho))
        _close(drho, ref_drho, 2e-15 * abs(float(ref_drho)))
        _close(phi, ref_phi, _scaled(ref_phi, 1.5e-14))
        _close(dphi, ref_dphi, 2e-15 * abs(float(ref_dphi)))
        _close(d2phi, ref_d2phi, _scaled(ref_d2phi, 1e-14))


def test_u_form_refuses_tiny_necks():
    with pytest.raises(ValueError, match="test_catenary_x_tiny_necks"):
        oracle_x(1e-100, 1.0)
    assert oracle_rho(U_FORM_NECK_MIN) > 0


def test_catenary_x_tiny_necks():
    """x(y) far from and next to the neck, at necks near the profile's floor.

    The u form of oracle_x is 34% off at a = 1e-100, y = 1, so this oracle
    integrates in s = v**2 instead:
    x(y) = (sinh(2a) / 4) int_0^sqrt(T) 2 dv / ((v**2 + p) sqrt((v**2 + w)
    (v**2 + c))), smooth in v, broken at every decade from v ~ a / 100 up.
    """
    for a, y in ((1e-100, 1.0), (3e-103, 3e-103 * (1 + 1e-3))):
        with mp.workdps(DIGITS):
            ta, ty = mpf(a), mpf(y)
            w = mpmath.sinh(ta) ** 2
            c, p = 1 + 2 * w, 1 + w
            top = mpmath.sqrt(mpmath.sinh(ty - ta) * mpmath.sinh(ty + ta))
            decades = range(int(mpmath.log10(ta)) - 2, int(mpmath.log10(top)) + 1)
            breaks = [mpf(0)] + [mpf(10) ** k for k in decades if mpf(10) ** k < top]

            def g(v):
                return 2 / ((v * v + p) * mpmath.sqrt((v * v + w) * (v * v + c)))

            reference = mpmath.sinh(2 * ta) / 4 * mpmath.quad(g, breaks + [top])
        _close(catenary_x(a, y), reference, 2e-15 * float(reference))


def test_carlson_incomplete():
    """R_F and R_J at the incomplete arguments of x(y) and Phi(a, r)."""
    for a in (1e-6, 0.05, 0.6, 2.0, 12.0):
        w = math.sinh(a) ** 2
        c, p = 1.0 + 2.0 * w, 1.0 + w
        wc = w * c
        for t in (1e-12, 1e-6, 0.3, 5.0, 1e6):
            profile = (
                c * (t + w), w * (t + c), wc, wc * (t + p) / p,
                -(c * t / p) * (w * w * t / p) * (wc * t / p),
            )
            tail = (t, t + w, t + c, t + c, 0.0)  # R_J(x, y, z, z) = R_D
            for args in (profile, tail):
                values = _carlson(*args)
                with mp.workdps(DIGITS):
                    x, y, z, q = (mpf(v) for v in args[:4])
                    references = (mpmath.elliprf(x, y, z), mpmath.elliprj(x, y, z, q))
                for value, reference in zip(values, references):
                    _close(value, reference, 1e-15 * float(reference))


def test_rho_bits_pinned():
    """rho's AGM path is pinned bit for bit on 401 necks over [1e-6, 25]."""
    tol = Tolerance()
    necks = [10.0 ** (-6.0 + k * (math.log10(25.0) + 6.0) / 400) for k in range(400)]
    bits = ",".join(gomes_rho(a, tol).hex() for a in necks + [25.0])
    digest = hashlib.sha256(bits.encode()).hexdigest()
    assert digest == "75e1c1f3b955c0886f09ebc138347ab9b93e932ad009d5151bffb903df78c9d6"


def test_rho_asymptote():
    """rho(a) e**a rises to 2 (1 - K) = 1.19814023473559..."""
    limit = 2.0 * (1.0 - _K)
    assert limit == pytest.approx(1.19814023473559, abs=1e-14)
    for a in (20.0, 25.0):
        assert gomes_rho(a, Tolerance()) * math.exp(a) == pytest.approx(limit, rel=1e-15)


def _drho_closed(a):
    w = mpmath.sinh(a) ** 2
    c = 1 + 2 * w
    return 2 * (1 + w) / 3 * mpmath.elliprd(0, w, c) - mpmath.elliprf(0, w, c)


def test_solver_slopes():
    """phi', phi'' and rho'' from one AGM loop against mpmath."""
    for a in (1e-3, 0.05, 0.3, float(oracle_a_c()), 0.8, 2.0, 5.0, 12.0):
        _, drho, _, dphi, d2phi = _neck_terms(a)
        d2rho = (d2phi - 4.0 * math.pi * math.cosh(2.0 * a) * drho) / (
            2.0 * math.pi * math.sinh(2.0 * a)
        )
        with mp.workdps(DIGITS):
            t = mpf(a)
            slope = _drho_closed(t)
            curvature = mpmath.diff(_drho_closed, t)
            ref_dphi = 2 * mpmath.pi * mpmath.sinh(2 * t) * slope
            ref_d2phi = 4 * mpmath.pi * mpmath.cosh(2 * t) * slope + (
                2 * mpmath.pi * mpmath.sinh(2 * t) * curvature
            )
        _close(d2rho, curvature, 1e-14 * abs(float(curvature)))
        _close(dphi, ref_dphi, _scaled(ref_dphi, 1e-14))
        _close(d2phi, ref_d2phi, _scaled(ref_d2phi, 1e-14))
