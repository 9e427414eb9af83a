"""Accuracy of the shipped quantities against an mpmath oracle at 30 digits.

The oracle integrates the definitions in t = a + u**2, which makes every
integrand smooth in u, with mpmath's tanh-sinh rule.  It shares no code with
the package and never calls mpmath's Carlson integrals: rho' is the
complex-step derivative Im rho(a + ih) / h of the oracle rho (Squire and
Trapp, SIAM Review 40, 1998), which has no cancellation, rather than the
integrand differentiated under the integral sign; K comes from its closed
form 1 + Gamma(-1/4) sqrt(pi) / (4 Gamma(1/4)) at 50 digits.

Every shipped value is a closed form or a root of one, whatever abs_tol
is, and each is held to the bound its docstring states in eps, on points
that reach most of it.  rho is held to _RHO_ERROR relative; x(y) to 8 eps
relative, on both sides of the switch to its tail form too, and at necks
near its floor (about 2.8e-103) to 2e-15 relative;
rho' to 1e-14 * max(1, |rho'|); phi to 1.5e-14 * max(1, |phi|), never
looser than abs_tol; Phi to 128 eps * max(1, |Phi|) for a >= 0.2 and to
640 eps below; I2 to 10 eps * (|phi''| + |I1|), the size of the two terms
it is the difference of; K exactly, as the double nearest the oracle.
Each field of the constants bundle is held to 1 ulp of its oracle at 50
digits, two_rho_aL to 2 ulps.

The package computes rho' as the closed form of phi' / (2 pi sinh(2a))
through the identity phi'(a) = 2 pi sinh(2a) rho'(a); test_phi_rho_identity
checks it between the two oracles alone, with phi' the complex-step
derivative of phi.

The kernel and Carlson tests alone call mpmath's elliprf, elliprj and
elliprd: they hold each output of the AGM loop that yields rho, rho', phi,
phi' and phi'' together to its closed form (rho, rho' and phi' to 2e-15
relative, phi to 1.5e-14 * max(1, |phi|)), the duplication sequences that
remain for the incomplete x(y) and Phi(a, r) to 1e-15 relative, and the
solvers' slopes phi' and phi'' (and with them rho'' = (phi'' - 4 pi
cosh(2a) rho') / (2 pi sinh(2a))) to mpmath's derivative of the closed
form of rho'.  test_separation_roots holds both roots of 2 rho(a) = d to
12 eps / |g'| of the root of g = log(2 rho / d) with rho from elliprj, and
their median error to 1 ulp; test_separation_roots_within_their_band holds
g's rounding at each root to _RHO_ERROR + eps (1 + |g|), and each root to
the band (_RHO_ERROR + eps) / |g'| that bound implies.
"""

import dataclasses
import functools
import hashlib
import math
import statistics
import sys

import mpmath
import pytest
from mpmath import mp, mpf

from hypcatenoid import (
    Tolerance,
    area_deficit,
    area_difference,
    catenary_x,
    catenoids_for_separation,
    compute_K,
    concavity_terms,
    constants_bundle,
    gomes_rho,
)
from hypcatenoid.catenoid import (
    _K,
    _RHO_ERROR,
    _carlson,
    _neck_terms,
    _profile_terms,
    _spread,
)

TOLERANCES = (1e-8, 1e-10, 1e-12)
EPS = sys.float_info.epsilon
NECKS = (0.05, 0.3, 0.8, 2.0)
PROFILE_POINTS = ((0.3, 0.8), (0.6, 3.0), (1.5, 2.2), (0.1, 45.0))
# Tube radii r - a from 1e-7 to 3, and out to r = 20; the last two reach
# 92 and 90 of the 128 eps Phi is held to at a >= 0.2.
AREA_POINTS = (
    (0.6, 0.6 + 1e-7), (0.3, 0.3 + 1e-3), (0.8, 1.3), (1.5, 4.5), (0.6, 20.0),
    (0.27, 0.27 + 1e-4), (0.22, 0.22 + 1e-3),
)
# Necks where Phi's terms cancel; they reach 390 and 405 of its 640 eps.
TINY_AREA_POINTS = ((3e-6, 3e-6 + 1e-4), (5e-5, 5e-5 + 1e-9))
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
            _close(gomes_rho(a, tol), oracle_rho(a), _RHO_ERROR * float(oracle_rho(a)))

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

    # x(y) and K take no tolerance: each case holds its stated bound, and
    # the cases repeat until Tolerance itself goes (ROADMAP item 3).
    def test_catenary_x(self, abs_tol):
        for a, y in PROFILE_POINTS:
            _close(catenary_x(a, y), oracle_x(a, y), 8 * EPS * float(oracle_x(a, y)))

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
            _close(gomes_rho(a, tol), oracle_rho(a), _RHO_ERROR * float(oracle_rho(a)))

    def test_catenary_x_relative(self, abs_tol):
        # x(y)'s error is largest at large a; at a = 19 it reaches 4.0 of its 8 eps.
        for a in (1e-6, 0.5, 5.0, 19.0):
            for offset in (1e-12, 1e-6, 0.3, 3.0):
                y = a + offset
                reference = oracle_x(a, y)
                _close(catenary_x(a, y), reference, 8 * EPS * float(reference))

    def test_area_difference(self, abs_tol):
        for points, bound in ((AREA_POINTS, 128 * EPS), (TINY_AREA_POINTS, 640 * EPS)):
            for a, r in points:
                reference = oracle_area_difference(a, r)
                phi = area_difference(a, r)
                _close(phi, reference, _scaled(reference, bound))

    def test_i2(self, abs_tol):
        # At a = 0.2, near I2's zero, the error reaches 7.2 of its 10 eps.
        for a in (0.2, 0.6, 1.5):
            i1, i2 = concavity_terms(a)
            _close(i2, oracle_i2(a), 10 * EPS * (abs(i1 + i2) + abs(i1)))


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
    digits there.  rho's worst relative error over KERNEL_SPAN, 8.8e-16 at
    a ~ 2e-5, must reach a quarter of _RHO_ERROR, so the bound is pinned
    from both sides.
    """
    rho_worst = 0.0
    for a in KERNEL_SPAN + (1e-300, 1e-160, 1e-100):
        rho, drho, phi, dphi, d2phi = _neck_terms(a)
        with mp.workdps(DIGITS):
            ref_rho, ref_drho, ref_phi, ref_dphi, ref_d2phi = _neck_closed_forms(a)
            if a in KERNEL_SPAN:
                rho_worst = max(rho_worst, float(abs(rho / ref_rho - 1)))
        _close(rho, ref_rho, _RHO_ERROR * float(ref_rho))
        _close(drho, ref_drho, 2e-15 * abs(float(ref_drho)))
        _close(phi, ref_phi, _scaled(ref_phi, 1.5e-14))
        _close(dphi, ref_dphi, 2e-15 * abs(float(ref_dphi)))
        _close(d2phi, ref_d2phi, _scaled(ref_d2phi, 1e-14))
    assert rho_worst >= 0.25 * _RHO_ERROR


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


# Two necks where rho errs most, 4.0 eps (KERNEL_SPAN's worst) and 4.5 eps,
# and four across the profile's domain.
SWITCH_NECKS = (KERNEL_SPAN[21], 1.1224505680853058e-5, 1e-3, 0.6, 5.0, 19.0)


def _switch_rows(a):
    """The adjacent doubles y whose T lie on either side of the T from which
    x takes its tail form: the last in the neck form, the first in the tail."""
    w, c, _, s2a, switch = _profile_terms(a, _neck_terms(a)[0])
    neck, tail = a, a + 1.0
    while math.nextafter(neck, tail) < tail:
        mid = 0.5 * (neck + tail)
        if _spread(a, mid, s2a, c) >= switch:
            tail = mid
        else:
            neck = mid
    return neck, tail


def _half_rho_row(a):
    """The y at which x(y) is rho(a) / 2, to bisection in doubles."""
    half = 0.5 * _neck_terms(a)[0]
    lo, hi = a, a + 1.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if catenary_x(a, mid) >= half else (mid, hi)
    return hi


def test_catenary_x_across_tail_switch():
    """x(y) within 8 eps relative on both sides of the tail form's switch.

    Past the switch x = rho - tail with tail <= rho / 2, so x inherits
    rho's relative error and the tail's.  The rows are the two doubles at
    the switch itself, those whose T is 0.8 and 1.2 times the switch's,
    and, at the two necks where rho errs most, the row where x is rho / 2,
    which lies in the neck form.  The worst, 5.05 eps at a = 1.12e-5 and
    1.2 times the switch, must reach half the bound.
    """
    worst = 0.0
    for a in SWITCH_NECKS:
        w, c, _, s2a, switch = _profile_terms(a, _neck_terms(a)[0])
        rows = list(_switch_rows(a))
        for factor in (0.8, 1.2):
            rows.append(math.asinh(math.sqrt(factor * switch + w)))
        if a < 1e-4:
            rows.append(_half_rho_row(a))
        for y in rows:
            reference = oracle_x(a, y)
            error = float(abs(mpf(catenary_x(a, y)) - reference) / reference) / EPS
            assert error <= 8.0, (a, y, error)
            worst = max(worst, error)
    assert worst >= 4.0, worst


def test_carlson_incomplete():
    """R_F, R_J and R_D at the incomplete arguments of x(y) and Phi(a, r):
    the profile's neck form, and the tail (T, T + w, T + c, T + p) that
    x(y) past its switch, Phi and L share."""
    for a in (1e-6, 0.05, 0.6, 2.0, 12.0):
        w = math.sinh(a) ** 2
        c, p = 1.0 + 2.0 * w, 1.0 + w
        wc = w * c
        for t in (1e-12, 1e-6, 0.3, 5.0, 1e6):
            profile = (
                c * (t + w), w * (t + c), wc, wc * (t + p) / p,
                -(c * t / p) * (w * w * t / p) * (wc * t / p),
            )
            tail = (t, t + w, t + c, t + p, -p * w, True)
            for args in (profile, tail):
                values = _carlson(*args)
                assert len(values) == (3 if args[5:] else 2)
                with mp.workdps(DIGITS):
                    x, y, z, q = (mpf(v) for v in args[:4])
                    references = (
                        mpmath.elliprf(x, y, z),
                        mpmath.elliprj(x, y, z, q),
                        mpmath.elliprd(x, y, z),
                    )
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


def _separation_root(a, d):
    """The root of g = log(2 rho / d) next to a, and g' = rho' / rho there.

    rho = (sinh(2a) / 6) R_J(0, w, c, p) and rho' = (2p / 3) R_D(0, w, c)
    - R_F(0, w, c); Newton's method from a, whose error is below 1e-10
    relative, doubles its digits per step.
    """
    root, d = mpf(a), mpf(d)
    for _ in range(6):
        w = mpmath.sinh(root) ** 2
        c, p = 1 + 2 * w, 1 + w
        rho = mpmath.sinh(2 * root) / 6 * mpmath.elliprj(0, w, c, p)
        slope = (2 * p / 3 * mpmath.elliprd(0, w, c) - mpmath.elliprf(0, w, c)) / rho
        step = mpmath.log(2 * rho / d) / slope
        root -= step
        if abs(step) < root * mpf(10) ** (10 - DIGITS):
            return root, slope
    raise AssertionError(f"Newton's method did not settle on the root of {d} next to {a}")


@functools.cache
def _separation_cases():
    """Roots of 2 rho(a) = d and their oracles, as (d, a, error, g', g error).

    error is |a - root| for the oracle root of g = log(2 rho / d) next to a,
    g' = rho' / rho is taken there, and g error is the float g at a less
    the exact one.  The first tuple holds both roots of the 105 separations
    of test_separation_roots, the second the inner roots of 13 separations
    at half decades from 10**-3.5 to 10**-9.5, where rho's rounding, not
    the slope, sets the width of a root.
    """
    tol = Tolerance()
    bundle = constants_bundle(tol)
    lo, hi = math.log(2.0 * gomes_rho(25.0, tol)), math.log(bundle.two_rho_ac)
    separations = [math.exp(lo + k * (hi - lo) / 90) for k in range(90)]
    separations += [bundle.two_rho_ac - 10.0 ** (-k / 2) for k in range(4, 19)]
    both = [
        (d, a)
        for d in separations
        for a, _ in catenoids_for_separation(d, bundle, tol).solutions
    ]
    inner = [
        (d, catenoids_for_separation(d, bundle, tol).solutions[0][0])
        for d in (10.0 ** (-3.5 - k / 2) for k in range(13))
    ]

    def case(d, a):
        g = math.log(2.0 * _neck_terms(a)[0] / d)
        with mp.workdps(DIGITS):
            root, slope = _separation_root(a, d)
            t = mpf(a)
            w = mpmath.sinh(t) ** 2
            rho = mpmath.sinh(2 * t) / 6 * mpmath.elliprj(0, w, 1 + 2 * w, 1 + w)
            g_error = mpf(g) - mpmath.log(2 * rho / d)
            return d, a, float(abs(mpf(a) - root)), float(slope), float(g_error)

    return tuple(case(*pair) for pair in both), tuple(case(*pair) for pair in inner)


def test_separation_roots():
    """Both roots of 2 rho(a) = d against mpmath, over the whole range of d.

    90 separations log-spaced over [2 rho(25), 2 rho(a_c)) and 15 at half
    decades from 1e-2 to 1e-9 below 2 rho(a_c), where the slope g' of
    g = log(2 rho / d) vanishes, so a root's rounding band eps / |g'| is
    wide.  Each root is within 12 bands of its oracle (the worst is 6.3),
    and the median error is at most 1 ulp.
    """
    ulps = []
    for d, a, error, slope, _ in _separation_cases()[0]:
        assert error * abs(slope) <= 12.0 * sys.float_info.epsilon, (d, a)
        ulps.append(error / math.ulp(a))
    assert len(ulps) == 210
    assert statistics.median(ulps) <= 1.0


def test_separation_roots_within_their_band():
    """Each root of 2 rho(a) = d within its rounding band.

    The float g = log(2 rho / d) errs by at most _RHO_ERROR + eps (1 + |g|):
    rho's relative error and the division's reach g as absolute errors,
    and log rounds g itself.  Each float g at a root is within that bound
    of the exact g (the worst uses 0.37 of it), so g places a root only to
    the band (_RHO_ERROR + eps) / |g'|.  Each root, one Chebyshev step from
    its table start, is within that band plus half an ulp of its oracle
    (the worst uses 0.41 of it), over the 210 roots of
    test_separation_roots and 13 inner roots below d = 1e-3.
    """
    eps = sys.float_info.epsilon
    both, inner = _separation_cases()
    for d, a, error, slope, g_error in both + inner:
        g = math.log(2.0 * _neck_terms(a)[0] / d)
        assert abs(g_error) <= _RHO_ERROR + eps * (1.0 + abs(g)), (d, a)
        assert error <= (_RHO_ERROR + eps) / abs(slope) + 0.5 * math.ulp(a), (d, a)
    assert len(inner) == 13
