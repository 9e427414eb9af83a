"""Regenerate perfbench/reference.json, the frozen oracle of the benchmark.

Every value is computed with mpmath (tested with 1.3.0) at 30 significant
digits, from the integral definitions of the paper and independently of the
hypcatenoid package: no code of the package is imported.  Singular endpoints
are removed by t = a + u**2, so every integrand below is smooth in u on
[0, inf).  The grids are drawn from a fixed seed, so a rerun reproduces the
file byte for byte.

    python3 perfbench/make_reference.py            # about two minutes

Grids:
  a_grid      a = k/50, k = 1..150: rho(a) and the deficit phi(a)
  separations 100 plane distances d, one per stratum of (0, 1.25 * 2rho(a_c)),
              with the roots of 2rho(a) = d and rho' at each root
  catenary    48 profiles (a, y_max) with x(y) at the 6 nodes that
              sample_catenary(a, y_max, 6) uses
  competitor  48 pairs (a, r) with Phi(a, r) and the plane separation 2x(r)
"""

from __future__ import annotations

import json
import os
import random

import mpmath
from mpmath import acosh, coth, cosh, findroot, log, mp, mpf, nstr, pi, quad, sinh, sqrt, tanh

mp.dps = 30
SEED = 2001_09380
DIGITS = 25
U_MAX = 8  # the integrands decay like exp(-3 u**2); exp(-192) is far below 1e-30

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _breaks(a, hi=U_MAX):
    """Panel breaks in u: the rho integrand turns over near u = sqrt(a)."""
    s = sqrt(a)
    points = [mpf(0)]
    for x in (s, 10 * s, 1, 2, 4):
        if points[-1] < x < hi:
            points.append(mpf(x))
    points.append(mpf(hi))
    return points


def _sqrt_d(a, u):
    """sqrt(sinh(2t)**2 - sinh(2a)**2) at t = a + u**2, in factored form."""
    return sqrt(sinh(2 * u * u) * sinh(4 * a + 2 * u * u))


def _profile(a, u):
    """dx/dt * dt/du for the catenary x(y) = int_a^y sinh(2a)/(cosh t sqrt(D)) dt."""
    return 2 * u * sinh(2 * a) / (cosh(a + u * u) * _sqrt_d(a, u))


def _tube_minus_disk(a, u):
    """4 pi sinh t (sinh 2t / sqrt(D) - 1) * dt/du, without cancellation."""
    t = a + u * u
    root = _sqrt_d(a, u)
    return 2 * u * 4 * pi * sinh(t) * sinh(2 * a) ** 2 / (root * (sinh(2 * t) + root))


def rho(a):
    a = mpf(a)
    return quad(lambda u: _profile(a, u), _breaks(a))


def drho(a):
    """rho'(a), differentiating under the integral in the fixed variable u."""
    a = mpf(a)

    def g(u):
        t = a + u * u
        return _profile(a, u) * (2 * coth(2 * a) - tanh(t) - 2 * coth(4 * a + 2 * u * u))

    return quad(g, _breaks(a))


def catenary_x(a, y):
    a, y = mpf(a), mpf(y)
    if y == a:
        return mpf(0)
    return quad(lambda u: _profile(a, u), _breaks(a, sqrt(y - a)))


def big_phi(a, r):
    """Phi(a, r): tube area minus the two disks of radius r."""
    a, r = mpf(a), mpf(r)
    head = quad(lambda u: _tube_minus_disk(a, u), _breaks(a, sqrt(r - a)))
    return head - 4 * pi * (cosh(a) - 1)


def deficit(a):
    a = mpf(a)
    return quad(lambda u: _tube_minus_disk(a, u), _breaks(a)) - 4 * pi * (cosh(a) - 1)


def constant_K():
    def g(x):
        q = sqrt(1 - x**4)
        return x * x / (q * (1 + q))

    return quad(g, [0, 1])


def mvt_f(x, K):
    return -30 * cosh(3 * x) - 18 * cosh(5 * x) + 10 * sinh(7 * x) + 15 * (1 - K) * cosh(8 * x)


def _root(f, lo, hi):
    return findroot(f, (mpf(lo), mpf(hi)), solver="anderson", tol=mpf("1e-50"))


def _s(x):
    return nstr(x, DIGITS, strip_zeros=False)


def separation_roots(d, a_c):
    """Both necks with 2 rho(a) = d, or none above the maximal separation."""
    f = lambda a: 2 * rho(a) - d  # noqa: E731
    if f(a_c) < 0:
        return []
    inner = _root(f, d / 1000, a_c)
    hi = 2 * a_c
    while f(hi) > 0:
        hi *= 2
    outer = _root(f, a_c, hi)
    return [inner, outer]


def main() -> None:
    rng = random.Random(SEED)
    K = constant_K()
    a_c = _root(drho, "0.3", "0.7")
    two_rho_ac = 2 * rho(a_c)
    a_0 = _root(lambda x: mvt_f(x, K), "1e-6", log(mpf("1.5")))
    a_l = acosh(1 / (1 - K))
    a_L = _root(deficit, a_c, a_l)
    constants = {
        "K": K,
        "a_0": a_0,
        "a_c": a_c,
        "a_l": a_l,
        "a_L": a_L,
        "two_rho_ac": two_rho_ac,
        "two_rho_aL": 2 * rho(a_L),
    }

    a_values = [k / 50 for k in range(1, 151)]
    a_grid = {
        "a": a_values,
        "rho": [_s(rho(a)) for a in a_values],
        "phi": [_s(deficit(a)) for a in a_values],
    }

    n_sep = 100
    d_max = 1.25 * float(two_rho_ac)
    separations = []
    for j in range(n_sep):
        d = (j + rng.random()) / n_sep * d_max
        roots = separation_roots(mpf(d), a_c)
        separations.append(
            {
                "d": d,
                "roots": [_s(a) for a in roots],
                "drho": [_s(drho(a)) for a in roots],
            }
        )

    catenary = []
    n_nodes = 6
    for j in range(48):
        a = 0.1 + 1.9 * (j + rng.random()) / 48
        y_max = a + 1.0 + 3.0 * rng.random()
        span = y_max - a
        xs = []
        for i in range(n_nodes):
            frac = i / (n_nodes - 1)
            xs.append(_s(catenary_x(a, a + span * frac * frac)))
        catenary.append({"a": a, "y_max": y_max, "n": n_nodes, "x": xs})

    competitor = []
    for j in range(48):
        a = 0.3 + 0.9 * (j + rng.random()) / 48
        r = a + 1.0 + 3.0 * rng.random()
        competitor.append(
            {"a": a, "r": r, "phi_ar": _s(big_phi(a, r)), "L": _s(2 * catenary_x(a, r))}
        )

    doc = {
        "about": "High-precision oracle for the perfbench benchmark; regenerate "
        "with perfbench/make_reference.py. Strings hold "
        f"{DIGITS} significant digits.",
        "mpmath": mpmath.__version__,
        "dps": mp.dps,
        "seed": SEED,
        "constants": {name: _s(value) for name, value in constants.items()},
        "a_grid": a_grid,
        "separations": separations,
        "catenary": catenary,
        "competitor": competitor,
    }
    with open(OUT, "w", newline="\n") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
