"""Scalar functions of the spherical catenoid family.

A catenoid is labeled by its neck distance a > 0 to the rotation axis.  In
warped-product coordinates (x along the axis, y distance to the axis) its
profile is the catenary x(y), an integral with an inverse-square-root
singularity at y = a.  This module evaluates the profile, the asymptotic
half-separation rho(a), tube and disk areas, the area difference Phi(a, r),
its large-r limit (the deficit), and the two terms of the deficit's second
derivative.

Every one of them is a closed form.  With w = sinh(a)**2 and
s = sinh(t)**2 - w, the profile integrand becomes
sinh(2a) / (4 (s + 1 + w) sqrt(s (s + w) (s + 1 + 2w))) ds and the tube
integrand 2 pi (s + w) / sqrt(s (s + w) (s + 1 + 2w)) ds.  So rho(a) and
x(y) are Carlson symmetric integrals R_J and R_F, and the areas are R_F and
R_D after one integration by parts; since phi'(a) = 2 pi sinh(2a) rho'(a),
rho' is an R_F and R_D pair like phi.  rho, rho', phi and phi'' need only
complete integrals, so one AGM loop of Bulirsch's cel gives all of them
together (Bulirsch, Numer. Math. 13, 1969; DLMF 19.2(iii), 19.8); the
incomplete x(y) and Phi(a, r) add tails from Carlson's duplication (Numer.
Algorithms 10, 1995; DLMF 19.36), and x(y) away from the neck is rho less
such a tail.  None needs quadrature, and each states its error bound
against mpmath in eps (x(y): 8 eps relative); the tol that gomes_rho,
area_deficit and sample_catenary take is not read.
The constant K in the second-derivative terms is a Beta integral, in
Gamma functions (DLMF 5.12).

Every other module builds on this one, so it also holds the record base,
Tolerance and the error types that the solvers raise and the CLI reports.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter

from . import _EXPORTS

__all__ = _EXPORTS["catenoid"]

_FOUR_PI = 4.0 * math.pi

# sinh(2a)**2 degrades doubles long before overflow; public entry points
# refuse neck distances past this cap.
_NECK_CAP = 25.0

# Near the neck the Carlson arguments of catenary_x are all about
# sinh(a)**2 and R_J is their -3/2 power, so the profile needs sinh(a)**3
# to be a normal double; below this neck distance R_J overflows.
_PROFILE_NECK_MIN = sys.float_info.min ** (1.0 / 3.0)

# Past y - a = _TAIL_SPAN the profile and the areas have converged to their
# limits to rounding (their integrands decay like exp(-3 (y - a))); the
# distance is clamped there, which keeps sinh finite.
_TAIL_SPAN = 40.0

# K = int_0^1 x**-2 ((1 - x**4)**(-1/2) - 1) dx = 1 - sqrt(pi) Gamma(3/4) /
# Gamma(1/4), the Beta integral int_0^1 x**(s-1) ((1 - x**4)**(-1/2) - 1) dx
# continued to s = -1, rounded to the nearest double.
_K = 0.4009298826322039


class EvaluationBudgetError(RuntimeError):
    """Raised when solve_root's iteration cap or a quadrature budget runs out."""


class ConsistencyError(RuntimeError):
    """Raised when solved constants violate their required ordering."""


class _Record:
    """Read-only record of the fields its subclass names in __slots__, in order;
    each subclass's __init__ binds them with object.__setattr__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # One C call reads every field, so == and hash cost what a frozen
        # dataclass's do; the class closes the key so one field gives a tuple.
        cls._key = attrgetter(*cls.__slots__, "__class__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)[:-1]

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Tolerance(_Record):
    """Separation tie window abs_tol and constants-cache key."""

    __slots__ = ("abs_tol",)

    def __init__(self, abs_tol: float = 1.0e-10):
        if not 0.0 < abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {abs_tol}")
        object.__setattr__(self, "abs_tol", abs_tol)


def _check_neck(a: float) -> None:
    if not 0.0 < a <= _NECK_CAP:
        raise ValueError(f"neck distance must be in (0, {_NECK_CAP}], got {a}")


class CatenarySample(_Record):
    """Sampled catenary profile points (x, y)."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, float], ...]):
        object.__setattr__(self, "points", points)


# Duplication stops once the arguments agree to this relative spread: the
# fifth-order series then errs by O(spread**6) ~ eps / 4 (Carlson 1995).
_DUPLICATION_SPREAD = (sys.float_info.epsilon / 4.0) ** (1.0 / 6.0)

# The AGM stops once its two means agree to this relative spread: the
# closing step squares it, so the complete integrals are exact to rounding.
_AGM_SPREAD = math.sqrt(sys.float_info.epsilon)

# Bound on the relative error of the rho that _neck_terms returns, as tested
# against its closed form from both sides; a separation root is held to the
# band (_RHO_ERROR + eps) / |g'| of g = log(2 rho / d) it implies.
_RHO_ERROR = 2.0e-15


def _rj_series(x: float, y: float, z: float, p: float) -> float:
    """Carlson's fifth-order series for R_J(x, y, z, p) at nearly equal arguments."""
    mean = (x + y + z + 2.0 * p) / 5.0
    dx, dy, dz = 1.0 - x / mean, 1.0 - y / mean, 1.0 - z / mean
    dp = -0.5 * (dx + dy + dz)
    xyz = dx * dy * dz
    e2 = dx * dy + dx * dz + dy * dz - 3.0 * dp * dp
    e3 = xyz + 2.0 * e2 * dp + 4.0 * dp**3
    e4 = (2.0 * xyz + e2 * dp + 3.0 * dp**3) * dp
    e5 = xyz * dp * dp
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return series / (mean * math.sqrt(mean))


def _carlson(
    x: float, y: float, z: float, p: float, gap: float, rd: bool = False
) -> tuple[float, ...]:
    """Carlson's R_F(x, y, z) and R_J(x, y, z, p), and with rd R_D(x, y, z)
    third, from one duplication sequence.

    x, y, z >= 0 with at most one zero, p > 0, and gap = (p-x)(p-y)(p-z),
    supplied exactly by the caller, <= 0, so each R_C term is an atanh or
    its series; R_D = R_J(x, y, z, z) takes the R_C term 1 at each step.
    Each step moves every argument v to (v + lam) / 4, which leaves R_F
    unchanged and changes R_J by a known R_C term, until the arguments agree
    closely enough for a fifth-order series about their mean (Carlson,
    Numer. Algorithms 10, 1995; DLMF 19.36.i).  The first R_C term loses
    digits as gap / ((sp + sx)(sp + sy)(sp + sz))**2 nears -1, with
    sv = sqrt(v); for every caller here that ratio stays above -0.02.
    """
    # Every step keeps the order of the arguments and divides their spread
    # by 4, so the spread need not be recomputed: only the smallest moves.
    spread = (max(x, y, z, p) - min(x, y, z, p)) / _DUPLICATION_SPREAD
    least = min(x, y, z, p)
    scale = 1.0  # 4**-m after m steps
    tail = tail_d = 0.0
    while spread * scale > least:
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        # R_C(1, 1 + e) = atanh(sqrt(-e)) / sqrt(-e); e shrinks 64-fold a
        # step, so after the first few steps its cubic series is exact.  A
        # gap that underflowed to 0 gives R_C = 1 to rounding, even where
        # d * d underflowed too.
        e = gap * scale**3 / (d * d) if gap else 0.0
        if e > -1.0e-4:
            rc = 1.0 - e * (1.0 / 3.0 - e * (0.2 - e / 7.0))
        else:
            root = math.sqrt(-e)
            rc = math.atanh(root) / root
        tail += scale * rc / d
        if rd:
            tail_d += scale / (sz * (sz + sx) * (sz + sy))
        x, y = 0.25 * (x + lam), 0.25 * (y + lam)
        z, p = 0.25 * (z + lam), 0.25 * (p + lam)
        least = 0.25 * (least + lam)
        scale *= 0.25

    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0)
    rj = scale * _rj_series(x, y, z, p) + 6.0 * tail
    if rd:
        return rf / math.sqrt(mean), rj, scale * _rj_series(x, y, z, z) + 3.0 * tail_d
    return rf / math.sqrt(mean), rj


def _neck_terms(a: float) -> tuple[float, float, float, float, float]:
    """rho, rho', phi, phi' and phi'' at a from one AGM loop.

    With w = sinh(a)**2, c = 1 + 2w = cosh(2a), p = 1 + w and R_F, R_J, R_D
    at (0, w, c, p): rho = (sinh(2a) / 6) R_J, phi = 4 pi (1 - p R_F +
    (c p / 3) R_D) (see _area_excess), and, from the derivatives of R_F and
    R_D (DLMF 19.18) and Euler's identity w R_D(0, c, w) + c R_D(0, w, c) =
    3 R_F(0, w, c) for the degree -1/2 homogeneous R_F, d phi / dw =
    4 pi (p R_D / 3 - R_F / 2) and phi'' = 4 pi (p (c**2 + 2) R_D / 3 -
    (2 + 3w + 2w**2) R_F) / c.  With dw/da = sinh(2a) this is phi' =
    2 pi sinh(2a) rho' with rho' = (2p / 3) R_D - R_F: the neck circle's
    flux times the rate d(2 rho)/da at which the boundary planes separate,
    as the first variation of area predicts, so a_c maximizes both rho and
    phi.

    All of them are complete integrals, so each is one of Bulirsch's
    cel(kc, P, A, B) = A R_F(0, kc**2, 1) + (B - P A) R_J(0, kc**2, 1, P) / 3
    with kc = sqrt(w / c) (Bulirsch, Numer. Math. 13, 1969; DLMF 19.2(iii)):
    R_J = 3 cel(kc, p / c, 0, 1) / c**1.5, rho' sqrt(c) = cel(kc, 1, -1, 1/c),
    phi / 4 pi = 1 - cel(kc, 1, p / sqrt(c), 0) and phi'' c**1.5 / 4 pi =
    cel(kc, 1, -(2 + 3w + 2w**2), 1/c).  cel runs the AGM of (1, kc), here
    carried as em = 2**n a_n and qc = 2**n g_n, with one sequence p_n per P;
    each (A, B) pair moves linearly along its P's sequence, so every output
    has its own pair instead of being a difference of rounded integrals.
    kc = sinh(a) / sqrt(c) is positive for every a > 0, so the AGM closes.
    All five are exact to rounding; only phi cancels, below a ~ 1e-3.
    """
    sa = math.sinh(a)
    w = sa * sa
    c, p = 1.0 + 2.0 * w, 1.0 + w
    root_c = math.sqrt(c)
    em = 1.0
    qc = e = kc = sa / root_c  # e = qc * em
    # rho's pair (aj, bj) on the sequence pj of P = p / c, which starts at
    # sqrt(P) with B / sqrt(P); the pairs of rho', phi and phi'' on the
    # sequence p1 of P = 1.
    pj = math.sqrt(p / c)
    aj, bj = 0.0, 1.0 / pj
    p1 = 1.0
    ad, bd = -1.0, 1.0 / c
    af, bf = p / root_c, 0.0
    a2, b2 = -(2.0 + 3.0 * w + 2.0 * w * w), 1.0 / c
    while True:
        g = e / pj
        aj, bj = aj + bj / pj, 2.0 * (bj + aj * g)
        pj += g
        inv = 1.0 / p1
        g = e * inv
        ad, bd = ad + bd * inv, 2.0 * (bd + ad * g)
        af, bf = af + bf * inv, 2.0 * (bf + af * g)
        a2, b2 = a2 + b2 * inv, 2.0 * (b2 + a2 * g)
        p1 += g
        g = em
        em += qc
        if abs(g - qc) <= g * _AGM_SPREAD:
            break
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    # cel = (pi / 2) (B + A em) / (em (em + p_n)) once the AGM has closed,
    # and rho = sinh(2a) R_J / 6 = kc cosh(a) cel(kc, p / c, 0, 1) / c.
    ca = math.cosh(a)
    rho = 0.5 * math.pi * kc * ca * (bj + aj * em) / (em * (em + pj) * c)
    one = 0.5 * math.pi / (em * (em + p1))
    per_root_c = one / root_c
    drho = (bd + ad * em) * per_root_c
    phi = _FOUR_PI * (1.0 - (bf + af * em) * one)
    second = _FOUR_PI * (b2 + a2 * em) * per_root_c / c
    return rho, drho, phi, 2.0 * math.pi * (2.0 * sa * ca) * drho, second


def gomes_rho(a: float, tol: Tolerance) -> float:
    """Asymptotic half-separation rho(a) of the catenoid's boundary planes.

    rho(a) is the integral of sinh(2a) / (cosh t * sqrt(sinh(2t)**2 -
    sinh(2a)**2)) for t from a to infinity.  With w = sinh(a)**2 and
    s = sinh(t)**2 - w it is (sinh(2a) / 6) * R_J(0, w, 1 + 2w, 1 + w),
    from the AGM loop of _neck_terms, exact to rounding; tol is not read.
    """
    _check_neck(a)
    return _neck_terms(a)[0]


def _check_profile_neck(a: float) -> None:
    if a < _PROFILE_NECK_MIN:
        raise ValueError(
            f"neck distance {a} is below {_PROFILE_NECK_MIN:.6g}, the smallest "
            "the profile x(y) supports"
        )


def _profile_terms(a: float, rho: float) -> tuple[float, float, float, float, float]:
    """w, c, p and sinh(2a) of the neck a, and the T from which x takes its tail form.

    R_J falls in each argument, so the tail (sinh(2a) / 6) R_J(T, T + w,
    T + c, T + p) of _profile is below (sinh(2a) / 6) T**-1.5, which is at
    most rho / 2 from T = (sinh(2a) / (3 rho))**(2/3) on.
    """
    w = math.sinh(a) ** 2
    s2a = math.sinh(2.0 * a)
    return w, 1.0 + 2.0 * w, 1.0 + w, s2a, (s2a / (3.0 * rho)) ** (2.0 / 3.0)


def _spread(a: float, y: float, s2a: float, c: float) -> float:
    """T = sinh(y - a) sinh(y + a) = sinh(y)**2 - sinh(a)**2, y - a clamped
    at _TAIL_SPAN, with sinh(y + a) as the positive terms sinh(2a) cosh(y - a)
    + cosh(2a) sinh(y - a), so 2a + (y - a) is not rounded before sinh."""
    delta = min(y - a, _TAIL_SPAN)
    sd = math.sinh(delta)
    return sd * (s2a * math.cosh(delta) + c * sd)


def _profile(a: float, rho: float, ys: list[float]) -> list[float]:
    """x(y) at each y >= a of ys for the neck a, from rho = rho(a).

    With w = sinh(a)**2, c = 1 + 2w, p = 1 + w and T as in _spread,
    x(y) = (sinh(2a) / 4) int_0^T ds / ((s + p) sqrt(s (s + w) (s + c)))
    = (sinh(2a) / 6) [R_J(0, w, c, p) - R_J(T, T + w, T + c, T + p)]: rho
    less a tail whose arguments agree ever more closely as T grows, with
    gap product exactly -p w (DLMF 19.16.2).  From the T of _profile_terms
    on, the tail is at most rho / 2, so rho - tail loses at most one bit.
    Below it the neck form holds: the substitution s = T w c / (u + w c)
    maps [0, T] onto the ray and gives R_F minus an R_J term that is O(T)
    smaller, so x(y) keeps full relative accuracy at the neck.  The neck
    row T = 0 is 0.0 with no duplication.
    """
    w, c, p, s2a, switch = _profile_terms(a, rho)
    wc = w * c
    xs = []
    for y in ys:
        t = _spread(a, y, s2a, c)
        if t >= switch:
            x = rho - s2a / 6.0 * _carlson(t, t + w, t + c, t + p, -p * w)[1]
        elif t:
            rf, rj = _carlson(
                c * (t + w),
                w * (t + c),
                wc,
                wc * (t + p) / p,
                -(c * t / p) * (w * w * t / p) * (wc * t / p),
            )
            x = s2a * math.sqrt(t) / (2.0 * p) * (rf - wc * t / (3.0 * p) * rj)
        else:
            x = 0.0
        xs.append(x)
    return xs


def catenary_x(a: float, y: float) -> float:
    """Axial coordinate x(y) of the catenary profile, zero at the neck y = a.

    x(y) is rho(a), from the AGM loop, less a converging Carlson tail once
    that tail is at most rho / 2, and a neck form of full relative accuracy
    below (see _profile); sample_catenary, plane_separation and build_mesh
    take the same values.  Past y - a = _TAIL_SPAN, x(y) equals rho(a) to
    rounding and y is clamped there, which keeps sinh finite.  Against
    mpmath its relative error is below 8 eps for a in [1e-6, 25]: the worst
    of 29,725 points is 5.7 eps, in the tail form where rho errs by 5.4 eps.
    Neck distances below _PROFILE_NECK_MIN (about 2.8e-103) raise
    ValueError.
    """
    _check_neck(a)
    _check_profile_neck(a)
    if not y >= a:
        raise ValueError(f"profile coordinate y={y} below the neck distance a={a}")
    return _profile(a, _neck_terms(a)[0], [y])[0]


def _sample(a: float, y_max: float, n: int, rho: float) -> tuple[tuple[float, float], ...]:
    """The points of sample_catenary(a, y_max, n) from rho = rho(a)."""
    _check_profile_neck(a)
    span = y_max - a
    ys = []
    for i in range(n):
        frac = i / (n - 1)
        ys.append(a + span * frac * frac)
    return tuple(zip(_profile(a, rho, ys), ys))


def sample_catenary(a: float, y_max: float, n: int, tol: Tolerance) -> CatenarySample:
    """Sample n profile points graded toward the neck where dx/dy blows up.

    Node spacing follows y_i = a + (y_max - a) * (i/(n-1))**2, matching the
    (y - a)**(-1/2) growth of the profile slope at the neck.  Each x is
    catenary_x(a, y_i) bit for bit, within 8 eps relative, from one AGM
    loop for rho(a) and one duplication sequence per row past the neck;
    tol is not read.
    """
    _check_neck(a)
    if not a < y_max < math.inf:
        raise ValueError(f"y_max={y_max} must be finite and exceed the neck distance a={a}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    return CatenarySample(_sample(a, y_max, n, _neck_terms(a)[0]))


def disk_area_total(r: float) -> float:
    """Area 4*pi*(cosh r - 1) = 8*pi*sinh(r/2)**2 of the two disks of radius r; inf past r ~ 710."""
    if not r >= 0.0:
        raise ValueError(f"disk radius must be nonnegative, got {r}")
    try:
        return 2.0 * _FOUR_PI * math.sinh(0.5 * r) ** 2
    except OverflowError:
        return math.inf


def _area_excess(
    phi: float, w: float, c: float, p: float, t: float, rf: float, rd: float
) -> float:
    """Phi(a, r) from phi = phi(a), T = t > 0 and R_F, R_D at (T, T + w, T + c).

    With P(s) = s (s + w) (s + c) the tube area is 2 pi int_0^T (s + w) /
    sqrt(P) ds.  Integrating by parts against sqrt(P) / (s + c) leaves only
    Carlson terms: Phi = 4 pi [1 + lead - p (F(0) - F(T)) + (c p / 3)
    (D(0) - D(T))] with F(x) = R_F(x, x + w, x + c) and D(x) = R_D(x, x + w,
    x + c).  Here lead = sqrt(P(T)) / (T + c) - cosh r, rearranged below so
    that nothing cancels.  F(T), D(T) and lead vanish as T grows, leaving
    the deficit phi(a) = 4 pi [1 - p F(0) + (c p / 3) D(0)], so Phi =
    phi(a) + 4 pi [lead + p F(T) - (c p / 3) D(T)] takes phi from
    _neck_terms and keeps its absolute accuracy whatever r is.
    """
    lead = -p * (2.0 * t + c) / (
        math.sqrt(t + c) * (math.sqrt(t * (t + w)) + math.sqrt((t + p) * (t + c)))
    )
    return phi + _FOUR_PI * (lead + p * rf - c * p / 3.0 * rd)


def area_difference(a: float, r: float) -> float:
    """Area difference Phi(a, r) between the tube and its two spanning disks.

    Phi is phi(a) plus incomplete R_F and R_D terms (see _area_excess).  It
    is never a difference of two large areas, so its absolute accuracy is
    independent of r; tube_area adds the closed-form disk area back.
    Against mpmath it errs by below 128 eps * max(1, |Phi|) for a >= 0.2,
    and by 640 eps below, where its terms cancel as phi's do (worst
    measured: 100 and 540 eps).  Past r - a = _TAIL_SPAN, Phi equals its
    limit to rounding and r - a is clamped there.
    """
    _check_neck(a)
    if not r >= a:
        raise ValueError(f"tube radius r={r} must be at least the neck distance a={a}")
    w = math.sinh(a) ** 2
    c, p = 1.0 + 2.0 * w, 1.0 + w
    t = _spread(a, r, math.sinh(2.0 * a), c)
    # t is 0 at r = a, where the tube is the neck circle and has no area,
    # and where it underflows at tiny necks, so Phi is then minus the disks.
    if not t:
        return -disk_area_total(r)
    rf, _, rd = _carlson(t, t + w, t + c, t + p, -p * w, True)
    return _area_excess(_neck_terms(a)[2], w, c, p, t, rf, rd)


def _tube(a: float, r: float) -> tuple[float, float]:
    """x(r) and Phi(a, r) for r > a, bit for bit catenary_x(a, r) and
    area_difference(a, r), from one AGM loop for rho and phi and one
    duplication sequence for R_F, R_J and R_D at (T, T + w, T + c); where
    x(r) is in the neck form (see _profile), it takes a second sequence."""
    _check_profile_neck(a)
    rho, _, phi, _, _ = _neck_terms(a)
    w, c, p, s2a, switch = _profile_terms(a, rho)
    t = _spread(a, r, s2a, c)
    rf, rj, rd = _carlson(t, t + w, t + c, t + p, -p * w, True)
    x = rho - s2a / 6.0 * rj if t >= switch else _profile(a, rho, [r])[0]
    return x, _area_excess(phi, w, c, p, t, rf, rd)


def tube_area(a: float, r: float) -> float:
    """Area of the compact tube between the neck circle at a and radius r:
    Phi(a, r) plus the disks' 4 pi (cosh r - 1), so 0.0 at r = a."""
    return area_difference(a, r) + disk_area_total(r)


def area_deficit(a: float, tol: Tolerance) -> float:
    """Limit phi(a) of Phi(a, r) as r grows; the exact phi is positive
    exactly below its zero.

    phi(a) = 4 pi [1 - p R_F(0, w, c) + (c p / 3) R_D(0, w, c)] with
    w = sinh(a)**2, c = 1 + 2w and p = 1 + w, which _neck_terms evaluates as
    4 pi [1 - cel(kc, 1, p / sqrt(c), 0)], exact to rounding (tol is not
    read): against mpmath its absolute error is below 1.5e-14 * max(1, |phi|)
    for a in [1e-6, 25].  Below a ~ 1e-3 phi is small and the two terms
    cancel, so that bound is not a relative one there; below a ~ 1e-9 the
    computed phi is rounding noise of either sign.
    """
    _check_neck(a)
    return _neck_terms(a)[2]


def plane_separation(a: float, r: float) -> float:
    """Distance L between the two spanning disks' planes; equals 2*x(r)."""
    _check_neck(a)
    if not r >= a:
        raise ValueError(f"tube radius r={r} must be at least the neck distance a={a}")
    return 2.0 * catenary_x(a, r)


def mvt_f(x: float, K: float) -> float:
    """Increasing comparison function whose unique zero separates deficit concavity.

    f(x) = -30 cosh 3x - 18 cosh 5x + 10 sinh 7x + 15 (1-K) cosh 8x.
    """
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if not 0.0 < K < 1.0:
        raise ValueError(f"K must lie in (0, 1), got {K}")
    return (
        -30.0 * math.cosh(3.0 * x)
        - 18.0 * math.cosh(5.0 * x)
        + 10.0 * math.sinh(7.0 * x)
        + 15.0 * (1.0 - K) * math.cosh(8.0 * x)
    )


def concavity_terms(a: float) -> tuple[float, float]:
    """The two terms I1(a), I2(a) whose sum is the deficit's second derivative.

    I1 = phi(a) + 4 pi ((1 - K) cosh a - 1) and I2 = phi''(a) - I1, with
    phi and phi'' from the AGM loop of _neck_terms.  They cancel near I2's
    zero at a ~ 0.25, so against mpmath I2 errs by below 10 eps * (|phi''|
    + |I1|) (the worst measured is 7.7 eps).
    """
    _check_neck(a)
    _, _, phi, _, second = _neck_terms(a)
    i1 = phi + _FOUR_PI * ((1.0 - _K) * math.cosh(a) - 1.0)
    return i1, second - i1
