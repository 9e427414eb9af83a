"""Triangle meshes of the catenoid surface in the Poincare ball.

The surface of revolution is sampled from its generating curve, each sample
is mapped into the unit ball in closed form, and the image is swept around
the ball's first axis, so the result can be dropped into any mesh viewer.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import chain
from operator import eq, itemgetter, neg

from . import _EXPORTS
from .catenoid import Tolerance, _Record, gomes_rho, sample_catenary

__all__ = _EXPORTS["mesh"]

# Most OBJ lines formatted per write: few enough that one write's arguments
# and bytes take well under a megabyte.
_OBJ_BLOCK = 4096

# Bound on sum(c * c) - |p|**2 for a row point p, in units of eps / 2 with a
# libm call as 2: u and r err by 13 each (26 squared), cos**2 + sin**2 by 4,
# as each sweep pair is libm's cos and sin of one double, negated or swapped,
# and the sum rounds each of its three squares at most 5 times.
_SUM_ROUNDING = 35 * 2.0**-53

_PI_2_112 = 16312081666030376401667486162748272  # pi * 2**112, rounded


class MeshParams(_Record):
    """Sampling resolution for one catenoid surface.

    n_profile counts samples of the generating curve from the neck out to
    y_max on one side; the full profile mirrors them through the neck.
    n_angle is the number of angular steps of the sweep.  The samples stop
    at y_end(a) ~ 34.5, where the surface reaches the sphere at infinity to
    rounding, so a y_max past y_end gives the same mesh as y_end (see
    MeshData).
    """

    __slots__ = ("neck_distance", "y_max", "n_profile", "n_angle")

    def __init__(self, neck_distance: float, y_max: float, n_profile: int, n_angle: int):
        for name, count in (("n_profile", n_profile), ("n_angle", n_angle)):
            if isinstance(count, bool) or not isinstance(count, int):
                raise TypeError(f"{name} must be an int, got {count!r}")
        if not neck_distance > 0.0:
            raise ValueError(f"neck distance must be positive, got {neck_distance}")
        if not neck_distance < y_max < math.inf:
            raise ValueError(
                f"y_max must be finite and exceed the neck distance "
                f"{neck_distance}, got {y_max}"
            )
        if n_profile < 2:
            raise ValueError(f"need at least 2 profile samples, got {n_profile}")
        if n_angle < 3:
            raise ValueError(f"need at least 3 angular steps, got {n_angle}")
        object.__setattr__(self, "neck_distance", neck_distance)
        object.__setattr__(self, "y_max", y_max)
        object.__setattr__(self, "n_profile", n_profile)
        object.__setattr__(self, "n_angle", n_angle)


class MeshEntries:
    """Read-only sequence of count 3-tuples, entry(i) computed when read.

    MeshData makes one for its vertices and one for its faces.  len counts
    entries, [i] is entry i (negative i counts from the end), a slice is a
    list of 3-tuples, and iteration yields them in order.  A view equals
    another view, or a list, holding the same 3-tuples in the same order.
    """

    __slots__ = ("_count", "_entry")

    def __init__(self, count: int, entry) -> None:
        self._count = count
        self._entry = entry

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        k = range(self._count)[i]
        if isinstance(k, range):
            return list(map(self._entry, k))
        return self._entry(k)

    def __iter__(self):
        return map(self._entry, range(self._count))

    def __eq__(self, other):
        if not isinstance(other, (MeshEntries, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class MeshData:
    """Catenoid mesh in ball coordinates, held as the rows it is swept from.

    Profile row j, from the mirrored far end through the neck to the far
    end, is the circle (u[j], r[j] cos theta_m, r[j] sin theta_m) about the
    ball's first axis, with cos[m] and sin[m] at theta_m = 2 pi m / n_angle;
    u, r, cos and sin are array('d')s computed from params alone; no caller
    supplies vertices or faces.  Each theta_m is folded onto the first
    octant by exact reflections before one libm call, so entries that a
    reflection of the circle pairs up, such as m and n_angle - m, are equal
    or opposite bit for bit, and quarter turns are exact zeros.  Profile
    point (x, y) gives u = sinh x / den and r = tanh y / den, where
    den = cosh x + sech y, to rounding, with sech y = 2 e / (1 + e**2) for
    e = exp(-y).  The profile is sampled over
    [a, min(y_max, y_end)] with y_end = acosh((2 - S) / (S cosh rho(a)))
    and S = _SUM_ROUNDING: as den <= cosh rho(a) + sech y, the slack
    1 - |p|**2 = 2 sech y / den is at least S up to y_end, so every vertex
    has sum(c * c) <= 1.  Only the n_profile sampled rows are computed: the
    mirrored arm is their reflection u -> -u, so rows j and
    2 n_profile - 2 - j pair up.

    vertices and faces are MeshEntries views computed from the rows on
    access.  Vertex k = j n_angle + m is (u[j], r[j] * cos[m],
    r[j] * sin[m]).  Quad q = (j - 1) n_angle + m joins vertex q and its
    angular successor q' on row j - 1 to q + n_angle and q' + n_angle
    one row up, where q' = q + 1, or q + 1 - n_angle on the last step
    of a row; it splits into faces 2q = (q, q', q' + n_angle) and
    2q + 1 = (q, q' + n_angle, q + n_angle), of 0-based vertex indices.
    """

    __slots__ = ("params", "u", "r", "cos", "sin", "vertices", "faces")

    def __init__(self, params: MeshParams) -> None:
        self.params = params
        n = params.n_angle
        cos, sin = self.cos, self.sin = _sweep(n)
        a, tol = params.neck_distance, Tolerance()
        cosh_rho = math.cosh(gomes_rho(a, tol))
        y_end = math.acosh((2.0 - _SUM_ROUNDING) / (_SUM_ROUNDING * cosh_rho))
        sample = sample_catenary(a, min(params.y_max, y_end), params.n_profile, tol)
        u, r = array("d"), array("d")
        for x, y in sample.points:
            e = math.exp(-y)
            sech = 2.0 * e / (1.0 + e * e)
            den = math.cosh(x) + sech
            u.append(math.sinh(x) / den)
            r.append(math.tanh(y) / den)
        # x -> -x is u -> -u in the ball; 0.0 - v keeps a zero u at +0.0.
        u = self.u = array("d", [0.0 - v for v in u[:0:-1]]) + u
        r = self.r = r[:0:-1] + r
        self.vertices = MeshEntries(len(u) * n, partial(_vertex, n, u, r, cos, sin))
        self.faces = MeshEntries(2 * (len(u) - 1) * n, partial(_face, n))


def _sweep(n):
    # 2 pi m / n is pi p / (4 n) with p = 8 m.  Past a half turn p -> 8 n - p
    # negates sin, past a quarter p -> 4 n - p negates cos, and past an eighth
    # p -> 2 n - p swaps them; libm sees the folded angle, rounded once.
    cos, sin = array("d"), array("d")
    for p in range(0, 8 * n, 8):
        h = 8 * n - p if p > 4 * n else p
        q = 4 * n - h if h > 2 * n else h
        t = (2 * n - q if q > n else q) * _PI_2_112 / (n << 114)
        c, s = (math.sin(t), math.cos(t)) if q > n else (math.cos(t), math.sin(t))
        cos.append(-c if h > 2 * n else c)
        sin.append(-s if p > 4 * n else s)
    return cos, sin


def _vertex(n, u, r, cos, sin, k):
    j, m = divmod(k, n)
    return (u[j], r[j] * cos[m], r[j] * sin[m])


def _face(n, k):
    q, side = divmod(k, 2)
    after = q + 1 - n if q % n == n - 1 else q + 1
    return (q, after + n, q + n) if side else (q, after, after + n)


def build_mesh(params: MeshParams, tol: Tolerance | None = None) -> MeshData:
    """Triangulate the catenoid with the given resolution.

    The sweep of the profile is a Euclidean rotation about the ball's
    first coordinate axis, so each profile row is a circle given by one
    closed-form point, and the mesh is stored as those rows (see
    MeshData).  Every quad is then an isosceles trapezoid whose two
    diagonals have the same length, so all quads are split the same way
    and the faces depend only on the resolution.  The profile is exact to
    rounding whatever tol is, so tol is not read and the mesh equals
    MeshData(params).  Rows end at y_end ~ 34.5, so a y_max past y_end adds
    nothing.  At the CLI's default resolution (32 x 64) and a = 0.6, the
    4,032 vertices are all distinct at y_max = a + 20.6 and at 1000; as
    written to OBJ's 12 digits, 4,032 and 3,752 are.
    """
    return MeshData(params)


def write_obj(mesh: MeshData, path: str) -> None:
    """Write the mesh as ASCII OBJ with 1-based face indices and LF endings.

    A row of up to _OBJ_BLOCK // 2 vertices formats each distinct magnitude
    r * |cos[m]| and r * |sin[m]| once (34 of 256 numbers at n_angle = 128)
    and lays out its lines from those tokens in one bytes % and write; a
    wider row is formatted in place, _OBJ_BLOCK vertices a write.  Face
    lines are laid out _OBJ_BLOCK a write from each index formatted once,
    so the transient objects stay bounded whatever the mesh size.
    """
    with open(path, "wb") as handle:
        _write_vertices(handle, mesh)
        _write_faces(handle, mesh)


def _write_vertices(handle, mesh: MeshData) -> None:
    # One write per row.  As r * -a is -(r * a) exactly, a row formats r * a
    # once per distinct magnitude a of the sweep, and one getter lays out every
    # row from those tokens and their negations.  Past _OBJ_BLOCK // 2 that
    # layout nears a megabyte, so wider rows format in place, _OBJ_BLOCK a write.
    n = mesh.params.n_angle
    if n > _OBJ_BLOCK // 2:
        for u, r in zip(mesh.u, mesh.r):
            for m in range(0, n, _OBJ_BLOCK):
                cos, sin = mesh.cos[m : m + _OBJ_BLOCK], mesh.sin[m : m + _OBJ_BLOCK]
                args = [0.0] * (2 * len(cos))
                args[0::2] = map(r.__mul__, cos)
                args[1::2] = map(r.__mul__, sin)
                handle.write((b"v %.12g" % u + b" %.12g %.12g\n") * len(cos) % tuple(args))
        return
    mags = list(dict.fromkeys(map(abs, mesh.cos + mesh.sin)))
    at = dict(zip(map(neg, mags), range(len(mags), 2 * len(mags))))
    at.update(zip(mags, range(len(mags))))  # so a zero, == its negation, maps to +0
    pick = itemgetter(*map(at.__getitem__, chain.from_iterable(zip(mesh.cos, mesh.sin))))
    for u, r in zip(mesh.u, mesh.r):
        tokens = _tokens(b"%.12g ", map(r.__mul__, mags))
        lines = (b"v %.12g" % u + b" %s %s\n") * n
        handle.write(lines % pick(tokens + [b"-" + t for t in tokens]))


def _tokens(spec, values):
    # One bytes % formats all the values, split into a token each.
    values = tuple(values)
    return (spec * len(values) % values).split()


def _write_faces(handle, mesh: MeshData) -> None:
    # A block covers _OBJ_BLOCK // 2 quads.  Quad q's faces are (q, q', q' + n)
    # and (q, q' + n, q + n), 1-based here, laid out from the index tokens of
    # q + 1 and q + n + 1 with q' = q + 1; the wraps, q % n = n - 1, are reset.
    n = mesh.params.n_angle
    quads = len(mesh.faces) // 2
    window = _OBJ_BLOCK // 2
    for start in range(0, quads, window):
        stop = min(start + window, quads)
        low = _tokens(b"%d ", range(start + 1, stop + 2))
        high = low[n:] + _tokens(b"%d ", range(max(start + n, stop + 1) + 1, stop + n + 2))
        block = [b""] * (6 * (stop - start))
        block[0::6] = block[3::6] = low[:-1]
        block[1::6] = low[1:]
        block[2::6] = block[4::6] = high[1:]
        block[5::6] = high[:-1]
        wrap = start + (n - 1 - start) % n
        if wrap < stop:
            at = 6 * (wrap - start)
            wraps = low[wrap + 1 - start :: n]
            block[at + 1 :: 6 * n] = [b"%d" % (wrap + 2 - n), *wraps[:-1]]
            block[at + 2 :: 6 * n] = block[at + 4 :: 6 * n] = wraps
        handle.write(b"f %s %s %s\n" * (2 * (stop - start)) % tuple(block))
