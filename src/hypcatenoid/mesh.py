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
from .catenoid import Tolerance, _Record, _sample, gomes_rho

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

# Digit j of 0, 1, ..., 10**(j + 1) - 1, for the places j whose cycle is short.
_DIGIT_CYCLES = [bytes(d for d in b"0123456789" for _ in range(10**j)) for j in range(3)]


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
    e = exp(-y).  The profile is sampled as sample_catenary samples it,
    from the one rho(a) that also places y_end, over
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
        a = params.neck_distance
        rho = gomes_rho(a, Tolerance())
        y_end = math.acosh((2.0 - _SUM_ROUNDING) / (_SUM_ROUNDING * math.cosh(rho)))
        u, r = array("d"), array("d")
        for x, y in _sample(a, min(params.y_max, y_end), params.n_profile, rho):
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
    and the faces depend only on the resolution.  The profile rows are
    sample_catenary's points bit for bit, within 8 eps relative of x(y),
    whatever tol is, so tol is not read and the mesh equals
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
    and lays out its lines from those tokens in one bytes %.  Rows j and
    last - j have the same r and opposite u, so the mirrored pairs nearest
    the middle row, while their layouts and the row being laid out hold at
    most 2 * _OBJ_BLOCK lines, share one layout with a placeholder for u,
    and each row of such a pair puts its u in with one byte replace.  Rows
    are joined into writes of under _OBJ_BLOCK lines.  A wider row is
    formatted in place, _OBJ_BLOCK vertices a write.  Face lines go out
    _OBJ_BLOCK a write, cut where an index gains a digit: the lines of a
    piece are one template repeated, and each decimal place of the
    consecutive indices is copied in as one column of digits, so only the
    wrap quad of each row is formatted.  The transient objects stay bounded
    whatever the mesh size.
    """
    with open(path, "wb") as handle:
        _write_vertices(handle, mesh)
        _write_faces(handle, mesh)


def _write_vertices(handle, mesh: MeshData) -> None:
    # As r * -a is -(r * a) exactly, a row formats r * a once per distinct
    # magnitude a of the sweep, and one getter lays out every row from
    # those tokens and their negations.  Past _OBJ_BLOCK // 2 that layout
    # nears a megabyte, so wider rows format in place, _OBJ_BLOCK a write.
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
    spec = b"%.12g " * len(mags)
    lines = b"v \0 %s %s\n" * n
    # Rows j and last - j share r and differ only in the sign of u.  The keep
    # pairs nearest the middle row, so that a body is held across the fewest
    # writes, lay out one body with a \0 where u goes, and each row of the
    # pair puts its u in with one byte replace; the kept bodies and the row
    # being laid out hold at most 2 * _OBJ_BLOCK lines.  Any other row is
    # laid out from a template of its own u, which a repeat builds faster.
    last = len(mesh.u) - 1
    keep = min(2 * _OBJ_BLOCK // n - 1, last // 2)
    bodies = {}

    def row(j):
        body = bodies.pop(j, None)
        if body is None:
            text = spec % tuple(map(mesh.r[j].__mul__, mags))
            # The magnitudes, then their negations; the trailing "-" is never picked.
            tokens = pick((text + b"-" + text.replace(b" ", b" -")).split())
            if not last - 2 * keep <= 2 * j < last:
                return (b"v %.12g" % mesh.u[j] + b" %s %s\n") * n % tokens
            body = bodies[last - j] = lines % tokens
        return body.replace(b"\0", b"%.12g" % mesh.u[j])

    # A write joins one row fewer than fit in _OBJ_BLOCK lines, so a row of
    # over a third of a block, whose layout nears the bound, is written alone.
    rows = range(last + 1)
    step = _OBJ_BLOCK // n - 1
    for start in range(0, len(rows), step):
        handle.write(b"".join(map(row, rows[start : start + step])))


def _digit_column(first, count, place):
    # Digit `place` (0 for units) of first, first + 1, ..., first + count - 1
    # as ASCII bytes: a slice of the low places' digit cycles, or above them
    # one run of equal bytes for each 10**place values.
    if place < len(_DIGIT_CYCLES):
        cycle = _DIGIT_CYCLES[place]
        at = first % len(cycle)
        return (cycle * ((at + count) // len(cycle) + 1))[at : at + count]
    step = 10**place
    end = first + count
    cuts = [first, *range((first // step + 1) * step, end, step), end]
    return b"".join(b"%d" % (lo // step % 10) * (hi - lo) for lo, hi in zip(cuts, cuts[1:]))


def _write_faces(handle, mesh: MeshData) -> None:
    # A block covers _OBJ_BLOCK // 2 quads.  Quad q's line pair is
    # "f A B C\nf A C D\n" with the 1-based A = q + 1, B = q + 2, C = q + n + 2
    # and D = q + n + 1, except at a wrap, q % n = n - 1, whose B and C step
    # back n.  A block is cut where an index gains a digit, so the line pairs
    # of a piece share one length and each digit is one strided column.
    n = mesh.params.n_angle
    quads = len(mesh.faces) // 2
    window = _OBJ_BLOCK // 2
    for start in range(0, quads, window):
        stop = min(start + window, quads)
        tens = [10**j for j in range(1, len(b"%d" % (stop + n + 1)) + 1)]
        steps = (p - s for p in tens for s in (1, 2, n + 1, n + 2))
        cuts = sorted({start, stop, *(q for q in steps if start < q < stop)})
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            parts += _face_piece(n, lo, hi)
        handle.write(b"".join(parts))


def _face_piece(n, start, stop):
    # A's and B's columns are slices of one set over A's values and the next,
    # as are D's and C's over D's; each wrap's pair is formatted alone and
    # goes in place of its slot, between slices of the piece's buffer.
    count = stop - start
    low, high = (
        [_digit_column(first, count + 1, j) for j in range(len(b"%d" % (first + 1)))]
        for first in (start + 1, start + n + 1)
    )
    a = [column[:-1] for column in low[: len(b"%d" % (start + 1))]]
    d = [column[:-1] for column in high[: len(b"%d" % (start + n + 1))]]
    b = [column[1:] for column in low]
    c = [column[1:] for column in high]
    pair, fill = bytearray(), []
    for sep, columns in zip((b"f ", b" ", b" ", b"\nf ", b" ", b" "), (a, b, c, a, c, d)):
        pair += sep + b"0" * len(columns)
        fill.append((len(pair) - 1, columns))
    pair += b"\n"
    size = len(pair)
    buf = bytearray(pair * count)
    for units, columns in fill:
        for j, column in enumerate(columns):
            buf[units - j :: size] = column
    view, at = memoryview(buf), 0
    for q in range(start + (n - 1 - start) % n, stop, n):
        slot = (q - start) * size
        yield view[at:slot]
        yield b"f %d %d %d\nf %d %d %d\n" % (q + 1, q + 2 - n, q + 2, q + 1, q + 2, q + n + 1)
        at = slot + size
    yield view[at:]
