"""Triangle meshes of the catenoid surface in the Poincare ball.

The surface of revolution is sampled from its generating curve, swept around
the vertical axis of the half-space chart, and mapped into the unit ball so
the result can be dropped into any mesh viewer.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from operator import eq

from .catenoid import Tolerance, sample_catenary

__all__ = [
    "MeshData",
    "MeshEntries",
    "MeshParams",
    "ball_from_halfspace",
    "build_mesh",
    "export_mesh",
    "halfspace_from_ball",
    "halfspace_point",
    "write_obj",
]

# Most OBJ lines formatted per write: few enough that one write's arguments
# and bytes take well under a megabyte.
_OBJ_BLOCK = 4096


@dataclass(frozen=True)
class MeshParams:
    """Sampling resolution for one catenoid surface.

    n_profile counts samples of the generating curve from the neck out to
    y_max on one side; the full profile mirrors them through the neck.
    n_angle is the number of angular steps of the sweep.  Far rows crowd
    onto one boundary circle of the ball, so a large y_max adds coincident
    rows (see build_mesh).
    """

    neck_distance: float
    y_max: float
    n_profile: int
    n_angle: int

    def __post_init__(self) -> None:
        for name in ("n_profile", "n_angle"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int):
                raise TypeError(f"{name} must be an int, got {count!r}")
        if not self.neck_distance > 0.0:
            raise ValueError(f"neck distance must be positive, got {self.neck_distance}")
        if not self.neck_distance < self.y_max < math.inf:
            raise ValueError(
                f"y_max must be finite and exceed the neck distance "
                f"{self.neck_distance}, got {self.y_max}"
            )
        if self.n_profile < 2:
            raise ValueError(f"need at least 2 profile samples, got {self.n_profile}")
        if self.n_angle < 3:
            raise ValueError(f"need at least 3 angular steps, got {self.n_angle}")


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

    Profile row j, from the mirrored far end through the neck to y_max, is
    the circle (u[j], r[j] cos theta_m, r[j] sin theta_m) about the ball's
    first axis, with cos[m] and sin[m] at theta_m = 2 pi m / n_angle; u, r,
    cos and sin are array('d')s computed from params (tol goes to the
    profile sampling), so every vertex is a rotation of a chart point and
    every face joins in-range vertices; no caller supplies either.

    vertices and faces are MeshEntries views computed from the rows on
    access.  Vertex k = j n_angle + m is (u[j], r[j] * cos[m],
    r[j] * sin[m]).  Quad q = (j - 1) n_angle + m joins vertex q and its
    angular successor q' on row j - 1 to q + n_angle and q' + n_angle
    one row up, where q' = q + 1, or q + 1 - n_angle on the last step
    of a row; it splits into faces 2q = (q, q', q' + n_angle) and
    2q + 1 = (q, q' + n_angle, q + n_angle), of 0-based vertex indices.
    """

    __slots__ = ("params", "u", "r", "cos", "sin", "vertices", "faces")

    def __init__(self, params: MeshParams, *, tol: Tolerance | None = None) -> None:
        self.params = params
        u, r = self.u, self.r = array("d"), array("d")
        if tol is None:
            tol = Tolerance()
        for x, y in _profile_rows(params, tol):
            row_u, row_r, _ = ball_from_halfspace(*halfspace_point(x, y, 0.0))
            u.append(row_u)
            r.append(row_r)
        n = params.n_angle
        step = 2.0 * math.pi / n
        cos = self.cos = array("d", [math.cos(m * step) for m in range(n)])
        sin = self.sin = array("d", [math.sin(m * step) for m in range(n)])
        self.vertices = MeshEntries(len(u) * n, partial(_vertex, n, u, r, cos, sin))
        self.faces = MeshEntries(2 * (len(u) - 1) * n, partial(_face, n))


def _vertex(n, u, r, cos, sin, k):
    j, m = divmod(k, n)
    return (u[j], r[j] * cos[m], r[j] * sin[m])


def _face(n, k):
    q, side = divmod(k, 2)
    after = q + 1 - n if q % n == n - 1 else q + 1
    return (q, after + n, q + n) if side else (q, after, after + n)


def halfspace_point(x: float, y: float, theta: float) -> tuple[float, float, float]:
    """Chart point of the swept surface in upper half-space coordinates.

    The generating curve point (x, y) sits at hyperbolic distance y from the
    axis on the sphere of Euclidean radius exp(x) about the chart origin;
    theta rotates it about the axis.  Past y ~ 710, where cosh y overflows,
    the height is 0: the point is on the boundary plane to rounding.
    """
    radius = math.exp(x)
    horizontal = radius * math.tanh(y)
    try:
        height = radius / math.cosh(y)
    except OverflowError:
        height = 0.0
    return horizontal * math.cos(theta), horizontal * math.sin(theta), height


def ball_from_halfspace(x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Map the upper half-space x3 > 0 onto the unit ball.

    The boundary plane x3 = 0 goes to the lower hemisphere, the point
    (0, 0, 1) to the ball center, and the vertical axis to the diameter
    along the first ball coordinate.
    """
    den = x1 * x1 + x2 * x2 + (x3 + 1.0) * (x3 + 1.0)
    return (
        (x1 * x1 + x2 * x2 + x3 * x3 - 1.0) / den,
        2.0 * x1 / den,
        2.0 * x2 / den,
    )


def halfspace_from_ball(u: float, v: float, w: float) -> tuple[float, float, float]:
    """Inverse of ball_from_halfspace; defined on the open unit ball only."""
    norm_sq = u * u + v * v + w * w
    if not norm_sq < 1.0:
        raise ValueError(f"point with |p|^2 = {norm_sq} is not inside the unit ball")
    den = v * v + w * w + (1.0 - u) * (1.0 - u)
    return (
        2.0 * v / den,
        2.0 * w / den,
        (1.0 - norm_sq) / den,
    )


def _profile_rows(params: MeshParams, tol: Tolerance) -> list[tuple[float, float]]:
    """Full generating curve (x, y) rows: mirrored arm, neck, outgoing arm."""
    sample = sample_catenary(
        params.neck_distance, params.y_max, params.n_profile, tol
    )
    positive = list(sample.points)
    mirrored = [(-x, y) for x, y in positive[1:]]
    mirrored.reverse()
    return mirrored + positive


def build_mesh(params: MeshParams, tol: Tolerance | None = None) -> MeshData:
    """Triangulate the catenoid with the given resolution.

    The sweep about the half-space axis is a Euclidean rotation about the
    ball's first coordinate axis, so each profile row is a circle that
    needs one chart map, and the mesh is stored as those rows (see
    MeshData).  Every quad is then an isosceles trapezoid whose two
    diagonals have the same length, so all quads are split the same way
    and the faces depend only on the resolution.  The profile is exact to
    rounding whatever tol is, so the mesh does not depend on it.  Far
    rows crowd onto one boundary circle, so a large y_max adds coincident
    rows and zero-area faces.  At the CLI's default resolution (32 x 64)
    and a = 0.6, the 4,032 vertices are all distinct at y_max = a + 20.6;
    at a + 40.6, 3,904 are distinct and 3,456 as written to OBJ, and at
    y_max = 1000, 957 and 832.
    """
    return MeshData(params, tol=tol)


def write_obj(mesh: MeshData, path: str) -> None:
    """Write the mesh as ASCII OBJ with 1-based face indices and LF endings.

    Vertex lines are formatted from the mesh's rows a row (or _OBJ_BLOCK
    vertices of a wider one) per bytes % and write, and face lines
    _OBJ_BLOCK per write, so the transient objects stay bounded whatever
    the mesh size.
    """
    with open(path, "wb") as handle:
        _write_vertices(handle, mesh)
        _write_faces(handle, mesh)


def _write_vertices(handle, mesh: MeshData) -> None:
    # One write per row, or per _OBJ_BLOCK-vertex piece of a wider row.  Each
    # piece formats its row's first coordinate once and interleaves in args
    # the products r[j] * cos[m] and r[j] * sin[m] that mesh.vertices computes.
    for u, r in zip(mesh.u, mesh.r):
        for m in range(0, mesh.params.n_angle, _OBJ_BLOCK):
            cos, sin = mesh.cos[m : m + _OBJ_BLOCK], mesh.sin[m : m + _OBJ_BLOCK]
            args = [0.0] * (2 * len(cos))
            args[0::2] = map(r.__mul__, cos)
            args[1::2] = map(r.__mul__, sin)
            handle.write((b"v %.12g" % u + b" %.12g %.12g\n") * len(cos) % tuple(args))


def _write_faces(handle, mesh: MeshData) -> None:
    # A block covers _OBJ_BLOCK // 2 quads.  Quad q's faces are (q, q', q' + n)
    # and (q, q' + n, q + n), 1-based here, laid out as six interleaved runs
    # with q' = q + 1; the wraps, q % n = n - 1, are then reset.
    n = mesh.params.n_angle
    quads = len(mesh.faces) // 2
    window = _OBJ_BLOCK // 2
    for start in range(0, quads, window):
        stop = min(start + window, quads)
        size = stop - start
        low = array("q", range(start + 1, stop + 2))
        high = array("q", range(start + n + 1, stop + n + 2))
        block = array("q", [0]) * (6 * size)
        block[0::6] = block[3::6] = low[:size]
        block[1::6] = low[1:]
        block[2::6] = block[4::6] = high[1:]
        block[5::6] = high[:size]
        wrap = start + (n - 1 - start) % n
        if wrap < stop:
            at = 6 * (wrap - start)
            block[at + 1 :: 6 * n] = array("q", range(wrap + 2 - n, stop + 2 - n, n))
            block[at + 2 :: 6 * n] = block[at + 4 :: 6 * n] = array("q", range(wrap + 2, stop + 2, n))
        handle.write(b"f %d %d %d\n" * (2 * size) % tuple(block))


def export_mesh(
    a: float,
    y_max: float,
    n_profile: int,
    n_angle: int,
    out: str,
    tol: Tolerance | None = None,
) -> MeshData:
    """Build the catenoid mesh and write it to an OBJ file."""
    mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
    write_obj(mesh, out)
    return mesh
