"""Triangle meshes of the catenoid surface in the Poincare ball.

The surface of revolution is sampled from its generating curve, swept around
the vertical axis of the half-space chart, and mapped into the unit ball so
the result can be dropped into any mesh viewer.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from operator import index as _as_index

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

# OBJ lines formatted per write: enough to amortise each call, few enough
# that one block's arguments and bytes take well under a megabyte.
_OBJ_BLOCK = 4096

# Face indices are stored as array('i'), 4 bytes a value.
_MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True)
class MeshParams:
    """Sampling resolution for one catenoid surface.

    n_profile counts samples of the generating curve from the neck out to
    y_max on one side; the full profile mirrors them through the neck.
    n_angle is the number of angular steps of the sweep.  Far rows crowd
    onto one boundary circle of the ball, so a large y_max adds coincident
    rows (see build_mesh).  Face indices are 32-bit, so the
    (2 n_profile - 1) n_angle vertices may number at most 2**31 - 1.
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
        vertices = (2 * self.n_profile - 1) * self.n_angle
        if vertices > _MAX_VERTICES:
            raise ValueError(
                f"{vertices} vertices exceed the {_MAX_VERTICES} that 32-bit face "
                f"indices can address"
            )


class MeshEntries:
    """Read-only sequence of 3-tuples over one flat array of 3n values.

    MeshData holds its coordinates in an array('d') and its 0-based vertex
    indices in an array('i'), 4 bytes a value.

    len counts entries, [i] is the 3-tuple flat[3i:3i+3] (negative i counts
    from the end), and a slice is a list of 3-tuples.  A view equals another
    whose array is equal, and a list holding the same 3-tuples.  The array
    itself is .flat.
    """

    __slots__ = ("flat",)

    def __init__(self, flat: array) -> None:
        self.flat = flat

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __getitem__(self, i):
        flat = self.flat
        if isinstance(i, slice):
            return [tuple(flat[3 * k : 3 * k + 3]) for k in range(*i.indices(len(self)))]
        k = _as_index(i)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("mesh entry index out of range")
        return tuple(flat[3 * k : 3 * k + 3])

    def __iter__(self):
        values = iter(self.flat)
        return zip(values, values, values)

    def __eq__(self, other):
        if isinstance(other, MeshEntries):
            return self.flat == other.flat
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def _entries(entries, typecode: str, kind: str, count: int | None = None) -> MeshEntries:
    """The entries as a view over an array(typecode).

    Raises TypeError unless each entry holds 3 values and, given count,
    ValueError naming the first entry with a value outside range(count).
    """
    if isinstance(entries, MeshEntries) and entries.flat.typecode == typecode:
        view = entries
    else:
        view = MeshEntries(array(typecode))
        for entry in entries:
            try:
                size = len(entry)
            except TypeError:
                size = None
            if size != 3:
                raise TypeError(f"every mesh {kind} must hold 3 values, got {entry!r}")
            try:
                view.flat.extend(entry)
            except OverflowError:
                if count is None:
                    raise
                raise _out_of_range(len(view), entry, count) from None
    flat = view.flat
    if count is not None and flat and (min(flat) < 0 or max(flat) >= count):
        k = next(i for i, value in enumerate(flat) if not 0 <= value < count) // 3
        raise _out_of_range(k, view[k], count)
    return view


def _out_of_range(k: int, entry, count: int) -> ValueError:
    return ValueError(f"mesh face {k} {entry!r} holds an index outside the {count} vertices")


@dataclass(eq=False)
class MeshData:
    """Vertex/face soup in ball coordinates, with the parameters that built it.

    vertices views one array('d') of 3n coordinates and faces one
    array('i') of 3m 0-based vertex indices, 4 bytes a value; each is a
    MeshEntries, so vertices[i] is the 3-tuple of vertex i.  The
    constructor also takes any iterable of 3-sequences.  It raises
    TypeError for any other entry, and ValueError naming the face entry
    for an index outside range(len(vertices)).
    """

    params: MeshParams
    vertices: MeshEntries = ()
    faces: MeshEntries = ()

    def __post_init__(self) -> None:
        self.vertices = _entries(self.vertices, "d", "vertex")
        self.faces = _entries(self.faces, "i", "face", len(self.vertices))


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

    Vertices are laid out row-major: profile row j (from the mirrored far
    end through the neck to y_max) times angular step m, at index
    j * n_angle + m.  The sweep about the half-space axis is a Euclidean
    rotation about the ball's first coordinate axis, so row j is the circle
    (u_j, r_j cos theta_m, r_j sin theta_m) and needs one chart map.  Every
    quad is then an isosceles trapezoid whose two diagonals have the same
    length, so all quads are split the same way.  The profile is exact to
    rounding whatever tol is, so the mesh does not depend on it.  Far
    rows crowd onto one boundary circle, so a large y_max adds coincident
    rows and zero-area faces.  At the CLI's default resolution (32 x 64)
    and a = 0.6, the 4,032 vertices are all distinct at y_max = a + 20.6;
    at a + 40.6, 3,904 are distinct and 3,456 as written to OBJ, and at
    y_max = 1000, 957 and 832.

    Each row fills its stride-3 slots of one preallocated array('d'), and
    the faces are six interleaved index runs written by slice assignment
    into one array('i'), so the mesh holds no Python object per vertex or
    per face.  Their indices are in range by construction, so the mesh
    skips MeshData's range check, which builds an int per index.
    """
    if tol is None:
        tol = Tolerance()
    rows = _profile_rows(params, tol)
    n = params.n_angle
    step = 2.0 * math.pi / n
    cos = [math.cos(m * step) for m in range(n)]
    sin = [math.sin(m * step) for m in range(n)]
    # Packing a row's values takes one C call; array("d", list) would
    # convert them one at a time.
    pack = struct.Struct(f"{n}d").pack

    vertices = array("d", [0.0]) * (3 * len(rows) * n)
    for j, (x, y) in enumerate(rows):
        u, r, _ = ball_from_halfspace(*halfspace_point(x, y, 0.0))
        start, stop = 3 * j * n, 3 * (j + 1) * n
        vertices[start:stop:3] = array("d", [u]) * n
        vertices[start + 1 : stop : 3] = array("d", pack(*[r * c for c in cos]))
        vertices[start + 2 : stop : 3] = array("d", pack(*[r * s for s in sin]))

    # Quad q = (j - 1) n + m joins vertex q and its angular successor on
    # row j - 1 to the two one row up, q + n and its successor, and splits
    # into (q, q + 1, q + n + 1) and (q, q + n + 1, q + n).  At m = n - 1
    # the successor wraps to the strip start, so those entries are reset.
    quads = (len(rows) - 1) * n
    index = array("i", range(quads + n + 1))
    faces = array("i", [0]) * (6 * quads)
    faces[0::6] = faces[3::6] = index[:quads]
    faces[1::6] = index[1 : quads + 1]
    faces[2::6] = faces[4::6] = index[n + 1 : quads + n + 1]
    faces[5::6] = index[n : quads + n]
    wrap = 6 * (n - 1)
    faces[wrap + 1 :: 6 * n] = index[:quads:n]
    faces[wrap + 2 :: 6 * n] = faces[wrap + 4 :: 6 * n] = index[n : quads + n : n]
    mesh = MeshData(params)
    mesh.vertices, mesh.faces = MeshEntries(vertices), MeshEntries(faces)
    return mesh


def write_obj(mesh: MeshData, path: str) -> None:
    """Write the mesh as ASCII OBJ with 1-based face indices and LF endings.

    Each block of _OBJ_BLOCK lines is formatted from a slice of the flat
    arrays by one bytes %, so the transient objects stay bounded by the
    block whatever the mesh size.  A vertex block spans pieces of rows of
    n_angle vertices.  Where each piece holds one first coordinate, bit for
    bit, as build_mesh's rows do, that value is formatted once per piece;
    otherwise every value of the block is.
    """
    n = mesh.params.n_angle
    size = 3 * _OBJ_BLOCK
    with open(path, "wb") as handle:
        flat = mesh.vertices.flat
        for start in range(0, len(flat), size):
            block = flat[start : start + size]
            count = len(block) // 3
            first = block[0::3]
            # The block's pieces of rows start at 0 and at each row start.
            # before[i] is first[i], or first[i + 1] where a piece starts at
            # i + 1, so it equals first[1:] if and only if no piece varies.
            edges = [0, *range(n - start // 3 % n, count, n), count]
            before = first[:-1]
            before[edges[1] - 1 :: n] = first[edges[1] :: n]
            if before.tobytes() != first[1:].tobytes():
                handle.write(b"v %.12g %.12g %.12g\n" * count % tuple(block))
                continue
            del block[0::3]
            lines = b"".join(
                (b"v %.12g" % first[i] + b" %.12g %.12g\n") * (j - i)
                for i, j in zip(edges, edges[1:])
            )
            handle.write(lines % tuple(block))
        flat = mesh.faces.flat
        for start in range(0, len(flat), size):
            block = flat[start : start + size]
            handle.write(b"f %d %d %d\n" * (len(block) // 3) % tuple([i + 1 for i in block]))


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
