"""Triangle meshes of the catenoid surface in the Poincare ball.

The surface of revolution is sampled from its generating curve, swept around
the vertical axis of the half-space chart, and mapped into the unit ball so
the result can be dropped into any mesh viewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .catenoid import Tolerance, sample_catenary

__all__ = [
    "MeshData",
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


@dataclass(frozen=True)
class MeshParams:
    """Sampling resolution for one catenoid surface.

    n_profile counts samples of the generating curve from the neck out to
    y_max on one side; the full profile mirrors them through the neck.
    n_angle is the number of angular steps of the sweep.  Rows past about
    y - neck_distance = 40 lie on one boundary circle of the ball to
    rounding, so a larger y_max only adds coincident rows (see build_mesh).
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


@dataclass(eq=False)
class MeshData:
    """Vertex/face soup in ball coordinates, with the parameters that built it.

    Every vertex is a 3-tuple of floats and every face a 3-tuple of 0-based
    vertex indices.  write_obj raises TypeError for a block whose entries
    hold the wrong number of values in total; a short and a long entry in
    the same block cancel out and are not caught.
    """

    params: MeshParams
    vertices: list[tuple[float, float, float]] = field(default_factory=list)
    faces: list[tuple[int, int, int]] = field(default_factory=list)


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
    rounding whatever tol is, so the mesh does not depend on it.  Rows
    past about y - a = 40 map to one boundary circle, so a larger y_max
    only adds coincident rows and zero-area faces: a = 0.6, y_max = 1000
    at the CLI's default resolution gives 4,032 vertices, 832 distinct.
    """
    if tol is None:
        tol = Tolerance()
    rows = _profile_rows(params, tol)
    n_angle = params.n_angle
    step = 2.0 * math.pi / n_angle
    cos_sin = [(math.cos(m * step), math.sin(m * step)) for m in range(n_angle)]

    mesh = MeshData(params=params)
    for x, y in rows:
        u, r, _ = ball_from_halfspace(*halfspace_point(x, y, 0.0))
        mesh.vertices.extend((u, r * c, r * s) for c, s in cos_sin)

    # One int object per vertex index, shared by every face that uses it.
    below = list(range(n_angle))
    for j in range(1, len(rows)):
        above = list(range(j * n_angle, (j + 1) * n_angle))
        for i00, i01, i10, i11 in zip(
            below, below[1:] + below[:1], above, above[1:] + above[:1]
        ):
            mesh.faces.append((i00, i01, i11))
            mesh.faces.append((i00, i11, i10))
        below = above
    return mesh


def write_obj(mesh: MeshData, path: str) -> None:
    """Write the mesh as ASCII OBJ with 1-based face indices and LF endings.

    Each block of lines is formatted by one bytes %, so the transient
    objects stay bounded by the block whatever the mesh size.
    """
    vertices, faces = mesh.vertices, mesh.faces
    one_based = (1).__add__
    with open(path, "wb") as handle:
        # No local holds a block's arguments, so they are freed before the
        # next block's are built.
        for start in range(0, len(vertices), _OBJ_BLOCK):
            block = vertices[start : start + _OBJ_BLOCK]
            handle.write(b"v %.12g %.12g %.12g\n" * len(block) % tuple(chain.from_iterable(block)))
        for start in range(0, len(faces), _OBJ_BLOCK):
            block = faces[start : start + _OBJ_BLOCK]
            handle.write(
                b"f %d %d %d\n" * len(block) % tuple(map(one_based, chain.from_iterable(block)))
            )


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
