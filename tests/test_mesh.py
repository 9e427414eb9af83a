import hashlib
import math
import pickle
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from hypcatenoid import (
    MeshData,
    MeshParams,
    Tolerance,
    ball_from_halfspace,
    build_mesh,
    catenary_x,
    export_mesh,
    halfspace_from_ball,
    halfspace_point,
    write_obj,
)
from hypcatenoid.mesh import _OBJ_BLOCK, MeshEntries


@pytest.fixture(scope="module")
def mesh(tol):
    return build_mesh(MeshParams(0.6, 3.0, 16, 24), tol)


def _rows(mesh):
    n_angle = mesh.params.n_angle
    total = len(mesh.vertices) // n_angle
    return [mesh.vertices[j * n_angle : (j + 1) * n_angle] for j in range(total)]


def _axis_coordinates(point):
    # A point at warped coordinates (x, y, theta) sits at Euclidean norm
    # e^x in the half-space, at hyperbolic distance y from the vertical
    # axis: cosh(y) = |p| / height.
    x1, x2, x3 = point
    norm = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    return math.log(norm), math.acosh(norm / x3)


class TestCoordinateCharts:
    def test_hemisphere_pole_maps_to_origin(self):
        u, v, w = ball_from_halfspace(0.0, 0.0, 1.0)
        assert abs(u) <= 1e-15 and abs(v) <= 1e-15 and abs(w) <= 1e-15

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(200):
            point = (
                rng.uniform(-5.0, 5.0),
                rng.uniform(-5.0, 5.0),
                math.exp(rng.uniform(-3.0, 3.0)),
            )
            back = halfspace_from_ball(*ball_from_halfspace(*point))
            for got, want in zip(back, point):
                assert got == pytest.approx(want, abs=1e-12 * (1.0 + abs(want)))

    def test_image_inside_unit_ball(self):
        rng = random.Random(100)
        for _ in range(200):
            point = ball_from_halfspace(
                rng.uniform(-5.0, 5.0),
                rng.uniform(-5.0, 5.0),
                math.exp(rng.uniform(-3.0, 3.0)),
            )
            assert math.hypot(*point) < 1.0

    def test_inverse_requires_interior_point(self):
        with pytest.raises(ValueError):
            halfspace_from_ball(1.0, 0.0, 0.0)

    def test_point_past_cosh_overflow(self):
        # Past y ~ 710 cosh y overflows; the point is on the boundary plane.
        assert halfspace_point(0.1, 800.0, 0.0) == (math.exp(0.1), 0.0, 0.0)

    def test_surface_point_chart_identity(self):
        # tanh^2 + sech^2 = 1 makes the half-space norm exactly e^x.
        point = halfspace_point(0.75, 1.25, 2.0)
        norm = math.sqrt(sum(c * c for c in point))
        assert norm == pytest.approx(math.exp(0.75), rel=1e-14)
        x, y = _axis_coordinates(point)
        assert x == pytest.approx(0.75, abs=1e-12)
        assert y == pytest.approx(1.25, abs=1e-12)


class TestMeshParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeshParams(0.0, 3.0, 16, 24)
        with pytest.raises(ValueError):
            MeshParams(0.6, 0.6, 16, 24)
        with pytest.raises(ValueError):
            MeshParams(0.6, 3.0, 1, 24)
        with pytest.raises(ValueError):
            MeshParams(0.6, 3.0, 16, 2)

    def test_infinite_y_max_rejected(self):
        with pytest.raises(ValueError, match="y_max"):
            MeshParams(0.6, math.inf, 16, 24)

    @pytest.mark.parametrize(
        "field, counts",
        [
            ("n_profile", (8.0, 16)),
            ("n_angle", (8, 16.0)),
            ("n_profile", (True, 16)),
            ("n_angle", (8, "16")),
        ],
    )
    def test_counts_must_be_ints(self, field, counts):
        with pytest.raises(TypeError, match=field):
            MeshParams(0.6, 3.0, *counts)


class TestBuildMesh:
    def test_vertex_and_face_counts(self, mesh):
        n_profile = mesh.params.n_profile
        n_angle = mesh.params.n_angle
        assert len(mesh.vertices) == n_angle * (2 * n_profile - 1)
        assert len(mesh.faces) == 2 * (2 * n_profile - 2) * n_angle

    def test_vertices_strictly_inside_ball(self, mesh):
        for vertex in mesh.vertices:
            assert math.hypot(*vertex) < 1.0

    def test_faces_reference_valid_distinct_vertices(self, mesh):
        count = len(mesh.vertices)
        for face in mesh.faces:
            assert len(set(face)) == 3
            for index in face:
                assert 0 <= index < count

    def test_every_vertex_used_by_some_face(self, mesh):
        used = {index for face in mesh.faces for index in face}
        assert used == set(range(len(mesh.vertices)))

    def test_rows_lie_on_catenary(self, mesh, tol):
        a = mesh.params.neck_distance
        for row in _rows(mesh):
            x, y = _axis_coordinates(halfspace_from_ball(*row[0]))
            # The chart round trip can land one ulp below the neck.
            assert abs(x) == pytest.approx(catenary_x(a, max(y, a), tol), abs=1e-6)

    def test_rows_have_constant_axis_distance(self, mesh):
        for row in _rows(mesh):
            distances = [
                _axis_coordinates(halfspace_from_ball(*vertex))[1] for vertex in row
            ]
            assert max(distances) - min(distances) <= 1e-9

    def test_row_span_covers_requested_range(self, mesh):
        params = mesh.params
        rows = _rows(mesh)
        y_neck = _axis_coordinates(halfspace_from_ball(*rows[params.n_profile - 1][0]))[1]
        y_end = _axis_coordinates(halfspace_from_ball(*rows[-1][0]))[1]
        assert y_neck == pytest.approx(params.neck_distance, abs=1e-9)
        assert y_end == pytest.approx(params.y_max, abs=1e-9)

    def test_mirror_symmetry(self, mesh):
        # Reflecting x to -x in the half-space is u to -u in the ball, so
        # profile rows j and 2 n_profile - 2 - j pair up exactly.
        params = mesh.params
        n_angle = params.n_angle
        top = 2 * params.n_profile - 2
        for j in range(params.n_profile):
            for m in range(n_angle):
                u1, v1, w1 = mesh.vertices[j * n_angle + m]
                u2, v2, w2 = mesh.vertices[(top - j) * n_angle + m]
                assert u1 == pytest.approx(-u2, abs=1e-10)
                assert v1 == pytest.approx(v2, abs=1e-10)
                assert w1 == pytest.approx(w2, abs=1e-10)

    def test_conservation_along_profile(self, tol):
        # The surface satisfies 2 pi sinh(y) cosh(y) sin(theta) =
        # pi sinh(2a) along the profile; check it with finite differences
        # on the first angular column.  The finite-difference error scales
        # with the squared row spacing, so use a fine profile.
        fine = build_mesh(MeshParams(0.6, 3.0, 96, 4), tol)
        a = fine.params.neck_distance
        expected = math.pi * math.sinh(2.0 * a)
        profile = [
            _axis_coordinates(halfspace_from_ball(*row[0])) for row in _rows(fine)
        ]
        for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
            dx = x1 - x0
            dy = y1 - y0
            ym = 0.5 * (y0 + y1)
            sin_theta = abs(math.cosh(ym) * dx) / math.hypot(
                math.cosh(ym) * dx, dy
            )
            flux = 2.0 * math.pi * math.sinh(ym) * math.cosh(ym) * sin_theta
            assert flux == pytest.approx(expected, rel=0.01)

    def test_rows_share_first_coordinate(self, mesh):
        # Each row is the image of one chart point rotated about the u axis.
        for row in _rows(mesh):
            assert len({vertex[0] for vertex in row}) == 1

    def test_quad_diagonals_equal(self, mesh):
        # Rotation about the u axis makes every quad an isosceles trapezoid,
        # which is why a single split serves all of them.
        rows = _rows(mesh)
        n_angle = mesh.params.n_angle
        for below, above in zip(rows, rows[1:]):
            for m in range(n_angle):
                p00, p01 = below[m], below[(m + 1) % n_angle]
                p10, p11 = above[m], above[(m + 1) % n_angle]
                one = math.dist(p00, p11)
                other = math.dist(p01, p10)
                assert abs(one - other) <= 1e-12 * max(one, other)

    def test_faces_independent_of_neck(self, mesh, tol):
        other = build_mesh(MeshParams(1.1, 2.5, 16, 24), tol)
        assert other.faces == mesh.faces
        assert other.vertices != mesh.vertices
        assert build_mesh(MeshParams(1.1, 2.5, 16, 25), tol).faces != mesh.faces

    def test_memory_bounded(self, tol):
        # Flat arrays of every coordinate and face index would retain about
        # 3 MiB here; the 255 profile rows and the 256 angles hold about
        # 8 KiB of values.
        build_mesh(MeshParams(0.6, 3.0, 4, 6), tol)
        tracemalloc.start()
        try:
            mesh = build_mesh(MeshParams(0.6, 3.0, 128, 256), tol)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mesh.faces) == 130_048
        assert peak <= 64 * 2**10
        assert retained <= 64 * 2**10

    def test_neck_cross_section_is_round(self, mesh):
        params = mesh.params
        neck = _rows(mesh)[params.n_profile - 1]
        radii = [math.hypot(*vertex) for vertex in neck]
        assert max(radii) - min(radii) <= 1e-12

    @pytest.mark.parametrize(
        "a, y_max",
        [(1e-100, 1.0), (25.0, 26.0), (0.6, 1000.0), (0.6, 0.6 * (1.0 + 1e-12))],
        ids=["smallest neck", "largest neck", "y_max 1000", "y_max just past a"],
    )
    def test_vertices_finite_in_closed_ball(self, a, y_max, tol):
        mesh = build_mesh(MeshParams(a, y_max, 8, 12), tol)
        for vertex in mesh.vertices:
            assert all(math.isfinite(c) for c in vertex)
            assert sum(c * c for c in vertex) <= 1.0


def _reference_faces(n_rows, n_angle):
    """Faces as six interleaved index runs in one array('i'), fixed up at the wraps."""
    n = n_angle
    quads = (n_rows - 1) * n
    index = array("i", range(quads + n + 1))
    faces = array("i", [0]) * (6 * quads)
    faces[0::6] = faces[3::6] = index[:quads]
    faces[1::6] = index[1 : quads + 1]
    faces[2::6] = faces[4::6] = index[n + 1 : quads + n + 1]
    faces[5::6] = index[n : quads + n]
    wrap = 6 * (n - 1)
    faces[wrap + 1 :: 6 * n] = index[:quads:n]
    faces[wrap + 2 :: 6 * n] = faces[wrap + 4 :: 6 * n] = index[n : quads + n : n]
    values = iter(faces)
    return list(zip(values, values, values))


class TestMeshEntries:
    """The sequence interface of MeshData.vertices and .faces."""

    @pytest.mark.parametrize("name, kind", [("vertices", float), ("faces", int)])
    def test_view_contract(self, mesh, name, kind):
        entries = getattr(mesh, name)
        assert isinstance(entries, MeshEntries)
        for i in (0, 1, len(entries) // 2, len(entries) - 1):
            entry = entries[i]
            assert type(entry) is tuple and len(entry) == 3
            assert all(type(value) is kind for value in entry)
        assert entries[-1] == entries[len(entries) - 1]
        assert entries[-len(entries)] == entries[0]
        for i in (len(entries), -len(entries) - 1):
            with pytest.raises(IndexError):
                entries[i]
        with pytest.raises(TypeError):
            entries[0] = entries[0]
        n_angle = mesh.params.n_angle
        row = entries[n_angle : 2 * n_angle]
        assert type(row) is list and len(row) == n_angle
        assert row == [entries[i] for i in range(n_angle, 2 * n_angle)]
        assert entries[::-7] == [entries[i] for i in range(len(entries) - 1, -1, -7)]
        assert entries[len(entries) :] == []
        listed = list(entries)
        assert len(listed) == len(entries)
        assert listed == [entries[i] for i in range(len(entries))]
        assert entries == listed and entries != listed[:-1]
        assert pickle.loads(pickle.dumps(entries)) == entries

    def test_typecodes(self, mesh):
        # The mesh holds its profile rows and the sweep's cosines and sines.
        rows, n_angle = 2 * mesh.params.n_profile - 1, mesh.params.n_angle
        stored = [(a.typecode, len(a)) for a in (mesh.u, mesh.r, mesh.cos, mesh.sin)]
        assert stored == [("d", rows), ("d", rows), ("d", n_angle), ("d", n_angle)]
        j, m = 5, 7
        assert mesh.vertices[j * n_angle + m] == (
            mesh.u[j], mesh.r[j] * mesh.cos[m], mesh.r[j] * mesh.sin[m]
        )

    @pytest.mark.parametrize(
        "n_profile, n_angle",
        [(5, 3), (4, 7), (3, 128), (2, _OBJ_BLOCK // 2), (2, _OBJ_BLOCK // 2 + 1)],
    )
    def test_faces_match_reference(self, n_profile, n_angle, tol):
        # At n_angle = _OBJ_BLOCK // 2 (+ 1) the wrap quads end (start) a
        # write_obj face block.
        mesh = build_mesh(MeshParams(0.6, 3.0, n_profile, n_angle), tol)
        assert list(mesh.faces) == _reference_faces(2 * n_profile - 1, n_angle)


def _obj_line_by_line(mesh, path):
    """Reference OBJ formatter: one formatted write per line."""
    with open(path, "w", newline="\n") as handle:
        for u, v, w in mesh.vertices:
            handle.write(f"v {u:.12g} {v:.12g} {w:.12g}\n")
        for i, j, k in mesh.faces:
            handle.write(f"f {i + 1} {j + 1} {k + 1}\n")


class TestObjOutput:
    def test_bytes_match_line_by_line_writer(self, tol, tmp_path):
        mesh = build_mesh(MeshParams(0.6, 3.0, 48, 64), tol)
        got, want = tmp_path / "got.obj", tmp_path / "want.obj"
        write_obj(mesh, str(got))
        _obj_line_by_line(mesh, str(want))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "a, y_max, n_profile, n_angle",
        [
            # Rows of one piece just short of and at the block, rows of two
            # and three pieces whose last holds one vertex; the wrap quads
            # fall inside, at the end and at the start of a face block.
            (0.6, 3.0, 2, _OBJ_BLOCK - 1),
            (0.6, 3.0, 2, _OBJ_BLOCK),
            (0.6, 3.0, 2, _OBJ_BLOCK + 1),
            (0.6, 3.0, 2, 2 * _OBJ_BLOCK + 1),
            (0.6, 3.0, 501, 3),
            (0.6, 3.0, 33, 7),
            # 599 rows of 7: a block of _OBJ_BLOCK vertex lines would end
            # inside row 585 and leave it partial; each row is one write.
            (0.6, 3.0, 300, 7),
            (1e-100, 1.0, 4, 6),
            (0.6, 1000.0, 32, 48),
        ],
        ids=["block - 1 angles", "block angles", "block + 1 angles", "2 blocks + 1 angles",
             "3 angles 1000 rows", "33x7", "partial last row", "smallest neck", "y_max 1000"],
    )
    def test_row_writer_edges(self, a, y_max, n_profile, n_angle, tol, tmp_path):
        mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
        got, want = tmp_path / "got.obj", tmp_path / "want.obj"
        write_obj(mesh, str(got))
        _obj_line_by_line(mesh, str(want))
        assert got.read_bytes() == want.read_bytes()

    def test_pinned_hash(self, tol, tmp_path):
        path = tmp_path / "pinned.obj"
        mesh = export_mesh(0.6, 3.0, 48, 64, str(path), tol)
        assert (len(mesh.vertices), len(mesh.faces)) == (6_080, 12_032)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "8b15d20a9e513aa0c3f0e0a01f4e487d179eaed8176a88a2806fb9da12452ad5"

    def test_same_bytes_from_tuples(self, tol, tmp_path):
        # A mesh made from the same params by MeshData, and the 3-tuples its
        # views yield, write the bytes of the built mesh.
        built = build_mesh(MeshParams(0.6, 3.0, 12, 20), tol)
        copied = MeshData(built.params, tol=tol)
        tuples = SimpleNamespace(vertices=list(built.vertices), faces=list(built.faces))
        assert copied.vertices == tuples.vertices and copied.faces == tuples.faces
        write_obj(built, str(tmp_path / "built.obj"))
        write_obj(copied, str(tmp_path / "copied.obj"))
        _obj_line_by_line(tuples, str(tmp_path / "tuples.obj"))
        built_bytes = (tmp_path / "built.obj").read_bytes()
        assert built_bytes == (tmp_path / "copied.obj").read_bytes()
        assert built_bytes == (tmp_path / "tuples.obj").read_bytes()

    def test_face_index_out_of_range_raises(self, mesh, tmp_path):
        # Every face joins in-range vertices by construction, so the OBJ
        # names vertices 1..n only; reading past the faces raises.
        count = len(mesh.vertices)
        indices = [index for face in mesh.faces for index in face]
        assert (min(indices), max(indices)) == (0, count - 1)
        path = tmp_path / "tube.obj"
        write_obj(mesh, str(path))
        written = [int(index) for line in path.read_text().splitlines()
                   if line.startswith("f ") for index in line.split()[1:]]
        assert (min(written), max(written)) == (1, count)
        for i in (len(mesh.faces), -len(mesh.faces) - 1):
            with pytest.raises(IndexError):
                mesh.faces[i]

    @pytest.mark.parametrize("index", [2**31, -(2**31) - 1, 2**64])
    def test_face_index_past_32_bits_raises(self, mesh, index):
        # An index no 32-bit (or 64-bit) int holds raises IndexError, not
        # OverflowError, from either view.
        with pytest.raises(IndexError):
            mesh.faces[index]
        with pytest.raises(IndexError):
            mesh.vertices[index]

    def test_transient_memory_bounded(self, tol, tmp_path):
        # A whole-file join would need over 12 MB here and a table of index
        # strings about 4 MB, so it would exceed this bound; formatting a
        # row or a face block at a time takes about 750 KiB.
        mesh = build_mesh(MeshParams(0.6, 3.0, 128, 256), tol)
        tracemalloc.start()
        try:
            write_obj(mesh, str(tmp_path / "large.obj"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_transient_memory_bounded_wide_rows(self, tol, tmp_path):
        # A block of whole rows would hold one 65,536-vertex row, about 12 MB.
        mesh = build_mesh(MeshParams(0.6, 3.0, 2, 65_536), tol)
        tracemalloc.start()
        try:
            write_obj(mesh, str(tmp_path / "wide.obj"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_file_round_trip(self, mesh, tmp_path):
        path = tmp_path / "tube.obj"
        write_obj(mesh, str(path))
        data = path.read_bytes()
        assert b"\r" not in data

        vertices = []
        faces = []
        for line in data.decode("ascii").splitlines():
            kind, *fields = line.split()
            assert kind in ("v", "f")
            if kind == "v":
                vertices.append(tuple(float(f) for f in fields))
            else:
                faces.append(tuple(int(f) for f in fields))

        assert len(vertices) == len(mesh.vertices)
        assert len(faces) == len(mesh.faces)
        for got, want in zip(vertices, mesh.vertices):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-11)
        for got, want in zip(faces, mesh.faces):
            assert got == tuple(index + 1 for index in want)
            for index in got:
                assert 1 <= index <= len(vertices)

    def test_deterministic_bytes(self, tol, tmp_path):
        path1 = tmp_path / "one.obj"
        path2 = tmp_path / "two.obj"
        export_mesh(0.5, 2.0, 6, 8, str(path1), tol)
        export_mesh(0.5, 2.0, 6, 8, str(path2), tol)
        assert path1.read_bytes() == path2.read_bytes()

    def test_export_returns_mesh(self, tol, tmp_path):
        mesh = export_mesh(0.5, 2.0, 6, 8, str(tmp_path / "out.obj"), tol)
        assert isinstance(mesh, MeshData)
        assert len(mesh.vertices) == 8 * 11

    def test_smallest_neck(self, tol, tmp_path):
        mesh = build_mesh(MeshParams(1e-100, 1.0, 4, 6), tol)
        assert all(math.isfinite(c) for v in mesh.vertices for c in v)
        path = tmp_path / "tiny.obj"
        assert len(export_mesh(1e-100, 1.0, 4, 6, str(path), tol).faces) == 72
        assert path.read_bytes().count(b"\nf ") == 72
        with pytest.raises(ValueError, match="smallest the profile"):
            build_mesh(MeshParams(1e-200, 1.0, 4, 6), tol)
        with pytest.raises(ValueError, match="smallest the profile"):
            export_mesh(1e-200, 1.0, 4, 6, str(tmp_path / "none.obj"), tol)
