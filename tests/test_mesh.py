import hashlib
import math
import pickle
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import mpmath
import pytest

from hypcatenoid import (
    MeshData,
    MeshParams,
    Tolerance,
    build_mesh,
    catenary_x,
    gomes_rho,
    sample_catenary,
    write_obj,
)
from hypcatenoid.mesh import _OBJ_BLOCK, _SUM_ROUNDING, MeshEntries

from _oracles import profile_coordinates


@pytest.fixture(scope="module")
def mesh(tol):
    return build_mesh(MeshParams(0.6, 3.0, 16, 24), tol)


def _y_end(a, tol):
    # Where the slack 2 sech y / den of a row reaches _SUM_ROUNDING.
    cosh_rho = math.cosh(gomes_rho(a, tol))
    return math.acosh((2.0 - _SUM_ROUNDING) / (_SUM_ROUNDING * cosh_rho))


def _rows(mesh):
    n_angle = mesh.params.n_angle
    total = len(mesh.vertices) // n_angle
    return [mesh.vertices[j * n_angle : (j + 1) * n_angle] for j in range(total)]


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

    def test_rows_lie_on_catenary(self, mesh):
        a = mesh.params.neck_distance
        for row in _rows(mesh):
            x, y = profile_coordinates(row[0])
            # The inverse can land one ulp below the neck.
            assert abs(x) == pytest.approx(catenary_x(a, max(y, a)), abs=1e-6)

    def test_rows_have_constant_axis_distance(self, mesh):
        for row in _rows(mesh):
            distances = [profile_coordinates(vertex)[1] for vertex in row]
            assert max(distances) - min(distances) <= 1e-9

    def test_row_span_covers_requested_range(self, mesh):
        params = mesh.params
        rows = _rows(mesh)
        y_neck = profile_coordinates(rows[params.n_profile - 1][0])[1]
        y_end = profile_coordinates(rows[-1][0])[1]
        assert y_neck == pytest.approx(params.neck_distance, abs=1e-9)
        assert y_end == pytest.approx(params.y_max, abs=1e-9)

    def test_mirror_symmetry(self, mesh, tol):
        # u = sinh x / den is odd in x, so reflecting x to -x is u to -u, and
        # profile rows j and 2 n_profile - 2 - j pair up exactly.
        for params in (
            mesh.params,
            MeshParams(25.0, 26.0, 9, 11),
            MeshParams(1e-100, 1.0, 4, 6),
            MeshParams(0.6, 1000.0, 32, 48),
        ):
            vertices = build_mesh(params, tol).vertices
            n_angle = params.n_angle
            top = 2 * params.n_profile - 2
            for j in range(params.n_profile - 1):
                for m in range(n_angle):
                    u1, v1, w1 = vertices[j * n_angle + m]
                    u2, v2, w2 = vertices[(top - j) * n_angle + m]
                    assert u1 == -u2 and v1 == v2 and w1 == w2, (params, j, m)

    def test_conservation_along_profile(self, tol):
        # The surface satisfies 2 pi sinh(y) cosh(y) sin(theta) =
        # pi sinh(2a) along the profile; check it with finite differences
        # on the first angular column.  The finite-difference error scales
        # with the squared row spacing, so use a fine profile.
        fine = build_mesh(MeshParams(0.6, 3.0, 96, 4), tol)
        a = fine.params.neck_distance
        expected = math.pi * math.sinh(2.0 * a)
        profile = [profile_coordinates(row[0]) for row in _rows(fine)]
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
        # Each row is one closed-form point rotated about the u axis.
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
        "a, y_max, n_profile, n_angle",
        [
            (1e-100, 1.0, 8, 12),
            (25.0, 26.0, 8, 12),
            (0.6, 1000.0, 8, 12),
            (0.6, 0.6 * (1.0 + 1e-12), 8, 12),
            (0.6, 1000.0, 32, 64),
            (2.0, 1000.0, 16, 24),
            (0.6, 41.0, 32, 64),
            (0.6, 60.0, 32, 64),
        ],
        ids=["smallest neck", "largest neck", "y_max 1000", "y_max just past a",
             "CLI default y_max 1000", "a 2 y_max 1000", "y_max 41", "y_max 60"],
    )
    def test_vertices_finite_in_closed_ball(self, a, y_max, n_profile, n_angle, tol):
        mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
        for vertex in mesh.vertices:
            assert all(math.isfinite(c) for c in vertex)
            assert sum(c * c for c in vertex) <= 1.0

    @pytest.mark.parametrize("a", [1e-100, 1e-8, 0.6, 2.0, 25.0])
    def test_rows_end_inside_ball_and_distinct(self, a, tol):
        # Rows stop at y_end(a), so however far y_max reaches, every vertex
        # passes the closed-ball check, consecutive rows differ as doubles,
        # and a y_max past y_end gives the rows of y_end.
        y_end = _y_end(a, tol)
        past = (math.nextafter(y_end, math.inf), 1000.0, 1e300)
        for n_profile, n_angle in ((2, 3), (8, 12), (32, 64), (256, 7)):
            for y_max in (a + 1.0, math.nextafter(y_end, 0.0), y_end) + past:
                mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
                shape = (y_max, n_profile, n_angle)
                for vertex in mesh.vertices:
                    assert sum(c * c for c in vertex) <= 1.0, (shape, vertex)
                rows = list(zip(mesh.u, mesh.r))
                for j, (below, above) in enumerate(zip(rows, rows[1:])):
                    assert below != above, (shape, j)
                if y_max == y_end:
                    end_rows = rows
                elif y_max in past:
                    assert rows == end_rows, shape

    @pytest.mark.parametrize(
        "a, y_max, n_profile, n_angle",
        [
            (1e-100, 1.0, 4, 8),
            (1e-8, 1.0, 32, 8),
            (1e-3, 2.0, 32, 8),
            (0.6, 3.0, 48, 8),
            (2.0, 6.0, 32, 8),
            (25.0, 26.0, 9, 8),
            (0.6, 1000.0, 32, 64),
        ],
    )
    def test_rows_match_mpmath(self, a, y_max, n_profile, n_angle, tol):
        # Row j of the sampled arm is u = sinh x / den, r = tanh y / den with
        # den = cosh x + sech y at its profile point; the mirrored arm
        # negates u.  The profile ends at the mesh's own end row, which is
        # y_end(a) where y_max lies past it.
        mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
        points = sample_catenary(a, min(y_max, _y_end(a, tol)), n_profile, tol).points
        bound = 4.0 * sys.float_info.epsilon
        with mpmath.workdps(50):
            for k, (u, r) in enumerate(zip(mesh.u, mesh.r)):
                j = k - (n_profile - 1)
                x, y = (mpmath.mpf(c) for c in points[abs(j)])
                den = mpmath.cosh(x) + mpmath.sech(y)
                want_u = math.copysign(1.0, j) * mpmath.sinh(x) / den
                assert abs(u - want_u) <= bound * abs(want_u), (k, u, want_u)
                want_r = mpmath.tanh(y) / den
                assert abs(r - want_r) <= bound * want_r, (k, r, want_r)


@pytest.mark.parametrize("n", [*range(3, 65), 128, 160, 512, 1000, 4097])
def test_sweep_table(n):
    # Each angle is folded onto the first octant by exact integer reflections
    # before libm sees it, so the reflections n allows hold bit for bit: ==
    # on nonzero doubles compares bits, and every zero is +0.0.
    mesh = MeshData(MeshParams(0.6, 3.0, 2, n))
    cos, sin = mesh.cos, mesh.sin
    for m in range(1, n):
        assert (cos[n - m], sin[n - m]) == (cos[m], -sin[m]), m
    if n % 2 == 0:
        for m in range(n // 2 + 1):
            assert (cos[n // 2 - m], sin[n // 2 - m]) == (-cos[m], sin[m]), m
    if n % 4 == 0:
        # The swap fixes the eighth turn, where libm's cos and sin of the
        # double nearest pi / 4 differ by an ulp.
        for m in set(range(n // 4 + 1)) - {n / 8}:
            assert (cos[n // 4 - m], sin[n // 4 - m]) == (sin[m], cos[m]), m
        quarters = [(cos[k * n // 4], sin[k * n // 4]) for k in range(4)]
        assert quarters == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    assert all(math.copysign(1.0, v) == 1.0 for v in cos + sin if v == 0.0)
    with mpmath.workdps(40):
        for m, (c, s) in enumerate(zip(cos, sin)):
            theta = 2 * mpmath.pi * m / n
            assert abs(c - mpmath.cos(theta)) <= 1.2e-16, m
            assert abs(s - mpmath.sin(theta)) <= 1.2e-16, m
            # The 4 units of eps / 2 that _SUM_ROUNDING counts for each pair.
            assert abs(mpmath.mpf(c) ** 2 + mpmath.mpf(s) ** 2 - 1) <= 4 * 2.0**-53, m


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
            # The widest row of one shared layout and the narrowest formatted
            # in place; rows of one piece just short of and at the block, rows
            # of two and three pieces whose last holds one vertex, and one
            # whose second piece holds the mirrors m = n - 8 ... n - 1 of the
            # first's m = 1 ... 8; the wrap quads fall inside, at the end and
            # at the start of a face block.
            (0.6, 3.0, 2, _OBJ_BLOCK // 2),
            (0.6, 3.0, 2, _OBJ_BLOCK // 2 + 1),
            (0.6, 3.0, 2, _OBJ_BLOCK - 1),
            (0.6, 3.0, 2, _OBJ_BLOCK),
            (0.6, 3.0, 2, _OBJ_BLOCK + 1),
            (0.6, 3.0, 2, 2 * _OBJ_BLOCK + 1),
            (0.6, 3.0, 2, _OBJ_BLOCK + 8),
            (0.6, 3.0, 501, 3),
            (0.6, 3.0, 33, 7),
            # 599 rows of 7: a block of _OBJ_BLOCK vertex lines would end
            # inside row 585 and leave it partial; each row is one write.
            (0.6, 3.0, 300, 7),
            (1e-100, 1.0, 4, 6),
            (0.6, 1000.0, 32, 48),
            # Each set of folds: quarter turns at n = 4 and 8, half but no
            # quarter turns at n = 6 and 30 (2 mod 4), and only the mirror
            # m -> n - m at the prime 31.
            (0.6, 3.0, 5, 4),
            (0.6, 3.0, 5, 6),
            (0.6, 3.0, 5, 8),
            (0.6, 3.0, 5, 30),
            (0.6, 3.0, 5, 31),
        ],
        ids=["half block angles", "half block + 1 angles", "block - 1 angles", "block angles",
             "block + 1 angles", "2 blocks + 1 angles", "block + 8 angles", "3 angles 1000 rows",
             "33x7", "partial last row", "smallest neck", "y_max 1000", "4 angles", "6 angles",
             "8 angles", "30 angles", "31 angles"],
    )
    def test_row_writer_edges(self, a, y_max, n_profile, n_angle, tol, tmp_path):
        mesh = build_mesh(MeshParams(a, y_max, n_profile, n_angle), tol)
        got, want = tmp_path / "got.obj", tmp_path / "want.obj"
        write_obj(mesh, str(got))
        _obj_line_by_line(mesh, str(want))
        assert got.read_bytes() == want.read_bytes()

    def test_pinned_hash(self, tol, tmp_path):
        path = tmp_path / "pinned.obj"
        mesh = build_mesh(MeshParams(0.6, 3.0, 48, 64), tol)
        write_obj(mesh, str(path))
        assert (len(mesh.vertices), len(mesh.faces)) == (6_080, 12_032)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c8804ffd19a0326a7573beac869c712d1c831f9b3fcbcf169bdb0184f148de86"

    def test_same_bytes_from_tuples(self, tol, tmp_path):
        # A mesh made from the same params by MeshData, and the 3-tuples its
        # views yield, write the bytes of the built mesh.
        built = build_mesh(MeshParams(0.6, 3.0, 12, 20), tol)
        copied = MeshData(built.params)
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
        # A whole-file join would need over 12 MB here and a table of every
        # index's string about 4 MB, so it would exceed this bound; a row
        # laid out from the tokens of its distinct coordinates, or a face
        # block from those of its indices, at a time takes about 450 KiB.
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

    def test_transient_memory_bounded_shared_layout(self, tol, tmp_path):
        # The widest rows of one shared layout, at an odd n, whose rows hold
        # about n distinct magnitudes: layout and tokens take about 790 KiB.
        mesh = build_mesh(MeshParams(0.6, 3.0, 2, _OBJ_BLOCK // 2 - 1), tol)
        tracemalloc.start()
        try:
            write_obj(mesh, str(tmp_path / "shared.obj"))
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
        # Two builds at different tolerances write the same bytes: the rows
        # are exact to rounding whatever tol is.
        path1 = tmp_path / "one.obj"
        path2 = tmp_path / "two.obj"
        write_obj(build_mesh(MeshParams(0.5, 2.0, 6, 8), tol), str(path1))
        write_obj(build_mesh(MeshParams(0.5, 2.0, 6, 8), Tolerance(1e-4)), str(path2))
        assert path1.read_bytes() == path2.read_bytes()

    def test_smallest_neck(self, tol, tmp_path):
        mesh = build_mesh(MeshParams(1e-100, 1.0, 4, 6), tol)
        assert all(math.isfinite(c) for v in mesh.vertices for c in v)
        path = tmp_path / "tiny.obj"
        assert len(mesh.faces) == 72
        write_obj(mesh, str(path))
        assert path.read_bytes().count(b"\nf ") == 72
        with pytest.raises(ValueError, match="smallest the profile"):
            build_mesh(MeshParams(1e-200, 1.0, 4, 6), tol)
