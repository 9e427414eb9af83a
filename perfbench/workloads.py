"""The four seeded workloads: input generation, the timed op, and its check.

All inputs come from ``random.Random`` streams keyed by workload, seed and
phase.  Quantities that set an op's cost (tolerance, plane distance,
mesh resolution) are drawn from an additive golden-ratio sequence with a
seeded offset rather than independently: every prefix of that sequence is
spread evenly over [0, 1), so the latency distribution of a run does not
depend on how many ops fit in it, and medians agree from seed to seed.

Continuous inputs that need a high-precision answer (necks, plane
distances, profiles, competitor pairs) are picked from the seeded grids of
reference.json; geometry around them (circle centres and radii, mesh
resolution) is drawn freely.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile

import oracle
from spans import forget_bundles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Weyl:
    """Quantiles x_k = x_0 + k * golden (mod 1), with a seeded x_0."""

    def __init__(self, rng: random.Random):
        self.x = rng.random()

    def __call__(self) -> float:
        self.x = (self.x + GOLDEN) % 1.0
        return self.x


def bundle_dict(bundle) -> dict:
    return {
        name: getattr(bundle, name)
        for name in ("K", "a_0", "a_c", "a_l", "a_L", "two_rho_ac", "two_rho_aL")
    }


class Workload:
    name = ""
    # Traced ops whose counts are reported; a fixed prefix, so two traced
    # runs with one seed report identical counts however fast they run.
    count_ops = 20

    def __init__(self, hc, ref: oracle.Reference, seed: int, scratch: str, src: str):
        self.hc = hc
        self.ref = ref
        self.seed = seed
        self.scratch = scratch
        self.src = src
        self.nonzero_exits = 0

    def rng(self, phase: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{phase}")

    def ops(self, phase: str):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def run_in_process(self, op):
        """The op as the traced run executes it (the same, except for cli)."""
        return self.run(op)

    def check(self, op, result) -> list[str]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class BundleCold(Workload):
    """constants_bundle at a fresh tolerance per op: a cold solve every time."""

    name = "bundle_cold"
    count_ops = 50

    def ops(self, phase):
        q = Weyl(self.rng(phase))
        while True:
            yield {"tol": 10.0 ** (-12.0 + 4.0 * q())}

    def run(self, op):
        return self.hc.constants_bundle(self.hc.Tolerance(abs_tol=op["tol"]))

    def check(self, op, bundle):
        return oracle.check_bundle(self.ref, bundle_dict(bundle), op["tol"])


QUERY_TOLS = (1.0e-8, 1.0e-10, 1.0e-12)
# Queries per session that solve for necks by plane distance.  One fifth of
# (0, 1.25 * 2rho(a_c)) lies above the maximum, so with the five distances
# drawn one per stratum, every session has exactly four two-branch solves.
SEPARATION_STRATA = 5


class QueryMix(Workload):
    """Sessions of CLI-shaped queries against bundles solved during set-up."""

    name = "query_mix"
    count_ops = 40

    def __init__(self, *args):
        super().__init__(*args)
        for tol in QUERY_TOLS:  # solved once here; every query then hits the cache
            self.hc.constants_bundle(self.hc.Tolerance(abs_tol=tol))

    def ops(self, phase):
        rng = self.rng(phase)
        q = Weyl(rng)
        n_sep = len(self.ref.separations)
        n_a = len(self.ref.a)
        order: list[float] = []
        session = 0
        while True:
            if not order:
                order = list(QUERY_TOLS)
                rng.shuffle(order)
            u = q()
            queries = []
            for k in range(SEPARATION_STRATA):
                j = min(int((k + u) / SEPARATION_STRATA * n_sep), n_sep - 1)
                if (k + session) % SEPARATION_STRATA < 3:
                    d = self.ref.separations[j][0]
                    queries.append(("circles", j, oracle.circle_pair(rng, d)))
                else:
                    queries.append(("separation", j))
            j = rng.randrange(n_sep)
            queries.append(("normalize", j, oracle.circle_pair(rng, self.ref.separations[j][0])))
            queries.append(("neck", int(q() * n_a)))
            queries.append(("neck", int(q() * n_a)))
            queries.append(("rho", int(q() * n_a)))
            queries.append(("phi", int(q() * n_a)))
            queries.append(("compete", int(q() * len(self.ref.competitor))))
            queries.append(("catenary", int(q() * len(self.ref.catenary))))
            yield {"tol": order.pop(), "queries": queries}
            session += 1

    def run(self, op):
        hc = self.hc
        tol = hc.Tolerance(abs_tol=op["tol"])
        out = []
        for query in op["queries"]:
            kind, j = query[0], query[1]
            try:
                if kind == "circles":
                    c1, r1, c2, r2 = query[2]
                    found = hc.catenoids_for_circles(
                        hc.circle_from_center_radius(c1, r1),
                        hc.circle_from_center_radius(c2, r2),
                        hc.constants_bundle(tol),
                        tol,
                    )
                    out.append(found)
                elif kind == "separation":
                    out.append(hc.catenoids_for_separation(
                        self.ref.separations[j][0], hc.constants_bundle(tol), tol
                    ))
                elif kind == "normalize":
                    c1, r1, c2, r2 = query[2]
                    out.append(
                        hc.normalize_coaxial(
                            hc.circle_from_center_radius(c1, r1),
                            hc.circle_from_center_radius(c2, r2),
                        )
                    )
                elif kind == "neck":
                    a = self.ref.a[j]
                    label = hc.classify_regime(a, hc.constants_bundle(tol))
                    out.append((label, 2.0 * hc.gomes_rho(a, tol)))
                elif kind == "rho":
                    out.append(hc.gomes_rho(self.ref.a[j], tol))
                elif kind == "phi":
                    out.append(hc.area_deficit(self.ref.a[j], tol))
                elif kind == "compete":
                    a, r = self.ref.competitor[j][:2]
                    out.append(hc.find_cheaper_competitor(a, r, tol))
                else:
                    a, y_max, n = self.ref.catenary[j][:3]
                    out.append(hc.sample_catenary(a, y_max, n, tol))
            except Exception as exc:
                raise RuntimeError(f"{describe(query)}: {type(exc).__name__}: {exc}") from exc
        return out

    def check(self, op, results):
        tol = op["tol"]
        ref = self.ref
        problems = []
        for query, got in zip(op["queries"], results):
            kind, j = query[0], query[1]
            if kind in ("circles", "separation"):
                found = [(a, label.kind.value) for a, label in got.solutions]
                d = ref.separations[j][0]
                if kind == "circles":
                    d = oracle.plane_distance(*query[2])
                    problems += oracle.close_to("plane distance", got.separation, d, 1.0e-9 * max(1.0, d))
                problems += oracle.check_roots(ref, j, got.separation, found, tol)
            elif kind == "normalize":
                problems += oracle.check_coaxial(got, *query[2], oracle.plane_distance(*query[2]))
            elif kind == "neck":
                label, separation = got
                want = ref.regime(ref.a[j])
                if (want and label.kind.value != want) or label.at_a_c or label.at_a_L:
                    problems.append(f"neck a={ref.a[j]}: label {label}, expected {want}")
                problems += oracle.close_to("separation", separation, 2.0 * ref.rho[j], 2.0 * oracle.value_tol(tol))
            elif kind == "rho":
                problems += oracle.close_to(f"rho({ref.a[j]})", got, ref.rho[j], oracle.value_tol(tol))
            elif kind == "phi":
                problems += oracle.close_to(f"phi({ref.a[j]})", got, ref.phi[j], oracle.value_tol(tol, ref.phi[j]))
            elif kind == "compete":
                fields = {"area_catenoid": got.area_catenoid, "margin": got.margin, "s": got.s}
                problems += oracle.check_competitor(ref, j, fields, tol)
            else:
                problems += check_profile(ref, j, got.points, tol)
            if problems:
                return [f"{describe(query)} at tol={tol}: {p}" for p in problems]
        return problems


def describe(query) -> str:
    kind, j = query[0], query[1]
    if len(query) > 2:
        c1, r1, c2, r2 = query[2]
        return f"{kind}[{j}] circles ({c1!r}, {r1!r}) ({c2!r}, {r2!r})"
    return f"{kind}[{j}]"


def profile_nodes(a: float, y_max: float, n: int) -> list[float]:
    """The y values sample_catenary documents: a + (y_max - a) * (i/(n-1))**2."""
    span = y_max - a
    return [a + span * (i / (n - 1)) * (i / (n - 1)) for i in range(n)]


def check_profile(ref, j, points, tol, digits_slack=0.0) -> list[str]:
    a, y_max, n, xs = ref.catenary[j]
    if len(points) != n:
        return [f"profile {j}: {len(points)} points, expected {n}"]
    problems = []
    for (x, y), y_want, x_want in zip(points, profile_nodes(a, y_max, n), xs):
        problems += oracle.close_to(f"profile {j} y", y, y_want, 1.0e-14 * y_want + digits_slack * y_want)
        problems += oracle.close_to(f"profile {j} x({y_want})", x, x_want, oracle.value_tol(tol) + digits_slack * abs(x_want))
    return problems


# Resolution levels by op quantile: n_profile, with n_angle = 2 * n_profile.
# 1% of ops build the ROADMAP's 256x512 case, so every run reaches the same
# peak memory.  The median falls inside the 64x128 level and the 90th
# percentile inside the 80x160 level, away from level edges, so neither
# moves with the exact number of ops in a run.  Larger meshes are kept rare:
# their latency swings up to twofold with the load other tenants put on the
# shared memory system, which the percentiles of small meshes average out.
MESH_LEVELS = ((0.8, 64), (0.99, 80), (1.0, 256))


class MeshExport(Workload):
    """build_mesh plus write_obj of one catenoid per op."""

    name = "mesh_export"
    count_ops = 12

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = tempfile.mkdtemp(prefix="mesh-", dir=self.scratch)

    def ops(self, phase):
        rng = self.rng(phase)
        q = Weyl(rng)
        while True:
            u = q()
            n_profile = next(n for top, n in MESH_LEVELS if u < top)
            yield {
                "case": rng.randrange(len(self.ref.catenary)),
                "n_profile": n_profile,
                "n_angle": 2 * n_profile,
            }

    def run(self, op):
        a, y_max = self.ref.catenary[op["case"]][:2]
        mesh = self.hc.build_mesh(
            self.hc.MeshParams(a, y_max, op["n_profile"], op["n_angle"]), self.hc.Tolerance()
        )
        path = os.path.join(self.dir, "mesh.obj")
        self.hc.write_obj(mesh, path)
        return mesh, path

    def check(self, op, result):
        mesh, path = result
        try:
            return check_mesh(self.ref, op["case"], op["n_profile"], op["n_angle"], mesh.vertices, len(mesh.faces), path)
        finally:
            os.remove(path)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def check_mesh(ref, case, n_profile, n_angle, vertices, n_faces, path) -> list[str]:
    """Counts, the neck and both end rows against x(y_max), and the OBJ file."""
    a, y_max, n, xs = ref.catenary[case]
    rows = 2 * n_profile - 1
    problems = []
    if vertices is not None and len(vertices) != rows * n_angle:
        problems.append(f"{len(vertices)} vertices, expected {rows * n_angle}")
    if n_faces != 2 * (rows - 1) * n_angle:
        problems.append(f"{n_faces} faces, expected {2 * (rows - 1) * n_angle}")
    if problems:
        return problems
    if vertices is not None:
        y_last = profile_nodes(a, y_max, n)[-1]
        step = 2.0 * math.pi / n_angle
        allowed = 1.0e-8
        for row, x, y in ((0, -xs[-1], y_last), (n_profile - 1, 0.0, a), (rows - 1, xs[-1], y_last)):
            for m in (0, n_angle // 3, n_angle - 1):
                got = vertices[row * n_angle + m]
                want = oracle.halfspace_to_ball(x, y, m * step)
                if max(abs(g - w) for g, w in zip(got, want)) > allowed:
                    problems.append(f"row {row} vertex {m}: {got!r}, expected {want!r}")
    with open(path, "rb") as handle:
        head = handle.read(2)
        handle.seek(0)
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
        handle.seek(max(0, handle.tell() - 256))
        last = handle.read().rsplit(b"\n", 2)[-2]
    if head != b"v " or not last.startswith(b"f "):
        problems.append("OBJ file does not run from vertex lines to face lines")
    if lines != rows * n_angle + n_faces:
        problems.append(f"OBJ has {lines} lines, expected {rows * n_angle + n_faces}")
    return problems


OUT = "{out}"  # stands for the mesh file in the argv of an op
CLI_KINDS = ("constants", "neck", "distance", "circles", "sweep", "catenary", "compete", "mesh")


class Cli(Workload):
    """One `python -m hypcatenoid <subcommand>` child process per op."""

    name = "cli"
    count_ops = 24

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.max_child_rss_kb = 0
        self.out = os.path.join(self.dir, "tube.obj")

    def ops(self, phase):
        rng = self.rng(phase)
        q = Weyl(rng)
        ref = self.ref
        kinds: list[str] = []
        while True:
            if not kinds:
                kinds = list(CLI_KINDS)
                rng.shuffle(kinds)
            kind = kinds.pop()
            op = {"kind": kind}
            if kind == "constants":
                argv = ["constants"]
            elif kind == "neck":
                op["j"] = int(q() * len(ref.a))
                argv = ["classify", "--a", repr(ref.a[op["j"]])]
            elif kind == "distance":
                op["j"] = int(q() * len(ref.separations))
                argv = ["classify", "--distance", repr(ref.separations[op["j"]][0])]
            elif kind == "circles":
                op["j"] = int(q() * len(ref.separations))
                c1, r1, c2, r2 = oracle.circle_pair(rng, ref.separations[op["j"]][0])
                # argparse takes a literal starting with '-' for an option, so
                # the pair is translated (an isometry) to positive coordinates.
                shift = complex(
                    max(0.0, 1.0 - min(c1.real, c2.real)), max(0.0, 1.0 - min(c1.imag, c2.imag))
                )
                c1, c2 = c1 + shift, c2 + shift
                op["pair"] = (c1, r1, c2, r2)
                argv = ["classify", "--circles"] + [
                    f"{c.real!r},{c.imag!r},{r!r}" for c, r in ((c1, r1), (c2, r2))
                ]
            elif kind == "sweep":
                n = rng.randint(3, 5)
                stride = rng.randint(1, 3)
                lo = rng.randrange(len(ref.a) - stride * (n - 1))
                op["quantity"] = rng.choice(("rho", "phi"))
                argv = ["sweep", op["quantity"], "--lo", repr(ref.a[lo]), "--hi",
                        repr(ref.a[lo + stride * (n - 1)]), "--n", str(n)]
            elif kind == "catenary":
                op["j"] = int(q() * len(ref.catenary))
                a, y_max, n = ref.catenary[op["j"]][:3]
                argv = ["catenary", "--a", repr(a), "--y-max", repr(y_max), "--n", str(n)]
            elif kind == "compete":
                op["j"] = int(q() * len(ref.competitor))
                a, r = ref.competitor[op["j"]][:2]
                argv = ["compete", "--a", repr(a), "--r", repr(r), "--json"]
            else:
                op["j"] = rng.randrange(len(ref.catenary))
                a, y_max = ref.catenary[op["j"]][:2]
                op["n_profile"] = rng.randint(16, 32)
                op["n_angle"] = 2 * op["n_profile"]
                argv = ["mesh", "--a", repr(a), "--y-max", repr(y_max), "--n-profile",
                        str(op["n_profile"]), "--n-angle", str(op["n_angle"]), "--out", OUT, "--json"]
            op["argv"] = argv
            yield op

    def argv(self, op):
        return [self.out if arg == OUT else arg for arg in op["argv"]]

    def run(self, op):
        with tempfile.TemporaryFile(dir=self.dir) as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "hypcatenoid"] + self.argv(op),
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
            )
            with child.stdout:
                stdout = child.stdout.read()
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return child.returncode, stdout.decode(), stderr.decode()

    def run_in_process(self, op):
        forget_bundles(self.hc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.hc.cli.main(self.argv(op))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if code != 0:
            self.nonzero_exits += 1
        return code, out.getvalue(), err.getvalue()

    def peak_rss_kb(self):
        return self.max_child_rss_kb

    def check(self, op, result):
        code, stdout, stderr = result
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        try:
            return check_cli_output(self.ref, op, stdout, self.out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable output ({type(exc).__name__}: {exc}): {stdout[:200]!r}"]
        finally:
            if os.path.exists(self.out):
                os.remove(self.out)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# The CLI prints CSV and text values with 12 significant digits.
PRINTED = 1.0e-11
CLI_TOL = 1.0e-10


def check_cli_output(ref, op, stdout, out) -> list[str]:
    kind = op["kind"]
    if kind == "constants":
        values = {}
        for line in stdout.splitlines():
            name, value = line.split("=")
            values[name.strip()] = float(value)
        return oracle.check_bundle(ref, values, CLI_TOL, printed=PRINTED)
    if kind == "sweep":
        rows = stdout.splitlines()
        if rows[0] != "a,value":
            return [f"sweep header {rows[0]!r}"]
        table = ref.rho if op["quantity"] == "rho" else ref.phi
        problems = []
        for row in rows[1:]:
            a, value = (float(v) for v in row.split(","))
            want = table[ref.grid_index(a)]
            problems += oracle.close_to(f"{op['quantity']}({a})", value, want,
                                      oracle.value_tol(CLI_TOL, want) + PRINTED * abs(want))
        return problems
    if kind == "catenary":
        rows = stdout.splitlines()
        points = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
        return check_profile(ref, op["j"], points, CLI_TOL, digits_slack=PRINTED)
    report = json.loads(stdout)
    if kind == "neck":
        j = op["j"]
        want = ref.regime(ref.a[j])
        problems = oracle.close_to("separation", report["separation"], 2.0 * ref.rho[j], 2.0 * oracle.value_tol(CLI_TOL))
        if (want and report["kind"] != want) or report["at_a_c"] or report["at_a_L"]:
            problems.append(f"label {report['kind']}, expected {want}")
        return problems
    if kind in ("distance", "circles"):
        found = [(s["a"], s["kind"]) for s in report["solutions"]]
        problems = []
        if kind == "circles":
            d = oracle.plane_distance(*op["pair"])
            problems += oracle.close_to("plane distance", report["distance"], d, 1.0e-9 * max(1.0, d))
        return problems + oracle.check_roots(ref, op["j"], report["distance"], found, CLI_TOL)
    if kind == "compete":
        return oracle.check_competitor(ref, op["j"], report, CLI_TOL)
    # mesh: the summary and the file; vertex rows are checked by mesh_export.
    return check_mesh(ref, op["j"], op["n_profile"], op["n_angle"], None, report["faces"], out) + (
        [] if report["vertices"] == (2 * op["n_profile"] - 1) * op["n_angle"]
        else [f"{report['vertices']} vertices reported"]
    )


WORKLOADS = {cls.name: cls for cls in (BundleCold, QueryMix, MeshExport, Cli)}
