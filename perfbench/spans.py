"""Span tracer that wraps the package's public functions from outside.

One wrapper is made per public function of each module and installed in
every namespace where callers look the function up: the defining module,
each sibling module that imported it (``hypcatenoid.catenoid.quad_finite``,
``hypcatenoid.circles.solve_root``, ...) and the package itself.  A call
through any of them records one span: function, parent span, start and end
in perf_counter nanoseconds, and a count taken at the boundary.  Spans stay
in memory and are written out by ``dump`` when the run ends.

Counts come from what the calls return or receive, never from wrapping
integrands: ``QuadratureResult.evaluations`` of each ``quad_*`` result, the
calls of the ``f`` handed to ``solve_root``, the vertex and face counts of a
built mesh and the size of a written OBJ file.  The point maps of ``mesh``
run once per vertex and are left unwrapped, like integrands; their time is
part of ``build_mesh``'s self time.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter_ns

MODULES = ("quadrature", "catenoid", "constants", "circles", "competitor", "mesh", "cli")
UNWRAPPED = frozenset({"ball_from_halfspace", "halfspace_point", "halfspace_from_ball"})
QUAD = frozenset({"quad_finite", "quad_semi_infinite", "quad_sqrt_endpoint"})


def public_functions(package):
    """(layer, name, function) for every public function the tracer wraps."""
    found = []
    for layer in MODULES:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
                and name not in UNWRAPPED
            ):
                found.append((layer, name, obj))
    return found


class Patch:
    """Replace functions in every package namespace that holds them; undo on exit."""

    def __init__(self, package, replacements):
        self._undo = []
        namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        for original, replacement in replacements.items():
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, replacement)
                        self._undo.append((namespace, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory spans of the wrapped calls, grouped into ops."""

    def __init__(self, package):
        self.package = package
        self.functions = public_functions(package)
        self.names = [f"{layer}.{name}" for layer, name, _ in self.functions]
        self.layers = [layer for layer, _, _ in self.functions]
        self.spans = []  # (fid, parent, t0_ns, t1_ns, count, raised)
        self.op_starts = []  # index of the first span of each op
        self._current = -1

    def begin_op(self):
        self.op_starts.append(len(self.spans))

    def install(self) -> Patch:
        wrappers = {}
        for fid, (_, name, fn) in enumerate(self.functions):
            wrappers[fn] = self._wrap(fid, name, fn)
        return Patch(self.package, wrappers)

    def _wrap(self, fid, name, fn):
        tracer, spans = self, self.spans
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent, tracer._current = tracer._current, index
            fevals = 0
            if name == "solve_root" and args:
                f = args[0]

                def counted(x):
                    nonlocal fevals
                    fevals += 1
                    return f(x)

                args = (counted,) + args[1:]
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (fid, parent, t0, perf_counter_ns(), 0, True)
                raise
            finally:
                tracer._current = parent
            t1 = perf_counter_ns()
            if name == "solve_root":
                n = fevals
            elif name == "write_obj":
                n = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
            else:
                n = counter(result) if counter else 0
            spans[index] = (fid, parent, t0, t1, n, False)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def dump(self, path):
        """Write the spans as tab-separated rows, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0
        with open(path, "w", newline="\n") as handle:
            handle.write("span\tparent\top\tname\tstart_ns\tduration_ns\tcount\traised\n")
            op = -1
            starts = self.op_starts + [len(self.spans)]
            for index, (fid, parent, t0, t1, count, raised) in enumerate(self.spans):
                while index >= starts[op + 1]:
                    op += 1
                handle.write(
                    f"{index}\t{parent}\t{op}\t{self.names[fid]}\t{t0 - origin}\t"
                    f"{t1 - t0}\t{count}\t{int(raised)}\n"
                )

    def metrics(self, count_ops, n_ops):
        """Per-op layer metrics: counts over the first count_ops ops, times over n_ops."""
        end = self.op_starts[count_ops] if count_ops < len(self.op_starts) else len(self.spans)
        counts, _ = _aggregate(self, self.spans[:end])
        all_counts, ms = _aggregate(self, self.spans)
        out = {key: value / count_ops for key, value in counts.items()}
        out.update({key: value / n_ops for key, value in ms.items()})
        out["quadrature.evals_per_call"] = _ratio(counts["quadrature.evals"], counts["quadrature.calls"])
        out["catenoid.evals_per_rho"] = _ratio(counts["catenoid.rho_evals"], counts["catenoid.rho_calls"])
        out["constants.cache_hit_ratio"] = _ratio(
            counts["constants.bundle_calls"] - counts["constants.cold_solves"],
            counts["constants.bundle_calls"],
        )
        out["constants.root_fevals_per_solve"] = _ratio(
            counts["constants.root_fevals"], counts["constants.root_solves"]
        )
        out["mesh.write_mb_per_s"] = _ratio(
            all_counts["mesh.bytes_written"] / 1e6, ms["mesh.write_ms"] / 1e3
        )
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _evaluations(result):
    return result.evaluations


def _mesh_size(result):
    return (len(result.vertices), len(result.faces))


_COUNTERS = {name: _evaluations for name in QUAD}
_COUNTERS["build_mesh"] = _mesh_size


def _aggregate(tracer, spans):
    """Sums over a list of spans (a prefix of tracer.spans): (counts, times in ms).

    Self time is a span's duration minus the durations of its child spans.
    """
    names = tracer.names
    layers = tracer.layers
    n = len(spans)
    child_ns = [0] * n
    in_quad = [False] * n
    in_solve_a_c = [False] * n
    in_rho = [False] * n
    in_build = [False] * n
    solves_below = [0] * n
    has_compute_k = [False] * n

    count = dict.fromkeys(
        [
            "quadrature.calls",
            "quadrature.evals",
            "quadrature.envelope_evals",
            "quadrature.panels",
            "catenoid.rho_calls",
            "catenoid.deficit_calls",
            "catenoid.catenary_x_calls",
            "catenoid.area_difference_calls",
            "catenoid.rho_evals",
            "constants.bundle_calls",
            "constants.cold_solves",
            "constants.root_solves",
            "constants.root_fevals",
            "constants.solve_a_c_evals",
            "circles.separation_solves",
            "circles.normalize_calls",
            "circles.apply_isometry_calls",
            "circles.typed_errors",
            "competitor.classify_calls",
            "competitor.compete_calls",
            "mesh.bytes_written",
            "mesh.vertices",
            "mesh.faces",
        ],
        0,
    )
    ms = dict.fromkeys(
        [f"{layer}.self_ms" for layer in ("quadrature", "catenoid", "constants", "circles", "competitor")]
        + ["constants.solve_a_c_ms", "mesh.sample_ms", "mesh.build_self_ms", "mesh.write_ms", "cli.main_ms"],
        0.0,
    )
    self_ns = dict.fromkeys(MODULES, 0)
    finite_child_evals = [0] * n

    for i, (fid, parent, t0, t1, c, raised) in enumerate(spans):
        name = names[fid]
        short = name.split(".", 1)[1]
        dur = t1 - t0
        if parent >= 0:
            child_ns[parent] += dur
            in_quad[i] = in_quad[parent] or names[spans[parent][0]].split(".", 1)[1] in QUAD
            in_solve_a_c[i] = in_solve_a_c[parent] or names[spans[parent][0]] == "constants.solve_a_c"
            in_rho[i] = in_rho[parent] or names[spans[parent][0]] == "catenoid.gomes_rho"
            in_build[i] = in_build[parent] or names[spans[parent][0]] == "mesh.build_mesh"
        if short in QUAD:
            if short == "quad_finite":
                count["quadrature.panels"] += c // 15
                if parent >= 0 and names[spans[parent][0]] == "quadrature.quad_semi_infinite":
                    finite_child_evals[parent] += c
            if not in_quad[i]:
                count["quadrature.calls"] += 1
                count["quadrature.evals"] += c
                if in_solve_a_c[i]:
                    count["constants.solve_a_c_evals"] += c
                if in_rho[i]:
                    count["catenoid.rho_evals"] += c
        elif short == "gomes_rho":
            count["catenoid.rho_calls"] += 1
        elif short == "area_deficit":
            count["catenoid.deficit_calls"] += 1
        elif short == "catenary_x":
            count["catenoid.catenary_x_calls"] += 1
        elif short == "area_difference":
            count["catenoid.area_difference_calls"] += 1
        elif short == "constants_bundle":
            count["constants.bundle_calls"] += 1
        elif short == "compute_K" and parent >= 0 and names[spans[parent][0]] == "constants.constants_bundle":
            has_compute_k[parent] = True
        elif short == "solve_root":
            count["constants.root_solves"] += 1
            count["constants.root_fevals"] += c
            j = parent
            while j >= 0:
                solves_below[j] += 1
                j = spans[j][1]
        elif short == "solve_a_c":
            ms["constants.solve_a_c_ms"] += dur
        elif short == "normalize_coaxial":
            count["circles.normalize_calls"] += 1
        elif short == "apply_isometry":
            count["circles.apply_isometry_calls"] += 1
        elif short == "classify_regime":
            count["competitor.classify_calls"] += 1
        elif short == "find_cheaper_competitor":
            count["competitor.compete_calls"] += 1
        elif short == "sample_catenary" and in_build[i]:
            ms["mesh.sample_ms"] += dur
        elif short == "build_mesh":
            count["mesh.vertices"] += c[0] if c else 0
            count["mesh.faces"] += c[1] if c else 0
        elif short == "write_obj":
            count["mesh.bytes_written"] += c
            ms["mesh.write_ms"] += dur
        elif short == "main":
            ms["cli.main_ms"] += dur
        if (
            raised
            and layers[fid] == "circles"
            and (parent < 0 or layers[spans[parent][0]] != "circles")
        ):
            count["circles.typed_errors"] += 1

    for i, (fid, parent, t0, t1, c, raised) in enumerate(spans):
        name = names[fid]
        self_ns[layers[fid]] += (t1 - t0) - child_ns[i]
        if name == "quadrature.quad_semi_infinite":
            count["quadrature.envelope_evals"] += c - finite_child_evals[i]
        elif name == "constants.constants_bundle" and has_compute_k[i]:
            count["constants.cold_solves"] += 1
        elif name == "circles.catenoids_for_separation" and solves_below[i]:
            count["circles.separation_solves"] += 1
        elif name == "mesh.build_mesh":
            ms["mesh.build_self_ms"] += (t1 - t0) - child_ns[i]

    for layer in ("quadrature", "catenoid", "constants", "circles", "competitor"):
        ms[f"{layer}.self_ms"] = self_ns[layer]
    return count, {key: value / 1e6 for key, value in ms.items()}


def forget_bundles(hc) -> None:
    """Drop the per-tolerance bundle cache, as a fresh process would start."""
    cache = getattr(hc.constants, "_CACHE", None)
    if cache is not None:
        cache.clear()


def _outside_count(hc, fn) -> int:
    """Integrand calls made through quad_finite, counted by wrapping each g."""
    calls = [0]
    original = hc.quadrature.quad_finite

    def counting(g, lo, hi, tol):
        def counted(x):
            calls[0] += 1
            return g(x)

        return original(counted, lo, hi, tol)

    with Patch(hc, {original: counting}):
        fn()
    return calls[0]


def selfcheck(hc):
    """Traced evals minus envelope evals against outside-wrapper counts.

    Returns (call, traced, outside) rows for canonical calls at abs_tol
    1e-10; the two counts must agree exactly.  Envelope samples of
    quad_semi_infinite never reach quad_finite, so the outside count
    excludes them, and the zero-width neck integral of sample_catenary
    counts its single evaluation.
    """
    tol = hc.Tolerance(abs_tol=1.0e-10)
    bundle = hc.constants_bundle(tol)
    inner = hc.circle_from_center_radius(0j, 1.0)
    outer = hc.circle_from_center_radius(0j, 2.2)

    def cold_bundle():
        forget_bundles(hc)
        hc.constants_bundle(tol)

    calls = (
        ("constants_bundle (cold)", cold_bundle),
        ("solve_a_c", lambda: hc.constants.solve_a_c(tol)),
        ("catenoids_for_circles 1, 2.2", lambda: hc.catenoids_for_circles(inner, outer, bundle, tol)),
        ("area_deficit sweep x300", lambda: [hc.area_deficit(0.01 + i * (2.99 / 299), tol) for i in range(300)]),
        ("build_mesh 48x64", lambda: hc.build_mesh(hc.MeshParams(0.6, 3.0, 48, 64), tol)),
    )
    rows = []
    for name, fn in calls:
        tracer = Tracer(hc)
        with tracer.install():
            tracer.begin_op()
            fn()
        counts, _ = _aggregate(tracer, tracer.spans)
        traced = counts["quadrature.evals"] - counts["quadrature.envelope_evals"]
        rows.append((name, traced, _outside_count(hc, fn)))
    return rows
