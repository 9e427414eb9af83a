"""The lazily resolved public surface, the modules each entry point loads, and
the README's Python examples."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

import hypcatenoid

SUBMODULES = ("catenoid", "circles", "cli", "competitor", "constants", "mesh")
# The benchmark's span tracer imports each module by path and wraps the
# functions its __all__ names.  A library module's __all__ is its entry in
# the package's _EXPORTS; only cli.py and quadrature.py list theirs.
LITERAL_ALL = {"cli.py", "quadrature.py"}
# quadrature.py's own names.  The package exports none of them.
# perfbench/spans.py wraps what this list names and patches quad_finite.
QUADRATURE_NAMES = ("QuadratureResult", "quad_finite")


class TestPublicSurface:
    def test_names_resolve_to_their_home_objects(self):
        listed = dir(hypcatenoid)
        for name in hypcatenoid.__all__:
            obj = getattr(hypcatenoid, name)
            assert obj.__module__.startswith("hypcatenoid."), name
            assert obj is getattr(importlib.import_module(obj.__module__), name), name
            assert name in listed, name

    def test_all_is_every_module_export(self):
        exported = set()
        for name in SUBMODULES:
            exported.update(importlib.import_module(f"hypcatenoid.{name}").__all__)
        assert sorted(exported) == hypcatenoid.__all__

    def test_table_files_each_name_under_its_defining_module(self):
        # The tracer wraps a function only through the module its __module__
        # names, so a name filed under a module that merely imports it would
        # drop out of every trace.
        for module, names in hypcatenoid._EXPORTS.items():
            home = importlib.import_module(f"hypcatenoid.{module}")
            for name in names:
                assert getattr(home, name).__module__ == home.__name__, (module, name)

    def test_module_all_is_its_table_entry(self):
        for module, names in hypcatenoid._EXPORTS.items():
            if module != "cli":
                assert importlib.import_module(f"hypcatenoid.{module}").__all__ is names

    def test_quadrature_is_not_exported(self):
        assert set(QUADRATURE_NAMES).isdisjoint(hypcatenoid.__all__)
        assert set(QUADRATURE_NAMES).isdisjoint(dir(hypcatenoid))
        quadrature = importlib.import_module("hypcatenoid.quadrature")
        assert tuple(quadrature.__all__) == QUADRATURE_NAMES

    def test_star_import(self):
        namespace = {}
        exec("from hypcatenoid import *", namespace)
        for name in hypcatenoid.__all__:
            assert namespace[name] is getattr(hypcatenoid, name)

    def test_shared_types_are_one_object(self):
        from hypcatenoid import catenoid, constants, quadrature

        assert quadrature.Tolerance is hypcatenoid.Tolerance is catenoid.Tolerance
        assert quadrature.EvaluationBudgetError is hypcatenoid.EvaluationBudgetError
        assert constants.ConsistencyError is hypcatenoid.ConsistencyError

    def test_submodules_are_attributes(self, tmp_path):
        # Once a submodule is imported the import system binds it on the
        # package, so the hook's submodule branch runs only on a fresh
        # interpreter's first lookup: one interpreter per name.
        for name in SUBMODULES:
            _loaded(
                "import hypcatenoid\n"
                f"assert {name!r} not in vars(hypcatenoid)\n"
                f"assert getattr(hypcatenoid, {name!r}) is sys.modules['hypcatenoid.{name}']",
                tmp_path,
            )

    def test_patched_stand_in_is_not_bound(self, monkeypatch):
        from hypcatenoid import catenoid

        monkeypatch.delitem(vars(hypcatenoid), "gomes_rho", raising=False)
        original = catenoid.gomes_rho
        with monkeypatch.context() as patch:
            patch.setattr(catenoid, "gomes_rho", lambda a, tol=None: 0.0)
            assert hypcatenoid.gomes_rho is catenoid.gomes_rho
        assert hypcatenoid.gomes_rho is original
        assert vars(hypcatenoid)["gomes_rho"] is original

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'hypcatenoid' has no attribute 'no_such_name'"):
            hypcatenoid.no_such_name
        assert not hasattr(hypcatenoid, "quad_gauss")


def _loaded(code, cwd):
    """Package submodules a fresh interpreter loads running code, and whether
    it loads json and dataclasses."""
    package_root = os.path.dirname(os.path.dirname(hypcatenoid.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(repr(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    modules = ast.literal_eval(result.stderr.splitlines()[-1])
    package = {m.split(".", 1)[1] for m in modules if m.startswith("hypcatenoid.")}
    return package - {"__main__"}, "json" in modules, "dataclasses" in modules


def _run_cli(*argv):
    # What `python -m hypcatenoid ARGV` runs, with the exit status checked.
    return (
        f"sys.argv = {['hypcatenoid', *argv]!r}\n"
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('hypcatenoid', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )


def _imports_quadrature(node):
    # The module by path, or one of its names (from . import quad_finite,
    # from hypcatenoid import QuadratureResult).
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return False
    parts = (getattr(node, "module", None) or "").split(".")
    parts += [part for alias in node.names for part in alias.name.split(".")]
    return not set(parts).isdisjoint(["quadrature", *QUADRATURE_NAMES])


def test_no_module_imports_quadrature():
    # No package path integrates numerically; keeping it so lets the
    # quadrature module go by deleting its file.
    source_dir = os.path.dirname(hypcatenoid.__file__)
    for name in sorted(os.listdir(source_dir)):
        if not name.endswith(".py") or name == "quadrature.py":
            continue
        with open(os.path.join(source_dir, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        assert not any(_imports_quadrature(node) for node in ast.walk(tree)), name


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from . import quadrature", True),
        ("import hypcatenoid.quadrature", True),
        ("from .quadrature import Tolerance", True),
        ("from . import quad_finite", True),
        ("from hypcatenoid import QuadratureResult", True),
        ("from .catenoid import Tolerance as quad", False),
        ("from . import catenoid", False),
    ],
)
def test_quadrature_import_check(source, flagged):
    (node,) = ast.parse(source).body
    assert _imports_quadrature(node) is flagged


def _lists_all(tree):
    # Whether the module binds __all__ to a list or tuple display at top level.
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in targets
        ):
            return True
    return False


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('__all__ = ["main"]', True),
        ('__all__ = ("a", "b")', True),
        ('__all__: list = ["a"]', True),
        ('__all__ += ["a"]', True),
        ('x = __all__ = ["a"]', True),
        ('__all__ = _EXPORTS["mesh"]', False),
        ('def f():\n    __all__ = ["a"]', False),
        ('names = ["a"]', False),
    ],
)
def test_literal_all_check(source, flagged):
    assert _lists_all(ast.parse(source)) is flagged


def test_one_list_of_public_names():
    # _EXPORTS is the one list: a second literal in a library module could
    # drift from it.
    source_dir = os.path.dirname(hypcatenoid.__file__)
    listing = set()
    for name in os.listdir(source_dir):
        if name.endswith(".py"):
            with open(os.path.join(source_dir, name), encoding="utf-8") as handle:
                if _lists_all(ast.parse(handle.read(), name)):
                    listing.add(name)
    assert listing == LITERAL_ALL


def test_cli_imports_public_names_only():
    # The CLI is a client of the library: every name it takes from a sibling
    # module is in that module's __all__.
    path = os.path.join(os.path.dirname(hypcatenoid.__file__), "cli.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in imports} >= {"catenoid", "competitor", "mesh"}
    for node in imports:
        public = importlib.import_module(f"hypcatenoid.{node.module}").__all__
        for alias in node.names:
            assert alias.name in public, (node.module, alias.name)


# Parameters no body reads: the tol of the callables the benchmark still
# calls with one (ROADMAP item 3), and the protocol's value.
UNREAD_PARAMETERS = {
    ("catenoid._Record.__setattr__", "value"),
    ("catenoid.area_deficit", "tol"),
    ("catenoid.gomes_rho", "tol"),
    ("catenoid.sample_catenary", "tol"),
    ("competitor.find_cheaper_competitor", "tol"),
    ("constants.solve_a_c", "tol"),
    ("mesh.build_mesh", "tol"),
}


def _unread_parameters(node, prefix):
    # (qualified name, parameter) for every function under node whose body,
    # nested functions included, never loads the parameter; a method's
    # receiver is not counted.
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            if isinstance(node, ast.ClassDef):
                params = params[1:]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {
                n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found.update((name, p.arg) for p in params if p and p.arg not in read)
            found |= _unread_parameters(child, name)
        else:
            inner = f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix
            found |= _unread_parameters(child, inner)
    return found


def test_unread_parameter_check():
    tree = ast.parse(
        "def f(a, b, *c, d, **e):\n    return lambda g: a + (lambda: d)()\n"
        "class C:\n    def m(self, h):\n        pass\n"
    )
    assert _unread_parameters(tree, "x") == {
        ("x.f", "b"), ("x.f", "c"), ("x.f", "e"), ("x.f.<lambda>", "g"), ("x.C.m", "h")
    }


def test_unread_parameters():
    source_dir = os.path.dirname(hypcatenoid.__file__)
    found = set()
    for name in sorted(os.listdir(source_dir)):
        if name.endswith(".py") and name != "quadrature.py":
            with open(os.path.join(source_dir, name), encoding="utf-8") as handle:
                found |= _unread_parameters(ast.parse(handle.read(), name), name[:-3])
    assert found == UNREAD_PARAMETERS


def test_tol_parameters():
    # Three public callables read tol (constants_bundle through its cache);
    # the others that take it are the unread ones above.
    reading = {"constants_bundle", "catenoids_for_separation", "catenoids_for_circles"}
    unread = {name.rsplit(".", 1)[1] for name, param in UNREAD_PARAMETERS if param == "tol"}
    taking = {
        name for name in hypcatenoid.__all__
        if callable(obj := getattr(hypcatenoid, name)) and not isinstance(obj, type)
        and "tol" in inspect.signature(obj).parameters
    }
    assert taking == reading | unread


class TestImportFootprint:
    def test_package_import_loads_no_module(self, tmp_path):
        assert _loaded("import hypcatenoid", tmp_path) == (set(), False, False)

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (("constants",), {"cli", "catenoid", "constants"}),
            (("sweep", "phi", "--n", "5"), {"cli", "catenoid"}),
            (("catenary", "--a", "0.6", "--y-max", "2", "--n", "5"), {"cli", "catenoid"}),
            (
                ("mesh", "--a", "0.6", "--y-max", "2", "--n-profile", "4",
                 "--n-angle", "8", "--out", "m.obj"),
                {"cli", "catenoid", "mesh"},
            ),
            (("compete", "--a", "0.6", "--r", "3"), {"cli", "catenoid", "competitor"}),
        ],
    )
    def test_text_subcommands(self, tmp_path, argv, modules):
        # Only ConstantsBundle is a dataclass, so only a subcommand that
        # loads the constants module loads dataclasses (and inspect).
        loaded, json_loaded, dataclasses_loaded = _loaded(_run_cli(*argv), tmp_path)
        assert (loaded, json_loaded) == (modules, False)
        assert dataclasses_loaded is ("constants" in modules)

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--json"),
            ("classify", "--a", "0.6"),
            ("classify", "--circles", "0,0,1", "0,0,2.2"),
        ],
    )
    def test_json_subcommands_skip_quadrature(self, tmp_path, argv):
        loaded, _, _ = _loaded(_run_cli(*argv), tmp_path)
        assert "quadrature" not in loaded

    @pytest.mark.parametrize(
        "argv, pair",
        [
            (("classify", "--a", "0.6"), set()),
            (("classify", "--distance", "1.0"), {"circles"}),
            (("classify", "--circles", "0,0,1", "0,0,2.2"), {"circles"}),
        ],
    )
    def test_classify_loads_circles_for_pairs_only(self, tmp_path, argv, pair):
        # A neck needs no circle pair, so classify --a does not compile circles.
        loaded, _, _ = _loaded(_run_cli(*argv), tmp_path)
        assert loaded == {"cli", "catenoid", "competitor", "constants"} | pair


def test_readme_python_examples(monkeypatch, tmp_path):
    # Every ```python block, in order and in one namespace, as a reader
    # pasting them into one session would run them.
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)
    assert len(blocks) == 5
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, readme, "exec"), namespace)
