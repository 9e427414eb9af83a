"""Catenoid stability constants and circle-pair classification in hyperbolic 3-space.

The package computes the classical constants governing spherical catenoids
(the critical neck distance a_c, the minimization threshold a_L, and their
companions), evaluates the area deficit against spanning disks, classifies
disjoint boundary circle pairs by the catenoids they bound, and exports
surface meshes for external viewers.

Public names are resolved on first use (PEP 562), so importing the package
loads none of its modules, and a CLI subcommand compiles only the modules
it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every public name; a library module's __all__ is its entry.
_EXPORTS = {
    "catenoid": (
        "CatenarySample",
        "ConsistencyError",
        "EvaluationBudgetError",
        "Tolerance",
        "area_deficit",
        "area_difference",
        "catenary_x",
        "concavity_terms",
        "disk_area_total",
        "gomes_rho",
        "mvt_f",
        "plane_separation",
        "sample_catenary",
        "tube_area",
    ),
    "circles": (
        "CatenoidSolutions",
        "CircleAtInfinity",
        "DegenerateCircleError",
        "IntersectingCirclesError",
        "IsometryMap",
        "catenoids_for_circles",
        "catenoids_for_separation",
        "circle_from_center_radius",
        "circle_pair",
        "inversive_product",
        "normalize_coaxial",
        "plane_distance",
    ),
    "cli": ("main",),
    "competitor": (
        "CompetitorReport",
        "RegimeKind",
        "RegimeLabel",
        "classify_regime",
        "competitor_report",
        "find_cheaper_competitor",
    ),
    "constants": (
        "BracketError",
        "ConstantsBundle",
        "compute_K",
        "constants_bundle",
        "solve_a_0",
        "solve_a_c",
        "solve_root",
    ),
    "mesh": (
        "MeshData",
        "MeshEntries",
        "MeshParams",
        "build_mesh",
        "write_obj",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        if name in _EXPORTS:
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = getattr(module, name)
    # Bind only the home module's own definition, so later lookups skip this
    # hook.  A stand-in patched into the home module (by a test or a tracer)
    # is returned but not bound, so it cannot outlive its patch here.
    if getattr(value, "__module__", None) == module.__name__:
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
