"""Command-line interface: constants table, figure sweeps, classification, export.

Exit codes: 0 on success, 1 on usage errors, 2 on numerical or I/O failure.

Each subcommand imports the modules it needs when it runs, and json only
when it emits JSON, so a run compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from .catenoid import (
    ConsistencyError,
    EvaluationBudgetError,
    Tolerance,
    area_deficit,
    area_difference,
    gomes_rho,
    plane_separation,
    sample_catenary,
)

if TYPE_CHECKING:
    from .constants import ConstantsBundle

__all__ = ["main"]

# Any argument that starts with a minus sign and then a digit or a point.
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # argparse takes only plain negative numbers for values, so a circle
        # literal such as -1,0,1 would otherwise be read as an unknown option.
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _json(value) -> str:
    import json

    return json.dumps(value, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _bundle_dict(bundle: ConstantsBundle) -> dict[str, float]:
    return {
        "K": bundle.K,
        "a_c": bundle.a_c,
        "two_rho_ac": bundle.two_rho_ac,
        "a_0": bundle.a_0,
        "a_l": bundle.a_l,
        "a_L": bundle.a_L,
        "two_rho_aL": bundle.two_rho_aL,
        "rho_max": bundle.rho_max,
    }


def _circle_literal(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected cx,cy,r, got {text!r}")
    try:
        cx, cy, r = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric circle literal {text!r}") from None
    if not r > 0.0:
        raise argparse.ArgumentTypeError(f"radius must be positive in {text!r}")
    return cx, cy, r


def _solutions_json(solutions) -> list[dict]:
    return [
        {
            "a": a,
            "kind": label.kind.value,
            "at_a_c": label.at_a_c,
            "at_a_L": label.at_a_L,
        }
        for a, label in solutions
    ]


def _cmd_constants(args: argparse.Namespace, tol: Tolerance) -> int:
    from .constants import constants_bundle

    bundle = constants_bundle(tol)
    fields = [
        ("K", bundle.K),
        ("a_c", bundle.a_c),
        ("two_rho_ac", bundle.two_rho_ac),
        ("a_0", bundle.a_0),
        ("a_l", bundle.a_l),
        ("a_L", bundle.a_L),
        ("two_rho_aL", bundle.two_rho_aL),
    ]
    if args.json:
        text = _json(dict(fields))
    else:
        width = max(len(name) for name, _ in fields)
        text = "".join(f"{name:<{width}} = {_fmt(value)}\n" for name, value in fields)
    _emit(text, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace, tol: Tolerance) -> int:
    if not 0.0 <= args.lo < args.hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={args.lo}, hi={args.hi}")
    if args.n < 2:
        raise ValueError(f"need at least 2 sweep points, got n={args.n}")

    def value_at(a: float) -> float:
        if a == 0.0:
            # The degenerate catenoid collapses onto the doubled disk.
            return 0.0
        if args.quantity == "rho":
            return gomes_rho(a, tol)
        return area_deficit(a, tol)

    step = (args.hi - args.lo) / (args.n - 1)
    abscissas = [args.lo + i * step for i in range(args.n)]
    values = [value_at(a) for a in abscissas]
    argmax_a = abscissas[max(range(args.n), key=values.__getitem__)]

    if args.json:
        text = _json(
            {
                "quantity": args.quantity,
                "tolerance": tol.abs_tol,
                "abscissas": abscissas,
                "values": values,
                "argmax_a": argmax_a,
            }
        )
    else:
        rows = [f"{_fmt(a)},{_fmt(v)}\n" for a, v in zip(abscissas, values)]
        text = "a,value\n" + "".join(rows)
    _emit(text, args.out)
    return 0


def _cmd_classify(args: argparse.Namespace, tol: Tolerance) -> int:
    from .circles import (
        catenoids_for_circles,
        catenoids_for_separation,
        circle_from_center_radius,
        plane_distance,
    )
    from .competitor import classify_regime
    from .constants import constants_bundle

    bundle = constants_bundle(tol)
    if args.a is not None:
        label = classify_regime(args.a, bundle)
        report = {
            "mode": "neck",
            "a": args.a,
            "kind": label.kind.value,
            "at_a_c": label.at_a_c,
            "at_a_L": label.at_a_L,
            "separation": 2.0 * gomes_rho(args.a, tol),
            "bundle": _bundle_dict(bundle),
        }
    elif args.distance is not None:
        found = catenoids_for_separation(args.distance, bundle, tol)
        report = {
            "mode": "separation",
            "distance": found.separation,
            "solutions": _solutions_json(found.solutions),
            "bundle": _bundle_dict(bundle),
        }
    else:
        (cx1, cy1, r1), (cx2, cy2, r2) = args.circles
        circle1 = circle_from_center_radius(complex(cx1, cy1), r1)
        circle2 = circle_from_center_radius(complex(cx2, cy2), r2)
        found = catenoids_for_circles(circle1, circle2, bundle, tol)
        report = {
            "mode": "circles",
            "distance": plane_distance(circle1, circle2),
            "solutions": _solutions_json(found.solutions),
            "bundle": _bundle_dict(bundle),
        }
    _emit(_json(report), args.out)
    return 0


def _cmd_catenary(args: argparse.Namespace, tol: Tolerance) -> int:
    sample = sample_catenary(args.a, args.y_max, args.n, tol)
    if args.json:
        text = _json(
            {
                "a": args.a,
                "y_max": args.y_max,
                "points": [[x, y] for x, y in sample.points],
            }
        )
    else:
        rows = [f"{_fmt(x)},{_fmt(y)}\n" for x, y in sample.points]
        text = "x,y\n" + "".join(rows)
    _emit(text, args.out)
    return 0


def _cmd_compete(args: argparse.Namespace, tol: Tolerance) -> int:
    from .competitor import _margin, competitor_area, find_cheaper_competitor

    if args.s is not None:
        competitor = competitor_area(args.a, args.r, args.s, tol)
        area = area_difference(args.a, args.r, tol)
        L = plane_separation(args.a, args.r, tol)
        margin = _margin(area.phi_a_r, L, args.s)
        report = {
            "a": args.a,
            "r": args.r,
            "s": args.s,
            "area_catenoid": area.tube_area,
            "area_competitor": competitor,
            "margin": margin,
            "witness": margin > 0.0,
        }
    else:
        found = find_cheaper_competitor(args.a, args.r, tol)
        report = {
            "a": found.a,
            "r": found.r,
            "s": found.s,
            "area_catenoid": found.area_catenoid,
            "area_competitor": found.area_competitor,
            "margin": found.margin,
            "witness": found.margin is not None,
        }
    if args.json:
        text = _json(report)
    else:
        text = "".join(
            f"{key} = {value if not isinstance(value, float) else _fmt(value)}\n"
            for key, value in report.items()
        )
    _emit(text, args.out)
    return 0


def _cmd_mesh(args: argparse.Namespace, tol: Tolerance) -> int:
    if args.out is None:
        print("hypcatenoid mesh: error: --out PATH is required", file=sys.stderr)
        return 1
    from .mesh import export_mesh

    mesh = export_mesh(args.a, args.y_max, args.n_profile, args.n_angle, args.out, tol)
    summary = {
        "out": args.out,
        "vertices": len(mesh.vertices),
        "faces": len(mesh.faces),
        "a": args.a,
        "y_max": args.y_max,
    }
    if args.json:
        sys.stdout.write(_json(summary))
    else:
        sys.stdout.write(
            f"wrote {args.out}: {summary['vertices']} vertices, "
            f"{summary['faces']} faces\n"
        )
    return 0


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=1.0e-10,
        help="classify --distance reports the single critical catenoid "
        "within 2*TOL of 2*rho(a_c); every computed value is exact to "
        "rounding whatever TOL is",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--out", default=None, help="write output to this file")

    parser = _Parser(
        prog="hypcatenoid",
        description="Stability constants and circle-pair classification "
        "for catenoids in hyperbolic 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", parents=[common], help="print the solved constants")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("sweep", parents=[common], help="tabulate rho(a) or phi(a)")
    p.add_argument("quantity", choices=("rho", "phi"))
    p.add_argument("--lo", type=float, default=0.01)
    p.add_argument("--hi", type=float, default=3.0)
    p.add_argument("--n", type=int, default=300)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "classify", parents=[common], help="classify by neck, separation, or circles"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", type=float, help="neck distance")
    group.add_argument("--distance", type=float, help="plane separation")
    group.add_argument(
        "--circles",
        nargs=2,
        type=_circle_literal,
        metavar="CX,CY,R",
        help="two circle literals",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("catenary", parents=[common], help="sample the profile curve")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--y-max", type=float, required=True)
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(handler=_cmd_catenary)

    p = sub.add_parser(
        "compete", parents=[common], help="compare against the cylinder competitor"
    )
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, default=None, help="fixed cylinder half-height")
    p.set_defaults(handler=_cmd_compete)

    p = sub.add_parser("mesh", parents=[common], help="export the surface as OBJ")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--y-max", type=float, required=True)
    p.add_argument("--n-profile", type=int, default=32)
    p.add_argument("--n-angle", type=int, default=64)
    p.set_defaults(handler=_cmd_mesh)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = Tolerance(abs_tol=args.tol)
        return args.handler(args, tol)
    except (
        EvaluationBudgetError,
        ConsistencyError,
        ValueError,
        OverflowError,
        ZeroDivisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
