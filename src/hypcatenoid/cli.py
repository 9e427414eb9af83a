"""Command-line interface: constants table, figure sweeps, classification, export.

Exit codes: 0 on success, 1 on usage errors, 2 on an I/O error or a named
numerical one (a ValueError or RuntimeError subclass); others propagate.

Each subcommand builds its payload from library calls and hands it, with
its text form if it has one, to one writer, _emit: the text goes to --out
or stdout, or the payload as JSON under --json or without a text form.
mesh writes the OBJ file to --out, so its summary always goes to stdout.
Each subcommand imports the modules it needs when it runs, json only when
it emits JSON, and dataclasses only to read the constants bundle, so a run
compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .catenoid import (
    ConsistencyError,
    EvaluationBudgetError,
    Tolerance,
    area_deficit,
    gomes_rho,
    sample_catenary,
)

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


def _emit(args: argparse.Namespace, payload, text: str | None = None) -> None:
    """Write text, or payload as JSON under --json or without a text form."""
    if args.json or text is None:
        import json

        text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="\n") as handle:
            handle.write(text)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(f"{_fmt(u)},{_fmt(v)}\n" for u, v in rows)


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


def _solution(a: float, label) -> dict:
    return {
        "a": a,
        "kind": label.kind.value,
        "at_a_c": label.at_a_c,
        "at_a_L": label.at_a_L,
    }


def _cmd_constants(args: argparse.Namespace, tol: Tolerance) -> None:
    import dataclasses

    from .constants import constants_bundle

    fields = dataclasses.asdict(constants_bundle(tol))
    width = max(map(len, fields))
    text = "".join(f"{name:<{width}} = {_fmt(v)}\n" for name, v in fields.items())
    _emit(args, fields, text)


def _cmd_sweep(args: argparse.Namespace, tol: Tolerance) -> None:
    if not 0.0 <= args.lo < args.hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={args.lo}, hi={args.hi}")
    if not math.isfinite(args.hi):
        raise ValueError(f"hi must be finite, got hi={args.hi}")
    if args.n < 2:
        raise ValueError(f"need at least 2 sweep points, got n={args.n}")
    quantity = gomes_rho if args.quantity == "rho" else area_deficit
    step = (args.hi - args.lo) / (args.n - 1)
    # The last point is hi itself: lo + (n - 1) * step can round past it.
    abscissas = [args.lo + i * step for i in range(args.n - 1)] + [args.hi]
    # The degenerate catenoid at a = 0 collapses onto the doubled disk.
    values = [quantity(a, tol) if a != 0.0 else 0.0 for a in abscissas]
    payload = {
        "quantity": args.quantity,
        "tolerance": tol.abs_tol,
        "abscissas": abscissas,
        "values": values,
        "argmax_a": abscissas[max(range(args.n), key=values.__getitem__)],
    }
    _emit(args, payload, _csv("a,value", zip(abscissas, values)))


def _cmd_classify(args: argparse.Namespace, tol: Tolerance) -> None:
    import dataclasses

    from .competitor import classify_regime
    from .constants import constants_bundle

    bundle = constants_bundle(tol)
    if args.a is not None:
        report = {
            "mode": "neck",
            **_solution(args.a, classify_regime(args.a, bundle)),
            "separation": 2.0 * gomes_rho(args.a, tol),
        }
    else:
        from .circles import catenoids_for_circles, catenoids_for_separation, circle_pair

        if args.distance is not None:
            found = catenoids_for_separation(args.distance, bundle, tol)
            mode = "separation"
        else:
            (cx1, cy1, r1), (cx2, cy2, r2) = args.circles
            pair = circle_pair(complex(cx1, cy1), r1, complex(cx2, cy2), r2)
            found = catenoids_for_circles(*pair, bundle, tol)
            mode = "circles"
        report = {
            "mode": mode,
            "distance": found.separation,
            "solutions": [_solution(a, label) for a, label in found.solutions],
        }
    report["bundle"] = dataclasses.asdict(bundle)
    _emit(args, report)


def _cmd_catenary(args: argparse.Namespace, tol: Tolerance) -> None:
    points = sample_catenary(args.a, args.y_max, args.n, tol).points
    payload = {"a": args.a, "y_max": args.y_max, "points": [[x, y] for x, y in points]}
    _emit(args, payload, _csv("x,y", points))


def _cmd_compete(args: argparse.Namespace, tol: Tolerance) -> None:
    from .competitor import competitor_report, find_cheaper_competitor

    if args.s is None:
        found = find_cheaper_competitor(args.a, args.r, tol)
    else:
        found = competitor_report(args.a, args.r, args.s)
    report = {name: getattr(found, name) for name in found.__slots__}
    # The search reports a margin only when it is positive.
    report["witness"] = report["margin"] is not None and report["margin"] > 0.0
    text = "".join(
        f"{key} = {_fmt(value) if isinstance(value, float) else value}\n"
        for key, value in report.items()
    )
    _emit(args, report, text)


def _cmd_mesh(args: argparse.Namespace, tol: Tolerance) -> int | None:
    if args.out is None:
        print("hypcatenoid mesh: error: --out PATH is required", file=sys.stderr)
        return 1
    from .mesh import MeshParams, build_mesh, write_obj

    mesh = build_mesh(MeshParams(args.a, args.y_max, args.n_profile, args.n_angle), tol)
    write_obj(mesh, args.out)
    summary = {
        "out": args.out,
        "vertices": len(mesh.vertices),
        "faces": len(mesh.faces),
        "a": args.a,
        "y_max": args.y_max,
    }
    text = f"wrote {args.out}: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces\n"
    args.out = None  # --out named the OBJ file; the summary goes to stdout
    _emit(args, summary, text)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=Tolerance().abs_tol,
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
    p.add_argument("--s", type=float, default=None, help="fixed cylinder radius")
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
        return args.handler(args, tol) or 0
    except (EvaluationBudgetError, ConsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
