"""Command-line surface: deterministic JSON documents plus an optional SVG diagram.

Subcommands
    euler    the 2x2 Euler pairing matrix, from the lattice and from Riemann-Roch
    walls    wall-and-chamber report for a class along a vertical line
    roots    del Pezzo root/line enumeration with optional combinatorial checks
    catalog  the named classes for one degree
    check    the full consistency suite (exit 1 on any failure)

Exit codes: 0 success, 1 check failure, 2 usage error.  Rationals are
serialized as canonical strings "p/q" (plain "p" for integers); output bytes
are identical across repeated runs.

Each ``cmd_*`` function imports the kuwalls modules it uses, so a call pays
only for its own subcommand's imports (``--version`` loads no computing
module).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__

SCHEMA_VERSION = "1.0"
USAGE_ERROR = 2


def _rat(value: Fraction) -> str:
    return str(value)


def _vec(x) -> list[str]:
    return [_rat(c) for c in x.coefficients()]


def _document(command: str, degree: int, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "degree": degree,
        "payload": payload,
    }


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _parse_degree(value: str) -> int:
    try:
        degree = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer, got {value!r}")
    return degree


def _require_degree(degree: int, degrees: tuple[int, ...]) -> None:
    if degree not in degrees:
        print(f"degree out of range: {degree} (expected 1..5)", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_raw_class(text: str) -> list[Fraction] | None:
    """The four rationals of 'r,c1,c2,c3', or None for a catalog name ('w', 'I_p', ...)."""
    if "," not in text:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        print(f"cannot parse class {text!r}: expected four comma-separated rationals", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    try:
        return [Fraction(part.strip()) for part in parts]
    except (ValueError, ZeroDivisionError):
        print(f"cannot parse class {text!r}: bad rational", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_rational(value: str, flag: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        print(f"{flag} must be a rational like -1/2, got {value!r}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def cmd_euler(args: argparse.Namespace) -> int:
    from .chern import DEGREES, FanoContext
    from .kulattice import euler_matrix, euler_matrix_from_chern

    _require_degree(args.degree, DEGREES)
    d = args.degree
    from_lattice = euler_matrix(d)
    from_riemann_roch = euler_matrix_from_chern(FanoContext(d))
    payload = {
        "basis": ["v", "w"],
        "matrix": from_lattice,
        "matrix_from_riemann_roch": [[_rat(value) for value in row] for row in from_riemann_roch],
        "agreement": from_lattice == from_riemann_roch,
    }
    _emit(_document("euler", d, payload))
    return 0


def cmd_walls(args: argparse.Namespace) -> int:
    from .catalog import lookup
    from .chern import DEGREES, ChernVector, FanoContext
    from .diagram import write_svg
    from .walls import BASE_LATTICE, chamber_report

    _require_degree(args.degree, DEGREES)
    ctx = FanoContext(args.degree)
    coefficients = _parse_raw_class(args.klass)
    if coefficients is not None:
        name, target = args.klass, ChernVector(*coefficients)
    else:
        try:
            entry = lookup(args.degree, args.klass)
        except KeyError:
            print(f"cannot parse class {args.klass!r}: not a catalog entry", file=sys.stderr)
            return USAGE_ERROR
        name, target = entry.name, entry.chern
    beta0 = _parse_rational(args.beta, "--beta")
    denoms = BASE_LATTICE
    if args.denoms is not None:
        parts = args.denoms.split(",")
        if len(parts) != 2 or not all(part.strip().isdecimal() and int(part) > 0 for part in parts):
            print(f"--denoms must be two positive integers like 2,8, got {args.denoms!r}", file=sys.stderr)
            return USAGE_ERROR
        denoms = (int(parts[0]), int(parts[1]))
    if args.x_bound < 0:
        print(f"--x-bound must be a non-negative integer, got {args.x_bound}", file=sys.stderr)
        return USAGE_ERROR

    try:
        report = chamber_report(ctx, target, beta0, denoms=denoms, x_bound=args.x_bound)
    except ValueError as exc:  # the search refuses lattices over its budget
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    payload = {
        "class": name,
        "chern": _vec(target),
        "beta": _rat(report.beta0),
        "lattice": list(report.lattice),
        "x_bound": report.x_bound,
        "torsion_sign_rule": report.torsion_rules,
        "wall_count": len(report.walls),
        "chamber_count": report.chamber_count,
        "walls": [
            {
                "alpha_sq": _rat(crossing.alpha_sq),
                "locus": _locus_payload(crossing.locus),
                "candidates": [
                    {"x": cand.x, "y": _rat(cand.y), "z": _rat(cand.z)} for cand in crossing.candidates
                ],
            }
            for crossing in report.walls
        ],
    }
    if report.decomposition_verified is not None:
        payload["decomposition_check"] = "PASS" if report.decomposition_verified else "FAIL"
    if args.svg is not None:
        try:
            write_svg(report, args.svg)
        except OSError as exc:
            print(f"cannot write --svg {args.svg!r}: {exc.strerror}", file=sys.stderr)
            return USAGE_ERROR
    _emit(_document("walls", args.degree, payload))
    return 0


def _locus_payload(locus) -> dict:
    if locus.kind == "semicircle":
        return {
            "kind": "semicircle",
            "center_beta": _rat(locus.center_beta),
            "radius_sq": _rat(locus.radius_sq),
        }
    return {"kind": "vertical", "beta0": _rat(locus.beta0)}


def cmd_roots(args: argparse.Namespace) -> int:
    from .delpezzo import (
        DPContext,
        enumerate_lines,
        enumerate_roots,
        line_pairs,
        nef_interior_count,
        root_as_line_difference,
    )

    if not 1 <= args.dp <= 7:
        print(f"degree out of range: {args.dp} (expected 1..7)", file=sys.stderr)
        return USAGE_ERROR
    if args.dp != 2 and (args.nef_check or args.pairs or args.as_line_diff):
        print("--pairs/--as-line-diff/--nef-check are only certified for --dp 2", file=sys.stderr)
        return USAGE_ERROR
    ctx = DPContext(args.dp)
    roots = enumerate_roots(ctx)
    lines = enumerate_lines(ctx)
    payload: dict = {
        "dp_degree": args.dp,
        "root_count": len(roots),
        "line_count": len(lines),
    }
    if args.list:
        payload["roots"] = [list(root.as_tuple()) for root in roots]
        payload["lines"] = [list(line.as_tuple()) for line in lines]
    if args.pairs:
        pairs = line_pairs(ctx)
        payload["line_pairs"] = [[list(first.as_tuple()), list(second.as_tuple())] for first, second in pairs]
        payload["line_pair_count"] = len(pairs)
    if args.as_line_diff:
        decompositions = []
        for root in roots:
            pair = root_as_line_difference(ctx, root)
            decompositions.append(
                {
                    "root": list(root.as_tuple()),
                    "lines": None if pair is None else [list(pair[0].as_tuple()), list(pair[1].as_tuple())],
                }
            )
        payload["line_differences"] = decompositions
    if args.nef_check:
        interior = nef_interior_count(ctx, roots)
        payload["nef_check"] = f"{interior}/{len(roots)} of D-2K interior"
        payload["nef_interior_count"] = interior
    _emit(_document("roots", args.dp, payload))
    return 0


def _entry_payload(entry) -> dict:
    payload: dict = {
        "name": entry.name,
        "chern": _vec(entry.chern),
        "in_ku": entry.ku_class is not None,
        "source": entry.source,
    }
    if entry.ku_class is not None:
        payload["ku_class"] = {"a": entry.ku_class.a, "b": entry.ku_class.b}
    if entry.ext_table is not None:
        payload["ext_table"] = list(entry.ext_table.dims)
    return payload


def cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import catalog, verify_catalog
    from .chern import DEGREES

    _require_degree(args.degree, DEGREES)
    verdict = verify_catalog(args.degree)
    payload = {
        "entries": [_entry_payload(entry) for entry in catalog(args.degree)],
        "verified": verdict.passed,
    }
    _emit(_document("catalog", args.degree, payload))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_all_checks, run_checks
    from .chern import DEGREES

    if args.all:
        results = run_all_checks()
        degree = 0
    else:
        if args.degree is None:
            print("check requires --degree N or --all", file=sys.stderr)
            return USAGE_ERROR
        _require_degree(args.degree, DEGREES)
        results = run_checks(args.degree)
        degree = args.degree
    payload = {
        "checks": [
            {
                "degree": result.degree,
                "name": result.name,
                "status": "PASS" if result.passed else "FAIL",
                "line": result.line,
                "detail": result.detail,
            }
            for result in results
        ],
        "passed": sum(1 for result in results if result.passed),
        "failed": sum(1 for result in results if not result.passed),
    }
    _emit(_document("check", degree, payload))
    return 0 if payload["failed"] == 0 else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes negative rationals like -1/2 as option values, not options.

    So it does a raw class whose first part is negative, like -2,1/2,3,-3.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)(,.*)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kuwalls",
        description="Exact wall, lattice and root-system computations for index-2 Fano threefolds.",
    )
    parser.add_argument("--version", action="version", version=f"kuwalls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_euler = sub.add_parser("euler", help="Euler pairing matrix on the rank-2 lattice")
    p_euler.add_argument("--degree", type=_parse_degree, required=True)
    p_euler.set_defaults(func=cmd_euler)

    p_walls = sub.add_parser("walls", help="walls and destabilizers along a vertical line")
    p_walls.add_argument("--degree", type=_parse_degree, required=True)
    p_walls.add_argument("--class", dest="klass", required=True, help="catalog name or 'r,c1,c2,c3'")
    p_walls.add_argument("--beta", default="-1/2", help="rational beta of the scanned line")
    p_walls.add_argument("--denoms", default=None, help="lattice denominators 'dy,dz' (default 2,8)")
    p_walls.add_argument("--x-bound", type=int, default=5)
    p_walls.add_argument("--svg", default=None, help="write an SVG diagram to this path")
    p_walls.set_defaults(func=cmd_walls)

    p_roots = sub.add_parser("roots", help="del Pezzo root and line enumeration")
    p_roots.add_argument("--dp", type=_parse_degree, required=True, help="del Pezzo degree K^2")
    p_roots.add_argument("--list", action="store_true", help="include the full vectors")
    p_roots.add_argument("--pairs", action="store_true", help="include the line involution pairs")
    p_roots.add_argument("--as-line-diff", action="store_true", help="decompose each root as a line difference")
    p_roots.add_argument("--nef-check", action="store_true", help="check D-2K against the nef cone")
    p_roots.set_defaults(func=cmd_roots)

    p_catalog = sub.add_parser("catalog", help="named classes for one degree")
    p_catalog.add_argument("--degree", type=_parse_degree, required=True)
    p_catalog.set_defaults(func=cmd_catalog)

    p_check = sub.add_parser("check", help="run the consistency suite")
    p_check.add_argument("--degree", type=_parse_degree, default=None)
    p_check.add_argument("--all", action="store_true")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        if exc.code is not None:
            print(exc.code, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
