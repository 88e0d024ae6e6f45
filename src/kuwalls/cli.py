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

#: The number grammar of every numeric option (after an optional sign): digits,
#: then optionally /digits or .digits, or .digits alone.  ASCII digits only, no
#: exponent.  --degree, --dp, --x-bound and --denoms must also name an integer.
_UNSIGNED = r"(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)"
_NUMBER = rf"[+-]?{_UNSIGNED}"  # compiled on first use (re caches it), not on import
#: More digits than this are refused before any int or Fraction is built.
MAX_DIGITS = 100
_NUMBER_HELP = f"a rational like -1/2 or 0.5 with at most {MAX_DIGITS} digits"


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


def _shown(text: str) -> str:
    """``text`` quoted for a one-line error message, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _require_degree(degree: int, degrees: tuple[int, ...]) -> None:
    if degree not in degrees:
        print(f"degree out of range: {degree} (expected {degrees[0]}..{degrees[-1]})", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_number(text: str) -> Fraction | None:
    """The rational that ``text`` writes in the number grammar, or None.

    The grammar and the digit cap are checked on the text first, so an
    oversized number costs no big-integer arithmetic.
    """
    text = text.strip()
    if re.fullmatch(_NUMBER, text) is None or sum(c.isdigit() for c in text) > MAX_DIGITS:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return None


def _parse_integer(text: str, option: str) -> int:
    """The integer that ``text`` writes in the number grammar; a one-line usage error otherwise."""
    value = _parse_number(text)
    if value is None or value.denominator != 1:
        print(f"{option} must be an integer with at most {MAX_DIGITS} digits, got {_shown(text)}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return int(value)


def _parse_raw_class(text: str) -> list[Fraction] | None:
    """The four rationals of 'r,c1,c2,c3', or None for a catalog name ('w', 'I_p', ...)."""
    if "," not in text:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        print(f"cannot parse class {_shown(text)}: expected four comma-separated rationals", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    values = [_parse_number(part) for part in parts]
    if None in values:
        print(f"cannot parse class {_shown(text)}: each part must be {_NUMBER_HELP}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return values


def _parse_denoms(text: str) -> tuple[int, int] | None:
    """The two positive integers of 'dy,dz', or None."""
    values = [_parse_number(part) for part in text.split(",")]
    if len(values) != 2 or not all(value is not None and value.denominator == 1 and value > 0 for value in values):
        return None
    return (int(values[0]), int(values[1]))


def cmd_euler(args: argparse.Namespace) -> int:
    from .chern import DEGREES, FanoContext
    from .kulattice import euler_matrix, euler_matrix_from_chern

    d = _parse_integer(args.degree, "--degree")
    _require_degree(d, DEGREES)
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

    degree = _parse_integer(args.degree, "--degree")
    _require_degree(degree, DEGREES)
    ctx = FanoContext(degree)
    coefficients = _parse_raw_class(args.klass)
    if coefficients is not None:
        name, target = args.klass, ChernVector(*coefficients)
    else:
        try:
            entry = lookup(degree, args.klass)
        except KeyError:
            print(f"cannot parse class {_shown(args.klass)}: not a catalog entry", file=sys.stderr)
            return USAGE_ERROR
        name, target = entry.name, entry.chern
    beta0 = _parse_number(args.beta)
    if beta0 is None:
        print(f"--beta must be {_NUMBER_HELP}, got {_shown(args.beta)}", file=sys.stderr)
        return USAGE_ERROR
    denoms = BASE_LATTICE if args.denoms is None else _parse_denoms(args.denoms)
    if denoms is None:
        print(
            f"--denoms must be two positive integers like 2,8 with at most {MAX_DIGITS} digits each, "
            f"got {_shown(args.denoms)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    x_bound = _parse_integer(args.x_bound, "--x-bound")
    if x_bound < 0:
        print(f"--x-bound must be a non-negative integer, got {x_bound}", file=sys.stderr)
        return USAGE_ERROR

    try:
        report = chamber_report(ctx, target, beta0, denoms=denoms, x_bound=x_bound)
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
    _emit(_document("walls", degree, payload))
    return 0


def _locus_payload(locus) -> dict:
    # the search builds every wall as a semicircle (it asserts A != 0)
    return {
        "kind": "semicircle",
        "center_beta": _rat(locus.center_beta),
        "radius_sq": _rat(locus.radius_sq),
    }


def cmd_roots(args: argparse.Namespace) -> int:
    from .delpezzo import (
        DPContext,
        enumerate_lines,
        enumerate_roots,
        line_pairs,
        nef_interior_count,
        root_as_line_difference,
    )

    dp = _parse_integer(args.dp, "--dp")
    _require_degree(dp, tuple(range(1, 8)))
    if dp != 2 and (args.nef_check or args.pairs or args.as_line_diff):
        print("--pairs/--as-line-diff/--nef-check are only certified for --dp 2", file=sys.stderr)
        return USAGE_ERROR
    ctx = DPContext(dp)
    roots = enumerate_roots(ctx)
    lines = enumerate_lines(ctx)
    payload: dict = {
        "dp_degree": dp,
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
    _emit(_document("roots", dp, payload))
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

    degree = _parse_integer(args.degree, "--degree")
    _require_degree(degree, DEGREES)
    verdict = verify_catalog(degree)
    payload = {
        "entries": [_entry_payload(entry) for entry in catalog(degree)],
        "verified": verdict.passed,
    }
    _emit(_document("catalog", degree, payload))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_all_checks, run_checks
    from .chern import DEGREES

    degree = None if args.degree is None else _parse_integer(args.degree, "--degree")
    if args.all:
        results = run_all_checks()
        degree = 0
    else:
        if degree is None:
            print("check requires --degree N or --all", file=sys.stderr)
            return USAGE_ERROR
        _require_degree(degree, DEGREES)
        results = run_checks(degree)
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

    Any argument that starts with a negative number of the number grammar is
    a value: so is a raw class like -2,1/2,3,-3, and so is a malformed or
    oversized number like -1e5, which its value parser then refuses in one line.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(f"-{_UNSIGNED}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kuwalls",
        description="Exact wall, lattice and root-system computations for index-2 Fano threefolds.",
    )
    parser.add_argument("--version", action="version", version=f"kuwalls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_euler = sub.add_parser("euler", help="Euler pairing matrix on the rank-2 lattice")
    p_euler.add_argument("--degree", required=True)
    p_euler.set_defaults(func=cmd_euler)

    p_walls = sub.add_parser("walls", help="walls and destabilizers along a vertical line")
    p_walls.add_argument("--degree", required=True)
    p_walls.add_argument("--class", dest="klass", required=True, help="catalog name or 'r,c1,c2,c3'")
    p_walls.add_argument("--beta", default="-1/2", help="rational beta of the scanned line")
    p_walls.add_argument("--denoms", default=None, help="lattice denominators 'dy,dz' (default 2,8)")
    p_walls.add_argument("--x-bound", default="5")
    p_walls.add_argument("--svg", default=None, help="write an SVG diagram to this path")
    p_walls.set_defaults(func=cmd_walls)

    p_roots = sub.add_parser("roots", help="del Pezzo root and line enumeration")
    p_roots.add_argument("--dp", required=True, help="del Pezzo degree K^2")
    p_roots.add_argument("--list", action="store_true", help="include the full vectors")
    p_roots.add_argument("--pairs", action="store_true", help="include the line involution pairs")
    p_roots.add_argument("--as-line-diff", action="store_true", help="decompose each root as a line difference")
    p_roots.add_argument("--nef-check", action="store_true", help="check D-2K against the nef cone")
    p_roots.set_defaults(func=cmd_roots)

    p_catalog = sub.add_parser("catalog", help="named classes for one degree")
    p_catalog.add_argument("--degree", required=True)
    p_catalog.set_defaults(func=cmd_catalog)

    p_check = sub.add_parser("check", help="run the consistency suite")
    p_check.add_argument("--degree", default=None)
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
