"""Facts the benchmark checks outputs against, computed without kuwalls.

Where the paper pins a result (the single wall for w at beta = -1/2 on the
(2, 8) lattice, root and line counts on I^(1,9-d), the degree-2 pairing and
nef facts, the Euler matrix) it is checked exactly.  Elsewhere the checks
are invariants that hold for any correct wall search or enumeration: the
candidate rules, slope equality at the crossing, D.K and D^2 of every
vector.  Every checker returns a list of problems; empty means the output
passed.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree
from fractions import Fraction

Class = tuple[Fraction, ...]

ROOT_LINE_COUNTS = {1: (240, 240), 2: (126, 56), 3: (72, 27), 4: (40, 16), 5: (20, 10), 6: (8, 6), 7: (2, 3)}
PAPER_BETA = Fraction(-1, 2)
PAPER_LATTICE = (2, 8)
PAPER_X_BOUND = 5
PAPER_WALL = [(Fraction(1, 4), [(1, Fraction(1, 2), Fraction(1, 8))])]


def v_class(d: int) -> Class:
    return (Fraction(1), Fraction(0), Fraction(-1, d), Fraction(0))


def w_class(d: int) -> Class:
    return (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 6) - Fraction(1, d))


def span_class(d: int, a: int, b: int) -> Class:
    """The class a v + b w."""
    return tuple(a * p + b * q for p, q in zip(v_class(d), w_class(d)))


def euler_matrix(d: int) -> list[list[int]]:
    return [[-1, -1], [1 - d, -d]]


def twisted(c: Class, beta: Fraction) -> Class:
    """(ch0, ch1, ch2) of ch . exp(-beta H)."""
    r, c1, c2 = c[0], c[1], c[2]
    return (r, c1 - beta * r, c2 - beta * c1 + beta * beta * r / 2)


def discriminant(c: Class) -> Fraction:
    return c[1] * c[1] - 2 * c[0] * c[2]


def chi_pair(d: int, x: Class, y: Class) -> Fraction:
    """chi(E, F) by Riemann-Roch with H.c2 = 12: weights (1, (d+3)/3, d, d) on dual(x) . y."""
    a = (x[0], -x[1], x[2], -x[3])
    product = [sum(a[i] * y[k - i] for i in range(k + 1)) for k in range(4)]
    weights = (1, Fraction(d + 3, 3), d, d)
    return sum(w * p for w, p in zip(weights, product))


def points_visited(target: Class, beta: Fraction, lattice: tuple[int, int], x_bound: int) -> int:
    """Lattice points (x, y, z) the exhaustive wall search must consider.

    y runs over multiples of 1/dy strictly inside (0, ch1^beta); x over the
    non-zero integers in [-x_bound, x_bound], positive only for torsion
    targets; z over multiples of 1/dz in the window 0 <= y^2 - 2xz <= Delta.
    """
    r, t1, _ = twisted(target, beta)
    delta = discriminant(target)
    y_denom, z_denom = lattice
    if t1 <= 0 or delta < 0:
        return 0
    ys = [Fraction(k, y_denom) for k in range(1, math.ceil(t1 * y_denom))]
    xs = [x for x in range(-x_bound, x_bound + 1) if x != 0 and (r != 0 or x > 0)]
    total = 0
    for x in xs:
        for y in ys:
            lo, hi = sorted(((y * y - delta) / (2 * x), y * y / (2 * x)))
            total += max(0, math.floor(hi * z_denom) - math.ceil(lo * z_denom) + 1)
    return total


def check_crossings(
    target: Class,
    beta: Fraction,
    lattice: tuple[int, int],
    x_bound: int,
    crossings: list[tuple[Fraction, list[tuple[int, Fraction, Fraction]]]],
) -> list[str]:
    """Candidate rules and slope equality for every reported wall crossing."""
    problems = []
    r, t1, t2 = twisted(target, beta)
    delta = discriminant(target)
    y_denom, z_denom = lattice
    alphas = [alpha_sq for alpha_sq, _ in crossings]
    if alphas != sorted(set(alphas)) or any(a <= 0 for a in alphas):
        problems.append(f"crossings not strictly increasing in alpha^2 > 0: {alphas}")
    seen = set()
    for alpha_sq, candidates in crossings:
        if not candidates:
            problems.append(f"crossing at alpha^2 = {alpha_sq} has no candidate")
        for x, y, z in candidates:
            key = (x, y, z)
            if key in seen:
                problems.append(f"candidate {key} reported twice")
            seen.add(key)
            if not (isinstance(x, int) and 1 <= abs(x) <= x_bound):
                problems.append(f"candidate {key}: x outside 1..{x_bound}")
            if (y * y_denom).denominator != 1 or (z * z_denom).denominator != 1:
                problems.append(f"candidate {key}: off the lattice {lattice}")
            if not 0 < y < t1:
                problems.append(f"candidate {key}: y outside (0, ch1^beta = {t1})")
            if not 0 <= y * y - 2 * x * z <= delta:
                problems.append(f"candidate {key}: Delta outside [0, {delta}]")
            if r == 0 and not (x > 0 and z > 0):
                problems.append(f"candidate {key}: torsion target needs x > 0 and z > 0")
            # -Re Z / Im Z in twisted coordinates; the factor d cancels.
            if (z - alpha_sq * x / 2) * t1 != (t2 - alpha_sq * r / 2) * y:
                problems.append(f"candidate {key}: slope differs from the target's at alpha^2 = {alpha_sq}")
    return problems


def is_paper_query(target: Class, degree: int, beta: Fraction, lattice: tuple[int, int], x_bound: int) -> bool:
    return target == w_class(degree) and beta == PAPER_BETA and tuple(lattice) == PAPER_LATTICE and x_bound == PAPER_X_BOUND


def check_svg(data: bytes | None) -> list[str]:
    if data is None:
        return ["no SVG written"]
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    return [] if root.tag.endswith("svg") else [f"SVG root is {root.tag}"]


def check_wall_query(q, out) -> list[str]:
    """Check a wall-queries outcome (``workloads.WallOutcome``) against request ``q``."""
    problems = []
    d = q.degree
    c = out.chern
    if isinstance(q.target, tuple) and c != q.target:
        problems.append(f"class {c} differs from the requested {q.target}")
    if q.target == "w" and c != w_class(d):
        problems.append(f"w resolved to {c}")
    if q.target == "v" and c != v_class(d):
        problems.append(f"v resolved to {c}")
    if out.twisted != twisted(c, q.beta):
        problems.append(f"twist at beta = {q.beta} gave {out.twisted}")
    expected_chi = chi_pair(d, c, c)
    if not out.chi == out.chi_ref == expected_chi:
        problems.append(f"chi_pair {out.chi}, hrr_chi(dual . x) {out.chi_ref}, Riemann-Roch {expected_chi}")
    if q.span is not None and out.coords != tuple(Fraction(n) for n in q.span):
        problems.append(f"coordinates {out.coords}, expected {q.span}")
    if out.euler is not None:
        a, b = out.coords
        m = euler_matrix(d)
        by_matrix = a * (m[0][0] * a + m[0][1] * b) + b * (m[1][0] * a + m[1][1] * b)
        if not out.euler == by_matrix == expected_chi:
            problems.append(f"euler_form {out.euler}, matrix {by_matrix}, chi {expected_chi}")
    problems += check_crossings(c, q.beta, q.lattice, q.x_bound, out.crossings)
    if is_paper_query(c, d, q.beta, q.lattice, q.x_bound) and out.crossings != PAPER_WALL:
        problems.append(f"w at beta = -1/2 on (2, 8): {out.crossings}, expected one wall at 1/4 from (1, 1/2, 1/8)")
    n_candidates = sum(len(cands) for _, cands in out.crossings)
    if len(out.slopes) != n_candidates or any(s != t for s, t in out.slopes):
        problems.append("tilt.slope_tilt of a candidate differs from its target's at the crossing")
    if q.svg:
        problems += check_svg(out.svg)
    return problems


def dot(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def canonical(dp: int) -> tuple[int, ...]:
    return (-3,) + (1,) * (9 - dp)


def _check_vectors(kind: str, vectors: list[tuple[int, ...]], dp: int, k_dot: int, square: int) -> list[str]:
    k = canonical(dp)
    bad = [v for v in vectors if len(v) != len(k) or dot(v, k) != k_dot or dot(v, v) != square]
    problems = [f"{len(bad)} {kind} fail D.K = {k_dot}, D^2 = {square}, e.g. {bad[0]}"] if bad else []
    if len(set(vectors)) != len(vectors):
        problems.append(f"duplicate {kind}")
    return problems


def check_root_query(q, out) -> list[str]:
    """Check a root-enumeration outcome (``workloads.RootOutcome``) against request ``q``."""
    dp = q.dp
    problems = []
    counts = (len(out.roots), len(out.lines))
    if counts != ROOT_LINE_COUNTS[dp]:
        problems.append(f"dp {dp}: {counts[0]} roots, {counts[1]} lines; expected {ROOT_LINE_COUNTS[dp]}")
    problems += _check_vectors("roots", out.roots, dp, 0, -2)
    problems += _check_vectors("lines", out.lines, dp, -1, -1)
    if q.saturate:
        if out.roots_sat is None or sorted(out.roots_sat) != sorted(out.roots):
            problems.append("extra_box=1 root scan differs from the plain scan")
        if out.lines_sat is None or sorted(out.lines_sat) != sorted(out.lines):
            problems.append("extra_box=1 line scan differs from the plain scan")
    if dp == 2:
        problems += check_dp2(out.roots, out.lines, out.partners, out.decompositions, out.nef)
    return problems


def check_dp2(roots, lines, partners, decompositions, nef) -> list[str]:
    """28 line pairs under L -> -K-L, 126 line-difference splits, 126 interior D-2K."""
    problems = []
    minus_k = tuple(-c for c in canonical(2))
    line_set = set(lines)
    pairs = set()
    for line, partner in zip(lines, partners):
        expected = tuple(a - b for a, b in zip(minus_k, line))
        if partner != expected or partner not in line_set or partner == line:
            problems.append(f"line {line} pairs with {partner}")
        pairs.add(frozenset((line, partner)))
    if len(partners) != len(lines) or len(pairs) != 28:
        problems.append(f"{len(pairs)} line pairs, expected 28")
    split = 0
    for root, pair in zip(roots, decompositions):
        if pair is None:
            continue
        first, second = pair
        if (
            tuple(a - b for a, b in zip(first, second)) == root
            and first in line_set
            and second in line_set
            and dot(first, second) == 0
        ):
            split += 1
    if split != 126 or len(decompositions) != len(roots):
        problems.append(f"{split}/126 roots split as disjoint line differences")
    interior = sum(1 for position in nef if position == "interior")
    if interior != 126 or len(nef) != len(roots):
        problems.append(f"{interior}/126 of D-2K interior to the nef cone")
    return problems


def _parse_crossings(walls: list[dict]) -> list[tuple[Fraction, list[tuple[int, Fraction, Fraction]]]]:
    return [
        (Fraction(wall["alpha_sq"]), [(c["x"], Fraction(c["y"]), Fraction(c["z"])) for c in wall["candidates"]])
        for wall in walls
    ]


def check_cli_output(name: str, returncode: int, stdout: str, svg: bytes | None = None) -> list[str]:
    """Check the first stdout of a README command; later runs must repeat it byte for byte."""
    if returncode != 0:
        return [f"{name}: exit code {returncode}"]
    if name == "version":
        return [] if stdout.startswith("kuwalls ") else [f"--version printed {stdout!r}"]
    try:
        doc = json.loads(stdout)
        payload = doc["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{name}: stdout is not a kuwalls JSON document ({exc})"]
    problems = []
    if name == "euler_d2":
        if payload.get("matrix") != [[-1, -1], [-1, -2]] or payload.get("agreement") is not True:
            problems.append(f"euler --degree 2 matrix {payload.get('matrix')}")
        if payload.get("matrix_from_riemann_roch") != [["-1", "-1"], ["-1", "-2"]]:
            problems.append("euler --degree 2 Riemann-Roch matrix differs")
    elif name in ("walls_d2_w", "walls_d3_class"):
        d = doc.get("degree")
        target = tuple(Fraction(v) for v in payload["chern"])
        beta = Fraction(payload["beta"])
        lattice = tuple(payload["lattice"])
        crossings = _parse_crossings(payload["walls"])
        problems += check_crossings(target, beta, lattice, payload["x_bound"], crossings)
        if name == "walls_d2_w":
            if not is_paper_query(target, d, beta, lattice, payload["x_bound"]) or crossings != PAPER_WALL:
                problems.append(f"walls --degree 2 --class w: {crossings}")
            problems += check_svg(svg)
        elif target != w_class(3) or lattice != (2, 24) or payload.get("wall_count") != len(crossings):
            problems.append("walls --degree 3 --class 0,1,-1/2,-1/6 --denoms 2,24 payload differs")
    elif name == "roots_dp2":
        roots = [tuple(item["root"]) for item in payload["line_differences"]]
        lines = sorted({tuple(v) for pair in payload["line_pairs"] for v in pair})
        partners_of = {}
        for a, b in payload["line_pairs"]:
            partners_of[tuple(a)], partners_of[tuple(b)] = tuple(b), tuple(a)
        partners = [partners_of[line] for line in lines]
        decompositions = [None if item["lines"] is None else tuple(map(tuple, item["lines"])) for item in payload["line_differences"]]
        nef = ["interior"] * payload["nef_interior_count"]
        if (payload["root_count"], payload["line_count"], payload["line_pair_count"]) != (126, 56, 28):
            problems.append("roots --dp 2 counts differ from (126, 56, 28)")
        problems += _check_vectors("roots", roots, 2, 0, -2)
        problems += _check_vectors("lines", lines, 2, -1, -1)
        problems += check_dp2(roots, lines, partners, decompositions, nef)
    elif name == "catalog_d4":
        if payload.get("verified") is not True:
            problems.append("catalog --degree 4 not verified")
        for entry in payload["entries"]:
            if "ku_class" in entry:
                expected = span_class(4, entry["ku_class"]["a"], entry["ku_class"]["b"])
                if tuple(Fraction(v) for v in entry["chern"]) != expected:
                    problems.append(f"catalog entry {entry['name']} is not a v + b w")
    elif name in ("check_all", "check_d5"):
        checks = payload["checks"]
        if payload["failed"] != 0 or not checks or payload["passed"] != len(checks):
            problems.append(f"{name}: {payload['failed']} checks failed")
        if name == "check_d5" and any(check["degree"] != 5 for check in checks):
            problems.append("check --degree 5 ran another degree")
    elif name == "roots_dp1":
        if (payload["root_count"], payload["line_count"]) != ROOT_LINE_COUNTS[1]:
            problems.append(f"roots --dp 1: {payload['root_count']}, {payload['line_count']}")
    return problems
