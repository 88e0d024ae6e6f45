"""The one-shot consistency suite behind ``kuwalls check``.

Each check re-derives a pinned fact from scratch through the library and
reports pass/fail with a short detail string.  The CLI exit code is 0 only
if every requested check passes.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .catalog import ext_table_fixtures, ku_membership_chi, lookup, verify_catalog
from .chern import DEGREES, ChernVector, FanoContext, line_bundle, point_ideal, v_vector, w_vector
from .delpezzo import (
    DPContext,
    enumerate_lines,
    enumerate_roots,
    line_pairs,
    nef_interior_count,
    root_as_line_difference,
    surface_chi,
)
from .kulattice import (
    KuClass,
    V,
    W,
    check_ext_table,
    class_from_chern,
    classes_with_self_pairing,
    euler_form,
    euler_matrix_from_chern,
    rotate,
    rotation_matrix,
)
from .tilt import discriminant
from .walls import BASE_LATTICE, chamber_report, destabilizer_search, w_decomposition_holds

ROOT_LINE_COUNTS = {1: (240, 240), 2: (126, 56), 3: (72, 27), 4: (40, 16), 5: (20, 10)}


class CheckResult(Record):
    __slots__ = ("name", "degree", "passed", "detail")
    name: str
    degree: int
    passed: bool
    detail: str

    def __init__(self, name: str, degree: int, passed: bool, detail: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    @property
    def line(self) -> str:
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'}"


def _result(name: str, degree: int, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, degree=degree, passed=passed, detail=detail)


def check_euler_matrix(d: int) -> CheckResult:
    from_chern = [list(row) for row in euler_matrix_from_chern(FanoContext(d))]
    from_lattice = [
        [euler_form(d, V, V), euler_form(d, V, W)],
        [euler_form(d, W, V), euler_form(d, W, W)],
    ]
    expected = [[-1, -1], [1 - d, -d]]
    ok = from_chern == expected and from_lattice == expected
    return _result("euler pairing matrix", d, ok, f"matrix {from_lattice}, expected {expected}")


def check_unique_wall(d: int) -> CheckResult:
    ctx = FanoContext(d)
    w = w_vector(ctx)
    beta0 = Fraction(-1, 2)
    found = destabilizer_search(ctx, w, beta0, denoms=BASE_LATTICE, x_bound=5)
    doubled = destabilizer_search(ctx, w, beta0, denoms=BASE_LATTICE, x_bound=10)
    keys = [c.key() for c in found]
    expected = [(1, Fraction(1, 2), Fraction(1, 8))]
    alpha_sq = found[0].wall.alpha_sq_at(beta0) if found else None
    ok = keys == expected and [c.key() for c in doubled] == expected and alpha_sq == Fraction(1, 4)
    return _result(
        "unique wall for w at beta=-1/2",
        d,
        ok,
        f"candidates {keys}, wall alpha^2 = {alpha_sq}",
    )


def check_decomposition(d: int) -> CheckResult:
    ctx = FanoContext(d)
    lhs = point_ideal(ctx) + (-line_bundle(-1))
    ok = w_decomposition_holds(ctx, w_vector(ctx)) is True
    return _result("wall-crossing decomposition I_p + O(-1)[1] = w", d, ok, f"lhs {lhs.coefficients()}")


def check_discriminant_window(d: int) -> CheckResult:
    ctx = FanoContext(d)
    w = w_vector(ctx)
    delta_w = discriminant(w)
    found = destabilizer_search(ctx, w, Fraction(-1, 2), denoms=BASE_LATTICE, x_bound=5)
    ok = delta_w == 1
    details = [f"Delta(w) = {delta_w}"]
    for cand in found:
        delta = discriminant(ChernVector(cand.x, cand.y, cand.z, 0))
        window = 0 <= delta <= delta_w
        bound_chain = -1 <= -8 * cand.x * cand.z <= 3
        ok = ok and window and bound_chain
        details.append(f"candidate {cand.key()}: Delta = {delta}, -8xz = {-8 * cand.x * cand.z}")
    return _result("discriminant window 0 <= Delta <= 1", d, ok, "; ".join(details))


def check_rotation(d: int) -> CheckResult:
    r = rotation_matrix()
    r_squared = tuple(
        tuple(sum(r[i][k] * r[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )
    ok = (
        rotate(V) == KuClass(-1, 1)
        and rotate(W) == KuClass(-2, 1)
        and r_squared == ((-1, 0), (0, -1))
    )
    return _result("rotation: v -> w-v, w -> w-2v, square = -id", d, ok, f"R^2 = {r_squared}")


def check_self_pairing(d: int) -> CheckResult:
    classes = classes_with_self_pairing(d, -d, 10)
    contains_w = W in classes and -W in classes
    if d == 2:
        expected = sorted([KuClass(0, 1), KuClass(0, -1), KuClass(-2, 1), KuClass(2, -1)], key=lambda c: (c.a, c.b))
        ok = classes == expected
        detail = f"classes with self-pairing -2: {[(c.a, c.b) for c in classes]}"
    else:
        ok = contains_w
        detail = f"{len(classes)} classes with self-pairing {-d}; contains +-w: {contains_w}"
    return _result(f"self-pairing {-d} classes", d, ok, detail)


def check_ext_tables(d: int) -> CheckResult:
    ok = True
    details = []
    for label, table, serre in ext_table_fixtures(d):
        verdict = check_ext_table(d, W, table, serre_trivial_numerics=serre)
        ok = ok and verdict.passed
        details.append(f"{label} {table.dims}: sum {table.alternating_sum()}")
    return _result("ext-table alternating sums equal chi(w,w)", d, ok, "; ".join(details))


def check_root_line_counts(d: int) -> CheckResult:
    ctx = DPContext(d)
    roots = enumerate_roots(ctx)
    lines = enumerate_lines(ctx)
    expected = ROOT_LINE_COUNTS[d]
    ok = (len(roots), len(lines)) == expected
    return _result("root/line counts", d, ok, f"{len(roots)} roots, {len(lines)} lines; expected {expected}")


def check_line_pairing_and_differences(d: int) -> CheckResult:
    if d != 2:
        return _result("root-line combinatorics (degree 2 only)", d, True, "skipped: specific to degree 2")
    ctx = DPContext(2)
    roots = enumerate_roots(ctx)
    lines = enumerate_lines(ctx)
    pairs = line_pairs(ctx)
    # the pairs partition the lines exactly when L -> -K-L is a fixed-point-free involution on them
    pairing_ok = sorted(line.as_tuple() for pair in pairs for line in pair) == [line.as_tuple() for line in lines]
    decomposed = sum(root_as_line_difference(ctx, root) is not None for root in roots)
    ok = pairing_ok and decomposed == len(roots) and len(lines) == 56
    return _result(
        "56 lines pair under L -> -K-L; all 126 roots split as disjoint line differences",
        d,
        ok,
        f"pairs: {len(pairs)}, decomposed roots: {decomposed}",
    )


def check_nef_interior(d: int) -> CheckResult:
    if d != 2:
        return _result("vanishing-theorem positivity (degree 2 only)", d, True, "skipped: specific to degree 2")
    ctx = DPContext(2)
    roots = enumerate_roots(ctx)
    interior = nef_interior_count(ctx, roots)
    ok = interior == len(roots)
    return _result("D - 2K interior to the nef cone for every root", d, ok, f"{interior}/{len(roots)} interior")


def check_surface_chi_triple(d: int) -> CheckResult:
    if d != 2:
        return _result("surface chi triple (degree 2 only)", d, True, "skipped: specific to degree 2")
    ctx = DPContext(2)
    h = -ctx.canonical  # the hyperplane restriction is anticanonical
    ok = True
    for root in enumerate_roots(ctx):
        ok = ok and surface_chi(ctx, root) == 0
        ok = ok and surface_chi(ctx, root - h) == 0
        ok = ok and surface_chi(ctx, root + h) == 2
    return _result("chi(D) = 0, chi(D-H) = 0, chi(D+H) = 2 for roots", d, ok, "all 126 roots checked")


def check_degree_identity(d: int) -> CheckResult:
    ctx = FanoContext(d)
    if d == 4:
        twisted = lookup(4, "S_pm(-1)").chern
        expected = 2 * v_vector(ctx) + (-1) * w_vector(ctx)
        ok = twisted == expected and class_from_chern(ctx, twisted).as_ku_class() == KuClass(2, -1)
        return _result("[S(-1)] = 2v-w", d, ok, f"class {twisted.coefficients()}")
    if d == 5:
        s = lookup(5, "S").chern
        q = lookup(5, "Q_dual").chern
        combination = 2 * q + (-3) * s
        ok = combination == w_vector(ctx)
        return _result("w = 2[Q_dual]-3[S]", d, ok, f"combination {combination.coefficients()}")
    return _result("degree-specific identity", d, True, "no degree-specific identity pinned")


def check_ku_membership(d: int) -> CheckResult:
    ctx = FanoContext(d)
    ok = True
    details = []
    for entry in (lookup(d, name) for name in _member_names(d)):
        chi_o, chi_o1 = ku_membership_chi(ctx, entry.chern)
        ok = ok and chi_o == 0 and chi_o1 == 0
        details.append(f"{entry.name}: ({chi_o}, {chi_o1})")
    return _result("chi(O, -) = chi(O(1), -) = 0 on residual classes", d, ok, "; ".join(details))


def _member_names(d: int) -> list[str]:
    names = ["I_p|S", "I_l", "E_p", "root_sheaf", "v", "w"]
    if d == 4:
        names.append("S_pm(-1)")
    if d == 5:
        names.extend(["S", "Q_dual"])
    return names


def check_catalog(d: int) -> CheckResult:
    verdict = verify_catalog(d)
    failing = [entry.name for entry in verdict.entries if not entry.passed]
    return _result("catalog invariants", d, verdict.passed, f"failing entries: {failing or 'none'}")


def check_chambers(d: int) -> CheckResult:
    ctx = FanoContext(d)
    report = chamber_report(ctx, w_vector(ctx), Fraction(-1, 2))
    ok = (
        report.chamber_count == 2
        and len(report.walls) == 1
        and report.walls[0].alpha_sq == Fraction(1, 4)
        and report.decomposition_verified is True
    )
    return _result("two chambers along beta=-1/2 for w", d, ok, f"walls at alpha^2 = {[w.alpha_sq for w in report.walls]}")


CHECKS = (
    check_euler_matrix,
    check_unique_wall,
    check_decomposition,
    check_discriminant_window,
    check_rotation,
    check_self_pairing,
    check_ext_tables,
    check_root_line_counts,
    check_line_pairing_and_differences,
    check_nef_interior,
    check_surface_chi_triple,
    check_degree_identity,
    check_ku_membership,
    check_catalog,
    check_chambers,
)


def run_checks(d: int) -> list[CheckResult]:
    return [check(d) for check in CHECKS]


def run_all_checks() -> list[CheckResult]:
    return [result for d in DEGREES for result in run_checks(d)]
