"""Wall loci and destabilizer-search tests.

The search is cross-checked against a deliberately naive oracle that scans a
wide lattice box and re-applies every constraint from scratch, and against two
references, walls and order included: the per-point ``Fraction`` scan that the
integer kernel replaced (``reference_search``), and the integer formula that
built one wall per candidate before the search built one wall per crossing
height (``per_candidate_search``), both grouped on ``Fraction`` keys.  The
wall equation is checked against a symbolic expansion of the slope-equality
cross product.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy

from kuwalls.catalog import catalog, point_ideal, v_vector, w_vector
from kuwalls.chern import DEGREES, ChernVector, FanoContext, _over_lcm, line_bundle, twist
from kuwalls.tilt import StabilityParams, discriminant, slope_tilt
from kuwalls.walls import (
    BASE_LATTICE,
    SEARCH_BUDGET,
    DestabilizerCandidate,
    WallCrossing,
    WallLocus,
    chamber_report,
    destabilizer_search,
    _wall_coefficients,
    numerical_wall,
)

CTX2 = FanoContext(2)
BETA0 = Fraction(-1, 2)


def naive_destabilizer_search(ctx, target, beta0, denoms, x_bound):
    """Independent full-box scan re-checking each constraint directly."""
    t = twist(target, beta0)
    dy, dz = denoms
    delta_target = discriminant(target)
    torsion = target.r == 0
    results = []
    if t.c1 <= 0:
        return results
    ys = [Fraction(k, dy) for k in range(1, math.ceil(t.c1 * dy) + 1) if 0 < Fraction(k, dy) < t.c1]
    for x in range(-x_bound, x_bound + 1):
        if x == 0:
            continue
        if torsion and x <= 0:
            continue
        for y in ys:
            z_cap = (y * y + abs(delta_target)) / (2 * abs(x)) + 1
            for m in range(-math.ceil(z_cap * dz), math.ceil(z_cap * dz) + 1):
                z = Fraction(m, dz)
                if torsion and z <= 0:
                    continue
                delta = y * y - 2 * x * z
                if not (0 <= delta <= delta_target):
                    continue
                denominator = t.r * y - x * t.c1
                if denominator == 0:
                    continue
                alpha_sq = 2 * (t.c2 * y - z * t.c1) / denominator
                if alpha_sq <= 0:
                    continue
                results.append((x, y, z))
    return sorted(results)


def _wall_alpha_sq(t_target, x, y, z):
    r1, c1, s1 = t_target
    denom = r1 * y - x * c1
    if denom == 0:
        return None
    alpha_sq = 2 * (s1 * y - z * c1) / denom
    return alpha_sq if alpha_sq > 0 else None


def _lattice_points(lo, hi, denom, strict):
    first = math.ceil(lo * denom)
    last = math.floor(hi * denom)
    points = [Fraction(k, denom) for k in range(first, last + 1)]
    if strict:
        points = [p for p in points if lo < p < hi]
    return points


def _search_x_slice(x, ys, t_target, delta_target, z_denom, torsion_rules):
    found = []
    for y in ys:
        bounds = sorted(((y * y - delta_target) / (2 * x), (y * y) / (2 * x)))
        for z in _lattice_points(bounds[0], bounds[1], z_denom, strict=False):
            if torsion_rules and z <= 0:
                continue
            if _wall_alpha_sq(t_target, x, y, z) is None:
                continue
            found.append((x, y, z))
    return found


def reference_triples(target, beta0, denoms, x_bound):
    """The admitted (x, y, z) of the per-point Fraction scan, sorted."""
    y_denom, z_denom = denoms
    t = twist(target, beta0)
    t_target = t.truncated()
    delta_target = discriminant(target)
    torsion_rules = target.r == 0
    ys = _lattice_points(Fraction(0), t.c1, y_denom, strict=True) if t.c1 > 0 else []
    if not ys or delta_target < 0:
        return []
    xs = [x for x in range(-x_bound, x_bound + 1) if x != 0 and (x > 0 or not torsion_rules)]
    return sorted(
        triple for x in xs for triple in _search_x_slice(x, ys, t_target, delta_target, z_denom, torsion_rules)
    )


def reference_search(ctx, target, beta0, triples):
    """The per-point Fraction scan of ``triples``, as (alpha^2, candidate) pairs with walls from ``numerical_wall``."""
    t_target = twist(target, beta0).truncated()
    found = []
    for x, y, z in triples:
        wall = numerical_wall(ctx, target, twist(ChernVector(x, y, z, 0), -beta0))
        assert wall is not None
        found.append((_wall_alpha_sq(t_target, x, y, z), DestabilizerCandidate(x=x, y=y, z=z, wall=wall)))
    return found


def per_candidate_search(target, beta0, denoms, triples):
    """(alpha^2, candidate) pairs with one wall built per candidate from integer numerators.

    The closed form the search used before it built one wall per crossing
    height: with the twisted target (R1, C1, S1) / T and a candidate
    (x, Y / y_denom, Z / z_denom), the centre is B/A = b_num / centre_den and
    radius^2 = (B/A)^2 + 2C/A.
    """
    y_denom, z_denom = denoms
    R1, C1, S1, _ = _over_lcm(*twist(target, beta0).truncated())
    p0, q0 = beta0.numerator, beta0.denominator
    found = []
    for x, y, z in triples:
        Y, Z = int(y * y_denom), int(z * z_denom)
        alpha_den = R1 * Y - C1 * x * y_denom
        alpha_num = S1 * Y * z_denom - Z * C1 * y_denom
        b_num = (S1 * x * z_denom - Z * R1) * y_denom
        centre_den = -z_denom * alpha_den
        wall = WallLocus.semicircle(
            Fraction(p0 * centre_den + q0 * b_num, q0 * centre_den),
            Fraction(b_num * b_num - 2 * alpha_num * centre_den, centre_den * centre_den),
        )
        found.append((Fraction(2 * alpha_num, z_denom * alpha_den), DestabilizerCandidate(x=x, y=y, z=z, wall=wall)))
    return found


def reference_walls(pairs):
    """The crossings of ``chamber_report``, grouped from (alpha^2, candidate) pairs on Fraction keys."""
    by_alpha = {}
    for alpha_sq, cand in pairs:
        by_alpha.setdefault(alpha_sq, []).append(cand)
    return tuple(
        WallCrossing(alpha_sq=a, locus=group[0].wall, candidates=tuple(group)) for a, group in sorted(by_alpha.items())
    )


def assert_matches_both_references(ctx, target, beta0, denoms, x_bound):
    """Search and report against the Fraction scan and the per-candidate formula; the candidate count."""
    triples = reference_triples(target, beta0, denoms, x_bound)
    found = destabilizer_search(ctx, target, beta0, denoms=denoms, x_bound=x_bound)
    walls = chamber_report(ctx, target, beta0, denoms=denoms, x_bound=x_bound).walls
    for reference in (
        reference_search(ctx, target, beta0, triples),
        per_candidate_search(target, beta0, denoms, triples),
    ):
        assert found == [cand for _, cand in reference], (target, beta0, denoms)
        assert walls == reference_walls(reference), (target, beta0, denoms)
    for crossing in walls:
        assert all(cand.wall == crossing.locus for cand in crossing.candidates)
    return len(found)


GRID_BETAS = [Fraction(-3, 2) + Fraction(3, 8) * k for k in range(6)]
GRID_LATTICES = [(2, 8), (2, 24), (3, 40)]


def grid_classes(d, rng, count):
    """The distinct catalog classes, w, and ``count`` seeded random classes with ranks cycling through -2..2."""
    ctx = FanoContext(d)
    classes = list(dict.fromkeys([entry.chern for entry in catalog(d)] + [w_vector(ctx)]))
    for i in range(count):
        classes.append(
            ChernVector(
                (-2, -1, 0, 1, 2)[i % 5],
                Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])),
                Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4, 6, 8])),
                Fraction(rng.randint(-3, 3), rng.choice([1, 6])),
            )
        )
    return classes


@pytest.mark.parametrize("d", DEGREES)
def test_search_and_report_match_the_fraction_reference(d):
    ctx = FanoContext(d)
    rng = random.Random(4000 + d)
    candidates = 0
    for target in grid_classes(d, rng, 5):
        for beta0 in GRID_BETAS:
            for denoms in GRID_LATTICES:
                candidates += assert_matches_both_references(ctx, target, beta0, denoms, 5)
    assert candidates > 0


def test_large_lattice_matches_the_fraction_reference():
    # the benchmark's largest searches: the class w on (8, 128) with x_bound 40
    for d in (1, 5):
        ctx = FanoContext(d)
        assert assert_matches_both_references(ctx, w_vector(ctx), BETA0, (8, 128), 40) > 100
        # 501 candidates on 146 walls, one wall object per crossing height
        walls = chamber_report(ctx, w_vector(ctx), BETA0, denoms=(8, 128), x_bound=40).walls
        assert len(walls) == 146 and sum(len(crossing.candidates) for crossing in walls) == 501
        assert all(cand.wall is crossing.locus for crossing in walls for cand in crossing.candidates)


def test_wall_coefficients_satisfy_the_height_identity():
    # (C, B, -A) = u x u' is orthogonal to u = (r1, c1, s1): r1 C + c1 B - s1 A = 0,
    # so the wall through (beta0, alpha) has centre beta0 + (s1 - r1 alpha^2 / 2) / c1
    rng = random.Random(5150)
    pairs = 0
    for d in DEGREES:
        ctx = FanoContext(d)
        for target in grid_classes(d, rng, 6):
            for beta0 in GRID_BETAS[::2]:
                r1, c1, s1 = twist(target, beta0).truncated()
                for cand in destabilizer_search(ctx, target, beta0, denoms=(2, 24), x_bound=5):
                    a, b, c = _wall_coefficients(ChernVector(r1, c1, s1, 0), ChernVector(cand.x, cand.y, cand.z, 0))
                    assert r1 * c + c1 * b - s1 * a == 0
                    alpha_sq = 2 * c / a
                    centre = (s1 - r1 * alpha_sq / 2) / c1
                    assert cand.wall == WallLocus.semicircle(beta0 + centre, centre * centre + alpha_sq)
                    pairs += 1
    assert pairs > 100


def test_admitted_candidates_never_have_a_zero_a_coefficient():
    # twisted target (2, 1, -1): the points (1, 1/2, z) have A = c1 x - y r1 = 0
    # and lie in the discriminant window, but alpha^2 is undefined there
    beta0 = Fraction(1, 3)
    target = twist(ChernVector(2, 1, -1, 0), -beta0)
    found = destabilizer_search(CTX2, target, beta0, denoms=(2, 8), x_bound=4)
    delta = discriminant(target)
    window = [z for z in (Fraction(k, 8) for k in range(-40, 41)) if 0 <= Fraction(1, 4) - 2 * z <= delta]
    assert window
    assert found
    for cand in found:
        assert (cand.x, cand.y) != (1, Fraction(1, 2))
    rng = random.Random(31)
    for d in DEGREES:
        ctx = FanoContext(d)
        for target in grid_classes(d, rng, 10):
            for beta0 in GRID_BETAS:
                t = twist(target, beta0)
                for cand in destabilizer_search(ctx, target, beta0, denoms=(2, 24), x_bound=5):
                    assert t.c1 * cand.x - cand.y * t.r != 0
                    assert cand.wall.kind == "semicircle"


def test_wall_for_w_and_structure_sheaf():
    wall = numerical_wall(CTX2, w_vector(CTX2), line_bundle(0))
    assert wall is not None and wall.kind == "semicircle"
    assert wall.center_beta == Fraction(-1, 2)
    assert wall.radius_sq == Fraction(1, 4)
    assert wall.alpha_sq_at(BETA0) == Fraction(1, 4)


def test_wall_none_for_proportional_classes():
    w = w_vector(CTX2)
    assert numerical_wall(CTX2, w, 2 * w) is None


def test_wall_same_for_point_ideal():
    # I_p and O share the truncated class, hence the wall
    assert numerical_wall(CTX2, w_vector(CTX2), point_ideal(CTX2)) == numerical_wall(
        CTX2, w_vector(CTX2), line_bundle(0)
    )


def test_wall_cross_product_matches_symbolic_expansion():
    # expand Re1 Im2 - Re2 Im1 symbolically and compare with the (A, B, C) form
    a2, b = sympy.symbols("a2 b")
    rng = random.Random(77)
    for _ in range(40):
        r1, c1, s1, r2, c2, s2 = (sympy.Rational(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6))
        re1 = -(s1 - b * c1 + b**2 / 2 * r1) + a2 / 2 * r1
        im1 = c1 - b * r1
        re2 = -(s2 - b * c2 + b**2 / 2 * r2) + a2 / 2 * r2
        im2 = c2 - b * r2
        cross = sympy.expand(re1 * im2 - re2 * im1)
        a_coeff = c1 * r2 - c2 * r1
        b_coeff = s1 * r2 - s2 * r1
        c_coeff = c1 * s2 - c2 * s1
        expected = sympy.expand(-(a_coeff / 2) * (a2 + b**2) + b_coeff * b + c_coeff)
        assert sympy.simplify(cross - expected) == 0

        target = ChernVector(Fraction(str(r1)), Fraction(str(c1)), Fraction(str(s1)), 0)
        other = ChernVector(Fraction(str(r2)), Fraction(str(c2)), Fraction(str(s2)), 0)
        wall = numerical_wall(FanoContext(rng.choice(DEGREES)), target, other)
        if a_coeff != 0:
            center = sympy.Rational(b_coeff, a_coeff)
            radius_sq = center**2 + 2 * sympy.Rational(c_coeff, a_coeff)
            if radius_sq > 0:
                assert wall is not None and wall.kind == "semicircle"
                assert wall.center_beta == Fraction(str(center))
                assert wall.radius_sq == Fraction(str(radius_sq))
            else:
                assert wall is None
        elif b_coeff != 0:
            assert wall is not None and wall.kind == "vertical"
            assert wall.beta0 == Fraction(str(sympy.Rational(-c_coeff, b_coeff)))
        else:
            assert wall is None


def test_vertical_wall_between_line_ideal_and_structure_sheaf():
    # both rank 1 with ch1 = 0: slopes agree exactly on the line beta = 0
    wall = numerical_wall(CTX2, v_vector(CTX2), line_bundle(0))
    assert wall == WallLocus.vertical(0)


@pytest.mark.parametrize("d", DEGREES)
def test_search_for_w_finds_the_single_candidate(d):
    ctx = FanoContext(d)
    found = destabilizer_search(ctx, w_vector(ctx), BETA0, denoms=BASE_LATTICE, x_bound=5)
    assert [c.key() for c in found] == [(1, Fraction(1, 2), Fraction(1, 8))]
    wall = found[0].wall
    assert wall.kind == "semicircle" and wall.center_beta == BETA0
    assert wall.alpha_sq_at(BETA0) == Fraction(1, 4)
    # the search defaults to the same lattice as chamber_report, in every degree
    assert destabilizer_search(ctx, w_vector(ctx), BETA0) == found


def test_search_with_zero_bound_is_empty():
    assert destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=BASE_LATTICE, x_bound=0) == []


def test_search_saturates_in_the_bound():
    base = destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=BASE_LATTICE, x_bound=5)
    for bound in (10, 20, 40):
        again = destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=BASE_LATTICE, x_bound=bound)
        assert [c.key() for c in again] == [c.key() for c in base]


def test_search_for_v_matches_naive_oracle():
    ctx = FanoContext(2)
    found = destabilizer_search(ctx, v_vector(ctx), BETA0, denoms=BASE_LATTICE, x_bound=5)
    oracle = naive_destabilizer_search(ctx, v_vector(ctx), BETA0, BASE_LATTICE, 5)
    assert [c.key() for c in found] == oracle
    # (0, 1/2) contains no half-integers, so the result is actually empty
    assert oracle == []


def test_search_matches_naive_oracle_on_random_targets():
    rng = random.Random(2718)
    for _ in range(60):
        d = rng.choice(DEGREES)
        ctx = FanoContext(d)
        target = ChernVector(
            rng.choice([0, 0, 1, -1, 2]),
            Fraction(rng.randint(-2, 4), rng.choice([1, 2])),
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 8])),
            0,
        )
        denoms = rng.choice([(2, 8), (2, 4), (1, 2)])
        found = destabilizer_search(ctx, target, BETA0, denoms=denoms, x_bound=3)
        oracle = naive_destabilizer_search(ctx, target, BETA0, denoms, 3)
        assert [c.key() for c in found] == oracle


def test_candidate_walls_are_concentric_for_torsion_targets():
    rng = random.Random(99)
    for _ in range(20):
        beta0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        c = rng.randint(1, 3)
        # a torsion class whose twisted character at beta0 is (0, c, 0)
        target = twist(ChernVector(0, c, 0, 0), -beta0)
        found = destabilizer_search(FanoContext(2), target, beta0, denoms=(2, 8), x_bound=4)
        for cand in found:
            assert cand.wall.kind == "semicircle"
            assert cand.wall.center_beta == beta0


def test_candidate_wall_radius_is_two_z_over_x():
    found = destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=(2, 16), x_bound=5)
    assert found
    for cand in found:
        assert cand.wall.radius_sq == 2 * cand.z / cand.x
        assert cand.wall.alpha_sq_at(BETA0) == 2 * cand.z / cand.x


@pytest.mark.parametrize("d", DEGREES)
def test_chamber_report_for_w(d):
    ctx = FanoContext(d)
    report = chamber_report(ctx, w_vector(ctx), BETA0)
    assert report.chamber_count == 2
    assert len(report.walls) == 1
    assert report.walls[0].alpha_sq == Fraction(1, 4)
    assert report.walls[0].candidates[0].key() == (1, Fraction(1, 2), Fraction(1, 8))
    assert report.torsion_rules is True
    assert report.decomposition_verified is True
    assert report.lattice == BASE_LATTICE


@pytest.mark.parametrize("denoms", [(2, 8), (2, 16), (2, 40)])
@pytest.mark.parametrize("d", DEGREES)
def test_wall_heights_agree_with_tilt_slopes(d, denoms):
    # the closed-form wall coefficients against the charges of the tilt module
    ctx = FanoContext(d)
    target = w_vector(ctx)
    report = chamber_report(ctx, target, BETA0, denoms=denoms)
    assert report.walls
    for crossing in report.walls:
        at_wall = StabilityParams(crossing.alpha_sq, BETA0)
        for cand in crossing.candidates:
            untwisted = twist(ChernVector(cand.x, cand.y, cand.z, 0), -BETA0)
            assert slope_tilt(ctx, at_wall, untwisted) == slope_tilt(ctx, at_wall, target)


def test_chamber_report_groups_walls_by_crossing_height():
    # a finer z-lattice produces several walls; they come back sorted by alpha^2
    report = chamber_report(CTX2, w_vector(CTX2), BETA0, denoms=(2, 16))
    alphas = [crossing.alpha_sq for crossing in report.walls]
    assert alphas == sorted(alphas)
    assert alphas == [Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)]
    assert report.chamber_count == 4
    lowest = report.walls[0]
    assert [c.key() for c in lowest.candidates] == [(2, Fraction(1, 2), Fraction(1, 16))]


def test_chamber_report_for_structure_sheaf():
    report = chamber_report(CTX2, line_bundle(0), BETA0)
    assert report.walls == ()
    assert report.chamber_count == 1
    assert report.torsion_rules is False
    assert report.decomposition_verified is None


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=(0, 8))
    with pytest.raises(ValueError):
        destabilizer_search(CTX2, w_vector(CTX2), BETA0, x_bound=-1)


@pytest.mark.parametrize("denoms", [(2, 8), (2, 24), (2, 40)])
@pytest.mark.parametrize("d", DEGREES)
def test_torsion_x_bound_is_certified(d, denoms):
    # z >= 1/z_denom and 2xz <= y^2 force x <= z_denom * y_max^2 / 2
    ctx = FanoContext(d)
    y_denom, z_denom = denoms
    bounds = {}
    for entry in catalog(d):
        target = entry.chern
        if target.r != 0:
            continue
        c1 = twist(target, BETA0).c1
        y_max = Fraction(math.ceil(c1 * y_denom) - 1, y_denom)
        bound = math.floor(z_denom * y_max * y_max / 2) if y_max > 0 else 0
        found = destabilizer_search(ctx, target, BETA0, denoms=denoms, x_bound=bound)
        assert found == destabilizer_search(ctx, target, BETA0, denoms=denoms, x_bound=2 * bound), entry.name
        assert all(cand.x <= bound for cand in found)
        bounds[target] = bound
    if (d, denoms) == (5, (2, 40)):
        assert bounds[w_vector(ctx)] == 5


def test_search_refuses_over_budget_lattices():
    # (x, y) points: 5 values of x times 10^7 - 1 values of y, refused before any list is built
    with pytest.raises(ValueError, match=str(SEARCH_BUDGET)) as points:
        destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=(10**7, 8))
    assert str(5 * (10**7 - 1)) in str(points.value)
    # one (x, y) point per x, but about 2.9 * 10^10 candidates in the z windows
    with pytest.raises(ValueError, match=str(SEARCH_BUDGET)) as candidates:
        destabilizer_search(CTX2, w_vector(CTX2), BETA0, denoms=(2, 10**11))
    total = sum(10**11 // (8 * x) for x in range(1, 6))
    assert str(total) in str(candidates.value)
