"""Root/line enumeration, pairing, nef and surface Riemann-Roch tests.

The degree-2 root system is cross-checked against the explicit families
alpha_i = 2e0 - e1 - ... - e7 + e_i, alpha_ij = e_i - e_j and
alpha_ijk = e0 - e_i - e_j - e_k, all with both signs; the other degrees are
pinned from the scan itself plus the saturation re-scan.  The orbit scan is
compared, order included, with a reference scan over every ordered
coordinate vector, and the orbit sizes (multinomials) give a second count
that does not use the permutation expansion.  The pruned ``_fill`` is fuzzed
against a brute-force filter, and its node count is pinned, so a lost prune
fails without any timing.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from math import factorial, isqrt, prod

import pytest

import kuwalls.delpezzo as delpezzo
from kuwalls.delpezzo import (
    DPContext,
    NefPosition,
    PicVector,
    _distinct_permutations,
    _fill,
    _orbits,
    enumerate_lines,
    enumerate_roots,
    intersect,
    is_root,
    nef_position,
    root_as_line_difference,
    surface_chi,
)

COUNTS = {1: (240, 240), 2: (126, 56), 3: (72, 27), 4: (40, 16), 5: (20, 10)}
# root systems A2 + A1 and A1 in degrees 6 and 7
ALL_COUNTS = {**COUNTS, 6: (8, 6), 7: (2, 3)}


def reference_fill(
    remaining: int,
    sum_needed: int,
    sq_needed: int,
    cmax: int,
    prefix: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Every ordered coordinate vector meeting the budgets, in lexicographic order."""
    if remaining == 0:
        if sum_needed == 0 and sq_needed == 0:
            out.append(tuple(prefix))
        return
    if sq_needed < 0:
        return
    m = min(cmax, isqrt(sq_needed))
    if abs(sum_needed) > remaining * m:
        return
    for c in range(-m, m + 1):
        prefix.append(c)
        reference_fill(remaining - 1, sum_needed - c, sq_needed - c * c, cmax, prefix, out)
        prefix.pop()


def reference_scan(ctx: DPContext, k_pairing: int, self_int: int, extra_box: int) -> list[PicVector]:
    """The ordered-vector scan the orbit scan replaced, kept as its reference."""
    d = ctx.dp_degree
    disc = (9 - d) * (k_pairing * k_pairing - d * self_int)
    if disc < 0:
        return []
    spread = isqrt(disc)
    a_lo = -((3 * k_pairing + spread) // d) - 1 - extra_box
    a_hi = (-3 * k_pairing + spread) // d + 1 + extra_box
    found: list[PicVector] = []
    for a in range(a_lo, a_hi + 1):
        sq_needed = a * a - self_int
        if sq_needed < 0:
            continue
        coords: list[tuple[int, ...]] = []
        reference_fill(ctx.rank, -3 * a - k_pairing, sq_needed, abs(a) + 1 + extra_box, [], coords)
        found.extend(PicVector(a, c) for c in coords)
    return found


def e(ctx: DPContext, i: int) -> PicVector:
    return ctx.exceptional(i)


def degree_two_root_families(ctx: DPContext) -> set[PicVector]:
    e0 = ctx.hyperplane
    total = sum((e(ctx, i) for i in range(2, 8)), e(ctx, 1))
    roots = set()
    for i in range(1, 8):
        roots.add(e0.scale(2) - total + e(ctx, i))
    for i, j in itertools.combinations(range(1, 8), 2):
        roots.add(e(ctx, i) - e(ctx, j))
    for i, j, k in itertools.combinations(range(1, 8), 3):
        roots.add(e0 - e(ctx, i) - e(ctx, j) - e(ctx, k))
    return roots | {-r for r in roots}


def test_intersection_form():
    ctx = DPContext(2)
    assert intersect(ctx, ctx.canonical, ctx.canonical) == 2
    assert intersect(ctx, e(ctx, 1) - e(ctx, 2), e(ctx, 1) - e(ctx, 2)) == -2
    assert intersect(ctx, e(ctx, 1), e(ctx, 2)) == 0
    assert intersect(ctx, ctx.hyperplane, ctx.hyperplane) == 1


@pytest.mark.parametrize("d", range(1, 8))
def test_canonical_square_is_the_degree(d):
    ctx = DPContext(d)
    assert intersect(ctx, ctx.canonical, ctx.canonical) == d


def test_rank_mismatch_rejected():
    ctx = DPContext(2)
    with pytest.raises(ValueError):
        intersect(ctx, DPContext(3).hyperplane, ctx.hyperplane)
    with pytest.raises(ValueError):
        nef_position(ctx, DPContext(3).hyperplane)
    with pytest.raises(ValueError):
        root_as_line_difference(ctx, DPContext(3).exceptional(1) - DPContext(3).exceptional(2))
    with pytest.raises(ValueError):
        DPContext(8)


@pytest.mark.parametrize("d", sorted(COUNTS))
def test_root_and_line_counts(d):
    ctx = DPContext(d)
    roots = enumerate_roots(ctx)
    lines = enumerate_lines(ctx)
    assert (len(roots), len(lines)) == COUNTS[d]
    # re-verify the defining equations on every returned vector
    for root in roots:
        assert intersect(ctx, root, ctx.canonical) == 0
        assert intersect(ctx, root, root) == -2
    for line in lines:
        assert intersect(ctx, line, ctx.canonical) == -1
        assert intersect(ctx, line, line) == -1
    # deterministic lexicographic order
    assert [r.as_tuple() for r in roots] == sorted(r.as_tuple() for r in roots)
    assert [l.as_tuple() for l in lines] == sorted(l.as_tuple() for l in lines)


def test_degree_two_roots_match_the_explicit_families():
    ctx = DPContext(2)
    expected = degree_two_root_families(ctx)
    assert len(expected) == 126
    assert set(enumerate_roots(ctx)) == expected


@pytest.mark.parametrize("d", sorted(COUNTS))
def test_enumeration_box_saturation(d):
    ctx = DPContext(d)
    assert enumerate_roots(ctx, extra_box=2) == enumerate_roots(ctx)
    assert enumerate_lines(ctx, extra_box=2) == enumerate_lines(ctx)


@pytest.mark.parametrize("extra_box", [0, 1, 2])
@pytest.mark.parametrize("d", range(1, 8))
def test_orbit_scan_matches_the_ordered_reference(d, extra_box):
    ctx = DPContext(d)
    assert enumerate_roots(ctx, extra_box=extra_box) == reference_scan(ctx, 0, -2, extra_box)
    assert enumerate_lines(ctx, extra_box=extra_box) == reference_scan(ctx, -1, -1, extra_box)


@functools.cache
def brute_force_fills(remaining: int, upper: int, cmax: int) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Every non-increasing tuple in [-cmax, upper]^remaining, grouped by (sum, sum of squares)."""
    by_budget: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for c in itertools.product(range(-cmax, upper + 1), repeat=remaining):
        if all(x >= y for x, y in zip(c, c[1:])):
            by_budget.setdefault((sum(c), sum(x * x for x in c)), []).append(c)
    return by_budget


def test_pruned_fill_matches_brute_force():
    rng = random.Random(20261018)
    hits = 0
    for _ in range(600):
        remaining = rng.randint(1, 5)
        cmax = rng.randint(0, 3)
        upper = rng.randint(-cmax, cmax)
        if rng.random() < 0.5:  # budgets of a tuple in the box, so the fill is not empty
            c = sorted((rng.randint(-cmax, upper) for _ in range(remaining)), reverse=True)
            sum_needed, sq_needed = sum(c), sum(x * x for x in c)
        else:
            sum_needed, sq_needed = rng.randint(-20, 20), rng.randint(0, 20)
        out: list[tuple[int, ...]] = []
        _fill(remaining, sum_needed, sq_needed, upper, cmax, [], out)
        expected = brute_force_fills(remaining, upper, cmax).get((sum_needed, sq_needed), [])
        # the fill runs each entry downward, so it yields reverse lexicographic order
        assert out == sorted(expected, reverse=True), (remaining, sum_needed, sq_needed, upper, cmax)
        hits += bool(out)
    assert hits > 200


def test_degree_one_fill_node_count(monkeypatch):
    """The two prunes keep the dp = 1 roots plus lines under 300 ``_fill`` calls (8950 without them)."""
    calls = 0
    fill = delpezzo._fill

    def counting_fill(*args):
        nonlocal calls
        calls += 1
        return fill(*args)

    monkeypatch.setattr(delpezzo, "_fill", counting_fill)
    ctx = DPContext(1)
    assert (len(enumerate_roots(ctx)), len(enumerate_lines(ctx))) == COUNTS[1]
    assert calls < 300


@pytest.mark.parametrize("orbit", [(1, 1, 0, 0, -1), (2, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0), (3, 2, 1, 0), (5,)])
def test_distinct_permutations_match_itertools(orbit):
    assert _distinct_permutations(orbit) == sorted(set(itertools.permutations(orbit)))


def multinomial(orbit: tuple[int, ...]) -> int:
    return factorial(len(orbit)) // prod(factorial(orbit.count(c)) for c in set(orbit))


@pytest.mark.parametrize("d", sorted(ALL_COUNTS))
def test_orbit_sizes_certify_the_counts(d):
    ctx = DPContext(d)
    root_orbits = _orbits(ctx, 0, -2, 0)
    line_orbits = _orbits(ctx, -1, -1, 0)
    for orbits in (root_orbits, line_orbits):
        assert len(set(orbits)) == len(orbits)
        assert all(list(c) == sorted(c, reverse=True) for _, c in orbits)
    counts = tuple(sum(multinomial(c) for _, c in orbits) for orbits in (root_orbits, line_orbits))
    assert counts == ALL_COUNTS[d]


def test_degree_one_scan_budget():
    ctx = DPContext(1)
    start = time.perf_counter()
    enumerate_roots(ctx)
    enumerate_lines(ctx)
    enumerate_roots(ctx, extra_box=1)
    enumerate_lines(ctx, extra_box=1)
    assert time.perf_counter() - start < 0.25


def test_scan_runtime_budget():
    start = time.perf_counter()
    for d in sorted(COUNTS):
        ctx = DPContext(d)
        enumerate_roots(ctx)
        enumerate_lines(ctx)
    assert time.perf_counter() - start < 2.0


def test_line_involution_pairs_without_fixed_points():
    ctx = DPContext(2)
    lines = enumerate_lines(ctx)
    line_set = set(lines)
    minus_k = -ctx.canonical
    pairs = set()
    for line in lines:
        partner = minus_k - line
        assert partner in line_set
        assert partner != line
        pairs.add(frozenset((line, partner)))
    assert len(pairs) == 28


def test_every_degree_two_root_is_a_difference_of_disjoint_lines():
    ctx = DPContext(2)
    line_set = set(enumerate_lines(ctx))
    for root in enumerate_roots(ctx):
        pair = root_as_line_difference(ctx, root)
        assert pair is not None
        first, second = pair
        assert first in line_set and second in line_set
        assert intersect(ctx, first, second) == 0
        assert first - second == root


def test_difference_of_disjoint_lines_is_a_root():
    ctx = DPContext(2)
    lines = enumerate_lines(ctx)
    for first, second in itertools.permutations(lines, 2):
        if intersect(ctx, first, second) == 0:
            assert is_root(ctx, first - second)


def test_line_difference_examples():
    ctx = DPContext(2)
    assert root_as_line_difference(ctx, e(ctx, 1) - e(ctx, 2)) == (e(ctx, 1), e(ctx, 2))
    alpha_123 = ctx.hyperplane - e(ctx, 1) - e(ctx, 2) - e(ctx, 3)
    pair = root_as_line_difference(ctx, alpha_123)
    assert pair is not None
    first, second = pair
    assert first - second == alpha_123 and intersect(ctx, first, second) == 0
    with pytest.raises(ValueError):
        root_as_line_difference(ctx, e(ctx, 1))


def test_nef_positions():
    ctx = DPContext(2)
    k = ctx.canonical
    for root in enumerate_roots(ctx):
        assert nef_position(ctx, root - k.scale(2)) is NefPosition.INTERIOR
    assert nef_position(ctx, -k) is NefPosition.INTERIOR
    assert nef_position(ctx, e(ctx, 1)) is NefPosition.OUTSIDE
    # e0 pairs to zero with the exceptional lines: nef but not ample
    assert nef_position(ctx, ctx.hyperplane) is NefPosition.BOUNDARY
    with pytest.raises(ValueError):
        nef_position(DPContext(1), k)


def test_surface_chi_triple_on_roots():
    ctx = DPContext(2)
    h = -ctx.canonical  # the restriction of the polarization is anticanonical
    for root in enumerate_roots(ctx):
        assert surface_chi(ctx, root) == 0
        assert surface_chi(ctx, root - h) == 0
        assert surface_chi(ctx, root + h) == 2


def test_surface_chi_basics():
    ctx = DPContext(2)
    assert surface_chi(ctx, PicVector(0, (0,) * 7)) == 1  # chi(O)
    assert surface_chi(ctx, -ctx.canonical) == 1 + Fraction(2 + 2, 2)  # chi(-K) = 3
