"""Root and line combinatorics on del Pezzo Picard lattices.

A degree-d del Pezzo surface blown up from the plane has Picard lattice
I^(1,9-d) with basis e0 (the pulled-back line) and the exceptional classes
e1..e(9-d); the intersection form is diag(1, -1, ..., -1) and the canonical
class is K = -3 e0 + sum(e_i).  Roots are classes D with D.K = 0, D^2 = -2;
lines are classes L with L.K = L^2 = -1.

Enumeration is certified complete without root-system tables: writing
D = a e0 + sum(c_i e_i), the two defining equations fix sum(c_i) and
sum(c_i^2), so Cauchy-Schwarz bounds a^2 <= 2(9-d)/d for roots (similarly
for lines) and each |c_i| is at most |a| + 1.

Both equations and that box are invariant under permuting e1..e(9-d), so
for each a the scan fills only non-increasing coordinate tuples, one per
permutation orbit, and expands each orbit into its distinct orderings.
Filling the entries left to right, with n entries still open that must sum
to s and whose squares must sum to q, the scan cuts a branch by two bounds:

* Cauchy-Schwarz on the open entries, s^2 <= n q: a branch with
  s^2 > n q has no real completion, let alone an integer one.
* The mean: the entries are non-increasing, so the next one is the
  largest of the n open ones and hence at least their mean s / n; the
  scan starts it at ceil(s / n) instead of at the bottom of the box.

Both only drop branches that have no completion inside any box, and the
box itself stays symmetric, so re-running the scan on an enlarged box
(``extra_box``) is still a genuine saturation check of the certified
bounds.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from math import isqrt

from ._record import Record


class PicVector(Record):
    """Integer vector a e0 + sum(c_i e_i) in the Picard lattice of the surface."""

    __slots__ = ("e0", "e")
    e0: int
    e: tuple[int, ...]

    def __init__(self, e0: int, e: tuple[int, ...]) -> None:
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "e", e)

    def as_tuple(self) -> tuple[int, ...]:
        return (self.e0, *self.e)

    def __add__(self, other: "PicVector") -> "PicVector":
        return PicVector(self.e0 + other.e0, tuple(a + b for a, b in zip(self.e, other.e, strict=True)))

    def __sub__(self, other: "PicVector") -> "PicVector":
        return PicVector(self.e0 - other.e0, tuple(a - b for a, b in zip(self.e, other.e, strict=True)))

    def __neg__(self) -> "PicVector":
        return PicVector(-self.e0, tuple(-a for a in self.e))

    def scale(self, n: int) -> "PicVector":
        return PicVector(n * self.e0, tuple(n * a for a in self.e))


class DPContext(Record):
    """A del Pezzo surface of degree K^2 = dp_degree, 1 <= dp_degree <= 7."""

    __slots__ = ("dp_degree",)
    dp_degree: int

    def __init__(self, dp_degree: int) -> None:
        if not 1 <= dp_degree <= 7:
            raise ValueError(f"dp_degree must be in 1..7, got {dp_degree}")
        object.__setattr__(self, "dp_degree", dp_degree)

    @property
    def rank(self) -> int:
        """Number of exceptional classes, 9 - dp_degree."""
        return 9 - self.dp_degree

    @property
    def canonical(self) -> PicVector:
        return PicVector(-3, (1,) * self.rank)

    def exceptional(self, i: int) -> PicVector:
        """The class e_i, 1-indexed."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"index must be in 1..{self.rank}")
        coords = [0] * self.rank
        coords[i - 1] = 1
        return PicVector(0, tuple(coords))

    @property
    def hyperplane(self) -> PicVector:
        """e0, the class of a line of the plane."""
        return PicVector(1, (0,) * self.rank)


def intersect(ctx: DPContext, x: PicVector, y: PicVector) -> int:
    """Signature (1, 9-d) pairing: x.e0 y.e0 - sum(x_i y_i)."""
    if len(x.e) != ctx.rank or len(y.e) != ctx.rank:
        raise ValueError(f"rank mismatch: expected {ctx.rank} exceptional coordinates")
    return x.e0 * y.e0 - sum(a * b for a, b in zip(x.e, y.e))


def _fill(
    remaining: int,
    sum_needed: int,
    sq_needed: int,
    upper: int,
    cmax: int,
    prefix: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Append every non-increasing completion of ``prefix`` with entries <= ``upper``.

    ``upper`` is the previous entry, or ``cmax`` for the first one, so the
    entries also stay in the symmetric box [-cmax, cmax].  The ``remaining``
    open entries c_1 >= c_2 >= ... must have sum ``sum_needed`` (s) and sum of
    squares ``sq_needed`` (q).  Two bounds cut a branch before its loop:

    * Cauchy-Schwarz, (sum c_i)^2 <= remaining * sum c_i^2: when
      s^2 > remaining * q no real completion exists.
    * The mean: c_1 is the largest open entry, so c_1 >= s / remaining and
      the loop stops at ceil(s / remaining).

    Neither depends on ``cmax``, and each drops only branches without a
    completion, so the output is that of the plain box scan for every box
    and a scan on an enlarged box is still a real saturation check.
    """
    if remaining == 0:
        if sum_needed == 0 and sq_needed == 0:
            out.append(tuple(prefix))
        return
    if sum_needed * sum_needed > remaining * sq_needed:
        return
    root = isqrt(sq_needed)
    hi = min(upper, root)
    lo = max(-cmax, -root)
    # every remaining entry lies in [lo, hi], so the remaining sum does too
    if not remaining * lo <= sum_needed <= remaining * hi:
        return
    lo = max(lo, -(-sum_needed // remaining))
    for c in range(hi, lo - 1, -1):
        prefix.append(c)
        _fill(remaining - 1, sum_needed - c, sq_needed - c * c, c, cmax, prefix, out)
        prefix.pop()


def _distinct_permutations(orbit: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct ordering of ``orbit``, in lexicographic order (next-permutation)."""
    p = sorted(orbit)
    n = len(p)
    out = [tuple(p)]
    while True:
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = p[:i:-1]
        out.append(tuple(p))


def _orbits(ctx: DPContext, k_pairing: int, self_int: int, extra_box: int) -> list[tuple[int, tuple[int, ...]]]:
    """(a, c) with c non-increasing, one per permutation orbit of the solutions.

    The equations translate to sum(c_i) = -3a - k_pairing and
    sum(c_i^2) = a^2 - self_int; the a-range comes from Cauchy-Schwarz,
    widened by ``extra_box`` (as is the per-coordinate box) for saturation
    re-scans.
    """
    n = ctx.rank
    d = ctx.dp_degree
    # (9-d) a^2 + 6 k a + (k^2 + n self_int) <= 0; widen the integer interval outward.
    disc = (9 - d) * (k_pairing * k_pairing - d * self_int)
    if disc < 0:
        return []
    spread = isqrt(disc)
    a_lo = -((3 * k_pairing + spread) // d) - 1 - extra_box
    a_hi = (-3 * k_pairing + spread) // d + 1 + extra_box

    found: list[tuple[int, tuple[int, ...]]] = []
    for a in range(a_lo, a_hi + 1):
        sq_needed = a * a - self_int
        if sq_needed < 0:
            continue
        cmax = abs(a) + 1 + extra_box
        coords: list[tuple[int, ...]] = []
        _fill(n, -3 * a - k_pairing, sq_needed, cmax, cmax, [], coords)
        found.extend((a, c) for c in coords)
    return found


def _scan(ctx: DPContext, k_pairing: int, self_int: int, extra_box: int) -> list[PicVector]:
    """All D with D.K = k_pairing and D^2 = self_int, in lexicographic order.

    Fills one non-increasing tuple per permutation orbit of e1..e(9-d)
    (``_orbits``) and expands each into its distinct orderings.  The a-range
    and the box |c_i| <= |a| + 1 + ``extra_box`` are those of a scan over
    every ordered vector; the box is symmetric and ``_fill`` prunes only
    branches without a completion, so an ``extra_box`` > 0 re-scan is still a
    genuine saturation check of the certified bounds.
    """
    expanded = sorted(
        (a, c) for a, orbit in _orbits(ctx, k_pairing, self_int, extra_box) for c in _distinct_permutations(orbit)
    )
    return [PicVector(a, c) for a, c in expanded]


def enumerate_roots(ctx: DPContext, extra_box: int = 0) -> list[PicVector]:
    """All roots (D.K = 0, D^2 = -2), sorted lexicographically on (e0, e)."""
    return _scan(ctx, k_pairing=0, self_int=-2, extra_box=extra_box)


def enumerate_lines(ctx: DPContext, extra_box: int = 0) -> list[PicVector]:
    """All lines (L.K = L^2 = -1), sorted lexicographically on (e0, e)."""
    return _scan(ctx, k_pairing=-1, self_int=-1, extra_box=extra_box)


@functools.lru_cache(maxsize=None)
def _line_data(ctx: DPContext) -> tuple[tuple[PicVector, ...], frozenset[PicVector]]:
    lines = tuple(enumerate_lines(ctx))
    return lines, frozenset(lines)


def is_root(ctx: DPContext, x: PicVector) -> bool:
    return intersect(ctx, x, ctx.canonical) == 0 and intersect(ctx, x, x) == -2


def root_as_line_difference(ctx: DPContext, root: PicVector) -> tuple[PicVector, PicVector] | None:
    """Disjoint lines (L1, L2) with L1 - L2 = root, first pair in lexicographic order."""
    if not is_root(ctx, root):
        raise ValueError(f"{root.as_tuple()} is not a root")
    lines, line_set = _line_data(ctx)
    for first in lines:  # lines are sorted, so the first hit is lexicographically least
        second = first - root
        if second in line_set and intersect(ctx, first, second) == 0:
            return (first, second)
    return None


def line_pairs(ctx: DPContext) -> list[tuple[PicVector, PicVector]]:
    """The orbits {L, -K-L} of the lines, each sorted, in the order of their first line.

    -K-L is again a line only in degree 2, where L -> -K-L is the Geiser
    involution; in other degrees the second entry is just the class -K-L.
    """
    lines, _ = _line_data(ctx)
    minus_k = -ctx.canonical
    return list(dict.fromkeys(tuple(sorted((line, minus_k - line), key=PicVector.as_tuple)) for line in lines))


class NefPosition(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def nef_position(ctx: DPContext, x: PicVector) -> NefPosition:
    """Position of a class relative to the nef cone of a degree-2 surface.

    On a degree-2 del Pezzo the effective cone is spanned by the 56 lines, so
    nef is exactly "non-negative against every line"; interior additionally
    demands strict positivity and positive self-intersection.  The analogous
    characterisation in degree 1 is not certified here, hence the restriction.
    """
    if ctx.dp_degree != 2:
        raise ValueError("nef_position is only certified for dp_degree = 2")
    lines, _ = _line_data(ctx)
    products = [intersect(ctx, x, line) for line in lines]
    self_int = intersect(ctx, x, x)
    if all(p > 0 for p in products) and self_int > 0:
        return NefPosition.INTERIOR
    if all(p >= 0 for p in products) and self_int >= 0:
        return NefPosition.BOUNDARY
    return NefPosition.OUTSIDE


def nef_interior_count(ctx: DPContext, roots: list[PicVector]) -> int:
    """How many of the classes D - 2K, D in ``roots``, lie in the interior of the nef cone."""
    two_k = ctx.canonical.scale(2)
    return sum(1 for root in roots if nef_position(ctx, root - two_k) is NefPosition.INTERIOR)


def surface_chi(ctx: DPContext, divisor: PicVector) -> Fraction:
    """Riemann-Roch on the surface: chi(O(D)) = 1 + (D^2 - K.D)/2.

    This is the smooth case; the correction term for singular sections is
    non-positive and outside numeric scope, so it is taken to be zero.
    """
    d_sq = intersect(ctx, divisor, divisor)
    k_d = intersect(ctx, ctx.canonical, divisor)
    return 1 + Fraction(d_sq - k_d, 2)
