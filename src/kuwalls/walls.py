"""Numerical walls in the (beta, alpha) half-plane and destabilizer search.

For truncated classes u = (r, c, s) and u' = (r', c', s') the locus of slope
equality Re Z(u) Im Z(u') = Re Z(u') Im Z(u) works out to

    (A/2) (alpha^2 + beta^2) - B beta - C = 0,

with A = c r' - c' r, B = s r' - s' r, C = c s' - c' s.  For A != 0 this is a
semicircle centered on the beta-axis; for A = 0, B != 0 a vertical line; and
for A = B = 0 the equation is degenerate (empty or everything).  The overall
factor d of the charges drops out, so wall loci are degree-uniform.

The destabilizer search enumerates twisted triples (x, y, z) at a fixed
beta0 on a configurable denominator lattice, subject to the constraints the
class-w analysis derives: 0 < y < ch1^beta0(target), a solvable wall with
alpha^2 > 0, and 0 <= Delta(candidate) <= Delta(target).  The search runs
on integer numerators: the twisted target is (R1, C1, S1) / T and a candidate
is (x, Y / y_denom, Z / z_denom).  For each (x, Y) the discriminant sandwich
pins Z to one closed interval once x != 0, found by exact floor and ceiling
division; rank-zero candidates admit no such interval and are excluded (for
torsion targets they are already ruled out by the sign constraint).  Since
ch1^beta0(target) > 0, the numerator of alpha^2 falls strictly in z, so
alpha^2 > 0 is a half-line in Z as well, and intersecting the two intervals
(and z > 0 for torsion targets) admits candidates without testing any point.
Each wall is computed from the twisted coordinates, where the beta-axis is
shifted by beta0, and its centre shifted back by beta0.  The denominator of
alpha^2 is -A, so every admitted candidate has A != 0: the walls found are
always semicircles, never vertical lines.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .chern import ChernVector, FanoContext, Rational, _frac, _over_lcm, line_bundle, point_ideal, twist, w_vector

#: Denominator lattice (for y and z) under which the class-w search at
#: beta = -1/2 produces its single wall; the default of every search.
BASE_LATTICE = (2, 8)

#: Most (x, y) points, and most candidates, one wall search may visit or build.
SEARCH_BUDGET = 10**6


class WallLocus(Record):
    """A numerical wall: a semicircle centered on the beta-axis, or a vertical line."""

    __slots__ = ("kind", "center_beta", "radius_sq", "beta0")
    kind: str  # "semicircle" | "vertical"
    center_beta: Fraction | None
    radius_sq: Fraction | None
    beta0: Fraction | None

    def __init__(
        self,
        kind: str,
        center_beta: Fraction | None = None,
        radius_sq: Fraction | None = None,
        beta0: Fraction | None = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "center_beta", center_beta)
        object.__setattr__(self, "radius_sq", radius_sq)
        object.__setattr__(self, "beta0", beta0)

    @classmethod
    def semicircle(cls, center_beta: Rational, radius_sq: Rational) -> "WallLocus":
        radius_sq = _frac(radius_sq)
        if radius_sq <= 0:
            raise ValueError("semicircle needs radius_sq > 0")
        return cls(kind="semicircle", center_beta=_frac(center_beta), radius_sq=radius_sq)

    @classmethod
    def vertical(cls, beta0: Rational) -> "WallLocus":
        return cls(kind="vertical", beta0=_frac(beta0))

    def alpha_sq_at(self, beta: Rational) -> Fraction | None:
        """alpha^2 where the wall crosses the line at ``beta``, if it does with alpha > 0."""
        beta = _frac(beta)
        if self.kind == "vertical":
            return None
        assert self.center_beta is not None and self.radius_sq is not None
        value = self.radius_sq - (beta - self.center_beta) ** 2
        return value if value > 0 else None


def _wall_coefficients(target: ChernVector, other: ChernVector) -> tuple[Fraction, Fraction, Fraction]:
    r1, c1, s1 = target.truncated()
    r2, c2, s2 = other.truncated()
    a = c1 * r2 - c2 * r1
    b = s1 * r2 - s2 * r1
    c = c1 * s2 - c2 * s1
    return a, b, c


def numerical_wall(ctx: FanoContext, target: ChernVector, other: ChernVector) -> WallLocus | None:
    """The locus of slope equality of the two classes, or None when degenerate.

    Proportional truncated classes give an identically-zero equation and
    return None; so do semicircles of non-positive radius (empty loci).
    """
    a, b, c = _wall_coefficients(target, other)
    if a != 0:
        center = b / a
        radius_sq = center * center + 2 * c / a
        if radius_sq <= 0:
            return None
        return WallLocus.semicircle(center, radius_sq)
    if b != 0:
        return WallLocus.vertical(-c / b)
    return None


class DestabilizerCandidate(Record):
    """Twisted truncated class (x, y, z) at the search's beta0, with its wall."""

    __slots__ = ("x", "y", "z", "wall")
    x: int
    y: Fraction
    z: Fraction
    wall: WallLocus

    def __init__(self, x: int, y: Fraction, z: Fraction, wall: WallLocus) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "wall", wall)

    def key(self) -> tuple[int, Fraction, Fraction]:
        return (self.x, self.y, self.z)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _search(
    target: ChernVector, beta0: Fraction, denoms: tuple[int, int], x_bound: int
) -> list[tuple[Fraction, DestabilizerCandidate]]:
    """The admitted candidates in (x, y, z) order, each with the alpha^2 of its wall at beta0.

    Works on integer numerators: the twisted target (r1, c1, s1) is
    (R1, C1, S1) / T, and a candidate is (x, Y / y_denom, Z / z_denom).
    """
    y_denom, z_denom = denoms
    if y_denom < 1 or z_denom < 1 or x_bound < 0:
        raise ValueError("denominators must be >= 1 and x_bound >= 0")

    R1, C1, S1, big_t = _over_lcm(*twist(target, beta0).truncated())
    # Delta = c1^2 - 2 r1 s1 is twist invariant; here it is delta_num / T^2.
    delta_num = C1 * C1 - 2 * R1 * S1
    torsion_rules = target.r == 0

    # 0 < Y / y_denom < c1
    y_count = (C1 * y_denom - 1) // big_t if C1 > 0 else 0
    if y_count < 1 or delta_num < 0:
        return []
    x_count = x_bound if torsion_rules else 2 * x_bound
    if x_count * y_count > SEARCH_BUDGET:
        raise ValueError(
            f"wall search over {x_count * y_count} (x, y) points is over the budget of {SEARCH_BUDGET}"
        )
    xs = range(1, x_bound + 1) if torsion_rules else [x for x in range(-x_bound, x_bound + 1) if x != 0]

    # Times y_denom^2 z_denom T^2, the window 0 <= y^2 - 2xz <= Delta reads
    # 0 <= Y^2 z_denom T^2 - 2x y_denom^2 T^2 Z <= delta_num y_denom^2 z_denom.
    window = delta_num * y_denom * y_denom * z_denom
    y_step = C1 * y_denom
    intervals = []
    total = 0
    for x in xs:
        slope = 2 * x * y_denom * y_denom * big_t * big_t
        x_shift = C1 * x * y_denom
        for Y in range(1, y_count + 1):
            top = Y * Y * z_denom * big_t * big_t
            if slope > 0:
                z_lo, z_hi = _ceil_div(top - window, slope), top // slope
            else:
                z_lo, z_hi = _ceil_div(top, slope), (top - window) // slope
            if torsion_rules:
                z_lo = max(z_lo, 1)
            # alpha^2 = 2 (S1 Y z_denom - Z C1 y_denom) / (z_denom (R1 Y - C1 x y_denom)):
            # the numerator falls in Z (C1 > 0), so alpha^2 > 0 is a half-line in Z.
            alpha_den = R1 * Y - x_shift
            if alpha_den == 0:
                continue
            s_y = S1 * Y * z_denom
            if alpha_den > 0:
                z_hi = min(z_hi, (s_y - 1) // y_step)
            else:
                z_lo = max(z_lo, s_y // y_step + 1)
            if z_lo <= z_hi:
                intervals.append((x, Y, z_lo, z_hi, alpha_den, s_y))
                total += z_hi - z_lo + 1
    if total > SEARCH_BUDGET:
        raise ValueError(f"wall search would build {total} candidates, over the budget of {SEARCH_BUDGET}")

    found = []
    p0, q0 = beta0.numerator, beta0.denominator
    for x, Y, z_lo, z_hi, alpha_den, s_y in intervals:
        y = Fraction(Y, y_denom)
        # The wall in twisted coordinates: A = c1 x - y r1, B = s1 x - z r1,
        # C = c1 z - y s1, so A T y_denom = -alpha_den, never 0 here.
        a_num = -alpha_den
        assert a_num != 0
        b_x = S1 * x * z_denom
        for Z in range(z_lo, z_hi + 1):
            alpha_num = s_y - Z * y_step
            # centre B/A = b_num / (z_denom a_num), shifted back by beta0;
            # radius^2 = (B/A)^2 + 2C/A, and 2C/A is alpha^2 at beta0.
            b_num = (b_x - Z * R1) * y_denom
            centre_den = z_denom * a_num
            wall = WallLocus.semicircle(
                Fraction(p0 * centre_den + q0 * b_num, q0 * centre_den),
                Fraction(b_num * b_num - 2 * alpha_num * centre_den, centre_den * centre_den),
            )
            candidate = DestabilizerCandidate(x=x, y=y, z=Fraction(Z, z_denom), wall=wall)
            found.append((Fraction(2 * alpha_num, z_denom * alpha_den), candidate))
    return found


def destabilizer_search(
    ctx: FanoContext,
    target: ChernVector,
    beta0: Rational,
    denoms: tuple[int, int] = BASE_LATTICE,
    x_bound: int = 5,
) -> list[DestabilizerCandidate]:
    """All admissible destabilizing triples for ``target`` on the line beta = beta0.

    For torsion targets (ch0 = 0) the candidate is normalised to the
    subobject side of the destabilizing pair: x and z must both be positive
    (the mirror triple with both signs flipped describes the quotient of the
    same wall).  Candidates are sorted lexicographically by (x, y, z).

    For torsion targets the bound on x is certified: z >= 1/z_denom and
    2xz <= y^2 force x <= z_denom * y_max^2 / 2, with y_max the largest
    lattice value below ch1^beta0, so any ``x_bound`` at or above it finds
    every candidate (for the class w on (2, 40) it is 5, the default).

    The lattice defaults to (2, 8) in every degree, as in ``chamber_report``;
    refined lattices such as (2, 24) are searched only when passed explicitly.
    A search over more than ``SEARCH_BUDGET`` (x, y) points or candidates
    raises ``ValueError`` before building them.
    """
    return [candidate for _, candidate in _search(target, _frac(beta0), denoms, x_bound)]


class WallCrossing(Record):
    """One wall met by the line beta = beta0, with the candidates cutting it out."""

    __slots__ = ("alpha_sq", "locus", "candidates")
    alpha_sq: Fraction
    locus: WallLocus
    candidates: tuple[DestabilizerCandidate, ...]

    def __init__(self, alpha_sq: Fraction, locus: WallLocus, candidates: tuple[DestabilizerCandidate, ...]) -> None:
        object.__setattr__(self, "alpha_sq", alpha_sq)
        object.__setattr__(self, "locus", locus)
        object.__setattr__(self, "candidates", candidates)


class ChamberReport(Record):
    """Walls crossing a vertical line, chamber count, and the rule set used."""

    __slots__ = ("degree", "target", "beta0", "lattice", "x_bound", "torsion_rules", "walls", "decomposition_verified")
    degree: int
    target: ChernVector
    beta0: Fraction
    lattice: tuple[int, int]
    x_bound: int
    torsion_rules: bool
    walls: tuple[WallCrossing, ...]
    decomposition_verified: bool | None

    def __init__(
        self,
        degree: int,
        target: ChernVector,
        beta0: Fraction,
        lattice: tuple[int, int],
        x_bound: int,
        torsion_rules: bool,
        walls: tuple[WallCrossing, ...] = (),
        decomposition_verified: bool | None = None,
    ) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "x_bound", x_bound)
        object.__setattr__(self, "torsion_rules", torsion_rules)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "decomposition_verified", decomposition_verified)

    @property
    def chamber_count(self) -> int:
        return len(self.walls) + 1


def w_decomposition_holds(ctx: FanoContext, target: ChernVector) -> bool | None:
    """Exact check of ch(I_p) + ch(O(-1)[1]) = target, for the class-w target only."""
    if target != w_vector(ctx):
        return None
    return point_ideal(ctx) + (-line_bundle(-1)) == target


def chamber_report(
    ctx: FanoContext,
    target: ChernVector,
    beta0: Rational,
    denoms: tuple[int, int] = BASE_LATTICE,
    x_bound: int = 5,
) -> ChamberReport:
    """Walls met by the line beta = beta0, sorted by alpha, for the given target.

    The lattice defaults to (2, 8) uniformly in the degree, which is the
    setting under which the class-w wall analysis produces its single wall;
    the report records the lattice and rule set actually used.
    """
    beta0 = _frac(beta0)
    by_alpha: dict[Fraction, list[DestabilizerCandidate]] = {}
    for alpha_sq, cand in _search(target, beta0, denoms, x_bound):
        by_alpha.setdefault(alpha_sq, []).append(cand)

    walls = tuple(
        WallCrossing(alpha_sq=a, locus=group[0].wall, candidates=tuple(group))
        for a, group in sorted(by_alpha.items())
    )
    return ChamberReport(
        degree=ctx.degree,
        target=target,
        beta0=beta0,
        lattice=denoms,
        x_bound=x_bound,
        torsion_rules=target.r == 0,
        walls=walls,
        decomposition_verified=w_decomposition_holds(ctx, target),
    )
