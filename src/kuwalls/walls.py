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
alpha^2 > 0, and 0 <= Delta(candidate) <= Delta(target).  The discriminant
sandwich pins z to a finite interval once x != 0; rank-zero candidates admit
no such interval and are excluded from the scan (for torsion targets they
are already ruled out by the sign constraint below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .chern import ChernVector, FanoContext, Rational, _frac, line_bundle, point_ideal, twist, w_vector
from .tilt import discriminant

#: Denominator lattice (for y and z) under which the class-w search at
#: beta = -1/2 produces its single wall; the default of every search.
BASE_LATTICE = (2, 8)


@dataclass(frozen=True)
class WallLocus:
    """A numerical wall: a semicircle centered on the beta-axis, or a vertical line."""

    kind: str  # "semicircle" | "vertical"
    center_beta: Fraction | None = None
    radius_sq: Fraction | None = None
    beta0: Fraction | None = None

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


@dataclass(frozen=True)
class DestabilizerCandidate:
    """Twisted truncated class (x, y, z) at the search's beta0, with its wall."""

    x: int
    y: Fraction
    z: Fraction
    wall: WallLocus

    def key(self) -> tuple[int, Fraction, Fraction]:
        return (self.x, self.y, self.z)


def _wall_alpha_sq(
    t_target: tuple[Fraction, Fraction, Fraction], x: int, y: Fraction, z: Fraction
) -> Fraction | None:
    """alpha^2 of slope equality at the search line, from twisted coordinates."""
    r1, c1, s1 = t_target
    denom = r1 * y - x * c1
    if denom == 0:
        return None
    alpha_sq = 2 * (s1 * y - z * c1) / denom
    return alpha_sq if alpha_sq > 0 else None


def _lattice_points(lo: Fraction, hi: Fraction, denom: int, strict: bool) -> list[Fraction]:
    """Multiples of 1/denom in [lo, hi] (or the open interval when strict)."""
    first = math.ceil(lo * denom)
    last = math.floor(hi * denom)
    points = [Fraction(k, denom) for k in range(first, last + 1)]
    if strict:
        points = [p for p in points if lo < p < hi]
    return points


def _search_x_slice(
    x: int,
    ys: list[Fraction],
    t_target: tuple[Fraction, Fraction, Fraction],
    delta_target: Fraction,
    z_denom: int,
    torsion_rules: bool,
) -> list[tuple[int, Fraction, Fraction]]:
    found = []
    for y in ys:
        # 0 <= y^2 - 2xz <= Delta(target) pins z to one closed interval.
        bounds = sorted(((y * y - delta_target) / (2 * x), (y * y) / (2 * x)))
        for z in _lattice_points(bounds[0], bounds[1], z_denom, strict=False):
            if torsion_rules and z <= 0:
                continue
            if _wall_alpha_sq(t_target, x, y, z) is None:
                continue
            found.append((x, y, z))
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

    The lattice defaults to (2, 8) in every degree, as in ``chamber_report``;
    refined lattices such as (2, 24) are searched only when passed explicitly.
    """
    beta0 = _frac(beta0)
    y_denom, z_denom = denoms
    if y_denom < 1 or z_denom < 1 or x_bound < 0:
        raise ValueError("denominators must be >= 1 and x_bound >= 0")

    t = twist(target, beta0)
    t_target = t.truncated()
    delta_target = discriminant(target)
    torsion_rules = target.r == 0

    ys = _lattice_points(Fraction(0), t.c1, y_denom, strict=True) if t.c1 > 0 else []
    if not ys or delta_target < 0:
        return []

    xs = [x for x in range(-x_bound, x_bound + 1) if x != 0]
    if torsion_rules:
        xs = [x for x in xs if x > 0]

    triples = sorted(
        triple for x in xs for triple in _search_x_slice(x, ys, t_target, delta_target, z_denom, torsion_rules)
    )
    candidates = []
    for x, y, z in triples:
        candidate_untwisted = twist(ChernVector(x, y, z, 0), -beta0)
        wall = numerical_wall(ctx, target, candidate_untwisted)
        assert wall is not None  # alpha^2 > 0 at beta0 guarantees a real locus
        candidates.append(DestabilizerCandidate(x=x, y=y, z=z, wall=wall))
    return candidates


@dataclass(frozen=True)
class WallCrossing:
    """One wall met by the line beta = beta0, with the candidates cutting it out."""

    alpha_sq: Fraction
    locus: WallLocus
    candidates: tuple[DestabilizerCandidate, ...]


@dataclass(frozen=True)
class ChamberReport:
    """Walls crossing a vertical line, chamber count, and the rule set used."""

    degree: int
    target: ChernVector
    beta0: Fraction
    lattice: tuple[int, int]
    x_bound: int
    torsion_rules: bool
    walls: tuple[WallCrossing, ...] = field(default_factory=tuple)
    decomposition_verified: bool | None = None

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
    candidates = destabilizer_search(ctx, target, beta0, denoms=denoms, x_bound=x_bound)

    by_alpha: dict[Fraction, list[DestabilizerCandidate]] = {}
    t = twist(target, beta0).truncated()
    for cand in candidates:
        alpha_sq = _wall_alpha_sq(t, cand.x, cand.y, cand.z)
        assert alpha_sq is not None
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
