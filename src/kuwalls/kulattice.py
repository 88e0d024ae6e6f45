"""The rank-2 numerical lattice of the residual category, spanned by v and w.

In the basis (v, w) the Euler pairing is

    [ -1   -1 ]
    [ 1-d  -d ]

(rows pair on the left).  ``class_from_chern`` projects a cohomology class
onto integer (or rational, flagged) coordinates, the rotation autoequivalence
acts by v -> w - v, w -> w - 2v, and ``check_ext_table`` runs the numeric
consistency checks available for tables of Ext dimensions: alternating sum,
vanishing of Ext^3, and (when the object is fixed by the Serre involution)
the symmetry dim Ext^i = dim Ext^(2-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernVector, DEGREES, FanoContext, chi_pair, v_vector, w_vector

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class KuClass:
    """Integer coordinates (a, b) with respect to the basis (v, w)."""

    a: int
    b: int

    def __add__(self, other: "KuClass") -> "KuClass":
        return KuClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "KuClass") -> "KuClass":
        return KuClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "KuClass":
        return KuClass(-self.a, -self.b)


V = KuClass(1, 0)
W = KuClass(0, 1)


def euler_matrix(d: int) -> Matrix2:
    if d not in DEGREES:
        raise ValueError(f"degree must be one of {DEGREES}, got {d}")
    return ((-1, -1), (1 - d, -d))


def euler_matrix_from_chern(ctx: FanoContext) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The pairing matrix on (v, w) by Riemann-Roch, independent of ``euler_matrix``."""
    v, w = v_vector(ctx), w_vector(ctx)
    return (
        (chi_pair(ctx, v, v), chi_pair(ctx, v, w)),
        (chi_pair(ctx, w, v), chi_pair(ctx, w, w)),
    )


def euler_form(d: int, p: KuClass, q: KuClass) -> int:
    """chi(p, q) via the pairing matrix; p pairs on the left."""
    m = euler_matrix(d)
    return (
        p.a * (m[0][0] * q.a + m[0][1] * q.b)
        + p.b * (m[1][0] * q.a + m[1][1] * q.b)
    )


class NotInKuSpanError(ValueError):
    """The class does not lie in the Q-span of v and w; names the failing coefficient."""

    def __init__(self, coefficient: str, expected: Fraction, actual: Fraction):
        self.coefficient = coefficient
        self.expected = expected
        self.actual = actual
        super().__init__(f"not in the span of v and w: {coefficient} should be {expected}, got {actual}")


@dataclass(frozen=True)
class KuCoordinates:
    """Exact coordinates of a class in the (v, w) basis, with an integrality flag.

    Rational, non-integer coordinates are legitimate scratch values (halves of
    classes and the like), so they are flagged rather than rejected.
    """

    a: Fraction
    b: Fraction

    @property
    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def as_ku_class(self) -> KuClass:
        if not self.is_integral:
            raise ValueError(f"coordinates ({self.a}, {self.b}) are not integral")
        return KuClass(int(self.a), int(self.b))


def embed(ctx: FanoContext, cls: KuClass) -> ChernVector:
    """The cohomology class a.v + b.w."""
    return cls.a * v_vector(ctx) + cls.b * w_vector(ctx)


def class_from_chern(ctx: FanoContext, x: ChernVector) -> KuCoordinates:
    """Solve a.v + b.w = x exactly; four coefficient equations, two unknowns.

    Since v = (1, 0, -1/d, 0) and w = (0, 1, -1/2, 1/6 - 1/d), the first two
    coefficients determine (a, b) and the last two must then agree.
    """
    d = ctx.degree
    a, b = x.r, x.c1
    expected_c2 = -a / d - b / 2
    if x.c2 != expected_c2:
        raise NotInKuSpanError("c2", expected_c2, x.c2)
    expected_c3 = b * (Fraction(1, 6) - Fraction(1, d))
    if x.c3 != expected_c3:
        raise NotInKuSpanError("c3", expected_c3, x.c3)
    return KuCoordinates(a, b)


def rotation_matrix() -> Matrix2:
    """Action of the rotation autoequivalence on (a, b) columns: v -> w - v, w -> w - 2v."""
    return ((-1, -2), (1, 1))


def apply_matrix(m: Matrix2, cls: KuClass) -> KuClass:
    return KuClass(m[0][0] * cls.a + m[0][1] * cls.b, m[1][0] * cls.a + m[1][1] * cls.b)


def rotate(cls: KuClass) -> KuClass:
    return apply_matrix(rotation_matrix(), cls)


def classes_with_self_pairing(d: int, target: int, bound: int) -> list[KuClass]:
    """All (a, b) with |a|, |b| <= bound and chi((a,b), (a,b)) = target, sorted.

    Box enumeration; saturation in the bound is the completeness certificate
    (the form is definite enough in the ranges of interest, but that is not
    assumed).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    found = [
        KuClass(a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if euler_form(d, KuClass(a, b), KuClass(a, b)) == target
    ]
    return sorted(found, key=lambda c: (c.a, c.b))


@dataclass(frozen=True)
class ExtTable:
    """Dimensions (hom, ext1, ext2, ext3) of the graded endomorphisms of an object."""

    dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 4 or any(n < 0 for n in self.dims):
            raise ValueError("an Ext table is four non-negative integers")

    def alternating_sum(self) -> int:
        return self.dims[0] - self.dims[1] + self.dims[2] - self.dims[3]


@dataclass(frozen=True)
class ExtTableVerdict:
    alternating_sum_ok: bool
    no_ext3: bool
    serre_symmetric: bool | None  # None when the numeric Serre check was not requested

    @property
    def passed(self) -> bool:
        return self.alternating_sum_ok and self.no_ext3 and self.serre_symmetric is not False


def check_ext_table(d: int, cls: KuClass, table: ExtTable, serre_trivial_numerics: bool = False) -> ExtTableVerdict:
    """Consistency checks a table of Ext dimensions must satisfy for class ``cls``.

    The Serre symmetry dims[i] = dims[2-i] only holds when the Serre functor
    fixes both the object and its class (e.g. a point on the ramification
    locus of the degree-2 double cover), which is geometric data the lattice
    cannot see; it is therefore gated by the flag.
    """
    alternating_ok = table.alternating_sum() == euler_form(d, cls, cls)
    no_ext3 = table.dims[3] == 0
    serre: bool | None = None
    if serre_trivial_numerics:
        serre = table.dims[0] == table.dims[2] and table.dims[3] == 0
    return ExtTableVerdict(alternating_sum_ok=alternating_ok, no_ext3=no_ext3, serre_symmetric=serre)
