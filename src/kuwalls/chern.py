"""Chern-character ring and Riemann-Roch pairing on a degree-d Fano threefold.

The threefolds in question have Picard group generated by an ample class H
with -K = 2H and degree d = H^3 in {1..5}.  A cohomology class is stored as
its coefficients with respect to the basis (1, H, H^2, H^3), so all degrees
share one code path and every value is an exact ``fractions.Fraction``.

The Euler characteristic is the integral of ch . td(Y) against H^3 = d, with
td = 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24.  The index-2 conditions c1 = 2H and
chi(O) = 1 force H.c2 = 12, so Riemann-Roch is the closed form

    chi(E) = ch0 + ch1 * (d + 3) / 3 + (ch2 + ch3) * d,

that is, the weights (3, d + 3, 3d, 3d) / 3; ``chi_pair`` is their one home.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ._record import Record

Rational = Union[int, Fraction]

DEGREES = (1, 2, 3, 4, 5)


def _frac(value: Rational) -> Fraction:
    # a type test, not isinstance: Fraction's ABC metaclass makes isinstance slow on ints
    return value if type(value) is Fraction else Fraction(value)


class ChernVector(Record):
    """Exact rational coefficients (ch0, ch1, ch2, ch3) of a class in H^*(Y, Q)."""

    __slots__ = ("r", "c1", "c2", "c3")
    r: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __init__(self, r: Rational, c1: Rational, c2: Rational, c3: Rational) -> None:
        object.__setattr__(self, "r", _frac(r))
        object.__setattr__(self, "c1", _frac(c1))
        object.__setattr__(self, "c2", _frac(c2))
        object.__setattr__(self, "c3", _frac(c3))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.r, self.c1, self.c2, self.c3)

    def truncated(self) -> tuple[Fraction, Fraction, Fraction]:
        """The (ch0, ch1, ch2) part that tilt stability sees."""
        return (self.r, self.c1, self.c2)

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(self.r + other.r, self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(self.r - other.r, self.c1 - other.c1, self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "ChernVector":
        return ChernVector(-self.r, -self.c1, -self.c2, -self.c3)

    def scale(self, factor: Rational) -> "ChernVector":
        f = _frac(factor)
        return ChernVector(f * self.r, f * self.c1, f * self.c2, f * self.c3)

    def __rmul__(self, factor: Rational) -> "ChernVector":
        return self.scale(factor)


UNIT = ChernVector(1, 0, 0, 0)
ZERO = ChernVector(0, 0, 0, 0)


class FanoContext(Record):
    """The threefold of degree d = H^3; its Riemann-Roch data depend on d alone."""

    __slots__ = ("degree",)
    degree: int

    def __init__(self, degree: int) -> None:
        if degree not in DEGREES:
            raise ValueError(f"degree must be one of {DEGREES}, got {degree}")
        object.__setattr__(self, "degree", degree)


def ring_multiply(x: ChernVector, y: ChernVector) -> ChernVector:
    """Graded product with H^k . H^l = H^(k+l); terms above H^3 vanish."""
    a = x.coefficients()
    b = y.coefficients()
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4 - i):
            out[i + j] += a[i] * b[j]
    return ChernVector(*out)


def exp_h(t: Rational) -> ChernVector:
    """The truncated exponential exp(tH) = (1, t, t^2/2, t^3/6)."""
    t = _frac(t)
    return ChernVector(1, t, t * t / 2, t ** 3 / 6)


def _over_lcm(*values: Fraction) -> tuple[int, ...]:
    """The integer numerators of ``values`` over the lcm of their denominators, then the lcm.

    Every caller passes three or four values, and both arities are written out.
    """
    if len(values) == 4:
        a, b, c, e = values
        da, db, dc, de = a.denominator, b.denominator, c.denominator, e.denominator
        den = math.lcm(da, db, dc, de)
        return (
            a.numerator * (den // da),
            b.numerator * (den // db),
            c.numerator * (den // dc),
            e.numerator * (den // de),
            den,
        )
    a, b, c = values
    da, db, dc = a.denominator, b.denominator, c.denominator
    den = math.lcm(da, db, dc)
    return (a.numerator * (den // da), b.numerator * (den // db), c.numerator * (den // dc), den)


def twist(x: ChernVector, beta: Rational) -> ChernVector:
    """Twisted character ch^beta = ch . exp(-beta H), in closed form.

    With x over the lcm L of its denominators and beta = p/q, the product
    with exp(-beta H) = (1, -p/q, p^2/(2q^2), -p^3/(6q^3)) has the numerators

        ch1^beta = (c1 q - p r) / (L q)
        ch2^beta = (2 c2 q^2 - 2 p q c1 + p^2 r) / (2 L q^2)
        ch3^beta = (6 c3 q^3 - 6 p q^2 c2 + 3 p^2 q c1 - p^3 r) / (6 L q^3)

    in integers, so each coefficient is one ``Fraction(n, den)``; the result
    equals ``ring_multiply(x, exp_h(-beta))``.
    """
    beta = _frac(beta)
    if not beta:
        return x
    p, q = beta.numerator, beta.denominator
    r, c1, c2, c3, den = _over_lcm(x.r, x.c1, x.c2, x.c3)
    den_q = den * q
    return ChernVector(
        x.r,
        Fraction(c1 * q - p * r, den_q),
        Fraction((2 * c2 * q - 2 * p * c1) * q + p * p * r, 2 * den_q * q),
        Fraction(((6 * c3 * q - 6 * p * c2) * q + 3 * p * p * c1) * q - p * p * p * r, 6 * den_q * q * q),
    )


def dual(x: ChernVector) -> ChernVector:
    """Chern character of the (derived) dual: odd coefficients flip sign."""
    return ChernVector(x.r, -x.c1, x.c2, -x.c3)


def line_bundle(n: Rational) -> ChernVector:
    """ch(O(nH)) = exp(nH)."""
    return exp_h(n)


def v_vector(ctx: FanoContext) -> ChernVector:
    """v = (1, 0, -1/d, 0), the class of the ideal sheaf of a line."""
    return ChernVector(1, 0, Fraction(-1, ctx.degree), 0)


def w_vector(ctx: FanoContext) -> ChernVector:
    """w = (0, 1, -1/2, 1/6 - 1/d), the class of a point ideal in a hyperplane section."""
    return ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6) - Fraction(1, ctx.degree))


def point_class(ctx: FanoContext) -> ChernVector:
    """ch(C_p) = [pt] = H^3 / d."""
    return ChernVector(0, 0, 0, Fraction(1, ctx.degree))


def point_ideal(ctx: FanoContext) -> ChernVector:
    return line_bundle(0) - point_class(ctx)


def chi_pair(ctx: FanoContext, x: ChernVector, y: ChernVector) -> Fraction:
    """Euler pairing chi(E, F) = chi(E^v . F), with the product expanded in place.

    Each argument is put over its own lcm and the weights (3, d + 3, 3d, 3d)
    over 3, so the whole sum is integer arithmetic and one ``Fraction(n, den)``.
    """
    d = ctx.degree
    a0, a1, a2, a3, a_den = _over_lcm(x.r, x.c1, x.c2, x.c3)
    b0, b1, b2, b3, b_den = _over_lcm(y.r, y.c1, y.c2, y.c3)
    return Fraction(
        3 * (a0 * b0)
        + (d + 3) * (a0 * b1 - a1 * b0)
        + 3 * d * (a0 * b2 - a1 * b1 + a2 * b0 + a0 * b3 - a1 * b2 + a2 * b1 - a3 * b0),
        3 * a_den * b_den,
    )


def hrr_chi(ctx: FanoContext, x: ChernVector) -> Fraction:
    """Euler characteristic of any object with character ``x``: chi(O, x), by Riemann-Roch."""
    return chi_pair(ctx, UNIT, x)


def on_integral_lattice(ctx: FanoContext, x: ChernVector) -> bool:
    """Whether ``x`` lies on the integral lattice of Chern characters of objects.

    That is: ch0 and ch1 are integers, ch2 - ch1^2/2 lies in (1/d)Z and
    chi(O(k), E) is an integer for k = 0..3, which also pins ch3.
    """
    return (
        x.r.denominator == 1
        and x.c1.denominator == 1
        and ((x.c2 - x.c1 * x.c1 / 2) * ctx.degree).denominator == 1
        and all(chi_pair(ctx, line_bundle(k), x).denominator == 1 for k in range(4))
    )
