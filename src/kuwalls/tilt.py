"""Central charges, slopes and the discriminant for tilt stability.

The tilt charge mixes the twisted ch0, ch1, ch2:

    Z_(alpha,beta) = -H.ch2^beta + (alpha^2/2) H^3 ch0 + i H^2.ch1^beta.

Parameters carry alpha^2 rather than alpha so that every charge value
stays rational.  Each H-power pairing contributes a factor H^3 = d.  This
normalisation scales the charge by the positive constant d relative to
conventions that divide it out; slopes, walls and every stability verdict
are unchanged.

Charge and slope share one integer kernel.  Put the truncated class over
the lcm L of its denominators as integers (R, C1, C2), and write
beta = p/q, alpha^2 = a/b.  The twist (see ``chern.twist``) gives

    ch1^beta = (C1 q - p R) / (L q)
    ch2^beta = (2 C2 q^2 - 2 p q C1 + p^2 R) / (2 L q^2),

so over the common denominator 2 b L q^2 the two parts of Z have the
integer numerators

    Im Z:  d 2 b q (C1 q - p R)
    Re Z:  d (a R q^2 - b (2 C2 q^2 - 2 p q C1 + p^2 R)).

The denominator cancels in the slope -Re Z / Im Z, which is therefore one
exact division of integers.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .chern import ChernVector, FanoContext, Rational, _frac, _over_lcm


class StabilityParams(Record):
    """A point (alpha, beta) of the upper half-plane, with alpha stored squared."""

    __slots__ = ("alpha_sq", "beta")
    alpha_sq: Fraction
    beta: Fraction

    def __init__(self, alpha_sq: Rational, beta: Rational) -> None:
        object.__setattr__(self, "alpha_sq", _frac(alpha_sq))
        object.__setattr__(self, "beta", _frac(beta))
        if self.alpha_sq <= 0:
            raise ValueError(f"alpha_sq must be positive, got {self.alpha_sq}")


class ChargeValue(Record):
    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: Fraction, im: Fraction) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)


@functools.total_ordering
class Slope(Record):
    """A slope value; ``value is None`` encodes +infinity (vanishing imaginary part)."""

    __slots__ = ("value",)
    value: Fraction | None

    def __init__(self, value: Fraction | None) -> None:
        object.__setattr__(self, "value", value)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __lt__(self, other: "Slope") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value


INFINITE_SLOPE = Slope(None)


def _charge_numerators(d: int, params: StabilityParams, x: ChernVector) -> tuple[int, int, int]:
    """Integer numerators of Re Z and Im Z, then their common denominator 2 b L q^2."""
    r, c1, c2, den = _over_lcm(x.r, x.c1, x.c2)
    p, q = params.beta.numerator, params.beta.denominator
    a, b = params.alpha_sq.numerator, params.alpha_sq.denominator
    q_sq = q * q
    re = d * (a * r * q_sq - b * ((2 * c2 * q - 2 * p * c1) * q + p * p * r))
    im = d * 2 * b * q * (c1 * q - p * r)
    return re, im, 2 * b * den * q_sq


def charge_tilt(ctx: FanoContext, params: StabilityParams, x: ChernVector) -> ChargeValue:
    """Z_(alpha,beta) = -H.ch2^b + (alpha^2/2) H^3 ch0^b + i H^2.ch1^b."""
    re, im, den = _charge_numerators(ctx.degree, params, x)
    return ChargeValue(Fraction(re, den), Fraction(im, den))


def slope_tilt(ctx: FanoContext, params: StabilityParams, x: ChernVector) -> Slope:
    """-Re Z / Im Z, or +infinity when the imaginary part vanishes."""
    re, im, _ = _charge_numerators(ctx.degree, params, x)
    if not im:
        return INFINITE_SLOPE
    return Slope(Fraction(-re, im))


def discriminant(x: ChernVector) -> Fraction:
    """ch1^2 - 2 ch0 ch2 in coefficient units; invariant under every twist."""
    return x.c1 * x.c1 - 2 * x.r * x.c2

