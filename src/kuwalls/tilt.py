"""Central charges, slopes and the discriminant for tilt stability.

Two charges are provided.  ``charge_tilt`` is the usual one mixing the
twisted ch0, ch1, ch2, and ``charge_rotated`` is its rotation by the unit
1/i (the mu = 0 case of tilting a second time).  Parameters carry alpha^2
rather than alpha so that every charge value stays rational.

Each H-power pairing contributes a factor H^3 = d.  This normalisation
scales both charges by the positive constant d relative to conventions
that divide it out; slopes, walls and every stability verdict are
unchanged.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .chern import ChernVector, FanoContext, Rational, _frac, twist


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

    def rotated_by_neg_i(self) -> "ChargeValue":
        """Multiplication by 1/i = -i: (re + i im) / i = im - i re."""
        return ChargeValue(self.im, -self.re)


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


def charge_tilt(ctx: FanoContext, params: StabilityParams, x: ChernVector) -> ChargeValue:
    """Z_(alpha,beta) = -H.ch2^b + (alpha^2/2) H^3 ch0^b + i H^2.ch1^b."""
    d = ctx.degree
    t = twist(x, params.beta)
    re = -d * t.c2 + params.alpha_sq / 2 * d * t.r
    im = d * t.c1
    return ChargeValue(re, im)


def charge_rotated(ctx: FanoContext, params: StabilityParams, x: ChernVector) -> ChargeValue:
    """The rotated charge Z / i, written out: H^2.ch1^b + i (H.ch2^b - (alpha^2/2) H^3 ch0)."""
    d = ctx.degree
    t = twist(x, params.beta)
    re = d * t.c1
    im = d * t.c2 - params.alpha_sq / 2 * d * x.r
    return ChargeValue(re, im)


def slope_from_charge(z: ChargeValue) -> Slope:
    if z.im == 0:
        return INFINITE_SLOPE
    return Slope(Fraction(-z.re, 1) / z.im)


def slope_tilt(ctx: FanoContext, params: StabilityParams, x: ChernVector) -> Slope:
    """-Re Z / Im Z, or +infinity when the imaginary part vanishes."""
    return slope_from_charge(charge_tilt(ctx, params, x))


def discriminant(x: ChernVector) -> Fraction:
    """ch1^2 - 2 ch0 ch2 in coefficient units; invariant under every twist."""
    return x.c1 * x.c1 - 2 * x.r * x.c2


def params(alpha_sq: Rational, beta: Rational) -> StabilityParams:
    """Shorthand constructor accepting ints, Fractions or strings like '1/4'."""
    return StabilityParams(Fraction(alpha_sq), Fraction(beta))
