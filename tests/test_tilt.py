"""Charge, slope and discriminant tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kuwalls.catalog import point_class, w_vector
from kuwalls.chern import DEGREES, UNIT, ZERO, ChernVector, FanoContext, twist
from kuwalls.tilt import (
    INFINITE_SLOPE,
    ChargeValue,
    Slope,
    StabilityParams,
    charge_tilt,
    discriminant,
    slope_tilt,
)

ALPHAS = [Fraction(1, 100), Fraction(1, 4), Fraction(1), Fraction(25)]


def random_vector(rng, bound=10):
    def rat():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 6))

    return ChernVector(rat(), rat(), rat(), rat())


@pytest.mark.parametrize("d", DEGREES)
def test_charge_of_w_on_the_vertical_line(d):
    ctx = FanoContext(d)
    w = w_vector(ctx)
    for alpha_sq in ALPHAS:
        z = charge_tilt(ctx, StabilityParams(alpha_sq, Fraction(-1, 2)), w)
        assert z == ChargeValue(Fraction(0), Fraction(d))
        assert slope_tilt(ctx, StabilityParams(alpha_sq, Fraction(-1, 2)), w) == Slope(Fraction(0))


def test_charge_of_structure_sheaf_at_the_wall():
    # twisted class (1, 1/2, 1/8): the real part cancels exactly at alpha^2 = 1/4
    for d in DEGREES:
        ctx = FanoContext(d)
        z = charge_tilt(ctx, StabilityParams(Fraction(1, 4), Fraction(-1, 2)), UNIT)
        assert z.re == 0
        assert slope_tilt(ctx, StabilityParams(Fraction(1, 4), Fraction(-1, 2)), UNIT) == Slope(Fraction(0))


def test_charge_linearity_and_zero():
    ctx = FanoContext(3)
    p = StabilityParams(Fraction(7, 5), Fraction(-2, 3))
    assert charge_tilt(ctx, p, ZERO) == ChargeValue(Fraction(0), Fraction(0))
    rng = random.Random(9)
    for _ in range(1000):
        x, y = random_vector(rng), random_vector(rng)
        zx, zy, zxy = (charge_tilt(ctx, p, v) for v in (x, y, x + y))
        assert zxy == ChargeValue(zx.re + zy.re, zx.im + zy.im)


def test_slope_of_point_class_is_infinite():
    ctx = FanoContext(2)
    assert slope_tilt(ctx, StabilityParams(1, 0), point_class(ctx)) == INFINITE_SLOPE
    assert INFINITE_SLOPE.is_infinite
    assert Slope(Fraction(10**9)) < INFINITE_SLOPE


def reference_charge(ctx, params, x):
    """The charge by twisting first, then Fraction arithmetic on the twisted class."""
    d = ctx.degree
    t = twist(x, params.beta)
    return ChargeValue(-d * t.c2 + params.alpha_sq / 2 * d * t.r, d * t.c1)


def reference_slope(ctx, params, x):
    """-Re Z / Im Z of the reference charge, or +infinity when Im Z = 0."""
    z = reference_charge(ctx, params, x)
    if z.im == 0:
        return INFINITE_SLOPE
    return Slope(-z.re / z.im)


def reference_cases(rng, count):
    """Seeded (ctx, params, class) triples covering every branch of the kernel."""
    for d in DEGREES:
        ctx = FanoContext(d)
        at_wall = StabilityParams(Fraction(1, 4), Fraction(-1, 2))
        yield ctx, at_wall, w_vector(ctx)
        yield ctx, at_wall, UNIT
    for i in range(count):
        ctx = FanoContext(rng.choice(DEGREES))
        beta = rng.choice(
            [Fraction(0), Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-30, 30), rng.randint(1, 12))]
        )
        params = StabilityParams(Fraction(rng.randint(1, 300), rng.randint(1, 128)), beta)
        rank = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3, 6]))
        # every tenth class has ch1^beta = 0, so its slope is infinite
        c1 = beta * rank if i % 10 == 0 else Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        c2 = Fraction(rng.randint(-40, 40), rng.randint(1, 60))
        c3 = Fraction(rng.randint(-9, 9), rng.randint(1, 30))
        yield ctx, params, ChernVector(rank, c1, c2, c3)


def test_charge_and_slope_match_the_fraction_reference():
    infinite = 0
    for ctx, params, x in reference_cases(random.Random(20190), 12000):
        z = charge_tilt(ctx, params, x)
        assert z == reference_charge(ctx, params, x)
        assert type(z.re) is type(z.im) is Fraction
        slope = slope_tilt(ctx, params, x)
        assert slope == reference_slope(ctx, params, x)
        infinite += slope.is_infinite
    assert infinite >= 1000


def test_params_validation():
    with pytest.raises(ValueError):
        StabilityParams(Fraction(0), Fraction(0))


@pytest.mark.parametrize("d", DEGREES)
def test_discriminant_fixtures(d):
    ctx = FanoContext(d)
    assert discriminant(w_vector(ctx)) == 1
    assert discriminant(UNIT) == 0
    # the candidate subobject class, read off at beta = -1/2
    candidate = ChernVector(1, Fraction(1, 2), Fraction(1, 8), 0)
    assert discriminant(candidate) == Fraction(1, 4) - Fraction(1, 4) == 0


def test_discriminant_twist_invariance():
    rng = random.Random(1234)
    for _ in range(1000):
        x = random_vector(rng)
        beta = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        assert discriminant(twist(x, beta)) == discriminant(x)
