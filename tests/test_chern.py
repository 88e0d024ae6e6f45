"""Ring, twist, duality and Riemann-Roch tests.

Derived expectations are computed by independent oracles: truncated
polynomial arithmetic in sympy for the ring and the twist, the Euler
sequence of the cubic hypersurface for H.c2, and dimension counts of
spaces of linear forms for the pulled-back hyperplane bundle.  The Todd
class, which the library no longer stores, is the reference for its closed
Riemann-Roch form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from kuwalls.chern import (
    DEGREES,
    UNIT,
    ChernVector,
    FanoContext,
    chi_pair,
    dual,
    exp_h,
    hrr_chi,
    line_bundle,
    on_integral_lattice,
    ring_multiply,
    twist,
)
from kuwalls.chern import _frac, _over_lcm
from kuwalls.catalog import catalog, v_vector, w_vector

H = sympy.symbols("H")


def to_poly(x: ChernVector) -> sympy.Poly:
    coefficients = [sympy.Rational(c.numerator, c.denominator) for c in x.coefficients()]
    return sympy.Poly(sum(c * H**i for i, c in enumerate(coefficients)), H)


def from_poly(poly: sympy.Poly) -> ChernVector:
    out = []
    for i in range(4):
        c = poly.coeff_monomial(H**i)
        out.append(Fraction(int(sympy.numer(c)), int(sympy.denom(c))))
    return ChernVector(*out)


def oracle_multiply(x: ChernVector, y: ChernVector) -> ChernVector:
    product = (to_poly(x) * to_poly(y)).as_expr()
    truncated = sympy.Poly(sympy.series(product, H, 0, 4).removeO(), H)
    return from_poly(truncated)


def random_vector(rng: random.Random) -> ChernVector:
    def rat() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    return ChernVector(rat(), rat(), rat(), rat())


def test_ring_identity():
    x = ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6))
    assert ring_multiply(UNIT, x) == x
    assert ring_multiply(x, UNIT) == x


def test_ring_exponentials_cancel():
    e_minus = ChernVector(1, -1, Fraction(1, 2), Fraction(-1, 6))
    e_plus = ChernVector(1, 1, Fraction(1, 2), Fraction(1, 6))
    assert ring_multiply(e_minus, e_plus) == UNIT


@pytest.mark.parametrize("d", DEGREES)
def test_ring_v_squared(d):
    v = ChernVector(1, 0, Fraction(-1, d), 0)
    expected = oracle_multiply(v, v)
    assert expected == ChernVector(1, 0, Fraction(-2, d), 0)
    assert ring_multiply(v, v) == expected


def test_ring_matches_polynomial_oracle_on_random_inputs():
    rng = random.Random(20240817)
    for _ in range(50):
        x, y = random_vector(rng), random_vector(rng)
        assert ring_multiply(x, y) == oracle_multiply(x, y)


def test_ring_commutative_and_associative():
    rng = random.Random(11)
    for _ in range(1000):
        x, y, z = (random_vector(rng) for _ in range(3))
        assert ring_multiply(x, y) == ring_multiply(y, x)
        assert ring_multiply(ring_multiply(x, y), z) == ring_multiply(x, ring_multiply(y, z))


def test_twist_explicit_values():
    # ch^(-1/2) of the class w has vanishing degree-2 part
    for d in DEGREES:
        w = ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6) - Fraction(1, d))
        twisted = twist(w, Fraction(-1, 2))
        assert twisted.truncated() == (0, 1, 0)
    # ch^(-1/2) of the structure sheaf
    assert twist(UNIT, Fraction(-1, 2)) == ChernVector(1, Fraction(1, 2), Fraction(1, 8), Fraction(1, 48))
    x = ChernVector(2, -3, Fraction(5, 4), Fraction(-7, 6))
    assert twist(x, 0) == x


def test_twist_matches_series_oracle():
    rng = random.Random(7)
    for _ in range(25):
        x = random_vector(rng)
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = sympy.Rational(beta.numerator, beta.denominator)
        series = sympy.Poly(sympy.series(sympy.exp(-b * H), H, 0, 4).removeO(), H)
        assert twist(x, beta) == oracle_multiply(x, from_poly(series))


def test_twist_closed_form_matches_the_ring_product():
    rng = random.Random(4004)
    betas = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(17)] + [Fraction(0), Fraction(-1, 2)]
    for _ in range(200):
        x = random_vector(rng)
        for beta in betas:
            twisted = twist(x, beta)
            assert twisted == ring_multiply(x, exp_h(-beta))
            assert twist(twisted, -beta) == x
        assert twist(x, 0) == x
        assert twist(x, Fraction(0)) == x


def test_twisted_ch3_of_w_plus_points():
    # adding t points to the class w shifts ch3^(-1/2) to 1/24 + (t-1)/d,
    # the quantity whose non-positivity forces the point count to vanish
    for d in DEGREES:
        w = ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6) - Fraction(1, d))
        for t in range(0, 5):
            shifted = w + ChernVector(0, 0, 0, Fraction(t, d))
            assert twist(shifted, Fraction(-1, 2)).c3 == Fraction(1, 24) + Fraction(t - 1, d)


def test_twist_additivity():
    rng = random.Random(23)
    for _ in range(1000):
        x = random_vector(rng)
        b1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b2 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert twist(twist(x, b1), b2) == twist(x, b1 + b2)


def test_dual():
    assert dual(UNIT) == UNIT
    d = 3
    w = ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6) - Fraction(1, d))
    assert dual(w) == ChernVector(0, -1, Fraction(-1, 2), Fraction(1, d) - Fraction(1, 6))
    rng = random.Random(5)
    for _ in range(200):
        x = random_vector(rng)
        assert dual(dual(x)) == x
        # duality is a ring homomorphism
        y = random_vector(rng)
        assert dual(ring_multiply(x, y)) == ring_multiply(dual(x), dual(y))


@pytest.mark.parametrize("d", DEGREES)
def test_chi_of_structure_sheaf(d):
    assert hrr_chi(FanoContext(d), UNIT) == 1


def test_chi_of_hyperplane_bundle():
    # degree 1: three sections (and chi = h0 by vanishing)
    assert hrr_chi(FanoContext(1), line_bundle(1)) == 3
    # degree 2: O(1) pulled back from projective 3-space, h0 = dim of linear forms
    assert hrr_chi(FanoContext(2), line_bundle(1)) == comb(3 + 1, 1)
    # in every degree chi(O(1)) = d + 2
    for d in DEGREES:
        assert hrr_chi(FanoContext(d), line_bundle(1)) == d + 2


@pytest.mark.parametrize("d", DEGREES)
def test_euler_pairing_matrix(d):
    ctx = FanoContext(d)
    v, w = v_vector(ctx), w_vector(ctx)
    matrix = [[chi_pair(ctx, a, b) for b in (v, w)] for a in (v, w)]
    assert matrix == [[-1, -1], [1 - d, -d]]


def test_chi_pair_examples():
    assert chi_pair(FanoContext(3), w_vector(FanoContext(3)), v_vector(FanoContext(3))) == -2
    assert chi_pair(FanoContext(2), w_vector(FanoContext(2)), w_vector(FanoContext(2))) == -2


@pytest.mark.parametrize("d", DEGREES)
def test_serre_duality_on_catalog_classes(d):
    # chi(E) = -chi(E^v tensor K) on a threefold: the Serre sign is (-1)^3
    from kuwalls.catalog import catalog

    ctx = FanoContext(d)
    k = exp_h(-2)  # ch(K) = exp(-2H): the index-2 condition -K = 2H
    for entry in catalog(d):
        x = entry.chern
        assert hrr_chi(ctx, x) == -hrr_chi(ctx, ring_multiply(dual(x), k))


def to_fraction(value: sympy.Rational) -> Fraction:
    return Fraction(int(sympy.numer(value)), int(sympy.denom(value)))


def test_h_c2_forced_by_cubic_oracle():
    # Euler-sequence oracle on the cubic hypersurface: c(T) = (1+H)^5 / (1+3H),
    # truncated in the cohomology of the threefold.
    total = sympy.Poly(sympy.series((1 + H) ** 5 / (1 + 3 * H), H, 0, 3).removeO(), H)
    c1 = total.coeff_monomial(H) * H
    c2 = total.coeff_monomial(H**2) * H**2
    assert c1 == 2 * H  # index 2
    assert c2 == 4 * H**2  # so H.c2 = 4 H^3 = 4 * 3 = 12 on the cubic
    td = sympy.Poly(1 + c1 / 2 + (c1**2 + c2) / 12 + c1 * c2 / 24, H)
    d = 3
    assert to_fraction(td.coeff_monomial(H**3)) * d == 1  # chi(O) = 1
    ctx = FanoContext(d)
    rng = random.Random(300)
    for _ in range(100):
        x = random_vector(rng)
        # integrate x . td over Y: the H^3 coefficient times H^3 = d
        integral = to_fraction((to_poly(x) * td).coeff_monomial(H**3)) * d
        assert hrr_chi(ctx, x) == integral


def todd_vector(d: int) -> ChernVector:
    """td(Y) = 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24 with c1 = 2H and c2 = (12/d) H^2."""
    return ChernVector(1, 1, Fraction(4 * d + 12, 12 * d), Fraction(12, 12 * d))


@pytest.mark.parametrize("d", DEGREES)
def test_todd_vector_reproduces_closed_form(d):
    rng = random.Random(100 + d)
    for _ in range(100):
        x = random_vector(rng)
        closed_form = x.r + x.c1 * Fraction(d + 3, 3) + (x.c2 + x.c3) * d
        assert hrr_chi(FanoContext(d), x) == closed_form
        # integrating against the Todd class gives the same pairing
        assert ring_multiply(x, todd_vector(d)).c3 * d == closed_form


@pytest.mark.parametrize("d", DEGREES)
def test_chi_pair_matches_compositional_path(d):
    ctx = FanoContext(d)
    rng = random.Random(700 + d)
    for _ in range(200):
        x, y = random_vector(rng), random_vector(rng)
        assert chi_pair(ctx, x, y) == hrr_chi(ctx, ring_multiply(dual(x), y))


def test_context_validation():
    with pytest.raises(ValueError):
        FanoContext(0)
    with pytest.raises(ValueError):
        FanoContext(6)
    # the degree is the whole context
    assert FanoContext.__slots__ == ("degree",) and FanoContext(4).degree == 4


def test_integral_lattice():
    ctx = FanoContext(2)
    assert on_integral_lattice(ctx, w_vector(ctx))
    assert on_integral_lattice(ctx, v_vector(ctx))
    assert not on_integral_lattice(ctx, ChernVector(1, Fraction(1, 2), 0, 0))


def on_coarse_grid(x: ChernVector, d: int) -> bool:
    """ch0 in Z, ch1 in Z, ch2 in Z/lcm(2, d), ch3 in Z/lcm(6, d): the grid that every lattice class lies on."""
    scales = (1, 1, math.lcm(2, d), math.lcm(6, d))
    return all((c * scale).denominator == 1 for c, scale in zip(x.coefficients(), scales))


def test_default_lattice_is_sharp():
    ctx = FanoContext(5)
    # ch2 = -1/10 is on the coarse (1, 10, 30) grid, but ch2 - ch1^2/2 is not in (1/5)Z
    x = ChernVector(1, 0, Fraction(-1, 10), 0)
    assert not on_integral_lattice(ctx, x)
    assert on_coarse_grid(x, 5)
    # a third of a point class is on the coarse grid too, but has chi = 1/3
    third_point = ChernVector(0, 0, 0, Fraction(1, 15))
    assert not on_integral_lattice(ctx, third_point)
    assert on_coarse_grid(third_point, 5)
    entries = [(d, entry) for d in DEGREES for entry in catalog(d)]
    assert len(entries) == 54
    for d, entry in entries:
        assert on_integral_lattice(FanoContext(d), entry.chern), (d, entry.name)
        assert on_coarse_grid(entry.chern, d), (d, entry.name)


def generic_over_lcm(*values):
    """The comprehension that ``_over_lcm`` writes out for three and four values."""
    den = math.lcm(*(v.denominator for v in values))
    return (*(v.numerator * (den // v.denominator) for v in values), den)


def test_over_lcm_matches_the_generic_comprehension():
    rng = random.Random(1009)
    pool = [Fraction(0), Fraction(-7), Fraction(12, 4), Fraction(-1, 2**61 - 1), Fraction(3, 10**30)]
    for _ in range(400):
        for arity in (3, 4):
            values = [
                rng.choice(pool)
                if rng.random() < 0.3
                else Fraction(rng.randint(-50, 50), rng.choice([1, 2, 6, 97, 10**12]))
                for _ in range(arity)
            ]
            got = _over_lcm(*values)
            assert got == generic_over_lcm(*values), values
            assert all(type(n) is int for n in got)


class HalfOpenFraction(Fraction):
    """A Fraction subclass, as a caller might pass one."""


@pytest.mark.parametrize("value", [7, -3, 0, True, False, Fraction(-5, 6), HalfOpenFraction(1, 3)])
def test_frac_returns_an_exact_fraction(value):
    converted = _frac(value)
    assert type(converted) is Fraction
    assert converted == value
    if type(value) is Fraction:
        assert converted is value
