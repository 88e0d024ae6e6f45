"""Catalog entries, the Riemann-Roch pushforward and membership tests."""

from __future__ import annotations

from fractions import Fraction

import pytest

from kuwalls.catalog import (
    CatalogEntry,
    catalog,
    ext_table_fixtures,
    ku_membership_chi,
    lookup,
    point_class,
    point_ideal,
    pushforward_from_section,
    v_vector,
    verify_catalog,
    w_vector,
)
from kuwalls.chern import DEGREES, ChernVector, FanoContext, chi_pair, hrr_chi, line_bundle
from kuwalls.kulattice import KuClass, W, check_ext_table

BASE_NAMES = ["O", "O(1)", "O(-1)", "C_p", "I_p", "O_S", "I_p|S", "I_l", "E_p", "root_sheaf"]


@pytest.mark.parametrize("d", DEGREES)
def test_minimum_entries_present(d):
    names = [entry.name for entry in catalog(d)]
    for name in BASE_NAMES:
        assert name in names
    if d == 4:
        assert "S_pm" in names and "S_pm(-1)" in names
    if d == 5:
        assert "S" in names and "Q_dual" in names


def test_catalog_rejects_bad_degree():
    with pytest.raises(ValueError):
        catalog(6)


@pytest.mark.parametrize("d", DEGREES)
def test_w_entries(d):
    ctx = FanoContext(d)
    w = w_vector(ctx)
    assert w == ChernVector(0, 1, Fraction(-1, 2), Fraction(1, 6) - Fraction(1, d))
    for name in ("I_p|S", "E_p", "root_sheaf"):
        entry = lookup(d, name)
        assert entry.chern == w
        assert entry.ku_class == KuClass(0, 1)


@pytest.mark.parametrize("d", DEGREES)
def test_extension_object_triangle(d):
    # E_p is the extension of I_p by O(-1)[1]; classes add with the shift sign
    ctx = FanoContext(d)
    assert point_ideal(ctx) + (-line_bundle(-1)) == w_vector(ctx)
    assert lookup(d, "E_p").chern == point_ideal(ctx) - line_bundle(-1)


@pytest.mark.parametrize("d", DEGREES)
def test_pushforward_from_section(d):
    ctx = FanoContext(d)
    # O_S via the structure sequence O(-1) -> O -> O_S
    assert pushforward_from_section(ctx, 1, 0, 0) == line_bundle(0) - line_bundle(-1)
    # the ideal of a point in a section: O_S minus a skyscraper
    assert pushforward_from_section(ctx, 1, 0, -1) == pushforward_from_section(ctx, 1, 0, 0) - point_class(ctx)
    # a skyscraper pushes to a skyscraper
    assert pushforward_from_section(ctx, 0, 0, 1) == point_class(ctx)
    # a root line bundle (D.H = 0, points term -1 from D^2/2 = -1) lands on w
    assert pushforward_from_section(ctx, 1, 0, -1) == w_vector(ctx)


def test_pushforward_respects_twisting_on_the_section():
    # O_S(nH) = pushforward of (1, nH_S, n^2 d / 2 points): compare with O(n) - O(n-1)
    for d in DEGREES:
        ctx = FanoContext(d)
        for n in range(-3, 4):
            direct = line_bundle(n) - line_bundle(n - 1)
            pushed = pushforward_from_section(ctx, 1, n * d, Fraction(n * n * d, 2))
            assert pushed == direct


@pytest.mark.parametrize("d", DEGREES)
def test_point_counting_classes(d):
    ctx = FanoContext(d)
    assert hrr_chi(ctx, point_class(ctx)) == 1  # chi of a skyscraper
    # a line has chi(O_l) = 1, forcing ch3(O_l) = 0: I_l = v exactly
    line_structure = ChernVector(0, 0, Fraction(1, d), 0)
    assert hrr_chi(ctx, line_structure) == 1
    assert line_bundle(0) - line_structure == v_vector(ctx)


@pytest.mark.parametrize("d", DEGREES)
def test_ku_membership_flags(d):
    ctx = FanoContext(d)
    for entry in catalog(d):
        chi_o, chi_o1 = ku_membership_chi(ctx, entry.chern)
        if entry.ku_class is not None:
            assert chi_o == 0 and chi_o1 == 0
        else:
            assert chi_o != 0 or chi_o1 != 0
    # the structure sheaf detects itself
    assert chi_pair(ctx, line_bundle(0), line_bundle(0)) == 1


@pytest.mark.parametrize("d", DEGREES)
def test_verify_catalog_passes(d):
    verdict = verify_catalog(d)
    assert verdict.passed
    assert all(entry.passed for entry in verdict.entries)


def test_degree_four_spinor_identity():
    ctx = FanoContext(4)
    twisted = lookup(4, "S_pm(-1)").chern
    assert twisted == 2 * v_vector(ctx) + (-1) * w_vector(ctx)
    assert lookup(4, "S_pm").chern == ChernVector(2, 1, 0, Fraction(-1, 12))


def test_degree_five_tautological_identity():
    ctx = FanoContext(5)
    s = lookup(5, "S").chern
    q = lookup(5, "Q_dual").chern
    assert 2 * q + (-3) * s == w_vector(ctx)
    # coordinates: [S] = 2v - w and [Q_dual] = 3v - w
    assert s == 2 * v_vector(ctx) + (-1) * w_vector(ctx)
    assert q == 3 * v_vector(ctx) + (-1) * w_vector(ctx)


@pytest.mark.parametrize("d", DEGREES)
def test_ext_table_fixtures_pass(d):
    for label, table, serre in ext_table_fixtures(d):
        verdict = check_ext_table(d, W, table, serre_trivial_numerics=serre)
        assert verdict.passed, label


def test_degree_two_extension_tables_pair():
    # ext1 = 3 + dim V_p with dim V_p in {0, 1}
    tables = {table.dims for _, table, _ in ext_table_fixtures(2)}
    assert (1, 3, 0, 0) in tables and (1, 4, 1, 0) in tables


def test_lookup_aliases_and_errors():
    assert lookup(3, "v").chern == v_vector(FanoContext(3))
    assert lookup(3, "w").chern == w_vector(FanoContext(3))
    with pytest.raises(KeyError):
        lookup(3, "nonexistent")


def linear_lookup(d, name):
    """The scan ``lookup`` replaced by its per-degree index."""
    ctx = FanoContext(d)
    if name == "v":
        return CatalogEntry("v", v_vector(ctx), KuClass(1, 0), None, "lattice generator v")
    if name == "w":
        return CatalogEntry("w", w_vector(ctx), KuClass(0, 1), None, "lattice generator w")
    for entry in catalog(d):
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r} at degree {d}")


@pytest.mark.parametrize("d", DEGREES)
def test_lookup_matches_a_linear_scan(d):
    for name in [entry.name for entry in catalog(d)] + ["v", "w"]:
        assert lookup(d, name) == linear_lookup(d, name), name
    for name in ["nonexistent", "", "W", "S_pm" if d != 4 else "S"]:
        with pytest.raises(KeyError) as indexed:
            lookup(d, name)
        with pytest.raises(KeyError) as scanned:
            linear_lookup(d, name)
        assert str(indexed.value) == str(scanned.value)


def test_catalog_lists_are_fresh_and_do_not_reach_lookup():
    first = catalog(2)
    expected = list(first)
    e_p = lookup(2, "E_p")
    first.clear()
    first.append(CatalogEntry("E_p", ChernVector(0, 0, 0, 0), None, None, "a mutated entry"))
    assert lookup(2, "E_p") == e_p
    assert catalog(2) == expected
    assert catalog(2) is not catalog(2)
