"""Named characters of the objects every other module computes with.

The two lattice generators (defined in ``chern``, re-exported here with
``point_class`` and ``point_ideal``) are

    v = 1 - (1/d) H^2          (ideal sheaf of a line)
    w = H - (1/2) H^2 + (1/6 - 1/d) H^3    (ideal of a point in a hyperplane section)

and the catalog collects, per degree, the handful of sheaves and complexes
whose classes drive the wall and moduli analysis.  Classes of objects
supported on a hyperplane section S are produced by the Riemann-Roch
pushforward ``pushforward_from_section``, so the catalog doubles as a check
of that formula.  Membership in the residual category is tested at the
Euler-characteristic level: chi(O, E) = chi(O(1), E) = 0.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .chern import (
    ChernVector,
    FanoContext,
    chi_pair,
    line_bundle,
    on_integral_lattice,
    point_class,
    point_ideal,
    ring_multiply,
    v_vector,
    w_vector,
)
from .kulattice import ExtTable, KuClass, check_ext_table, class_from_chern, embed, NotInKuSpanError


def pushforward_from_section(ctx: FanoContext, rank: int, c1_dot_h: int, points: Fraction | int) -> ChernVector:
    """Pushforward to Y of a class (rank, D, points.[pt]) on a hyperplane section.

    Grothendieck-Riemann-Roch for the embedding S in Y divides by the Todd
    class of the normal bundle O_S(1): the class is multiplied by
    (1, -H_S/2, H_S^2/6) on S and then pushed up one degree.  Only the
    pairing D.H_S = ``c1_dot_h`` of the divisor part survives rationally,
    because H^4(Y, Q) is one-dimensional.
    """
    d = ctx.degree
    points = Fraction(points)
    return ChernVector(
        0,
        rank,
        Fraction(c1_dot_h, d) - Fraction(rank, 2),
        (points - Fraction(c1_dot_h, 2) + rank * Fraction(d, 6)) / d,
    )


class CatalogEntry(Record):
    """A named object: exact character, lattice coordinates when in the residual category.

    ``ku_class`` is None for objects outside the residual category;
    ``ext_table`` carries the published endomorphism dimensions where one is
    pinned; ``source`` records the geometric origin of the class.
    """

    __slots__ = ("name", "chern", "ku_class", "ext_table", "source")
    name: str
    chern: ChernVector
    ku_class: KuClass | None
    ext_table: ExtTable | None
    source: str

    def __init__(
        self, name: str, chern: ChernVector, ku_class: KuClass | None, ext_table: ExtTable | None, source: str
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chern", chern)
        object.__setattr__(self, "ku_class", ku_class)
        object.__setattr__(self, "ext_table", ext_table)
        object.__setattr__(self, "source", source)


def catalog(d: int) -> list[CatalogEntry]:
    """The catalog for degree d, in a fixed deterministic order."""
    ctx = FanoContext(d)
    v = v_vector(ctx)
    w = w_vector(ctx)
    entries = [
        CatalogEntry("O", line_bundle(0), None, None, "structure sheaf"),
        CatalogEntry("O(1)", line_bundle(1), None, None, "ample generator line bundle"),
        CatalogEntry("O(-1)", line_bundle(-1), None, None, "dual of the ample generator"),
        CatalogEntry("C_p", point_class(ctx), None, None, "skyscraper at a point"),
        CatalogEntry("I_p", point_ideal(ctx), None, None, "ideal sheaf of a point"),
        CatalogEntry(
            "O_S",
            pushforward_from_section(ctx, 1, 0, 0),
            None,
            None,
            "structure sheaf of a hyperplane section",
        ),
        CatalogEntry(
            "I_p|S",
            pushforward_from_section(ctx, 1, 0, -1),
            KuClass(0, 1),
            ExtTable((1, d + 3, 2, 0)),
            "ideal of a point in a hyperplane section (point smooth in the section)",
        ),
        CatalogEntry("I_l", v, KuClass(1, 0), None, "ideal sheaf of a line"),
        CatalogEntry(
            "E_p",
            point_ideal(ctx) - line_bundle(-1),
            KuClass(0, 1),
            ExtTable((1, 3, 0, 0)) if d == 2 else None,
            "extension of the point ideal by the shifted line bundle O(-1)[1]",
        ),
        CatalogEntry(
            "root_sheaf",
            pushforward_from_section(ctx, 1, 0, -1),
            KuClass(0, 1),
            ExtTable((1, d + 1, 0, 0)),
            "pushforward of a root line bundle O_S(D), D.H = 0, D^2 = -2",
        ),
    ]
    if d == 4:
        spinor = ChernVector(2, 1, 0, Fraction(-1, 12))
        entries.append(CatalogEntry("S_pm", spinor, None, None, "spinor bundle restricted from a quadric of the pencil"))
        entries.append(
            CatalogEntry(
                "S_pm(-1)",
                ring_multiply(spinor, line_bundle(-1)),
                KuClass(2, -1),
                None,
                "twisted spinor bundle",
            )
        )
    if d == 5:
        entries.append(
            CatalogEntry(
                "S",
                ChernVector(2, -1, Fraction(1, 10), Fraction(1, 30)),
                KuClass(2, -1),
                None,
                "restricted tautological subbundle of the Grassmannian",
            )
        )
        entries.append(
            CatalogEntry(
                "Q_dual",
                ChernVector(3, -1, Fraction(-1, 10), Fraction(1, 30)),
                KuClass(3, -1),
                None,
                "dual of the restricted tautological quotient bundle",
            )
        )
    return entries


def ext_table_fixtures(d: int) -> list[tuple[str, ExtTable, bool]]:
    """Published endomorphism tables for class-w objects: (label, table, serre_fixed)."""
    fixtures = [
        ("point ideal in a section, point smooth", ExtTable((1, d + 3, 2, 0)), False),
        ("point ideal in a section, point singular", ExtTable((1, d + 4, 3, 0)), False),
        ("root sheaf", ExtTable((1, d + 1, 0, 0)), False),
    ]
    if d == 2:
        fixtures.append(("extension object, general point", ExtTable((1, 3, 0, 0)), False))
        fixtures.append(("extension object, ramification point", ExtTable((1, 4, 1, 0)), True))
    return fixtures


def ku_membership_chi(ctx: FanoContext, x: ChernVector) -> tuple[Fraction, Fraction]:
    """The pair (chi(O, x), chi(O(1), x)); both vanish for residual-category classes."""
    return (chi_pair(ctx, line_bundle(0), x), chi_pair(ctx, line_bundle(1), x))


class EntryVerdict(Record):
    __slots__ = ("name", "ku_membership_ok", "round_trip_ok", "ext_table_ok", "lattice_ok")
    name: str
    ku_membership_ok: bool
    round_trip_ok: bool
    ext_table_ok: bool
    lattice_ok: bool

    def __init__(
        self, name: str, ku_membership_ok: bool, round_trip_ok: bool, ext_table_ok: bool, lattice_ok: bool
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ku_membership_ok", ku_membership_ok)
        object.__setattr__(self, "round_trip_ok", round_trip_ok)
        object.__setattr__(self, "ext_table_ok", ext_table_ok)
        object.__setattr__(self, "lattice_ok", lattice_ok)

    @property
    def passed(self) -> bool:
        return self.ku_membership_ok and self.round_trip_ok and self.ext_table_ok and self.lattice_ok


class CatalogVerdict(Record):
    __slots__ = ("degree", "entries")
    degree: int
    entries: tuple[EntryVerdict, ...]

    def __init__(self, degree: int, entries: tuple[EntryVerdict, ...]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "entries", entries)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def verify_catalog(d: int) -> CatalogVerdict:
    """Run every per-entry invariant: membership chi test, round trip, tables, lattice."""
    ctx = FanoContext(d)
    verdicts = []
    for entry in catalog(d):
        chi_o, chi_o1 = ku_membership_chi(ctx, entry.chern)
        if entry.ku_class is not None:
            membership_ok = chi_o == 0 and chi_o1 == 0
        else:
            # flagged outside the residual category: at least one pairing must detect it
            membership_ok = chi_o != 0 or chi_o1 != 0

        if entry.ku_class is not None:
            embedded = embed(ctx, entry.ku_class)
            try:
                solved = class_from_chern(ctx, entry.chern)
                round_trip_ok = (
                    embedded == entry.chern
                    and solved.is_integral
                    and solved.as_ku_class() == entry.ku_class
                )
            except NotInKuSpanError:
                round_trip_ok = False
        else:
            round_trip_ok = True

        if entry.ext_table is not None and entry.ku_class is not None:
            ext_ok = check_ext_table(d, entry.ku_class, entry.ext_table).passed
        else:
            ext_ok = True

        verdicts.append(
            EntryVerdict(
                name=entry.name,
                ku_membership_ok=membership_ok,
                round_trip_ok=round_trip_ok,
                ext_table_ok=ext_ok,
                lattice_ok=on_integral_lattice(ctx, entry.chern),
            )
        )
    return CatalogVerdict(degree=d, entries=tuple(verdicts))


@functools.lru_cache(maxsize=None)
def _by_name(d: int) -> dict[str, CatalogEntry]:
    """Entries by name, the first of each name in catalog order; then 'v' and 'w'."""
    ctx = FanoContext(d)
    index: dict[str, CatalogEntry] = {}
    for entry in catalog(d):
        index.setdefault(entry.name, entry)
    index["v"] = CatalogEntry("v", v_vector(ctx), KuClass(1, 0), None, "lattice generator v")
    index["w"] = CatalogEntry("w", w_vector(ctx), KuClass(0, 1), None, "lattice generator w")
    return index


def lookup(d: int, name: str) -> CatalogEntry:
    """Fetch an entry by name; 'v' and 'w' resolve to the lattice generators."""
    try:
        return _by_name(d)[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r} at degree {d}") from None
