"""The contract of the 19 record classes: what their frozen-dataclass forms gave.

Every record compares equal to an equal record of its own class only (never
to the tuple of its fields), hashes by value, refuses assignment and
deletion, prints as ``Name(field=value, ...)`` and survives pickling and
copying.  The repr strings below are those the dataclass versions printed.
"""

from __future__ import annotations

import copy
import functools
import pickle
from fractions import Fraction as F

import pytest

from kuwalls._record import Record
from kuwalls.catalog import CatalogEntry, CatalogVerdict, EntryVerdict
from kuwalls.checks import CheckResult
from kuwalls.chern import ChernVector, FanoContext, hrr_chi, line_bundle
from kuwalls.delpezzo import DPContext, PicVector
from kuwalls.kulattice import ExtTable, ExtTableVerdict, KuClass, KuCoordinates
from kuwalls.tilt import INFINITE_SLOPE, ChargeValue, Slope, StabilityParams
from kuwalls.walls import ChamberReport, DestabilizerCandidate, WallCrossing, WallLocus

WALL = "WallLocus(kind='semicircle', center_beta=Fraction(-1, 2), radius_sq=Fraction(1, 4), beta0=None)"
CANDIDATE = f"DestabilizerCandidate(x=1, y=Fraction(1, 2), z=Fraction(1, 8), wall={WALL})"
UNIT = "ChernVector(r=Fraction(1, 1), c1=Fraction(0, 1), c2=Fraction(0, 1), c3=Fraction(0, 1))"
VERDICT = "EntryVerdict(name='w', ku_membership_ok=True, round_trip_ok=True, ext_table_ok=True, lattice_ok=True)"


def _wall():
    return WallLocus.semicircle(F(-1, 2), F(1, 4))


def _candidate():
    return DestabilizerCandidate(x=1, y=F(1, 2), z=F(1, 8), wall=_wall())


def _verdict():
    return EntryVerdict("w", True, True, True, True)


#: (class, a factory building a fresh instance each call, its repr as a dataclass printed it)
RECORDS = [
    (
        ChernVector,
        lambda: ChernVector(0, 1, F(-1, 2), F(-1, 3)),
        "ChernVector(r=Fraction(0, 1), c1=Fraction(1, 1), c2=Fraction(-1, 2), c3=Fraction(-1, 3))",
    ),
    (FanoContext, lambda: FanoContext(2), "FanoContext(degree=2, h_c2=12)"),
    (
        StabilityParams,
        lambda: StabilityParams(F(1, 4), F(-1, 2)),
        "StabilityParams(alpha_sq=Fraction(1, 4), beta=Fraction(-1, 2))",
    ),
    (ChargeValue, lambda: ChargeValue(F(1), F(-3, 2)), "ChargeValue(re=Fraction(1, 1), im=Fraction(-3, 2))"),
    (Slope, lambda: Slope(F(2, 3)), "Slope(value=Fraction(2, 3))"),
    (WallLocus, _wall, WALL),
    (DestabilizerCandidate, _candidate, CANDIDATE),
    (
        WallCrossing,
        lambda: WallCrossing(alpha_sq=F(1, 4), locus=_wall(), candidates=(_candidate(),)),
        f"WallCrossing(alpha_sq=Fraction(1, 4), locus={WALL}, candidates=({CANDIDATE},))",
    ),
    (
        ChamberReport,
        lambda: ChamberReport(2, ChernVector(1, 0, 0, 0), F(-1, 2), (2, 8), 5, False),
        f"ChamberReport(degree=2, target={UNIT}, beta0=Fraction(-1, 2), lattice=(2, 8), x_bound=5,"
        " torsion_rules=False, walls=(), decomposition_verified=None)",
    ),
    (KuClass, lambda: KuClass(1, -1), "KuClass(a=1, b=-1)"),
    (KuCoordinates, lambda: KuCoordinates(F(1, 2), F(3)), "KuCoordinates(a=Fraction(1, 2), b=Fraction(3, 1))"),
    (ExtTable, lambda: ExtTable((1, 5, 2, 0)), "ExtTable(dims=(1, 5, 2, 0))"),
    (
        ExtTableVerdict,
        lambda: ExtTableVerdict(True, True, None),
        "ExtTableVerdict(alternating_sum_ok=True, no_ext3=True, serre_symmetric=None)",
    ),
    (PicVector, lambda: PicVector(1, (0, -1, 1)), "PicVector(e0=1, e=(0, -1, 1))"),
    (DPContext, lambda: DPContext(2), "DPContext(dp_degree=2)"),
    (
        CatalogEntry,
        lambda: CatalogEntry("I_l", ChernVector(1, 0, 0, 0), KuClass(1, 0), None, "ideal sheaf of a line"),
        f"CatalogEntry(name='I_l', chern={UNIT}, ku_class=KuClass(a=1, b=0), ext_table=None,"
        " source='ideal sheaf of a line')",
    ),
    (EntryVerdict, _verdict, VERDICT),
    (CatalogVerdict, lambda: CatalogVerdict(2, (_verdict(),)), f"CatalogVerdict(degree=2, entries=({VERDICT},))"),
    (
        CheckResult,
        lambda: CheckResult("rotation", 2, True, "R^2 = -id"),
        "CheckResult(name='rotation', degree=2, passed=True, detail='R^2 = -id')",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 19
    assert set(Record.__subclasses__()) == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize(("cls", "make", "expected_repr"), RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_equal(cls, make, expected_repr):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(("cls", "make", "expected_repr"), RECORDS, ids=IDS)
def test_a_record_never_equals_the_tuple_of_its_fields(cls, make, expected_repr):
    record = make()
    values = _field_values(record)
    assert values and record != values and values != record
    assert record != list(values)


@pytest.mark.parametrize(("cls", "make", "expected_repr"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make, expected_repr):
    record = make()
    before = _field_values(record)
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _field_values(record) == before


@pytest.mark.parametrize(("cls", "make", "expected_repr"), RECORDS, ids=IDS)
def test_repr_matches_the_dataclass_format(cls, make, expected_repr):
    assert repr(make()) == expected_repr


@pytest.mark.parametrize(("cls", "make", "expected_repr"), RECORDS, ids=IDS)
def test_pickle_and_copy_rebuild_an_equal_record(cls, make, expected_repr):
    record = make()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)


def test_records_of_different_classes_with_equal_fields_differ():
    assert KuClass(1, 0) != (1, 0)
    assert KuClass(1, 0) != KuCoordinates(F(1), F(0))
    assert DPContext(2) != FanoContext(2)


def test_defaults_hold():
    assert FanoContext(3).h_c2 == 12 and FanoContext(3) == FanoContext(3, 12)
    vertical = WallLocus("vertical")
    assert (vertical.center_beta, vertical.radius_sq, vertical.beta0) == (None, None, None)
    report = ChamberReport(2, ChernVector(1, 0, 0, 0), F(-1, 2), (2, 8), 5, False)
    assert report.walls == () and report.decomposition_verified is None and report.chamber_count == 1


def test_init_still_coerces_and_validates():
    vector = ChernVector(1, "1/2", 0, F(1, 3))
    assert all(type(c) is F for c in vector.coefficients()) and vector.c1 == F(1, 2)
    assert type(StabilityParams(1, 0).alpha_sq) is F
    for cls, args in [(FanoContext, (6,)), (DPContext, (8,)), (ExtTable, ((1, -1, 0, 0),)), (StabilityParams, (0, 0))]:
        with pytest.raises(ValueError):
            cls(*args)


def test_slope_still_orders():
    low, high = Slope(F(-1, 2)), Slope(F(3))
    assert low < high and low <= high and high > low and high >= low and low <= Slope(F(-1, 2))
    assert high < INFINITE_SLOPE and INFINITE_SLOPE > high and not INFINITE_SLOPE < INFINITE_SLOPE
    assert INFINITE_SLOPE == Slope(None) and INFINITE_SLOPE.is_infinite
    assert sorted([INFINITE_SLOPE, high, low]) == [low, high, INFINITE_SLOPE]


def test_fano_context_cached_properties_still_work():
    ctx = FanoContext(2)
    assert isinstance(type(ctx).__dict__["todd_vector"], functools.cached_property)
    todd = ctx.todd_vector
    assert todd == ChernVector(1, 1, F(20, 24), F(12, 24)) and ctx.todd_vector is todd
    assert ctx.chi_weights == (F(1), F(20, 12), F(2), F(2)) and ctx.chi_weights is ctx.chi_weights
    assert hrr_chi(ctx, line_bundle(1)) == 4  # chi(O(1)) = d + 2
    # cached values are not fields: equality, hash and repr ignore them
    assert ctx == FanoContext(2) and hash(ctx) == hash(FanoContext(2)) and repr(ctx) == "FanoContext(degree=2, h_c2=12)"
    with pytest.raises(AttributeError):
        ctx.degree = 3
