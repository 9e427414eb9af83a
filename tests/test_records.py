"""The read-only record contract of the nine result records.

Each record equals a record of its own class with equal fields and hashes
alike, prints as Name(field=value, ...) in its declared field order (the
compete payload's key order), and refuses assignment and deletion.
"""

import copy
import dataclasses
import pickle

import pytest

from hypcatenoid import (
    AreaReport,
    CatenarySample,
    CatenoidSolutions,
    CircleAtInfinity,
    CompetitorReport,
    IsometryMap,
    MeshParams,
    RegimeKind,
    RegimeLabel,
    Tolerance,
    constants_bundle,
)

UNSTABLE = RegimeLabel(RegimeKind.UNSTABLE, False, False)

# (class, fields, other fields, repr of the first).
RECORDS = [
    (Tolerance, (1e-10,), (1e-8,), "Tolerance(abs_tol=1e-10)"),
    (
        CatenarySample,
        (((0.0, 0.6), (0.5, 1.0)),),
        (((0.0, 0.6),),),
        "CatenarySample(points=((0.0, 0.6), (0.5, 1.0)))",
    ),
    (
        AreaReport,
        (10.0, 9.5, 0.5),
        (10.0, 9.5, -0.5),
        "AreaReport(tube_area=10.0, disk_area_total=9.5, phi_a_r=0.5)",
    ),
    (
        CircleAtInfinity,
        ((0.0, 0.0, -0.5, 0.5),),
        ((0.0, 0.0, -0.5, 0.75),),
        "CircleAtInfinity(coords=(0.0, 0.0, -0.5, 0.5))",
    ),
    (IsometryMap, (1, 2j, 3, 4), (1, 2j, 3, 5), "IsometryMap(a=1, b=2j, c=3, d=4)"),
    (
        CatenoidSolutions,
        (0.5, ((0.3, UNSTABLE),)),
        (0.5, ()),
        "CatenoidSolutions(separation=0.5, solutions=((0.3, RegimeLabel(kind="
        "<RegimeKind.UNSTABLE: 'unstable'>, at_a_c=False, at_a_L=False)),))",
    ),
    (
        RegimeLabel,
        (RegimeKind.AREA_MINIMIZING, False, True),
        (RegimeKind.AREA_MINIMIZING, False, False),
        "RegimeLabel(kind=<RegimeKind.AREA_MINIMIZING: 'area_minimizing'>, "
        "at_a_c=False, at_a_L=True)",
    ),
    (
        CompetitorReport,
        (0.6, 3.0, None, 12.5, None, None),
        (0.6, 3.0, 1e-6, 12.5, 12.0, 0.5),
        "CompetitorReport(a=0.6, r=3.0, s=None, area_catenoid=12.5, "
        "area_competitor=None, margin=None)",
    ),
    (
        MeshParams,
        (0.6, 3.0, 16, 24),
        (0.6, 3.0, 16, 25),
        "MeshParams(neck_distance=0.6, y_max=3.0, n_profile=16, n_angle=24)",
    ),
]

ids = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=ids)
def test_equality_and_hash(cls, fields, other, text):
    record = cls(*fields)
    twin = cls(*fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != cls(*other)
    assert record != fields
    for another, another_fields, *_ in RECORDS:
        if another is not cls:
            assert record != another(*another_fields)


@pytest.mark.parametrize(
    "record, same_fields",
    [
        (CatenarySample(((0.0, 0.6),)), CircleAtInfinity(((0.0, 0.6),))),
        (AreaReport(1.0, 2.0, 3.0), RegimeLabel(1.0, 2.0, 3.0)),
        (MeshParams(0.6, 3.0, 16, 24), IsometryMap(0.6, 3.0, 16, 24)),
    ],
)
def test_other_type_with_equal_fields_is_unequal(record, same_fields):
    assert record != same_fields and same_fields != record


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=ids)
def test_repr(cls, fields, other, text):
    assert repr(cls(*fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=ids)
def test_read_only(cls, fields, other, text):
    record = cls(*fields)
    for name, value in zip(cls.__slots__, fields):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=ids)
def test_copy_and_pickle(cls, fields, other, text):
    record = cls(*fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=ids)
def test_not_a_dataclass(cls, fields, other, text):
    assert not dataclasses.is_dataclass(cls(*fields))


def test_equal_tolerances_share_one_bundle():
    assert Tolerance(1e-10) == Tolerance() == Tolerance(abs_tol=1e-10)
    assert constants_bundle(Tolerance(1e-10)) is constants_bundle(Tolerance())
