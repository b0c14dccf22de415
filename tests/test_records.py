"""The nine result records behave as frozen value records: each repr is
pinned to its bytes from when the records were dataclasses, == and hash
follow the field tuple of one class, assignment and del raise, and
copy, deepcopy and pickle give back an equal record without running
the constructor's checks again."""

import copy
import pickle
from fractions import Fraction

import pytest

from equibundle.action_model import (
    FixedSphere,
    GroupAction,
    IsolatedPoint,
    LineIsotropy,
    Su2Isotropy,
    linear_cp2_bar,
    triple_cp2_bar_action,
)
from equibundle.congruence import RelationRecord
from equibundle.cyclotomic import eval_point_term
from equibundle.exact_arith import Residue
from equibundle.moduli import DimensionReport
from equibundle.series import PowerSeries

# (record, its repr), one or more per class; the reprs are the dataclass bytes
REPRS = [
    (IsolatedPoint(5, 1, -1), "IsolatedPoint(p=5, a=1, b=4)"),
    (FixedSphere(5, -2, -3), "FixedSphere(p=5, c=3, alpha=-3)"),
    (
        linear_cp2_bar(5, 1),
        "GroupAction(p=5, points=(IsolatedPoint(p=5, a=1, b=4),), "
        "spheres=(FixedSphere(p=5, c=1, alpha=-1),), signature=-1, euler=3, b2=1)",
    ),
    (
        triple_cp2_bar_action(),
        "GroupAction(p=5, points=(IsolatedPoint(p=5, a=1, b=4), IsolatedPoint(p=5, a=1, b=3), "
        "IsolatedPoint(p=5, a=1, b=3)), spheres=(FixedSphere(p=5, c=1, alpha=-2),), "
        "signature=-3, euler=5, b2=3)",
    ),
    (GroupAction(3, [], [], 0, 2, 0), "GroupAction(p=3, points=(), spheres=(), signature=0, euler=2, b2=0)"),
    (
        LineIsotropy((1, None), (2,), (None,)),
        "LineIsotropy(lambda_points=(1, None), lambda_spheres=(2,), m_spheres=(None,), c1_squared=None)",
    ),
    (
        LineIsotropy((1,), (), (), c1_squared=-4),
        "LineIsotropy(lambda_points=(1,), lambda_spheres=(), m_spheres=(), c1_squared=-4)",
    ),
    (
        Su2Isotropy((1, 2), (3,), (0,), c2=1),
        "Su2Isotropy(ell_points=(1, 2), ell_spheres=(3,), m_spheres=(0,), c2=1)",
    ),
    (Residue(-3, 7), "Residue(value=4, modulus=7)"),
    (eval_point_term(5, 1, 1, 2), "CycloNum(p=5, num=(1, 0, 2, 2), den=5)"),
    (
        DimensionReport(3, (("a", Fraction(1, 2)), ("b", Fraction(-1))), Fraction(3, 5), Fraction(0)),
        "DimensionReport(dimension=3, terms=(('a', Fraction(1, 2)), ('b', Fraction(-1, 1))), "
        "chi_quot=Fraction(3, 5), sign_quot=Fraction(0, 1))",
    ),
    (
        PowerSeries((1, Fraction(1, 3)), 3),
        "PowerSeries(coeffs=(Fraction(1, 1), Fraction(1, 3), Fraction(0, 1), Fraction(0, 1)), order=3)",
    ),
]
RECORDS = [record for record, _ in REPRS]
IDS = [type(record).__name__ for record in RECORDS]

# each class's fields, in order, as the dataclasses declared them
FIELDS = {
    IsolatedPoint: ("p", "a", "b"),
    FixedSphere: ("p", "c", "alpha"),
    GroupAction: ("p", "points", "spheres", "signature", "euler", "b2"),
    LineIsotropy: ("lambda_points", "lambda_spheres", "m_spheres", "c1_squared"),
    Su2Isotropy: ("ell_points", "ell_spheres", "m_spheres", "c2"),
    Residue: ("value", "modulus"),
    type(eval_point_term(5, 1, 1, 2)): ("p", "num", "den"),
    DimensionReport: ("dimension", "terms", "chi_quot", "sign_quot"),
    PowerSeries: ("coeffs", "order"),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_every_record_class_is_pinned():
    assert set(map(type, RECORDS)) == set(FIELDS)


@pytest.mark.parametrize("record, text", REPRS, ids=IDS)
def test_repr_keeps_the_dataclass_bytes(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("cls, names", FIELDS.items(), ids=[cls.__name__ for cls in FIELDS])
def test_match_args_and_slots_are_the_field_order(cls, names):
    assert cls.__match_args__ == cls.__slots__ == names
    assert not hasattr(RECORDS[IDS.index(cls.__name__)], "__dict__")


def test_equality_and_hash_follow_the_field_tuple():
    for record in RECORDS:
        twin = copy.copy(record)
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(_values(record))
        assert record != _values(record) and _values(record) != record
    for x in RECORDS:
        for y in RECORDS:
            assert (x == y) == (type(x) is type(y) and _values(x) == _values(y))
    # equal field values in records of two classes
    assert FixedSphere(5, 1, 2) != IsolatedPoint(5, 1, 2)
    assert Su2Isotropy((1,), (), (), 0) != LineIsotropy((1,), (), (), 0)
    assert IsolatedPoint(5, 1, 2) == IsolatedPoint(5, 2, 1) != IsolatedPoint(5, 1, 3)
    assert len({IsolatedPoint(5, 1, 2), IsolatedPoint(5, -1, -2), IsolatedPoint(5, 2, 1)}) == 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_and_del_raise_attribute_error(record):
    name = FIELDS[type(record)][0]
    before = _values(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert _values(record) == before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_record(record, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the constructor ran again")

    # a restored record is not checked or canonicalized again
    monkeypatch.setattr(type(record), "__init__", refuse)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and repr(back) == repr(record)
    for back in (copy.copy(record), copy.deepcopy(record)):
        assert type(back) is type(record) and back == record and hash(back) == hash(record)


def test_with_slot_rebuilds_and_checks_the_line_record():
    iso = LineIsotropy((1, None), (2,), (None,), c1_squared=3)
    assert iso.with_slot("lambda", 1, 4) == LineIsotropy((1, 4), (2,), (None,), 3)
    assert iso.with_slot("m", 0, 5).m_spheres == (5,)
    assert iso.with_slot("lambda_sphere", 0, None).free_slots() == [
        ("lambda", 1),
        ("lambda_sphere", 0),
        ("m", 0),
    ]
    assert iso == LineIsotropy((1, None), (2,), (None,), c1_squared=3)
    with pytest.raises(TypeError):
        iso.with_slot("lambda", 1, 1.5)
    with pytest.raises(IndexError):
        iso.with_slot("lambda", 2, 0)
    with pytest.raises(ValueError, match="unknown slot kind"):
        iso.with_slot("c1", 0, 0)


def test_records_take_keywords_and_line_isotropy_defaults_c1_squared():
    assert Su2Isotropy((1,), (), (), c2=1) == Su2Isotropy(
        ell_points=[1], ell_spheres=[], m_spheres=[], c2=1
    )
    assert LineIsotropy((0,), (), ()).c1_squared is None
    assert IsolatedPoint(p=5, a=4, b=1) == IsolatedPoint(5, 1, 4)
    assert GroupAction(p=3, points=[], spheres=(), signature=0, euler=2, b2=0).points == ()
    assert PowerSeries(coeffs=[2], order=1).coeffs == (2, 0)
    with pytest.raises(TypeError):
        Su2Isotropy((1,), (), ())
    with pytest.raises(TypeError):
        Su2Isotropy((1,), (), (), c2=1.0)


def test_relation_record_is_the_same_named_tuple():
    record = RelationRecord("relation_1", 1, 2, False)
    assert RelationRecord.__mro__[1:] == (tuple, object)
    assert RelationRecord._fields == RelationRecord.__match_args__ == ("name", "lhs", "required", "passed")
    assert RelationRecord.__doc__ == "RelationRecord(name, lhs, required, passed)"
    assert repr(record) == "RelationRecord(name='relation_1', lhs=1, required=2, passed=False)"
    assert record == ("relation_1", 1, 2, False) and hash(record) == hash(("relation_1", 1, 2, False))
    assert pickle.loads(pickle.dumps(record)) == record
    assert record.display() == "relation_1: 1 == 2  [FAIL]"
    assert RelationRecord("x", 3, 3, True).display() == "x: 3 == 3  [pass]"
