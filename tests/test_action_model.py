import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibundle.action_model import (
    BadWeights,
    DocumentError,
    FixedSphere,
    GroupAction,
    IncompatiblePoints,
    IncompatibleSpheres,
    InconsistentCounts,
    IsolatedPoint,
    LineIsotropy,
    ShapeMismatch,
    Su2Isotropy,
    action_from_dict,
    action_to_dict,
    connected_sum_points,
    connected_sum_spheres,
    line_isotropy_from_dict,
    line_isotropy_to_dict,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    reverse_orientation,
    su2_isotropy_from_dict,
    su2_isotropy_to_dict,
    triple_cp2_bar_action,
    validate,
)
from equibundle.cyclotomic import ZeroRotation
from equibundle.exact_arith import is_prime
from oracles import SMALL_PRIMES, primes

PRIMES_TO_60 = primes(2, 60)


def test_point_canonicalization():
    # the four representatives (a,b), (b,a), (-a,-b), (-b,-a) collapse
    pt = IsolatedPoint(5, 1, -1)
    assert (pt.a, pt.b) == (1, 4)
    variants = [IsolatedPoint(5, 1, 4), IsolatedPoint(5, 4, 1), IsolatedPoint(5, -1, -4), IsolatedPoint(5, -4, -1)]
    assert len(set(variants)) == 1
    rng = random.Random(6100)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        base = IsolatedPoint(p, a, b)
        for aa, bb in [(b, a), (-a, -b), (-b, -a), (a + p, b - 7 * p)]:
            assert IsolatedPoint(p, aa, bb) == base


def test_sphere_weight_class():
    s = FixedSphere(7, -2, 3)
    assert s.c == 5
    assert s.weight_class() == 2
    assert FixedSphere(7, 2, 3).weight_class() == 2


def test_a_zero_rotation_is_refused_where_it_is_built():
    # the constructor names the rotation and p, so no entry point sees it
    for build, message in [
        (lambda: IsolatedPoint(5, 0, 1), r"rotation numbers \(0, 1\) must be nonzero mod 5"),
        (lambda: IsolatedPoint(5, 5, 2), r"rotation numbers \(5, 2\) must be nonzero mod 5"),
        (lambda: FixedSphere(5, 0, 1), "normal rotation 0 must be nonzero mod 5"),
        (lambda: FixedSphere(5, 10, 1), "normal rotation 10 must be nonzero mod 5"),
    ]:
        with pytest.raises(ZeroRotation, match=message):
            build()


@st.composite
def _rotations(draw):
    """(p, rotations): no, one or two rotations at a modulus from 2 to
    60, a prime about half the time, and a multiple of p about half the
    time.  No rotation stands for an action with an empty fixed set."""
    p = draw(st.one_of(st.sampled_from(PRIMES_TO_60), st.integers(2, 60)))
    rotation = st.one_of(st.integers(-3, 3).map(lambda q: q * p), st.integers(-200, 200))
    return p, draw(st.lists(rotation, max_size=2))


@settings(max_examples=300, deadline=None)
@given(_rotations(), st.integers(-4, 4))
def test_a_point_or_sphere_is_built_only_with_nonzero_rotations(case, alpha):
    # built iff p is prime and every rotation is nonzero mod p; p is
    # checked first, and `GroupAction` checks it with no component too
    p, rotations = case
    if len(rotations) == 2:
        build, stored = (lambda: IsolatedPoint(p, *rotations)), (lambda pt: (pt.a, pt.b))
    elif rotations:
        build, stored = (lambda: FixedSphere(p, rotations[0], alpha)), (lambda s: (s.c,))
    else:
        build, stored = (lambda: GroupAction(p, (), (), 0, 2, 0)), (lambda act: ())
    if not is_prime(p):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$") as caught:
            build()
        assert not isinstance(caught.value, ZeroRotation)
    elif any(r % p == 0 for r in rotations):
        with pytest.raises(ZeroRotation, match=f"must be nonzero mod {p}$"):
            build()
    else:
        assert all(0 < r < p for r in stored(build()))


def test_validate_counts():
    # chi = b2 + 2 and |points| + 2|spheres| = b2 + 2 both enforced, and
    # the message names every entry that fails
    good = linear_cp2(5, 1, 2)
    assert validate(good) is None
    bad_counts = GroupAction(5, good.points, (FixedSphere(5, 1, 1),), 1, 3, 1)
    with pytest.raises(InconsistentCounts) as caught:
        validate(bad_counts)
    assert str(caught.value) == (
        "action fails validation: fixed_set_count: |points| + 2|spheres| = 5, b2 + 2 = 3"
    )
    bad_euler = GroupAction(5, good.points, good.spheres, 1, 6, 1)
    with pytest.raises(InconsistentCounts) as caught:
        validate(bad_euler)
    assert str(caught.value) == "action fails validation: euler_betti: chi = 6, b2 + 2 = 3"
    both = GroupAction(5, good.points, good.spheres, 1, 6, 3)
    with pytest.raises(InconsistentCounts) as caught:
        validate(both)
    assert str(caught.value) == (
        "action fails validation: fixed_set_count: |points| + 2|spheres| = 3, b2 + 2 = 5; "
        "euler_betti: chi = 6, b2 + 2 = 5"
    )
    # p = 2 is an action like any other: its warning is the CLI's
    assert validate(GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (), 0, 2, 0)) is None


def test_linear_generators_validate():
    rng = random.Random(6101)
    for p in SMALL_PRIMES:
        for _ in range(10):
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            validate(linear_cp2(p, a, 0))
            validate(linear_cp2_bar(p, a))
            if a != b:
                validate(linear_cp2(p, a, b))
            validate(linear_s4(p, a, b))


def test_linear_cp2_shapes():
    flat = linear_cp2(7, 2, 0)
    assert len(flat.points) == 1 and len(flat.spheres) == 1
    assert (flat.signature, flat.euler, flat.b2) == (1, 3, 1)
    full = linear_cp2(7, 1, 3)
    assert len(full.points) == 3 and not full.spheres
    assert (full.signature, full.euler, full.b2) == (1, 3, 1)
    # the three tangent pairs: (a,b), (b-a,-a), (a-b,-b)
    want = {IsolatedPoint(7, 1, 3), IsolatedPoint(7, 2, -1), IsolatedPoint(7, -2, -3)}
    assert set(full.points) == want


def test_linear_generator_degenerate_weights():
    with pytest.raises(BadWeights):
        linear_cp2(5, 5, 0)
    with pytest.raises(BadWeights):
        linear_cp2(5, 2, 2)  # a == b collapses two fixed points
    with pytest.raises(BadWeights):
        linear_cp2_bar(5, 0)
    with pytest.raises(BadWeights):
        linear_s4(5, 1, 0)


@pytest.mark.parametrize(
    "build, args",
    [(linear_cp2, (4, 1, 2)), (linear_cp2_bar, (9, 1)), (linear_s4, (5, 0, 1))],
    ids=["cp2-composite-p", "cp2-bar-composite-p", "s4-zero-first-weight"],
)
def test_linear_models_refuse_a_composite_p_or_a_zero_weight(build, args):
    with pytest.raises(BadWeights):
        build(*args)


def test_reverse_orientation_involutive():
    rng = random.Random(6102)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        act = linear_cp2(p, a, 0)
        rev = reverse_orientation(act)
        assert rev.signature == -act.signature
        assert reverse_orientation(rev).same_data(act)


def test_connected_sum_points_requires_matching_data():
    a = linear_s4(5, 1, 2)
    b = linear_s4(5, 1, 2)
    # s4 point 0 is (1,2); its orientation reversal (1,-2) equals point 1
    merged = connected_sum_points(a, 0, b, 1)
    assert len(merged.points) == 2
    assert merged.euler == a.euler + b.euler - 2
    assert merged.signature == 0
    with pytest.raises(IncompatiblePoints):
        connected_sum_points(a, 0, b, 0)


def test_connected_sum_points_with_reversed_copy():
    rng = random.Random(6103)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a == b or (a + b) % p == 0:
            continue
        act = linear_cp2(p, a, b)
        rev = reverse_orientation(act)
        for i in range(3):
            merged = connected_sum_points(act, i, rev, i)
            assert merged.signature == 0
            assert merged.euler == 4
            assert len(merged.points) == 4
            validate(merged)


def test_connected_sum_spheres():
    a = linear_cp2_bar(5, 1)
    b = linear_cp2_bar(5, 1)
    merged = connected_sum_spheres(a, 0, b, 0)
    assert len(merged.spheres) == 1
    assert merged.spheres[0].alpha == -2
    assert merged.signature == -2
    assert merged.euler == 4 and merged.b2 == 2
    # weights must agree up to sign mod p
    c = linear_cp2_bar(5, 2)
    with pytest.raises(IncompatibleSpheres):
        connected_sum_spheres(a, 0, c, 0)
    # opposite-sign weights also glue: 1 and -1 = 4
    d = linear_cp2(5, 4, 0)
    merged2 = connected_sum_spheres(a, 0, d, 0)
    assert len(merged2.spheres) == 1
    assert merged2.signature == 0
    # every pair of weights at p = 7 glues exactly when c = +-c' mod p
    for c in range(1, 7):
        for c2 in range(1, 7):
            x, y = linear_cp2(7, c, 0), linear_cp2(7, c2, 0)
            if (c + c2) % 7 == 0 or (c - c2) % 7 == 0:
                assert connected_sum_spheres(x, 0, y, 0).spheres[0] == FixedSphere(7, c, 2)
            else:
                with pytest.raises(IncompatibleSpheres):
                    connected_sum_spheres(x, 0, y, 0)


@pytest.mark.parametrize("i, j", [(-1, -1), (-1, 0), (0, -4), (3, 0), (0, 3)])
def test_connected_sums_reject_indices_outside_the_fixed_set(i, j):
    # a negative index would pick a component and then leave it in the sum
    act = linear_cp2(7, 1, 3)
    with pytest.raises(IndexError):
        connected_sum_points(act, i, reverse_orientation(act), j)
    bar = linear_cp2_bar(5, 1)
    with pytest.raises(IndexError):
        connected_sum_spheres(bar, i, bar, j)


def test_connected_sum_order_insensitive_data():
    # same_data ignores the bookkeeping order of points and spheres
    a = linear_cp2_bar(5, 1)
    b = linear_cp2_bar(5, 1)
    c = reverse_orientation(linear_cp2(5, 2, 1))
    ab = connected_sum_spheres(a, 0, b, 0)
    # the bar point (1,-1) matches the reversal of c's third point (1,1)
    left = connected_sum_points(ab, 0, c, 2)
    right = connected_sum_points(c, 2, ab, 0)
    assert left.same_data(right)
    assert left.signature == right.signature == -3


def test_triple_action_matches_literal():
    act = triple_cp2_bar_action()
    assert act.p == 5
    assert (act.signature, act.euler, act.b2) == (-3, 5, 3)
    assert len(act.points) == 3 and len(act.spheres) == 1
    assert act.spheres[0] == FixedSphere(5, 1, -2)
    assert sorted((pt.a, pt.b) for pt in act.points) == [(1, 3), (1, 3), (1, 4)]
    validate(act)


def test_action_round_trip():
    rng = random.Random(6104)
    actions = [triple_cp2_bar_action()]
    for _ in range(10):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        actions.append(linear_cp2(p, a, 0))
        actions.append(linear_cp2_bar(p, a))
    for act in actions:
        doc = action_to_dict(act)
        back = action_from_dict(doc)
        assert back == act
        # serialized rotation numbers are signed representatives
        for pair in doc["points"]:
            assert all(-act.p / 2 < v <= act.p / 2 for v in pair)


def test_isotropy_round_trips():
    iso = LineIsotropy((2, None, 5), (1,), (None,), c1_squared=9)
    back = line_isotropy_from_dict(line_isotropy_to_dict(iso))
    assert back == iso
    iso2 = LineIsotropy((1,), (), ())
    assert line_isotropy_from_dict(line_isotropy_to_dict(iso2)).c1_squared is None
    su2 = Su2Isotropy((1, -3, 1), (1,), (0,), c2=1)
    assert su2_isotropy_from_dict(su2_isotropy_to_dict(su2)) == su2


def test_document_errors():
    with pytest.raises(DocumentError):
        action_from_dict({"p": 5})  # missing scalars
    with pytest.raises(DocumentError):
        action_from_dict({"p": "five", "signature": 1, "euler": 3, "b2": 1})
    with pytest.raises(DocumentError):
        action_from_dict({"p": 5, "points": [[1]], "signature": 1, "euler": 3, "b2": 1})
    with pytest.raises(DocumentError):
        action_from_dict(
            {"p": 5, "points": [], "spheres": [{"c": 1}], "signature": 1, "euler": 3, "b2": 1}
        )
    with pytest.raises(DocumentError):
        su2_isotropy_from_dict({"ell_points": [True], "c2": 1})
    with pytest.raises(DocumentError):
        su2_isotropy_from_dict({"ell_points": [1]})  # c2 required


@pytest.mark.parametrize("doc", [[], {"c1_squared": True}, {"lambda_points": [1.5]}])
def test_line_isotropy_reader_refuses(doc):
    with pytest.raises(DocumentError):
        line_isotropy_from_dict(doc)


@pytest.mark.parametrize("doc", [{"ell_points": [None], "c2": 0}, {"c2": None}])
def test_su2_isotropy_reader_refuses(doc):
    # only a line record may leave a slot free
    with pytest.raises(DocumentError):
        su2_isotropy_from_dict(doc)


_CP2 = action_to_dict(linear_cp2(5, 1, 0))
_SPHERE_M = {**_CP2, "spheres": [{"c": 1, "alpha": 1, "m": 0}]}


@pytest.mark.parametrize(
    "reader, doc, where, key",
    [
        (action_from_dict, {**_CP2, "sign": 1}, "action", "sign"),
        (action_from_dict, _SPHERE_M, "action.spheres", "m"),
        (line_isotropy_from_dict, {"lambda_sphere": [4]}, "line_isotropy", "lambda_sphere"),
        (su2_isotropy_from_dict, {"c2": 0, "c_2": 0}, "su2_isotropy", "c_2"),
    ],
    ids=["action", "sphere", "line", "su2"],
)
def test_a_reader_refuses_an_unknown_key(reader, doc, where, key):
    # a misspelt key is named, not read as a missing field
    with pytest.raises(DocumentError, match=re.escape(f"{where}: unknown field {key!r}")):
        reader(doc)


def test_line_isotropy_slots():
    iso = LineIsotropy((2, None), (None,), (4,))
    assert iso.free_slots() == [("lambda", 1), ("lambda_sphere", 0)]
    filled = iso.with_slot("lambda", 1, 7)
    assert filled.lambda_points == (2, 7)
    assert filled.free_slots() == [("lambda_sphere", 0)]
    cleared = filled.with_slot("m", 0, None)
    assert ("m", 0) in cleared.free_slots()


def test_shape_mismatch():
    act = linear_cp2(5, 1, 2)  # 3 points, no spheres
    with pytest.raises(ShapeMismatch):
        LineIsotropy((1, 2), (), ()).check_shape(act)
    with pytest.raises(ShapeMismatch):
        Su2Isotropy((1, 2, 3), (9,), (0,), c2=1).check_shape(act)


NON_INTEGER_RECORDS = {
    "su2-ell-float": lambda: Su2Isotropy((1.5,), (), (), 1),
    "su2-ell-str": lambda: Su2Isotropy(("3",), (), (), 1),
    "su2-m-float": lambda: Su2Isotropy((), (1,), (2.0,), 1),
    "su2-c2-float": lambda: Su2Isotropy((1,), (), (), 1.0),
    "line-lambda-float": lambda: LineIsotropy((2.9,), (), ()),
    "line-lambda-str": lambda: LineIsotropy(("3",), (None,), ()),
    "line-c1-squared-float": lambda: LineIsotropy((2,), (), (), c1_squared=2.5),
}


@pytest.mark.parametrize("build", NON_INTEGER_RECORDS.values(), ids=NON_INTEGER_RECORDS)
def test_isotropy_records_refuse_a_non_integer(build):
    # a float or a string is refused, not truncated to an integer
    with pytest.raises(TypeError):
        build()


def test_isotropy_records_keep_integers_and_free_slots():
    su2 = Su2Isotropy([1, -3], (), (), c2=2)
    assert (su2.ell_points, su2.c2) == ((1, -3), 2)
    line = LineIsotropy([2, None], (None,), (4,), c1_squared=-1)
    assert (line.lambda_points, line.lambda_spheres, line.c1_squared) == ((2, None), (None,), -1)


# -- document round trips ----------------------------------------------------

_SMALL = st.integers(-40, 40)


@st.composite
def _actions(draw):
    p = draw(st.sampled_from(PRIMES_TO_60))
    rotation = _SMALL.filter(lambda r: r % p)
    points = draw(st.lists(st.tuples(rotation, rotation), max_size=5))
    spheres = draw(st.lists(st.tuples(rotation, _SMALL), max_size=3))
    return GroupAction(
        p,
        tuple(IsolatedPoint(p, a, b) for a, b in points),
        tuple(FixedSphere(p, c, alpha) for c, alpha in spheres),
        *draw(st.tuples(_SMALL, _SMALL, _SMALL)),
    )


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


@settings(max_examples=60, deadline=None)
@given(_actions())
def test_action_section_round_trips(act):
    doc = action_to_dict(act)
    back = action_from_dict(_json_round_trip(doc))
    assert back == act
    assert action_to_dict(back) == doc


_SLOTS = st.lists(st.one_of(st.none(), _SMALL), max_size=5)


@settings(max_examples=60, deadline=None)
@given(_SLOTS, _SLOTS, _SLOTS, st.one_of(st.none(), _SMALL))
def test_line_isotropy_section_round_trips(lams, lam_spheres, ms, c1sq):
    iso = LineIsotropy(tuple(lams), tuple(lam_spheres), tuple(ms), c1sq)
    doc = line_isotropy_to_dict(iso)
    back = line_isotropy_from_dict(_json_round_trip(doc))
    assert back == iso
    assert line_isotropy_to_dict(back) == doc


_INTS = st.lists(_SMALL, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_INTS, _INTS, _INTS, _SMALL)
def test_su2_isotropy_section_round_trips(ells, ell_spheres, ms, c2):
    iso = Su2Isotropy(tuple(ells), tuple(ell_spheres), tuple(ms), c2)
    doc = su2_isotropy_to_dict(iso)
    back = su2_isotropy_from_dict(_json_round_trip(doc))
    assert back == iso
    assert su2_isotropy_to_dict(back) == doc
