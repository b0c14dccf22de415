import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibundle.action_model import (
    FixedSphere,
    GroupAction,
    IsolatedPoint,
    LineIsotropy,
    Su2Isotropy,
    connected_sum_points,
    connected_sum_spheres,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    reverse_orientation,
    triple_cp2_bar_action,
    validate,
)
from equibundle import _poly, congruence, series
from equibundle.congruence import (
    InconsistentCounts,
    MissingChernSquare,
    NotCoprimeRotation,
    NotSolvable,
    Overdetermined,
    RelationRecord,
    Underdetermined,
    ZeroSelfIntersection,
    _point_classes,
    boundary_chern_data,
    check_line_bundle,
    check_rotation_relations,
    check_su2,
    flat_chern_class,
    gsign_value,
    gsignature_check,
    linking_form,
    search_realizable,
    solve_theorem_a,
    theorem_a_condition,
)
from equibundle.cyclotomic import (
    NotRational,
    ZeroRotation,
    _term,
    eval_point_term,
    eval_sphere_term,
)
from equibundle.series import (
    expand_boundary_term,
    expand_point_term,
    expand_sphere_term,
    expand_su2_point_term,
    expand_su2_sphere_term,
)
from oracles import (
    SMALL_PRIMES,
    _TERMS,
    _battery_by_expansion,
    _binomial_sums,
    _boundary_data_by_scan,
    _count_calls,
    _exact_mod_p,
    _field_mod_p,
    _forbidden,
    _gf,
    _gf_expand,
    _gsign_in_the_field,
    _point_class,
    _search_by_filtering,
    _search_by_prefix,
    _search_by_relation_1,
    _series_records_by_gf,
    _solve_by_scan,
    _solver_round_trips,
    fixed_models,
    primes,
    replace,
)

PRIMES_TO_31 = primes(3, 31)


def _model_pool(p, rng, count=4):
    pool = fixed_models(p)[:3]
    while len(pool) < count:
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a != b and (a + b) % p != 0:
            pool.append(linear_cp2(p, a, b))
        else:
            pool.append(linear_cp2_bar(p, a))
    return pool


def test_gsign_value_equals_signature_on_models():
    # the generator's value, and the field sum at every power
    rng = random.Random(8300)
    for p in SMALL_PRIMES:
        for act in _model_pool(p, rng, 5):
            assert gsign_value(act) == Fraction(act.signature)
            for k in range(1, p):
                assert _gsign_in_the_field(act, k) == Fraction(act.signature)


def test_gsign_value_of_an_empty_fixed_set_is_zero():
    assert gsign_value(GroupAction(5, (), (), 0, 0, -2)) == 0


def _outcome(f, *args):
    try:
        return f(*args)
    except (NotRational, ValueError) as exc:  # ZeroRotation is a ValueError
        return type(exc), str(exc)


def _random_action(draw, p):
    r = st.integers(-p, 2 * p).filter(lambda x: x % p)
    points = draw(st.lists(st.tuples(r, r), max_size=4))
    spheres = draw(st.lists(st.tuples(r, st.integers(-4, 4)), max_size=2))
    return GroupAction(
        p,
        tuple(IsolatedPoint(p, a, b) for a, b in points),
        tuple(FixedSphere(p, c, alpha) for c, alpha in spheres),
        0,
        0,
        0,
    )


@st.composite
def _signature_data(draw):
    """(action, k): a sum of linear models, whose values are rational, or
    random fixed data at a prime up to 101, p = 2 and 3 included, where
    most sums are irrational; any unit power k."""
    if draw(st.booleans()):
        act = draw(_connected_sums())[0]
    else:
        act = _random_action(draw, draw(st.sampled_from([2, 3, 5, 7, 13, 29, 53, 101])))
    return act, draw(st.integers(-act.p, 3 * act.p).filter(lambda k: k % act.p))


@settings(max_examples=300, deadline=None)
@given(_signature_data())
def test_gsign_value_equals_the_sum_in_the_field(case):
    # the value read from integer windows, or the same error and message;
    # the field sum at any unit power is that rational, or irrational too
    act, k = case
    value = _outcome(gsign_value, act)
    assert value == _outcome(_gsign_in_the_field, act, 1)
    at_k = _outcome(_gsign_in_the_field, act, k)
    if isinstance(value, Fraction):
        assert at_k == value
    else:
        assert at_k[0] is value[0] is NotRational


def test_gsign_value_at_p_2_and_3_equals_the_sum_in_the_field():
    # Q(zeta_2) = Q, and at p = 3 every point and sphere term is rational:
    # (t - 1)^2 folds to [2, -2] and [1, -2, 1] there
    for p in (2, 3):
        classes = [(a, b) for a in range(1, p) for b in range(1, p)]
        for points in itertools.combinations_with_replacement(classes, 3):
            powers = [k for k in range(-p, 3 * p) if k % p]
            for c, alpha, k in itertools.product(range(1, p), (-2, 1), powers):
                fixed_points = tuple(IsolatedPoint(p, *pt) for pt in points)
                act = GroupAction(p, fixed_points, (FixedSphere(p, c, alpha),), 0, 0, 0)
                assert gsign_value(act) == _gsign_in_the_field(act, k)


def test_gsign_reverses_sign_under_orientation_flip():
    rng = random.Random(8301)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        act = linear_cp2(p, a, 0)
        rev = reverse_orientation(act)
        assert gsign_value(rev) == -gsign_value(act)
        for k in range(2, p):
            assert _gsign_in_the_field(rev, k) == -_gsign_in_the_field(act, k)


def test_gsignature_check_on_connected_sums():
    # gluing preserves the exact signature identity
    a = linear_cp2_bar(5, 1)
    ab = connected_sum_spheres(a, 0, linear_cp2_bar(5, 1), 0)
    assert gsignature_check(ab).ok
    assert gsignature_check(triple_cp2_bar_action()).ok


def _model_through_point(p, a, b, s4):
    """A linear model whose point 0 has the class of (a, b)."""
    if s4:
        return linear_s4(p, a, b)
    if a == b:
        return linear_cp2(p, a, 0)
    return linear_cp2_bar(p, a) if (a + b) % p == 0 else linear_cp2(p, a, b)


@st.composite
def _connected_sums(draw):
    """Iterated connected sums of linear models at a prime <= 31, with
    the signature each sum must carry.  A point is glued to point 0 of
    a reversed copy of a model through its class; a sphere to sphere 0
    of a model (reversed or not) with normal weight +-c."""
    p = draw(st.sampled_from(PRIMES_TO_31))
    a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    x = _model_through_point(p, a, b, draw(st.booleans()))
    sign = x.signature
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["points"] * bool(x.points) + ["spheres"] * bool(x.spheres)
        if draw(st.sampled_from(kinds)) == "points":
            i = draw(st.integers(0, len(x.points) - 1))
            pt = x.points[i]
            y = reverse_orientation(_model_through_point(p, pt.a, pt.b, draw(st.booleans())))
            x_next = connected_sum_points(x, i, y, 0)
        else:
            i = draw(st.integers(0, len(x.spheres) - 1))
            c = x.spheres[i].c * draw(st.sampled_from([1, -1]))
            y = draw(st.sampled_from([linear_cp2(p, c, 0), linear_cp2_bar(p, c)]))
            if draw(st.booleans()):
                y = reverse_orientation(y)
            x_next = connected_sum_spheres(x, i, y, 0)
        x, sign = x_next, sign + y.signature
    return x, sign


@settings(max_examples=40, deadline=None)
@given(_connected_sums())
def test_connected_sums_keep_the_rotation_and_signature_conditions(case):
    # the glued fixed-point terms cancel (points) or add (spheres), so
    # every sum of linear models validates and passes both batteries
    act, sign = case
    assert act.signature == sign
    validate(act)
    report = check_rotation_relations(act)
    assert report.ok, [r.display() for r in report.failures()]
    assert gsignature_check(act).ok


@st.composite
def _count_rule_actions(draw):
    """Random fixed data at p <= 13 with chi and b2 read off the count
    rule.  p = 3 is drawn about half the time: there every G-signature
    is rational, while at p >= 5 random data is seldom rational.  The
    linear models and their sums, whose G-signature is their Sign, are
    the cases of `test_rotation_relations_pass_on_linear_models` and
    `test_connected_sums_keep_the_rotation_and_signature_conditions`."""
    act = _random_action(draw, draw(st.one_of(st.just(3), st.sampled_from(SMALL_PRIMES))))
    b2 = len(act.points) + 2 * len(act.spheres) - 2
    return replace(act, euler=b2 + 2, b2=b2)


@settings(max_examples=200, deadline=None)
@given(_count_rule_actions())
def test_an_integral_g_signature_passes_the_battery(act):
    # the battery is the G-signature identity read mod p: with Sign set to
    # an integral G-signature, every rotation congruence holds
    validate(act)
    try:
        value = gsign_value(act)
    except NotRational:
        return
    if value.denominator == 1:
        report = check_rotation_relations(replace(act, signature=int(value)))
        assert report.ok, [r.display() for r in report.failures()]


def test_the_battery_does_not_imply_an_integral_g_signature():
    # at p = 5 these points pass every rotation congruence with Sign 2, and
    # `search_realizable` finds them, but their G-signature is irrational:
    # the search promises the rotation congruences only
    act = GroupAction(5, tuple(IsolatedPoint(5, 1, b) for b in (1, 1, 1, 3)), (), 2, 4, 2)
    _passes_the_battery_with_an_irrational_g_signature(act, (5, 4, 0, [], 2, 4, 2))


def test_the_battery_does_not_imply_an_integral_g_signature_at_p_7():
    # the same at p = 7, with a sphere: points (1, 3) and (3, 4), sphere
    # (c, alpha) = (3, 2), Sign -2
    points = (IsolatedPoint(7, 1, 3), IsolatedPoint(7, 3, 4))
    act = GroupAction(7, points, (FixedSphere(7, 3, 2),), -2, 4, 2)
    _passes_the_battery_with_an_irrational_g_signature(act, (7, 2, 1, [2], -2, 4, 2))


def _passes_the_battery_with_an_irrational_g_signature(act, profile):
    validate(act)
    assert check_rotation_relations(act).ok
    assert any(found.same_data(act) for found in search_realizable(*profile))
    with pytest.raises(NotRational):
        gsign_value(act)


def test_gsignature_records_equal_every_power():
    # one evaluation at k = 1 stands for all p-1 records; each must
    # equal the value evaluated at its own power, wrong signature too
    rng = random.Random(8303)
    for p in PRIMES_TO_31:
        for act in _model_pool(p, rng):
            values = [_gsign_in_the_field(act, k) for k in range(1, p)]
            for claimed in (act, replace(act, signature=0)):
                report = gsignature_check(claimed)
                assert [r.name for r in report.records] == [
                    f"signature_power_{k}" for k in range(1, p)
                ]
                assert [r.lhs for r in report.records] == values
                assert report.ok == all(v == claimed.signature for v in values)


@pytest.mark.parametrize("p", [101, 1009])
def test_a_shared_value_is_held_once(p):
    # the p - 1 G-signature records are one run of shared objects, and a
    # passing battery shares the target's objects: a few runs, not O(p)
    def runs(report):
        calls = []
        "".join(report._pieces(lambda *run: calls.append(run) or ("", ""), ""))
        return len(calls)

    for act in (linear_cp2(p, 1, 2), linear_cp2_bar(p, 3), linear_s4(p, 1, 2)):
        gsign = gsignature_check(act)
        assert len(gsign.records) == p - 1 and runs(gsign) == 1
        battery = check_rotation_relations(act)
        assert battery.ok and runs(battery) <= 6


def test_gsignature_check_requires_odd_prime():
    act = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (), 0, 2, 0)
    with pytest.raises(ValueError):
        gsignature_check(act)


def test_gf_oracle_on_known_expansions():
    # (1+s)^-1 = 1 - s + s^2 - ...; the point (1, 1) is (t+1)^2 = (2+s)^2
    assert _gf_expand(7, [([(-1, 1)], (), 2)], 4) == [1, 6, 1, 6, 1]
    assert _gf(7, expand_point_term, 1, 1, 0, 3) == [4, 4, 1, 0]


def _assert_gf_matches_exact(p, a, b, c, alpha, m, lam, ell):
    # the GF(p) oracle equals every exact rational expansion reduced
    # mod p, coefficient by coefficient, through order p-2
    n = p - 2
    kinds = [
        (expand_point_term, (a, b, lam)),
        (expand_sphere_term, (c, alpha, lam)),
        (expand_boundary_term, (c, m, lam)),
        (expand_su2_point_term, (a, b, ell)),
        (expand_su2_sphere_term, (c, alpha, m, ell)),
    ]
    for expand, params in kinds:
        assert _gf(p, expand, *params, n) == _exact_mod_p(expand(*params, n), p, n)


def test_gf_expansions_match_exact_series():
    rng = random.Random(8302)
    for p in SMALL_PRIMES:
        for _ in range(6):
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            c = rng.randrange(1, p)
            alpha = rng.randrange(-6, 7)
            m = rng.randrange(-4, 5)
            lam = rng.randrange(0, p)
            ell = rng.randrange(0, p)
            _assert_gf_matches_exact(p, a, b, c, alpha, m, lam, ell)


@st.composite
def _gf_cases(draw):
    p = draw(st.sampled_from(PRIMES_TO_31))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p)
    small = st.integers(-3 * p, 3 * p)
    a, b, c = (draw(unit) for _ in range(3))
    alpha, m, lam, ell = (draw(small) for _ in range(4))
    return p, a, b, c, alpha, m, lam, ell


@settings(max_examples=60, deadline=None)
@given(_gf_cases())
def test_gf_ring_is_rational_ring_mod_p(case):
    _assert_gf_matches_exact(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES_TO_31), st.integers(-200, 200))
def test_gf_binomial_is_rational_binomial_mod_p(p, e):
    n = p - 2
    got = _gf_expand(p, [([(e, 1)], (), 2)], n)
    assert got == _exact_mod_p(series._expand([([(e, 1)], (), 2)], n), p, n)


def test_rotation_relations_pass_on_linear_models():
    rng = random.Random(8303)
    for p in SMALL_PRIMES:
        for act in _model_pool(p, rng, 5):
            report = check_rotation_relations(act)
            assert report.ok, [r.display() for r in report.failures()]
            names = [r.name for r in report.records]
            assert names[:4] == ["relation_1", "relation_2", "relation_3", "relation_4"]
            assert f"series_order_{p - 2}" in names


def test_rotation_relations_fail_on_perturbation():
    base = linear_cp2(5, 1, 2)
    pts = list(base.points)
    bad = GroupAction(
        5,
        (IsolatedPoint(5, pts[0].a + 1, pts[0].b),) + tuple(pts[1:]),
        (),
        base.signature,
        base.euler,
        base.b2,
    )
    assert not check_rotation_relations(bad).ok


def test_rotation_relations_need_odd_prime():
    act = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (), 0, 2, 0)
    with pytest.raises(ValueError):
        check_rotation_relations(act)


# -- the battery in the zeta-power basis ------------------------------------
# Each component's vector holds its term in Z[zeta]/p in the basis
# 1, t, ..., t^(p-2); the Pascal transform to s = t - 1 must give the
# expansion through s^(p-2) that the GF(p) oracle computes.


def _point_series(p, a, b):
    return congruence._to_s_basis(p, congruence._point_vector(p, a, b)[4:])


def _sphere_series(p, c, alpha):
    return congruence._to_s_basis(p, congruence._sphere_vector(p, c, alpha)[4:])


@pytest.mark.parametrize("p", primes(3, 23))
def test_zeta_basis_vectors_are_the_gf_expansions(p):
    n = p - 2
    for a in range(1, p):
        for b in range(1, p):
            assert _point_series(p, a, b) == _gf(p, expand_point_term, a, b, 0, n), (a, b)
        for alpha in (-2, 0, 1, 3):
            assert _sphere_series(p, a, alpha) == _gf(p, expand_sphere_term, a, alpha, 0, n)


@st.composite
def _component_cases(draw):
    p = draw(st.sampled_from(PRIMES_TO_31))
    unit = st.integers(-5 * p, 5 * p).filter(lambda x: x % p)
    return p, draw(unit), draw(unit), draw(st.integers(-4 * p, 4 * p))


@settings(max_examples=80, deadline=None)
@given(_component_cases())
def test_zeta_basis_is_a_ring_homomorphism_image(case):
    # each vector is the reduction mod p of (zeta-1)^2 * (field term),
    # and reads in s as the GF(p) expansion
    p, a, b, alpha = case
    n = p - 2
    square = _term(p, [(0, 1), (1, -2), (2, 1)], (), 0)  # (zeta - 1)^2
    point = congruence._point_vector(p, a, b)[4:]
    sphere = congruence._sphere_vector(p, a, alpha)[4:]
    assert point == _field_mod_p(square * eval_point_term(p, 1, a, b))
    assert sphere == _field_mod_p(square * eval_sphere_term(p, 1, a, alpha))
    assert congruence._to_s_basis(p, point) == _gf(p, expand_point_term, a, b, 0, n)
    assert congruence._to_s_basis(p, sphere) == _gf(p, expand_sphere_term, a, alpha, 0, n)


def test_pascal_transform_matches_binomial_sums():
    rng = random.Random(8310)
    for p in primes(3, 23) + [31, 97, 401, 1009]:
        v = [rng.randrange(p) for _ in range(p - 1)]
        assert congruence._to_s_basis(p, v) == _binomial_sums(p, v)
    assert _binomial_sums(7, [1, 2, 3]) == [6, 8 % 7, 3]  # 1 + 2(1+s) + 3(1+s)^2
    assert congruence._to_s_basis(5, [0, 0, 0, 4]) == [4, 2, 2, 4]  # 4(1+s)^3 mod 5


def test_rotation_target_closed_form_matches_the_residue_route():
    # Sign * (t-1)^2 read through `_residues`, as a component term is:
    # the term Sign * (t-1)^2 / (t-1)^2, of pole order 2
    for p in primes(3, 101):
        for sign in range(-3, 4):
            sign_term = ([(0, sign), (1, -2 * sign), (2, sign)], (), 2)
            want = [0, 3 * sign % p, 0, 0] + congruence._residues(p, sign_term)
            assert congruence._rotation_target(p, sign) == want, (p, sign)


def test_battery_at_large_p_equals_expansion_oracle():
    p, third = 1009, 1009 // 3
    cases = [
        (linear_cp2(p, third, 2 * third + 1), True),
        (linear_cp2(p, third + 1, 0), True),  # a fixed point and a fixed sphere
        (linear_s4(p, third, third + 2), True),
        (replace(linear_s4(p, third + 3, 2 * third), signature=1), False),
    ]
    # at small p the Sign * s^2 target is truncated (p = 3) or zero
    # (linear_s4); at p = 3 the battery cannot see the signature, since
    # 3 * Sign vanishes too, so the perturbed twin passes there
    for q in (3, 5, 7):
        for act in (linear_cp2(q, 1, 2), linear_cp2_bar(q, 1), linear_s4(q, 1, 2)):
            cases += [(act, True), (replace(act, signature=act.signature + 1), q == 3)]
    for act, ok in cases:
        report = check_rotation_relations(act)
        assert report.records == _battery_by_expansion(act)
        assert report.ok == ok, act


def test_passing_battery_changes_no_basis(monkeypatch):
    # a sum equal to the target reads as the target's s coefficients;
    # only a failing sum is turned into powers of s
    monkeypatch.setattr(congruence, "_to_s_basis", _forbidden("change of basis"))
    for act in (linear_cp2(401, 133, 268), linear_cp2_bar(31, 10), triple_cp2_bar_action()):
        assert check_rotation_relations(act).ok
    with pytest.raises(AssertionError, match="change of basis"):
        check_rotation_relations(replace(linear_cp2(401, 133, 268), signature=2))


def test_battery_and_search_use_no_series_division(monkeypatch):
    forbidden = _forbidden("series expansion or convolution on the battery path")
    for module in (series, congruence):
        for name in dir(series):
            if name.startswith("expand_") and hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(_poly, "convolve", forbidden)
    monkeypatch.setattr(series, "convolve", forbidden)
    monkeypatch.setattr(series, "_expand", forbidden)
    # congruence binds no name of the series engine
    assert not [
        name for name, v in vars(congruence).items() if getattr(v, "__module__", "") == series.__name__
    ]
    for act in (linear_cp2(31, 10, 21), linear_cp2_bar(31, 10), triple_cp2_bar_action()):
        assert check_rotation_relations(act).ok
    assert list(search_realizable(7, 3, 0, [], 1, 3, 1))
    assert list(search_realizable(7, 1, 1, [1], 1, 3, 1))
    assert check_line_bundle(linear_cp2(7, 1, 3), LineIsotropy((2, 3, 5), (), (), c1_squared=1)).ok
    assert check_su2(linear_s4(7, 1, 3), Su2Isotropy((1, 2), (), (), c2=1)).ok
    assert check_su2(linear_cp2_bar(5, 1), Su2Isotropy((3,), (3,), (-1,), c2=1)).ok


# (0, 1) at p = 5 and a sphere with c = 0: the constructors refuse both,
# naming the rotation and p, so no entry point is reached with them
DEGENERATE = [
    (
        lambda: GroupAction(5, (IsolatedPoint(5, 1, 2), IsolatedPoint(5, 0, 1)), (), 0, 2, 0),
        r"rotation numbers \(0, 1\) must be nonzero mod 5",
    ),
    (
        lambda: GroupAction(5, (IsolatedPoint(5, 1, 2),), (FixedSphere(5, 0, 1),), 1, 3, 1),
        "normal rotation 0 must be nonzero mod 5",
    ),
]


def _line_iso(act, free=False):
    n, s = len(act.points), len(act.spheres)
    lam = (None if free else 1,) + (1,) * (n - 1)
    return LineIsotropy(lam, (1,) * s, (0,) * s, c1_squared=1)


def _su2_iso(act):
    s = len(act.spheres)
    return Su2Isotropy((1,) * len(act.points), (1,) * s, (0,) * s, c2=1)


UNIT_CHECKED = {
    "gsignature_check": gsignature_check,
    "check_rotation_relations": check_rotation_relations,
    "theorem_a_condition": lambda act: theorem_a_condition(act, _line_iso(act)),
    "solve_theorem_a": lambda act: solve_theorem_a(act, _line_iso(act, free=True)),
    "check_line_bundle": lambda act: check_line_bundle(act, _line_iso(act)),
    "check_su2": lambda act: check_su2(act, _su2_iso(act)),
}


@pytest.mark.parametrize("entry", sorted(UNIT_CHECKED))
@pytest.mark.parametrize("build, message", DEGENERATE, ids=["point", "sphere"])
def test_non_unit_rotation_names_the_component(entry, build, message):
    # the data is refused where it is built, before the entry point runs
    with pytest.raises(ZeroRotation, match=message):
        UNIT_CHECKED[entry](build())


def test_relation_two_is_implied_by_relation_one_and_series():
    # random fixed data adjusted so relation (1) holds and Sign is read
    # off the order-2 series coefficient: relation (2) must follow
    rng = random.Random(8304)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        n_pts = rng.randrange(1, 5)
        n_sph = rng.randrange(1, 3)
        points = tuple(
            IsolatedPoint(p, rng.randrange(1, p), rng.randrange(1, p)) for _ in range(n_pts)
        )
        cs = [rng.randrange(1, p) for _ in range(n_sph)]
        alphas = [rng.randrange(-5, 6) for _ in range(n_sph - 1)]
        # solve relation (1) for the last self-intersection
        r1 = sum(pow(pt.a * pt.b, p - 2, p) for pt in points)
        r1 -= sum(al * pow(c * c, p - 2, p) for c, al in zip(cs, alphas))
        last = r1 * (cs[-1] ** 2) % p
        alphas.append(last if last != 0 else p)
        spheres = tuple(FixedSphere(p, c, al) for c, al in zip(cs, alphas))
        b2 = n_pts + 2 * n_sph - 2
        probe = GroupAction(p, points, spheres, 0, b2 + 2, b2)
        rep = check_rotation_relations(probe)
        by_name = {r.name: r for r in rep.records}
        assert by_name["relation_1"].passed
        if p == 3:
            # 3 * Sign vanishes mod 3, so relation (2) already follows
            assert by_name["relation_2"].passed
            continue
        sign = by_name["series_order_2"].lhs  # the order-2 residue is Sign mod p
        act = GroupAction(p, points, spheres, sign, b2 + 2, b2)
        rep2 = check_rotation_relations(act)
        by_name2 = {r.name: r for r in rep2.records}
        assert by_name2["series_order_2"].passed
        assert by_name2["relation_2"].passed


def test_constant_isotropy_satisfies_condition():
    # with every fiber weight equal and no twisting, the condition is
    # lam * relation(1), which vanishes on data passing the battery
    rng = random.Random(8305)
    for p in SMALL_PRIMES:
        for act in _model_pool(p, rng, 4):
            lam = rng.randrange(0, 3 * p)
            iso = LineIsotropy(
                (lam,) * len(act.points), (lam,) * len(act.spheres), (0,) * len(act.spheres)
            )
            assert theorem_a_condition(act, iso).ok


def test_condition_on_canonical_bundle_data():
    rng = random.Random(8306)
    for _ in range(30):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a == b:
            continue
        lam = rng.randrange(-p, p)
        act = linear_cp2(p, a, b)
        iso = LineIsotropy((lam, lam + a, lam + b), (), ())
        assert theorem_a_condition(act, iso).ok


@pytest.mark.parametrize(
    "p, pairs",
    [(5, [(1, 2), (1, 3), (2, 4)]), (7, [(1, 2), (1, 3), (2, 5)]), (11, [(1, 2), (3, 7), (2, 9)])],
)
def test_line_bundle_conditions_are_necessary_and_sufficient_on_linear_cp2(p, pairs):
    # O(n) on linear CP^2 has fiber weights (k, k + n*a, k + n*b) at the
    # points in the order linear_cp2 lists them, for any shift k, and
    # c1^2 = n^2.  check_line_bundle accepts exactly these p^2 of the p^4
    # records; the SU(2) check accepts each L + L^-1, with ell = lambda
    # and c2 = -n^2.
    for a, b in pairs:
        act = linear_cp2(p, a, b)
        geometric = {
            (tuple((k + n * w) % p for w in (0, a, b)), n * n % p)
            for k in range(p)
            for n in range(p)
        }
        accepted = {
            (lam, c1)
            for lam in itertools.product(range(p), repeat=3)
            for c1 in range(p)
            if check_line_bundle(act, LineIsotropy(lam, (), (), c1)).ok
        }
        assert accepted == geometric
        for lam, c1 in geometric:
            assert check_su2(act, Su2Isotropy(lam, (), (), -c1)).ok


def test_condition_requires_complete_record():
    act = linear_cp2(5, 1, 0)
    with pytest.raises(Underdetermined):
        theorem_a_condition(act, LineIsotropy((None,), (1,), (0,)))


def test_solve_fixed_line_twisting():
    # CP^2 with a fixed line: the twisting degree solves to -1
    for p in SMALL_PRIMES:
        for a in range(1, p):
            act = linear_cp2(p, a, 0)
            lam = 2 * a  # canonical-bundle fiber weight at the point
            partial = LineIsotropy((lam,), (a,), (None,))
            done = solve_theorem_a(act, partial)
            assert done.m_spheres[0] % p == (-1) % p


def test_solve_third_point_weight():
    # canonical data with the last fiber weight blank solves to lam + b
    rng = random.Random(8307)
    for _ in range(30):
        p = rng.choice(SMALL_PRIMES)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if a == b:
            continue
        lam = rng.randrange(0, p)
        act = linear_cp2(p, a, b)
        done = solve_theorem_a(act, LineIsotropy((lam, lam + a, None), (), ()))
        assert done.lambda_points[2] % p == (lam + b) % p


def test_solve_slot_count_errors():
    act = linear_cp2(5, 1, 0)
    with pytest.raises(Underdetermined):
        solve_theorem_a(act, LineIsotropy((None,), (None,), (0,)))
    with pytest.raises(Overdetermined):
        solve_theorem_a(act, LineIsotropy((1,), (1,), (0,)))


def test_solve_degenerate_coefficient():
    # a sphere weight slot with p | alpha has zero coefficient: the
    # congruence either holds for every value or for none
    p = 5
    act = GroupAction(
        p, (IsolatedPoint(p, 1, 1),), (FixedSphere(p, 1, p),), 0, 5, 3
    )
    # residual with lambda_sphere = 0: 1/(1*1) * lam_pt + m/c
    solvable = LineIsotropy((p,), (None,), (0,))  # lam_pt = p == 0 mod p
    done = solve_theorem_a(act, solvable)
    assert done.lambda_spheres[0] == 0
    assert theorem_a_condition(act, done).ok
    stuck = LineIsotropy((1,), (None,), (0,))
    with pytest.raises(NotSolvable):
        solve_theorem_a(act, stuck)


def test_solve_matches_brute_force_exhaustively():
    # single point, single sphere, p in {3, 5}: compare against a scan
    # of all residues for each slot kind
    _solve_by_scan()


def test_solve_random_round_trips():
    _solver_round_trips(random.Random(8308), _model_pool)


def test_line_bundle_canonical_data():
    act = linear_cp2(7, 1, 3)
    iso = LineIsotropy((2, 3, 5), (), (), c1_squared=1)
    report = check_line_bundle(act, iso)
    assert report.ok
    names = {r.name for r in report.records}
    assert {"first_order", "second_order", "series_order_2"} <= names


def test_line_bundle_missing_chern_square():
    act = linear_cp2(7, 1, 3)
    with pytest.raises(MissingChernSquare):
        check_line_bundle(act, LineIsotropy((2, 3, 5), (), ()))


def test_line_bundle_wrong_chern_square_fails():
    act = linear_cp2(7, 1, 3)
    report = check_line_bundle(act, LineIsotropy((2, 3, 5), (), (), c1_squared=2))
    assert not report.ok


def test_line_bundle_representative_independence():
    # shifting any fiber weight by a multiple of p changes nothing
    rng = random.Random(8309)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        act = linear_cp2(p, a, 0)
        lam, lam_f, m = rng.randrange(0, p), rng.randrange(0, p), rng.randrange(-3, 4)
        base = check_line_bundle(act, LineIsotropy((lam,), (lam_f,), (m,), c1_squared=4))
        shifted = check_line_bundle(
            act,
            LineIsotropy((lam + 3 * p,), (lam_f - 2 * p,), (m,), c1_squared=4),
        )
        assert base.records == shifted.records


def test_su2_examples():
    # standard sphere lift and both bar lifts
    s4 = linear_s4(7, 1, 3)
    assert check_su2(s4, Su2Isotropy((1, 2), (), (), c2=1)).ok
    bar = linear_cp2_bar(5, 1)
    assert check_su2(bar, Su2Isotropy((1,), (0,), (0,), c2=1)).ok
    assert check_su2(bar, Su2Isotropy((3,), (3,), (-1,), c2=1)).ok


def test_su2_weight_sign_flip_invariance():
    # ell -> -ell with m -> -m fixes every record
    rng = random.Random(8310)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        bar = linear_cp2_bar(p, a)
        ell_p, ell_s, m = rng.randrange(0, p), rng.randrange(0, p), rng.randrange(-3, 4)
        c2 = rng.randrange(0, 5)
        one = check_su2(bar, Su2Isotropy((ell_p,), (ell_s,), (m,), c2=c2))
        two = check_su2(bar, Su2Isotropy((-ell_p,), (-ell_s,), (-m,), c2=c2))
        three = check_su2(bar, Su2Isotropy((ell_p + p,), (ell_s - p,), (m,), c2=c2))
        assert one.records == two.records == three.records


def test_su2_wrong_charge_fails():
    s4 = linear_s4(7, 1, 3)
    assert not check_su2(s4, Su2Isotropy((1, 2), (), (), c2=2)).ok


def test_bundle_checks_equal_the_gf_oracle():
    # random fixed data and isotropy at p <= 31 and at the line and SU(2)
    # primes of the battery deck, every number passed
    # unreduced; the records must be the weight sums mod p and the
    # series records of the GF(p) oracle, read from the raw data
    rng = random.Random(8320)
    for _ in range(300):
        p = rng.choice(PRIMES_TO_31 + [97, 101, 109, 113, 199, 211, 401, 601, 997])
        units = [x for x in range(-3 * p, 3 * p + 1) if x % p]
        any_int = range(-3 * p, 3 * p + 1)
        points = [(rng.choice(units), rng.choice(units)) for _ in range(rng.randrange(0, 4))]
        n_sph = rng.randrange(0 if points else 1, 3)
        spheres = [(rng.choice(units), rng.choice(any_int)) for _ in range(n_sph)]
        act = GroupAction(
            p,
            tuple(IsolatedPoint(p, a, b) for a, b in points),
            tuple(FixedSphere(p, c, alpha) for c, alpha in spheres),
            rng.randrange(-4, 5),
            2,
            0,
        )

        def draw(count):
            return tuple(rng.choice(any_int) for _ in range(count))

        def weight_sum(ws, sphere_ws, ms, n):
            total = sum(w**n * pow(a * b, -1, p) for (a, b), w in zip(points, ws))
            for (c, alpha), w, m in zip(spheres, sphere_ws, ms):
                total += (n * w ** (n - 1) * m * c - w**n * alpha) * pow(c * c, -1, p)
            return total % p

        lam, lam_s, ms, c1 = draw(len(points)), draw(n_sph), draw(n_sph), rng.choice(any_int)
        terms = [t for (a, b), w in zip(points, lam) for t in _TERMS[expand_point_term](a, b, w)]
        for (c, alpha), w, m in zip(spheres, lam_s, ms):
            terms += _TERMS[expand_sphere_term](c, alpha, w)
            terms += _TERMS[expand_boundary_term](c, m, w)
        first, second = weight_sum(lam, lam_s, ms, 1), weight_sum(lam, lam_s, ms, 2)
        want = [
            RelationRecord("first_order", first, 0, first == 0),
            RelationRecord("second_order", second, c1 % p, second == c1 % p),
            *_series_records_by_gf(p, terms, act.signature + 2 * c1),
        ]
        got = check_line_bundle(act, LineIsotropy(lam, lam_s, ms, c1_squared=c1))
        assert got.records == tuple(want)

        ell, ell_s, ms, c2 = draw(len(points)), draw(n_sph), draw(n_sph), rng.choice(any_int)
        terms = [
            t for (a, b), w in zip(points, ell) for t in _TERMS[expand_su2_point_term](a, b, w)
        ]
        for (c, alpha), w, m in zip(spheres, ell_s, ms):
            terms += _TERMS[expand_su2_sphere_term](c, alpha, m, w)
        second = weight_sum(ell, ell_s, ms, 2)
        want = [
            RelationRecord("su2_weight_sum", second, -c2 % p, second == -c2 % p),
            *_series_records_by_gf(p, terms, 2 * act.signature - 4 * c2),
        ]
        assert check_su2(act, Su2Isotropy(ell, ell_s, ms, c2=c2)).records == tuple(want)


def test_linking_form():
    assert linking_form(5, 1, 2) == Fraction(2, 5)
    assert linking_form(7, 3, 5) == Fraction(1, 7)  # 15 = 14 + 1
    with pytest.raises(NotCoprimeRotation):
        linking_form(6, 2, 1)
    # the order of the lens space is checked before any arithmetic
    with pytest.raises(ValueError, match="at least 1"):
        linking_form(0, 1, 1)
    with pytest.raises(ValueError, match="at least 1"):
        linking_form(-5, 1, 2)
    assert linking_form(1, 3, 4) == 0


def test_flat_chern_class():
    r = flat_chern_class(5, 1, 2, 3)
    assert (r.value * 2) % 5 == 3
    assert r.modulus == 5
    # n is refused before any arithmetic, in the wording of linking_form
    for n in (0, 1, -5):
        with pytest.raises(ValueError, match=f"lens space order must be at least 2, got {n}"):
            flat_chern_class(n, 1, 1, 3)


def test_boundary_chern_data_small_grid():
    # both congruences of the gluing data hold on a small exhaustive grid
    for p in (3, 5, 7):
        for c in (1, 2):
            for alpha in range(-15, 16):
                if alpha == 0:
                    continue
                _boundary_data_by_scan(FixedSphere(p, c, alpha))
    # p is the sphere's, so a composite one is refused before the call
    for p in (4, 9):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            FixedSphere(p, 1, 3)


def test_boundary_chern_data_reads_p_from_the_sphere():
    # p = 5 from the sphere: -lam*alpha = 2 mod 5 and c*m = 2 mod 3
    r = boundary_chern_data(FixedSphere(5, 2, 3), 1, 1)
    assert (r.value, r.modulus) == (2, 15)


def test_boundary_chern_zero_alpha():
    with pytest.raises(ZeroSelfIntersection):
        boundary_chern_data(FixedSphere(5, 1, 0), 1, 1)


def test_search_includes_linear_model():
    found = list(search_realizable(5, 1, 1, [1], 1, 3, 1))
    lin = linear_cp2(5, 1, 0)
    assert any(act.same_data(lin) for act in found)
    for act in found:
        assert check_rotation_relations(act).ok


def test_search_deterministic():
    run1 = [a.data_key() for a in search_realizable(7, 2, 0, [], 0, 2, 0)]
    run2 = [a.data_key() for a in search_realizable(7, 2, 0, [], 0, 2, 0)]
    assert run1 == run2


def test_search_inconsistent_counts():
    with pytest.raises(InconsistentCounts):
        list(search_realizable(5, 2, 0, [], 0, 3, 0))  # chi != b2 + 2
    with pytest.raises(InconsistentCounts):
        list(search_realizable(5, 1, 0, [], 0, 2, 0))  # 1 point != b2 + 2
    with pytest.raises(InconsistentCounts):
        list(search_realizable(5, 1, 1, [], 1, 3, 1))  # missing alpha
    for args, name in [
        ((5, -1, 1, [1], 1, 1, -1), "points = -1"),
        ((5, 2, -1, [], 0, 2, 0), "spheres = -1"),
        ((5, 0, 0, [], 0, 0, -2), "b2 = -2"),
    ]:
        with pytest.raises(InconsistentCounts, match=name):
            list(search_realizable(*args))


@pytest.mark.parametrize(
    "args, error",
    [
        ((9, 3, 0, [], 1, 3, 1), ValueError),  # composite p
        ((7, 2, 0, [], 1, 9, 1), InconsistentCounts),
        ((7, 1, 1, [], 1, 3, 1), InconsistentCounts),
    ],
)
def test_search_checks_its_profile_before_it_is_advanced(args, error):
    with pytest.raises(error):
        search_realizable(*args)


def test_search_results_canonical_and_valid():
    from equibundle.action_model import validate

    found = list(search_realizable(5, 3, 1, [-2], -3, 5, 3))
    for act in found:
        validate(act)
        # every yielded dataset satisfies the full battery by contract
        assert check_rotation_relations(act).ok
    triple = triple_cp2_bar_action()
    assert any(act.same_data(triple) for act in found)


# (points, sphere self-intersections, largest p); the filtering oracle
# takes seconds for 4 points above p = 7
SEARCH_PROFILES = [
    (3, (), 13),
    (1, (-1,), 13),
    (1, (0,), 13),
    (1, (1,), 13),
    (0, (1, -2), 13),
    (2, (1,), 13),
    (4, (), 7),
    (0, (0, 0), 13),
    (1, (1, -1, 1), 7),
    (2, (2, 2), 7),
]


@pytest.mark.parametrize("n_points, alphas, top", SEARCH_PROFILES)
def test_search_equals_filtering_in_order(n_points, alphas, top):
    b2 = n_points + 2 * len(alphas) - 2
    for p in [q for q in SMALL_PRIMES if q <= top]:
        for sign in (-1, 0, 1, 2):
            args = (p, n_points, len(alphas), list(alphas), sign, b2 + 2, b2)
            assert list(search_realizable(*args)) == list(_search_by_filtering(*args))


@pytest.mark.parametrize("n_points, alphas", [profile[:2] for profile in SEARCH_PROFILES])
def test_search_equals_the_prefix_walk_in_order(n_points, alphas):
    b2 = n_points + 2 * len(alphas) - 2
    for p in primes(3, 13) if n_points >= 4 else PRIMES_TO_31:
        for sign in (-1, 0, 1, 2):
            args = (p, n_points, len(alphas), list(alphas), sign, b2 + 2, b2)
            assert list(search_realizable(*args)) == list(_search_by_prefix(*args))


@st.composite
def _search_profiles(draw, ps=SMALL_PRIMES):
    p = draw(st.sampled_from(ps))
    n_spheres = draw(st.integers(0, 2))
    n_points = draw(st.integers(max(0, 2 - 2 * n_spheres), 4 if p <= 7 else 3))
    alphas = draw(st.lists(st.integers(-3, 3), min_size=n_spheres, max_size=n_spheres))
    sign = draw(st.integers(-2, 2))
    return p, n_points, alphas, sign


@settings(max_examples=40, deadline=None)
@given(_search_profiles())
def test_search_results_are_sound(profile):
    p, n_points, alphas, sign = profile
    b2 = n_points + 2 * len(alphas) - 2
    found = list(search_realizable(p, n_points, len(alphas), alphas, sign, b2 + 2, b2))
    for act in found:
        assert check_rotation_relations(act).ok
        assert (act.p, act.signature, act.euler, act.b2) == (p, sign, b2 + 2, b2)
        assert len(act.points) == n_points
        assert [s.alpha for s in act.spheres] == alphas
        # canonical: each point its class representative, points sorted,
        # each sphere weight in 1..(p-1)/2
        assert all((pt.a, pt.b) == _point_class(p, pt.a, pt.b) for pt in act.points)
        assert list(act.points) == sorted(act.points, key=lambda pt: (pt.a, pt.b))
        assert all(1 <= s.c <= (p - 1) // 2 for s in act.spheres)
    keys = [act.data_key() for act in found]
    assert len(keys) == len(set(keys))


@settings(max_examples=40, deadline=None)
@given(_search_profiles(PRIMES_TO_31))
def test_search_results_are_closed_under_every_unit(profile):
    """Replacing g by g^u multiplies every rotation number by u and keeps
    the battery, so the results are a union of orbits of the units."""
    p, n_points, alphas, sign = profile
    b2 = n_points + 2 * len(alphas) - 2
    found = list(search_realizable(p, n_points, len(alphas), alphas, sign, b2 + 2, b2))
    keys = {act.data_key() for act in found}
    for act, u in itertools.product(found, range(1, p)):
        image = GroupAction(
            p,
            tuple(IsolatedPoint(p, u * pt.a, u * pt.b) for pt in act.points),
            tuple(FixedSphere(p, u * s.c, s.alpha) for s in act.spheres),
            sign,
            b2 + 2,
            b2,
        )
        assert image.data_key() in keys


def test_search_sums_vectors_only_for_hits(monkeypatch):
    """The O(p) work of a search is one vector sum, compared once, per
    lookup hit; each point class and sphere vector is built at most once.
    With a point, only data whose first point is (1, x) are looked up;
    the rest are their images under g -> g^u, and no vector is summed
    for them.  Every hit is a result in both runs.  The relation-1 bucket search
    made 24,091 sums for the 3 points, one partial vector for every
    prefix, and the walk over every prefix one sum for each of the 80
    results; the eager sphere choices made 2,500 sums and 5,000 sphere
    vectors for the 2 spheres, two for every choice."""
    battery = congruence.check_rotation_relations
    no_battery = _forbidden("the search called the battery")
    monkeypatch.setattr(congruence, "check_rotation_relations", no_battery)
    sums, built, spheres = (
        _count_calls(monkeypatch, name, [congruence])
        for name in ("_vector_sum", "_point_vector", "_sphere_vector")
    )
    found = list(search_realizable(31, 3, 0, [], 1, 3, 1))
    assert len(found) == 80
    assert len(sums) == sum(act.points[0].a == 1 for act in found) == 15
    assert len(built) == len(set(built))
    assert all(battery(act).ok for act in found)
    sums.clear()
    found = list(search_realizable(101, 0, 2, [1, -1], 0, 4, 2))
    assert len(found) == 50
    assert len(sums) <= len(found)
    assert len(spheres) <= 2 * len(found)
    assert len(spheres) == len(set(spheres))
    assert all(battery(act).ok for act in found)


@pytest.mark.parametrize("p", primes(3, 101))
def test_point_classes_are_the_canonical_representatives(p):
    classes = _point_classes(p)
    assert classes == sorted({_point_class(p, a, b) for a in range(1, p) for b in range(1, p)})
    # (r1, r2) fixes the class, so a residue lookup finds at most one
    rels = [congruence._point_relations(p, a, b) for a, b in classes]
    assert len({rel[:2] for rel in rels}) == len(classes)
    assert rels == [tuple(congruence._point_vector(p, a, b)[:4]) for a, b in classes]


@pytest.mark.parametrize("n_points, alphas", [(3, ()), (1, (-1,)), (2, (1,)), (0, (1, -2))])
@pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
def test_search_equals_relation_1_buckets_in_order(p, n_points, alphas):
    b2 = n_points + 2 * len(alphas) - 2
    for sign in (-1, 0, 1, 2):
        args = (p, n_points, len(alphas), list(alphas), sign, b2 + 2, b2)
        assert list(search_realizable(*args)) == list(_search_by_relation_1(*args))
