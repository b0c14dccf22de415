import bisect
import functools
import itertools
import operator
import random
from dataclasses import replace
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
    _boundary,
    _point,
    _sphere,
    _term,
    _twist,
    eval_point_term,
    eval_sphere_term,
)
from equibundle.exact_arith import is_prime, rational_mod
from equibundle.series import (
    expand_boundary_term,
    expand_point_term,
    expand_sphere_term,
    expand_su2_point_term,
    expand_su2_sphere_term,
)

PRIMES = [3, 5, 7, 11, 13]
PRIMES_TO_31 = PRIMES + [17, 19, 23, 29, 31]


def _model_pool(p, rng, count=4):
    pool = [linear_cp2(p, 1, 0), linear_cp2_bar(p, 1), linear_s4(p, 1, 2 % p or 1)]
    while len(pool) < count:
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a != b and (a + b) % p != 0:
            pool.append(linear_cp2(p, a, b))
        else:
            pool.append(linear_cp2_bar(p, a))
    return pool


def test_gsign_value_equals_signature_on_models():
    rng = random.Random(8300)
    for p in PRIMES:
        for act in _model_pool(p, rng, 5):
            for k in range(1, p):
                assert gsign_value(act, k) == Fraction(act.signature)


def test_gsign_value_of_an_empty_fixed_set_is_zero():
    assert gsign_value(GroupAction(5, (), (), 0, 0, -2), 1) == 0


def _gsign_in_the_field(action, k):
    """The oracle: every fixed-point term a CycloNum, summed in Q(zeta_p)."""
    terms = [eval_point_term(action.p, k, pt.a, pt.b) for pt in action.points]
    terms += [eval_sphere_term(action.p, k, s.c, s.alpha) for s in action.spheres]
    if not terms:
        return Fraction(0)
    return functools.reduce(operator.add, terms).rational_part()


def _outcome(f, *args):
    try:
        return f(*args)
    except (NotRational, ValueError) as exc:  # ZeroRotation is a ValueError
        return type(exc), str(exc)


def _random_action(draw, p):
    r = st.integers(-p, 2 * p)
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
    most sums are irrational or hit a zero rotation; any power k."""
    if draw(st.booleans()):
        act = draw(_connected_sums())[0]
    else:
        act = _random_action(draw, draw(st.sampled_from([2, 3, 5, 7, 13, 29, 53, 101])))
    return act, draw(st.integers(-act.p, 3 * act.p))


@settings(max_examples=300, deadline=None)
@given(_signature_data())
def test_gsign_value_equals_the_sum_in_the_field(case):
    # the value read from integer windows, or the same error and message
    act, k = case
    assert _outcome(gsign_value, act, k) == _outcome(_gsign_in_the_field, act, k)


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
                assert gsign_value(act, k) == _gsign_in_the_field(act, k)


def test_gsign_reverses_sign_under_orientation_flip():
    rng = random.Random(8301)
    for _ in range(20):
        p = rng.choice(PRIMES)
        a = rng.randrange(1, p)
        act = linear_cp2(p, a, 0)
        rev = reverse_orientation(act)
        for k in range(1, p):
            assert gsign_value(rev, k) == -gsign_value(act, k)


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
    assert validate(act).ok
    report = check_rotation_relations(act)
    assert report.ok, [r.display() for r in report.failures()]
    assert gsignature_check(act).ok


def test_gsignature_records_equal_every_power():
    # one evaluation at k = 1 stands for all p-1 records; each must
    # equal the value evaluated at its own power, wrong signature too
    rng = random.Random(8303)
    for p in PRIMES_TO_31:
        for act in _model_pool(p, rng):
            values = [gsign_value(act, k) for k in range(1, p)]
            for claimed in (act, replace(act, signature=0)):
                report = gsignature_check(claimed)
                assert [r.name for r in report.records] == [
                    f"signature_power_{k}" for k in range(1, p)
                ]
                assert [r.lhs for r in report.records] == values
                assert report.ok == all(v == claimed.signature for v in values)


def test_gsignature_check_requires_odd_prime():
    act = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (), 0, 2, 0)
    with pytest.raises(ValueError):
        gsignature_check(act)


def _exact_mod_p(series, p, order):
    out = []
    for j in range(order + 1):
        out.append(rational_mod(series.coeff(j), p).value)
    return out


# -- the GF(p) oracle ---------------------------------------------------------
# `series` expands over Q.  This oracle runs the same expansion directly
# over GF(p): binomial series reduced mod p, one division recurrence
# per unit u_r with the inverse of its constant term mod p, then the
# shift by s^(2-k).  It checks the Q expansion reduced mod p, the
# battery's zeta-basis vectors and the bundle checks.


def _gf_powers(p, num, count):
    out = [0] * count
    for e, c in num:
        for j in range(count):
            out[j] += c
            c = c * (e - j) // (j + 1)
    return [x % p for x in out]


def _gf_div(p, x, y):
    inv0, q = pow(y[0], -1, p), []
    for k, acc in enumerate(x):
        for j in range(1, min(k, len(y) - 1) + 1):
            acc -= y[j] * q[k - j]
        q.append(acc * inv0 % p)
    return q


def _gf_expand(p, terms, order):
    """The terms (num, units, k) of `cyclotomic` times (t-1)^2, through
    s^order, over GF(p)."""
    n = order + 1
    total = [0] * n
    for num, units, k in terms:
        x = _gf_powers(p, num, n)
        for r in units:
            x = _gf_div(p, x, _gf_powers(p, [(r, 1), (0, -1)], n + 1)[1:])
        for j in range(2 - k, n):
            total[j] += x[j - 2 + k]
    return [x % p for x in total]


# each public expansion, as the term descriptions it sums
_TERMS = {
    expand_point_term: lambda a, b, lam: [_twist(_point(a, b), [(lam, 1)])],
    expand_sphere_term: lambda c, alpha, lam: [_twist(_sphere(c, alpha), [(lam, 1)])],
    expand_boundary_term: lambda c, m, lam: [_twist(_boundary(c, m), [(lam, 1)])],
    expand_su2_point_term: lambda a, b, ell: [_twist(_point(a, b), [(ell, 1), (-ell, 1)])],
    expand_su2_sphere_term: lambda c, alpha, m, ell: [
        _twist(_sphere(c, alpha), [(ell, 1), (-ell, 1)]),
        _twist(_boundary(c, m), [(ell, 1), (-ell, -1)]),
    ],
}


def _gf(p, expand, *args):
    """`expand(*args)` computed by the GF(p) oracle; the last argument is the order."""
    *params, order = args
    return _gf_expand(p, _TERMS[expand](*params), order)


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
    for p in PRIMES:
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
    for p in PRIMES:
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

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def _point_series(p, a, b):
    return congruence._to_s_basis(p, congruence._point_vector(p, a, b)[4:])


def _sphere_series(p, c, alpha):
    return congruence._to_s_basis(p, congruence._sphere_vector(p, c, alpha)[4:])


@pytest.mark.parametrize("p", SMALL_PRIMES)
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


def _field_mod_p(x):
    # a p-integral element of Q(zeta_p) reduced mod p, in the basis of zeta powers
    inv = pow(x.den, -1, x.p)
    return [c * inv % x.p for c in x.num]


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


def _binomial_sums(p, v):
    # sum_m v_m * C(m, k) mod p, row by row of Pascal's triangle
    out, row = [0] * len(v), [1]
    for x in v:
        for k, c in enumerate(row):
            out[k] += x * c
        row = [1] + [(u + w) % p for u, w in zip(row, row[1:])] + [1]
    return [y % p for y in out]


def test_pascal_transform_matches_binomial_sums():
    rng = random.Random(8310)
    for p in SMALL_PRIMES + [31, 97, 401, 1009]:
        v = [rng.randrange(p) for _ in range(p - 1)]
        assert congruence._to_s_basis(p, v) == _binomial_sums(p, v)
    assert _binomial_sums(7, [1, 2, 3]) == [6, 8 % 7, 3]  # 1 + 2(1+s) + 3(1+s)^2
    assert congruence._to_s_basis(5, [0, 0, 0, 4]) == [4, 2, 2, 4]  # 4(1+s)^3 mod 5


def test_rotation_target_closed_form_matches_the_residue_route():
    # Sign * (t-1)^2 read through `_residues`, as a component term is
    for p in [q for q in range(3, 102, 2) if is_prime(q)]:
        for sign in range(-3, 4):
            want = [0, 3 * sign % p, 0, 0] + congruence._residues(p, ([(0, sign)], (), 0))
            assert congruence._rotation_target(p, sign) == want, (p, sign)


def _battery_by_expansion(action):
    """The records of `check_rotation_relations`, with the series part
    summed from the GF(p) oracle's expansions through s^(p-2)."""
    p, n = action.p, action.p - 2
    vectors = [
        congruence._point_vector(p, pt.a, pt.b)[:4] + _gf(p, expand_point_term, pt.a, pt.b, 0, n)
        for pt in action.points
    ]
    vectors += [
        congruence._sphere_vector(p, s.c, s.alpha)[:4]
        + _gf(p, expand_sphere_term, s.c, s.alpha, 0, n)
        for s in action.spheres
    ]
    total = [sum(col) % p for col in zip(*vectors)]
    target = [0, 3 * action.signature % p, 0, 0] + [0] * (n + 1)
    if n >= 2:  # Sign * s^2 is truncated away at p = 3
        target[6] = action.signature % p
    names = [f"relation_{i}" for i in range(1, 5)] + [f"series_order_{k}" for k in range(n + 1)]
    return tuple(RelationRecord(*r, r[1] == r[2]) for r in zip(names, total, target))


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
    def forbidden(*args, **kwargs):
        raise AssertionError("change of basis")

    monkeypatch.setattr(congruence, "_to_s_basis", forbidden)
    for act in (linear_cp2(401, 133, 268), linear_cp2_bar(31, 10), triple_cp2_bar_action()):
        assert check_rotation_relations(act).ok
    with pytest.raises(AssertionError, match="change of basis"):
        check_rotation_relations(replace(linear_cp2(401, 133, 268), signature=2))


def test_battery_and_search_use_no_series_division(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("series expansion or convolution on the battery path")

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


# (0, 1) at p = 5 and a sphere with c = 0: data validation would reject
# both, but the library entry points must still name the culprit
DEGENERATE = [
    (
        GroupAction(5, (IsolatedPoint(5, 1, 2), IsolatedPoint(5, 0, 1)), (), 0, 2, 0),
        r"point 1: rotation numbers \(0, 1\) must be nonzero mod 5",
    ),
    (
        GroupAction(5, (IsolatedPoint(5, 1, 2),), (FixedSphere(5, 0, 1),), 1, 3, 1),
        "sphere 0: normal rotation 0 must be nonzero mod 5",
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
@pytest.mark.parametrize("act, message", DEGENERATE, ids=["point", "sphere"])
def test_non_unit_rotation_names_the_component(entry, act, message):
    with pytest.raises(ZeroRotation, match=message):
        UNIT_CHECKED[entry](act)


def test_relation_two_is_implied_by_relation_one_and_series():
    # random fixed data adjusted so relation (1) holds and Sign is read
    # off the order-2 series coefficient: relation (2) must follow
    rng = random.Random(8304)
    for _ in range(100):
        p = rng.choice(PRIMES)
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
    for p in PRIMES:
        for act in _model_pool(p, rng, 4):
            lam = rng.randrange(0, 3 * p)
            iso = LineIsotropy(
                (lam,) * len(act.points), (lam,) * len(act.spheres), (0,) * len(act.spheres)
            )
            assert theorem_a_condition(act, iso).ok


def test_condition_on_canonical_bundle_data():
    rng = random.Random(8306)
    for _ in range(30):
        p = rng.choice(PRIMES)
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
    for p in PRIMES:
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
        p = rng.choice(PRIMES)
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
    for p in (3, 5):
        for a in range(1, p):
            for b in range(1, p):
                for c in range(1, p):
                    for alpha in (1, -1, p, -2):
                        act = GroupAction(
                            p,
                            (IsolatedPoint(p, a, b),),
                            (FixedSphere(p, c, alpha),),
                            0,
                            5,
                            3,
                        )
                        for kind, blank in [
                            ("lambda", LineIsotropy((None,), (1,), (1,))),
                            ("lambda_sphere", LineIsotropy((1,), (None,), (1,))),
                            ("m", LineIsotropy((1,), (1,), (None,))),
                        ]:
                            idx = 0
                            witnesses = [
                                v
                                for v in range(p)
                                if theorem_a_condition(act, blank.with_slot(kind, idx, v)).ok
                            ]
                            if witnesses:
                                got = solve_theorem_a(act, blank)
                                value = {
                                    "lambda": got.lambda_points[0],
                                    "lambda_sphere": got.lambda_spheres[0],
                                    "m": got.m_spheres[0],
                                }[kind]
                                assert value % p in witnesses
                                if len(witnesses) == 1:
                                    assert value % p == witnesses[0]
                            else:
                                with pytest.raises(NotSolvable):
                                    solve_theorem_a(act, blank)


def test_solve_random_round_trips():
    rng = random.Random(8308)
    done = 0
    while done < 200:
        p = rng.choice(PRIMES)
        act = rng.choice(_model_pool(p, rng, 4))
        n, s = len(act.points), len(act.spheres)
        iso = LineIsotropy(
            tuple(rng.randrange(0, p) for _ in range(n)),
            tuple(rng.randrange(0, p) for _ in range(s)),
            tuple(rng.randrange(-3, 4) for _ in range(s)),
        )
        slots = [("lambda", i) for i in range(n)]
        slots += [("lambda_sphere", j) for j in range(s)]
        slots += [("m", j) for j in range(s)]
        kind, idx = rng.choice(slots)
        blank = iso.with_slot(kind, idx, None)
        try:
            completed = solve_theorem_a(act, blank)
        except NotSolvable:
            continue
        assert theorem_a_condition(act, completed).ok
        done += 1


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
        p = rng.choice(PRIMES)
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
        p = rng.choice(PRIMES)
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


def _series_records_by_gf(p, terms, s2_target):
    n = min(2, p - 2)
    required = [0, 0, s2_target % p][: n + 1]
    return [
        RelationRecord(f"series_order_{k}", x, y, x == y)
        for k, (x, y) in enumerate(zip(_gf_expand(p, terms, n), required))
    ]


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


def test_flat_chern_class():
    r = flat_chern_class(5, 1, 2, 3)
    assert (r.value * 2) % 5 == 3
    assert r.modulus == 5


def test_boundary_chern_data_small_grid():
    # both congruences of the gluing data hold on a small exhaustive grid
    for p in (3, 5, 7):
        for c in (1, 2):
            for alpha in range(-15, 16):
                if alpha == 0:
                    continue
                sphere = FixedSphere(p, c, alpha)
                abar = abs(alpha)
                e = 0
                while abar % p == 0:
                    abar //= p
                    e += 1
                for lam in range(p):
                    for m in range(abar):
                        r = boundary_chern_data(sphere, lam, m, p)
                        assert r.modulus == p * abs(alpha)
                        assert (r.value + lam * alpha) % p ** (e + 1) == 0
                        if abar > 1:
                            assert (r.value - c * m) % abar == 0
    # p = 1 would divide alpha forever and p = 0 would divide by zero
    for p in (0, -3, 1):
        with pytest.raises(ValueError, match="p must be prime"):
            boundary_chern_data(FixedSphere(5, 1, 3), 1, 1, p)


def test_boundary_chern_zero_alpha():
    with pytest.raises(ZeroSelfIntersection):
        boundary_chern_data(FixedSphere(5, 1, 0), 1, 1, 5)


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
        assert validate(act).ok
        # every yielded dataset satisfies the full battery by contract
        assert check_rotation_relations(act).ok
    triple = triple_cp2_bar_action()
    assert any(act.same_data(triple) for act in found)


def _search_by_filtering(p, n_points, n_spheres, sphere_alphas, sign, euler, b2):
    """The filter-then-battery search: every multiset of point classes
    times every sphere choice, relation 1 as a prefilter, then the full
    `check_rotation_relations` battery on each survivor."""
    classes = _point_classes(p)
    weights = range(1, (p - 1) // 2 + 1)
    seen_spheres: set = set()
    sphere_choices = []
    for ws in itertools.product(weights, repeat=n_spheres):
        key = tuple(sorted(zip(ws, sphere_alphas)))
        if key in seen_spheres:
            continue
        seen_spheres.add(key)
        sphere_choices.append(ws)
    for pts in itertools.combinations_with_replacement(classes, n_points):
        base_r1 = sum(pow(a * b, -1, p) for a, b in pts)
        for ws in sphere_choices:
            r1 = base_r1 - sum(
                alpha * pow(w * w, -1, p) for w, alpha in zip(ws, sphere_alphas)
            )
            if r1 % p != 0:
                continue
            action = GroupAction(
                p,
                tuple(IsolatedPoint(p, a, b) for a, b in pts),
                tuple(FixedSphere(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)),
                sign,
                euler,
                b2,
            )
            if check_rotation_relations(action).ok:
                yield action


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
    for p in [q for q in PRIMES if q <= top]:
        for sign in (-1, 0, 1, 2):
            args = (p, n_points, len(alphas), list(alphas), sign, b2 + 2, b2)
            assert list(search_realizable(*args)) == list(_search_by_filtering(*args))


def _point_class(p, a, b):
    pt = IsolatedPoint(p, a, b)
    return pt.a, pt.b


@st.composite
def _search_profiles(draw):
    p = draw(st.sampled_from(PRIMES))
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


def test_search_sums_vectors_only_for_hits(monkeypatch):
    """The O(p) work of a search is one vector sum, compared once, per
    lookup hit; each point class and sphere vector is built at most once.
    Every hit is a result in both runs, so the bound is the result count.
    The relation-1 bucket search made 24,091 sums for the 3 points, one
    partial vector for every prefix; the eager sphere choices made 2,500
    sums and 5,000 sphere vectors for the 2 spheres, two for every choice."""
    sums, built, spheres = [], [], []
    battery = congruence.check_rotation_relations
    vector_sum = congruence._vector_sum
    point_vector, sphere_vector = congruence._point_vector, congruence._sphere_vector

    def counted_sum(*args):
        sums.append(args)
        return vector_sum(*args)

    def counted_vector(*args):
        built.append(args)
        return point_vector(*args)

    def counted_sphere(*args):
        spheres.append(args)
        return sphere_vector(*args)

    def no_battery(*args):
        raise AssertionError("the search called the battery")

    monkeypatch.setattr(congruence, "check_rotation_relations", no_battery)
    monkeypatch.setattr(congruence, "_vector_sum", counted_sum)
    monkeypatch.setattr(congruence, "_point_vector", counted_vector)
    monkeypatch.setattr(congruence, "_sphere_vector", counted_sphere)
    found = list(search_realizable(31, 3, 0, [], 1, 3, 1))
    assert len(found) == 80
    assert len(sums) == len(found)
    assert len(built) == len(set(built))
    assert all(battery(act).ok for act in found)
    sums.clear()
    found = list(search_realizable(101, 0, 2, [1, -1], 0, 4, 2))
    assert len(found) == 50
    assert len(sums) <= len(found)
    assert len(spheres) <= 2 * len(found)
    assert len(spheres) == len(set(spheres))
    assert all(battery(act).ok for act in found)


@pytest.mark.parametrize("p", [q for q in range(3, 102) if is_prime(q)])
def test_point_classes_are_the_canonical_representatives(p):
    classes = _point_classes(p)
    assert classes == sorted({_point_class(p, a, b) for a in range(1, p) for b in range(1, p)})
    # (r1, r2) fixes the class, so a residue lookup finds at most one
    rels = [congruence._point_relations(p, a, b) for a, b in classes]
    assert len({rel[:2] for rel in rels}) == len(classes)
    assert rels == [tuple(congruence._point_vector(p, a, b)[:4]) for a, b in classes]


def _sphere_choices_with_vectors(p, sphere_alphas):
    """Each distinct assignment of weights 1..(p-1)/2 to the spheres, the
    first of its multiset in product order, with the summed vector of its
    spheres: the eager sphere choices that the residue-only ones replaced."""
    weights = range(1, (p - 1) // 2 + 1)
    seen = set()
    for ws in itertools.product(weights, repeat=len(sphere_alphas)):
        key = tuple(sorted(zip(ws, sphere_alphas)))
        if key in seen:
            continue
        seen.add(key)
        vecs = [congruence._sphere_vector(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
        yield ws, congruence._vector_sum(p, vecs, p + 3)


def _search_by_relation_1(p, n_points, n_spheres, sphere_alphas, sign, euler, b2):
    """The search that reads the last point from a bucket keyed by its
    relation-1 residue and adds a partial vector for every prefix: the
    O(p)-per-prefix search that the residue lookup replaced."""
    _point_classes, _point_vector = congruence._point_classes, congruence._point_vector
    _rotation_target, _sphere_choices = congruence._rotation_target, _sphere_choices_with_vectors
    _vector_sum = congruence._vector_sum
    classes = _point_classes(p)
    target = _rotation_target(p, sign)
    # what the points must sum to, for each sphere choice
    choices = [
        (ws, [(t - v) % p for t, v in zip(target, vec)])
        for ws, vec in _sphere_choices(p, sphere_alphas)
    ]

    def action(idx, ws):
        return GroupAction(
            p,
            tuple(IsolatedPoint(p, *classes[i]) for i in idx),
            tuple(FixedSphere(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)),
            sign,
            euler,
            b2,
        )

    if n_points == 0:
        for ws, need in choices:
            if not any(need):
                yield action((), ws)
        return
    vectors = [_point_vector(p, a, b) for a, b in classes]
    buckets: dict[int, list[int]] = {}  # relation-1 residue -> ascending class indices
    for i, vec in enumerate(vectors):
        buckets.setdefault(vec[0], []).append(i)
    for prefix in itertools.combinations_with_replacement(range(len(classes)), n_points - 1):
        low = prefix[-1] if prefix else 0
        r1 = sum(vectors[i][0] for i in prefix)
        partial = None
        hits = []
        for k, (_, need) in enumerate(choices):
            bucket = buckets.get((need[0] - r1) % p, [])
            start = bisect.bisect_left(bucket, low)
            if start == len(bucket):
                continue
            if partial is None:
                partial = _vector_sum(p, [vectors[i] for i in prefix], p + 3)
            last = [(x - y) % p for x, y in zip(need, partial)]
            hits += [(j, k) for j in bucket[start:] if vectors[j] == last]
        hits.sort()
        for j, k in hits:
            yield action((*prefix, j), choices[k][0])


@pytest.mark.parametrize("n_points, alphas", [(3, ()), (1, (-1,)), (2, (1,)), (0, (1, -2))])
@pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
def test_search_equals_relation_1_buckets_in_order(p, n_points, alphas):
    b2 = n_points + 2 * len(alphas) - 2
    for sign in (-1, 0, 1, 2):
        args = (p, n_points, len(alphas), list(alphas), sign, b2 + 2, b2)
        assert list(search_realizable(*args)) == list(_search_by_relation_1(*args))
