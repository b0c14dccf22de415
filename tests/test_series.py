import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibundle.cyclotomic import ZeroRotation, _boundary, _point, _sphere, _twist
from equibundle.series import (
    NotAUnit,
    PowerSeries,
    expand_boundary_term,
    expand_point_term,
    expand_sphere_term,
    expand_su2_point_term,
    expand_su2_sphere_term,
    series_invert_unit,
    series_mul,
)
from oracles import _add, _oracle_expand, _t_power_minus_one, expand_binomial_power


def _rand_series(rng, order):
    return PowerSeries(tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(order + 1)), order)


def test_invert_unit_example():
    # 1/(2+s) = 1/2 - s/4 + s^2/8 - ...
    u = PowerSeries((2, 1, 0, 0), 3)
    inv = series_invert_unit(u)
    assert [inv.coeff(j) for j in range(4)] == [
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 8),
        Fraction(-1, 16),
    ]
    assert series_mul(u, inv) == PowerSeries((1,), 3)


def test_invert_requires_unit():
    with pytest.raises(NotAUnit):
        series_invert_unit(PowerSeries((0, 1), 1))


def test_invert_round_trip_random():
    rng = random.Random(5200)
    for _ in range(50):
        order = rng.randrange(1, 8)
        x = _rand_series(rng, order)
        if x.coeff(0) == 0:
            continue
        assert series_mul(x, series_invert_unit(x)) == PowerSeries((1,), order)


def test_ring_axioms_random():
    rng = random.Random(5201)
    for _ in range(50):
        order = rng.randrange(0, 7)
        f, g, h = (_rand_series(rng, order) for _ in range(3))
        assert series_mul(f, g) == series_mul(g, f)
        assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))
        assert series_mul(f, _add(g, h)) == _add(series_mul(f, g), series_mul(f, h))
        assert series_mul(f, PowerSeries((1,), order)) == f


def test_binomial_power_nonnegative():
    # (1+s)^3 = 1 + 3s + 3s^2 + s^3
    x = expand_binomial_power(3, 5)
    assert [x.coeff(j) for j in range(6)] == [1, 3, 3, 1, 0, 0]


def test_binomial_power_negative_is_inverse():
    rng = random.Random(5202)
    for _ in range(30):
        e = rng.randrange(1, 12)
        order = rng.randrange(2, 9)
        prod = series_mul(expand_binomial_power(e, order), expand_binomial_power(-e, order))
        assert prod == PowerSeries((1,), order)


def test_binomial_power_additivity():
    # t^a * t^b = t^(a+b) for mixed-sign exponents
    rng = random.Random(5203)
    for _ in range(40):
        a = rng.randrange(-10, 11)
        b = rng.randrange(-10, 11)
        order = rng.randrange(2, 8)
        lhs = series_mul(expand_binomial_power(a, order), expand_binomial_power(b, order))
        assert lhs == expand_binomial_power(a + b, order)


def test_point_term_clears_denominators():
    # the expansion carries the s^2 clearing factor, so
    # point term * (t^a - 1)(t^b - 1) == s^2 (t^(a+lam) + t^lam)(t^b + 1)
    rng = random.Random(5204)
    for _ in range(30):
        a = rng.choice([e for e in range(-9, 10) if e != 0])
        b = rng.choice([e for e in range(-9, 10) if e != 0])
        lam = rng.randrange(-4, 5)
        order = 6
        term = expand_point_term(a, b, lam, order)
        lhs = series_mul(series_mul(term, _t_power_minus_one(a, order)), _t_power_minus_one(b, order))
        rhs = series_mul(
            _add(expand_binomial_power(a + lam, order), expand_binomial_power(lam, order)),
            _add(expand_binomial_power(b, order), PowerSeries((1,), order)),
        )
        assert lhs.coeff(0) == 0 and lhs.coeff(1) == 0
        for j in range(2, order + 1):
            assert lhs.coeff(j) == rhs.coeff(j - 2)


def test_sphere_term_clears_denominators():
    # sphere term * (t^c - 1)^2 == -4 alpha s^2 t^(c+lam)
    rng = random.Random(5205)
    for _ in range(30):
        c = rng.choice([e for e in range(-9, 10) if e != 0])
        alpha = rng.randrange(-5, 6)
        lam = rng.randrange(-4, 5)
        order = 6
        term = expand_sphere_term(c, alpha, lam, order)
        tc1 = _t_power_minus_one(c, order)
        lhs = series_mul(series_mul(term, tc1), tc1)
        rhs = series_mul(expand_binomial_power(c + lam, order), PowerSeries((-4 * alpha,), order))
        assert lhs.coeff(0) == 0 and lhs.coeff(1) == 0
        for j in range(2, order + 1):
            assert lhs.coeff(j) == rhs.coeff(j - 2)


def test_point_term_displayed_coefficients():
    # leading coefficients of the untwisted point term:
    # 4/ab, 4/ab, (a^2+b^2+1)/3ab, and at s^4: -(a^4+b^4-5a^2b^2+3)/180ab
    rng = random.Random(5206)
    for _ in range(25):
        a = rng.choice([e for e in range(-9, 10) if e != 0])
        b = rng.choice([e for e in range(-9, 10) if e != 0])
        term = expand_point_term(a, b, 0, 4)
        ab = Fraction(a * b)
        assert term.coeff(0) == 4 / ab
        assert term.coeff(1) == 4 / ab
        assert term.coeff(2) == Fraction(a * a + b * b + 1, 3) / ab
        assert term.coeff(4) == -Fraction(a**4 + b**4 - 5 * a * a * b * b + 3, 180) / ab


def test_point_term_twisted_coefficients():
    # with fiber weight lam: s^1 -> 4(lam+1)/ab,
    # s^2 -> (a^2+b^2+1+6lam^2+6lam)/3ab
    rng = random.Random(5207)
    for _ in range(25):
        a = rng.choice([e for e in range(-9, 10) if e != 0])
        b = rng.choice([e for e in range(-9, 10) if e != 0])
        lam = rng.randrange(-6, 7)
        term = expand_point_term(a, b, lam, 2)
        ab = Fraction(a * b)
        assert term.coeff(0) == 4 / ab
        assert term.coeff(1) == Fraction(4 * (lam + 1)) / ab
        assert term.coeff(2) == Fraction(a * a + b * b + 1 + 6 * lam * lam + 6 * lam, 3) / ab


def test_sphere_term_displayed_coefficients():
    # -4a/c^2, -4a/c^2, a(c^2-1)/3c^2, ..., -a(c^4-1)/60c^2 at s^4
    rng = random.Random(5208)
    for _ in range(25):
        c = rng.choice([e for e in range(-9, 10) if e != 0])
        alpha = rng.randrange(-5, 6)
        term = expand_sphere_term(c, alpha, 0, 4)
        c2 = Fraction(c * c)
        assert term.coeff(0) == -4 * alpha / c2
        assert term.coeff(1) == -4 * alpha / c2
        assert term.coeff(2) == Fraction(alpha * (c * c - 1), 3) / c2
        assert term.coeff(4) == -Fraction(alpha * (c**4 - 1), 60) / c2


def test_sphere_term_twisted_coefficient():
    # s^2 -> alpha(c^2 - 1 - 6 lam - 6 lam^2)/3c^2
    rng = random.Random(5209)
    for _ in range(25):
        c = rng.choice([e for e in range(-9, 10) if e != 0])
        alpha = rng.randrange(-5, 6)
        lam = rng.randrange(-6, 7)
        term = expand_sphere_term(c, alpha, lam, 2)
        want = Fraction(alpha * (c * c - 1 - 6 * lam - 6 * lam * lam), 3 * c * c)
        assert term.coeff(2) == want


def test_boundary_term_coefficients():
    # 0, 4m/c, 2m(2lam+1)/c
    rng = random.Random(5210)
    for _ in range(25):
        c = rng.choice([e for e in range(-9, 10) if e != 0])
        m = rng.randrange(-6, 7)
        lam = rng.randrange(-6, 7)
        term = expand_boundary_term(c, m, lam, 2)
        assert term.coeff(0) == 0
        assert term.coeff(1) == Fraction(4 * m, c)
        assert term.coeff(2) == Fraction(2 * m * (2 * lam + 1), c)


def test_su2_point_term_coefficients():
    # 8/ab, 8/ab, 2(a^2+b^2+1+6 ell^2)/3ab
    rng = random.Random(5211)
    for _ in range(25):
        a = rng.choice([e for e in range(-9, 10) if e != 0])
        b = rng.choice([e for e in range(-9, 10) if e != 0])
        ell = rng.randrange(-6, 7)
        term = expand_su2_point_term(a, b, ell, 2)
        ab = Fraction(a * b)
        assert term.coeff(0) == 8 / ab
        assert term.coeff(1) == 8 / ab
        assert term.coeff(2) == Fraction(2 * (a * a + b * b + 1 + 6 * ell * ell), 3) / ab


def test_su2_sphere_term_coefficients():
    # -8a/c^2, -8a/c^2, 2(ac^2 - a - 6a ell^2 + 12 m c ell)/3c^2
    rng = random.Random(5212)
    for _ in range(25):
        c = rng.choice([e for e in range(-9, 10) if e != 0])
        alpha = rng.randrange(-5, 6)
        m = rng.randrange(-4, 5)
        ell = rng.randrange(-6, 7)
        term = expand_su2_sphere_term(c, alpha, m, ell, 2)
        c2 = Fraction(c * c)
        assert term.coeff(0) == -8 * alpha / c2
        assert term.coeff(1) == -8 * alpha / c2
        want = Fraction(
            2 * (alpha * c * c - alpha - 6 * alpha * ell * ell + 12 * m * c * ell), 3
        ) / c2
        assert term.coeff(2) == want


def test_su2_point_reduces_to_double_point_term_at_zero_weight():
    # fiber character at ell=0 is the constant 2
    rng = random.Random(5213)
    for _ in range(15):
        a = rng.choice([e for e in range(-9, 10) if e != 0])
        b = rng.choice([e for e in range(-9, 10) if e != 0])
        point = expand_point_term(a, b, 0, 5)
        assert expand_su2_point_term(a, b, 0, 5) == _add(point, point)


@pytest.mark.parametrize(
    "expand, args",
    [
        (expand_point_term, (0, 1, 0)),
        (expand_point_term, (1, 0, 0)),
        (expand_sphere_term, (0, 1, 0)),
        (expand_boundary_term, (0, 1, 0)),
        (expand_su2_point_term, (0, 1, 1)),
        (expand_su2_point_term, (1, 0, 1)),
        (expand_su2_sphere_term, (0, 1, 1, 1)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_expansions_reject_a_zero_rotation(expand, args):
    with pytest.raises(ZeroRotation):
        expand(*args, 3)


def test_a_zero_rotation_is_refused_before_a_cancelled_numerator():
    # alpha = 0 cancels the whole numerator, but c = 0 is still refused
    with pytest.raises(ZeroRotation):
        expand_sphere_term(0, 0, 0, 3)


def test_series_str_and_coeff_bounds():
    s = PowerSeries((Fraction(1, 2), 0, 3), 2)
    assert "s" in str(s)
    with pytest.raises(IndexError):
        s.coeff(3)


# -- the expansions against the division by the full unit series -------


_rotation = st.integers(-12, 12).filter(bool)
_small = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(_rotation, _rotation, _small, _small, _small, st.integers(0, 30))
def test_expansions_equal_the_unit_series_oracle(a, b, alpha, m, lam, order):
    cases = [
        (expand_point_term(a, b, lam, order), [_twist(_point(a, b), [(lam, 1)])]),
        (expand_sphere_term(a, alpha, lam, order), [_twist(_sphere(a, alpha), [(lam, 1)])]),
        (expand_boundary_term(b, m, lam, order), [_twist(_boundary(b, m), [(lam, 1)])]),
        (
            expand_su2_point_term(a, b, lam, order),
            [_twist(_point(a, b), [(lam, 1), (-lam, 1)])],
        ),
        (
            expand_su2_sphere_term(a, alpha, m, lam, order),
            [
                _twist(_sphere(a, alpha), [(lam, 1), (-lam, 1)]),
                _twist(_boundary(a, m), [(lam, 1), (-lam, -1)]),
            ],
        ),
    ]
    for got, terms in cases:
        assert list(got.coeffs) == _oracle_expand(terms, order)


def test_unit_series_oracle_on_a_negative_rotation():
    # 1/u_-1 = -t = -(1 + s), so the boundary term 2(t^-1 + 1)/(t^-1 - 1) * s^2
    # is -2(1 + t) s = -2(2 + s) s
    assert _oracle_expand([_boundary(-1, 1)], 3) == [0, -4, -2, 0]
    assert list(expand_boundary_term(-1, 1, 0, 3).coeffs) == [0, -4, -2, 0]
