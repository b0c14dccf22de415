import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibundle.cyclotomic import (
    CycloNum,
    NotRational,
    ZeroRotation,
    eval_point_term,
    eval_sphere_term,
    galois_sum,
    sin2_term,
    zeta_minus_one_inv,
)
from oracles import (
    SMALL_PRIMES,
    _cot_at,
    _cyclo,
    _dedekind,
    _oracle_add,
    _oracle_inv,
    _oracle_mul,
    _oracle_point,
    _oracle_sin_cot,
    _oracle_sphere,
    _oracle_sub,
    cyclo_inv,
    embed_complex,
    field_trace,
    primes,
    sin_cot_term,
    zeta_pow,
)


@pytest.mark.parametrize("p", primes(2, 13))
def test_terms_match_three_factor_oracle(p):
    # the oracle depends on the exponents mod p only, so it is built once
    # per exponent and every (a, b, c, k) is checked against it
    units = range(1, p)
    inv = {e: _oracle_inv(p, e) for e in units}
    point = {(ea, eb): _oracle_point(p, ea, eb) for ea in units for eb in units}
    sphere = {(e, alpha): _oracle_sphere(p, e, alpha) for e in units for alpha in (-2, 0, 1, 3)}
    for e in units:
        assert zeta_minus_one_inv(p, e) == inv[e]
    for k in units:
        for a in units:
            for b in units:
                assert eval_point_term(p, k, a, b) == point[k * a % p, k * b % p]
            for alpha in (-2, 0, 1, 3):
                assert eval_sphere_term(p, k, a, alpha) == sphere[k * a % p, alpha]
    for l in range(p):
        for c in units:
            assert sin_cot_term(p, l, c) == _oracle_sin_cot(p, l, c)


def _random_cyclo(rng, p):
    return _cyclo(p, tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(p - 1)))


def test_constructor_validation():
    # an element is a result of the term builders: there is no public constructor
    with pytest.raises(TypeError):
        CycloNum(5, [1, 2, 3, 4])


NON_PRIME_BUILDERS = {
    "galois_sum": lambda p: galois_sum(p, lambda k: zeta_pow(p, k)),
    "zeta_minus_one_inv": lambda p: zeta_minus_one_inv(p, 1),
    "eval_point_term": lambda p: eval_point_term(p, 1, 1, 2),
    "eval_sphere_term": lambda p: eval_sphere_term(p, 1, 1, 3),
    "eval_sphere_term_alpha_0": lambda p: eval_sphere_term(p, 1, 1, 0),
    "sin2_term": lambda p: sin2_term(p, 1),
}


@pytest.mark.parametrize("p", [4, 9])
@pytest.mark.parametrize("builder", sorted(NON_PRIME_BUILDERS))
def test_every_public_builder_rejects_non_prime_p(builder, p):
    with pytest.raises(ValueError, match="must be prime"):
        NON_PRIME_BUILDERS[builder](p)


@pytest.mark.parametrize("p", [4, 9])
@pytest.mark.parametrize("l", [1, 0], ids=["sin_cot_term", "sin_cot_term_l_0"])
def test_sin_cot_oracle_rejects_non_prime_p(l, p):
    # the test-side oracle keeps the argument check of the builders
    with pytest.raises(ValueError, match="must be prime"):
        sin_cot_term(p, l, 1)


def test_zeta_power_reduction():
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) in the power basis
    for p in SMALL_PRIMES:
        top = zeta_pow(p, p - 1)
        assert top.coeffs == tuple([Fraction(-1)] * (p - 1))
        assert zeta_pow(p, p) == _cyclo(p, [1])
        assert zeta_pow(p, -1) == zeta_pow(p, p - 1)


def test_sum_of_all_powers_is_minus_one():
    for p in SMALL_PRIMES:
        total = _cyclo(p, [1])
        for e in range(1, p):
            total = total + zeta_pow(p, e)
        assert not any(total.num)


def test_ring_axioms_random():
    rng = random.Random(4100)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        x, y, z = (_random_cyclo(rng, p) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert not any((x + x * -1).num)


def test_scalar_coercion():
    x = zeta_pow(5, 1)
    assert (x * 2) == (x + x)
    assert (x * Fraction(1, 2)) + (x * Fraction(1, 2)) == x
    assert (x + 1) + -1 == x


def test_cyclo_inv_example_p3():
    # 1/(zeta - 1) = (-2 - zeta)/3 for p = 3
    p = 3
    x = zeta_pow(p, 1) + -1
    inv = cyclo_inv(x)
    assert inv.coeffs == (Fraction(-2, 3), Fraction(-1, 3))
    assert x * inv == _cyclo(p, [1])


def test_product_example_p5():
    # (1 + zeta)(1 + zeta^2) = 1 + zeta + zeta^2 + zeta^3
    p = 5
    lhs = (zeta_pow(p, 1) + 1) * (zeta_pow(p, 2) + 1)
    assert lhs.coeffs == (Fraction(1), Fraction(1), Fraction(1), Fraction(1))


def test_cyclo_inv_round_trip_random():
    rng = random.Random(4101)
    done = 0
    while done < 100:
        p = rng.choice(SMALL_PRIMES)
        x = _random_cyclo(rng, p)
        if not any(x.num):
            continue
        assert x * cyclo_inv(x) == _cyclo(p, [1])
        done += 1


def test_cyclo_inv_zero():
    with pytest.raises(ZeroDivisionError):
        cyclo_inv(_cyclo(5, [0]))


def test_closed_form_inverse_matches_xgcd():
    # (zeta^e - 1)^(-1) via the telescoping formula agrees with the
    # polynomial gcd route for every p <= 13 and every exponent
    for p in SMALL_PRIMES:
        for e in range(1, p):
            x = zeta_pow(p, e) + -1
            fast = zeta_minus_one_inv(p, e)
            assert x * fast == _cyclo(p, [1])
            assert fast == cyclo_inv(x)


def test_eval_point_term_rational_example():
    # p = 3, rotation (1, 2): the two cotangents are conjugate so the
    # term collapses to the rational 1/3
    val = eval_point_term(3, 1, 1, 2)
    assert val.is_rational
    assert val.rational_part() == Fraction(1, 3)


def test_zero_rotation_rejected():
    with pytest.raises(ZeroRotation):
        eval_point_term(5, 1, 5, 2)
    with pytest.raises(ZeroRotation):
        eval_point_term(5, 5, 1, 2)  # k = 0 mod p kills both factors
    with pytest.raises(ZeroRotation):
        eval_sphere_term(5, 1, 10, 3)


def test_sphere_term_zero_alpha():
    assert not any(eval_sphere_term(7, 2, 3, 0).num)


def test_point_term_embeds_to_cot_product():
    rng = random.Random(4102)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        k = rng.randrange(1, p)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        got = embed_complex(eval_point_term(p, k, a, b))
        want = -_cot_at(p, a * k) * _cot_at(p, b * k)
        assert abs(got.real - want) < 1e-10
        assert abs(got.imag) < 1e-10


def test_sphere_term_embeds_to_csc_squared():
    rng = random.Random(4103)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        k = rng.randrange(1, p)
        c = rng.randrange(1, p)
        alpha = rng.randrange(-5, 6)
        got = embed_complex(eval_sphere_term(p, k, c, alpha))
        want = alpha / math.sin(math.pi * c * k / p) ** 2
        assert abs(got.real - want) < 1e-10
        assert abs(got.imag) < 1e-10


def test_sin2_and_sin_cot_embeddings():
    rng = random.Random(4104)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        l = rng.randrange(0, 3 * p)
        c = rng.randrange(1, p)
        got = embed_complex(sin2_term(p, l))
        assert abs(got.real - math.sin(math.pi * l / p) ** 2) < 1e-10
        got2 = embed_complex(sin_cot_term(p, l, c))
        want2 = math.sin(2 * math.pi * l / p) * _cot_at(p, c)
        assert abs(got2.real - want2) < 1e-10
        assert abs(got2.imag) < 1e-10


def test_cot_csc_bar_identity():
    # cot^2 - csc^2 = -1, in exact form: the point term of a (a, -a)
    # rotation pair plus the sphere term of alpha = -1 is the constant -1
    for p in SMALL_PRIMES:
        for a in range(1, p):
            for k in range(1, p):
                lhs = eval_point_term(p, k, a, -a) + eval_sphere_term(p, k, a, -1)
                assert lhs == _cyclo(p, [-1])


def test_galois_sum_of_powers():
    # sum over k of zeta^k is -1: Galois-stable, hence rational
    for p in SMALL_PRIMES:
        assert galois_sum(p, lambda k: zeta_pow(p, k)) == Fraction(-1)


def test_galois_sum_rejects_unstable_family():
    with pytest.raises(NotRational):
        galois_sum(5, lambda k: zeta_pow(5, 1))  # constant zeta is not stable


def test_galois_sum_point_terms_rational():
    # the summands are sigma_k-conjugate, so the sum is rational; for
    # the bar model it telescopes against the sphere identity
    for p in SMALL_PRIMES:
        for a in range(1, p):
            s = galois_sum(p, lambda k: eval_point_term(p, k, a, -a))
            t = galois_sum(p, lambda k: eval_sphere_term(p, k, a, 1))
            assert s - t == Fraction(-(p - 1))


def _elements(draw, p, n):
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=40)
    return [_cyclo(p, tuple(draw(coeff) for _ in range(p - 1))) for _ in range(n)]


@st.composite
def _cyclo_nums(draw):
    return _elements(draw, draw(st.sampled_from(primes(2, 23))), 1)[0]


@settings(max_examples=80, deadline=None)
@given(_cyclo_nums())
def test_field_trace_is_sum_of_conjugates(x):
    # sigma_k(x) = sum_i c_i zeta^(k*i); the trace sums these p-fold
    p = x.p

    def conjugate(k):
        raw = [Fraction(0)] * p
        for i, c in enumerate(x.coeffs):
            raw[k * i % p] += c
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        return _cyclo(p, tuple(r - raw[p - 1] for r in raw[: p - 1]))

    assert field_trace(x) == galois_sum(p, conjugate)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arithmetic_matches_fraction_oracle(data):
    p = data.draw(st.sampled_from(primes(2, 23)))
    x, y = _elements(data.draw, p, 2)
    q = data.draw(st.one_of(st.integers(-30, 30), st.fractions(max_denominator=30)))
    assert x + y == _oracle_add(x, y)
    assert x + y * -1 == _oracle_sub(x, y)
    assert x * y == _oracle_mul(x, y)
    assert x * q == q * x == _oracle_mul(x, q)
    assert x + q == q + x == _oracle_add(x, _cyclo(p, [q]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equal_elements_have_equal_fields(data):
    # lowest terms: however an element is reached, num, den and hash agree
    p = data.draw(st.sampled_from(primes(2, 23)))
    (x,) = _elements(data.draw, p, 1)
    m = data.draw(st.integers(1, 40)) * data.draw(st.sampled_from([-1, 1]))
    scaled = _cyclo(p, tuple(c * m for c in x.coeffs)) * Fraction(1, m)
    shifted = (x + m * x) + (-m) * x
    for other in (scaled, shifted, _cyclo(p, x.coeffs)):
        assert (other.num, other.den, hash(other)) == (x.num, x.den, hash(x))
        assert other.den > 0 and math.gcd(other.den, *other.num) == 1


@pytest.mark.parametrize("p", [1009, 10007])
def test_traces_at_large_p_are_dedekind_sums(p):
    # sum_k cot(pi a k/p) cot(pi b k/p) = 4p s(b/a, p), and the point term
    # encodes -cot * cot; sum_k csc^2(pi c k/p) = (p^2 - 1)/3 for every c
    third = p // 3
    for a, b in [(1, 1), (1, 2), (2, p - 1), (third, third + 1), (third, 2 * third + 1)]:
        want = -4 * p * _dedekind(b * pow(a, -1, p) % p, p)
        assert field_trace(eval_point_term(p, 1, a, b)) == want
    for c, alpha in [(1, 1), (third, -3), (2 * third + 1, 2)]:
        assert field_trace(eval_sphere_term(p, 1, c, alpha)) == Fraction(alpha * (p * p - 1), 3)
