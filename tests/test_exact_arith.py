import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from equibundle.exact_arith import (
    DenominatorDivisible,
    NotCoprime,
    NotInvertible,
    Residue,
    crt_solve,
    is_prime,
    rational_mod,
    signed_rep,
)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(997)
    assert not is_prime(1001)  # 7 * 11 * 13


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_equals_trial_division_below_1e5():
    assert [is_prime(n) for n in range(-3, 10**5)] == [
        _trial_division(n) for n in range(-3, 10**5)
    ]


# strong pseudoprimes to the first 4, 11 and 12 prime bases, the
# smallest such (Jaeschke 1993; Sorenson and Webster 2017)
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def _is_carmichael(n, factors):
    # Korselt: n square-free and q - 1 | n - 1 for every prime q | n
    return (
        len(set(factors)) == len(factors) >= 3
        and all(_trial_division(q) and (n - 1) % (q - 1) == 0 for q in factors)
    )


def _chernick(k):
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime
    return [6 * k + 1, 12 * k + 1, 18 * k + 1]


def test_is_prime_rejects_pseudoprimes_and_carmichael_numbers():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n)
    small = {561: [3, 11, 17], 1105: [5, 13, 17], 1729: [7, 13, 19], 41041: [7, 11, 13, 41]}
    big = [f for k in range(10**5, 10**5 + 400) if all(map(_trial_division, f := _chernick(k)))]
    assert len(big) >= 2
    cases = list(small.items()) + [(f[0] * f[1] * f[2], f) for f in big]
    for n, factors in cases:
        assert _is_carmichael(n, factors)
        assert not is_prime(n), n


def test_is_prime_accepts_large_primes():
    assert is_prime(10**18 + 3)
    assert is_prime(10**18 + 9)
    assert is_prime(2**61 - 1)
    assert not is_prime(998244359987710471)  # 1000000007 * 998244353


def test_is_prime_raises_beyond_its_bound():
    bound = 3317044064679887385961981  # a strong pseudoprime to bases 2..41
    for n in (bound, 2**89 - 1):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)
    # a small factor still decides
    assert not is_prime(2**90)
    assert not is_prime(41 * (2**89 - 1))


def test_mod_inverse_dense():
    # the inverse of a mod n is 1/a reduced mod n: every unit has one, and
    # every non-unit raises, DenominatorDivisible where n divides a
    for n in range(2, 200):
        for a in range(-n, 2 * n):
            if a == 0:
                continue  # 1/0 is no rational
            if gcd(a, n) == 1:
                inv = rational_mod(Fraction(1, a), n)
                assert (inv.value * a) % n == 1
                assert 0 <= inv.value < n
            else:
                with pytest.raises(DenominatorDivisible if a % n == 0 else NotInvertible):
                    rational_mod(Fraction(1, a), n)


def test_mod_inverse_sampled_large():
    rng = random.Random(7001)
    for _ in range(500):
        n = rng.randrange(200, 10**6)
        a = rng.randrange(1, n)
        if gcd(a, n) == 1:
            assert rational_mod(Fraction(1, a), n).value * a % n == 1
        else:
            with pytest.raises(NotInvertible):
                rational_mod(Fraction(1, a), n)


def test_rational_mod_basic():
    assert rational_mod(Fraction(1, 2), 7).value == 4
    assert rational_mod(Fraction(-3, 4), 5).value == (-3 * 4) % 5  # 1/4 = 4 mod 5
    assert rational_mod(Fraction(10), 7).value == 3
    assert rational_mod(3, 7).value == 3


def test_rational_mod_divisible_denominator():
    with pytest.raises(DenominatorDivisible):
        rational_mod(Fraction(1, 7), 7)
    with pytest.raises(DenominatorDivisible):
        rational_mod(Fraction(2, 14), 7)


def test_rational_mod_agrees_with_integer_congruence():
    rng = random.Random(7002)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 101])
        num = rng.randrange(-50, 50)
        den = rng.randrange(1, 50)
        if den % p == 0 and num % p != 0:
            continue
        q = Fraction(num, den)
        if q.denominator % p == 0:
            continue
        r = rational_mod(q, p)
        # r * den == num mod p is the defining property
        assert (r.value * q.denominator - q.numerator) % p == 0


def test_crt_examples():
    r = crt_solve(2, 5, 1, 2)
    assert (r.value, r.modulus) == (7, 10)
    r = crt_solve(3, 25, 1, 3)
    assert (r.value, r.modulus) == (28, 75)


def test_crt_not_coprime():
    with pytest.raises(NotCoprime):
        crt_solve(1, 6, 2, 4)


def test_crt_exhaustive_small_grid():
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            if gcd(m1, m2) != 1 or m1 * m2 < 2:
                continue
            for r1 in range(m1):
                for r2 in range(m2):
                    x = crt_solve(r1, m1, r2, m2)
                    assert x.modulus == m1 * m2
                    assert x.value % m1 == r1
                    assert x.value % m2 == r2


def test_crt_random_large():
    rng = random.Random(7003)
    done = 0
    while done < 200:
        m1 = rng.randrange(2, 10**4)
        m2 = rng.randrange(2, 10**4)
        if gcd(m1, m2) != 1:
            continue
        r1 = rng.randrange(m1)
        r2 = rng.randrange(m2)
        x = crt_solve(r1, m1, r2, m2)
        assert x.value % m1 == r1 and x.value % m2 == r2
        done += 1


def test_signed_rep_range():
    assert signed_rep(3, 5) == -2
    assert signed_rep(2, 5) == 2
    assert signed_rep(0, 5) == 0
    # even modulus: n/2 itself is kept positive
    assert signed_rep(5, 10) == 5
    assert signed_rep(6, 10) == -4
    for n in range(2, 40):
        for x in range(n):
            s = signed_rep(x, n)
            assert -n / 2 < s <= n / 2
            assert s % n == x


def test_residue_signed_display():
    assert Residue(4, 5).signed() == -1
    assert str(Residue(4, 5)) == "4 (mod 5)"
