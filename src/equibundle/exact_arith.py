"""Exact scalar arithmetic: rationals, residues, modular inverses, CRT.

``Rational`` is the stdlib ``fractions.Fraction``: arbitrary precision,
always reduced, denominator positive.  The package builds ``Fraction``
values directly and uses ``Rational`` to name exact results in
signatures.  Everything in this module is pure and hashable.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

__all__ = [
    "Rational",
    "Residue",
    "NotInvertible",
    "DenominatorDivisible",
    "NotCoprime",
    "ModulusMismatch",
    "is_prime",
    "rational_mod",
    "crt_solve",
    "signed_rep",
]

Rational = Fraction


class NotInvertible(ArithmeticError):
    """gcd(a, n) != 1, so a has no inverse mod n."""


class DenominatorDivisible(ArithmeticError):
    """A rational cannot be reduced mod p because p divides its denominator."""


class NotCoprime(ArithmeticError):
    """Chinese remainder moduli share a common factor."""


class ModulusMismatch(ValueError):
    """Objects over different moduli p combined into one."""


# Sorenson and Webster (2017): no composite below this bound is a strong
# probable prime to all of the first thirteen prime bases, 2 through 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < 3317044064679887385961981
    (about 3.3e24), using the prime bases 2 through 41.

    Raises ValueError for a larger n with no prime factor up to 41,
    where these bases no longer decide primality; the CLI reports it
    with exit code 3, or 2 for `expand --p`.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    if n >= _MR_BOUND:
        raise ValueError(f"primality of n = {n} is only decided below {_MR_BOUND}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Record:
    """A read-only result record whose fields are its class's `__slots__`,
    in order, two or more: == and hash compare the tuple of field values
    of records of one class, repr is Name(field=value, ...), and
    assignment and del raise AttributeError.  Constructors fill the
    fields through `_set`; copy and pickle restore them through
    `__setstate__`, without running the constructor's checks again."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Residue(_Record):
    """A residue class mod n >= 2, stored with value in [0, n).

    A result record, not a ring: the package computes on plain ints
    and wraps only the answers it returns.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self._set(value % modulus, modulus)

    def signed(self) -> int:
        """Representative in (-n/2, n/2], the display convention."""
        return signed_rep(self.value, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def signed_rep(x: int, n: int) -> int:
    """Representative of x mod n lying in (-n/2, n/2]."""
    x %= n
    return x if 2 * x <= n else x - n


def _mod_p(num: int, den: int, p: int) -> int | None:
    """num/den mod p in [0, p), or None when p divides den: the rule of
    `rational_mod` on plain ints, for callers that reduce many values."""
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def rational_mod(q: Fraction | int, p: int) -> Residue:
    """Reduce an exact rational mod p via a modular inverse of its denominator.

    Raises DenominatorDivisible when p divides the denominator, in which
    case the reduction is undefined.
    """
    q = Fraction(q)
    try:
        value = _mod_p(q.numerator, q.denominator, p)
    except ValueError:  # a composite p sharing a factor with the denominator
        d = q.denominator
        raise NotInvertible(f"{d} is not invertible mod {p} (gcd={gcd(d, p)})") from None
    if value is None:
        raise DenominatorDivisible(f"denominator of {q} is divisible by {p}")
    return Residue(value, p)


def crt_solve(r1: int, m1: int, r2: int, m2: int) -> Residue:
    """Solve x == r1 (mod m1), x == r2 (mod m2) for coprime moduli.

    Returns the unique solution mod m1*m2.  Raises NotCoprime when the
    moduli share a factor.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be positive")
    if gcd(m1, m2) != 1:
        raise NotCoprime(f"moduli {m1}, {m2} share factor {gcd(m1, m2)}")
    if m1 * m2 < 2:
        raise ValueError("product modulus must be >= 2")
    # x = r1 + m1 * t with m1 * t == r2 - r1 (mod m2)
    t = (pow(m1, -1, m2) * (r2 - r1)) % m2
    return Residue(r1 + m1 * t, m1 * m2)
