"""Exact arithmetic in the prime cyclotomic field Q(zeta_p).

Elements are integer vectors over the power basis 1, zeta, ...,
zeta^(p-2), reduced modulo Phi_p(t) = 1 + t + ... + t^(p-1), over one
common denominator.  The case p = 2 is allowed (zeta = -1, length 1);
it is needed by the involution dimension formulas only.

Every fixed-point term is built from cot_e = (zeta^e+1)/(zeta^e-1).  A
double-precision embedding (zeta -> exp(2*pi*i*k/p)) exists purely to
cross-check results against trigonometry; nothing is ever computed from
floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._poly import cleared, convolve
from .exact_arith import ModulusMismatch, Rational, is_prime

__all__ = [
    "CycloNum",
    "ZeroRotation",
    "NotRational",
    "zeta_pow",
    "zeta_minus_one_inv",
    "eval_point_term",
    "eval_sphere_term",
    "sin2_term",
    "sin_cot_term",
    "field_trace",
    "galois_sum",
    "embed_complex",
]


class ZeroRotation(ValueError):
    """A rotation number vanishes mod p where a nonzero one is required."""


class NotRational(ArithmeticError):
    """A value expected to be rational has a nonzero zeta part."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True, init=False)
class CycloNum:
    """sum_i num[i] * zeta^i / den in Q(zeta_p), built from the p-1 rationals
    that `coeffs` reads back.  Lowest terms (den > 0, gcd(den, *num) == 1)
    make the generated == and hash exact."""

    p: int
    num: tuple[int, ...]
    den: int

    def __init__(self, p: int, coeffs) -> None:
        _require_prime(p)
        num, den = cleared([Fraction(c) for c in coeffs])  # lowest terms: den is an lcm
        if len(num) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p = {p}, got {len(num)}")
        self.__dict__.update(p=p, num=tuple(num), den=den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return _reduce(self.p, (other.numerator,), other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.p != self.p:
            raise ModulusMismatch(f"mixed cyclotomic orders {self.p} and {other.p}")
        return other

    def __add__(self, other) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        return _reduce(self.p, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        return self + -other

    def __rsub__(self, other) -> "CycloNum":
        return (-self) + other

    def __neg__(self) -> "CycloNum":
        return _reduce(self.p, [-x for x in self.num], self.den)

    def __mul__(self, other) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # other first: convolve skips its zeros, and a coerced scalar has one nonzero
        return _reduce(self.p, convolve(other.num, self.num), self.den * other.den)

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_part(self) -> Rational:
        if not self.is_rational:
            raise NotRational(f"nonzero zeta part in {self}")
        return Fraction(self.num[0], self.den)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if i == 0 else f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"


def _reduce(p: int, raw, den: int) -> CycloNum:
    """sum_i raw[i] * zeta^i / den in lowest terms, any len(raw), den > 0:
    fold by zeta^p = 1, then zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    folded = [0] * p
    for i, v in enumerate(raw):
        folded[i % p] += v
    top = folded.pop()
    num = [v - top for v in folded]
    g = math.gcd(den, *num)
    x = object.__new__(CycloNum)
    x.__dict__.update(p=p, num=tuple(v // g for v in num), den=den // g)
    return x


def from_rational(p: int, q) -> CycloNum:
    return CycloNum(p, [q] + [0] * (p - 2))


def _zeta(p: int, e: int) -> CycloNum:
    return _reduce(p, [0] * (e % p) + [1], 1)


def zeta_pow(p: int, e: int) -> CycloNum:
    """zeta^e as a canonical field element."""
    _require_prime(p)
    return _zeta(p, e)


def _cot(p: int, e: int) -> CycloNum:
    """cot_e = (zeta^e + 1)/(zeta^e - 1) = 1 + (2/p) * sum_j j * zeta^(e*j)
    for e != 0 mod p; embeds to -i*cot(pi*e/p).

    The identity (zeta^e - 1) * sum_{j=0}^{p-1} j*zeta^(ej) = p holds
    because the shifted sum telescopes and sum_j zeta^(ej) = 0.
    """
    raw = [0] * p
    for j in range(p):
        raw[e * j % p] += 2 * j
    raw[0] += p
    return _reduce(p, raw, p)


def zeta_minus_one_inv(p: int, e: int) -> CycloNum:
    """(zeta^e - 1)^(-1) = (cot_e - 1) / 2."""
    _require_prime(p)
    if e % p == 0:
        raise ZeroRotation(f"exponent {e} is divisible by {p}")
    return (_cot(p, e) - 1) * Fraction(1, 2)


# -- fixed-point terms -------------------------------------------------


def eval_point_term(p: int, k: int, a: int, b: int) -> CycloNum:
    """(zeta^(ka)+1)(zeta^(kb)+1) / ((zeta^(ka)-1)(zeta^(kb)-1)) = cot_{ka} * cot_{kb}.

    Under the embedding zeta -> exp(2*pi*i/p) this is the isolated
    fixed point contribution -cot(pi*a*k/p) * cot(pi*b*k/p).
    """
    _require_prime(p)
    if a % p == 0 or b % p == 0:
        raise ZeroRotation(f"rotation numbers ({a}, {b}) must be nonzero mod {p}")
    if k % p == 0:
        raise ZeroRotation(f"group element power {k} must be nonzero mod {p}")
    return _cot(p, k * a) * _cot(p, k * b)


def eval_sphere_term(p: int, k: int, c: int, alpha: int) -> CycloNum:
    """-4*alpha*zeta^(kc) / (zeta^(kc)-1)^2 = -alpha * (cot_{kc}^2 - 1),
    the fixed sphere contribution; embeds to alpha * csc^2(pi*c*k/p)."""
    _require_prime(p)
    if c % p == 0:
        raise ZeroRotation(f"normal rotation {c} must be nonzero mod {p}")
    if k % p == 0:
        raise ZeroRotation(f"group element power {k} must be nonzero mod {p}")
    cot = _cot(p, k * c)
    return (cot * cot - 1) * -alpha


def sin2_term(p: int, e: int) -> CycloNum:
    """(2 - zeta^e - zeta^(-e)) / 4; embeds to sin^2(pi*e/p)."""
    _require_prime(p)
    return (2 - _zeta(p, e) - _zeta(p, -e)) * Fraction(1, 4)


def sin_cot_term(p: int, l: int, c: int) -> CycloNum:
    """(zeta^l - zeta^(-l))(zeta^c + 1) / (2(zeta^c - 1)) = (zeta^l - zeta^(-l)) * cot_c / 2.

    Embeds to sin(2*pi*l/p) * cot(pi*c/p); the two imaginary factors
    cancel, so the value is real under every embedding.
    """
    _require_prime(p)
    if c % p == 0:
        raise ZeroRotation(f"normal rotation {c} must be nonzero mod {p}")
    return (_zeta(p, l) - _zeta(p, -l)) * _cot(p, c) * Fraction(1, 2)


def field_trace(x: CycloNum) -> Rational:
    """Trace of x from Q(zeta_p) down to Q: the sum of its p-1 Galois
    conjugates sigma_k(x), k = 1..p-1, where sigma_k sends zeta to zeta^k.

    Tr(1) = p-1 and Tr(zeta^i) = -1 for 0 < i < p, so over the power
    basis Tr(x) = p*c_0 - (c_0 + ... + c_(p-2)).  At p = 2 the field
    is Q and the trace is the identity.
    """
    return Fraction(x.p * x.num[0] - sum(x.num), x.den)


def galois_sum(p: int, f: Callable[[int], CycloNum]) -> Rational:
    """Sum f(k) over k = 1..p-1 and return the rational value.

    This is the p-fold oracle kept for tests; request paths use
    `field_trace`.  For a Galois-stable family (f(k) = sigma_k(f(1)))
    the sum is Tr(f(1)), hence rational; a nonzero zeta part signals a
    family that is not stable and raises NotRational.
    """
    total = from_rational(p, 0)
    for k in range(1, p):
        term = f(k)
        if term.p != p:
            raise ModulusMismatch(f"term at k={k} lives in p={term.p}, expected {p}")
        total = total + term
    return total.rational_part()


def embed_complex(x: CycloNum, k: int = 1) -> complex:
    """Numeric value at zeta = exp(2*pi*i*k/p).  Cross-checks only."""
    w = 2.0 * math.pi * k / x.p
    return sum(float(c) * cmath.exp(1j * w * i) for i, c in enumerate(x.coeffs))
