"""Exact arithmetic in the prime cyclotomic field Q(zeta_p).

Elements are coefficient vectors over the power basis 1, zeta, ...,
zeta^(p-2), reduced modulo Phi_p(t) = 1 + t + ... + t^(p-1).  The case
p = 2 is allowed (zeta = -1, vectors of length 1); it is needed by the
involution dimension formulas only.

The fixed-point contributions to equivariant signatures are assembled
here as exact field elements.  A double-precision embedding
(zeta -> exp(2*pi*i*k/p)) exists purely to cross-check results against
trigonometry; nothing is ever computed from floats.
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


@dataclass(frozen=True)
class CycloNum:
    """Element of Q(zeta_p); coeffs[i] multiplies zeta^i, length p-1."""

    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if len(self.coeffs) != self.p - 1:
            raise ValueError(
                f"need {self.p - 1} coefficients for p = {self.p}, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return from_rational(self.p, Fraction(other))
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.p != self.p:
            raise ModulusMismatch(f"mixed cyclotomic orders {self.p} and {other.p}")
        return other

    def __add__(self, other) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.p, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.p, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "CycloNum":
        return (-self) + other

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.p, tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNum(self.p, tuple(x * q for x in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        ax, da = cleared(self.coeffs)
        bx, db = cleared(other.coeffs)
        raw = convolve(ax, bx)
        folded = [0] * p
        for i, v in enumerate(raw):
            folded[i % p] += v
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        top = folded[p - 1]
        den = da * db
        return CycloNum(p, tuple(Fraction(folded[i] - top, den) for i in range(p - 1)))

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Rational:
        if not self.is_rational:
            raise NotRational(f"nonzero zeta part in {self}")
        return self.coeffs[0]

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if i == 0 else f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"


def from_rational(p: int, q) -> CycloNum:
    coeffs = [Fraction(0)] * (p - 1)
    coeffs[0] = Fraction(q)
    return CycloNum(p, tuple(coeffs))


def zeta_pow(p: int, e: int) -> CycloNum:
    """zeta^e as a canonical field element."""
    e %= p
    if e == p - 1:
        return CycloNum(p, tuple([Fraction(-1)] * (p - 1)))
    coeffs = [Fraction(0)] * (p - 1)
    coeffs[e] = Fraction(1)
    return CycloNum(p, tuple(coeffs))


def zeta_minus_one_inv(p: int, e: int) -> CycloNum:
    """(zeta^e - 1)^(-1) in closed form: (1/p) * sum_j j * zeta^(e*j).

    The identity (zeta^e - 1) * sum_{j=0}^{p-1} j*zeta^(ej) = p holds
    because the shifted sum telescopes and sum_j zeta^(ej) = 0 for
    e != 0 mod p.
    """
    if e % p == 0:
        raise ZeroRotation(f"exponent {e} is divisible by {p}")
    raw = [0] * p
    for j in range(p):
        raw[(e * j) % p] += j
    top = raw[p - 1]
    return CycloNum(p, tuple(Fraction(raw[i] - top, p) for i in range(p - 1)))


# -- fixed-point terms -------------------------------------------------


def eval_point_term(p: int, k: int, a: int, b: int) -> CycloNum:
    """(zeta^(ka)+1)(zeta^(kb)+1) / ((zeta^(ka)-1)(zeta^(kb)-1)).

    Under the embedding zeta -> exp(2*pi*i/p) this is the isolated
    fixed point contribution -cot(pi*a*k/p) * cot(pi*b*k/p).
    """
    if a % p == 0 or b % p == 0:
        raise ZeroRotation(f"rotation numbers ({a}, {b}) must be nonzero mod {p}")
    if k % p == 0:
        raise ZeroRotation(f"group element power {k} must be nonzero mod {p}")
    za = zeta_pow(p, k * a)
    zb = zeta_pow(p, k * b)
    num = (za + 1) * (zb + 1)
    return num * zeta_minus_one_inv(p, k * a) * zeta_minus_one_inv(p, k * b)


def eval_sphere_term(p: int, k: int, c: int, alpha: int) -> CycloNum:
    """-4*alpha*zeta^(kc) / (zeta^(kc)-1)^2, the fixed sphere
    contribution; embeds to alpha * csc^2(pi*c*k/p)."""
    if c % p == 0:
        raise ZeroRotation(f"normal rotation {c} must be nonzero mod {p}")
    if k % p == 0:
        raise ZeroRotation(f"group element power {k} must be nonzero mod {p}")
    if alpha == 0:
        return from_rational(p, 0)
    inv = zeta_minus_one_inv(p, k * c)
    return zeta_pow(p, k * c) * inv * inv * Fraction(-4 * alpha)


def sin2_term(p: int, e: int) -> CycloNum:
    """(2 - zeta^e - zeta^(-e)) / 4; embeds to sin^2(pi*e/p)."""
    return (from_rational(p, 2) - zeta_pow(p, e) - zeta_pow(p, -e)) * Fraction(1, 4)


def sin_cot_term(p: int, l: int, c: int) -> CycloNum:
    """(zeta^l - zeta^(-l))(zeta^c + 1) / (2(zeta^c - 1)).

    Embeds to sin(2*pi*l/p) * cot(pi*c/p); the two imaginary factors
    cancel, so the value is real under every embedding.
    """
    if c % p == 0:
        raise ZeroRotation(f"normal rotation {c} must be nonzero mod {p}")
    if l % p == 0:
        return from_rational(p, 0)
    diff = zeta_pow(p, l) - zeta_pow(p, -l)
    return diff * (zeta_pow(p, c) + 1) * zeta_minus_one_inv(p, c) * Fraction(1, 2)


def field_trace(x: CycloNum) -> Rational:
    """Trace of x from Q(zeta_p) down to Q: the sum of its p-1 Galois
    conjugates sigma_k(x), k = 1..p-1, where sigma_k sends zeta to zeta^k.

    Tr(1) = p-1 and Tr(zeta^i) = -1 for 0 < i < p, so over the power
    basis Tr(x) = p*c_0 - (c_0 + ... + c_(p-2)).  At p = 2 the field
    is Q and the trace is the identity.
    """
    return x.p * x.coeffs[0] - sum(x.coeffs)


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
