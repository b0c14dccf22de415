"""Exact arithmetic in the prime cyclotomic field Q(zeta_p).

Elements are integer vectors over the power basis 1, zeta, ...,
zeta^(p-2), reduced modulo Phi_p(t) = 1 + t + ... + t^(p-1), over one
common denominator.  The case p = 2 is allowed (zeta = -1, length 1);
it is needed by the involution dimension formulas only.

Every fixed-point term is described once, by `_point`, `_sphere` and
`_boundary`: a sparse Laurent polynomial in t, the units
u_r = (t^r - 1)/(t - 1) it divides by and its pole order k at t = 1.
`_twist` multiplies it by an isotropy character.  `_term` evaluates a
description at t = zeta at O(p) per factor: a sliding window, exact
over Z, divides by the units, and running sums divide by zeta - 1.
The G-signature value in `congruence` reads the same window over Z,
and builds a `CycloNum` only to name an irrational sum; the rotation
battery reads the window mod p, and `series` expands the same
descriptions in s = t - 1.  Nothing is ever computed from floats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate

from ._poly import convolve
from .exact_arith import ModulusMismatch, Rational, _Record, is_prime

__all__ = [
    "CycloNum",
    "ZeroRotation",
    "NotRational",
    "zeta_minus_one_inv",
    "eval_point_term",
    "eval_sphere_term",
    "sin2_term",
    "galois_sum",
]


class ZeroRotation(ValueError):
    """A rotation number vanishes mod p where a nonzero one is required."""


class NotRational(ArithmeticError):
    """A value expected to be rational has a nonzero zeta part."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class CycloNum(_Record):
    """sum_i num[i] * zeta^i / den in Q(zeta_p), a result of the term
    builders: only `_reduce` makes one.  Lowest terms (den > 0,
    gcd(den, *num) == 1) make the field-wise == and hash exact."""

    __slots__ = ("p", "num", "den")

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

    def __mul__(self, other) -> "CycloNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # other first: convolve skips its zeros, and a coerced scalar has one nonzero
        return _reduce(self.p, convolve(other.num, self.num), self.den * other.den)

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------

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
    x._set(p, tuple(v // g for v in num), den // g)
    return x


def _over_units(p: int, num, units) -> list[int]:
    """num / prod_r u_r as p integers over t^0..t^(p-1), exact mod Phi_p(t),
    for a sparse num of (exponent, coefficient) and units r nonzero mod p.

    Mod Phi_p, 1/u_r = sum_{i < 1/r} t^(r*i) is integral, and w = v/u_r
    obeys w_m = w_(m-r) + v_m - v_(m-1): a sliding window along m -> m + r.
    It fixes w up to a multiple of Phi_p, so w_0 = 0 will do.
    """
    v = [0] * p
    for e, c in num:
        v[e % p] += c
    for r in units:
        r %= p
        w = [0] * p
        acc = m = 0
        for _ in range(p - 1):
            m += r
            if m >= p:
                m -= p
            acc += v[m] - v[m - 1]
            w[m] = acc
        v = w
    return v


def _term(p: int, num, units, k: int, den: int = 1) -> CycloNum:
    """num / (den * prod_r u_r * (zeta - 1)^k), num sparse as in `_over_units`.
    Each division by zeta - 1 subtracts v(1)/p * Phi_p, so that v(1) = 0,
    then divides by t - 1 with one running sum."""
    v = _over_units(p, num, units)
    for _ in range(k):
        s = sum(v)
        v = [-x for x in accumulate(p * x - s for x in v)]
        den *= p
    return _reduce(p, v, den)


def zeta_minus_one_inv(p: int, e: int) -> CycloNum:
    """(zeta^e - 1)^(-1) = 1 / (u_e * (zeta - 1))."""
    _require_prime(p)
    if e % p == 0:
        raise ZeroRotation(f"exponent {e} is divisible by {p}")
    return _term(p, [(0, 1)], (e,), 1)


# -- fixed-point terms -------------------------------------------------
# A contribution is described once, as (num, units, k): the term
# num / (prod_r u_r * (t - 1)^k), num a sparse list of (exponent,
# coefficient).  An isotropy character, sparse too, twists num.


def _point(a: int, b: int):
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)): an isolated point with rotations (a, b)."""
    return [(0, 1), (a, 1), (b, 1), (a + b, 1)], (a, b), 2


def _sphere(c: int, alpha: int):
    """-4*alpha*t^c / (t^c-1)^2: a fixed sphere, normal rotation c, self-intersection alpha."""
    return [(c, -4 * alpha)], (c, c), 2


def _boundary(c: int, m: int):
    """2m(t^c+1) / (t^c-1): twisting degree m along a sphere of normal rotation c."""
    return [(0, 2 * m), (c, 2 * m)], (c,), 1


def _twist(term, character):
    """The term times a sparse Laurent polynomial: one sparse product."""
    num, units, k = term
    return [(e + d, c * w) for e, c in num for d, w in character], units, k


def _four_sin2(ell: int) -> list[tuple[int, int]]:
    """2 - t^ell - t^(-ell), which is 4 sin^2(pi*ell/p) at t = exp(2*pi*i/p)."""
    return [(0, 2), (ell, -1), (-ell, -1)]


def _check_rotations(p: int, *rotations: int) -> None:
    """A point's two rotations or a sphere's one nonzero mod p."""
    if any(r % p == 0 for r in rotations):
        if len(rotations) == 2:
            raise ZeroRotation(f"rotation numbers {rotations} must be nonzero mod {p}")
        raise ZeroRotation(f"normal rotation {rotations[0]} must be nonzero mod {p}")


def _check(p: int, k: int, *rotations: int) -> None:
    """Prime p; k and a point's two rotations or a sphere's one nonzero mod p."""
    _require_prime(p)
    _check_rotations(p, *rotations)
    if k % p == 0:
        raise ZeroRotation(f"group element power {k} must be nonzero mod {p}")


def eval_point_term(p: int, k: int, a: int, b: int) -> CycloNum:
    """(zeta^(ka)+1)(zeta^(kb)+1) / ((zeta^(ka)-1)(zeta^(kb)-1)).

    Under the embedding zeta -> exp(2*pi*i/p) this is the isolated
    fixed point contribution -cot(pi*a*k/p) * cot(pi*b*k/p).
    """
    _check(p, k, a, b)
    return _term(p, *_point(k * a, k * b))


def eval_sphere_term(p: int, k: int, c: int, alpha: int) -> CycloNum:
    """-4*alpha*zeta^(kc) / (zeta^(kc)-1)^2, the fixed sphere
    contribution; embeds to alpha * csc^2(pi*c*k/p)."""
    _check(p, k, c)
    return _term(p, *_sphere(k * c, alpha))


def sin2_term(p: int, e: int) -> CycloNum:
    """(2 - zeta^e - zeta^(-e)) / 4; embeds to sin^2(pi*e/p)."""
    _require_prime(p)
    return _term(p, _four_sin2(e), (), 0, 4)


def galois_sum(p: int, f: Callable[[int], CycloNum]) -> Rational:
    """Sum f(k) over k = 1..p-1 and return the rational value.

    This is the p-fold oracle kept for tests; no request path sums over
    the group powers.  For a Galois-stable family (f(k) = sigma_k(f(1)))
    the sum is the trace of f(1), hence rational; a nonzero zeta part
    signals a family that is not stable and raises NotRational.
    """
    _require_prime(p)
    total = None
    for k in range(1, p):
        term = f(k)
        if term.p != p:
            raise ModulusMismatch(f"term at k={k} lives in p={term.p}, expected {p}")
        total = term if total is None else total + term
    return total.rational_part()
