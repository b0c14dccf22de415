"""Rho invariants of lens spaces and equivariant instanton dimensions.

All rho values are computed twice: exactly, in closed form, and in
floating point from the trigonometric form of the sum over
k = 1..p-1.  The closed forms are classical and cost O(log p).  A
surface term is a Fejer kernel sum, n(p - n) with n = ell/c mod p,
plus a cotangent sum, p - 2n.  A lens term is a difference of shifted
Dedekind-Rademacher sums, read off floor sums by a Euclid-like
recursion.  The float witness costs O(p).  A disagreement beyond its
error bound in `RhoValue` (1e-9, or more at large p) is a hard error,
not a warning; it would mean the closed forms drifted from the
analytic definitions.  The signature defect is one
`congruence.gsign_value`, read from integers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .action_model import GroupAction, Su2Isotropy, validate
from .congruence import gsign_value
from .cyclotomic import _check, eval_point_term  # noqa: F401 (kept importable here for perfbench)
from .exact_arith import Rational

__all__ = [
    "FloatMismatch",
    "NonIntegerDimension",
    "NotInvolution",
    "ParityError",
    "RhoValue",
    "DimensionReport",
    "rho_lens",
    "rho_surface",
    "defect_terms",
    "quotient_invariants",
    "dim_nonequivariant",
    "dim_invariant_moduli",
    "dim_involution",
]

_FLOAT_TOL = 1e-9


class FloatMismatch(ArithmeticError):
    """Exact and floating point evaluations of a rho sum disagree."""


class NonIntegerDimension(ArithmeticError):
    """The dimension formula did not sum to an integer.

    Carries the offending total and the term breakdown so callers can
    report which contribution is inconsistent.
    """

    def __init__(self, total: Fraction, terms: tuple):
        super().__init__(f"dimension formula gave non-integer value {total}")
        self.total = total
        self.terms = terms


class NotInvolution(ValueError):
    """dim_involution needs p = 2."""


class ParityError(ValueError):
    """chi + sign must be even for the index formula."""


@dataclass(frozen=True)
class RhoValue:
    """Exact rho invariant with its mandatory floating point witness.

    The witness sums float terms x_k of cot, csc^2 and sin^2 at angles
    pi*r/p, 0 < r < p.  Each angle is exact to about eps * pi, a relative
    error of about eps * p in sin near r = p - 1: p is the condition
    number of each factor.  So each x_k is off by a few eps * p * |x_k|,
    and summing adds at most p * eps * S, S = sum_k |x_k|.  The witness
    must match within max(1e-9, 4 * eps * p * S); sampled errors up to
    p = 100003 stayed below 0.5 * eps * p * S.  `rho_lens` and
    `rho_surface` set `_scale` = p * S from the terms they sum.
    """

    exact: Rational
    float_check: float
    _scale: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self):
        tol = max(_FLOAT_TOL, 4 * sys.float_info.epsilon * self._scale)
        if abs(float(self.exact) - self.float_check) >= tol:
            raise FloatMismatch(f"exact value {self.exact} vs float {self.float_check!r}")

    def __str__(self) -> str:
        return str(self.exact)


def _angle(p: int, r: int) -> float:
    """pi * r / p with r reduced mod p, so it is exact to about eps * pi;
    cot, csc^2 and sin^2 have period pi, so no term changes."""
    return math.pi * (r % p) / p


def _cot_at(p: int, r: int) -> float:
    return 1 / math.tan(_angle(p, r))


def _witnessed(exact: Rational, p: int, parts) -> RhoValue:
    """`exact` with the witness sum_j w_j * sum(terms_j), parts = [(w_j, terms_j)]."""
    approx = scale = 0.0
    for w, terms in parts:
        approx += w * sum(terms)
        scale += abs(w) * sum(map(abs, terms))
    return RhoValue(exact, approx, p * scale)


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """The sums over j = 0..n of f_j, j*f_j and f_j^2, where
    f_j = floor((a*j + b)/c), for a, b, n >= 0 and c > 0.

    The Euclid-like recursion: reduce a and b mod c, then swap the
    roles of j and f_j, which exchanges a and c.  O(log c) steps.
    """
    if a >= c or b >= c:
        qa, qb = a // c, b // c
        f, g, h = _floor_sums(a % c, b % c, c, n)
        s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
        return (
            f + qa * s1 + qb * (n + 1),
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1 + 2 * qb * f + 2 * qa * g,
        )
    top = (a * n + b) // c
    if top == 0:
        return 0, 0, 0
    f, g, h = _floor_sums(c, c - b - 1, a, top - 1)
    total = n * top - f
    return total, (top * n * (n + 1) - h - f) // 2, n * top * (top + 1) - 2 * g - 2 * f - total


def _dedekind_sum(q: int, p: int, r: int) -> int:
    """4p^2 * s(q, p; r), an integer, where
    s(q, p; r) = sum_{j=0}^{p-1} ((j/p)) (((q*j + r)/p)) for a unit q
    mod p and 0 <= q, r < p, and ((x)) = x - floor(x) - 1/2 off the
    integers and 0 on them (Rademacher; Beck-Robins, ch. 8).

    With x_j = (q*j + r) mod p, the j-th term is (j/p - 1/2)(x_j/p - 1/2)
    but at j = 0 and at the j0 with x_j0 = 0.  The x_j run over 0..p-1,
    so only sum_j j*x_j needs the floor sums.
    """
    g = _floor_sums(q, r, p, p - 1)[1]
    jx = q * (p - 1) * p * (2 * p - 1) // 6 + r * p * (p - 1) // 2 - p * g
    j0 = -r * pow(q, -1, p) % p
    return 4 * jx - p * p * (p - 1) + 2 * p * r + (p * (2 * j0 - p) if j0 else 0)


def rho_lens(p: int, a: int, b: int, ell: int) -> RhoValue:
    """Rho invariant of the flat SU(2) character t^ell + t^(-ell) on
    the lens space L(p; a, b):

        (2/p) * sum_{k=1}^{p-1} cot(pi a k / p) cot(pi b k / p)
                                * sin^2(pi k ell / p)

    computed exactly as 4(s(q, p) - s(q, p; r)), q = b/a and r = ell/a
    mod p, from shifted Dedekind-Rademacher sums in O(log p).  Depends
    only on the residues of a, b, ell; vanishes at ell = 0, after p
    and the rotations are checked.
    """
    _check(p, 1, a, b)
    if ell % p == 0:
        return RhoValue(Fraction(0), 0.0)
    inv = pow(a, -1, p)
    q, r = b * inv % p, ell * inv % p
    exact = Fraction(_dedekind_sum(q, p, 0) - _dedekind_sum(q, p, r), p * p)
    terms = [
        _cot_at(p, a * k) * _cot_at(p, b * k) * math.sin(_angle(p, k * ell)) ** 2
        for k in range(1, p)
    ]
    return _witnessed(exact, p, [(2.0 / p, terms)])


def rho_surface(p: int, c: int, ell: int, alpha: int, m: int) -> RhoValue:
    """Rho contribution of a fixed surface of self-intersection alpha,
    normal weight c, fiber weight ell and twisting degree m:

        (2 alpha / p) * sum_k csc^2(pi c k / p) sin^2(pi k ell / p)
      - (4 m / p)     * sum_k sin(2 pi k ell / p) cot(pi c k / p)

    With n = ell/c mod p in [0, p), the sums are n(p - n) (the Fejer
    kernel) and p - 2n for n != 0, so the exact value is
    (2 alpha n(p - n) - 4m(p - 2n))/p.  Everything vanishes when
    ell = 0, after p and c are checked.
    """
    _check(p, 1, c)
    if ell % p == 0:
        return RhoValue(Fraction(0), 0.0)
    n = ell * pow(c, -1, p) % p
    exact = Fraction(2 * alpha * n * (p - n) - 4 * m * (p - 2 * n), p)
    parts, ks = [], range(1, p)
    if alpha:
        terms = [(math.sin(_angle(p, k * ell)) / math.sin(_angle(p, c * k))) ** 2 for k in ks]
        parts.append((2.0 * alpha / p, terms))
    if m:
        terms = [math.sin(2 * _angle(p, k * ell)) * _cot_at(p, c * k) for k in ks]
        parts.append((-4.0 * m / p, terms))
    return _witnessed(exact, p, parts)


def defect_terms(action: GroupAction) -> tuple[Rational, Rational]:
    """Euler and signature defects of the action: the amounts by which
    fixed point data corrects chi and sign when passing to the quotient.

    d_chi = (p-1) * (|points| + 2 |spheres|); d_sign sums the
    equivariant signatures of the nontrivial powers g^k.  The value at
    g^k is sigma_k of the value at g, and sigma_k fixes a rational, so
    d_sign = (p-1) * Sign(g, X) from one `gsign_value`, read from one
    integral window per component in O(p); an irrational value raises
    NotRational at k = 1.
    """
    n = len(action.points)
    s = len(action.spheres)
    d_chi = Fraction((action.p - 1) * (n + 2 * s))
    d_sign = (action.p - 1) * gsign_value(action, 1)
    return d_chi, d_sign


def quotient_invariants(action: GroupAction) -> tuple[Rational, Rational]:
    """(chi, sign) of the quotient space X/G as exact rationals:
    chi(X/G) = (chi(X) + d_chi)/p, sign(X/G) = (sign(X) + d_sign)/p."""
    d_chi, d_sign = defect_terms(action)
    chi_q = Fraction(action.euler + d_chi, action.p)
    sign_q = Fraction(action.signature + d_sign, action.p)
    return chi_q, sign_q


def dim_nonequivariant(k: int, chi: int, sign: int) -> int:
    """Dimension 8k - (3/2)(chi + sign) of the charge-k instanton
    moduli space on a simply connected closed four-manifold."""
    if (chi + sign) % 2 != 0:
        raise ParityError(f"chi + sign = {chi + sign} is odd")
    return 8 * k - 3 * (chi + sign) // 2


def _dimension_rows(terms) -> list[str]:
    """One aligned line per (name, value) term of a dimension breakdown."""
    return [f"  {name:28s} {value}" for name, value in terms]


@dataclass(frozen=True)
class DimensionReport:
    """Integer dimension with its exact term-by-term breakdown."""

    dimension: int
    terms: tuple[tuple[str, Rational], ...]
    chi_quot: Rational
    sign_quot: Rational

    def display(self) -> str:
        return "\n".join(_dimension_rows([*self.terms, ("dimension", self.dimension)]))


def dim_invariant_moduli(action: GroupAction, isotropy: Su2Isotropy, k: int) -> DimensionReport:
    """Dimension of the invariant part of the charge-k moduli space
    for the equivariant lift described by the (adjoint) isotropy data:

        8k/p - (3/2)(chi + sign)(X/G) + m - sum rho_lens
             + sum_{ell_j != 0} 2 + sum rho_surface

    where m counts fixed points with nontrivial fiber rotation.  The
    ell entries here are adjoint weights; they are folded into the
    canonical range before evaluation, which leaves every rho term
    unchanged.
    """
    report = validate(action)
    if not report.ok:
        raise ValueError("invalid action: " + "; ".join(report.failures()))
    isotropy.check_shape(action)
    p = action.p
    iso = isotropy.canonical(p)
    chi_q, sign_q = quotient_invariants(action)
    t_inst = Fraction(8 * k, p)
    t_quot = Fraction(-3, 2) * (chi_q + sign_q)
    m_count = sum(1 for e in iso.ell_points if e % p != 0)
    rho_l = Fraction(0)
    for pt, e in zip(action.points, iso.ell_points):
        rho_l += rho_lens(p, pt.a, pt.b, e).exact
    sphere_euler = 0
    rho_s = Fraction(0)
    for s, e, mm in zip(action.spheres, iso.ell_spheres, iso.m_spheres):
        if e % p != 0:
            sphere_euler += 2
        rho_s += rho_surface(p, s.c, e, s.alpha, mm).exact
    total = t_inst + t_quot + m_count - rho_l + sphere_euler + rho_s
    terms = (
        ("instanton_8k/p", t_inst),
        ("quotient_index", t_quot),
        ("rotated_point_count", Fraction(m_count)),
        ("minus_lens_rho_sum", -rho_l),
        ("sphere_euler_sum", Fraction(sphere_euler)),
        ("sphere_rho_sum", rho_s),
    )
    if total.denominator != 1:
        raise NonIntegerDimension(total, terms)
    return DimensionReport(int(total), terms, chi_q, sign_q)


def dim_involution(action: GroupAction, k: int) -> DimensionReport:
    """Invariant dimension for an involution with the standard odd
    lift on every fixed component: the general formula with every
    weight 1 and every m = 0.  At p = 2 it reduces to

        4k - (3/2)(chi + sign)(X/G) + |points| + sum_j (2 + alpha_j)
    """
    if action.p != 2:
        raise NotInvolution(f"p = {action.p} is not an involution")
    iso = Su2Isotropy(
        (1,) * len(action.points),
        (1,) * len(action.spheres),
        (0,) * len(action.spheres),
        c2=k,
    )
    return dim_invariant_moduli(action, iso, k)
