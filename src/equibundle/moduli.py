"""Rho invariants of lens spaces and equivariant instanton dimensions.

All rho values are computed twice: exactly, as the trace of one
evaluation, and in floating point from the trigonometric form of the
sum over k = 1..p-1.  Each summand at power k is sigma_k (zeta -> zeta^k)
applied to the summand at k = 1, so the exact sum is the field trace
of that single Q(zeta_p) element, built with the sin^2 factor in its
numerator.  A disagreement beyond the float error bound of `RhoValue`
(1e-9, or more at large p) is a hard error, not a warning; it would
mean the exact encodings drifted from the analytic definitions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .action_model import GroupAction, Su2Isotropy, validate
from .congruence import gsign_value
from .cyclotomic import (  # noqa: F401 (eval_point_term stays importable here for perfbench)
    _check,
    _four_sin2,
    _point,
    _sphere,
    _term,
    _twist,
    eval_point_term,
    field_trace,
    sin_cot_term,
)
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


def rho_lens(p: int, a: int, b: int, ell: int) -> RhoValue:
    """Rho invariant of the flat SU(2) character t^ell + t^(-ell) on
    the lens space L(p; a, b):

        (2/p) * sum_{k=1}^{p-1} cot(pi a k / p) cot(pi b k / p)
                                * sin^2(pi k ell / p)

    computed exactly as (2/p) * Tr(x), x the k = 1 summand encoded in
    Q(zeta_p): the point term (which encodes -cot * cot) with
    4 sin^2 = 2 - zeta^ell - zeta^(-ell) in its numerator.  Depends only
    on the residues of a, b, ell; vanishes at ell = 0.
    """
    if ell % p == 0:
        return RhoValue(Fraction(0), 0.0)
    _check(p, 1, a, b)
    exact = Fraction(-1, 2 * p) * field_trace(_term(p, *_twist(_point(a, b), _four_sin2(ell))))
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

    with both sums exact, each the trace of its k = 1 summand (the first
    is the sphere term with 4 sin^2 in its numerator); everything
    vanishes when ell = 0.
    """
    if ell % p == 0:
        return RhoValue(Fraction(0), 0.0)
    exact, parts, ks = Fraction(0), [], range(1, p)
    if alpha:
        _check(p, 1, c)
        term = _twist(_sphere(c, alpha), _four_sin2(ell))
        exact += Fraction(1, 2 * p) * field_trace(_term(p, *term))
        terms = [(math.sin(_angle(p, k * ell)) / math.sin(_angle(p, c * k))) ** 2 for k in ks]
        parts.append((2.0 * alpha / p, terms))
    if m:
        exact += Fraction(-4 * m, p) * field_trace(sin_cot_term(p, ell, c))
        terms = [math.sin(2 * _angle(p, k * ell)) * _cot_at(p, c * k) for k in ks]
        parts.append((-4.0 * m / p, terms))
    return _witnessed(exact, p, parts)


def defect_terms(action: GroupAction) -> tuple[Rational, Rational]:
    """Euler and signature defects of the action: the amounts by which
    fixed point data corrects chi and sign when passing to the quotient.

    d_chi = (p-1) * (|points| + 2 |spheres|); d_sign sums the
    equivariant signatures of the nontrivial powers g^k.  The value at
    g^k is sigma_k of the value at g, and sigma_k fixes a rational, so
    d_sign = (p-1) * Sign(g, X) from one evaluation; an irrational
    value raises NotRational at k = 1.
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
    lift on every fixed component.  Closed form:

        4k - (3/2)(chi + sign)(X/G) + |points| + sum_j (2 + alpha_j)

    cross-checked against the general formula with all weights 1.
    """
    if action.p != 2:
        raise NotInvolution(f"p = {action.p} is not an involution")
    iso = Su2Isotropy(
        (1,) * len(action.points),
        (1,) * len(action.spheres),
        (0,) * len(action.spheres),
        c2=k,
    )
    report = dim_invariant_moduli(action, iso, k)
    closed = (
        Fraction(4 * k)
        - Fraction(3, 2) * (report.chi_quot + report.sign_quot)
        + len(action.points)
        + sum(2 + s.alpha for s in action.spheres)
    )
    if closed != report.dimension:
        raise ArithmeticError(
            f"closed form {closed} disagrees with general formula {report.dimension}"
        )
    return report
