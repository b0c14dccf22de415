"""The slow routes that the package's fast paths are checked against, and
the code that several test modules share: the p-fold Galois sums, the
field trace, the float trigonometric sums, the Euclidean inverse in
Q(zeta_p), the GF(p) and unit-series expansions, the earlier searches,
the brute-force scans, the CLI parser with every subcommand built up
front, and the primes and linear models the tests draw from.  Test modules share code only through this module and never import
one another (`test_stdlib_only.py` checks both).  pytest collects no test
from it: its name does not match `test_*.py`.
"""

import argparse
import bisect
import cmath
import functools
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from equibundle import congruence
from equibundle._poly import cleared
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
)
from equibundle.cli import (
    _EXPAND,
    MAX_ORDER,
    _cmd_check,
    _cmd_dimension,
    _cmd_expand,
    _cmd_search,
    _cmd_solve,
    _cmd_sum,
    _int_in,
    _prime,
)
from equibundle.congruence import (
    NotSolvable,
    RelationRecord,
    _point_classes,
    boundary_chern_data,
    check_rotation_relations,
    solve_theorem_a,
    theorem_a_condition,
)
from equibundle.cyclotomic import (
    CycloNum,
    _boundary,
    _check,
    _four_sin2,
    _point,
    _reduce,
    _sphere,
    _term,
    _twist,
    eval_point_term,
    eval_sphere_term,
    galois_sum,
    sin2_term,
)
from equibundle.exact_arith import is_prime, rational_mod, signed_rep
from equibundle.series import (
    PowerSeries,
    _powers,
    expand_boundary_term,
    expand_point_term,
    expand_sphere_term,
    expand_su2_point_term,
    expand_su2_sphere_term,
)

# -- shared data: the checkout, primes and the fixed linear models ------------

ROOT = Path(__file__).resolve().parents[1]
SMALL_PRIMES = [3, 5, 7, 11, 13]


def src_env():
    """This process's environment with the package sources first on
    PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def primes(lo, hi):
    """The primes p with lo <= p <= hi, in increasing order."""
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def fixed_models(p):
    """The linear models with fixed weights at an odd prime p, in a fixed
    order: three at every p, two more from p = 5 and two more from p = 7.
    A caller that wants fewer takes a prefix, so it sees the same actions
    at every p."""
    out = [linear_cp2(p, 1, 0), linear_cp2_bar(p, 1), linear_s4(p, 1, 2)]
    if p > 3:
        out += [linear_cp2(p, 1, 2), linear_cp2_bar(p, 2)]
    if p > 5:
        out += [linear_cp2(p, 2, 5), linear_s4(p, 2, 3)]
    return out


def replace(record, **changes):
    """The record with `changes` to its fields, built by its constructor,
    which checks and canonicalizes them again."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def connected_sums(x, y):
    """Every connected sum of x and y that glues: at each pair of points,
    then at each pair of spheres, in index order."""
    sums = []
    for i, j in itertools.product(range(len(x.points)), range(len(y.points))):
        try:
            sums.append(connected_sum_points(x, i, y, j))
        except ValueError:
            pass
    for i, j in itertools.product(range(len(x.spheres)), range(len(y.spheres))):
        try:
            sums.append(connected_sum_spheres(x, i, y, j))
        except ValueError:
            pass
    return sums


# -- elements of Q(zeta_p) built as the package builds them -------------------


def _cyclo(p: int, coeffs) -> CycloNum:
    """sum_i coeffs[i] * zeta^i for at most p - 1 rationals: the package
    builds elements only from terms, so the tests build theirs through
    `_reduce` too."""
    num, den = cleared([Fraction(c) for c in coeffs])
    return _reduce(p, num, den)


def zeta_pow(p: int, e: int) -> CycloNum:
    """zeta^e as a canonical field element."""
    return _term(p, [(e, 1)], (), 0)


# -- the field trace and the twisted boundary term, which the rho oracles
# below read; the package computes neither -----------------------------------


def field_trace(x: CycloNum) -> Fraction:
    """Trace of x from Q(zeta_p) down to Q: the sum of its p-1 Galois
    conjugates sigma_k(x), k = 1..p-1, where sigma_k sends zeta to zeta^k.

    Tr(1) = p-1 and Tr(zeta^i) = -1 for 0 < i < p, so over the power
    basis Tr(x) = p*c_0 - (c_0 + ... + c_(p-2)).  At p = 2 the field
    is Q and the trace is the identity.
    """
    return Fraction(x.p * x.num[0] - sum(x.num), x.den)


def sin_cot_term(p: int, l: int, c: int) -> CycloNum:
    """(zeta^l - zeta^(-l))(zeta^c + 1) / (2(zeta^c - 1)), the boundary
    term of degree 1 twisted by zeta^l - zeta^(-l), over 4.

    Embeds to sin(2*pi*l/p) * cot(pi*c/p); the two imaginary factors
    cancel, so the value is real under every embedding.  p and c are
    checked as the package's term builders check them.
    """
    _check(p, 1, c)
    return _term(p, *_twist(_boundary(c, 1), [(l, 1), (-l, -1)]), 4)


def embed_complex(x: CycloNum, k: int = 1) -> complex:
    """Numeric value at zeta = exp(2*pi*i*k/p), the float oracle."""
    w = 2.0 * math.pi * k / x.p
    return sum(float(c) * cmath.exp(1j * w * i) for i, c in enumerate(x.coeffs))


# -- oracle: inverse by the extended Euclidean algorithm in Q[t] ---------


def _pdeg(f: list[Fraction]) -> int:
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def _pdivmod(f: list[Fraction], g: list[Fraction]):
    dg = _pdeg(g)
    r = list(f)
    q = [Fraction(0)] * max(len(f) - dg, 1)
    lead = g[dg]
    for i in range(_pdeg(r), dg - 1, -1):
        if r[i] == 0:
            continue
        c = r[i] / lead
        q[i - dg] = c
        for j in range(dg + 1):
            r[i - dg + j] -= c * g[j]
    return q, r


def _pmul(f, g):
    out = [Fraction(0)] * (max(_pdeg(f), 0) + max(_pdeg(g), 0) + 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] += a * b
    return out


def _psub(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else Fraction(0)) - (g[i] if i < len(g) else Fraction(0)) for i in range(n)]


def _from_exponents(p: int, raw: list) -> CycloNum:
    """Reduce an arbitrary-degree coefficient list into canonical form."""
    folded = [Fraction(0)] * p
    for i, v in enumerate(raw):
        folded[i % p] += v
    top = folded[p - 1]
    return _cyclo(p, tuple(folded[i] - top for i in range(p - 1)))


def cyclo_inv(x: CycloNum) -> CycloNum:
    """Multiplicative inverse via the extended Euclidean algorithm on
    representatives in Q[t] against Phi_p.

    Phi_p is irreducible over Q, so any nonzero x of degree < p-1 is
    coprime to it and the last nonzero remainder is a constant.
    """
    if not any(x.num):
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    p = x.p
    phi = [Fraction(1)] * p
    r0, r1 = phi, list(x.coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]  # invariant: r_i == s_i * x mod Phi_p
    while _pdeg(r1) > 0:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    c = r1[_pdeg(r1)]
    return _from_exponents(p, [si / c for si in s1])


# -- oracle: Fraction-coefficient arithmetic and three-factor terms ------


def _oracle_add(x: CycloNum, y: CycloNum) -> CycloNum:
    return _cyclo(x.p, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def _oracle_sub(x: CycloNum, y: CycloNum) -> CycloNum:
    return _cyclo(x.p, tuple(a - b for a, b in zip(x.coeffs, y.coeffs)))


def _oracle_mul(x: CycloNum, y) -> CycloNum:
    if isinstance(y, (int, Fraction)):
        return _cyclo(x.p, tuple(c * y for c in x.coeffs))
    return _from_exponents(x.p, _pmul(list(x.coeffs), list(y.coeffs)))


def _oracle_zeta(p: int, e: int) -> CycloNum:
    return _from_exponents(p, [Fraction(0)] * (e % p) + [Fraction(1)])


def _oracle_inv(p: int, e: int) -> CycloNum:
    return cyclo_inv(_oracle_sub(_oracle_zeta(p, e), _cyclo(p, [1])))


def _oracle_point(p: int, ea: int, eb: int) -> CycloNum:
    """(zeta^a + 1)(zeta^b + 1) * inv(a) * inv(b), inv(e) = 1/(zeta^e - 1)."""
    one = _cyclo(p, [1])
    num = _oracle_mul(_oracle_add(_oracle_zeta(p, ea), one), _oracle_add(_oracle_zeta(p, eb), one))
    return _oracle_mul(_oracle_mul(num, _oracle_inv(p, ea)), _oracle_inv(p, eb))


def _oracle_sphere(p: int, ec: int, alpha: int) -> CycloNum:
    """-4 * alpha * zeta^c * inv(c)^2."""
    inv = _oracle_inv(p, ec)
    return _oracle_mul(_oracle_mul(_oracle_mul(_oracle_zeta(p, ec), inv), inv), -4 * alpha)


def _oracle_sin_cot(p: int, l: int, c: int) -> CycloNum:
    """(zeta^l - zeta^-l) * (zeta^c + 1) * inv(c) / 2."""
    diff = _oracle_sub(_oracle_zeta(p, l), _oracle_zeta(p, -l))
    cot_num = _oracle_add(_oracle_zeta(p, c), _cyclo(p, [1]))
    return _oracle_mul(_oracle_mul(_oracle_mul(diff, cot_num), _oracle_inv(p, c)), Fraction(1, 2))


# -- oracle at large p: Dedekind sums (Rademacher-Grosswald, 1972) ---------


def _dedekind(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) for gcd(h, k) = 1, with the
    sawtooth ((x)) = x - floor(x) - 1/2 (no hr/k is an integer)."""
    return Fraction(sum((2 * r - k) * (2 * (h * r % k) - k) for r in range(1, k)), 4 * k * k)


def _sawtooth(x):
    """((x)) = x - floor(x) - 1/2, and 0 at an integer."""
    if x.denominator == 1:
        return Fraction(0)
    return x - x.numerator // x.denominator - Fraction(1, 2)


# -- the G-signature summed in Q(zeta_p) --------------------------------------


def _gsign_in_the_field(action, k):
    """The oracle: every fixed-point term a CycloNum, summed in Q(zeta_p),
    after p and k are checked once, as for an action with no components."""
    _check(action.p, k)
    terms = [eval_point_term(action.p, k, pt.a, pt.b) for pt in action.points]
    terms += [eval_sphere_term(action.p, k, s.c, s.alpha) for s in action.spheres]
    if not terms:
        return Fraction(0)
    return functools.reduce(operator.add, terms).rational_part()


# -- oracles: the p-fold sums, one field evaluation per group power k ------


def _rho_lens_p_fold(p, a, b, ell):
    return Fraction(-2, p) * galois_sum(
        p, lambda k: eval_point_term(p, k, a, b) * sin2_term(p, k * ell)
    )


def _rho_surface_p_fold(p, c, ell, alpha, m):
    part1 = Fraction(2, p) * galois_sum(
        p, lambda k: eval_sphere_term(p, k, c, alpha) * sin2_term(p, k * ell)
    )
    part2 = Fraction(-4 * m, p) * galois_sum(p, lambda k: sin_cot_term(p, k * ell, k * c))
    return part1 + part2


# -- oracles: the trace of one Q(zeta_p) evaluation, the k = 1 summand ------


def _rho_lens_trace(p, a, b, ell):
    if ell % p == 0:
        return Fraction(0)
    return Fraction(-1, 2 * p) * field_trace(_term(p, *_twist(_point(a, b), _four_sin2(ell))))


def _rho_surface_trace(p, c, ell, alpha, m):
    if ell % p == 0:
        return Fraction(0)
    sphere = field_trace(_term(p, *_twist(_sphere(c, alpha), _four_sin2(ell))))
    return Fraction(1, 2 * p) * sphere - Fraction(4 * m, p) * field_trace(sin_cot_term(p, ell, c))


# -- oracles: the trigonometric sums that define the rho invariants, in floats


def _angle(p, r):
    """pi * r / p with r reduced mod p, so it is exact to about eps * pi;
    cot, csc^2 and sin^2 have period pi, so no term changes."""
    return math.pi * (r % p) / p


def _cot_at(p, r):
    return 1 / math.tan(_angle(p, r))


def _float_sum(p, parts):
    """(sum_j w_j * sum(terms_j), tolerance) for parts = [(w_j, terms_j)].

    The terms x_k are cot, csc^2 and sin^2 products at angles pi*r/p,
    0 < r < p.  Each angle is exact to about eps * pi, a relative error
    of about eps * p in sin near r = p - 1: p is the condition number of
    each factor.  So each x_k is off by a few eps * p * |x_k|, and
    summing adds at most p * eps * S, S = sum_j |w_j| sum_k |x_k|.  The
    tolerance is max(1e-9, 4 * eps * p * S); sampled errors up to
    p = 100003 stayed below 0.5 * eps * p * S.
    """
    approx = scale = 0.0
    for w, terms in parts:
        approx += w * sum(terms)
        scale += abs(w) * sum(map(abs, terms))
    return approx, max(1e-9, 4 * sys.float_info.epsilon * p * scale)


def _rho_lens_float(p, a, b, ell):
    """(2/p) sum_k cot(pi a k/p) cot(pi b k/p) sin^2(pi k ell/p), with its tolerance."""
    terms = [
        _cot_at(p, a * k) * _cot_at(p, b * k) * math.sin(_angle(p, k * ell)) ** 2
        for k in range(1, p)
    ]
    return _float_sum(p, [(2.0 / p, terms)])


def _rho_surface_float(p, c, ell, alpha, m):
    """(2 alpha/p) sum_k csc^2(pi c k/p) sin^2(pi k ell/p)
    - (4m/p) sum_k sin(2 pi k ell/p) cot(pi c k/p), with its tolerance."""
    ks = range(1, p)
    csc2 = [(math.sin(_angle(p, k * ell)) / math.sin(_angle(p, c * k))) ** 2 for k in ks]
    cot = [math.sin(2 * _angle(p, k * ell)) * _cot_at(p, c * k) for k in ks]
    return _float_sum(p, [(2.0 * alpha / p, csc2), (-4.0 * m / p, cot)])


def _matches_float(exact, oracle):
    approx, tol = oracle
    return abs(float(exact) - approx) < tol


# -- the SU(2) weights of the dimension ---------------------------------------


def _fold(iso, p):
    """Every ell into [0, p/2], a sphere's m flipping sign with its ell:
    the fold the dimension applied before it read each weight as given."""
    points = tuple(abs(signed_rep(e, p)) for e in iso.ell_points)
    spheres = [(signed_rep(e, p), m) for e, m in zip(iso.ell_spheres, iso.m_spheres)]
    ells = tuple(abs(e) for e, _ in spheres)
    return Su2Isotropy(points, ells, tuple(-m if e < 0 else m for e, m in spheres), iso.c2)


def adjoint_record(iso):
    """The record `dim_invariant_moduli` reads for the fiber record `iso`
    that `check_su2` reads: the adjoint weight is twice the fiber weight,
    and m and c2 are kept."""
    return Su2Isotropy(
        tuple(2 * e for e in iso.ell_points),
        tuple(2 * e for e in iso.ell_spheres),
        iso.m_spheres,
        iso.c2,
    )


# -- the power series over Q, from the binomial engine alone ------------------


def _add(x, y):
    """Coefficientwise sum of two series of one order."""
    return PowerSeries(tuple(u + v for u, v in zip(x.coeffs, y.coeffs)), x.order)


def expand_binomial_power(exponent, order):
    """(1 + s)^exponent for any integer exponent, from the binomial engine alone."""
    return PowerSeries(tuple(_powers([(exponent, 1)], order + 1)), order)


def _t_power_minus_one(e, order):
    return _add(expand_binomial_power(e, order), PowerSeries((-1,), order))


# -- the division by the unit series of a negative rotation number -------
# `series` rewrites u_r = -t^r * u_|r| for r < 0 and divides only by the
# polynomial u_|r|.  This oracle divides by the full unit series
# u_r = sum_j C(r, j+1) s^j instead, infinite when r < 0, over Q.


def _binom(e, j):
    """C(e, j) for any integer e."""
    num = 1
    for i in range(j):
        num *= e - i
    return Fraction(num, factorial(j))


def _oracle_expand(terms, order):
    n = order + 1
    total = [Fraction(0)] * n
    for num, units, k in terms:
        x = [sum(c * _binom(e, j) for e, c in num) for j in range(n)]
        for r in units:
            y = [_binom(r, j + 1) for j in range(n)]
            q = []
            for i in range(n):
                q.append((x[i] - sum(y[j] * q[i - j] for j in range(1, i + 1))) / y[0])
            x = q
        for j in range(2 - k, n):
            total[j] += x[j - 2 + k]
    return total


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


def _field_mod_p(x):
    # a p-integral element of Q(zeta_p) reduced mod p, in the basis of zeta powers
    inv = pow(x.den, -1, x.p)
    return [c * inv % x.p for c in x.num]


def _binomial_sums(p, v):
    # sum_m v_m * C(m, k) mod p, row by row of Pascal's triangle
    out, row = [0] * len(v), [1]
    for x in v:
        for k, c in enumerate(row):
            out[k] += x * c
        row = [1] + [(u + w) % p for u, w in zip(row, row[1:])] + [1]
    return [y % p for y in out]


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


def _series_records_by_gf(p, terms, s2_target):
    n = min(2, p - 2)
    required = [0, 0, s2_target % p][: n + 1]
    return [
        RelationRecord(f"series_order_{k}", x, y, x == y)
        for k, (x, y) in enumerate(zip(_gf_expand(p, terms, n), required))
    ]


# -- the searches that the residue lookup replaced ----------------------------


def _search_by_filtering(p, n_points, n_spheres, sphere_alphas, sign, euler, b2):
    """The filter-then-battery search: every multiset of point classes
    times every sphere choice, relation 1 as a prefilter, then the full
    `check_rotation_relations` battery on each survivor."""
    classes = _point_classes(p)
    sphere_choices = list(_sphere_choices(p, sphere_alphas))
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


def _point_class(p, a, b):
    pt = IsolatedPoint(p, a, b)
    return pt.a, pt.b


def _sphere_choices(p, sphere_alphas):
    """Each distinct assignment of weights 1..(p-1)/2 to the spheres, the
    first of its multiset in product order."""
    weights = range(1, (p - 1) // 2 + 1)
    seen = set()
    for ws in itertools.product(weights, repeat=len(sphere_alphas)):
        key = tuple(sorted(zip(ws, sphere_alphas)))
        if key in seen:
            continue
        seen.add(key)
        yield ws


def _sphere_choices_with_vectors(p, sphere_alphas):
    """`_sphere_choices` with the summed vector of each choice's spheres:
    the eager sphere choices that the residue-only ones replaced."""
    for ws in _sphere_choices(p, sphere_alphas):
        vecs = [congruence._sphere_vector(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
        yield ws, congruence._vector_sum(p, vecs)


def _search_by_relation_1(p, n_points, n_spheres, sphere_alphas, sign, euler, b2):
    """The search that reads the last point from a bucket keyed by its
    relation-1 residue and adds a partial vector for every prefix: the
    O(p)-per-prefix search that the residue lookup replaced."""
    _point_classes, _point_vector = congruence._point_classes, congruence._point_vector
    _rotation_target = congruence._rotation_target
    _vector_sum = congruence._vector_sum
    classes = _point_classes(p)
    target = _rotation_target(p, sign)
    # what the points must sum to, for each sphere choice
    choices = [
        (ws, [(t - v) % p for t, v in zip(target, vec)])
        for ws, vec in _sphere_choices_with_vectors(p, sphere_alphas)
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
                partial = _vector_sum(p, [vectors[i] for i in prefix])
            last = [(x - y) % p for x, y in zip(need, partial)]
            hits += [(j, k) for j in bucket[start:] if vectors[j] == last]
        hits.sort()
        for j, k in hits:
            yield action((*prefix, j), choices[k][0])


def _search_by_prefix(p, n_points, n_spheres, sphere_alphas, sign, euler, b2):
    """The search that walks every prefix: one residue lookup for each
    multiset of all but the last point and each sphere choice, with no
    use of the orbits of g -> g^u, which the search now walks one
    member of."""
    _rotation_target, _sphere_choices = congruence._rotation_target, congruence._sphere_choices
    _point_relations, _sphere_relations = congruence._point_relations, congruence._sphere_relations
    _point_vector, _sphere_vector = congruence._point_vector, congruence._sphere_vector
    _vector_sum = congruence._vector_sum
    target = _rotation_target(p, sign)
    choices = list(_sphere_choices(p, sphere_alphas))
    needs = []  # the four relation residues the points must sum to, per sphere choice
    for ws in choices:
        spheres = [_sphere_relations(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
        needs.append(tuple((t - sum(col)) % p for t, *col in zip(target[:4], *spheres)))
    classes = _point_classes(p) if n_points else []

    @functools.cache
    def vector(build, *component):
        """The vector of a point class or sphere, built on its first hit."""
        return build(p, *component)

    def accepted(hits):
        """The actions of the hits (point indices, choice index), in order,
        whose components' vectors sum to the target."""
        for idx, k in sorted(hits):
            ws = choices[k]
            vecs = [vector(_point_vector, *classes[i]) for i in idx]
            vecs += [vector(_sphere_vector, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
            if _vector_sum(p, vecs) == target:
                yield GroupAction(
                    p,
                    tuple(IsolatedPoint(p, *classes[i]) for i in idx),
                    tuple(FixedSphere(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)),
                    sign,
                    euler,
                    b2,
                )

    if n_points == 0:
        yield from accepted(((), k) for k, need in enumerate(needs) if not any(need))
        return
    rels = [_point_relations(p, a, b) for a, b in classes]
    last_class = {rel: j for j, rel in enumerate(rels)}
    if n_points == 1:
        hits = [((last_class[need],), k) for k, need in enumerate(needs) if need in last_class]
        yield from accepted(hits)
        return
    # each prefix is a head of n_points - 2 classes and then a tail class
    m = len(classes)
    for head in itertools.combinations_with_replacement(range(m), n_points - 2):
        h = [sum(col) for col in zip((0, 0, 0, 0), *(rels[i] for i in head))]
        rest = [[x - y for x, y in zip(need, h)] for need in needs]
        for i in range(head[-1] if head else 0, m):
            r1, r2, r3, r4 = rels[i]
            hits = []
            for k, (n1, n2, n3, n4) in enumerate(rest):
                j = last_class.get(((n1 - r1) % p, (n2 - r2) % p, (n3 - r3) % p, (n4 - r4) % p))
                if j is not None and j >= i:
                    hits.append(((*head, i, j), k))
            if hits:
                yield from accepted(hits)


# -- the solver and the boundary data against a scan of every residue ---------


def _solve_by_scan():
    """`solve_theorem_a` on one point and one sphere at p = 3 and 5, each
    slot kind left free in turn, against a scan of all its residues: the
    solved value is a witness, the only one when there is one, and a
    record with no witness raises NotSolvable."""
    for p in (3, 5):
        for a, b, c in itertools.product(range(1, p), repeat=3):
            for alpha in (1, -1, p, -2):
                act = GroupAction(p, (IsolatedPoint(p, a, b),), (FixedSphere(p, c, alpha),), 0, 5, 3)
                for kind, blank in [
                    ("lambda", LineIsotropy((None,), (1,), (1,))),
                    ("lambda_sphere", LineIsotropy((1,), (None,), (1,))),
                    ("m", LineIsotropy((1,), (1,), (None,))),
                ]:
                    witnesses = [
                        v for v in range(p) if theorem_a_condition(act, blank.with_slot(kind, 0, v)).ok
                    ]
                    if not witnesses:
                        with pytest.raises(NotSolvable):
                            solve_theorem_a(act, blank)
                        continue
                    got = solve_theorem_a(act, blank)
                    value = {
                        "lambda": got.lambda_points[0],
                        "lambda_sphere": got.lambda_spheres[0],
                        "m": got.m_spheres[0],
                    }[kind]
                    assert value % p in witnesses
                    if len(witnesses) == 1:
                        assert value % p == witnesses[0]


def _solver_round_trips(rng, pool):
    """200 random line records on actions drawn from `pool(p, rng)`, each
    with one random slot left free: every record the solver completes
    satisfies the condition, and an unsolvable one is skipped."""
    done = 0
    while done < 200:
        p = rng.choice(SMALL_PRIMES)
        act = rng.choice(pool(p, rng))
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
        try:
            completed = solve_theorem_a(act, iso.with_slot(kind, idx, None))
        except NotSolvable:
            continue
        assert theorem_a_condition(act, completed).ok
        done += 1


def _boundary_data_by_scan(sphere):
    """`boundary_chern_data` of the sphere for every fiber weight mod p and
    every m below |alpha| without its p-part: the modulus is p|alpha|,
    and both congruences of the gluing data hold."""
    p, alpha = sphere.p, sphere.alpha
    abar = abs(alpha)
    e = 0
    while abar % p == 0:
        abar //= p
        e += 1
    for lam in range(p):
        for m in range(abar):
            r = boundary_chern_data(sphere, lam, m)
            assert r.modulus == p * abs(alpha)
            assert (r.value + lam * alpha) % p ** (e + 1) == 0
            if abar > 1:
                assert (r.value - sphere.c * m) % abar == 0


# -- stand-ins that count or refuse the calls of a package function -----------


def _count_calls(monkeypatch, name, modules):
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            original = getattr(mod, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


def _forbidden(message):
    """A stand-in that fails the test with `message` when it is called."""

    def call(*args, **kwargs):
        raise AssertionError(message)

    return call


# -- the --machine report line ------------------------------------------------


def _reference_report_line(mode, ok, records) -> str:
    """The report line as one json.dumps of per-record dicts."""
    rows = [
        {"name": r.name, "lhs": str(r.lhs), "required": str(r.required), "passed": r.passed}
        for r in records
    ]
    return json.dumps({"mode": mode, "ok": ok, "records": rows}, sort_keys=True)


# -- the CLI parser, every subcommand built up front ---------------------------


def _build_parser_eagerly() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand's arguments added up front, as
    `cli._build_parser` built it before it added them per parse."""
    parser = argparse.ArgumentParser(
        prog="equibundle",
        description="Congruence checks, bundle solvers and equivariant moduli dimensions "
        "for cyclic actions on four-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine(p):
        p.add_argument("--machine", action="store_true", help="emit one JSON object")

    p_check = sub.add_parser("check", help="run a congruence battery on a document")
    p_check.add_argument("file", help="document path, or - for stdin")
    p_check.add_argument(
        "--mode",
        choices=["rotation", "line", "su2", "gsign"],
        default="rotation",
        help="which relation family to check",
    )
    add_machine(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_solve = sub.add_parser("solve", help="complete an isotropy record with one unknown")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--free",
        help="slot to solve for: lambda[i], lambda_sphere[j] or m[j]; "
        "defaults to the single null slot in the document",
    )
    add_machine(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_dim = sub.add_parser("dimension", help="invariant instanton moduli dimension")
    p_dim.add_argument("file")
    add_machine(p_dim)
    p_dim.set_defaults(handler=_cmd_dimension)

    p_exp = sub.add_parser("expand", help="print exact expansion coefficients of one term")
    p_exp.add_argument(
        "--kind",
        required=True,
        choices=sorted(_EXPAND),
    )
    for flag in ("a", "b", "c", "alpha"):
        p_exp.add_argument(f"--{flag}", type=int, default=None)
    for flag in ("m", "ell", "lam"):  # a twist or degree left out is 0
        p_exp.add_argument(f"--{flag}", type=int, default=0)
    p_exp.add_argument("--order", type=_int_in(0, MAX_ORDER), default=4)
    p_exp.add_argument("--p", type=_prime, default=None, help="also print mod-p reductions")
    add_machine(p_exp)
    p_exp.set_defaults(handler=_cmd_expand)

    p_gsign = sub.add_parser("gsign", help="exact equivariant signatures of all powers")
    p_gsign.add_argument("file")
    add_machine(p_gsign)
    p_gsign.set_defaults(handler=_cmd_check, mode="gsign")

    p_sum = sub.add_parser("sum", help="equivariant connected sum of two documents")
    p_sum.add_argument("file_a")
    p_sum.add_argument("file_b")
    p_sum.add_argument("--points", nargs=2, type=int, metavar=("I", "J"))
    p_sum.add_argument("--spheres", nargs=2, type=int, metavar=("I", "J"))
    add_machine(p_sum)
    p_sum.set_defaults(handler=_cmd_sum)

    p_search = sub.add_parser("search", help="enumerate realizable rotation data")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument(
        "--points", type=_int_in(0), required=True, help="number of isolated points"
    )
    p_search.add_argument(
        "--spheres", type=_int_in(0), default=0, help="number of fixed spheres"
    )
    p_search.add_argument(
        "--alphas", default="", help="comma-separated self-intersections, one per sphere"
    )
    p_search.add_argument("--sign", type=int, required=True)
    p_search.add_argument("--euler", type=int, required=True)
    p_search.add_argument("--b2", type=_int_in(0), required=True)
    p_search.add_argument("--limit", type=_int_in(0), default=None)
    add_machine(p_search)
    p_search.set_defaults(handler=_cmd_search)

    return parser
