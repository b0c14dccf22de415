"""Congruence checks and solvers for rotation data and bundle isotropy.

The G-signature check reads the fixed-point signature sum exactly off
the integral windows of `cyclotomic`, one per fixed component, and
builds elements of Q(zeta_p) only to name an irrational value.  The
rotation battery and the search read the same windows mod p, as
elements of Z[zeta]/p = F_p[t]/Phi_p(t) in the basis of zeta powers,
at O(p) cost per fixed component.  The bundle checks read the
order-2 expansion of their twisted terms off the relation and weight
sums in closed form.  An action's p is prime and its rotation numbers
are units mod p, since `GroupAction`, `IsolatedPoint` and `FixedSphere`
refuse anything else when they are built; the checks and the solver
refuse only p = 2.  The search takes a bare p and checks that it is an
odd prime.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd

from .action_model import (
    FixedSphere,
    GroupAction,
    InconsistentCounts,
    IsolatedPoint,
    LineIsotropy,
    Su2Isotropy,
    _count_rule,
    _point_class,
    _weight_class,
)
from .cyclotomic import (
    _over_units,
    _point,
    _sphere,
    _term,
    eval_point_term,  # noqa: F401 (kept importable here for perfbench)
)
from .exact_arith import Rational, Residue, crt_solve, is_prime, signed_rep

__all__ = [
    "CongruenceReport",
    "RelationRecord",
    "NotSolvable",
    "Underdetermined",
    "Overdetermined",
    "MissingChernSquare",
    "ZeroSelfIntersection",
    "NotCoprimeRotation",
    "gsign_value",
    "gsignature_check",
    "check_rotation_relations",
    "theorem_a_condition",
    "solve_theorem_a",
    "check_line_bundle",
    "check_su2",
    "linking_form",
    "flat_chern_class",
    "boundary_chern_data",
    "search_realizable",
]


class NotSolvable(ArithmeticError):
    """The single free unknown has zero coefficient and nonzero residual."""


class Underdetermined(ValueError):
    """More free slots than the operation can handle."""


class Overdetermined(ValueError):
    """A solve was requested but no slot is free."""


class MissingChernSquare(ValueError):
    """The quadratic relation needs c1_squared in the isotropy record."""


class ZeroSelfIntersection(ValueError):
    """Boundary Chern data needs alpha != 0."""


class NotCoprimeRotation(ValueError):
    """A residue that must be coprime to the modulus is not."""


RelationRecord = namedtuple("RelationRecord", ("name", "lhs", "required", "passed"))
RelationRecord.display = lambda self: "".join(_display_template(*self))


_CHUNK = 4096  # records per piece of written output


class CongruenceReport:
    """Named relations lhs == required, each with its verdict `passed`.

    `CongruenceReport(records)` takes RelationRecords, and `records`
    gives them back as a tuple.  Inside, the report is held as columns:
    `_names` is a tuple of name blocks (prefix, indices), the records
    prefix + str(k) for k in `indices`; a record named outright is the
    block (name, ("",)).  `_lhs`, `_required` and `_passed` hold one
    entry per record, in order.  A value that many records share is one
    object repeated, so `gsignature_check` and `check_rotation_relations`
    build no record and no name, and the writers format each run of
    records that share their value objects once, as one template around
    its indices (see `_pieces`).
    """

    __slots__ = ("_names", "_lhs", "_required", "_passed")

    def __init__(self, records: tuple[RelationRecord, ...]):
        records = tuple(records)
        names, lhs, required, passed = zip(*records) if records else ((),) * 4
        self._names = tuple((name, ("",)) for name in names)
        self._lhs, self._required, self._passed = lhs, required, passed

    @classmethod
    def _columns(
        cls, names: tuple, lhs: Sequence, required: Sequence, passed: Sequence
    ) -> CongruenceReport:
        """The report of the name blocks `names` and the value columns."""
        report = cls.__new__(cls)
        report._names = names
        report._lhs, report._required, report._passed = lhs, required, passed
        return report

    def _records(self) -> Iterator[RelationRecord]:
        names = itertools.chain.from_iterable(
            map(prefix.__add__, map(str, indices)) for prefix, indices in self._names
        )
        return map(RelationRecord._make, zip(names, self._lhs, self._required, self._passed))

    @property
    def records(self) -> tuple[RelationRecord, ...]:
        return tuple(self._records())

    @property
    def ok(self) -> bool:
        return all(self._passed)

    def failures(self) -> list[RelationRecord]:
        return list(itertools.compress(self._records(), map(operator.not_, self._passed)))

    def display(self) -> str:
        return "".join(self._pieces(_display_template, "\n"))

    def __eq__(self, other):
        if not isinstance(other, CongruenceReport):
            return NotImplemented
        return self.records == other.records

    def __hash__(self):
        return hash(self.records)

    def __repr__(self) -> str:
        return f"CongruenceReport(records={self.records!r})"

    def _pieces(self, template, sep: str) -> Iterator[str]:
        """The records, joined by `sep`, in pieces of about `_CHUNK` records
        whose concatenation is the whole text.

        The records are walked in runs: records of one name block that
        share their three value objects, at most `_CHUNK` of them.  Objects
        are matched by `is`, never by ==: 0, 0.0, -0.0, False and
        Fraction(0) are equal but print apart.  `template(name, lhs,
        required, passed)` gives a record's text split after its name, as
        (head, tail), and is called once per run.  A longer run passes the
        block's prefix as the name; its records k are head + str(k) + tail,
        so it is written as head + (tail + sep + head).join(map(str, ks))
        + tail.  A run of one record passes its whole name.
        """
        lhs, required, passed = self._lhs, self._required, self._passed
        buf, size, lead, i = [], 0, "", 0
        for prefix, indices in self._names:
            first, stop = i, i + len(indices)
            while i < stop:
                start, a, b, c = i, lhs[i], required[i], passed[i]
                i += 1
                if i < stop and lhs[i] is a and required[i] is b and passed[i] is c:
                    end = min(stop, start + _CHUNK)
                    while i < end and lhs[i] is a and required[i] is b and passed[i] is c:
                        i += 1
                    head, tail = template(prefix, a, b, c)
                    ks = map(str, indices[start - first : i - first])
                    buf.append(head + (tail + sep + head).join(ks) + tail)
                else:  # a run of one record
                    name = f"{prefix}{indices[start - first]}"
                    buf.append("".join(template(name, a, b, c)))
                size += i - start
                if size >= _CHUNK:
                    yield lead + sep.join(buf)
                    buf, size, lead = [], 0, sep
        if buf:
            yield lead + sep.join(buf)


def _display_template(name: str, lhs, required, passed) -> tuple[str, str]:
    """A record's text split after its name; `RelationRecord.display` joins it."""
    verdict = "pass" if passed else "FAIL"
    return name, f": {lhs} == {required}  [{verdict}]"


def _require_odd(p: int, prime: bool = True) -> None:
    """Refuse p = 2, and a p that is not `prime`.  An action's p is prime
    by construction; only the search, which takes a bare p, tests it."""
    if p == 2 or not prime:
        raise ValueError(f"congruence checks need an odd prime, got p = {p}")


# -- exact signature sums ------------------------------------------------


def gsign_value(action: GroupAction) -> Rational:
    """Exact equivariant signature of the generator, summed from fixed
    point data.  p is prime and the rotations are units by construction
    (`GroupAction`), so nothing is checked here; an action with no fixed
    component gives 0.

    The value at a power g^k is sigma_k (zeta -> zeta^k) of this one,
    and sigma_k maps a rational to itself and an irrational value to an
    irrational one, so the generator's value answers for every power.

    Every point and sphere term has pole order 2, so the sum is
    S(zeta)/(zeta - 1)^2, S the sum of their integral windows
    (`cyclotomic._over_units`): O(p) integer operations per component.
    It is a rational r exactly when S - r*(t - 1)^2 has p equal
    coefficients, and r is read off S.  Otherwise S(zeta)/(zeta - 1)^2
    is evaluated once in Q(zeta_p), and NotRational names its zeta part.
    """
    p = action.p
    terms = [_point(pt.a, pt.b) for pt in action.points]
    terms += [_sphere(s.c, s.alpha) for s in action.spheres]
    if not terms:
        return Fraction(0)
    windows = (_over_units(p, num, units) for num, units, _ in terms)
    total = functools.reduce(_add_lists, windows)
    value = _over_zeta_minus_one_squared(total)
    if value is not None:
        return value
    return _term(p, list(enumerate(total)), (), 2).rational_part()


def _add_lists(x: list[int], y: list[int]) -> list[int]:
    return list(map(operator.add, x, y))


def _over_zeta_minus_one_squared(v: list[int]) -> Rational | None:
    """The rational r with sum_j v_j zeta^j = r (zeta - 1)^2, p = len(v),
    or None if there is none.  Folded by t^p = 1, (t - 1)^2 is
    T = [1, -2, 1, 0, ..., 0], or [2, -2] at p = 2, and r must make
    v - r*T a multiple of Phi_p: p equal coefficients.  So
    r = (v_0 - v_1)/(T_0 - T_1), which is v_0 - v_3 for p >= 5."""
    head = (2, -2) if len(v) == 2 else (1, -2, 1)
    d, n = head[0] - head[1], v[0] - v[1]
    # v_j - r*T_j times d, for r = n/d: the same for every j
    level = d * v[0] - n * head[0]
    if any(d * x - n * t != level for x, t in zip(v, head)):
        return None
    tail = v[len(head) :]
    if tail and (level % d or tail.count(level // d) != len(tail)):
        return None
    return Fraction(n, d)


def gsignature_check(action: GroupAction) -> CongruenceReport:
    """For a homologically trivial action every equivariant signature
    equals the ordinary signature; verify this exactly for each power.

    The value at g^k is sigma_k (zeta -> zeta^k) applied to the value
    at g, and sigma_k fixes a rational, so one `gsign_value`, read from
    integers, gives every record; an irrational value raises
    NotRational there.  The p - 1 records signature_power_1 ..
    signature_power_(p-1) are held as columns that repeat the two
    values and the verdict, with no record or name built.
    """
    p = action.p
    _require_odd(p)
    want = Fraction(action.signature)
    got = gsign_value(action)
    n = p - 1
    names = (("signature_power_", range(1, p)),)
    return CongruenceReport._columns(names, [got] * n, [want] * n, [got == want] * n)


def _vector_sum(p: int, vectors: list[list[int]]) -> list[int]:
    """The summed component vectors mod p; p + 3 zeros when there are none."""
    return [sum(col) % p for col in zip(*vectors)] if vectors else [0] * (p + 3)


# -- rotation data congruences ---------------------------------------------
# Each fixed component contributes one F_p vector: its four relation
# residues, then its signature integrand times (t-1)^2 read in
# Z[zeta]/p = F_p[t]/Phi_p(t), written in the basis 1, t, ..., t^(p-2).
# The battery holds iff the vectors of all components sum to the target
# vector.  Since Phi_p(t) = (t-1)^(p-1) mod p, the same ring is
# F_p[s]/s^(p-1) with s = t - 1, and `_to_s_basis` turns a vector into
# the order-(p-2) expansion of `series`, reduced mod p.


def _residues(p: int, term) -> list[int]:
    """A point or sphere term of `cyclotomic` times (t-1)^2, in
    F_p[t]/Phi_p(t) in the basis 1, t, ..., t^(p-2): both have pole order
    2, so this is their numerator over the units, the shared window over
    Z, then t^(p-1) = -(1 + t + ... + t^(p-2)) mod p."""
    num, units, _ = term
    v = _over_units(p, num, units)
    top = v[-1]
    return [(x - top) % p for x in v[:-1]]


def _to_s_basis(p: int, v: list[int]) -> list[int]:
    """Coefficients of sum_m v_m t^m in powers of s = t - 1, mod p.

    [s^k] = sum_m C(m, k) v_m = (1/k!) sum_m (m! v_m) / (m-k)!, a
    correlation; it is read off one product of two packed integers,
    one slot per coefficient, wide enough that no slot overflows.
    """
    n = len(v)
    fact = [1] * n
    for m in range(1, n):
        fact[m] = fact[m - 1] * m % p
    inv = [1] * n
    inv[-1] = pow(fact[-1], -1, p)
    for m in range(n - 1, 0, -1):
        inv[m - 1] = inv[m] * m % p
    width = ((n * (p - 1) ** 2).bit_length() + 7) // 8  # bytes per slot
    x = b"".join((f * c % p).to_bytes(width, "little") for f, c in zip(fact, v))
    y = b"".join(i.to_bytes(width, "little") for i in reversed(inv))
    prod = int.from_bytes(x, "little") * int.from_bytes(y, "little")
    out = prod.to_bytes(2 * n * width, "little")
    # the coefficient of s^k sits in slot n - 1 + k
    return [
        int.from_bytes(out[(n - 1 + k) * width : (n + k) * width], "little") * inv[k] % p
        for k in range(n)
    ]


def _point_relations(p: int, a: int, b: int) -> tuple[int, int, int, int]:
    """The four relation residues of an isolated point (a, b)."""
    iv = pow(a * b, -1, p)
    a2, b2 = a * a, b * b
    return (
        iv % p,
        (a2 + b2) * iv % p,
        (a2 * a2 + b2 * b2 - 5 * a2 * b2) * iv % p,
        (2 * a2**3 - 7 * a2**2 * b2 - 7 * a2 * b2**2 + 2 * b2**3) * iv % p,
    )


def _point_vector(p: int, a: int, b: int) -> list[int]:
    """Relation residues and (t^a+1)(t^b+1)/(u_a u_b) of an isolated point (a, b)."""
    return [*_point_relations(p, a, b), *_residues(p, _point(a, b))]


def _sphere_relations(p: int, c: int, alpha: int) -> tuple[int, int, int, int]:
    """The four relation residues of a fixed sphere (c, alpha)."""
    c2 = c * c
    rel = (-alpha * pow(c2, -1, p), alpha, 3 * alpha * c2, 10 * alpha * c2 * c2)
    return tuple(x % p for x in rel)


def _sphere_vector(p: int, c: int, alpha: int) -> list[int]:
    """Relation residues and -4*alpha*t^c/u_c^2 of a fixed sphere (c, alpha)."""
    return [*_sphere_relations(p, c, alpha), *_residues(p, _sphere(c, alpha))]


def _rotation_target(p: int, sign: int) -> list[int]:
    """[0, 3*Sign, 0, 0] followed by Sign * s^2 = Sign * (t^2 - 2t + 1) in
    the basis of zeta powers; zero when p = 3, where t^2 = -1 - t."""
    s = sign % p
    series = [s, -2 * s % p, s] + [0] * (p - 4) if p > 3 else [0, 0]
    return [0, 3 * s % p, 0, 0] + series


def check_rotation_relations(action: GroupAction) -> CongruenceReport:
    """The four classical rotation-number congruences plus the full
    generic expansion check through order p-2.

    The expansion of the summed signature integrand times (t-1)^2 must
    reduce, mod p, to Sign(X) * s^2 and nothing else through s^(p-2):
    (t-1)^(p-1) is congruent to Phi_p(t) mod p, so higher terms are
    invisible to the congruence.  Each component's term is built in
    the zeta-power basis of Z[zeta]/p at O(p) cost, and the sum is
    compared with the target in that basis.  The change to powers of s
    is a bijection, so a sum equal to the target reads as the target's
    s coefficients; only a differing sum is turned into s coefficients,
    once, for its records.

    The report holds the summed and target lists as they are, as its
    lhs and required columns, under the names relation_1 .. relation_4
    and series_order_0 .. series_order_(p-2); a passing sum shares the
    target's objects, so its records write as a few runs.
    """
    p = action.p
    _require_odd(p)
    vectors = [_point_vector(p, pt.a, pt.b) for pt in action.points]
    vectors += [_sphere_vector(p, s.c, s.alpha) for s in action.spheres]
    total = _vector_sum(p, vectors)
    sign = action.signature % p
    # Sign * s^2 in the s basis, through s^(p-2): zero when p = 3
    target = [0, 3 * sign % p, 0, 0] + [0, 0, sign, *[0] * (p - 4)][: p - 1]
    if total[4:] == _rotation_target(p, sign)[4:]:
        total[4:] = target[4:]  # the change of basis is a bijection
    else:
        total[4:] = _to_s_basis(p, total[4:])
    names = (("relation_", range(1, 5)), ("series_order_", range(p - 1)))
    passed = list(map(operator.eq, total, target))
    return CongruenceReport._columns(names, total, target, passed)


# -- circle bundle relations -------------------------------------------------


def _weight_sum(action: GroupAction, points, spheres, ms, n: int) -> int:
    """The order-n weight relation mod p: w^n/(ab) summed over the points
    plus (n*w^(n-1)*m*c - w^n*alpha)/c^2 over the spheres."""
    p = action.p
    lhs = 0
    for pt, w in zip(action.points, points):
        lhs += w**n * pow(pt.a * pt.b, -1, p)
    for s, w, m in zip(action.spheres, spheres, ms):
        lhs += (n * w ** (n - 1) * m * s.c - w**n * s.alpha) * pow(s.c * s.c, -1, p)
    return lhs % p


def _line_lhs(action: GroupAction, iso: LineIsotropy, n: int = 1) -> int:
    return _weight_sum(action, iso.lambda_points, iso.lambda_spheres, iso.m_spheres, n)


def _series(action: GroupAction, w1: int, w2: int) -> list[int]:
    """The fixed-point terms twisted by a line character of weight sums
    w1, w2 (orders 1 and 2), summed and expanded in s = t - 1 through
    s^n, n = min(2, p-2), mod p.  Through s^2 the terms are
      point (a, b):       [4, 4(lam+1), (a^2+b^2+6lam^2+6lam+1)/3]/(ab)
      sphere (c, alpha):  -alpha [4, 4(lam+1), (6lam^2+6lam+1-c^2)/3]/c^2
      boundary (c, m):    [0, 4mc, 2mc(2lam+1)]/c^2
    so the sum is [4r1, 4(r1+w1), (r1+r2)/3 + 2w1 + 2w2], r1 and r2 the
    first two relation sums; the s^2 entry exists only when p > 3."""
    p = action.p
    rels = [_point_relations(p, pt.a, pt.b) for pt in action.points]
    rels += [_sphere_relations(p, s.c, s.alpha) for s in action.spheres]
    r1, r2 = sum(r[0] for r in rels), sum(r[1] for r in rels)
    total = [4 * r1, 4 * (r1 + w1), (r1 + r2) * pow(3, -1, p) + 2 * (w1 + w2) if p > 3 else 0]
    return [x % p for x in total[: min(2, p - 2) + 1]]


def _series_records(p: int, lhs: list[int], s2_target: int) -> list[RelationRecord]:
    """Twisted characters pin the expansion only through s^2: there it
    must be s2_target * s^2 and nothing else."""
    pairs = zip(lhs, [0, 0, s2_target % p])
    return [RelationRecord(f"series_order_{k}", x, y, x == y) for k, (x, y) in enumerate(pairs)]


def theorem_a_condition(action: GroupAction, isotropy: LineIsotropy) -> CongruenceReport:
    """The single realizability congruence for fiber weights on a
    circle bundle: sum of lambda/(ab) over points plus
    (c*m - lambda*alpha)/c^2 over spheres vanishes mod p."""
    _require_odd(action.p)
    isotropy.check_shape(action)
    if isotropy.free_slots():
        raise Underdetermined("condition check needs a fully specified isotropy record")
    lhs = _line_lhs(action, isotropy)
    rec = RelationRecord("fiber_weight_sum", lhs, 0, lhs == 0)
    return CongruenceReport((rec,))


def solve_theorem_a(action: GroupAction, partial: LineIsotropy) -> LineIsotropy:
    """Complete an isotropy record with exactly one free slot so the
    realizability congruence holds.

    The weight sum is affine in each slot, with coefficient 1/(ab),
    -alpha/c^2 or 1/c; only a sphere weight under p | alpha can
    degenerate, in which case any value works when the rest already
    balances (0 is returned) and nothing works otherwise (NotSolvable).
    """
    p = action.p
    _require_odd(p)
    partial.check_shape(action)
    slots = partial.free_slots()
    if not slots:
        raise Overdetermined("no free slot to solve for")
    if len(slots) > 1:
        raise Underdetermined(f"{len(slots)} free slots, need exactly one")
    kind, idx = slots[0]
    base = partial.with_slot(kind, idx, 0)
    residual = _line_lhs(action, base)
    coeff = (_line_lhs(action, base.with_slot(kind, idx, 1)) - residual) % p
    if coeff == 0:
        if residual == 0:
            return base  # any value satisfies the congruence; keep 0
        raise NotSolvable(
            f"slot {kind}[{idx}] has zero coefficient mod {p} and residual {residual}"
        )
    value = (-residual) * pow(coeff, -1, p) % p
    return base.with_slot(kind, idx, signed_rep(value, p))


def check_line_bundle(action: GroupAction, isotropy: LineIsotropy) -> CongruenceReport:
    """Linear and quadratic congruences for an equivariant circle
    bundle, plus the expansion check through order min(2, p-2) whose
    second-order target is Sign(X) + 2*c1^2."""
    p = action.p
    _require_odd(p)
    isotropy.check_shape(action)
    if isotropy.free_slots():
        raise Underdetermined("bundle check needs a fully specified isotropy record")
    if isotropy.c1_squared is None:
        raise MissingChernSquare("c1_squared is required for the quadratic relation")
    first, second = _line_lhs(action, isotropy), _line_lhs(action, isotropy, 2)
    records = [
        RelationRecord("first_order", first, 0, first == 0),
        RelationRecord(
            "second_order", second, isotropy.c1_squared % p, second == isotropy.c1_squared % p
        ),
    ]
    target = action.signature + 2 * isotropy.c1_squared
    records += _series_records(p, _series(action, first, second), target)
    return CongruenceReport(tuple(records))


def check_su2(action: GroupAction, isotropy: Su2Isotropy) -> CongruenceReport:
    """Quadratic congruence for an equivariant rank-two bundle with
    fiber character t^ell + t^(-ell), target -c2; the expansion check
    through order min(2, p-2) targets 2*Sign(X) - 4*c2 at order 2."""
    p = action.p
    _require_odd(p)
    isotropy.check_shape(action)
    lhs = _weight_sum(action, isotropy.ell_points, isotropy.ell_spheres, isotropy.m_spheres, 2)
    want = (-isotropy.c2) % p
    records = [RelationRecord("su2_weight_sum", lhs, want, lhs == want)]
    # two line copies (ell, m) and (-ell, -m): w1 cancels, the rest doubles
    series = [2 * x % p for x in _series(action, 0, lhs)]
    records += _series_records(p, series, 2 * action.signature - 4 * isotropy.c2)
    return CongruenceReport(tuple(records))


# -- lens space bookkeeping ---------------------------------------------------


def linking_form(n: int, a: int, b: int) -> Rational:
    """Self-linking a*b/n of the distinguished generator of the lens
    space L(n; a, b), reduced into [0, 1), for n >= 1."""
    if n < 1:
        raise ValueError(f"the lens space order must be at least 1, got {n}")
    if gcd(a, n) != 1 or gcd(b, n) != 1:
        raise NotCoprimeRotation(f"({a}, {b}) must be coprime to {n}")
    return Fraction((a * b) % n, n)


def flat_chern_class(n: int, a: int, b: int, lam: int) -> Residue:
    """Chern coefficient lambda/(ab) mod n of the flat circle bundle
    with holonomy weight lambda over L(n; a, b), for n >= 2."""
    if n < 2:
        raise ValueError(f"the lens space order must be at least 2, got {n}")
    if gcd(a * b, n) != 1:
        raise NotCoprimeRotation(f"a*b = {a * b} must be coprime to {n}")
    return Residue(lam * pow(a * b, -1, n), n)


def boundary_chern_data(sphere: FixedSphere, lam: int, m: int) -> Residue:
    """The residue class ell mod p*|alpha|, p = sphere.p (a prime by
    construction), determined by

        ell = -lam * alpha   mod p^(e+1)
        ell = c * m          mod abar

    where alpha = (sign) * p^e * abar with p not dividing abar.  The
    ratio ell/c^2 is the Chern coefficient of the induced bundle on
    the boundary lens space of the sphere's neighbourhood.
    """
    p = sphere.p
    if sphere.alpha == 0:
        raise ZeroSelfIntersection("alpha = 0 leaves no boundary congruence")
    abar = abs(sphere.alpha)
    e = 0
    while abar % p == 0:
        abar //= p
        e += 1
    r1 = (-lam * sphere.alpha) % p ** (e + 1)
    r2 = (sphere.c * m) % abar if abar > 1 else 0
    return crt_solve(r1, p ** (e + 1), r2, abar)


# -- realizability search -----------------------------------------------------


def _point_classes(p: int) -> list[tuple[int, int]]:
    """The canonical point classes, ascending: the least of (a, b), (b, a),
    (-a, -b) and (-b, -a) (see `IsolatedPoint`) is (a, b) exactly when
    a <= b and (a, b) <= (p - b, p - a), that is, when a <= b <= p - a."""
    return [(a, b) for a in range(1, p) for b in range(a, p - a + 1)]


def _sphere_choices(p: int, sphere_alphas: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct assignment of weights 1..(p-1)/2 to the spheres, in
    lexicographic order: the least tuple of each multiset of (weight,
    alpha) pairs, the one in which spheres of equal alpha take
    non-decreasing weights."""
    ties = [
        (i, j)
        for i, j in itertools.combinations(range(len(sphere_alphas)), 2)
        if sphere_alphas[i] == sphere_alphas[j]
    ]
    for ws in itertools.product(range(1, (p - 1) // 2 + 1), repeat=len(sphere_alphas)):
        if all(ws[i] <= ws[j] for i, j in ties):
            yield ws


def search_realizable(
    p: int,
    n_points: int,
    n_spheres: int,
    sphere_alphas: Sequence[int],
    sign: int,
    euler: int,
    b2: int,
) -> Iterator[GroupAction]:
    """Enumerate canonical rotation data passing every rotation-number
    congruence, in deterministic lexicographic order: point classes as
    sorted multisets, then sphere weights.

    The last point is solved for, not searched.  Of the four relation
    residues of a class, r1 = 1/(ab) and r2 = (a^2 + b^2)/(ab) already
    fix it: they give ab and a^2 + b^2, hence {a, b} up to swap and
    sign.  So one dict maps residue tuples to classes.  Each sphere
    choice keeps only the four relation residues that the points must
    sum to.  For each multiset of all but the last point (the prefix),
    its summed residues are kept as four ints, and one lookup per sphere
    choice finds the only class that can complete it, at O(1) cost per
    prefix and choice.  Only a hit builds the O(p) vectors of its
    components (see `check_rotation_relations`), each point class and
    each sphere at most once per call, and it is accepted iff their
    summed vector equals the target.  The sums are compared in the
    basis of zeta powers: the change to powers of s = t - 1 is a
    bijection, so this is exactly `check_rotation_relations(...).ok`,
    with no change of basis.  Prefixes come in lexicographic order, and
    the hits of one prefix in order of (last class, sphere choice).

    With a point, only one member of each orbit of g -> g^u is looked
    up.  Replacing the generator g by g^u, for a unit u mod p,
    multiplies every rotation number by u and keeps Sign, chi, b2 and
    each alpha, and it keeps the battery.  The relation residues are
    homogeneous in the rotation numbers, of degrees -2, 0, 2 and 4, with
    targets 0, 3*Sign, 0 and 0.  The series part under u is sigma_u of
    the same identity in Z[zeta]/p, divided by the square of the
    cyclotomic unit (zeta^u - 1)/(zeta - 1).  So the results are a
    union of orbits, and u = a^-1 takes a first point (a, b) to (1, x).
    The prefix walk therefore covers only data whose first point is a
    class (1, x), the first p - 1 classes; these results stream first,
    as they come, and a limit stops the walk as early as it would stop
    the full walk.  Then each of them is mapped by u = 2..(p-1)/2 (u
    and -u give the same classes): points to their `IsolatedPoint`
    class, sphere weights to |u*c| mod p, spheres of equal alpha
    re-sorted as in the sphere choices.  The images whose first point
    is not (1, x) are deduplicated, sorted and yielded with no vector
    sum.  With no point, every sphere choice is looked up.

    The prime and the profile are checked by the call itself, before
    the enumeration is first advanced.

    A result is promised the rotation congruences only, not an integral
    G-signature: at p = 5 the points (1, 1), (1, 1), (1, 1), (1, 3) with
    Sign 2, chi 4 and b2 2 pass the battery, and `gsign_value` raises
    NotRational on them.
    """
    _require_odd(p, is_prime(p))
    for name, count in (("points", n_points), ("spheres", n_spheres), ("b2", b2)):
        if count < 0:
            raise InconsistentCounts(f"{name} = {count} must be >= 0")
    _count_rule("search profile", n_points, n_spheres, euler, b2)
    if len(sphere_alphas) != n_spheres:
        raise InconsistentCounts(
            f"{len(sphere_alphas)} self-intersections given for {n_spheres} spheres"
        )
    return _search(p, n_points, sphere_alphas, sign, euler, b2)


def _search(
    p: int, n_points: int, sphere_alphas: Sequence[int], sign: int, euler: int, b2: int
) -> Iterator[GroupAction]:
    """The enumeration of `search_realizable`, on a checked profile."""
    target = _rotation_target(p, sign)
    choices = list(_sphere_choices(p, sphere_alphas))
    needs = []  # the four relation residues the points must sum to, per sphere choice
    for ws in choices:
        spheres = [_sphere_relations(p, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
        needs.append(tuple((t - sum(col)) % p for t, *col in zip(target[:4], *spheres)))
    # the first point is one of the classes (1, x), the first p - 1 classes
    classes = _point_classes(p) if n_points > 1 else [(1, b) for b in range(1, p)]

    @functools.cache
    def vector(build, *component):
        """The vector of a point class or sphere, built on its first hit."""
        return build(p, *component)

    def accepted(hits):
        """The hits (point indices, choice index), in order, whose
        components' vectors sum to the target, as (point classes, choice index)."""
        for idx, k in sorted(hits):
            ws = choices[k]
            pts = tuple(classes[i] for i in idx)
            vecs = [vector(_point_vector, *pt) for pt in pts]
            vecs += [vector(_sphere_vector, w, alpha) for w, alpha in zip(ws, sphere_alphas)]
            if _vector_sum(p, vecs) == target:
                yield pts, k

    def action(pts, k):
        """The action of point classes `pts` and sphere choice `k`."""
        return GroupAction(
            p,
            tuple(IsolatedPoint(p, a, b) for a, b in pts),
            tuple(FixedSphere(p, w, alpha) for w, alpha in zip(choices[k], sphere_alphas)),
            sign,
            euler,
            b2,
        )

    def walk():
        """The results whose first point is one of the classes (1, x), in order."""
        rels = [_point_relations(p, a, b) for a, b in classes]
        last_class = {rel: j for j, rel in enumerate(rels)}
        if n_points == 1:
            hits = [((last_class[need],), k) for k, need in enumerate(needs) if need in last_class]
            yield from accepted(hits)
            return
        # each prefix is a head of n_points - 2 classes and then a tail class
        m = len(classes)
        heads = itertools.combinations_with_replacement(range(m), n_points - 2)
        for head in itertools.takewhile(lambda head: not head or head[0] < p - 1, heads):
            h = [sum(col) for col in zip((0, 0, 0, 0), *(rels[i] for i in head))]
            rest = [[x - y for x, y in zip(need, h)] for need in needs]
            for i in range(head[-1], m) if head else range(p - 1):
                r1, r2, r3, r4 = rels[i]
                hits = []
                for k, (n1, n2, n3, n4) in enumerate(rest):
                    j = last_class.get(((n1 - r1) % p, (n2 - r2) % p, (n3 - r3) % p, (n4 - r4) % p))
                    if j is not None and j >= i:
                        hits.append(((*head, i, j), k))
                if hits:
                    yield from accepted(hits)

    if n_points == 0:
        for pts, k in accepted(((), k) for k, need in enumerate(needs) if not any(need)):
            yield action(pts, k)
        return
    base = []
    for pts, k in walk():
        base.append((pts, k))
        yield action(pts, k)
    # the rest are images under g -> g^u; u and -u give the same classes
    # each sphere choice by its multiset of (weight, alpha)
    choice = {tuple(sorted(zip(ws, sphere_alphas))): k for k, ws in enumerate(choices)}
    images = set()
    for pts, k in base:
        for u in range(2, (p + 1) // 2):
            img = sorted(_point_class(p, u * a, u * b) for a, b in pts)
            if img[0][0] > 1:
                ws = (_weight_class(p, u * w) for w in choices[k])
                images.add((tuple(img), choice[tuple(sorted(zip(ws, sphere_alphas)))]))
    for pts, k in sorted(images):
        yield action(pts, k)
