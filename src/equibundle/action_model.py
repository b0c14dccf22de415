"""Rotation data for cyclic group actions on closed simply connected
4-manifolds: fixed point records, linear model generators, equivariant
connected sums, and the document serialization used by the CLI.

An action of Z/p is recorded by its fixed point set: isolated points
carry tangential rotation numbers (a, b), fixed 2-spheres carry a
normal rotation c and a self-intersection alpha.  p is prime and every
rotation is a unit mod p: the constructors refuse a p that is not
prime (ValueError) and a zero rotation (ZeroRotation), so no later
code checks either.  `validate` checks the one rule left, the count
rule, and raises InconsistentCounts.
Rotation pairs are defined up to order and simultaneous sign change;
constructors canonicalize so that equality means equality of
equivalence classes.
"""

from __future__ import annotations

import operator

from .cyclotomic import _check_rotations, _require_prime
from .exact_arith import ModulusMismatch, _Record, is_prime, signed_rep

__all__ = [
    "IsolatedPoint",
    "FixedSphere",
    "GroupAction",
    "LineIsotropy",
    "Su2Isotropy",
    "BadWeights",
    "InconsistentCounts",
    "IncompatiblePoints",
    "IncompatibleSpheres",
    "ShapeMismatch",
    "DocumentError",
    "validate",
    "linear_cp2",
    "linear_cp2_bar",
    "linear_s4",
    "reverse_orientation",
    "connected_sum_points",
    "connected_sum_spheres",
    "triple_cp2_bar_action",
    "action_from_dict",
    "action_to_dict",
    "line_isotropy_from_dict",
    "line_isotropy_to_dict",
    "su2_isotropy_from_dict",
    "su2_isotropy_to_dict",
]


class BadWeights(ValueError):
    """A linear model generator received unusable rotation numbers."""


class IncompatiblePoints(ValueError):
    """Connected sum requested at points whose tangent data do not match."""


class IncompatibleSpheres(ValueError):
    """Connected sum requested at spheres with mismatched normal weights."""


class ShapeMismatch(ValueError):
    """Isotropy data whose lengths do not fit the owning action."""


class DocumentError(ValueError):
    """A document is structurally unusable (missing or mistyped fields)."""


class InconsistentCounts(ValueError):
    """Fixed point data or a search profile that breaks the count rule."""


def _point_class(p: int, a: int, b: int) -> tuple[int, int]:
    """The least of (a, b), (b, a), (-a, -b) and (-b, -a), entries mod p."""
    a, b = a % p, b % p
    return min((a, b), (b, a), (p - a, p - b), (p - b, p - a))


def _weight_class(p: int, c: int) -> int:
    """|c| for c taken in (-p/2, p/2): c and -c describe the same
    unoriented normal rotation."""
    return abs(signed_rep(c, p))


class IsolatedPoint(_Record):
    """Isolated fixed point with tangential rotation numbers (a, b) mod p.

    Stored canonically: the lexicographically least representative of
    {(a,b), (b,a), (-a,-b), (-b,-a)} with entries in (0, p).  p must be
    prime and both rotations units mod p, as every congruence divides
    by them: a p that is not prime raises ValueError here, and a
    rotation divisible by p ZeroRotation, so no later check repeats
    either rule.
    """

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a: int, b: int):
        _require_prime(p)
        _check_rotations(p, a, b)
        self._set(p, *_point_class(p, a, b))

    def orientation_reversed(self) -> "IsolatedPoint":
        """The class of the same point in the reversed-orientation manifold."""
        return IsolatedPoint(self.p, self.a, -self.b)

    def display(self) -> str:
        return f"({signed_rep(self.a, self.p)}, {signed_rep(self.b, self.p)})"


class FixedSphere(_Record):
    """Fixed 2-sphere with normal rotation c mod p and self-intersection
    alpha.  c is stored in (0, p); a p that is not prime and a c
    divisible by p are refused here, as for an `IsolatedPoint`."""

    __slots__ = ("p", "c", "alpha")

    def __init__(self, p: int, c: int, alpha: int):
        _require_prime(p)
        _check_rotations(p, c)
        self._set(p, c % p, alpha)

    def weight_class(self) -> int:
        return _weight_class(self.p, self.c)

    def display(self) -> str:
        return f"(c={signed_rep(self.c, self.p)}, alpha={self.alpha})"


class GroupAction(_Record):
    """A homologically trivial Z/p action recorded by fixed point data.

    Insertion order of points and spheres is preserved: isotropy lists
    supplied alongside an action refer to entries by position.  p must
    be prime, and is checked here too, so an action with an empty fixed
    set is checked as well; every point and sphere must have this p.
    """

    __slots__ = ("p", "points", "spheres", "signature", "euler", "b2")

    def __init__(self, p: int, points: tuple, spheres: tuple, signature: int, euler: int, b2: int):
        _require_prime(p)
        points, spheres = tuple(points), tuple(spheres)
        for pt in points:
            if pt.p != p:
                raise ModulusMismatch(f"point {pt} has modulus {pt.p}, action has {p}")
        for s in spheres:
            if s.p != p:
                raise ModulusMismatch(f"sphere {s} has modulus {s.p}, action has {p}")
        self._set(p, points, spheres, signature, euler, b2)

    def data_key(self):
        """Order-insensitive identity of the underlying data."""
        return (
            self.p,
            tuple(sorted((pt.a, pt.b) for pt in self.points)),
            tuple(sorted((s.weight_class(), s.alpha) for s in self.spheres)),
            self.signature,
            self.euler,
            self.b2,
        )

    def same_data(self, other: "GroupAction") -> bool:
        return self.data_key() == other.data_key()


def _count_rule(what: str, n_points: int, n_spheres: int, euler: int, b2: int) -> None:
    """The fixed point count |points| + 2|spheres| = b2 + 2 and chi = b2 + 2,
    forced by the Lefschetz trace of a homologically trivial action.
    InconsistentCounts names `what` failed and every entry that fails."""
    count = n_points + 2 * n_spheres
    failures = []
    if count != b2 + 2:
        failures.append(f"fixed_set_count: |points| + 2|spheres| = {count}, b2 + 2 = {b2 + 2}")
    if euler != b2 + 2:
        failures.append(f"euler_betti: chi = {euler}, b2 + 2 = {b2 + 2}")
    if failures:
        raise InconsistentCounts(f"{what} fails validation: " + "; ".join(failures))


def validate(action: GroupAction) -> None:
    """The count rule, the one rule on an action that its constructors
    cannot check one component at a time: raises InconsistentCounts.
    A prime p and units as rotations hold by construction."""
    _count_rule("action", len(action.points), len(action.spheres), action.euler, action.b2)


# -- isotropy records ----------------------------------------------------


# kind of a LineIsotropy slot -> the field holding it, in `free_slots` order;
# `cli` reads the kinds from here to parse `solve --free`
_SLOT_FIELDS = {"lambda": "lambda_points", "lambda_sphere": "lambda_spheres", "m": "m_spheres"}


def _check_shape(action: GroupAction, points: tuple, spheres: tuple, ms: tuple) -> None:
    """One weight per point, and one weight and one degree per sphere."""
    if len(points) != len(action.points):
        raise ShapeMismatch(f"{len(points)} point weights for {len(action.points)} points")
    if len(spheres) != len(action.spheres) or len(ms) != len(action.spheres):
        raise ShapeMismatch(
            f"sphere data lengths ({len(spheres)}, {len(ms)}) for {len(action.spheres)} spheres"
        )


class LineIsotropy(_Record):
    """Circle-bundle isotropy data: fiber weight lambda at each fixed
    component, the restriction degree m at each sphere, and optionally
    the self-intersection of the first Chern class.

    None marks a slot left free for the solver.  Every other entry must
    be an integer: a float or a string is refused, not truncated.
    """

    __slots__ = ("lambda_points", "lambda_spheres", "m_spheres", "c1_squared")

    def __init__(
        self, lambda_points: tuple, lambda_spheres: tuple, m_spheres: tuple, c1_squared=None
    ):
        lists = (lambda_points, lambda_spheres, m_spheres)
        self._set(
            *(tuple(None if v is None else operator.index(v) for v in slots) for slots in lists),
            None if c1_squared is None else operator.index(c1_squared),
        )

    def check_shape(self, action: GroupAction) -> None:
        _check_shape(action, self.lambda_points, self.lambda_spheres, self.m_spheres)

    def free_slots(self) -> list[tuple[str, int]]:
        return [
            (kind, i)
            for kind, name in _SLOT_FIELDS.items()
            for i, v in enumerate(getattr(self, name))
            if v is None
        ]

    def with_slot(self, kind: str, index: int, value: int | None) -> "LineIsotropy":
        if kind not in _SLOT_FIELDS:
            raise ValueError(f"unknown slot kind {kind!r}")
        fields = dict(zip(self.__slots__, self.__getstate__()))
        slots = list(fields[_SLOT_FIELDS[kind]])
        slots[index] = value
        fields[_SLOT_FIELDS[kind]] = slots
        return LineIsotropy(**fields)


class Su2Isotropy(_Record):
    """Rank-two isotropy data: the fiber splits as t^ell + t^(-ell) over
    each fixed component, so ell is defined up to sign; m is the degree
    of a local reduction over each sphere and flips with ell.  c2 is the
    lift's charge, and every lift states it.  Each entry must be an
    integer: a float or a string is refused, not truncated."""

    __slots__ = ("ell_points", "ell_spheres", "m_spheres", "c2")

    def __init__(self, ell_points: tuple, ell_spheres: tuple, m_spheres: tuple, c2: int):
        lists = (ell_points, ell_spheres, m_spheres)
        self._set(*(tuple(map(operator.index, ell)) for ell in lists), operator.index(c2))

    def check_shape(self, action: GroupAction) -> None:
        _check_shape(action, self.ell_points, self.ell_spheres, self.m_spheres)


# -- linear models -------------------------------------------------------


def _weight(p: int, w: int) -> int:
    """A linear model's weight w reduced mod p, for a prime p and w nonzero mod p."""
    if not is_prime(p):
        raise BadWeights(f"p must be prime, got {p}")
    if w % p == 0:
        raise BadWeights(f"weight {w} must be nonzero mod {p}")
    return w % p


def linear_cp2(p: int, a: int, b: int = 0) -> GroupAction:
    """Linear action on the projective plane with weights (a, b).

    b = 0 mod p: one fixed point (a, a) and a fixed line, a sphere with
    normal weight a and self-intersection +1.  Otherwise three isolated
    fixed points (a, b), (b-a, -a), (a-b, -b).  Sign = 1, chi = 3.
    """
    a, b = _weight(p, a), b % p
    if a == b:
        raise BadWeights("equal weights give a degenerate rotation pair")
    if b == 0:
        return GroupAction(
            p, (IsolatedPoint(p, a, a),), (FixedSphere(p, a, 1),), 1, 3, 1
        )
    points = (
        IsolatedPoint(p, a, b),
        IsolatedPoint(p, b - a, -a),
        IsolatedPoint(p, a - b, -b),
    )
    return GroupAction(p, points, (), 1, 3, 1)


def linear_cp2_bar(p: int, a: int) -> GroupAction:
    """Reversed-orientation projective plane: one fixed point (a, -a)
    and a fixed sphere (c = a, alpha = -1).  Sign = -1, chi = 3."""
    a = _weight(p, a)
    return GroupAction(p, (IsolatedPoint(p, a, -a),), (FixedSphere(p, a, -1),), -1, 3, 1)


def linear_s4(p: int, a: int, b: int) -> GroupAction:
    """Linear action on the 4-sphere: fixed points (a, b) and (a, -b)."""
    a, b = _weight(p, a), _weight(p, b)
    return GroupAction(p, (IsolatedPoint(p, a, b), IsolatedPoint(p, a, -b)), (), 0, 2, 0)


def reverse_orientation(action: GroupAction) -> GroupAction:
    """The same action on the orientation-reversed manifold: rotation
    pairs (a, -b), sphere data (-c, -alpha), negated signature."""
    return GroupAction(
        action.p,
        tuple(pt.orientation_reversed() for pt in action.points),
        tuple(FixedSphere(action.p, -s.c, -s.alpha) for s in action.spheres),
        -action.signature,
        action.euler,
        action.b2,
    )


# -- equivariant connected sums -------------------------------------------


def _check_same_p(a: GroupAction, b: GroupAction) -> None:
    if a.p != b.p:
        raise ModulusMismatch(f"cannot sum actions with p = {a.p} and p = {b.p}")


def _at(items: tuple, i: int):
    """items[i], refusing a negative i: it would be matched here but kept in the sum."""
    if not 0 <= i < len(items):
        raise IndexError(f"index {i} is out of range for {len(items)} components")
    return items[i]


def _glued(a: GroupAction, b: GroupAction, points: tuple, spheres: tuple) -> GroupAction:
    """The sum of a and b with the given fixed set: signature and b2 add,
    and chi loses 2, one for each ball cut out."""
    return GroupAction(
        a.p, points, spheres, a.signature + b.signature, a.euler + b.euler - 2, a.b2 + b.b2
    )


def connected_sum_points(a: GroupAction, i: int, b: GroupAction, j: int) -> GroupAction:
    """Equivariant connected sum at isolated fixed points.

    The gluing reverses orientation on one side, so the tangent data
    must match after reversal: class of (a_j, -b_j) of the second point
    equals the class of the first.  Both matched points disappear.
    """
    _check_same_p(a, b)
    pa, pb = _at(a.points, i), _at(b.points, j)
    if pb.orientation_reversed() != pa:
        raise IncompatiblePoints(
            f"point {pa.display()} cannot absorb {pb.display()}: "
            f"reversed class is {pb.orientation_reversed().display()}"
        )
    points = tuple(q for t, q in enumerate(a.points) if t != i) + tuple(
        q for t, q in enumerate(b.points) if t != j
    )
    return _glued(a, b, points, a.spheres + b.spheres)


def connected_sum_spheres(a: GroupAction, i: int, b: GroupAction, j: int) -> GroupAction:
    """Equivariant connected sum along points of two fixed spheres.

    The boundary lens spaces match when the normal weights agree up to
    sign (the weight of an unoriented normal rotation is only defined
    up to sign).  The spheres merge into one with c from the first
    summand and added self-intersections.
    """
    _check_same_p(a, b)
    sa, sb = _at(a.spheres, i), _at(b.spheres, j)
    if sa.weight_class() != sb.weight_class():
        raise IncompatibleSpheres(
            f"sphere weights {sa.display()} and {sb.display()} differ mod {a.p}"
        )
    merged = FixedSphere(a.p, sa.c, sa.alpha + sb.alpha)
    spheres = tuple(merged if t == i else s for t, s in enumerate(a.spheres)) + tuple(
        s for t, s in enumerate(b.spheres) if t != j
    )
    return _glued(a, b, a.points + b.points, spheres)


def triple_cp2_bar_action() -> GroupAction:
    """A p = 5 action on the threefold sum of reversed projective planes.

    Rotation data {(1,-1), (2,-1), (2,-1)} with one fixed sphere
    (c = 1, alpha = -2); Sign = -3, chi = 5, b2 = 3.  Built from linear
    models by one sphere sum and one point sum.
    """
    bar = linear_cp2_bar(5, 1)
    two = connected_sum_spheres(bar, 0, bar, 0)
    other = reverse_orientation(linear_cp2(5, 2, 1))
    j = next(
        t for t, q in enumerate(other.points) if q.orientation_reversed() == two.points[0]
    )
    return connected_sum_points(two, 0, other, j)


# -- document serialization ------------------------------------------------


def _mapping(doc, where: str, known) -> None:
    """Refuse doc unless it is a mapping with no key outside `known`: a
    misspelt key is named, not read as a missing field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where} must be a mapping")
    for key in doc:
        if key not in known:
            raise DocumentError(f"{where}: unknown field {key!r}")


def _want(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise DocumentError(f"{where}: field {key!r} has wrong type {type(v).__name__}")
    return v


def _int_list(values, where: str, allow_none: bool = False) -> list:
    if not isinstance(values, list):
        raise DocumentError(f"{where}: expected a list")
    out = []
    for v in values:
        if v is None and allow_none:
            out.append(None)
        elif isinstance(v, int) and not isinstance(v, bool):
            out.append(v)
        else:
            raise DocumentError(f"{where}: expected integers, got {v!r}")
    return out


def action_from_dict(doc: dict) -> GroupAction:
    _mapping(doc, "action", ("p", "points", "spheres", "signature", "euler", "b2"))
    p = _want(doc, "p", "action")
    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        raise DocumentError("action: points must be a list")
    points = []
    for entry in raw_points:
        pair = _int_list(entry, "action.points")
        if len(pair) != 2:
            raise DocumentError(f"action.points: expected [a, b], got {entry!r}")
        points.append(IsolatedPoint(p, pair[0], pair[1]))
    raw_spheres = doc.get("spheres", [])
    if not isinstance(raw_spheres, list):
        raise DocumentError("action: spheres must be a list")
    spheres = []
    for entry in raw_spheres:
        _mapping(entry, "action.spheres", ("c", "alpha"))
        spheres.append(FixedSphere(p, _want(entry, "c", "sphere"), _want(entry, "alpha", "sphere")))
    return GroupAction(
        p,
        tuple(points),
        tuple(spheres),
        _want(doc, "signature", "action"),
        _want(doc, "euler", "action"),
        _want(doc, "b2", "action"),
    )


def action_to_dict(action: GroupAction) -> dict:
    return {
        "p": action.p,
        "points": [[signed_rep(pt.a, action.p), signed_rep(pt.b, action.p)] for pt in action.points],
        "spheres": [{"c": signed_rep(s.c, action.p), "alpha": s.alpha} for s in action.spheres],
        "signature": action.signature,
        "euler": action.euler,
        "b2": action.b2,
    }


def _isotropy_from_dict(cls, doc: dict, where: str):
    """The inverse of `_isotropy_to_dict`: every field but the last is a
    list of integers, missing meaning empty, and the last is an integer.
    Only a line record may hold null: a free slot, or no c1_squared."""
    _mapping(doc, where, cls.__slots__)
    free = cls is LineIsotropy
    *lists, last = cls.__slots__
    values = [tuple(_int_list(doc.get(name, []), name, free)) for name in lists]
    scalar = None if free and doc.get(last) is None else _want(doc, last, where)
    return cls(*values, scalar)


def line_isotropy_from_dict(doc: dict) -> LineIsotropy:
    return _isotropy_from_dict(LineIsotropy, doc, "line_isotropy")


def su2_isotropy_from_dict(doc: dict) -> Su2Isotropy:
    return _isotropy_from_dict(Su2Isotropy, doc, "su2_isotropy")


def _isotropy_to_dict(iso: LineIsotropy | Su2Isotropy) -> dict:
    """An isotropy record as a document section: every field in order,
    tuples as lists, and no c1_squared when it is null."""
    values = zip(iso.__slots__, iso.__getstate__())
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in values
        if not (k == "c1_squared" and v is None)
    }


line_isotropy_to_dict = su2_isotropy_to_dict = _isotropy_to_dict
