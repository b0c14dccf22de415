"""Seeded request decks for the four benchmark workloads.

A deck is a fixed list of whole CLI commands.  Its shape -- which
subcommand, which model family and which prime each slot uses -- is
fixed per workload, so every seed costs about the same; the seed picks
the weights, lifts, perturbations and the order of the requests.

Every request carries its expected exit code and a check of its
`--machine` output.  Documents and expectations are built here from
closed formulas for linear models and equivariant connected sums; this
file never imports the package under test, so a bug there cannot leak
into the expectations.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, Optional

DEFAULT_SEED = 1
WORKLOADS = ("field", "battery", "search", "session")


# -- rotation data, built without the package --------------------------------


def _signed(x: int, p: int) -> int:
    x %= p
    return x if 2 * x <= p else x - p


def _canon(p: int, a: int, b: int) -> tuple[int, int]:
    """Class of a rotation pair under swap and overall sign, as the CLI stores it."""
    a, b = a % p, b % p
    return min((a, b), (b, a), (-a % p, -b % p), (-b % p, -a % p))


@dataclass(frozen=True)
class Model:
    p: int
    points: tuple  # ((a, b), ...) in document order
    spheres: tuple  # ((c, alpha), ...)
    sign: int
    euler: int
    b2: int

    def doc(self) -> dict:
        p = self.p
        return {
            "p": p,
            "points": [[_signed(a, p), _signed(b, p)] for a, b in self.points],
            "spheres": [{"c": _signed(c, p), "alpha": al} for c, al in self.spheres],
            "signature": self.sign,
            "euler": self.euler,
            "b2": self.b2,
        }

    def reversed(self) -> "Model":
        return Model(
            self.p,
            tuple((a, -b) for a, b in self.points),
            tuple((-c, -al) for c, al in self.spheres),
            -self.sign,
            self.euler,
            self.b2,
        )

    def relations12(self) -> tuple[int, int]:
        """Residues of the first two rotation-number congruences; a valid
        action has (0, 3 * signature mod p)."""
        p = self.p
        r1 = r2 = 0
        for a, b in self.points:
            iv = pow(a * b, -1, p)
            r1 += iv
            r2 += (a * a + b * b) * iv
        for c, al in self.spheres:
            r1 -= al * pow(c * c, -1, p)
            r2 += al
        return r1 % p, r2 % p


def cp2(p, a, b) -> Model:
    return Model(p, ((a, b), (b - a, -a), (a - b, -b)), (), 1, 3, 1)


def cp2_line(p, a) -> Model:
    return Model(p, ((a, a),), ((a, 1),), 1, 3, 1)


def cp2bar(p, a) -> Model:
    return Model(p, ((a, -a),), ((a, -1),), -1, 3, 1)


def s4(p, a, b) -> Model:
    return Model(p, ((a, b), (a, -b)), (), 0, 2, 0)


def sum_points(x: Model, i: int, y: Model, j: int) -> Model:
    (ya, yb) = y.points[j]
    assert _canon(x.p, ya, -yb) == _canon(x.p, *x.points[i]), "points do not glue"
    return Model(
        x.p,
        x.points[:i] + x.points[i + 1 :] + y.points[:j] + y.points[j + 1 :],
        x.spheres + y.spheres,
        x.sign + y.sign,
        x.euler + y.euler - 2,
        x.b2 + y.b2,
    )


def sum_spheres(x: Model, i: int, y: Model, j: int) -> Model:
    (xc, xa), (yc, ya) = x.spheres[i], y.spheres[j]
    assert (xc - yc) % x.p == 0 or (xc + yc) % x.p == 0, "spheres do not glue"
    merged = x.spheres[:i] + ((xc, xa + ya),) + x.spheres[i + 1 :]
    return Model(
        x.p,
        x.points + y.points,
        merged + y.spheres[:j] + y.spheres[j + 1 :],
        x.sign + y.sign,
        x.euler + y.euler - 2,
        x.b2 + y.b2,
    )


def triple(p, a) -> Model:
    """CP2-bar # CP2-bar # CP2-bar; at p = 5, a = 1 it is the demo action."""
    two = sum_spheres(cp2bar(p, a), 0, cp2bar(p, a), 0)
    return sum_points(two, 0, cp2(p, 2 * a, a).reversed(), 2)


def _unit(rng, p) -> int:
    return rng.randrange(1, p)


def _pair(rng, p, distinct_squares=False) -> tuple[int, int]:
    """Nonzero a, b with a != b; with distinct_squares also a != -b."""
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if a != b and not (distinct_squares and (a + b) % p == 0):
            return a, b


FAMILIES: dict[str, Callable] = {
    "cp2": lambda rng, p: cp2(p, *_pair(rng, p)),
    "cp2-line": lambda rng, p: cp2_line(p, _unit(rng, p)),
    "cp2bar": lambda rng, p: cp2bar(p, _unit(rng, p)),
    "s4": lambda rng, p: s4(p, *_pair(rng, p)),
    "cp2#cp2bar": lambda rng, p: _self_sum(cp2(p, *_pair(rng, p)), rng.randrange(3)),
    "bar#bar": lambda rng, p: sum_spheres(
        cp2bar(p, (a := _unit(rng, p))), 0, cp2bar(p, rng.choice((a, -a))), 0
    ),
    "triple": lambda rng, p: triple(p, _unit(rng, p)),
    "s4#s4": lambda rng, p: sum_points((m := s4(p, *_pair(rng, p))), 0, m, 1),
}


def _self_sum(m: Model, i: int) -> Model:
    return sum_points(m, i, m.reversed(), i)


# -- requests ----------------------------------------------------------------


@dataclass
class Request:
    """One CLI command.  `argv` entries naming a key of `docs` ("@doc")
    are replaced by the path the document is written to."""

    tag: str
    p: int
    argv: list
    expect: int
    check: Optional[Callable[[object], Optional[str]]] = None
    docs: dict = field(default_factory=dict)
    rid: str = ""


def _doc_request(tag, p, cmd, body, expect, check, extra=()) -> Request:
    text = body if isinstance(body, str) else json.dumps(body)
    return Request(tag, p, [*cmd, "@doc", *extra, "--machine"], expect, check, {"@doc": text})


def _records_ok(obj, mode, n=None) -> Optional[str]:
    if obj.get("mode") != mode or obj.get("ok") is not True:
        return f"expected a passing {mode} report"
    recs = obj.get("records", [])
    if n is not None and len(recs) != n:
        return f"{len(recs)} records, expected {n}"
    if not all(r.get("passed") is True for r in recs):
        return "a record failed"
    return None


def _failed_record(obj, mode, name) -> Optional[str]:
    if obj.get("mode") != mode or obj.get("ok") is not False:
        return f"expected a failing {mode} report"
    if not any(r["name"] == name and r["passed"] is False for r in obj.get("records", [])):
        return f"record {name} should fail"
    return None


def gsign_request(rng, p, family, cmd=("gsign",)) -> Request:
    m = FAMILIES[family](rng, p)
    want = str(m.sign)

    def check(obj):
        bad = _records_ok(obj, "gsign", p - 1)
        if bad:
            return bad
        if any(r["lhs"] != want or r["required"] != want for r in obj["records"]):
            return f"an equivariant signature differs from {want}"
        return None

    tag = "check-gsign" if cmd[0] == "check" else "gsign"
    return _doc_request(f"{tag}/{family}", p, cmd, {"action": m.doc()}, 0, check)


def check_gsign_request(rng, p, family) -> Request:
    return gsign_request(rng, p, family, ("check", "--mode", "gsign"))


def _relations_match(obj, m: Model) -> Optional[str]:
    r1, r2 = m.relations12()
    got = {r["name"]: r["lhs"] for r in obj.get("records", [])}
    if got.get("relation_1") != str(r1) or got.get("relation_2") != str(r2):
        seen = (got.get("relation_1"), got.get("relation_2"))
        return f"relations 1-2 read {seen}, expected {(str(r1), str(r2))}"
    return None


def rotation_request(rng, p, family) -> Request:
    m = FAMILIES[family](rng, p)

    def check(obj):
        return _records_ok(obj, "rotation", 4 + p - 1) or _relations_match(obj, m)

    return _doc_request(f"rotation/{family}", p, ("check",), {"action": m.doc()}, 0, check)


def perturbed_request(rng, p, how) -> Request:
    """A single-unit change to a valid action.  `rotation` and `sign`
    break a congruence (exit 1); `count` breaks the fixed point count
    (exit 3, validation)."""
    base = FAMILIES["cp2"](rng, p)
    while True:
        if how == "sign":
            sign = base.sign + rng.choice((1, -1))
            m = Model(p, base.points, base.spheres, sign, base.euler, base.b2)
        elif how == "count":
            m = Model(p, base.points, base.spheres, base.sign, base.euler + 1, base.b2 + 1)
        else:
            pts = [list(pt) for pt in base.points]
            i, k = rng.randrange(len(pts)), rng.randrange(2)
            pts[i][k] += rng.choice((1, -1))
            if pts[i][k] % p == 0:
                continue
            m = Model(p, tuple(map(tuple, pts)), base.spheres, base.sign, base.euler, base.b2)
        if how == "count" or m.relations12() != (0, 3 * m.sign % p):
            break
    if how == "count":
        return _doc_request("rotation/perturb-count", p, ("check",), {"action": m.doc()}, 3, None)

    def check(obj):
        if obj.get("mode") != "rotation" or obj.get("ok") is not False:
            return "expected a failing rotation report"
        return _relations_match(obj, m)

    return _doc_request(f"rotation/perturb-{how}", p, ("check",), {"action": m.doc()}, 1, check)


def _dimension_body(m: Model, ell) -> dict:
    su2 = {"ell_points": list(ell), "ell_spheres": [], "m_spheres": [], "c2": 1}
    return {"action": m.doc(), "su2_isotropy": su2}


def dimension_request(rng, p, lift) -> Request:
    """S^4 = S4(a, b) with the lift (b - a, a + b), whose invariant
    moduli space has dimension 1, or the lift (a, a), whose dimension
    formula is not an integer (exit 1)."""
    a, b = _pair(rng, p, distinct_squares=True)
    m = s4(p, a, b)
    if lift == "good":
        body = _dimension_body(m, (b - a, a + b))
        return _doc_request("dimension/s4-good", p, ("dimension",), body, 0, _dimension_is(1))
    body = _dimension_body(m, (a, a))
    return _doc_request("dimension/s4-nonint", p, ("dimension",), body, 1, _nonint)


def _dimension_is(want: int):
    def check(obj):
        if obj.get("ok") is not True or obj.get("dimension") != want:
            return f"dimension {obj.get('dimension')}, expected {want}"
        if sum(Fraction(v) for v in obj["terms"].values()) != want:
            return "terms do not sum to the dimension"
        return None

    return check


def _nonint(obj):
    if obj.get("ok") is not False or obj.get("error") != "non-integer dimension":
        return "expected a non-integer dimension report"
    if Fraction(obj["total"]).denominator == 1:
        return f"total {obj['total']} is an integer"
    return None


def triple_lift_request(rng, p, which) -> Request:
    """The demo lifts on CP2-bar # CP2-bar # CP2-bar at p = 5, conjugated
    by a random unit u (rotation numbers and weights times u), which
    leaves the dimensions 1 and 3 unchanged."""
    u = _unit(rng, 5)
    m = triple(5, 1)
    points = tuple((a * u, b * u) for a, b in m.points)
    spheres = tuple((c * u, al) for c, al in m.spheres)
    m = Model(5, points, spheres, m.sign, m.euler, m.b2)
    if which == 1:
        ell_pts, ell_sph, m_sph, want = (1, -3, 1), (1,), (0,), 1
    else:
        ell_pts, ell_sph, m_sph, want = (1, 1, 1), (1,), (-1,), 3
    su2 = {
        "ell_points": [_signed(e * u, 5) for e in ell_pts],
        "ell_spheres": [_signed(e * u, 5) for e in ell_sph],
        "m_spheres": list(m_sph),
        "c2": 1,
    }
    body = {"action": m.doc(), "su2_isotropy": su2}
    tag = f"dimension/triple-lift{which}"
    return _doc_request(tag, 5, ("dimension",), body, 0, _dimension_is(want))


def _reduce(q: Fraction, p: int):
    return "n/a" if q.denominator % p == 0 else q.numerator * pow(q.denominator, -1, p) % p


EXPAND_KINDS = ("point", "sphere", "boundary", "su2-point", "su2-sphere")


def expand_request(rng, p, kind, order) -> Request:
    """`expand` with --p; the check pins the constant (or first) term in
    closed form and recomputes every mod-p reduction.  The parameters are
    fixed: their size sets the cost, which must not depend on the seed."""
    a, b, c, m, lam, ell, alpha = 2, -3, 3, 1, 1, 2, -2
    if kind == "point":
        flags, lead = {"a": a, "b": b, "lam": lam}, (0, Fraction(4, a * b))
    elif kind == "sphere":
        flags, lead = {"c": c, "alpha": alpha, "lam": lam}, (0, Fraction(-4 * alpha, c * c))
    elif kind == "boundary":
        flags, lead = {"c": c, "m": m, "lam": lam}, (1, Fraction(4 * m, c))
    elif kind == "su2-point":
        flags, lead = {"a": a, "b": b, "ell": ell}, (0, Fraction(8, a * b))
    else:
        flags, lead = {"c": c, "alpha": alpha, "m": m, "ell": ell}, (0, Fraction(-8 * alpha, c * c))
    argv = ["expand", "--kind", kind, "--order", str(order), "--p", str(p), "--machine"]
    for k, v in flags.items():
        argv += [f"--{k}", str(v)]

    def check(obj):
        coeffs = [Fraction(q) for q in obj.get("coefficients", [])]
        if obj.get("kind") != kind or obj.get("order") != order or len(coeffs) != order + 1:
            return "wrong shape"
        if coeffs[lead[0]] != lead[1]:
            return f"s^{lead[0]} coefficient {coeffs[lead[0]]}, expected {lead[1]}"
        if obj.get("modulus") != p or obj.get("mod_p") != [_reduce(q, p) for q in coeffs]:
            return "mod-p column disagrees with the coefficients"
        return None

    return Request(f"expand/{kind}", p, argv, 0, check)


def _cp2_lambdas(p, a, b, lam) -> list:
    return [_signed(x, p) for x in (lam, lam + a, lam + b)]


def _line_iso(lam_points, lam_spheres, m_spheres, p) -> dict:
    """A line_isotropy section; None marks the slot `solve` fills."""
    def rep(xs):
        return [None if x is None else _signed(x, p) for x in xs]

    return {
        "lambda_points": rep(lam_points),
        "lambda_spheres": rep(lam_spheres),
        "m_spheres": rep(m_spheres),
    }


def line_request(rng, p, variant) -> Request:
    """Known-good circle bundles: O(1) on CP2 with weights (l, l+a, l+b),
    and the fixed-line model with twisting degree -1.  `bad` claims
    c1^2 = 2, so the quadratic relation fails."""
    if variant == "cp2-line":
        a = _unit(rng, p)
        action = cp2_line(p, a)
        iso = _line_iso([2 * a], [a], [-1], p)
        iso["c1_squared"] = 1
    else:
        a, b = _pair(rng, p)
        action = cp2(p, a, b)
        iso = _line_iso(_cp2_lambdas(p, a, b, rng.randrange(p)), [], [], p)
        iso["c1_squared"] = 2 if variant == "bad" else 1
    body = {"action": action.doc(), "line_isotropy": iso}
    cmd = ("check", "--mode", "line")
    if variant == "bad":
        check = lambda o: _failed_record(o, "line", "second_order")  # noqa: E731
        return _doc_request("line/bad", p, cmd, body, 1, check)
    return _doc_request(f"line/{variant}", p, cmd, body, 0, lambda o: _records_ok(o, "line"))


def su2_request(rng, p, variant) -> Request:
    """Known-good SU(2) lifts: S4(a, b) with fiber weights ((b-a)/2, (a+b)/2),
    and CP2-bar with (a; 0, m=0) or (a/2; a/2, m=-1).  `bad` claims c2 = 2."""
    half = pow(2, -1, p)
    if variant == "cp2bar":
        a = _unit(rng, p)
        twisted = rng.random() < 0.5
        ell = a * half if twisted else a
        action = cp2bar(p, a)
        iso = {
            "ell_points": [_signed(ell, p)],
            "ell_spheres": [_signed(ell if twisted else 0, p)],
            "m_spheres": [-1 if twisted else 0],
            "c2": 1,
        }
    else:
        a, b = _pair(rng, p)
        action = s4(p, a, b)
        ell = [_signed((b - a) * half, p), _signed((a + b) * half, p)]
        c2 = 2 if variant == "bad" else 1
        iso = {"ell_points": ell, "ell_spheres": [], "m_spheres": [], "c2": c2}
    body = {"action": action.doc(), "su2_isotropy": iso}
    cmd = ("check", "--mode", "su2")
    if variant == "bad":
        check = lambda o: _failed_record(o, "su2", "su2_weight_sum")  # noqa: E731
        return _doc_request("su2/bad", p, cmd, body, 1, check)
    return _doc_request(f"su2/{variant}", p, cmd, body, 0, lambda o: _records_ok(o, "su2"))


def solve_request(rng, p, variant) -> Request:
    """Fill one unknown of a known-good circle bundle; the unknown's
    coefficient is a unit, so the answer is the known weight."""
    extra = ()
    if variant == "cp2-line":
        a = _unit(rng, p)
        iso = _line_iso([2 * a], [a], [None], p)
        action, slot, want = cp2_line(p, a), ("m_spheres", 0), -1
    else:
        a, b = _pair(rng, p)
        lam = _cp2_lambdas(p, a, b, rng.randrange(p))
        action, want = cp2(p, a, b), lam[2] if variant == "cp2" else lam[1]
        slot = ("lambda_points", 2 if variant == "cp2" else 1)
        if variant == "cp2":
            lam[2] = None
        else:
            extra = ("--free", "lambda[1]")
        iso = _line_iso(lam, [], [], p)

    def check(obj):
        if obj.get("ok") is not True:
            return "solve did not succeed"
        got = obj["document"]["line_isotropy"][slot[0]][slot[1]]
        if (got - want) % p:
            return f"{slot[0]}[{slot[1]}] = {got}, expected {want} mod {p}"
        return None

    body = {"action": action.doc(), "line_isotropy": iso}
    return _doc_request(f"solve/{variant}", p, ("solve",), body, 0, check, extra)


def sum_request(rng, p, how) -> Request:
    if how == "spheres":
        x, y = cp2bar(p, (a := _unit(rng, p))), cp2bar(p, rng.choice((a, -a)))
        want, flags = sum_spheres(x, 0, y, 0), ("--spheres", "0", "0")
    else:
        x = cp2(p, *_pair(rng, p))
        i = rng.randrange(3)
        y = x.reversed()
        want, flags = sum_points(x, i, y, i), ("--points", str(i), str(i))

    def check(obj):
        got = obj.get("document", {}).get("action", {})
        pts = [_canon(p, *pt) for pt in got.get("points", [])]
        sph = [(s["c"] % p, s["alpha"]) for s in got.get("spheres", [])]
        ok = (
            pts == [_canon(p, *pt) for pt in want.points]
            and sph == [(c % p, al) for c, al in want.spheres]
            and [got.get("signature"), got.get("euler"), got.get("b2")]
            == [want.sign, want.euler, want.b2]
        )
        return None if ok else "summed action differs from the expected data"

    return Request(
        f"sum/{how}", p, ["sum", "@x", "@y", *flags, "--machine"], 0, check,
        {"@x": json.dumps({"action": x.doc()}), "@y": json.dumps({"action": y.doc()})},
    )


@lru_cache(maxsize=None)
def search_candidates(p: int, n_points: int, n_spheres: int, alphas: tuple) -> int:
    """Size of the search space `search` enumerates: multisets of point
    classes times distinct sphere weight assignments."""
    classes = len({_canon(p, a, b) for a in range(1, p) for b in range(1, p)})
    weights = range(1, (p - 1) // 2 + 1)
    spheres = {tuple(sorted(zip(ws, alphas))) for ws in product(weights, repeat=n_spheres)}
    return comb(classes + n_points - 1, n_points) * len(spheres)


def search_request(rng, p, profile, limit=None, sign=None, alpha=1) -> Request:
    """`search` for CP2-like data: 3 points, or 1 point and 1 sphere of
    self-intersection `alpha`.  Every result must fit the profile and
    satisfy the first two congruences; run.py also passes each one to
    `check`.  For 3 points the sign does not change the cost, so the seed
    picks it."""
    sign = rng.choice((1, -1)) if sign is None else sign
    n_points, alphas = (3, ()) if profile == "3pt" else (1, (alpha,))
    argv = ["search", "--p", str(p), "--points", str(n_points), "--spheres", str(len(alphas))]
    argv += ["--sign", str(sign), "--euler", "3", "--b2", "1"]
    if alphas:
        argv += ["--alphas", ",".join(map(str, alphas))]
    if limit:
        argv += ["--limit", str(limit)]
    argv.append("--machine")

    def check(obj):
        results = obj.get("results", [])
        if obj.get("count") != len(results) or (limit and len(results) > limit):
            return "result count disagrees"
        for r in results:
            points = tuple(map(tuple, r["points"]))
            spheres = tuple((s["c"], s["alpha"]) for s in r["spheres"])
            m = Model(p, points, spheres, r["signature"], r["euler"], r["b2"])
            shape = (r["p"], len(points), sorted(al for _, al in spheres), m.sign, m.euler, m.b2)
            if shape != (p, n_points, sorted(alphas), sign, 3, 1):
                return f"result {r} does not fit the profile"
            if m.relations12() != (0, 3 * sign % p):
                return f"result {r} breaks the first two congruences"
        return None

    tag = f"search/{profile}" + ("-limit" if limit else "")
    return Request(tag, p, argv, 0, check)


def _error(tag, cmd, body, expect, extra=()) -> Callable:
    """A request whose document is built by `body(p)` (or is `body`)."""
    def build(rng, p):
        return _doc_request(tag, p, cmd, body(p) if callable(body) else body, expect, None, extra)

    return build


def _bare(tag, argv, expect) -> Callable:
    return lambda rng, p: Request(tag, p, list(argv), expect, None)


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _cp2(p) -> dict:
    return cp2(p, 1, 2).doc()


SESSION_ERRORS = [
    # malformed documents and bad parameters: exit 2
    _error("error/truncated-json", ("check",), lambda p: json.dumps({"action": _cp2(p)})[:-7], 2),
    _error("error/root-not-mapping", ("gsign",), "[1, 2, 3]", 2),
    _error("error/missing-field", ("check",), lambda p: {"action": _without(_cp2(p), "signature")}, 2),
    _error("error/bad-point-shape", ("check",), lambda p: {"action": {**_cp2(p), "points": [[1]]}}, 2),
    _bare("error/expand-missing-param", ["expand", "--kind", "point", "--a", "1", "--machine"], 2),
    _bare("error/unknown-subcommand", ["frobnicate", "--machine"], 2),
    # structurally valid documents that fail validation: exit 3
    _error("error/no-action", ("check",), {"line_isotropy": {}}, 3),
    _error("error/no-su2-section", ("dimension",), lambda p: {"action": s4(p, 1, 2).doc()}, 3),
    _error("error/no-line-section", ("solve",), lambda p: {"action": _cp2(p)}, 3),
    _error("error/su2-wrong-length", ("dimension",), lambda p: _dimension_body(s4(p, 1, 2), (1, 3, 1)), 3),
    _error(
        "error/line-wrong-length", ("check",),
        lambda p: {"action": _cp2(p), "line_isotropy": {**_line_iso([1], [], [], p), "c1_squared": 1}},
        3, ("--mode", "line"),
    ),
    _error("error/count-mismatch", ("gsign",), lambda p: {"action": {**s4(p, 1, 2).doc(), "b2": 1}}, 3),
]


# -- the decks -----------------------------------------------------------------

_L1 = (97, 101, 103, 107, 109, 113)
FIXED = "fixed"
_SIGN_ALPHA = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _fam(build, family):
    return lambda rng, p: build(rng, p, family)


def _expand_slots(orders):
    """Every --kind at each of `orders`, with --p cycling through p ~ 100."""
    kinds_orders = list(product(orders, EXPAND_KINDS))
    return [
        (lambda rng, p, k=k, o=o: expand_request(rng, p, k, o), (_L1[i % len(_L1)],))
        for i, (o, k) in enumerate(kinds_orders)
    ]


def _search_1pt1s(limit=None):
    """One point and one sphere at each p: three of the four (sign, alpha)
    pairs without a limit, the fourth with one."""
    return [
        (lambda rng, p, s=s, a=a: search_request(rng, p, "1pt1s", limit, s, a), (p,))
        for i, p in enumerate((5, 7, 11, 13))
        for j, (s, a) in enumerate(_SIGN_ALPHA)
        if (j == i) == (limit is not None)
    ]


# Each slot is (request builder, primes[, FIXED]); one request per prime
# listed.  The seed changes nothing that sets a request's cost (prime,
# family, fixed point count, expansion order), so every seed costs the
# same.  The GF(p) battery's cost also depends on the rotation numbers
# (small ones give sparse series), so its slots are FIXED: their inputs
# come from the slot, not the seed.
# Each deck has a block of requests of one cost around its median and
# another around its 90th percentile, so that req_p50_ms and req_p90_ms
# read one kind of request rather than the edge between two.
DECKS = {
    "field": [
        # below the median block: p = 11-19, every family and command
        (_fam(gsign_request, "cp2-line"), (11, 13)),
        (_fam(gsign_request, "s4"), (11, 13)),
        (_fam(gsign_request, "s4#s4"), (13,)),
        (_fam(gsign_request, "cp2"), (11, 13)),
        (_fam(check_gsign_request, "cp2"), (11, 13)),
        (_fam(gsign_request, "triple"), (11,)),
        (_fam(gsign_request, "cp2#cp2bar"), (11, 13)),
        (_fam(gsign_request, "cp2bar"), (17, 19)),
        (_fam(check_gsign_request, "s4#s4"), (19,)),
        (_fam(check_gsign_request, "triple"), (17,)),
        (_fam(gsign_request, "bar#bar"), (17,)),
        (_fam(dimension_request, "good"), (11, 13)),
        (_fam(dimension_request, "nonint"), (11,)),
        # the median block
        (_fam(gsign_request, "cp2"), (23,) * 10),
        # between the blocks
        (_fam(dimension_request, "nonint"), (19, 23)),
        (_fam(dimension_request, "good"), (19, 23, 29)),
        (_fam(check_gsign_request, "s4#s4"), (29,)),
        (_fam(gsign_request, "cp2#cp2bar"), (23,)),
        (_fam(gsign_request, "bar#bar"), (29,)),
        (_fam(gsign_request, "cp2bar"), (41,)),
        (_fam(gsign_request, "cp2"), (37,)),
        (_fam(gsign_request, "triple"), (31,)),
        (_fam(check_gsign_request, "triple"), (37,)),
        # the 90th-percentile block, about 0.2 s each
        (_fam(gsign_request, "cp2#cp2bar"), (43,)),
        (_fam(dimension_request, "good"), (37, 37)),
        (_fam(gsign_request, "s4"), (59,)),
        (_fam(gsign_request, "cp2"), (53, 53)),
        (_fam(dimension_request, "nonint"), (41,)),
        # the tail
        (_fam(gsign_request, "cp2"), (101,)),
    ],
    "battery": [
        # below the median block: bundle checks, solves, count perturbations, order-10 expansions
        (_fam(line_request, "cp2"), (97, 401)),
        (_fam(line_request, "cp2-line"), (199,)),
        (_fam(line_request, "bad"), (113,)),
        (_fam(su2_request, "s4"), (101, 601)),
        (_fam(su2_request, "cp2bar"), (211,)),
        (_fam(su2_request, "bad"), (109,)),
        (_fam(solve_request, "cp2"), (103, 223)),
        (_fam(solve_request, "cp2-line"), (107,)),
        (_fam(solve_request, "free"), (419,)),
        (_fam(perturbed_request, "count"), (109, 409, 997), FIXED),
        *_expand_slots((10,)),
        # the median block: the series engine at orders 20-80, with the
        # GF(p) battery at p ~ 100 among them
        *_expand_slots((20, 40, 40, 80)),
        (_fam(rotation_request, "cp2"), (97,), FIXED),
        (_fam(perturbed_request, "rotation"), (101,), FIXED),
        (_fam(perturbed_request, "sign"), (103,), FIXED),
        # between the blocks
        (_fam(rotation_request, "cp2"), (199,), FIXED),
        (_fam(rotation_request, "s4"), (211,), FIXED),
        (_fam(rotation_request, "cp2bar"), (223,), FIXED),
        (_fam(rotation_request, "cp2#cp2bar"), (199,), FIXED),
        (_fam(rotation_request, "triple"), (211,), FIXED),
        (_fam(rotation_request, "s4#s4"), (227,), FIXED),
        (_fam(rotation_request, "bar#bar"), (223,), FIXED),
        # the 90th-percentile block: the GF(p) battery at p = 401
        (_fam(rotation_request, "cp2"), (401,) * 5, FIXED),
        (_fam(perturbed_request, "rotation"), (401,), FIXED),
        (_fam(perturbed_request, "sign"), (401,), FIXED),
        # the tail: two fixed sets at p = 997 and three at p = 601, kept
        # short because one long request is timed less precisely
        (_fam(rotation_request, "cp2"), (601,), FIXED),
        (_fam(rotation_request, "s4"), (997,), FIXED),
    ],
    "search": [
        # below the median block
        *_search_1pt1s(),
        *_search_1pt1s(limit=1),
        (_fam(search_request, "3pt"), (5, 5)),
        # the median block
        (_fam(search_request, "3pt"), (7,) * 12),
        # between the blocks
        (lambda rng, p: search_request(rng, p, "3pt", limit=1), (11, 11, 13, 13)),
        # the 90th-percentile block, then the tail
        (_fam(search_request, "3pt"), (11,) * 8),
        (_fam(search_request, "3pt"), (13, 13)),
    ],
    "session": [
        (_fam(rotation_request, "triple"), (5, 7, 11, 13)),
        (_fam(rotation_request, "cp2"), (7, 13)),
        (_fam(gsign_request, "triple"), (5, 7, 11)),
        (_fam(gsign_request, "cp2"), (5, 13)),
        (_fam(triple_lift_request, 1), (5, 5)),
        (_fam(triple_lift_request, 2), (5, 5)),
        (_fam(dimension_request, "good"), (5, 7)),
        (_fam(dimension_request, "nonint"), (5, 11)),
        (_fam(solve_request, "cp2"), (5, 7, 13)),
        (_fam(solve_request, "cp2-line"), (5, 11)),
        (_fam(solve_request, "free"), (7,)),
        (_fam(line_request, "cp2"), (7, 11)),
        (_fam(line_request, "cp2-line"), (5,)),
        (_fam(line_request, "bad"), (13,)),
        (_fam(su2_request, "s4"), (7, 13)),
        (_fam(su2_request, "cp2bar"), (5, 11)),
        (_fam(su2_request, "bad"), (7,)),
        *[(lambda rng, p, k=k: expand_request(rng, p, k, 4), (5, 7)) for k in EXPAND_KINDS],
        (_fam(sum_request, "spheres"), (5, 7, 11)),
        (_fam(sum_request, "points"), (5, 13)),
        (_fam(search_request, "1pt1s"), (5, 7)),
        (lambda rng, p: search_request(rng, p, "3pt"), (5,)),
        *[(build, (7,)) for build in SESSION_ERRORS],
    ],
}


def build_deck(workload: str, seed: int, size: str = "full") -> list[Request]:
    """The workload's requests for `seed`, in the order they are sent.

    `smoke` keeps, for each request tag, the one at the smallest prime:
    every request type and expected exit code, at the lowest cost."""
    rng = random.Random(f"{workload}:{seed}")
    deck = []
    for build, primes, *fixed in DECKS[workload]:
        for p in primes:
            rid = f"{workload}-{len(deck):03d}"
            req = build(random.Random(rid) if fixed else rng, p)
            req.rid = rid
            deck.append(req)
    rng.shuffle(deck)
    if size == "smoke":
        cheapest = {}
        for req in deck:
            if req.tag not in cheapest or req.p < cheapest[req.tag].p:
                cheapest[req.tag] = req
        deck = [req for req in deck if cheapest[req.tag] is req]
    return deck


# -- output checks -------------------------------------------------------------


def answer_digest(code: int, text: str) -> str:
    """Digest of what a request answered.  Keys outside the answer are
    left out, so additions the roadmap plans (a `stats` key, more
    fields on relation records) and the wording of error messages do
    not change it; exit code, verdicts and values do."""
    text = text.strip()
    obj = json.loads(text) if text else None
    if isinstance(obj, dict):
        dropped = {"stats", "error"} if code in (2, 3) else {"stats"}
        obj = {k: v for k, v in obj.items() if k not in dropped}
        if isinstance(obj.get("records"), list):
            keys = ("name", "lhs", "required", "passed")
            obj["records"] = [{k: r.get(k) for k in keys} for r in obj["records"]]
    blob = json.dumps([code, obj], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_output(req: Request, code, text: str) -> Optional[str]:
    """None when the exit code and output match the request's
    expectation, otherwise a one-line reason."""
    if code != req.expect:
        return f"exit {code}, expected {req.expect}"
    text = text.strip()
    try:
        obj = json.loads(text) if text else None
    except ValueError:
        return "output is not one JSON object"
    if code in (2, 3):
        if obj is not None and obj.get("ok") is not False:
            return "error exit without an ok=false object"
        return None
    if not isinstance(obj, dict):
        return "no JSON object on stdout"
    return req.check(obj) if req.check else None
