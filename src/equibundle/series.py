"""Truncated power series in s = t - 1 over Q or GF(p).

Every signature integrand, multiplied by (t-1)^2 to clear its pole,
expands here.  The factor t^a - 1 is handled as s * u_a where u_a is a
unit with constant term a, so each expansion is a product of binomial
series divided by units; no closed-form coefficient tables are used.

Each expansion is written once, over a coefficient ring the caller
picks: ``QQ`` (exact rationals, returned as a PowerSeries) or ``GF(p)``
(ints in [0, p), returned as a list).  Reducing mod p is legitimate
because every coefficient is an integer divided by a product of powers
of the rotation numbers, which are units mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._poly import cleared, convolve
from .cyclotomic import ZeroRotation

__all__ = [
    "PowerSeries",
    "NotAUnit",
    "QQ",
    "GF",
    "series_add",
    "series_sub",
    "series_mul",
    "series_scale",
    "series_invert_unit",
    "expand_binomial_power",
    "expand_point_term",
    "expand_sphere_term",
    "expand_boundary_term",
    "expand_su2_point_term",
    "expand_su2_sphere_term",
]


class NotAUnit(ArithmeticError):
    """Inversion requested for a series with zero constant term."""


@dataclass(frozen=True)
class PowerSeries:
    """Sum of coeffs[k] * s^k, exact through s^order."""

    coeffs: tuple[Fraction, ...]
    order: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")
        cs = [Fraction(c) for c in self.coeffs[: self.order + 1]]
        cs.extend([Fraction(0)] * (self.order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def coeff(self, k: int) -> Fraction:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return series_add(self, other)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return series_sub(self, other)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            return series_mul(self, other)
        return series_scale(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "PowerSeries":
        return series_scale(self, -1)

    def __str__(self) -> str:
        parts = [f"{c}*s^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(s^{self.order + 1})"


# -- coefficient rings -------------------------------------------------------
# A series is a list of order+1 coefficients.  A ring reduces integer
# combinations of its elements, multiplies truncated series, divides a
# series by a unit, and wraps a finished expansion for the caller.
# Division runs the recurrence y_0 q_k = x_k - sum_{j=1..k} y_j q_(k-j);
# only j <= deg(y) contributes.


def _degree(coeffs) -> int:
    d = len(coeffs) - 1
    while d > 0 and not coeffs[d]:
        d -= 1
    return d


class _Rationals:
    """Q: coefficients are Fractions or ints; expansions are PowerSeries."""

    def reduce(self, xs: list) -> list:
        return xs

    def mul(self, x, y) -> list:
        ax, da = cleared(x)
        bx, db = cleared(y)
        den = da * db
        return [Fraction(v, den) for v in convolve(ax, bx, upto=len(x) - 1)]

    def div(self, x, y) -> list:
        """Runs the recurrence on denominator-cleared copies X, Y; with
        B_k = (X/Y)_k * Y_0^(k+1) every intermediate is an integer."""
        if y[0] == 0:
            raise NotAUnit("constant term is zero")
        ax, dx = cleared(x)
        ay, dy = cleared(y)
        y0, d = ay[0], _degree(ay)
        big = []
        top = 1  # y0^k
        for k in range(len(ax)):
            acc = ax[k] * top
            pw = 1  # y0^(j-1)
            for j in range(1, min(k, d) + 1):
                if ay[j]:
                    acc -= ay[j] * big[k - j] * pw
                pw *= y0
            big.append(acc)
            top *= y0
        out = []
        pw = dx * y0
        for b in big:
            out.append(Fraction(dy * b, pw))
            pw *= y0
        return out

    def series(self, coeffs: list, order: int) -> PowerSeries:
        return PowerSeries(tuple(coeffs), order)


class GF:
    """GF(p): coefficients are ints in [0, p); expansions are lists."""

    def __init__(self, p: int) -> None:
        self.p = p

    def reduce(self, xs: list) -> list:
        p = self.p
        return [c % p for c in xs]

    def mul(self, x, y) -> list:
        return self.reduce(convolve(x, y, upto=len(x) - 1))

    def div(self, x, y) -> list:
        p = self.p
        if y[0] % p == 0:
            raise NotAUnit(f"constant term is zero mod {p}")
        inv0, d = pow(y[0], -1, p), _degree(y)
        q = []
        for k, acc in enumerate(x):
            for j in range(1, min(k, d) + 1):
                acc -= y[j] * q[k - j]
            q.append(acc * inv0 % p)
        return q

    def series(self, coeffs: list, order: int) -> list:
        return coeffs


QQ = _Rationals()


def _binomial(ring, e: int, count: int) -> list:
    """C(e, k) for k < count, the coefficients of (1 + s)^e.

    C(e, k) = C(e, k-1) * (e-k+1) / k divides exactly in Z for every
    integer e, negative ones included.
    """
    out = [1]
    c = 1
    for k in range(1, count):
        c = c * (e - k + 1) // k
        out.append(c)
    return ring.reduce(out)


def _unit(ring, a: int, n: int) -> list:
    """u_a with t^a - 1 = s * u_a; coefficients C(a, k+1).  u_0 is zero."""
    return _binomial(ring, a, n + 2)[1:]


def _add(ring, x: list, y: list) -> list:
    return ring.reduce([u + v for u, v in zip(x, y)])


def _scale(ring, x: list, q) -> list:
    return ring.reduce([c * q for c in x])


def _plus_one(ring, x: list) -> list:
    return ring.reduce([x[0] + 1, *x[1:]])


def _shift(x: list, k: int) -> list:
    """Multiply by s^k, truncating at the original order."""
    return [0] * k + x[: len(x) - k]


# -- exact series over Q -----------------------------------------------------


def zero_series(order: int) -> PowerSeries:
    return PowerSeries((), order)


def const_series(q, order: int) -> PowerSeries:
    return PowerSeries((Fraction(q),), order)


def series_add(x: PowerSeries, y: PowerSeries) -> PowerSeries:
    n = min(x.order, y.order)
    return PowerSeries(tuple(x.coeffs[k] + y.coeffs[k] for k in range(n + 1)), n)


def series_sub(x: PowerSeries, y: PowerSeries) -> PowerSeries:
    n = min(x.order, y.order)
    return PowerSeries(tuple(x.coeffs[k] - y.coeffs[k] for k in range(n + 1)), n)


def series_scale(x: PowerSeries, q) -> PowerSeries:
    q = Fraction(q)
    return PowerSeries(tuple(c * q for c in x.coeffs), x.order)


def series_mul(x: PowerSeries, y: PowerSeries) -> PowerSeries:
    n = min(x.order, y.order)
    return PowerSeries(tuple(QQ.mul(x.coeffs[: n + 1], y.coeffs[: n + 1])), n)


def series_invert_unit(x: PowerSeries) -> PowerSeries:
    """Inverse of a unit series: x * result = 1 + O(s^(order+1))."""
    return PowerSeries(tuple(QQ.div([1] + [0] * x.order, x.coeffs)), x.order)


# -- the fixed-point expansions, over the caller's ring ----------------------


def expand_binomial_power(exponent: int, order: int, ring=QQ):
    """(1 + s)^exponent for any integer exponent."""
    return ring.series(_binomial(ring, exponent, order + 1), order)


def expand_point_term(a: int, b: int, lam: int, order: int, ring=QQ):
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)) * (t-1)^2 * t^lam.

    The two s factors cancel the pole, so the result is a genuine
    series; its constant term is 4/(a*b).
    """
    if a == 0 or b == 0:
        raise ZeroRotation(f"rotation numbers ({a}, {b}) must be nonzero")
    n = order + 1
    num = ring.mul(
        _add(ring, _binomial(ring, a + lam, n), _binomial(ring, lam, n)),
        _plus_one(ring, _binomial(ring, b, n)),
    )
    den = ring.mul(_unit(ring, a, order), _unit(ring, b, order))
    return ring.series(ring.div(num, den), order)


def expand_sphere_term(c: int, alpha: int, lam: int, order: int, ring=QQ):
    """-4*alpha*t^c / (t^c-1)^2 * (t-1)^2 * t^lam; constant -4*alpha/c^2."""
    if c == 0:
        raise ZeroRotation("normal rotation must be nonzero")
    if alpha == 0:
        return ring.series([0] * (order + 1), order)
    u = _unit(ring, c, order)
    core = ring.div(_binomial(ring, c + lam, order + 1), ring.mul(u, u))
    return ring.series(_scale(ring, core, -4 * alpha), order)


def expand_boundary_term(c: int, m: int, lam: int, order: int, ring=QQ):
    """2m(t^c+1)/(t^c-1) * (t-1)^2 * t^lam.

    One s factor survives, so the constant term is always zero and the
    s^1 coefficient is 4m/c.
    """
    if c == 0:
        raise ZeroRotation("normal rotation must be nonzero")
    if m == 0:
        return ring.series([0] * (order + 1), order)
    n = order + 1
    num = ring.mul(_plus_one(ring, _binomial(ring, c, n)), _binomial(ring, lam, n))
    inner = ring.div(num, _unit(ring, c, order))
    return ring.series(_shift(_scale(ring, inner, 2 * m), 1), order)


def expand_su2_point_term(a: int, b: int, ell: int, order: int, ring=QQ):
    """Point term times the rank-two character t^ell + t^(-ell)."""
    if a == 0 or b == 0:
        raise ZeroRotation(f"rotation numbers ({a}, {b}) must be nonzero")
    n = order + 1
    wts = _add(ring, _binomial(ring, ell, n), _binomial(ring, -ell, n))
    num = ring.mul(
        _plus_one(ring, _binomial(ring, a, n)), _plus_one(ring, _binomial(ring, b, n))
    )
    den = ring.mul(_unit(ring, a, order), _unit(ring, b, order))
    return ring.series(ring.div(ring.mul(num, wts), den), order)


def expand_su2_sphere_term(c: int, alpha: int, m: int, ell: int, order: int, ring=QQ):
    """Sphere contribution for a rank-two bundle:

        [-4*alpha*t^c/(t^c-1)^2 * (t^ell + t^-ell)
         + 2m*(t^c+1)/(t^c-1) * (t^ell - t^-ell)] * (t-1)^2.

    The m part carries t^ell - t^-ell = s*(u_ell - u_-ell), so it only
    enters at s^2 and beyond.
    """
    if c == 0:
        raise ZeroRotation("normal rotation must be nonzero")
    n = order + 1
    total = [0] * n
    u = _unit(ring, c, order)
    if alpha:
        wts = _add(ring, _binomial(ring, c + ell, n), _binomial(ring, c - ell, n))
        total = _scale(ring, ring.div(wts, ring.mul(u, u)), -4 * alpha)
    if m and ell:
        diff = ring.reduce(
            [x - y for x, y in zip(_unit(ring, ell, order), _unit(ring, -ell, order))]
        )
        inner = ring.div(ring.mul(_plus_one(ring, _binomial(ring, c, n)), diff), u)
        total = _add(ring, total, _shift(_scale(ring, inner, 2 * m), 2))
    return ring.series(total, order)
