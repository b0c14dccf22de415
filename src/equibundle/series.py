"""Truncated power series in s = t - 1 over Q.

Every signature integrand, multiplied by (t-1)^2 to clear its pole,
expands here.  Each fixed-point term is read from its one description
in `cyclotomic`: a sparse numerator sum c * t^e, the units u_r with
t^r - 1 = s * u_r, and the pole order k.  `_expand` sums the binomial
series c * (1 + s)^e, divides by prod_r u_r and multiplies by s^(2-k);
no closed-form coefficient tables are used.

Coefficients are exact rationals; this is the engine of `expand`
only.  `expand --p` reads them mod p through `exact_arith._mod_p`,
which is legitimate because every coefficient is an integer divided by
a product of powers of the rotation numbers, units mod p.  The bundle
checks in `congruence` use closed forms of the first three.
"""

from __future__ import annotations

from fractions import Fraction

from ._poly import cleared, convolve
from .cyclotomic import ZeroRotation, _boundary, _point, _sphere, _twist
from .exact_arith import _Record

__all__ = [
    "PowerSeries",
    "NotAUnit",
    "series_mul",
    "series_invert_unit",
    "expand_point_term",
    "expand_sphere_term",
    "expand_boundary_term",
    "expand_su2_point_term",
    "expand_su2_sphere_term",
]


class NotAUnit(ArithmeticError):
    """Inversion requested for a series with zero constant term."""


class PowerSeries(_Record):
    """Sum of coeffs[k] * s^k, exact through s^order.

    A result record, not a ring: `series_mul` is the one product.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: tuple, order: int):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self._set(tuple(cs), order)

    def coeff(self, k: int) -> Fraction:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __str__(self) -> str:
        parts = [f"{c}*s^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(s^{self.order + 1})"


# -- exact series over Q -----------------------------------------------------
# A series is a list of order+1 coefficients, ints or Fractions.


def _degree(coeffs) -> int:
    d = len(coeffs) - 1
    while d > 0 and not coeffs[d]:
        d -= 1
    return d


def _div(x, y) -> list[Fraction]:
    """x / y for a unit y, through the length of x.

    Runs the recurrence y_0 q_k = x_k - sum_{j=1..k} y_j q_(k-j) (only
    j <= deg(y) contributes) on denominator-cleared copies X, Y; with
    B_k = (X/Y)_k * Y_0^(k+1) every intermediate is an integer.
    """
    if y[0] == 0:
        raise NotAUnit("constant term is zero")
    ax, dx = cleared(x)
    ay, dy = cleared(y)
    y0, d = ay[0], _degree(ay)
    scaled = [0]  # Y_j * y0^(j-1)
    for j in range(1, d + 1):
        scaled.append(ay[j] * y0 ** (j - 1))
    big = []
    top = 1  # y0^k
    for k in range(len(ax)):
        acc = ax[k] * top
        for j in range(1, min(k, d) + 1):
            acc -= scaled[j] * big[k - j]
        big.append(acc)
        top *= y0
    out = []
    pw = dx * y0
    for b in big:
        out.append(Fraction(dy * b, pw))
        pw *= y0
    return out


def _powers(num, count: int) -> list[int]:
    """sum c * (1 + s)^e over the sparse num, through s^(count-1).

    C(e, j+1) = C(e, j) * (e-j) / (j+1) divides exactly in Z for every
    integer e, negative ones included.
    """
    out = [0] * count
    for e, c in num:
        for j in range(count):
            out[j] += c
            c = c * (e - j) // (j + 1)
    return out


def _expand(terms, order: int) -> PowerSeries:
    """Sum of the terms (num, units, k) times (t-1)^2 through s^order:
    each numerator divided by prod_r u_r and shifted by s^(2-k).  A zero
    rotation r is refused even where the numerator cancels.

    A negative unit is u_r = -t^r * u_|r|, so 1/u_r = -t^|r| / u_|r|:
    the factor -t^|r| moves into the numerator and every divisor is the
    polynomial u_|r| = sum_j C(|r|, j+1) s^j of degree |r| - 1.  One
    division costs O(order * min(|r|, order)), not the O(order^2) of an
    infinite series.
    """
    n = order + 1
    total = []
    for num, units, k in terms:
        if 0 in units:
            raise ZeroRotation(f"rotation numbers ({', '.join(map(str, units))}) must be nonzero")
        for r in units:
            if r < 0:
                num = [(e - r, -c) for e, c in num]
        x = _powers(num, n)
        if not any(x):
            continue  # the numerator cancels: nothing to divide
        for r in units:  # t^|r| - 1 = s * u_|r|
            x = _div(x, _powers([(abs(r), 1), (0, -1)], n + 1)[1:])
        x = ([0] * (2 - k) + x)[:n]
        total = [u + v for u, v in zip(total, x)] if total else x
    return PowerSeries(tuple(total), order)


def series_mul(x: PowerSeries, y: PowerSeries) -> PowerSeries:
    n = min(x.order, y.order)
    ax, da = cleared(x.coeffs[: n + 1])
    bx, db = cleared(y.coeffs[: n + 1])
    return PowerSeries(tuple(Fraction(v, da * db) for v in convolve(ax, bx, upto=n)), n)


def series_invert_unit(x: PowerSeries) -> PowerSeries:
    """Inverse of a unit series: x * result = 1 + O(s^(order+1))."""
    return PowerSeries(tuple(_div([1] + [0] * x.order, x.coeffs)), x.order)


# -- the fixed-point expansions ----------------------------------------------


def expand_point_term(a: int, b: int, lam: int, order: int) -> PowerSeries:
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)) * (t-1)^2 * t^lam.

    The two s factors cancel the pole, so the result is a genuine
    series; its constant term is 4/(a*b).
    """
    return _expand([_twist(_point(a, b), [(lam, 1)])], order)


def expand_sphere_term(c: int, alpha: int, lam: int, order: int) -> PowerSeries:
    """-4*alpha*t^c / (t^c-1)^2 * (t-1)^2 * t^lam; constant -4*alpha/c^2."""
    return _expand([_twist(_sphere(c, alpha), [(lam, 1)])], order)


def expand_boundary_term(c: int, m: int, lam: int, order: int) -> PowerSeries:
    """2m(t^c+1)/(t^c-1) * (t-1)^2 * t^lam.

    One s factor survives, so the constant term is always zero and the
    s^1 coefficient is 4m/c.
    """
    return _expand([_twist(_boundary(c, m), [(lam, 1)])], order)


def expand_su2_point_term(a: int, b: int, ell: int, order: int) -> PowerSeries:
    """Point term times the rank-two character t^ell + t^(-ell)."""
    return _expand([_twist(_point(a, b), [(ell, 1), (-ell, 1)])], order)


def expand_su2_sphere_term(c: int, alpha: int, m: int, ell: int, order: int) -> PowerSeries:
    """Sphere contribution for a rank-two bundle:

        [-4*alpha*t^c/(t^c-1)^2 * (t^ell + t^-ell)
         + 2m*(t^c+1)/(t^c-1) * (t^ell - t^-ell)] * (t-1)^2.

    The m part carries t^ell - t^-ell = s*(u_ell - u_-ell), so it only
    enters at s^2 and beyond.
    """
    terms = [
        _twist(_sphere(c, alpha), [(ell, 1), (-ell, 1)]),
        _twist(_boundary(c, m), [(ell, 1), (-ell, -1)]),
    ]
    return _expand(terms, order)
