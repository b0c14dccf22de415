"""Truncated power series in s = t - 1 over Q.

Every signature integrand, multiplied by (t-1)^2 to clear its pole,
expands here.  Each fixed-point term is read from its one description
in `cyclotomic`: a sparse numerator sum c * t^e, the units u_r with
t^r - 1 = s * u_r, and the pole order k.  `_expand` sums the binomial
series c * (1 + s)^e, divides by prod_r u_r and multiplies by s^(2-k);
no closed-form coefficient tables are used.

Coefficients are exact rationals, held as integers until the answer:
each division by a unit gives integers over per-coefficient
denominators, cleared to their least common one before the next, and
the terms are summed over one denominator, so one `Fraction` is built
per coefficient at the end.  This is the engine of `expand` only.
`expand --p` reads the coefficients mod p through `exact_arith._mod_p`,
which is legitimate because every coefficient is an integer divided by
a product of powers of the rotation numbers, units mod p.  The bundle
checks in `congruence` use closed forms of the first three.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._poly import cleared, convolve
from .cyclotomic import _boundary, _point, _sphere, _twist, _zero_rotation
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
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs[: order + 1]]
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
# Inside `_expand` a series is a list of order+1 integers over one denominator.


def _div(x: list[int], y: list[int]) -> list[int]:
    """x / y for an integral unit y, through the length of x, as integers:
    coefficient k of the quotient is B_k / (D * y_0^(k+1)), D the common
    denominator of x.

    Runs the recurrence y_0 q_k = x_k - sum_{j=1..k} y_j q_(k-j) (only
    j <= deg(y) contributes) on B_k = q_k * y_0^(k+1), so every
    intermediate is an integer.
    """
    if y[0] == 0:
        raise NotAUnit("constant term is zero")
    y0, d = y[0], len(y) - 1
    while d > 0 and not y[d]:  # the degree of y
        d -= 1
    scaled = [0]  # y_j * y0^(j-1)
    for j in range(1, d + 1):
        scaled.append(y[j] * y0 ** (j - 1))
    big = []
    top = 1  # y0^k
    for k in range(len(x)):
        acc = x[k] * top
        for j in range(1, min(k, d) + 1):
            acc -= scaled[j] * big[k - j]
        big.append(acc)
        top *= y0
    return big


def _over_one_denominator(big: list[int], den: int, y0: int) -> tuple[list[int], int]:
    """The quotients big[k] / (den * y0^(k+1)) of `_div`, y0 > 0, over their least
    common denominator: den * y0^len(big) over its gcd with every numerator on it."""
    nums = []
    pw = 1  # y0^(len(big)-1-k)
    for b in reversed(big):
        nums.append(b * pw)
        pw *= y0
    g = gcd(den * pw, *nums)
    return [v // g for v in reversed(nums)], den * pw // g


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
    each numerator divided by prod_r u_r and shifted by s^(2-k).  Every
    unit is nonzero: the `expand_*` functions refuse a zero rotation
    first, even where the numerator cancels.

    A negative unit is u_r = -t^r * u_|r|, so 1/u_r = -t^|r| / u_|r|:
    the factor -t^|r| moves into the numerator and every divisor is the
    polynomial u_|r| = sum_j C(|r|, j+1) s^j of degree |r| - 1.  One
    division costs O(order * min(|r|, order)), not the O(order^2) of an
    infinite series.
    """
    n = order + 1
    total, total_den = [0] * n, 1
    for num, units, k in terms:
        for r in units:
            if r < 0:
                num = [(e - r, -c) for e, c in num]
        x = _powers(num, n)
        if not any(x):
            continue  # the numerator cancels: nothing to divide
        den = 1
        for r in map(abs, units):  # t^r - 1 = s * u_r
            x, den = _over_one_denominator(_div(x, _powers([(r, 1), (0, -1)], n + 1)[1:]), den, r)
        x = ([0] * (2 - k) + x)[:n]
        common = lcm(total_den, den)
        u, v = common // total_den, common // den
        total, total_den = [a * u + b * v for a, b in zip(total, x)], common
    return PowerSeries(tuple(Fraction(c, total_den) for c in total), order)


def series_mul(x: PowerSeries, y: PowerSeries) -> PowerSeries:
    n = min(x.order, y.order)
    ax, da = cleared(x.coeffs[: n + 1])
    bx, db = cleared(y.coeffs[: n + 1])
    return PowerSeries(tuple(Fraction(v, da * db) for v in convolve(ax, bx, upto=n)), n)


def series_invert_unit(x: PowerSeries) -> PowerSeries:
    """Inverse of a unit series: x * result = 1 + O(s^(order+1))."""
    ay, dy = cleared(x.coeffs)
    big = _div([dy] + [0] * x.order, ay)  # 1/x = dy/ay
    return PowerSeries(tuple(Fraction(b, ay[0] ** (k + 1)) for k, b in enumerate(big)), x.order)


# -- the fixed-point expansions ----------------------------------------------


def _nonzero(*rotations: int) -> None:
    """A point's two rotations or a sphere's one nonzero, worded as
    `cyclotomic` words them mod p."""
    if 0 in rotations:
        raise _zero_rotation(rotations)


def expand_point_term(a: int, b: int, lam: int, order: int) -> PowerSeries:
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)) * (t-1)^2 * t^lam.

    The two s factors cancel the pole, so the result is a genuine
    series; its constant term is 4/(a*b).
    """
    _nonzero(a, b)
    return _expand([_twist(_point(a, b), [(lam, 1)])], order)


def expand_sphere_term(c: int, alpha: int, lam: int, order: int) -> PowerSeries:
    """-4*alpha*t^c / (t^c-1)^2 * (t-1)^2 * t^lam; constant -4*alpha/c^2."""
    _nonzero(c)
    return _expand([_twist(_sphere(c, alpha), [(lam, 1)])], order)


def expand_boundary_term(c: int, m: int, lam: int, order: int) -> PowerSeries:
    """2m(t^c+1)/(t^c-1) * (t-1)^2 * t^lam.

    One s factor survives, so the constant term is always zero and the
    s^1 coefficient is 4m/c.
    """
    _nonzero(c)
    return _expand([_twist(_boundary(c, m), [(lam, 1)])], order)


def expand_su2_point_term(a: int, b: int, ell: int, order: int) -> PowerSeries:
    """Point term times the rank-two character t^ell + t^(-ell)."""
    _nonzero(a, b)
    return _expand([_twist(_point(a, b), [(ell, 1), (-ell, 1)])], order)


def expand_su2_sphere_term(c: int, alpha: int, m: int, ell: int, order: int) -> PowerSeries:
    """Sphere contribution for a rank-two bundle:

        [-4*alpha*t^c/(t^c-1)^2 * (t^ell + t^-ell)
         + 2m*(t^c+1)/(t^c-1) * (t^ell - t^-ell)] * (t-1)^2.

    The m part carries t^ell - t^-ell = s*(u_ell - u_-ell), so it only
    enters at s^2 and beyond.
    """
    _nonzero(c)
    terms = [
        _twist(_sphere(c, alpha), [(ell, 1), (-ell, 1)]),
        _twist(_boundary(c, m), [(ell, 1), (-ell, -1)]),
    ]
    return _expand(terms, order)
