"""Integer-cleared arithmetic shared by `cyclotomic` and `series`.

Fraction-by-Fraction convolution spends most of its time normalizing
gcds.  Cyclotomic elements are stored as ints over one denominator,
and series are cleared once before a product or a division;
convolving over plain ints is an order of magnitude faster at the
vector lengths we use (up to ~100).
"""

from __future__ import annotations

from math import lcm

__all__ = ["cleared", "convolve"]


def cleared(coeffs) -> tuple[list[int], int]:
    """Return (ints, den) with coeffs[i] == ints[i] / den exactly."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def convolve(a: list[int], b: list[int], upto: int | None = None) -> list[int]:
    """Integer convolution; `upto` caps the highest retained index."""
    full = len(a) + len(b) - 1
    n = full if upto is None else min(upto + 1, full)
    if n <= 0:
        return []
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            out[i + j] += ai * b[j]
    return out
