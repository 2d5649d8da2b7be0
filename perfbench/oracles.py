"""Independent references for the exact star product, written apart from affquant.

A symbol sum c p^m e^{kq} is handled here as the Laurent polynomial
sum c p^m w^k with w = e^q, so d/dq acts as w d/dw and the Moyal series

    u * v = sum_r (1/r!) (1/2i)^r sum_j C(r, j) (-1)^(r-j)
                  dp^j dq^(r-j) u . dp^(r-j) dq^j v

can be evaluated without the package's symbol algebra.  Coefficients are
pairs (re, im) of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def terms_of(symbol) -> dict:
    """{(m, k): (re, im)} read from an ExpPolySymbol through its public items()."""
    return {key: (Fraction(c.re), Fraction(c.im)) for key, c in symbol.items()}


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _derivative_at(terms: dict, a: int, b: int, p0: Fraction, w0: Fraction):
    """Value of dp^a dq^b of the symbol at p = p0, e^q = w0."""
    re = im = Fraction(0)
    for (m, k), (cre, cim) in terms.items():
        if m < a:
            continue
        scale = Fraction(factorial(m), factorial(m - a)) * p0 ** (m - a) * Fraction(k) ** b * w0 ** k
        re += cre * scale
        im += cim * scale
    return re, im


def value_at(terms: dict, p0: Fraction, w0: Fraction):
    return _derivative_at(terms, 0, 0, p0, w0)


def moyal_at(u: dict, v: dict, p0: Fraction, w0: Fraction):
    """The Moyal series of u and v evaluated exactly at one point."""
    deg = max((m for m, _ in u), default=0) + max((m for m, _ in v), default=0)
    total = (Fraction(0), Fraction(0))
    weight = (Fraction(1), Fraction(0))  # (1/2i)^r / r!
    for r in range(deg + 1):
        if r:
            weight = _mul(weight, (Fraction(0), Fraction(-1, 2 * r)))
        inner = (Fraction(0), Fraction(0))
        for j in range(r + 1):
            sign = comb(r, j) * (-1) ** (r - j)
            prod = _mul(_derivative_at(u, j, r - j, p0, w0),
                        _derivative_at(v, r - j, j, p0, w0))
            inner = (inner[0] + sign * prod[0], inner[1] + sign * prod[1])
        prod = _mul(weight, inner)
        total = (total[0] + prod[0], total[1] + prod[1])
    return total


def sympy_star_matches(u: dict, v: dict, result: dict) -> bool:
    """Whether the full Moyal series, expanded by sympy, equals ``result``.

    Works in sympy's sparse ring Q(i)[p, w]; a symbol is stored times
    w^SHIFT so negative frequencies become ordinary powers, and d/dq acts on
    the stored polynomial as w d/dw - SHIFT.
    """
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    shift = max([0] + [-k for terms in (u, v) for _, k in terms])
    if any(k + 2 * shift < 0 for _, k in result):
        return False
    _, p, w = ring("p,w", QQ_I)

    def poly(terms, times):
        out = p.ring.zero
        for (m, k), (re, im) in terms.items():
            coeff = QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))
            out += coeff * p ** m * w ** (k + times * shift)
        return out

    def d(e, a, b):
        for _ in range(a):
            e = e.diff(p)
        for _ in range(b):
            e = w * e.diff(w) - shift * e
        return e

    pu, pv = poly(u, 1), poly(v, 1)
    deg = max((m for m, _ in u), default=0) + max((m for m, _ in v), default=0)
    series = p.ring.zero
    weight = QQ_I(1, 0)
    for r in range(deg + 1):
        if r:
            weight = weight * QQ_I(0, QQ(-1, 2 * r))
        for j in range(r + 1):
            series += weight * (comb(r, j) * (-1) ** (r - j)) * d(pu, j, r - j) * d(pv, r - j, j)
    return series == poly(result, 2)
