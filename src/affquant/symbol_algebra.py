"""Exact algebra of exponential-polynomial symbols on the (p, q) plane.

A symbol is a finite sum  sum_{m,k} c_{m,k} p^m e^{kq}  with m a non-negative
integer, k an integer frequency and c_{m,k} a Gaussian rational.  This family
is closed under products and partial derivatives, and every p-derivative
lowers the p-degree, so the Moyal star-product series terminates after
deg_p(u) + deg_p(v) terms and can be evaluated exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

from .rational import ComplexRational


class ExpPolySymbol:
    """Finite map (m, k) -> coefficient, representing sum c p^m e^{kq}.

    Instances are immutable and kept in canonical form: zero coefficients
    are never stored, so ``==`` is exact coefficient-wise equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        for (m, k), c in (terms or {}).items():
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"p-power must be a non-negative integer, got {m!r}")
            if not isinstance(k, int):
                raise ValueError(f"q-frequency must be an integer, got {k!r}")
            cr = ComplexRational.from_value(c)
            if cr:
                canon[(m, k)] = cr
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPolySymbol is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPolySymbol":
        return cls({})

    @classmethod
    def one(cls) -> "ExpPolySymbol":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, m: int, k: int, coeff=1) -> "ExpPolySymbol":
        """The single term coeff * p^m * e^{kq}."""
        return cls({(m, k): coeff})

    @classmethod
    def p(cls) -> "ExpPolySymbol":
        return cls.monomial(1, 0)

    @classmethod
    def exp_q(cls, k: int = 1) -> "ExpPolySymbol":
        return cls.monomial(0, k)

    # -- structure ------------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, m: int, k: int) -> ComplexRational:
        return self._terms.get((m, k), ComplexRational(0))

    def deg_p(self) -> int:
        """Highest p-power present; -1 for the zero symbol."""
        if not self._terms:
            return -1
        return max(m for (m, _k) in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExpPolySymbol):
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, ComplexRational(0)) + c
        return ExpPolySymbol(terms)

    def __sub__(self, other):
        if not isinstance(other, ExpPolySymbol):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExpPolySymbol({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExpPolySymbol):
            terms = {}
            for (m1, k1), c1 in self._terms.items():
                for (m2, k2), c2 in other._terms.items():
                    key = (m1 + m2, k1 + k2)
                    terms[key] = terms.get(key, ComplexRational(0)) + c1 * c2
            return ExpPolySymbol(terms)
        scalar = ComplexRational.from_value(other)
        return ExpPolySymbol({key: scalar * c for key, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExpPolySymbol):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "ExpPolySymbol(0)"
        parts = []
        for (m, k) in sorted(self._terms):
            c = self._terms[(m, k)]
            factors = [f"({c})"]
            if m:
                factors.append("p" if m == 1 else f"p^{m}")
            if k:
                factors.append("e^q" if k == 1 else f"e^{{{k}q}}")
            parts.append("*".join(factors))
        return "ExpPolySymbol(" + " + ".join(parts) + ")"

    def evaluate(self, p_vals, q_vals):
        """Evaluate the symbol at numeric (broadcastable) arguments."""
        p_vals = np.asarray(p_vals)
        q_vals = np.asarray(q_vals)
        out = np.zeros(np.broadcast(p_vals, q_vals).shape, dtype=complex)
        for (m, k), c in self._terms.items():
            out = out + complex(c) * p_vals**m * np.exp(k * q_vals)
        return out


def derive(u: ExpPolySymbol, var: str, order: int = 1) -> ExpPolySymbol:
    """Exact partial derivative of order ``order`` along ``var`` in {"p", "q"}."""
    if var not in ("p", "q"):
        raise ValueError(f"unknown variable {var!r}; expected 'p' or 'q'")
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    terms = {}
    for (m, k), c in u.items():
        if var == "p":
            if m < order:
                continue
            # d^n/dp^n p^m = m!/(m-n)! p^{m-n}
            fall = Fraction(factorial(m), factorial(m - order))
            terms[(m - order, k)] = terms.get((m - order, k), ComplexRational(0)) + c * fall
        else:
            if k == 0 and order > 0:
                continue
            terms[(m, k)] = terms.get((m, k), ComplexRational(0)) + c * (k ** order)
    return ExpPolySymbol(terms)


def _integer_form(u: ExpPolySymbol):
    """u's terms as (m, k, a, b) with c_{m,k} = (a + b i) / den, and den.

    den is the lcm of all coefficient denominators, so a and b are integers.
    """
    den = 1
    for c in u._terms.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    terms = [(m, k, c.re.numerator * (den // c.re.denominator),
              c.im.numerator * (den // c.im.denominator))
             for (m, k), c in u._terms.items()]
    return terms, den


def _binomial_row(m: int, x: int) -> list:
    """Coefficients C(m, r) x^r of (1 + x t)^m, for r = 0..m."""
    return [comb(m, r) * x**r for r in range(m + 1)]


def _moyal_series(m1, k1, m2, k2):
    """S_r with (1/r!) P^r(p^m1 e^{k1 q}, p^m2 e^{k2 q}) = S_r p^{m1+m2-r} e^{(k1+k2)q}.

    S_r = sum_j C(m1, j) C(m2, r-j) k2^j (-k1)^{r-j}, the t^r coefficient of
    (1 + k2 t)^m1 (1 - k1 t)^m2, because
    C(r, j) m1!/(m1-j)! m2!/(m2-r+j)! = r! C(m1, j) C(m2, r-j).
    """
    left, right = _binomial_row(m1, k2), _binomial_row(m2, -k1)
    out = [0] * (m1 + m2 + 1)
    for j, x in enumerate(left):
        if x:
            for i, y in enumerate(right):
                out[i + j] += x * y
    return out


def _normal_series(m1, k1, m2, k2):
    """S_r with (1/r!) dp^r(p^m1 e^{k1 q}) dq^r(p^m2 e^{k2 q}) = S_r p^{m1+m2-r} e^{(k1+k2)q}."""
    return _binomial_row(m1, k2)


def _contract(u, v, series, weights: dict, den: int = 1) -> ExpPolySymbol:
    """The exact product engine behind p_r, star, star_commutator and compose.

    Returns the sum over term pairs of c1 c2 sum_r (w_r / den) S_r
    p^{m1+m2-r} e^{(k1+k2)q}, with S_r = series(m1, k1, m2, k2)[r] and w_r
    the Gaussian integer ``weights[r]`` as (re, im); orders missing from
    ``weights`` are skipped.  Each operand is brought once to integer
    numerators over one denominator, all sums are taken in Gaussian integers,
    and each output coefficient becomes one pair of Fractions at the end
    (the constructor drops those that cancelled to zero).
    """
    tu, du = _integer_form(u)
    tv, dv = _integer_form(v)
    acc = {}
    for m1, k1, a1, b1 in tu:
        for m2, k2, a2, b2 in tv:
            g_re, g_im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            m, k = m1 + m2, k1 + k2
            for r, s in enumerate(series(m1, k1, m2, k2)):
                w = weights.get(r)
                if not s or w is None:
                    continue
                re = s * (g_re * w[0] - g_im * w[1])
                im = s * (g_re * w[1] + g_im * w[0])
                cell = acc.get((m - r, k))
                if cell is None:
                    acc[(m - r, k)] = [re, im]
                else:
                    cell[0] += re
                    cell[1] += im
    den *= du * dv
    return ExpPolySymbol({key: ComplexRational(Fraction(re, den), Fraction(im, den))
                          for key, (re, im) in acc.items()})


def _star_weights(r_max: int, orders, times: int = 1) -> dict:
    """w_r = times (-i)^r 2^(r_max - r), so w_r / 2^r_max = times (1/2i)^r."""
    weights = {}
    for r in orders:
        scale = times << (r_max - r)
        weights[r] = ((scale, 0), (0, -scale), (-scale, 0), (0, scale))[r % 4]
    return weights


def p_r(u: ExpPolySymbol, v: ExpPolySymbol, r: int) -> ExpPolySymbol:
    """The r-fold bidifferential contraction against the constant tensor.

    In two dimensions the contraction collapses to the binomial expansion

        P^r(u, v) = sum_j C(r, j) (-1)^{r-j} dp^j dq^{r-j} u * dp^{r-j} dq^j v,

    with P^0(u, v) = u v and P^1 the Poisson bracket.  Per pair of terms it
    is r! S_r p^{m1+m2-r} e^{(k1+k2)q} (see ``_moyal_series``).
    """
    if r < 0:
        raise ValueError("order r must be non-negative")
    return _contract(u, v, _moyal_series, {r: (factorial(r), 0)})


def poisson(u: ExpPolySymbol, v: ExpPolySymbol) -> ExpPolySymbol:
    """Poisson bracket {u, v} = dp(u) dq(v) - dq(u) dp(v) (equals p_r(u, v, 1))."""
    return p_r(u, v, 1)


def star(u: ExpPolySymbol, v: ExpPolySymbol) -> ExpPolySymbol:
    """Moyal star-product u * v + sum_{r>=1} (1/r!) (1/2i)^r P^r(u, v).

    On this algebra every P^r with r > deg_p(u) + deg_p(v) vanishes, so the
    series is a finite sum and the result is exact.
    """
    r_max = max(u.deg_p() + v.deg_p(), 0)
    return _contract(u, v, _moyal_series, _star_weights(r_max, range(r_max + 1)), 1 << r_max)


def star_commutator(u: ExpPolySymbol, v: ExpPolySymbol) -> ExpPolySymbol:
    """star(u, v) - star(v, u).

    P^r(v, u) = (-1)^r P^r(u, v), so only the odd orders remain, doubled.
    """
    r_max = max(u.deg_p() + v.deg_p(), 0)
    return _contract(u, v, _moyal_series, _star_weights(r_max, range(1, r_max + 1, 2), 2),
                     1 << r_max)


def compose(a: ExpPolySymbol, b: ExpPolySymbol) -> ExpPolySymbol:
    """Normal-ordered product: the symbol of the operator A after B.

    Reading p^j e^{kq} as the operator e^{ks} d^j/ds^j, composition is
    a o b = sum_r (1/r!) dp^r a * dq^r b.  Per pair of terms the Leibniz rule
    d^j (e^{ks} w) = sum_i C(j, i) k^{j-i} e^{ks} d^i w gives the coefficient
    C(j1, r) k2^r of p^{j1+j2-r} e^{(k1+k2)s}.
    """
    return _contract(a, b, _normal_series, {r: (1, 0) for r in range(a.deg_p() + 1)})
