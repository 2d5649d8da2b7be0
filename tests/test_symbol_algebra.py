import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from affquant import (ComplexRational, ExpPolySymbol, LieAlgebraElement,
                      bracket, compose, derive, hamiltonian, p_r, poisson, star,
                      star_commutator)
from affquant.rational import CR_HALF_OVER_I, CR_ONE

P = ExpPolySymbol.p()
EQ = ExpPolySymbol.exp_q()
I = ComplexRational(0, 1)


def rand_coeff(rng):
    return ComplexRational(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
                           Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))))


def rand_symbol(rng, max_m=3, max_k=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        key = (int(rng.integers(0, max_m + 1)), int(rng.integers(-max_k, max_k + 1)))
        terms[key] = rand_coeff(rng)
    return ExpPolySymbol(terms)


def _sympy_value(c):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def rand_element(rng):
    return LieAlgebraElement(
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))


def p_r_oracle(u, v, r):
    """Brute-force contraction over all 2^r index tuples.

    Weights: the (p, q) pair contributes +1 and (q, p) contributes -1, with
    the first index differentiating u and the second differentiating v.
    """
    if r == 0:
        return u * v
    total = ExpPolySymbol.zero()
    for pairs in itertools.product((("p", "q"), ("q", "p")), repeat=r):
        weight = 1
        du, dv = u, v
        for (i, j) in pairs:
            weight *= 1 if (i, j) == ("p", "q") else -1
            du = derive(du, i, 1)
            dv = derive(dv, j, 1)
        total = total + weight * (du * dv)
    return total


class TestComplexRational:
    def test_arithmetic(self):
        a = ComplexRational(Fraction(1, 2), Fraction(-1, 3))
        b = ComplexRational(2, 1)
        assert a + b == ComplexRational(Fraction(5, 2), Fraction(2, 3))
        assert a * b == ComplexRational(Fraction(4, 3), Fraction(-1, 6))
        assert (a / b) * b == a
        assert -a + a == ComplexRational(0)

    def test_power_of_expansion_parameter(self):
        assert CR_HALF_OVER_I ** 2 == ComplexRational(Fraction(-1, 4))
        assert CR_HALF_OVER_I ** 0 == CR_ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CR_ONE / ComplexRational(0)

    def test_hash_and_str(self):
        assert hash(ComplexRational(1, 2)) == hash(ComplexRational(1, 2))
        assert str(ComplexRational(Fraction(1, 2))) == "1/2"
        assert complex(ComplexRational(1, -2)) == 1 - 2j


class TestSymbolBasics:
    def test_canonical_form_prunes_zeros(self):
        s = ExpPolySymbol({(1, 0): 1, (0, 1): 0})
        assert dict(s.items()) == {(1, 0): CR_ONE}
        assert (s - s).is_zero()

    def test_invalid_keys_rejected(self):
        with pytest.raises(ValueError):
            ExpPolySymbol({(-1, 0): 1})
        with pytest.raises(ValueError):
            ExpPolySymbol({(0, 0.5): 1})

    def test_pointwise_product_convolves_exponents(self):
        s = ExpPolySymbol.monomial(2, 1, Fraction(1, 2)) * ExpPolySymbol.monomial(1, -3, 4)
        assert s == ExpPolySymbol.monomial(3, -2, 2)

    def test_evaluate_matches_terms(self):
        s = ExpPolySymbol({(1, 0): 2, (0, 1): -3})
        pv = np.linspace(-1, 1, 5)
        qv = np.linspace(-1, 1, 5)
        assert np.allclose(s.evaluate(pv, qv), 2 * pv - 3 * np.exp(qv))


class TestDerive:
    def test_monomial_power_rule(self):
        assert derive(ExpPolySymbol.monomial(2, 0), "p", 1) == ExpPolySymbol.monomial(1, 0, 2)

    def test_exponential_is_fixed(self):
        for n in range(5):
            assert derive(EQ, "q", n) == EQ

    def test_mixed_term(self):
        s = ExpPolySymbol.monomial(1, 2)  # p e^{2q}
        assert derive(s, "q", 2) == ExpPolySymbol.monomial(1, 2, 4)

    def test_invalid_variable(self):
        with pytest.raises(ValueError):
            derive(P, "x", 1)


class TestContractions:
    def test_first_order_is_poisson_bracket_of_hamiltonians(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            z, t = rand_element(rng), rand_element(rng)
            expected = ExpPolySymbol.monomial(0, 1, z.alpha * t.beta - t.alpha * z.beta)
            assert p_r(hamiltonian(z), hamiltonian(t), 1) == expected

    def test_second_order_vanishes_on_hamiltonians(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            zt, tt = hamiltonian(rand_element(rng)), hamiltonian(rand_element(rng))
            for k in range(2, 11):
                assert p_r(zt, tt, k).is_zero()

    def test_collapses_to_pure_p_q_split(self):
        # P^2(p^2, e^q) keeps only the dp^2 x dq^2 pairing
        assert p_r(ExpPolySymbol.monomial(2, 0), EQ, 2) == ExpPolySymbol.monomial(0, 1, 2)

    def test_against_brute_force_contraction(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            u, v = rand_symbol(rng, max_m=2), rand_symbol(rng, max_m=2)
            for r in range(4):
                assert p_r(u, v, r) == p_r_oracle(u, v, r)

    def test_vanishes_beyond_total_p_degree(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u, v = rand_symbol(rng, max_m=2), rand_symbol(rng, max_m=2)
            bound = u.deg_p() + v.deg_p()
            for r in range(max(bound + 1, 0), bound + 4):
                assert p_r(u, v, r).is_zero()

    def test_poisson_equals_first_contraction(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u, v = rand_symbol(rng), rand_symbol(rng)
            assert poisson(u, v) == p_r(u, v, 1)

    def test_poisson_reproduces_hamiltonian_vector_field(self):
        # {alpha p + beta e^q, f} = alpha dq(f) - beta e^q dp(f) on f = p e^q
        rng = np.random.default_rng(12)
        f = ExpPolySymbol.monomial(1, 1)
        for _ in range(20):
            z = rand_element(rng)
            expected = (z.alpha * derive(f, "q", 1)
                        - ExpPolySymbol.monomial(0, 1, z.beta) * derive(f, "p", 1))
            assert poisson(hamiltonian(z), f) == expected


class TestStar:
    def test_first_quantum_correction(self):
        expected = ExpPolySymbol({(1, 1): 1, (0, 1): CR_HALF_OVER_I})
        assert star(P, EQ) == expected

    def test_unit(self):
        rng = np.random.default_rng(14)
        one = ExpPolySymbol.one()
        for _ in range(10):
            v = rand_symbol(rng)
            assert star(one, v) == v
            assert star(v, one) == v

    def test_p_commutes_with_itself(self):
        assert star(P, P) == ExpPolySymbol.monomial(2, 0)

    def test_series_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            u, v = rand_symbol(rng, max_m=2), rand_symbol(rng, max_m=2)
            acc = u * v
            coeff = CR_ONE
            for r in range(1, u.deg_p() + v.deg_p() + 1):
                coeff = coeff * CR_HALF_OVER_I
                acc = acc + (coeff * Fraction(1, factorial(r))) * p_r_oracle(u, v, r)
            assert star(u, v) == acc

    def test_associativity(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            u = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            v = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            w = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            assert star(star(u, v), w) == star(u, star(v, w))


class TestStarCommutator:
    def test_basis_relation(self):
        assert star_commutator(I * P, I * EQ) == I * EQ

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            u = rand_symbol(rng)
            assert star_commutator(u, u).is_zero()

    def test_concrete_pair(self):
        z = LieAlgebraElement(2, 3)
        t = LieAlgebraElement(1, 5)
        got = star_commutator(I * hamiltonian(z), I * hamiltonian(t))
        assert got == I * hamiltonian(bracket(z, t))
        assert got == ExpPolySymbol.monomial(0, 1, ComplexRational(0, 7))

    def test_lie_homomorphism_on_random_rationals(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            z, t = rand_element(rng), rand_element(rng)
            lhs = star_commutator(I * hamiltonian(z), I * hamiltonian(t))
            assert lhs == I * hamiltonian(bracket(z, t))


class TestCompose:
    def test_matches_sympy_operator_composition(self):
        # Independent oracle: read p^j e^{kq} as e^{ks} d^j/ds^j, apply both
        # operators to an undetermined f(s) with sympy, and compare exactly.
        s_var = sympy.Symbol("s")
        f = sympy.Function("f")(s_var)

        def as_operator(sym):
            def apply(g):
                return sum(_sympy_value(c) * sympy.exp(k * s_var) * sympy.diff(g, s_var, m)
                           for (m, k), c in sym.items())
            return apply

        rng = np.random.default_rng(21)
        for _ in range(12):
            a = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            b = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            lhs = as_operator(a)(as_operator(b)(f))
            rhs = as_operator(compose(a, b))(f)
            assert sympy.expand(lhs - rhs) == 0


class TestStarSympyOracle:
    def test_moyal_series_matches_sympy(self):
        # Independent oracle: with w = e^q a symbol is a Laurent polynomial in
        # (p, w), held in sympy's ring Q(i)[p, w] as w^3 times itself so every
        # frequency -3..3 is a plain power; d/dq then acts as w d/dw - 3.
        # sympy expands the whole series, which ends up times w^6.
        ring, p, w = sympy.ring("p,w", sympy.QQ_I)

        def poly(sym, shift):
            return sum((sympy.QQ_I.from_sympy(_sympy_value(c)) * p**m * w**(k + shift)
                        for (m, k), c in sym.items()), ring.zero)

        def d(f, a, b):
            for _ in range(a):
                f = f.diff(p)
            for _ in range(b):
                f = w * f.diff(w) - 3 * f
            return f

        rng = np.random.default_rng(22)
        for _ in range(16):
            u = rand_symbol(rng, max_m=5, max_k=3, n_terms=3)
            v = rand_symbol(rng, max_m=5, max_k=3, n_terms=3)
            fu, fv = poly(u, 3), poly(v, 3)
            series = ring.zero
            for r in range(u.deg_p() + v.deg_p() + 1):
                weight = sympy.QQ_I.from_sympy((-sympy.I / 2) ** r / sympy.factorial(r))
                for j in range(r + 1):
                    series += (weight * sympy.binomial(r, j) * (-1) ** (r - j)
                               * d(fu, j, r - j) * d(fv, r - j, j))
            assert series == poly(star(u, v), 6)


_COEFF = st.builds(ComplexRational,
                   st.fractions(min_value=-6, max_value=6, max_denominator=7),
                   st.fractions(min_value=-6, max_value=6, max_denominator=7))


def _symbols(max_m):
    return st.dictionaries(st.tuples(st.integers(0, max_m), st.integers(-3, 3)), _COEFF,
                           max_size=3).map(ExpPolySymbol)


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(_symbols(4), _symbols(4))
    def test_commutator_is_difference_of_stars(self, u, v):
        assert star_commutator(u, v) == star(u, v) - star(v, u)

    @settings(max_examples=40, deadline=None)
    @given(_symbols(4), _symbols(4), st.integers(0, 9))
    def test_contraction_antisymmetry(self, u, v, r):
        assert p_r(v, u, r) == (-1) ** r * p_r(u, v, r)

    @settings(max_examples=20, deadline=None)
    @given(_symbols(4), _symbols(4), st.integers(0, 8))
    def test_contraction_matches_brute_force(self, u, v, r):
        assert p_r(u, v, r) == p_r_oracle(u, v, r)


class TestKernelEdgeCases:
    def test_zero_operand(self):
        zero = ExpPolySymbol.zero()
        v = ExpPolySymbol({(3, -2): Fraction(1, 3), (1, 0): I})
        for a, b in ((zero, v), (v, zero), (zero, zero)):
            assert star(a, b).is_zero()
            assert star_commutator(a, b).is_zero()
            assert compose(a, b).is_zero()
            for r in range(4):
                assert p_r(a, b, r).is_zero()

    def test_constant_operand(self):
        c = ExpPolySymbol.monomial(0, 0, ComplexRational(Fraction(2, 3), -1))
        v = ExpPolySymbol({(3, -2): Fraction(1, 3), (1, 1): I, (0, 0): 5})
        assert star(c, v) == star(v, c) == c * v
        assert compose(c, v) == compose(v, c) == c * v
        assert star_commutator(c, v).is_zero()
        assert p_r(c, v, 0) == c * v
        for r in range(1, 5):
            assert p_r(c, v, r).is_zero()

    def test_order_above_total_degree(self):
        u = ExpPolySymbol({(2, 1): 1, (0, -1): Fraction(1, 2)})
        v = ExpPolySymbol({(1, 3): I})
        assert not p_r(u, v, 3).is_zero()
        for r in (4, 5, 40):
            assert p_r(u, v, r).is_zero()

    def test_cancelled_coefficients_are_not_stored(self):
        u = P + EQ
        v = EQ - P
        assert p_r(u, v, 0) == ExpPolySymbol({(2, 0): -1, (0, 2): 1})
        got = star(u, v)
        assert got == ExpPolySymbol({(2, 0): -1, (0, 2): 1, (0, 1): -I})
        assert (1, 1) not in dict(got.items())
        assert dict(star_commutator(u, u).items()) == {}

    def test_lowest_terms_match_direct_construction(self):
        u = ExpPolySymbol.monomial(1, 0, Fraction(1, 2))
        v = ExpPolySymbol.monomial(0, 1, ComplexRational(Fraction(2, 3), Fraction(4, 6)))
        got = star(u, v)
        expected = ExpPolySymbol({(1, 1): ComplexRational(Fraction(1, 3), Fraction(1, 3)),
                                  (0, 1): ComplexRational(Fraction(1, 6), Fraction(-1, 6))})
        assert got == expected
        assert hash(got) == hash(expected)
        for _key, c in got.items():
            for part in (c.re, c.im):
                assert type(part) is Fraction
                assert sympy.igcd(part.numerator, part.denominator) == 1

    def test_dyadic_float_coefficients_stay_exact(self):
        floats = ExpPolySymbol({(2, 1): 0.375, (1, -1): 0.5 - 0.25j})
        exact = ExpPolySymbol({(2, 1): Fraction(3, 8),
                               (1, -1): ComplexRational(Fraction(1, 2), Fraction(-1, 4))})
        other = ExpPolySymbol({(3, 2): 1.5, (0, 0): -0.125j})
        assert star(floats, other) == star(exact, other)
        assert star_commutator(other, floats) == star_commutator(other, exact)
        assert compose(floats, other) == compose(exact, other)
        assert p_r(floats, other, 3) == p_r(exact, other, 3)
