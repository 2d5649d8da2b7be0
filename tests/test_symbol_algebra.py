import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import sympy

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
                return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                           * sympy.exp(k * s_var) * sympy.diff(g, s_var, m)
                           for (m, k), c in sym.items())
            return apply

        rng = np.random.default_rng(21)
        for _ in range(12):
            a = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            b = rand_symbol(rng, max_m=3, max_k=3, n_terms=3)
            lhs = as_operator(a)(as_operator(b)(f))
            rhs = as_operator(compose(a, b))(f)
            assert sympy.expand(lhs - rhs) == 0
