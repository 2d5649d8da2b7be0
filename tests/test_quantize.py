import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affquant import (ExpPolySymbol, GeneratorOp, GridFunction, GridSpec,
                      LieAlgebraElement, SeriesDivergenceError, X, Y,
                      apply_generator, bracket, compose, ell_z_truncated,
                      gaussian_pq, generator_commutator_matches_bracket,
                      generator_symbol, norm_l2, partial_fourier,
                      plane_wave_xq, spectral_derivative, to_s_coordinates,
                      verify_conjugation)
from affquant.grids import DomainTagError, cosine_taper, plane_wave_frequencies
from affquant.rational import ComplexRational


@pytest.fixture(scope="module")
def spec():
    return GridSpec()


@pytest.fixture(scope="module")
def gaussian(spec):
    return gaussian_pq(spec)


def rel_l2(a, b, ref):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)) / np.sqrt(np.sum(np.abs(ref) ** 2)))


class TestApplyGenerator:
    def test_plane_wave_eigenvalue(self, spec):
        v = plane_wave_xq(spec, 5, 3)
        k1, k2 = plane_wave_frequencies(spec, 5, 3)
        out = apply_generator(GeneratorOp(1.0, 0.0), v)
        expected = 1j * (0.5 * k2 - k1) * v.values
        assert np.max(np.abs(out.values - expected)) < 1e-10 * max(1.0, abs(k1) + abs(k2))

    def test_zero_operator(self, spec, gaussian):
        v = partial_fourier(gaussian)
        out = apply_generator(GeneratorOp(0.0, 0.0), v)
        assert not np.any(out.values)

    def test_multiplication_part_is_pointwise(self, spec, gaussian):
        v = partial_fourier(gaussian)
        out = apply_generator(GeneratorOp(0.0, 1.0), v)
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        expected = 1j * np.exp(q - x / 2) * v.values
        assert np.max(np.abs(out.values - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_linearity(self, spec, gaussian):
        v = partial_fourier(gaussian)
        op1, op2 = GeneratorOp(1.0, -2.0), GeneratorOp(0.5, 3.0)
        lhs = apply_generator(op1 + op2, v).values
        rhs = apply_generator(op1, v).values + apply_generator(op2, v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        w = v.copy_with(2.5j * v.values)
        scaled = apply_generator(op1, w).values
        direct = 2.5j * apply_generator(op1, v).values
        assert np.max(np.abs(scaled - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_rejects_pq_domain(self, gaussian):
        with pytest.raises(DomainTagError):
            apply_generator(GeneratorOp(1.0, 0.0), gaussian)

    def test_from_element(self):
        op = GeneratorOp.from_element(LieAlgebraElement(2, -3))
        assert op == GeneratorOp(2.0, -3.0)


class TestEllZTruncated:
    def test_dilation_series_terminates(self, spec, gaussian):
        # For Z = X the r >= 2 terms vanish: i p u + (1/2) dq u, exactly
        out1 = ell_z_truncated(X, gaussian, 1)
        out5 = ell_z_truncated(X, gaussian, 5)
        assert np.array_equal(out1.values, out5.values)
        p = spec.p_values()[:, None]
        expected = (1j * p * gaussian.values
                    + 0.5 * spectral_derivative(gaussian.values, 1, spec.dq))
        assert np.max(np.abs(out1.values - expected)) < 1e-12

    def test_zero_input(self, spec):
        zero = GridFunction(spec, "pq", np.zeros((spec.n_p, spec.n_q)))
        assert not np.any(ell_z_truncated(Y, zero, 10).values)

    def test_translation_series_converges_to_closed_form(self, gaussian):
        discs = [verify_conjugation(Y, gaussian, r) for r in (2, 4, 8, 12)]
        assert all(discs[i + 1] < discs[i] / 10 for i in range(len(discs) - 1))
        assert discs[-1] < 1e-8

    def test_divergence_diagnostic_on_rough_data(self, spec):
        rng = np.random.default_rng(2)
        rough = GridFunction(spec, "pq", rng.normal(size=(spec.n_p, spec.n_q)))
        with pytest.raises(SeriesDivergenceError):
            ell_z_truncated(Y, rough, 40)

    def test_rejects_negative_order(self, gaussian):
        with pytest.raises(ValueError):
            ell_z_truncated(Y, gaussian, -1)


class TestVerifyConjugation:
    def test_terminating_case_is_machine_exact(self, gaussian):
        assert verify_conjugation(X, gaussian, 1) < 1e-10

    def test_zero_input(self, spec):
        zero = GridFunction(spec, "pq", np.zeros((spec.n_p, spec.n_q)))
        assert verify_conjugation(Y, zero, 5) == 0.0

    def test_translation_at_full_truncation(self, gaussian):
        assert verify_conjugation(Y, gaussian, 20) < 1e-6


class TestToSCoordinates:
    def test_harmonic_of_s_alone(self):
        # commensurate box: dx/2 is a q-lattice multiple, so pass one rolls
        spec = GridSpec(p_min=-4 * math.pi, p_max=4 * math.pi)
        assert (spec.dx / 2) / spec.dq == pytest.approx(2.0)
        kappa = math.pi / 4
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        v = GridFunction(spec, "xq", np.exp(1j * kappa * (q - x / 2)) * np.ones_like(x))
        w = to_s_coordinates(v, tail_warn=None)
        target = np.exp(1j * kappa * spec.s_values())[:, None] * np.ones((1, spec.n_p))
        assert np.max(np.abs(w.values - target)) < 1e-13
        dt_w = spectral_derivative(w.values, 1, spec.dx)
        assert np.max(np.abs(dt_w)) < 1e-9

    def test_constant_passes_through(self, spec):
        v = GridFunction(spec, "xq", np.ones((spec.n_p, spec.n_q)))
        w = to_s_coordinates(v, tail_warn=None)
        assert np.max(np.abs(w.values - 1.0)) < 1e-13

    def test_separable_profile(self, spec):
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        f = lambda s: np.exp(-(s / 0.7) ** 2)
        g = lambda t: np.exp(-(t / 3.0) ** 2)
        v = GridFunction(spec, "xq", f(q - x / 2) * g(q + x / 2))
        w = to_s_coordinates(v, tail_warn=None)
        target = f(spec.s_values())[:, None] * g(spec.t_values())[None, :]
        assert np.max(np.abs(w.values - target)) < 1e-10

    def test_generator_becomes_one_dimensional(self, spec, gaussian):
        v = partial_fourier(gaussian)
        for z in (X, Y, X + Y):
            op = GeneratorOp.from_element(z)
            route_a = to_s_coordinates(apply_generator(op, v), tail_warn=None)
            route_b = apply_generator(op, to_s_coordinates(v, tail_warn=None))
            disc = (np.sqrt(np.sum(np.abs(route_a.values - route_b.values) ** 2)
                            * route_a.measure()) / norm_l2(v))
            assert disc < 1e-8

    def test_accuracy_diagnostic_warns(self, spec):
        rng = np.random.default_rng(3)
        rough = GridFunction(spec, "xq", rng.normal(size=(spec.n_p, spec.n_q)))
        with pytest.warns(RuntimeWarning, match="band-limited"):
            to_s_coordinates(rough)


# ints, Fractions and dyadic floats: each converts to a rational without rounding
_MIXED_COEFF = st.one_of(
    st.integers(-20, 20),
    st.fractions(max_denominator=60),
    st.builds(lambda m, e: m / 2.0 ** e, st.integers(-1000, 1000), st.integers(0, 12)))


class TestSOperatorAlgebra:
    def test_shift_past_exponential(self):
        # [d/ds, e^s] = e^s as operators
        d = ExpPolySymbol.p()
        e = ExpPolySymbol.exp_q()
        assert compose(d, e) - compose(e, d) == e

    def test_commutator_matches_bracket_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = LieAlgebraElement(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
                                  Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))
            t = LieAlgebraElement(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
                                  Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))))
            assert generator_commutator_matches_bracket(z, t)

    def test_commutator_of_float_and_fraction_is_exact(self):
        # 2.0 * (1/3) must not be rounded on the way through the bracket
        assert generator_commutator_matches_bracket(LieAlgebraElement(2.0, -3.0),
                                                    LieAlgebraElement(1, Fraction(1, 3)))

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[_MIXED_COEFF] * 4))
    def test_commutator_matches_bracket_for_mixed_coefficients(self, c):
        z, t = LieAlgebraElement(c[0], c[1]), LieAlgebraElement(c[2], c[3])
        assert generator_commutator_matches_bracket(z, t)

    def test_commutator_on_lattice(self, spec):
        n = 4096
        sspec = GridSpec(p_min=-1, p_max=1, q_min=-6, q_max=6, n_p=8, n_q=n)
        s = sspec.q_values()
        v = GridFunction(sspec, "s", np.exp(-s ** 2) * cosine_taper(n))
        z, t = LieAlgebraElement(2.0, -3.0), LieAlgebraElement(1.0, 1.0)
        op_z, op_t = GeneratorOp.from_element(z), GeneratorOp.from_element(t)
        op_w = GeneratorOp.from_element(bracket(z, t))
        lhs = (apply_generator(op_z, apply_generator(op_t, v)).values
               - apply_generator(op_t, apply_generator(op_z, v)).values)
        rhs = apply_generator(op_w, v).values
        disc = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * v.measure()) / norm_l2(v)
        assert disc < 1e-8

    def test_terms_of_generator(self):
        sym = generator_symbol(LieAlgebraElement(Fraction(1, 2), 3))
        assert dict(sym.items()) == {(1, 0): ComplexRational(Fraction(1, 2)),
                                     (0, 1): ComplexRational(0, 3)}
