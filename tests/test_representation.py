import cmath
import math

import numpy as np
import pytest

from affquant import (GroupElement, HalfLineFunction, LatticeMismatchError,
                      LieAlgebraElement, OMEGA_MINUS, OMEGA_PLUS,
                      SignMismatchError, X, Y, character_apply,
                      check_generator, evolve_cauchy, exp_group,
                      generator_on_lattice, inner_product, norm, rep_apply,
                      rep_one_param)
from affquant.grids import derivative


def rel_err(f, g):
    return float(np.sqrt(np.sum(np.abs(f.values - g.values) ** 2) * f.ds)
                 / max(norm(g), 1e-300))


@pytest.fixture(params=[1, -1], ids=["omega_plus", "omega_minus"])
def sigma(request):
    return request.param


@pytest.fixture
def choice(sigma):
    return OMEGA_PLUS if sigma == 1 else OMEGA_MINUS


@pytest.fixture
def f(sigma):
    return HalfLineFunction.gaussian(sigma=sigma, s_max=8.0, n=4096)


class TestRepApply:
    def test_identity_element(self, choice, f):
        out = rep_apply(choice, GroupElement.identity(), f)
        assert np.array_equal(out.values, f.values)

    def test_pure_translation_is_a_phase(self, choice, f):
        out = rep_apply(choice, GroupElement(1.0, 2.3), f)
        assert np.allclose(np.abs(out.values), np.abs(f.values), atol=1e-15)
        assert abs(norm(out) - norm(f)) < 1e-14

    def test_dilation_shifts_the_log_profile(self, choice, sigma, f):
        # ln(e) = 1 is an exact lattice multiple, so the shift is a roll
        narrow = HalfLineFunction.gaussian(sigma=sigma, s_max=8.0, n=4096, width=0.3)
        out = rep_apply(choice, GroupElement(math.e, 0.0), narrow)
        s = narrow.s_values()
        expected = np.exp(-((s + 1.0) / 0.3) ** 2)
        inside = np.abs(s) < 4
        assert np.max(np.abs(out.values - expected)[inside]) < 1e-12

    def test_sign_mismatch_rejected(self, f):
        wrong = OMEGA_MINUS if f.sigma == 1 else OMEGA_PLUS
        with pytest.raises(SignMismatchError):
            rep_apply(wrong, GroupElement(2.0, 0.0), f)

    def test_window_diagnostic(self, choice, f):
        with pytest.warns(RuntimeWarning, match="window"):
            rep_apply(choice, GroupElement(math.exp(7.0), 0.0), f)

    def test_homomorphism(self, choice, f):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g1 = GroupElement(float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-3, 3)))
            g2 = GroupElement(float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-3, 3)))
            once = rep_apply(choice, g1 * g2, f, window_tol=None)
            twice = rep_apply(choice, g1, rep_apply(choice, g2, f, window_tol=None),
                              window_tol=None)
            assert rel_err(once, twice) < 1e-9

    def test_unitarity(self, choice, sigma, f):
        g2fun = HalfLineFunction.from_callable(
            lambda s: (s + 0.2j) * np.exp(-((s - 0.4) / 0.9) ** 2),
            sigma=sigma, s_max=8.0, n=4096)
        base = inner_product(f, g2fun)
        rng = np.random.default_rng(22)
        for _ in range(10):
            g = GroupElement(float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-3, 3)))
            tf = rep_apply(choice, g, f, window_tol=None)
            tg = rep_apply(choice, g, g2fun, window_tol=None)
            assert abs(inner_product(tf, tg) - base) < 1e-8


class TestRepOneParam:
    def test_dilation_only_shifts(self, f):
        t = 0.75
        out = rep_one_param(X, t, f, window_tol=None)
        expected = rep_apply(OMEGA_PLUS if f.sigma == 1 else OMEGA_MINUS,
                             GroupElement(math.exp(t), 0.0), f, window_tol=None)
        assert rel_err(out, expected) < 1e-12

    def test_time_zero_is_identity(self, f):
        out = rep_one_param(LieAlgebraElement(1.3, -0.4), 0.0, f)
        assert np.array_equal(out.values, f.values)

    def test_translation_only_phases(self, f):
        t = 0.6
        out = rep_one_param(Y, t, f, window_tol=None)
        phase = np.exp(1j * t * f.y_values())
        assert np.max(np.abs(out.values - phase * f.values)) < 1e-12
        assert np.allclose(np.abs(out.values), np.abs(f.values), atol=1e-14)

    def test_flow_property(self, f):
        z = LieAlgebraElement(0.8, -1.1)
        t1, t2 = 0.3, 0.45
        joint = rep_one_param(z, t1 + t2, f, window_tol=None)
        split = rep_one_param(z, t1, rep_one_param(z, t2, f, window_tol=None),
                              window_tol=None)
        assert rel_err(joint, split) < 1e-9

    def test_matches_group_exponential(self, choice, f):
        z = LieAlgebraElement(0.9, 1.4)
        t = 0.5
        via_flow = rep_one_param(z, t, f, window_tol=None)
        via_group = rep_apply(choice, exp_group(t * z), f, window_tol=None)
        assert rel_err(via_flow, via_group) < 1e-12


class TestEvolveCauchy:
    def test_diagonal_case_is_machine_exact(self, sigma, f):
        z = LieAlgebraElement(0.0, 1.7)
        out = evolve_cauchy(z, 0.8, f, 400, method="characteristics")
        assert rel_err(out, rep_one_param(z, 0.8, f, window_tol=None)) < 1e-12
        # rk4 needs a window where beta e^s dt stays inside the stability region
        f6 = HalfLineFunction.gaussian(sigma=sigma, s_max=6.0, n=4096)
        out6 = evolve_cauchy(z, 0.8, f6, 1000, method="rk4")
        assert rel_err(out6, rep_one_param(z, 0.8, f6, window_tol=None)) < 1e-9

    def test_time_zero(self, f):
        out = evolve_cauchy(LieAlgebraElement(1.0, 1.0), 0.0, f, 10)
        assert rel_err(out, f) < 1e-14

    def test_mixed_flow_against_closed_form(self, sigma):
        f6 = HalfLineFunction.gaussian(sigma=sigma, s_max=6.0, n=4096)
        z = LieAlgebraElement(1.0, 1.0)
        ref = rep_one_param(z, 0.5, f6, window_tol=None)
        rk4 = evolve_cauchy(z, 0.5, f6, 1000, method="rk4", deriv="fd8")
        assert rel_err(rk4, ref) < 1e-6
        chars = evolve_cauchy(z, 0.5, f6, 1000, method="characteristics")
        assert rel_err(chars, ref) < 1e-9

    def test_backends_validate_each_other(self, sigma):
        f6 = HalfLineFunction.gaussian(sigma=sigma, s_max=6.0, n=4096)
        z = LieAlgebraElement(2.0, -3.0)
        a = evolve_cauchy(z, 0.5, f6, 1000, method="rk4", deriv="fd8")
        b = evolve_cauchy(z, 0.5, f6, 1000, method="characteristics")
        assert rel_err(a, b) < 1e-6

    def test_cfl_diagnostic(self, f):
        with pytest.warns(RuntimeWarning, match="stability"):
            evolve_cauchy(Y, 1.0, f, 50, method="rk4")

    def test_unstable_run_raises_instead_of_returning_nan(self, sigma):
        f6 = HalfLineFunction.gaussian(sigma=sigma, s_max=6.0, n=4096)
        # numpy's own overflow warnings on the way to NaN are not under test
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="stability"), \
                pytest.raises(FloatingPointError, match=r"\|lambda\| dt = .*2\*sqrt\(2\)"):
            evolve_cauchy(LieAlgebraElement(2.0, -3.0), 1.0, f6, 1000,
                          method="rk4", deriv="spectral")

    @pytest.mark.parametrize("deriv", ["spectral", "fd8"])
    def test_rk4_equals_allocating_form_bitwise(self, sigma, deriv):
        f4 = HalfLineFunction.gaussian(sigma=sigma, s_max=4.0, n=256, center=0.3)
        alpha, beta, t, steps = 1.0, -1.3, 0.5, 50
        dt = t / steps
        mult = 1j * beta * sigma * np.exp(f4.s_values())

        def rhs(w):
            return alpha * derivative(w, 0, f4.ds, method=deriv) + mult * w

        u = f4.values.copy()
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out = evolve_cauchy(LieAlgebraElement(alpha, beta), t, f4, steps,
                            method="rk4", deriv=deriv)
        assert np.array_equal(out.values, u)

    def test_rejects_bad_arguments(self, f):
        with pytest.raises(ValueError):
            evolve_cauchy(X, 1.0, f, 0)
        with pytest.raises(ValueError):
            evolve_cauchy(X, 1.0, f, 10, method="verlet")


class TestCheckGenerator:
    def test_small_step_dilation(self, f):
        assert check_generator(X, f, 1e-4) < 1e-7

    def test_zero_element(self, f):
        assert check_generator(LieAlgebraElement(0.0, 0.0), f, 1e-3) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_decay(self, f):
        hs = np.array([1e-2, 1e-3, 1e-4])
        discs = np.array([check_generator(Y, f, float(h)) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(discs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_generator_on_lattice_formula(self, f):
        z = LieAlgebraElement(0.0, 2.0)
        out = generator_on_lattice(z, f)
        assert np.allclose(out.values, 2j * f.y_values() * f.values, rtol=1e-13, atol=0)


class TestInnerProduct:
    def test_positive_definite(self, f):
        val = inner_product(f, f)
        assert val.imag == 0 and val.real > 0

    def test_phase_invariance_is_exact(self, sigma, f):
        g2fun = HalfLineFunction.gaussian(sigma=sigma, s_max=8.0, n=4096, center=0.5)
        phase = np.exp(1j * 1.7 * f.y_values())
        lhs = inner_product(f.copy_with(phase * f.values),
                            g2fun.copy_with(phase * g2fun.values))
        rhs = inner_product(f, g2fun)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_unit_gaussian_normalizes(self):
        # pi^{-1/4} e^{-s^2/2} has unit L2(ds) norm
        f = HalfLineFunction.from_callable(
            lambda s: math.pi ** -0.25 * np.exp(-s ** 2 / 2),
            sigma=1, s_max=8.0, n=4096, taper=False)
        assert abs(inner_product(f, f).real - 1.0) < 1e-10

    def test_lattice_mismatch(self, f):
        other = HalfLineFunction.gaussian(sigma=f.sigma, s_max=8.0, n=2048)
        with pytest.raises(LatticeMismatchError):
            inner_product(f, other)

    def test_measure_pullback_matches_dy_over_y(self):
        # sum |f|^2 ds equals the dy/|y| quadrature of the same samples
        f = HalfLineFunction.gaussian(sigma=1, s_max=8.0, n=4096)
        y = f.y_values()
        direct = np.sum(np.abs(f.values) ** 2 / y * np.gradient(y))
        assert abs(direct - inner_product(f, f).real) < 1e-4


class TestCharacters:
    def test_trivial(self):
        assert character_apply(0, 0.0, 5.0, 123.0) == 1.0

    def test_sign_character(self):
        assert character_apply(1, 0.0, -2.0, 7.0) == -1.0

    def test_scaling_character(self):
        val = character_apply(0, 1.0, math.e, 0.0)
        assert val == pytest.approx(cmath.exp(1j), rel=1e-15)

    def test_multiplicative(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            eps = int(rng.integers(0, 2))
            lam = float(rng.uniform(-3, 3))
            a1, b1 = float(rng.uniform(-4, 4)) or 1.0, float(rng.uniform(-4, 4))
            a2, b2 = float(rng.uniform(-4, 4)) or 1.0, float(rng.uniform(-4, 4))
            prod = character_apply(eps, lam, a1 * a2, a1 * b2 + b1)
            split = character_apply(eps, lam, a1, b1) * character_apply(eps, lam, a2, b2)
            assert abs(prod - split) < 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            character_apply(0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            character_apply(2, 1.0, 1.0, 1.0)


class TestHalfLineFunction:
    def test_lattice_and_measure(self):
        f = HalfLineFunction.gaussian(sigma=-1, s_max=4.0, n=512)
        assert f.ds == pytest.approx(8.0 / 512)
        assert np.all(f.y_values() < 0)
        assert f.s_values()[0] == -4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HalfLineFunction(0, 8.0, np.zeros(16))
        with pytest.raises(ValueError):
            HalfLineFunction(1, -1.0, np.zeros(16))
