import numpy as np
import pytest

from affquant import (DomainTagError, GridFunction, GridSpec, cosine_taper,
                      fd8_derivative, gaussian_pq, inverse_partial_fourier,
                      norm_l2, partial_fourier, plane_wave_xq,
                      spectral_derivative, tail_mass_fraction)
from affquant.grids import _FD8_COEFFS, FD8_MAX_FREQ, plane_wave_frequencies


@pytest.fixture(scope="module")
def spec():
    return GridSpec()


@pytest.fixture(scope="module")
def gaussian(spec):
    return gaussian_pq(spec)


class TestGridSpec:
    def test_dual_lattice_relation(self, spec):
        assert spec.dx * spec.dp == pytest.approx(2 * np.pi / spec.n_p, rel=1e-15)

    def test_x_lattice_is_centred(self, spec):
        x = spec.x_values()
        assert x[spec.n_p // 2] == 0.0
        assert np.allclose(np.diff(x), spec.dx)

    @pytest.mark.parametrize("bad", [{"n_p": 100}, {"n_p": 4}, {"n_q": 24},
                                     {"p_min": 2.0, "p_max": 2.0}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)

    def test_values_shape_checked(self, spec):
        with pytest.raises(ValueError):
            GridFunction(spec, "pq", np.zeros((4, 4)))
        with pytest.raises(DomainTagError):
            GridFunction(spec, "weird", np.zeros((spec.n_p, spec.n_q)))

    def test_rejects_nonfinite(self, spec):
        vals = np.zeros((spec.n_p, spec.n_q), complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            GridFunction(spec, "pq", vals)


class TestPartialFourier:
    def test_gaussian_maps_to_gaussian(self, spec):
        u = gaussian_pq(spec, taper=False)
        v = partial_fourier(u)
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        target = np.exp(-x ** 2 / 2 - q ** 2 / 2)
        assert np.max(np.abs(v.values - target)) < 1e-10

    def test_zero_maps_to_zero(self, spec):
        u = GridFunction(spec, "pq", np.zeros((spec.n_p, spec.n_q)))
        assert not np.any(partial_fourier(u).values)

    def test_multiplication_by_p_becomes_derivative(self, spec):
        # transform of p*u equals +i d/dx of the transform of u
        u = gaussian_pq(spec, taper=False)
        pu = u.copy_with(spec.p_values()[:, None] * u.values)
        lhs = partial_fourier(pu).values
        rhs = 1j * spectral_derivative(partial_fourier(u).values, 0, spec.dx)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_round_trip_identity(self, gaussian):
        back = inverse_partial_fourier(partial_fourier(gaussian))
        rel = (np.sqrt(np.sum(np.abs(back.values - gaussian.values) ** 2))
               / np.sqrt(np.sum(np.abs(gaussian.values) ** 2)))
        assert rel < 1e-12

    def test_unitary(self, gaussian):
        assert abs(norm_l2(partial_fourier(gaussian)) - norm_l2(gaussian)) < 1e-12

    def test_domain_tag_enforced(self, spec, gaussian):
        with pytest.raises(DomainTagError):
            partial_fourier(partial_fourier(gaussian))
        with pytest.raises(DomainTagError):
            inverse_partial_fourier(gaussian)

    def test_tail_mass_diagnostic_warns_on_rough_data(self, spec):
        rng = np.random.default_rng(0)
        noisy = GridFunction(spec, "pq", rng.normal(size=(spec.n_p, spec.n_q)))
        with pytest.warns(RuntimeWarning, match="band-limited"):
            partial_fourier(noisy)

    def test_no_warning_on_smooth_data(self, gaussian, recwarn):
        partial_fourier(gaussian)
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestDerivatives:
    def test_spectral_matches_fd8_on_smooth_data(self, spec):
        q = spec.q_values()
        vals = np.exp(-q ** 2) * np.cos(2 * q)
        exact = np.exp(-q ** 2) * (-2 * q * np.cos(2 * q) - 2 * np.sin(2 * q))
        d_spec = spectral_derivative(vals[None, :], 1, spec.dq)[0]
        d_fd = fd8_derivative(vals[None, :].astype(complex), 1, spec.dq)[0]
        assert np.max(np.abs(d_spec - exact)) < 1e-10
        assert np.max(np.abs(d_fd - exact)) < 1e-6

    def test_higher_order_spectral(self, spec):
        q = spec.q_values()
        vals = np.exp(-q ** 2)
        d2 = spectral_derivative(vals[None, :], 1, spec.dq, order=2)[0]
        exact = (4 * q ** 2 - 2) * np.exp(-q ** 2)
        assert np.max(np.abs(d2 - exact)) < 1e-9

    def test_fd8_coefficients_match_fornberg_weights(self):
        sympy = pytest.importorskip("sympy")
        weights = sympy.finite_diff_weights(1, list(range(-4, 5)), 0)[1][-1]
        # weights[4 + k] is the weight of f_{j+k}; it equals c_k exactly
        for k, c in enumerate(_FD8_COEFFS, start=1):
            assert sympy.nsimplify(c, rational=True) == weights[4 + k] == -weights[4 - k]

    def test_fd8_max_freq_is_the_symbol_maximum(self):
        optimize = pytest.importorskip("scipy.optimize")
        # symbol of the stencil: i * 2 sum_k c_k sin(k theta) / delta
        coeffs = [4 / 5, -1 / 5, 4 / 105, -1 / 280]

        def neg_symbol(theta):
            return -abs(2 * sum(c * np.sin(k * theta) for k, c in enumerate(coeffs, 1)))

        theta = np.linspace(0, np.pi, 100_001)
        start = theta[np.argmin(neg_symbol(theta))]
        best = optimize.minimize_scalar(neg_symbol, bounds=(start - 1e-3, start + 1e-3),
                                        method="bounded", options={"xatol": 1e-12})
        assert FD8_MAX_FREQ == pytest.approx(-best.fun, abs=1e-10)

    @pytest.mark.parametrize("shape, axis", [((512,), 0), ((64, 48), 0), ((64, 48), 1)],
                             ids=["1d", "2d-axis0", "2d-axis1"])
    def test_fd8_equals_roll_formula_bitwise(self, shape, axis):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        delta = 0.0371
        ref = np.zeros_like(vals)
        for offset, c in enumerate([4 / 5, -1 / 5, 4 / 105, -1 / 280], start=1):
            ref += c * (np.roll(vals, -offset, axis=axis) - np.roll(vals, offset, axis=axis))
        ref = ref / delta
        assert np.array_equal(fd8_derivative(vals, axis, delta), ref)
        out = np.empty_like(vals)
        assert fd8_derivative(vals, axis, delta, out=out) is out
        assert np.array_equal(out, ref)

    def test_fd8_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4 samples"):
            fd8_derivative(np.zeros(3, complex), 0, 0.1)

    def test_fd8_rejects_higher_orders(self):
        from affquant.grids import derivative
        with pytest.raises(ValueError):
            derivative(np.zeros(16, complex), 0, 0.1, order=2, method="fd8")

    def test_plane_wave_is_eigenfunction(self, spec):
        v = plane_wave_xq(spec, 3, -2)
        k1, k2 = plane_wave_frequencies(spec, 3, -2)
        dx_v = spectral_derivative(v.values, 0, spec.dx)
        dq_v = spectral_derivative(v.values, 1, spec.dq)
        assert np.max(np.abs(dx_v - 1j * k1 * v.values)) < 1e-10 * max(1, abs(k1))
        assert np.max(np.abs(dq_v - 1j * k2 * v.values)) < 1e-10 * max(1, abs(k2))


class TestTaper:
    def test_profile(self):
        w = cosine_taper(256)
        assert w[0] == 0.0
        assert np.all(w[30:226] == 1.0)
        assert np.all((0 <= w) & (w <= 1))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            cosine_taper(64, frac=0.7)

    def test_tail_mass_of_smooth_vs_rough(self, spec, gaussian):
        assert tail_mass_fraction(gaussian.values, 0) < 1e-20
        rng = np.random.default_rng(1)
        assert tail_mass_fraction(rng.normal(size=64), 0) > 1e-3
