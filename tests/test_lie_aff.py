import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from affquant import (CoadjointPoint, DegenerateOrbitError, GroupElement,
                      LieAlgebraElement, OrbitId, X, Y, adjoint_matrix,
                      bracket, classify_orbit, coadjoint_act, exp_group,
                      hamiltonian, kirillov_form)
from affquant.symbol_algebra import ExpPolySymbol


def as_matrix(z):
    return np.array([[float(z.alpha), float(z.beta)], [0.0, 0.0]])


def rand_fraction(rng, lo=-9, hi=9, max_den=8):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, max_den + 1)))


def rand_element(rng):
    return LieAlgebraElement(rand_fraction(rng), rand_fraction(rng))


def rand_group(rng):
    return GroupElement(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))),
                        rand_fraction(rng))


class TestBracket:
    def test_basis_relation(self):
        assert bracket(X, Y) == Y

    def test_antisymmetry_diagonal(self):
        z = LieAlgebraElement(3, -2)
        assert bracket(z, z) == LieAlgebraElement(0, 0)

    def test_against_matrix_commutator(self):
        z = LieAlgebraElement(2, 3)
        t = LieAlgebraElement(1, 5)
        assert bracket(z, t) == LieAlgebraElement(0, 7)
        mz, mt = as_matrix(z), as_matrix(t)
        comm = mz @ mt - mt @ mz
        got = bracket(z, t)
        assert np.allclose(comm, as_matrix(got))

    def test_jacobi_identity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = rand_element(rng), rand_element(rng), rand_element(rng)
            total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                     + bracket(c, bracket(a, b)))
            assert total == LieAlgebraElement(0, 0)


class TestExpGroup:
    def test_pure_translation(self):
        g = exp_group(LieAlgebraElement(0, 2.5))
        assert g.a == 1.0 and g.b == 2.5

    def test_pure_dilation(self):
        g = exp_group(LieAlgebraElement(1.5, 0))
        assert g.b == 0.0
        assert g.a == pytest.approx(math.exp(1.5), rel=1e-15)

    def test_unit_element(self):
        g = exp_group(LieAlgebraElement(1, 1))
        assert g.a == pytest.approx(math.e, rel=1e-15)
        assert g.b == pytest.approx(math.e - 1, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-13, 1e-8, 1e-3, 0.5, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scaling_and_squaring(self, alpha, sign):
        z = LieAlgebraElement(sign * alpha, -1.7)
        g = exp_group(z)
        oracle = expm(as_matrix(z))
        assert abs(g.a - oracle[0, 0]) <= 1e-12 * max(1.0, abs(oracle[0, 0]))
        assert abs(g.b - oracle[0, 1]) <= 1e-12 * max(1.0, abs(oracle[0, 1]))

    def test_overflow_names_alpha_and_limit(self):
        limit = math.log(sys.float_info.max)
        assert exp_group(LieAlgebraElement(limit, 0)).a < math.inf
        with pytest.raises(OverflowError, match=r"alpha = 710\.0 exceeds 709\.78"):
            exp_group(LieAlgebraElement(710.0, 1.0))

    def test_composes_along_the_flow(self):
        z = LieAlgebraElement(0.7, -1.2)
        once = exp_group(z)
        halves = exp_group(0.5 * z)
        combined = halves * halves
        assert combined.a == pytest.approx(once.a, rel=1e-14)
        assert combined.b == pytest.approx(once.b, rel=1e-14)


class TestGroupElement:
    def test_identity_and_inverse(self):
        g = GroupElement(Fraction(3, 2), Fraction(-1, 4))
        assert g * g.inverse() == GroupElement.identity()
        assert g.inverse() * g == GroupElement.identity()

    def test_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g1, g2, g3 = rand_group(rng), rand_group(rng), rand_group(rng)
            assert (g1 * g2) * g3 == g1 * (g2 * g3)

    def test_rejects_nonpositive_dilation(self):
        with pytest.raises(ValueError):
            GroupElement(0, 1)
        with pytest.raises(ValueError):
            GroupElement(-2, 1)


class TestCoadjointAction:
    def test_identity_fixes_points(self):
        f = CoadjointPoint(Fraction(5), Fraction(-3))
        assert coadjoint_act(GroupElement.identity(), f) == f

    def test_upper_half_plane_is_stable(self):
        rng = np.random.default_rng(11)
        f = CoadjointPoint(0.0, 1.0)
        for _ in range(40):
            u = LieAlgebraElement(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            moved = coadjoint_act(exp_group(u), f)
            assert moved.y > 0

    def test_exponential_action_matches_matrix_series(self):
        # K(exp U) Y* = (beta/alpha)(1 - e^{-alpha}) X* + e^{-alpha} Y*
        moved = coadjoint_act(exp_group(LieAlgebraElement(1.0, 1.0)),
                              CoadjointPoint(0.0, 1.0))
        assert moved.x == pytest.approx(1 - math.exp(-1), rel=1e-14)
        assert moved.y == pytest.approx(math.exp(-1), rel=1e-14)
        # same point through exp(-ad_U) evaluated by scipy on [[0,0],[beta,-alpha]]
        series = expm(np.array([[0.0, 0.0], [1.0, -1.0]]))
        assert moved.x == pytest.approx(series[1, 0], rel=1e-14)
        assert moved.y == pytest.approx(series[1, 1], rel=1e-14)

    def test_action_composes_exactly_on_rationals(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            g1, g2 = rand_group(rng), rand_group(rng)
            f = CoadjointPoint(rand_fraction(rng), rand_fraction(rng))
            assert coadjoint_act(g1 * g2, f) == coadjoint_act(g1, coadjoint_act(g2, f))

    def test_action_composes_in_floating_point(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            g1 = GroupElement(float(rng.uniform(0.2, 5)), float(rng.uniform(-3, 3)))
            g2 = GroupElement(float(rng.uniform(0.2, 5)), float(rng.uniform(-3, 3)))
            f = CoadjointPoint(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            lhs = coadjoint_act(g1 * g2, f)
            rhs = coadjoint_act(g1, coadjoint_act(g2, f))
            assert abs(lhs.x - rhs.x) < 1e-12 and abs(lhs.y - rhs.y) < 1e-12

    def test_adjoint_matrix_basis_columns(self):
        g = GroupElement(Fraction(2), Fraction(3))
        m = adjoint_matrix(g)
        # Ad(g) X = X - b Y, Ad(g) Y = a Y
        assert m == ((1, 0), (-3, 2))


class TestClassifyOrbit:
    def test_point_orbit(self):
        assert classify_orbit(CoadjointPoint(3, 0)) == OrbitId.point(3)

    def test_half_planes(self):
        assert classify_orbit(CoadjointPoint(0, 1)).kind == "upper"
        assert classify_orbit(CoadjointPoint(5, -2)).kind == "lower"

    def test_floating_tolerance(self):
        assert classify_orbit(CoadjointPoint(1.0, 1e-14), tol=1e-12).kind == "point"
        assert classify_orbit(CoadjointPoint(1.0, 1e-14)).kind == "upper"

    def test_invariance_under_action(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g = rand_group(rng)
            f = CoadjointPoint(rand_fraction(rng), rand_fraction(rng, lo=-3, hi=3))
            assert classify_orbit(coadjoint_act(g, f)) == classify_orbit(f)
            if f.y == 0:
                assert coadjoint_act(g, f) == f


class TestHamiltonian:
    def test_generators(self):
        assert hamiltonian(X) == ExpPolySymbol.p()
        assert hamiltonian(Y) == ExpPolySymbol.exp_q()

    def test_linearity(self):
        z = LieAlgebraElement(2, -3)
        assert hamiltonian(z) == ExpPolySymbol({(1, 0): 2, (0, 1): -3})


class TestKirillovForm:
    def test_basis_pairing_at_unit_height(self):
        assert kirillov_form(CoadjointPoint(0, 1), X, Y) == 1

    def test_antisymmetry_diagonal(self):
        z = LieAlgebraElement(2, 5)
        assert kirillov_form(CoadjointPoint(1, 3), z, z) == 0

    def test_scales_with_height(self):
        val = kirillov_form(CoadjointPoint(7.0, math.e ** 2), X, Y)
        assert val == pytest.approx(math.e ** 2, rel=1e-15)

    def test_degenerate_orbit_rejected(self):
        with pytest.raises(DegenerateOrbitError):
            kirillov_form(CoadjointPoint(3, 0), X, Y)

    def test_is_constant_symplectic_in_darboux_coordinates(self):
        # At F = (p, e^q), the fields of Z, T have (d/dp, d/dq) components
        # (-beta e^q, alpha); the standard form dp^dq on those components
        # must reproduce the pairing <F, [Z, T]> at every (p, q).
        rng = np.random.default_rng(23)
        for _ in range(40):
            pv, qv = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            z, t = rand_element(rng), rand_element(rng)
            f = CoadjointPoint(pv, math.exp(qv))
            a1, b1 = float(z.alpha), float(z.beta)
            a2, b2 = float(t.alpha), float(t.beta)
            xi_z = (-b1 * math.exp(qv), a1)
            xi_t = (-b2 * math.exp(qv), a2)
            standard = xi_z[0] * xi_t[1] - xi_z[1] * xi_t[0]
            assert float(kirillov_form(f, z, t)) == pytest.approx(standard, rel=1e-12, abs=1e-12)
