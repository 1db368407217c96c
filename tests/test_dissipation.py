"""Dissipation potentials, dual distances, conjugates, and the plastic
proximal map, each certified against an independent oracle."""

import numpy as np
import pytest

from ribv.constitutive import Operators, cell_damage, yield_radius
from ribv.discretization import Grid, tensor_dev, tensor_norm
from ribv.dissipation import (
    Rate,
    RateNorms,
    conj_visc_u,
    d_nu,
    dist_h,
    dist_r,
    dual_diagnostics,
    prox_map,
    prox_plastic,
    prox_tangent,
    psi_rate_independent,
    psi_total,
)
from ribv.problems import ramp_loading, reference_material

from conftest import random_rate, random_state
from oracles import (
    conj_visc_oracle,
    d_up,
    dist_ball_oracle,
    dist_lumped_oracle,
    dual_norm_oracle,
    prox_objective,
    prox_oracle,
    prox_plastic_derivative,
    rate_norm_fields,
    wnorm,
)
from oracles import d_nu as d_nu_oracle


@pytest.fixture
def setup():
    grid = Grid(3)
    mat = reference_material()
    ops = Operators.build(grid, mat)
    return grid, mat, ops


class TestPotential:
    def test_zero_rate(self, setup, rng):
        grid, mat, ops = setup
        st = random_state(grid, rng)
        zero = Rate(np.zeros((grid.n_nodes, 2)), np.zeros(grid.n_nodes),
                    np.zeros((grid.n_cells, 3)))
        assert psi_total(st, zero, ops, mat, 0.1, 0.1) == 0.0

    def test_positive_damage_rate_infinite(self, setup, rng):
        grid, mat, ops = setup
        st = random_state(grid, rng)
        rate = random_rate(grid, rng)
        rate.z_rate[3] = 1e-6
        assert psi_total(st, rate, ops, mat, 0.1, 0.1) == np.inf
        assert psi_rate_independent(st, rate, ops, mat) == np.inf

    def test_rate_independent_part_resums(self, setup, rng):
        # eps = 0: the value is exactly the quadrature re-sum of
        # kappa |z'| and V(z_c) |p'_c|
        grid, mat, ops = setup
        for _ in range(20):
            st = random_state(grid, rng)
            rate = random_rate(grid, rng)
            val = psi_total(st, rate, ops, mat, 0.0, 0.7)
            zc = cell_damage(grid, st.z)
            expect = np.sum(grid.lump * mat.kappa * np.abs(rate.z_rate))
            expect += sum(grid.w_cell[c] * yield_radius(zc, mat)[c]
                          * wnorm(rate.p_rate[c])
                          for c in range(grid.n_cells))
            assert val == pytest.approx(expect, rel=1e-12)

    def test_viscous_quadratic_split(self, setup, rng):
        grid, mat, ops = setup
        st = random_state(grid, rng)
        rate = random_rate(grid, rng)
        eps, nu = 0.3, 0.2
        visc = psi_total(st, rate, ops, mat, eps, nu) \
            - psi_total(st, rate, ops, mat, 0.0, nu)
        assert visc == pytest.approx(0.5 * eps * d_nu(ops, rate, nu) ** 2,
                                     rel=1e-10)

    def test_rate_independent_split(self, setup, rng):
        # psi is R + H plus eps/2 D_nu^2: exactly R + H at eps = nu = 0
        grid, mat, ops = setup
        for _ in range(20):
            st = random_state(grid, rng)
            rate = random_rate(grid, rng)
            ri = psi_rate_independent(st, rate, ops, mat)
            assert ri == psi_total(st, rate, ops, mat, 0.0, 0.0)
            eps, nu = rng.uniform(0.05, 1.0, 2)
            psi = psi_total(st, rate, ops, mat, eps, nu)
            # relative to psi: the difference cancels the digits of R + H
            assert psi - ri == pytest.approx(
                0.5 * eps * d_nu(ops, rate, nu) ** 2, abs=1e-14 * psi)


class TestConjugate:
    def test_scalar_frozen_value(self):
        # 1-dof system K_D = 2, eta = 2, eps nu = 1:
        # eta^2 / (2 eps nu K_D) = 4/4 = 1
        class _Stub:
            K_D = np.array([[2.0]])

            def dual_norm(self, g):
                return float(np.sqrt(g @ g / 2.0))
        assert conj_visc_u(_Stub(), np.array([2.0]), 1.0, 1.0) == \
            pytest.approx(1.0, abs=1e-14)

    def test_matches_optimality_solve(self, setup, rng):
        _, _, ops = setup
        n = ops.K_D.shape[0]
        for _ in range(20):
            eta = rng.normal(size=n)
            eps, nu = rng.uniform(0.05, 2.0, 2)
            assert conj_visc_u(ops, eta, eps, nu) == pytest.approx(
                conj_visc_oracle(ops.K_D, eta, eps, nu), rel=1e-10)

    def test_vanishing_viscosity_indicator(self, setup):
        _, _, ops = setup
        n = ops.K_D.shape[0]
        assert conj_visc_u(ops, np.zeros(n), 0.0, 1.0) == 0.0
        assert conj_visc_u(ops, np.ones(n), 0.0, 1.0) == np.inf


class TestDistances:
    def test_interior_field_zero(self, setup, rng):
        grid, _, _ = setup
        chi = rng.uniform(-0.04, 5.0, grid.n_nodes)  # all >= -kappa+delta
        assert dist_r(grid, chi, 0.05) == 0.0

    def test_single_node_frozen_value(self):
        # chi = -2 at one node with m_i = 0.25, kappa = 1:
        # violation 1, sqrt(0.25 * 1) = 0.5
        grid = Grid(3)
        i = int(np.argmax(grid.lump == 0.25))
        assert grid.lump[i] == pytest.approx(0.25)
        chi = np.zeros(grid.n_nodes)
        chi[i] = -2.0
        assert dist_r(grid, chi, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_matches_projection_oracle(self, setup, rng):
        grid, _, _ = setup
        for _ in range(50):
            chi = rng.normal(0, 0.3, grid.n_nodes)
            kappa = rng.uniform(0.01, 0.3)
            assert dist_r(grid, chi, kappa) == pytest.approx(
                dist_lumped_oracle(grid.lump, chi, kappa), abs=1e-14)

    def test_ball_distance_trivial(self, setup, rng):
        grid, mat, _ = setup
        st = random_state(grid, rng)
        assert dist_h(grid, st.z, np.zeros((grid.n_cells, 3)), mat) == 0.0

    def test_ball_distance_frozen_value(self):
        # single cell w_c = 0.25, V = 0.5, |omega| = 1.5 ->
        # sqrt(0.25 * 1^2) = 0.5
        import dataclasses
        grid = Grid(3)
        mat = dataclasses.replace(reference_material(), sigma_y=0.5,
                                  m_bar=0.5)
        z = np.full(grid.n_nodes, 1.0)
        assert yield_radius(np.array([1.0]), mat)[0] == \
            pytest.approx(0.5)
        omega = np.zeros((grid.n_cells, 3))
        omega[0] = [1.5 / np.sqrt(2), -1.5 / np.sqrt(2), 0.0]
        assert dist_h(grid, z, omega, mat) == pytest.approx(0.5,
                                                            abs=1e-13)

    def test_matches_ball_projection_oracle(self, setup, rng):
        grid, mat, _ = setup
        for _ in range(10):
            st = random_state(grid, rng)
            omega = rng.normal(0, 0.8, (grid.n_cells, 3))
            omega[:, 1] = -omega[:, 0]
            V = yield_radius(cell_damage(grid, st.z), mat)
            assert dist_h(grid, st.z, omega, mat) == pytest.approx(
                dist_ball_oracle(grid.w_cell, omega, V), abs=1e-6)


class TestDualDiagnostics:
    def test_dual_u_matches_sup_oracle(self, setup, rng):
        from ribv.constitutive import energy_gradients
        grid, mat, ops = setup
        loading = ramp_loading(grid, amplitude=0.4)
        for _ in range(10):
            st = random_state(grid, rng)
            t = rng.uniform(0.1, 0.9)
            g_u, _, _ = energy_gradients(t, st, ops, mat, 0.1, loading)
            dd = dual_diagnostics(t, st, ops, mat, 0.1, 0.1, loading)
            assert dd.dual_u == pytest.approx(
                dual_norm_oracle(ops.K_D, g_u), rel=1e-10)

    def test_no_hardening_collapse(self, setup, rng):
        grid, mat, ops = setup
        loading = ramp_loading(grid, amplitude=0.4)
        st = random_state(grid, rng)
        dd = dual_diagnostics(0.5, st, ops, mat, 0.0, 0.1, loading)
        assert dd.d_star_mu == dd.d_star0

    def test_rate_norm_consistency(self, setup, rng):
        # the record of a rate matches the array formulas field by field,
        # and D_nu and the two-variable rate norm read it
        grid, mat, ops = setup
        nu = 0.3
        for _ in range(10):
            st = random_state(grid, rng)
            rate = random_rate(grid, rng, z_down=False)
            e_rate = rng.normal(0.0, 0.1, (grid.n_cells, 3))
            rec = RateNorms.of(ops, rate, st, mat, e_rate)
            for name, want in rate_norm_fields(ops, rate, st, mat,
                                               e_rate).items():
                assert getattr(rec, name) == pytest.approx(want, rel=1e-13)
            assert rec.d_nu(nu) == pytest.approx(d_nu_oracle(ops, rate, nu),
                                                 rel=1e-13)
            assert d_nu(ops, rate, nu) == rec.d_nu(nu)
            assert rec.norm_up() == pytest.approx(
                d_up(ops, rate.u_rate, rate.p_rate), rel=1e-13)


class TestProx:
    def test_pure_quadratic(self, rng):
        # a = 0 degenerate: the unconstrained quadratic minimizer
        for _ in range(20):
            p = rng.normal(size=(1, 3))
            p[:, 1] = -p[:, 0]
            e = rng.normal(size=(1, 3))
            e[:, 1] = -e[:, 0]
            b, mu_w, c_q = rng.uniform(0.1, 2.0, 3)
            out = prox_plastic(p, e, 0.0, b, mu_w, c_q)
            expect = (b * p + c_q * e) / (b + mu_w + c_q)
            assert np.allclose(out, expect, atol=1e-13)

    def test_matches_grid_oracle(self, rng):
        for _ in range(25):
            p = rng.normal(0, 1, 3)
            p[1] = -p[0]
            e = rng.normal(0, 1, 3)
            e[1] = -e[0]
            a, b, mu_w, c_q = rng.uniform(0.02, 2.0, 4)
            got = prox_plastic(p[None], e[None], a, b, mu_w, c_q)[0]
            want = prox_oracle(p, e, a, b, mu_w, c_q)
            f_got = prox_objective(got, p, e, a, b, mu_w, c_q)
            f_want = prox_objective(want, p, e, a, b, mu_w, c_q)
            # the closed form can only improve on the search (flat
            # valleys near the shrinkage kink limit the arg accuracy)
            assert f_got <= f_want + 1e-9
            assert wnorm(got - want) < 1e-4

    def test_stationary_inside_threshold(self, rng):
        # small data and a large threshold: the prox sticks at p_prev
        p = np.array([[0.1, -0.1, 0.05]])
        e = np.array([[0.12, -0.12, 0.04]])
        out = prox_plastic(p, e, 10.0, 1.0, 1.0, 1.0)
        assert np.allclose(out, p, atol=1e-14)

    def test_derivative_matches_fd(self, rng):
        # the consistent tangent against central differences of the prox
        # in each component of the full strain, on yielding and stuck
        # cells, with scalar b and mu_w as in the (u, p) solve
        n = 200
        p = rng.normal(0.0, 0.1, (n, 3))
        p[:, 1] = -p[:, 0]
        e_bar = rng.normal(0.0, 0.3, (n, 3))
        b, mu_w = 0.02, 0.05
        c_q = rng.uniform(0.5, 2.0, n)
        modulus = b + mu_w + c_q
        d = (b * p + c_q[:, None] * tensor_dev(e_bar)) / modulus[:, None] - p
        # thresholds that put the shrink a / (M |d|) in [0.05, 0.95] or
        # [1.05, 2], at least 0.05 from the yield switch
        shrink = np.where(rng.random(n) < 0.5, rng.uniform(0.05, 0.95, n),
                          rng.uniform(1.05, 2.0, n))
        a = shrink * modulus * tensor_norm(d)
        J = prox_plastic_derivative(p, e_bar, a, b, mu_w, c_q)
        h = 1e-6
        J_fd = np.empty_like(J)
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            J_fd[:, :, k] = (
                prox_plastic(p, tensor_dev(e_bar + step), a, b, mu_w, c_q)
                - prox_plastic(p, tensor_dev(e_bar - step), a, b, mu_w,
                               c_q)) / (2 * h)
        stuck = shrink > 1.0
        assert 0 < stuck.sum() < n
        assert np.all(J[stuck] == 0.0) and np.all(J_fd[stuck] == 0.0)
        np.testing.assert_allclose(J_fd, J, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(J)))

    def test_tangent_from_value_shift(self, rng):
        # the (u, p) solve builds its tangent from the shift its value
        # evaluation holds, formed from tensor_dev(e_bar): it equals the
        # derivative at e_bar bit for bit, and the prox in the shift equals
        # prox_plastic, on stuck, yielding and zero-shift cells
        n = 90
        p = rng.normal(0.0, 0.1, (n, 3))
        p[:, 1] = -p[:, 0]
        e_bar = rng.normal(0.0, 0.3, (n, 3))
        # zero shift: p_prev = 0 and a pure-trace strain give d = 0 exactly
        p[:30] = 0.0
        e_bar[:30, 1], e_bar[:30, 2] = e_bar[:30, 0], 0.0
        b, mu_w = 0.02, 0.05
        c_q = rng.uniform(0.5, 2.0, n)
        modulus = b + mu_w + c_q
        d = (b * p + c_q[:, None] * tensor_dev(e_bar)) / modulus[:, None] - p
        shrink = np.where(rng.random(n) < 0.5, rng.uniform(0.05, 0.95, n),
                          rng.uniform(1.05, 2.0, n))
        a = shrink * modulus * tensor_norm(d)
        a[:30] = np.where(rng.random(30) < 0.5, 0.0, rng.uniform(0.1, 1.0, 30))
        shift = prox_map(p, a, b, mu_w, c_q)(tensor_dev(e_bar))
        zero, yielding = shift[2] == 0.0, shift[3] < 1.0
        assert zero[:30].all() and not zero[30:].any()
        assert 0 < yielding.sum() < n - 30
        J = prox_tangent(shift, c_q)
        np.testing.assert_array_equal(
            J, prox_plastic_derivative(p, e_bar, a, b, mu_w, c_q))
        assert (J[~yielding] == 0.0).all() and (J[yielding] != 0.0).any()
        np.testing.assert_array_equal(
            shift[0], prox_plastic(p, tensor_dev(e_bar), a, b, mu_w, c_q))

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            prox_plastic(np.zeros((1, 3)), np.zeros((1, 3)),
                         1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            prox_map(np.zeros((1, 3)), -1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("per_cell", [False, True])
    def test_map_matches_shift(self, rng, per_cell):
        # one map, built once and applied at several strains, returns bit
        # for bit the shift formed afresh at each, with the shift d of the
        # written-out formula
        n = 40
        p = rng.normal(0.0, 0.1, (n, 3))
        p[:, 1] = -p[:, 0]
        a = rng.uniform(0.0, 0.4, n) if per_cell else 0.2
        c_q = rng.uniform(0.5, 2.0, n) if per_cell else 1.3
        b, mu_w = 0.02, 0.05
        shift_at = prox_map(p, a, b, mu_w, c_q)
        for _ in range(3):
            e_dev = tensor_dev(rng.normal(0.0, 0.3, (n, 3))
                               * rng.uniform(0.0, 1.0, (n, 1)))
            got = shift_at(e_dev)
            for g, w in zip(got, prox_map(p, a, b, mu_w, c_q)(e_dev)):
                np.testing.assert_array_equal(g, w)
            modulus = np.full(n, b + mu_w) + c_q
            d = (b * p + np.reshape(c_q, (-1, 1)) * e_dev) \
                / modulus[:, None] - p
            np.testing.assert_array_equal(got[1], d)
            assert 0 < (got[3] < 1.0).sum() < n
