"""Constitutive laws, energy assembly, and gradient consistency."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ribv.constitutive import (
    DamageLaws,
    EnergyParams,
    MaterialParams,
    Operators,
    damage_cells,
    damage_curvature,
    damage_potential,
    deviatoric_modulus,
    elastic_cells,
    energy,
    energy_gradients,
    stiffness,
    yield_radius,
)
from ribv.discretization import NONLOCAL_DENSE_MAX_SIDE, Grid, \
    LoadingSpec, State, initial_state, tensor_dev
from ribv.dissipation import prox_map, prox_tangent
from ribv.driver import _power_integral, run_viscous
from ribv.problems import ramp_loading, reference_material, \
    reference_problem

from conftest import random_state
from oracles import FROB_W, dense_sym_gradient, dual_norm_oracle, loaded_at


def make_mat(**over):
    base = dict(lame_lambda=1.0, lame_mu=1.0, delta_reg=0.05,
                sigma_y=1.0, m_bar=0.5, kappa=0.05, w0=0.1,
                q_exp=5.0, m_order=1.5)
    base.update(over)
    return MaterialParams(**base)


class TestElasticTensor:
    def test_hand_expansion(self):
        # lam = mu = 1: C0 diag(1, 0) = (3, 1, 0), weight 1 on the diagonal
        # and q0 = 3/2; C0 of the shear xy = 1 is 2, weighted 4, and
        # q0 = 1/2 * 2 * 2 (both off-diagonal entries) = 2
        mat = make_mat()
        s0, q0 = elastic_cells(np.array([[1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0]]), mat)
        np.testing.assert_array_equal(s0, [[3.0, 1.0, 0.0],
                                           [0.0, 0.0, 4.0]])
        np.testing.assert_array_equal(q0, [1.5, 2.0])

    def test_matches_lame_expansion(self, rng):
        # s0 = G (2 mu e + lam tr(e) I), q0 = mu |e|^2 + lam/2 tr(e)^2
        mat = make_mat(lame_lambda=0.7, lame_mu=1.3)
        e = rng.normal(size=(50, 3))
        tr = e[:, 0] + e[:, 1]
        sigma = 2 * 1.3 * e
        sigma[:, :2] += 0.7 * tr[:, None]
        s0, q0 = elastic_cells(e, mat)
        assert np.allclose(s0, FROB_W * sigma, rtol=1e-14, atol=1e-14)
        assert np.allclose(q0, 1.3 * (e ** 2) @ FROB_W + 0.35 * tr ** 2,
                           rtol=1e-14, atol=1e-14)

    def test_zero_input(self):
        s0, q0 = elastic_cells(np.zeros((4, 3)), make_mat())
        assert (s0 == 0.0).all() and (q0 == 0.0).all()

    def test_consistent_tangent_symmetric(self, rng):
        # w c S0 (I - J) of the (u, p) Hessian is symmetric to roundoff
        # without symmetrizing, on yielding and sticking cells alike
        mat = make_mat(lame_lambda=0.7, lame_mu=1.3)
        n = 2000
        p = rng.normal(0.0, 0.1, (n, 3))
        p[:, 1] = -p[:, 0]
        e_bar = rng.normal(0.0, 0.3, (n, 3))
        c = stiffness(rng.uniform(0.0, 1.0, n), mat)
        wc = rng.uniform(0.01, 1.0, n) * c
        c_q = deviatoric_modulus(c, mat)
        a = rng.uniform(0.0, 0.3, n)
        shift = prox_map(p, a, 0.02, 0.05, c_q)(tensor_dev(e_bar))
        yielding = shift[3] < 1.0
        assert 100 < yielding.sum() < n - 100
        T = wc[:, None, None] * (mat.unit_stiffness
                                 @ (np.eye(3) - prox_tangent(shift, c_q)))
        asym = np.abs(T - T.transpose(0, 2, 1)).max(axis=(1, 2))
        assert (asym <= 1e-15 * np.linalg.norm(T, axis=(1, 2))).all()

    def test_derivatives_match_fd(self, rng):
        # c' of the one-pass kernel, and the constants c'' = 2 and V' =
        # c_k, against central differences of its own c, c' and V inside
        # the damage domain (0, 1]; c and V are bit for bit those of the
        # single laws
        mat = make_mat()
        z = rng.uniform(0.1, 0.9, 20)
        h = 1e-6
        c, cp, V = damage_cells(z, mat)
        up, down = damage_cells(z + h, mat), damage_cells(z - h, mat)
        assert np.allclose(cp, (up[0] - down[0]) / (2 * h), atol=1e-8)
        assert np.allclose((up[1] - down[1]) / (2 * h), 2.0, atol=1e-8)
        assert np.allclose((up[2] - down[2]) / (2 * h), mat.c_k, atol=1e-8)
        np.testing.assert_array_equal(c, stiffness(z, mat))
        np.testing.assert_array_equal(V, yield_radius(z, mat))


class TestDamageDomain:
    def test_rejects_damage_above_one(self):
        # the laws hold on (0, 1]: a state just above it, or with a nan,
        # fails where it is validated, and so does a run that starts there
        _, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                           n_steps=2)
        init.z[4] = 1.0
        init.validate(ops.grid)
        for bad in (1.0 + 1e-12, np.nan):
            init.z[4] = bad
            with pytest.raises(ValueError, match="damage field must stay"):
                init.validate(ops.grid)
            with pytest.raises(ValueError, match="damage field must stay"):
                run_viscous(ops, mat, ep, loading, init, n_steps=2)


class TestDamagePotential:
    def test_frozen_values(self):
        mat = make_mat()
        W, Wp = damage_potential(np.array([1.0]), mat)
        assert W[0] == pytest.approx(0.1, abs=1e-14)
        assert Wp[0] == pytest.approx(-0.5, abs=1e-14)

    def test_homogeneity_ratio(self):
        mat = make_mat()
        W, _ = damage_potential(np.array([0.5, 0.25]), mat)
        assert W[1] / W[0] == pytest.approx(32.0, rel=1e-13)

    def test_derivative_matches_fd(self, rng):
        mat = make_mat()
        z = rng.uniform(0.2, 1.0, 50)
        h = 1e-7
        _, Wp = damage_potential(z, mat)
        Wp_fd = (damage_potential(z + h, mat)[0]
                 - damage_potential(z - h, mat)[0]) / (2 * h)
        assert np.allclose(Wp, Wp_fd, rtol=1e-6)
        Wpp_fd = (damage_potential(z + h, mat)[1]
                  - damage_potential(z - h, mat)[1]) / (2 * h)
        assert np.allclose(damage_curvature(z, mat), Wpp_fd, rtol=1e-6)


class TestYieldRadius:
    def test_frozen_values(self):
        mat = make_mat()
        assert yield_radius(np.array([1.0]), mat)[0] == pytest.approx(1.0)
        assert yield_radius(np.array([0.0]), mat)[0] == pytest.approx(0.5)

    def test_slope_matches_fd(self, rng):
        # V is affine on (0, 1], with slope c_k
        mat = make_mat()
        z = rng.uniform(0.05, 0.95, 20)
        h = 1e-7
        fd = (yield_radius(z + h, mat) - yield_radius(z - h, mat)) / (2 * h)
        assert np.allclose(fd, mat.c_k, atol=1e-8)


class TestMaterialValidation:
    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(MaterialParams)])
    def test_material_rejects_nan(self, field):
        with pytest.raises(ValueError):
            make_mat(**{field: np.nan})

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(EnergyParams)])
    def test_energy_params_reject_nan(self, field):
        with pytest.raises(ValueError):
            EnergyParams(**{field: np.nan})

    @pytest.mark.parametrize("field",
                             ["eps", "nu", "mu", "t_final", "amplitude"])
    def test_reference_problem_rejects_nan(self, field):
        with pytest.raises(ValueError):
            reference_problem(n_side=3, **{field: np.nan})

    def test_rejects_low_exponent(self):
        with pytest.raises(ValueError):
            make_mat(q_exp=3.0)

    def test_rejects_bad_residual(self):
        with pytest.raises(ValueError):
            make_mat(delta_reg=0.0)

    def test_unit_stiffness_spd(self):
        # the ellipticity of C0: S0 is symmetric with positive spectrum
        # (2 mu, 2 mu + 2 lam, 4 mu)
        mat = make_mat(lame_lambda=0.7, lame_mu=1.3)
        S0 = mat.unit_stiffness
        np.testing.assert_array_equal(S0, S0.T)
        assert np.allclose(np.linalg.eigvalsh(S0), [2.6, 4.0, 5.2],
                           rtol=1e-14)


def still_loading(grid, lift=None):
    """Constant loading: the given lift (zero by default) and no force."""
    n = grid.n_nodes
    return LoadingSpec(
        lift=np.zeros((n, 2)) if lift is None else lift,
        theta=lambda t: 1.0,
        f_vec=np.zeros(2 * n),
        phi=lambda t: 1.0,
        t_final=1.0)


def held_step(t0, state, ops, mat, loading):
    """What the power over a step reads of the step result at (t0,
    state): the state, its damage laws and the loaded energy there."""
    return SimpleNamespace(new_state=state,
                           laws=DamageLaws.at(state.z, ops, mat),
                           loaded=loaded_at(t0, state, ops, mat, loading))


class TestEnergy:
    def test_rest_state_value(self):
        # u = p = 0, z = 1, no loading: only the damage potential
        # contributes, sum m_i w0 = w0 = 0.1
        grid = Grid(3)
        mat = make_mat()
        ops = Operators.build(grid, mat)
        st0 = initial_state(grid)
        E = energy(0.0, st0, ops, mat, 0.01, still_loading(grid))
        assert E == pytest.approx(0.1, abs=1e-14)

    def test_uniform_stretch_value(self):
        # z = 1, u = p = 0, the lift (1 - x) e_x of unit horizontal
        # strain: E = 1/2 * 1.05 * 3 + 0.1 = 1.675
        grid = Grid(3)
        mat = make_mat()
        ops = Operators.build(grid, mat)
        st0 = initial_state(grid)
        lift = np.zeros((grid.n_nodes, 2))
        lift[:, 0] = 1.0 - grid.nodes[:, 0]
        E = energy(0.0, st0, ops, mat, 0.01, still_loading(grid, lift))
        assert E == pytest.approx(1.675, abs=1e-13)

    def test_hardening_term(self, rng):
        grid = Grid(3)
        mat = make_mat()
        ops = Operators.build(grid, mat)
        st0 = initial_state(grid)
        st0.p = rng.normal(0, 0.3, (grid.n_cells, 3))
        st0.p[:, 1] = -st0.p[:, 0]
        load = still_loading(grid)
        E0 = energy(0.0, st0, ops, mat, 0.0, load)
        E1 = energy(0.0, st0, ops, mat, 2.0, load)
        w = np.array([1.0, 1.0, 2.0])
        hard = np.sum(grid.w_cell * np.sum(w * st0.p ** 2, axis=1))
        assert E1 - E0 == pytest.approx(hard, rel=1e-12)


class TestGradients:
    def test_directional_fd(self, rng):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.4)
        h = 1e-5
        for _ in range(25):
            st = random_state(grid, rng)
            t = rng.uniform(0.1, 0.9)
            g_u, g_z, g_p = energy_gradients(t, st, ops, mat, 0.1, loading)
            du = rng.normal(0, 1, (grid.n_nodes, 2))
            du[grid.dirichlet_mask] = 0.0
            dz = rng.normal(0, 1, grid.n_nodes)
            dp = rng.normal(0, 1, (grid.n_cells, 3))
            dp[:, 1] = -dp[:, 0]
            sp = State(st.u + h * du, st.z + h * dz, st.p + h * dp)
            sm = State(st.u - h * du, st.z - h * dz, st.p - h * dp)
            fd = (energy(t, sp, ops, mat, 0.1, loading)
                  - energy(t, sm, ops, mat, 0.1, loading)) / (2 * h)
            w = np.array([1.0, 1.0, 2.0])
            exact = (g_u @ du.ravel()[grid.free_dofs]
                     + np.sum(grid.lump * g_z * dz)
                     + np.sum(grid.w_cell * np.sum(w * g_p * dp, axis=1)))
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-10)

    def test_time_derivative_fd(self, rng):
        # the power integral over [t0, t1] at a frozen state: for the
        # force ramp (theta = 0) the closed form -(t1 - t0) f.u; for
        # theta(t) = t on a random lift together with a lumped random
        # force, the change of the whole energy
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ramp = ramp_loading(grid, amplitude=0.4)
        lifted = LoadingSpec(
            lift=rng.normal(0.0, 0.2, (grid.n_nodes, 2)),
            theta=lambda t: t,
            f_vec=(grid.lump[:, None]
                   * rng.normal(0.0, 1.0, (grid.n_nodes, 2))).ravel(),
            phi=lambda t: 0.5 + t * t,
            t_final=1.0)
        for _ in range(10):
            st = random_state(grid, rng)
            t0, t1 = np.sort(rng.uniform(0.0, 1.0, 2))
            closed = -(t1 - t0) * (ramp.f_vec @ st.u.ravel())
            assert _power_integral(t1, held_step(t0, st, ops, mat, ramp),
                                   ops, mat, ramp) \
                == pytest.approx(closed, rel=1e-8)
            change = (energy(t1, st, ops, mat, 0.1, lifted)
                      - energy(t0, st, ops, mat, 0.1, lifted))
            assert _power_integral(t1, held_step(t0, st, ops, mat, lifted),
                                   ops, mat, lifted) \
                == pytest.approx(change, rel=1e-10)

    def test_frozen_loading_time_derivative(self, rng):
        grid = Grid(3)
        mat = make_mat()
        ops = Operators.build(grid, mat)
        st = random_state(grid, rng)
        loading = still_loading(grid)
        assert _power_integral(0.7, held_step(0.2, st, ops, mat, loading),
                               ops, mat, loading) == 0.0


class TestNonlocalTerm:
    def test_constant_field_is_exact(self, rng):
        # A_m annihilates constants: on z = 0.95 the nonlocal parts of the
        # energy and of g_z (the differences to a zero nonlocal form)
        # read exactly 0.0, not summation-order roundoff
        grid = Grid(32)
        mat = make_mat()
        ops = Operators.build(grid, mat)
        local = dataclasses.replace(ops, A_m=dataclasses.replace(
            ops.A_m, dense=np.zeros((grid.n_nodes, grid.n_nodes))))
        st = random_state(grid, rng)
        st.z = np.full(grid.n_nodes, 0.95)
        loading = ramp_loading(grid, amplitude=0.4)
        assert energy(0.5, st, ops, mat, 0.1, loading) \
            - energy(0.5, st, local, mat, 0.1, loading) == 0.0
        g_z = energy_gradients(0.5, st, ops, mat, 0.1, loading)[1]
        g_z_local = energy_gradients(0.5, st, local, mat, 0.1, loading)[1]
        assert np.max(np.abs(g_z - g_z_local)) == 0.0


class TestBandOperators:
    """The band-stored K_D against dense references."""

    @pytest.mark.parametrize("n_side", [3, 4, 7])
    def test_matches_dense(self, n_side, rng):
        grid = Grid(n_side)
        ops = Operators.build(grid, make_mat())
        D = dense_sym_gradient(grid)[:, :, grid.free_dofs]
        ref = np.einsum("cia,c,i,cib->ab", D, grid.w_cell, FROB_W, D)
        K = ops.K_D
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert ops.B.kd == 2 * n_side + 1
        for _ in range(5):
            v = rng.normal(size=len(K))
            assert np.max(np.abs(ops.apply_K_D(v) - K @ v)) <= \
                1e-13 * np.max(np.abs(K)) * np.max(np.abs(v)) * len(v)
            assert ops.dual_norm(v) == pytest.approx(
                dual_norm_oracle(K, v), rel=1e-10)

    def test_storage_is_banded(self):
        # no (n_free, n_free) array: every operator array fits in one
        # lower band or holds n_side^3 numbers, the nonlocal form's dense
        # array on the grids that hold it (n_side 24), instead of its
        # tables, alone excepted
        for n_side in (24, 32):
            ops = Operators.build(Grid(n_side), make_mat())
            B = ops.B
            limit = max((B.kd + 1) * B.n_free, n_side ** 3)
            held = {**vars(ops), **vars(B), **vars(ops.A_m)}
            dense = n_side <= NONLOCAL_DENSE_MAX_SIDE
            assert (held.pop("dense") is not None) == dense
            arrays = {name: v for name, v in held.items()
                      if isinstance(v, np.ndarray)}
            assert {"K_D_band", "K_D_chol", "band_pos"} <= set(arrays)
            # the dense array or the tables, never both
            assert ({"S", "R"} <= set(arrays)) != dense
            for name, v in arrays.items():
                assert v.size <= limit, (n_side, name)
