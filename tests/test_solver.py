"""Incremental minimization: subproblem solvers, optimality residuals,
and the one-step descent structure."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import ribv.constitutive as constitutive_module
import ribv.driver as driver_module
import ribv.solver as solver_module
from ribv.constitutive import (
    DamageLaws,
    EnergyParams,
    Operators,
    add_corner_form,
    damage_curvature,
    damage_potential,
    energy,
    energy_from,
    energy_gradients,
    state_gradients,
    stiffness,
    yield_radius,
)
from ribv.discretization import (
    NONLOCAL_DENSE_MAX_SIDE,
    Z_FLOOR,
    DenseForm,
    Grid,
    SymGradient,
    ToeplitzForm,
    assemble_nonlocal_form,
    eval_loading,
    initial_state,
    tensor_norm,
)
from ribv.config import RunConfig
from ribv.dissipation import Rate, RateNorms, prox_map, prox_tangent, \
    psi_total
from ribv.driver import run_viscous
from ribv.problems import (
    ramp_loading,
    reference_material,
    reference_problem,
)
from ribv.solver import (
    UpData,
    _z_base,
    _z_newton,
    _z_value,
    band_newton_step,
    incremental_step,
    solve_up_step,
    solve_z_step,
)

from conftest import random_state
from oracles import band_to_dense, certified_step, certify, \
    incremental_functional, up_record


def small_ep(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.05):
    return EnergyParams(eps=eps, nu=nu, mu=mu, tau=tau, t_final=1.0)


def z_records(ops, mat, ep, state, prev, loading, t):
    """The (u, p) record and the damage laws of state that solve_z_step
    takes, formed afresh."""
    return (up_record(t, state, prev, ops, mat, ep, loading),
            DamageLaws.at(state.z, ops, mat))


def counted(calls, name, fn):
    """fn, adding each of its calls to calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def counted_map(calls, name, make):
    """make, each call of the function it returns added to calls[name]."""
    def wrapped(*args, **kwargs):
        return counted(calls, name, make(*args, **kwargs))
    return wrapped


class TestTrivialSteps:
    def test_zero_loading_fixed_point(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, 0.0)
        prev = initial_state(grid, z0=0.95)
        res = incremental_step(0.5, prev, ops, mat, small_ep(), loading)
        assert res.accepted
        assert res.iterations <= 2
        assert np.allclose(res.new_state.u, prev.u, atol=1e-12)
        assert np.allclose(res.new_state.z, prev.z, atol=1e-12)
        assert np.allclose(res.new_state.p, prev.p, atol=1e-12)

    def test_huge_viscosity_freezes_state(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.4)
        prev = initial_state(grid, z0=0.95)
        ep = small_ep(eps=1e10, nu=1.0, tau=0.05)
        res = incremental_step(1.0, prev, ops, mat, ep, loading,
                               tol_stat=1e-6)
        assert np.max(np.abs(res.new_state.u - prev.u)) < 1e-8
        assert np.max(np.abs(res.new_state.p - prev.p)) < 1e-8
        assert np.max(np.abs(res.new_state.z - prev.z)) < 1e-8

    def test_up_step_descends(self, rng):
        # joint (u, p) minimization with z frozen: the incremental
        # functional does not increase from a random start
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.4)
        ep = small_ep()
        for _ in range(5):
            prev = random_state(grid, rng)
            st = prev.copy()
            u_new, p_new, _ = solve_up_step(
                UpData.of(*eval_loading(loading, 0.7), prev, ops, ep),
                DamageLaws.at(st.z, ops, mat), st, prev, ops, mat, ep)
            before = incremental_functional(0.7, st, prev, ops, mat, ep,
                                            loading)
            st2 = st.copy()
            st2.u, st2.p = u_new, p_new
            after = incremental_functional(0.7, st2, prev, ops, mat, ep,
                                           loading)
            assert after <= before + 1e-12


class TestUpStepExits:
    def test_roundoff_tail_is_short(self, monkeypatch):
        # a damaging ramp near the vanishing-viscosity regime and a loaded
        # 16x16 grid: each solve ends where the objective's decrease is
        # below roundoff, and both line searches accept such steps without
        # halving them away
        calls = {"prox": 0, "_z_value": 0}
        per_solve = {"solve_up_step": [], "solve_z_step": []}

        def per_call(name, fn, counter):
            def wrapped(*args, **kwargs):
                before = calls[counter]
                out = fn(*args, **kwargs)
                per_solve[name].append(calls[counter] - before)
                return out
            return wrapped

        monkeypatch.setattr(solver_module, "_z_value", counted(
            calls, "_z_value", solver_module._z_value))
        monkeypatch.setattr(solver_module, "prox_map", counted_map(
            calls, "prox", solver_module.prox_map))
        monkeypatch.setattr(solver_module, "solve_up_step",
                            per_call("solve_up_step", solve_up_step,
                                     "prox"))
        monkeypatch.setattr(solver_module, "solve_z_step",
                            per_call("solve_z_step", solve_z_step,
                                     "_z_value"))
        for text in ("grid_n = 4\nn_steps = 20\nload_amplitude = 1.2\n"
                     "z0 = 0.95\n",
                     "grid_n = 16\nn_steps = 20\nload_amplitude = 0.48\n"):
            cfg = RunConfig.parse(text)
            _, mat, ops, ep, loading, init = cfg.build()
            traj = run_viscous(ops, mat, ep, loading, init,
                               n_steps=cfg.n_steps, tol_stat=cfg.tol_stat)
            assert traj.aborted_at is None
        assert max(per_solve["solve_up_step"]) <= 10
        assert max(per_solve["solve_z_step"]) <= 10

    def test_unconverged_solve_raises(self, monkeypatch):
        # one Newton iteration from the unloaded state under a damaging
        # load cannot reach tol_dual: the solve says so
        monkeypatch.setattr(solver_module, "UP_MAX_ITER", 1)
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=1.2)
        prev = initial_state(grid, z0=0.95)
        ep = small_ep()
        data = UpData.of(*eval_loading(loading, 1.0), prev, ops, ep)
        with pytest.raises(RuntimeError, match="dual residual"):
            solve_up_step(data, DamageLaws.at(prev.z, ops, mat), prev.copy(),
                          prev, ops, mat, ep)


class TestBandNewtonStep:
    @pytest.mark.parametrize("n_side", [3, 4, 7])
    def test_matches_dense_solve(self, n_side, rng):
        ops = Operators.build(Grid(n_side), reference_material())
        B = ops.B
        M = rng.normal(size=(B.dofs.shape[0], 3, 3))
        T = M @ M.transpose(0, 2, 1) + 0.1 * ops.K_D_cells
        H = B.form(T)
        dense = band_to_dense(H, B.kd)
        g = rng.normal(size=B.n_free)
        ref = np.linalg.solve(dense, g)
        step = band_newton_step(H, g)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_raises(self, rng):
        # stiffness in e_xx alone leaves the y dofs without any coupling:
        # the band has zero columns, and the Cholesky factorization stops
        # at the first of them (LAPACK info = 2) instead of taking a step
        ops = Operators.build(Grid(4), reference_material())
        B = ops.B
        T = np.zeros((B.dofs.shape[0], 3, 3))
        T[:, 0, 0] = 1.0
        H = B.form(T)
        assert np.linalg.matrix_rank(band_to_dense(H, B.kd)) < B.n_free
        g = rng.normal(size=B.n_free)
        with pytest.raises(np.linalg.LinAlgError, match=r"info=2\b"):
            band_newton_step(H, g)


class TestZStep:
    def test_uniform_data_golden_section(self):
        # spatially uniform strain with the nonlocal form zeroed makes
        # the minimizer uniform, reducing the z subproblem to a scalar
        # minimization (the cell weights scattered to a node sum to its
        # lumped weight, so the uniform stationarity condition decouples)
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ops = dataclasses.replace(ops, A_m=DenseForm(
            np.zeros_like(ops.A_m.A)))
        loading = ramp_loading(grid, 0.0)
        ep = small_ep(tau=0.1)

        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u = np.column_stack([0.4 * grid.nodes[:, 0],
                                np.zeros(grid.n_nodes)])
        st.p = np.tile([0.05, -0.05, 0.02], (grid.n_cells, 1))

        z_new = solve_z_step(*z_records(ops, mat, ep, st, prev, loading, 0.5),
                             st, prev, ops, mat, ep, tol=1e-13)[0]
        assert np.ptp(z_new) < 1e-10  # stays uniform by symmetry

        e = ops.B.apply(st.u)[0] - st.p[0]
        lam, mu_l = mat.lame_lambda, mat.lame_mu
        q0 = 0.5 * (2 * mu_l * (e[0] ** 2 + e[1] ** 2 + 2 * e[2] ** 2)
                    + lam * (e[0] + e[1]) ** 2)
        dp = float(tensor_norm(st.p - prev.p)[0])
        zp = 0.9

        def scalar_obj(zeta):
            za = np.full(grid.n_nodes, zeta)
            W, _ = damage_potential(za, mat)
            val = float(np.sum(grid.lump * W))
            val += stiffness(np.array([zeta]), mat)[0] * q0
            val += yield_radius(np.array([zeta]), mat)[0] * dp
            d = zeta - zp
            val += mat.kappa * abs(d) + 0.5 * ep.eps / ep.tau * d ** 2
            return val

        r = minimize_scalar(scalar_obj, bounds=(Z_FLOOR, zp),
                            method="bounded", options={"xatol": 1e-12})
        assert z_new[0] == pytest.approx(float(r.x), abs=1e-8)

    def test_box_constraints(self, rng):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.45)
        ep = small_ep()
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        z_new = solve_z_step(*z_records(ops, mat, ep, st, prev, loading, 1.0),
                             st, prev, ops, mat, ep)[0]
        assert np.all(z_new <= prev.z + 1e-15)
        assert np.all(z_new >= Z_FLOOR * (1 - 1e-12))

    def test_no_full_size_array_on_a_large_grid(self, monkeypatch):
        # the form held as its tables: the first iteration of a z-step
        # with about half its nodes free (strain in the left half of the
        # grid only) takes its direction by CG, forms no base on the free
        # nodes and allocates a few dozen nodal vectors, a peak linear in
        # N at n_side 32 and 48, not an N x N array; the step then ends at
        # its one allowed iteration
        monkeypatch.setattr(solver_module, "Z_MAX_ITER", 1)
        calls, sizes = {"_z_base": 0}, []
        monkeypatch.setattr(solver_module, "_z_base",
                            counted(calls, "_z_base", _z_base))

        def sized(a, ops):
            solve = _z_newton(a, ops)
            return lambda idx, *rest: sizes.append(len(idx)) \
                or solve(idx, *rest)

        monkeypatch.setattr(solver_module, "_z_newton", sized)
        mat = reference_material()
        ep = small_ep()
        for n_side in (32, 48):
            grid = Grid(n_side)
            ops = Operators.build(grid, mat)
            assert type(ops.A_m) is ToeplitzForm
            prev = initial_state(grid, z0=0.9)
            st = prev.copy()
            st.u[:, 0] = 0.5 * np.minimum(grid.nodes[:, 0], 0.5)
            records = z_records(ops, mat, ep, st, prev,
                                ramp_loading(grid, 0.0), 1.0)
            tracemalloc.start()
            try:
                with pytest.raises(RuntimeError,
                                   match="after 1 iterations"):
                    solve_z_step(*records, st, prev, ops, mat, ep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.45 < sizes.pop() / grid.n_nodes < 0.55 and not sizes
            assert peak < 64 * 8 * grid.n_nodes
        assert calls["_z_base"] == 0

    @pytest.mark.parametrize(
        "n_side", [*range(3, NONLOCAL_DENSE_MAX_SIDE + 1), 28, 32])
    def test_cg_direction_is_dense_solve(self, n_side, rng):
        # the CG direction on the tables against a dense solve with the
        # free slice of the assembled form plus the corner form and the
        # diagonal: its residual is within rtol of g, so it lies within
        # rtol |g| / lambda_min of the dense solution; up to the crossover
        # the tables are built directly, since the type picks the solve
        grid = Grid(n_side)
        mat = reference_material()
        ops = dataclasses.replace(
            Operators.build(grid, mat),
            A_m=ToeplitzForm.build(grid, mat.m_order))
        A = assemble_nonlocal_form(grid, mat.m_order)
        ep = small_ep()
        a = grid.w_cell * rng.uniform(0.0, 0.5, grid.n_cells)
        z = rng.uniform(0.3, 1.0, grid.n_nodes)
        for idx in (np.flatnonzero(rng.random(grid.n_nodes) < 0.5),
                    np.flatnonzero(grid.nodes[:, 0] < 0.5)):
            curv = grid.lump[idx] * (damage_curvature(z[idx], mat)
                                     + ep.eps / ep.tau)
            H = np.zeros((len(idx) + 1, len(idx) + 1))
            H[:-1, :-1] = A[idx][:, idx]
            add_corner_form(grid, H, 2.0 * a, idx)
            H = H[:-1, :-1]
            H[np.diag_indices(len(idx))] += curv
            lam_min = np.linalg.eigvalsh(H)[0]
            g = grid.lump[idx] * rng.normal(size=len(idx))
            want = np.linalg.solve(H, g)
            for rtol in (0.1, 1e-4, 1e-9):
                d = _z_newton(a, ops)(idx, curv, g, rtol)
                gap = np.linalg.norm(H @ d - g)
                assert gap <= rtol * np.linalg.norm(g) * (1 + 1e-6)
                assert np.linalg.norm(d - want) \
                    <= gap / lam_min * (1 + 1e-6) + 1e-14

    def test_table_path_reaches_the_dense_minimizer(self, rng):
        # the same z-step on a small grid with the form held either way:
        # CG and the dense Cholesky stop at the same stationarity
        # tolerance, so their minimizers agree to it
        grid = Grid(6)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        table = dataclasses.replace(
            ops, A_m=ToeplitzForm.build(grid, mat.m_order))
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        ep = small_ep()
        z = [solve_z_step(*z_records(o, mat, ep, st, prev, loading, 1.0),
                          st, prev, o, mat, ep, tol=1e-12)[0]
             for o in (ops, table)]
        assert (z[0] < prev.z).any()
        np.testing.assert_allclose(z[1], z[0], rtol=0, atol=1e-10)

    def test_cg_non_positive_curvature_raises(self, rng):
        # the tables of -1e6 A_m, a negative semidefinite stand-in, leave
        # the free Newton matrix indefinite: CG stops at the first
        # direction of non-positive curvature, naming it and its residual,
        # instead of taking a step; at uniform z the form adds nothing to
        # the gradient, as in test_non_spd_free_slice_raises
        grid = Grid(4)
        mat = reference_material()
        form = ToeplitzForm.build(grid, mat.m_order)
        ops = dataclasses.replace(
            Operators.build(grid, mat), A_m=dataclasses.replace(
                form, r=-1e6 * form.r, k_hat=-1e6 * form.k_hat))
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        ep = small_ep()
        records = z_records(ops, mat, ep, st, prev, loading, 1.0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"CG: curvature -\S+ <= 0 at relative "
                                 r"residual 1\.000e\+00$"):
            solve_z_step(*records, st, prev, ops, mat, ep)

    def test_cg_at_its_cap_raises(self, rng, monkeypatch):
        # one CG iteration cannot reach the forcing term on the data of
        # test_box_constraints with the tables: the solve says so, with
        # its residual, instead of returning a direction
        monkeypatch.setattr(solver_module, "CG_MAX_ITER", 1)
        grid = Grid(5)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ops = dataclasses.replace(
            ops, A_m=ToeplitzForm.build(grid, mat.m_order))
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        ep = small_ep()
        records = z_records(ops, mat, ep, st, prev, loading, 1.0)
        with pytest.raises(RuntimeError,
                           match=r"relative residual \S+ > \S+ after 1 "
                                 r"iterations"):
            solve_z_step(*records, st, prev, ops, mat, ep)

    def test_node_pinned_at_both_bounds(self, rng):
        # a node whose z_prev sits at the floor is held at both bounds: its
        # negative W' cannot be reduced by any feasible step, and the
        # stationarity residual leaves it out
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        prev.z[7] = Z_FLOOR
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        ep = small_ep()
        z_new = solve_z_step(*z_records(ops, mat, ep, st, prev, loading, 1.0),
                             st, prev, ops, mat, ep)[0]
        assert z_new[7] == Z_FLOOR
        assert np.all(z_new <= prev.z) and np.all(z_new >= Z_FLOOR)

    def test_unconverged_z_solve_raises(self, rng, monkeypatch):
        # one projected Newton iteration cannot reach tol on the data of
        # test_box_constraints: the solve says so instead of returning z
        monkeypatch.setattr(solver_module, "Z_MAX_ITER", 1)
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        with pytest.raises(RuntimeError, match="residual"):
            ep = small_ep()
            solve_z_step(*z_records(ops, mat, ep, st, prev, loading, 1.0),
                         st, prev, ops, mat, ep)

    def test_non_spd_free_slice_raises(self, rng):
        # a negative definite nonlocal form leaves the free slice of the
        # Newton matrix indefinite: the Cholesky factor stops at its first
        # pivot (LAPACK info = 1) instead of taking a step; at uniform z
        # the form adds nothing to the gradient, so the free set is that
        # of test_box_constraints
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ops = dataclasses.replace(ops, A_m=DenseForm(
            -1e6 * np.eye(grid.n_nodes)))
        loading = ramp_loading(grid, amplitude=0.45)
        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u[~grid.dirichlet_mask] = rng.normal(0, 0.3,
                                                (grid.n_nodes
                                                 - grid.n_side, 2))
        ep = small_ep()
        records = z_records(ops, mat, ep, st, prev, loading, 1.0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"dposv failed with info=1\b"):
            solve_z_step(*records, st, prev, ops, mat, ep)

    @pytest.mark.parametrize("n_side", [3, 5])
    def test_z_value_gradient_fd(self, n_side, rng):
        # the laws at z assembled into value and gradient: central
        # differences of the value along random directions at random
        # interior z of the damage domain (0, 1]
        grid = Grid(n_side)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = small_ep()
        a = grid.w_cell * rng.uniform(0.0, 0.5, grid.n_cells)
        b = grid.w_cell * rng.uniform(0.0, 0.2, grid.n_cells)
        h = 1e-6
        for _ in range(5):
            z = rng.uniform(0.3, 0.9, grid.n_nodes)
            z_prev = z + rng.uniform(0.0, 0.1, grid.n_nodes)
            dz = rng.normal(size=grid.n_nodes)
            def z_value(x):
                return _z_value(DamageLaws.at(x, ops, mat), x, z_prev, a, b,
                                ops, mat, ep)

            g = z_value(z)[1]
            fp, fm = z_value(z + h * dz)[0], z_value(z - h * dz)[0]
            assert (fp - fm) / (2 * h) == pytest.approx(g @ dz, rel=1e-7)

    def test_one_potential_per_evaluation(self, monkeypatch):
        # each z trial forms its laws once: per z solve, the barrier
        # potential and the cell laws run once per trial, that is once per
        # distinct z, one fewer than the objective, whose first evaluation
        # reads the laws at the z the previous sweep (or step) accepted;
        # over the run they run once more, for the initial state
        calls = {"damage_potential": 0, "damage_cells": 0, "_z_value": 0}
        per_solve = []

        def per_call(*args, **kwargs):
            before = dict(calls)
            out = solve_z_step(*args, **kwargs)
            per_solve.append({k: calls[k] - before[k] for k in calls})
            return out

        for name in ("damage_potential", "damage_cells"):
            monkeypatch.setattr(constitutive_module, name, counted(
                calls, name, getattr(constitutive_module, name)))
        monkeypatch.setattr(solver_module, "_z_value", counted(
            calls, "_z_value", solver_module._z_value))
        monkeypatch.setattr(solver_module, "solve_z_step", per_call)
        _, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=5, amplitude=1.2)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=5)
        assert traj.aborted_at is None
        assert per_solve
        for n in per_solve:
            assert n["damage_potential"] == n["damage_cells"] \
                == n["_z_value"] - 1
        assert calls["damage_potential"] == calls["damage_cells"] \
            == sum(n["damage_cells"] for n in per_solve) + 1
        assert sum(n["damage_cells"] for n in per_solve) > 0


class TestOneEvaluationPerIterate:
    def test_z_hessian_from_passed_curvature(self, rng):
        # the base on the free nodes, with the diagonal term added, equals
        # bit for bit the slice of the Hessian built on all nodes from z
        # alone, for z in the damage domain up to 1
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = small_ep()
        a = grid.w_cell * rng.uniform(0.0, 0.5, grid.n_cells)
        b = grid.w_cell * rng.uniform(0.0, 0.2, grid.n_cells)
        for k in range(5):
            z = np.minimum(0.5 + 0.5 * grid.nodes[:, 0]
                           + rng.uniform(-0.05, 0.05, grid.n_nodes), 1.0)
            idx = np.arange(grid.n_nodes) if k == 0 else np.flatnonzero(
                rng.random(grid.n_nodes) < 0.6)
            H = _z_base(a, idx, ops)
            H[np.diag_indices(len(idx))] += grid.lump[idx] * (
                damage_curvature(z[idx], mat) + ep.eps / ep.tau)
            want = ops.A_m.A.copy()
            for c, corners in enumerate(grid.cells):
                for i in corners:
                    for j in corners:
                        want[i, j] += 2.0 * a[c] / 16.0
            want[np.diag_indices(grid.n_nodes)] += grid.lump * (
                damage_curvature(z, mat) + ep.eps / ep.tau)
            np.testing.assert_array_equal(H, want[np.ix_(idx, idx)])

    def test_laws_and_prox_run_in_value_evaluations_only(self, monkeypatch):
        # per z solve, damage_cells and cell_damage run once per trial
        # (the first objective reads the laws handed on), and the Hessian
        # base once while the free set stays fixed; the (u, p)
        # solves never form the laws, which the z-step or the previous
        # step hands them; per
        # (u, p) solve, the prox map is checked once and its shift runs once
        # per value evaluation, that is per strain B(u + w), whose elastic
        # cells the Newton tangent, the z-step and the certification reuse:
        # over the run, elastic_cells and SymGradient.apply run only there
        # and once per step in the power, at the strain of q_{k-1} at t_k
        calls = {"damage_cells": 0, "cell_damage": 0, "_z_value": 0,
                 "_z_base": 0, "dposv": 0, "prox_map": 0, "shift": 0,
                 "apply": 0, "elastic_cells": 0}
        per_solve = {"solve_z_step": [], "solve_up_step": []}
        bases = []

        def per_call(name, fn):
            def wrapped(*args, **kwargs):
                before = dict(calls)
                out = fn(*args, **kwargs)
                per_solve[name].append(
                    {k: calls[k] - before[k] for k in calls})
                return out
            return wrapped

        def z_base(a, idx, ops):
            bases.append((len(per_solve["solve_z_step"]), idx))
            return _z_base(a, idx, ops)

        for name in ("damage_cells", "cell_damage"):
            monkeypatch.setattr(constitutive_module, name, counted(
                calls, name, getattr(constitutive_module, name)))
        elastic = counted(calls, "elastic_cells",
                          constitutive_module.elastic_cells)
        for module in (constitutive_module, solver_module, driver_module):
            monkeypatch.setattr(module, "elastic_cells", elastic)
        for name in ("_z_value", "prox_map"):
            monkeypatch.setattr(solver_module, name, counted(
                calls, name, getattr(solver_module, name)))
        monkeypatch.setattr(solver_module, "_z_base", counted(
            calls, "_z_base", z_base))
        monkeypatch.setattr(solver_module, "prox_map", counted_map(
            calls, "shift", solver_module.prox_map))
        monkeypatch.setattr(solver_module.lapack, "dposv", counted(
            calls, "dposv", solver_module.lapack.dposv))
        monkeypatch.setattr(SymGradient, "apply",
                            counted(calls, "apply", SymGradient.apply))
        for name in per_solve:
            monkeypatch.setattr(solver_module, name,
                                per_call(name, getattr(solver_module, name)))
        _, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=5, amplitude=1.2)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=5)
        assert traj.aborted_at is None
        assert per_solve["solve_z_step"] and per_solve["solve_up_step"]
        for n in per_solve["solve_z_step"]:
            assert n["damage_cells"] == n["cell_damage"] == n["_z_value"] - 1
            assert n["_z_base"] <= n["dposv"]
            assert n["elastic_cells"] == n["apply"] == 0
        # a rebuild within one solve only where the free set changed
        for (k0, idx0), (k1, idx1) in zip(bases, bases[1:]):
            assert k0 != k1 or not np.array_equal(idx0, idx1)
        assert len(bases) < sum(n["dposv"] for n in per_solve["solve_z_step"])
        for n in per_solve["solve_up_step"]:
            assert n["damage_cells"] == 0
            assert n["prox_map"] == 1
            assert n["shift"] == n["apply"] == n["elastic_cells"] >= 1
        up_evals = sum(n["shift"] for n in per_solve["solve_up_step"])
        assert up_evals > len(per_solve["solve_up_step"])
        assert calls["elastic_cells"] == calls["apply"] \
            == up_evals + traj.n_steps


    def test_tangent_formed_only_where_a_cell_yields(self, monkeypatch,
                                                       rng):
        # where no cell yields, the prox tangent is 0 on every cell and
        # S0 (I - J) is S0 bit for bit, so the (u, p) solve takes S0 without
        # forming it: over a damaging run, every tangent it forms has a
        # yielding cell, and some Newton iterations form none
        grid = Grid(4)
        mat = reference_material()
        n = grid.n_cells
        p_prev = rng.normal(0.0, 0.05, (n, 3))
        p_prev[:, 1] = -p_prev[:, 0]
        c_q = rng.uniform(0.5, 2.0, n)
        shift = prox_map(p_prev, np.full(n, 1e3), 0.1, 0.01, c_q)(
            rng.normal(0.0, 0.1, (n, 3)))
        assert (shift[3] >= 1.0).all()
        T = mat.unit_stiffness @ (np.eye(3) - prox_tangent(shift, c_q))
        np.testing.assert_array_equal(
            T, np.broadcast_to(mat.unit_stiffness, T.shape))

        calls = {"newton": 0}
        yielding = []

        def tangent(shift, c_q):
            yielding.append(bool((shift[3] < 1.0).any()))
            return prox_tangent(shift, c_q)

        monkeypatch.setattr(solver_module, "prox_tangent", tangent)
        monkeypatch.setattr(solver_module, "band_newton_step", counted(
            calls, "newton", band_newton_step))
        _, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=5, amplitude=1.2)
        assert run_viscous(ops, mat, ep, loading, init,
                           n_steps=5).aborted_at is None
        assert all(yielding) and 0 < len(yielding) < calls["newton"]


class TestIncrementalStep:
    def test_optimality_vs_random_competitors(self, rng):
        # small instance: the converged step beats 10^4 random feasible
        # perturbations
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.6)
        ep = small_ep(tau=0.25)
        prev = initial_state(grid, z0=0.9)
        res = incremental_step(1.0, prev, ops, mat, ep, loading,
                               tol_stat=1e-10)
        st = res.new_state
        f_star = incremental_functional(1.0, st, prev, ops, mat, ep,
                                        loading)
        free = ~grid.dirichlet_mask
        n_free = int(free.sum())
        for _ in range(10000):
            scale = 10.0 ** rng.uniform(-6, -1)
            cand = st.copy()
            cand.u[free] += rng.normal(0, scale, (n_free, 2))
            dz = rng.normal(0, scale, grid.n_nodes)
            cand.z = np.clip(st.z + dz, Z_FLOOR, prev.z)
            dp = rng.normal(0, scale, (grid.n_cells, 3))
            dp[:, 1] = -dp[:, 0]
            cand.p = st.p + dp
            f = incremental_functional(1.0, cand, prev, ops, mat, ep,
                                       loading)
            assert f >= f_star - 1e-10

    def test_variational_inequality_pair(self):
        # GV-1 nodewise: eps z' + chi - kappa <= tol with chi the damage
        # energy density gradient; checked directly at a converged step
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.48)
        ep = small_ep(tau=0.05)
        prev = initial_state(grid, z0=0.95)
        state = prev
        for k in range(1, 6):
            res = incremental_step(k * ep.tau, state, ops, mat, ep,
                                   loading, tol_stat=1e-9)
            assert res.accepted
            new = res.new_state
            _, g_z, _ = energy_gradients(k * ep.tau, new, ops, mat,
                                         ep.mu, loading)
            z_rate = (new.z - state.z) / ep.tau
            gv1 = ep.eps * z_rate + g_z - mat.kappa
            active = new.z > Z_FLOOR * (1 + 1e-9)
            assert np.all(gv1[active] <= 1e-7)
            state = new

    def test_descent_and_monotonicity(self):
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.48)
        ep = small_ep(tau=0.05)
        prev = initial_state(grid, z0=0.95)
        for k in range(1, 8):
            res = incremental_step(k * ep.tau, prev, ops, mat, ep,
                                   loading)
            assert res.accepted
            before = incremental_functional(k * ep.tau, prev, prev, ops,
                                            mat, ep, loading)
            after = incremental_functional(k * ep.tau, res.new_state, prev,
                                           ops, mat, ep, loading)
            assert before - after >= -1e-11
            assert np.all(res.new_state.z <= prev.z + 1e-15)
            prev = res.new_state

    def test_one_step_energy_estimate(self):
        # minimizing from the previous state certifies
        # tau psi + E(new) <= E(t_k, prev): slack >= -1e-9
        grid = Grid(4)
        _, mat, ops, ep, loading, init = reference_problem(n_side=4,
                                                           n_steps=20)
        prev = init
        for k in range(1, 11):
            t_k = k * ep.tau
            res = incremental_step(t_k, prev, ops, mat, ep, loading)
            new = res.new_state
            rate = Rate((new.u - prev.u) / ep.tau,
                        (new.z - prev.z) / ep.tau,
                        (new.p - prev.p) / ep.tau)
            lhs = ep.tau * psi_total(new, rate, ops, mat, ep.eps, ep.nu,
                                     tol_pos=1e-12) \
                + energy(t_k, new, ops, mat, ep.mu, loading)
            rhs = energy(t_k, prev, ops, mat, ep.mu, loading)
            assert rhs - lhs >= -1e-9
            prev = new

    def test_residuals_below_tolerance(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.45)
        ep = small_ep(tau=0.1)
        prev = initial_state(grid, z0=0.95)
        res = incremental_step(0.9, prev, ops, mat, ep, loading,
                               tol_stat=1e-9)
        _, r = certify(0.9, res.new_state, prev, ops, mat, ep, loading)
        assert max(r) <= 1e-9

    @pytest.mark.parametrize("tol_stat", [-1e-8, 0.0, np.nan, np.inf])
    def test_rejects_tolerance_outside_positive_reals(self, tol_stat):
        # unchecked, a negative or nan tolerance fails in the z-step on an
        # empty free set, 0 runs 500 sweeps and aborts, and inf accepts
        # every step after one sweep
        _, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                           n_steps=2)
        with pytest.raises(ValueError, match="tol_stat must be positive"):
            incremental_step(0.5, init, ops, mat, ep, loading,
                             tol_stat=tol_stat)
        with pytest.raises(ValueError, match="tol_stat must be positive"):
            run_viscous(ops, mat, ep, loading, init, n_steps=2,
                        tol_stat=tol_stat)

    def test_functional_evaluated_once_per_end(self, monkeypatch):
        # the energy is taken once, at the result, however many sweeps the
        # step takes; the step's Psi is not the solver's to take: the
        # driver reads it from the step's rate record
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=1.2)
        calls = {"energy_from": 0, "rate_norms": 0}

        monkeypatch.setattr(solver_module, "energy_from",
                            counted(calls, "energy_from", energy_from))
        monkeypatch.setattr(RateNorms, "of", classmethod(
            counted(calls, "rate_norms", RateNorms.of.__func__)))
        res = incremental_step(0.9, initial_state(grid, z0=0.95), ops, mat,
                               small_ep(tau=0.1), loading, tol_stat=1e-9)
        assert res.iterations >= 2
        assert calls == {"energy_from": 1, "rate_norms": 0}


def damaging_step(n_steps=10, k=6):
    """Operators, material, step parameters and loading of the damaging
    ramp on a 3x3 grid, with the time and previous state of its step k
    (15 sweeps)."""
    _, mat, ops, ep, loading, init = reference_problem(
        n_side=3, n_steps=n_steps, amplitude=1.2)
    traj = run_viscous(ops, mat, ep, loading, init, n_steps=n_steps)
    return ops, mat, traj.ep, loading, traj.times[k], traj.states[k - 1], init


def assert_same_step(res, ref):
    assert res.iterations == ref.iterations
    assert res.el_residuals == ref.el_residuals
    assert res.accepted == ref.accepted
    assert res.energy == ref.energy
    assert res.loaded == ref.loaded
    for got, want in zip(res.gradients, ref.gradients):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(res.strain, ref.strain)
    for name in ("u", "z", "p"):
        np.testing.assert_array_equal(getattr(res.new_state, name),
                                      getattr(ref.new_state, name))


class TestCertificationOrder:
    """A sweep runs the full certification only where r_u lets it pass,
    which changes no result."""

    def test_matches_full_certification(self):
        # a damaging ramp step of 15 sweeps and the pre-relaxation step
        # (tau = 1e12) agree bit for bit with the loop that certifies
        # every sweep in full
        ops, mat, ep, loading, t, prev, init = damaging_step()
        res = incremental_step(t, prev, ops, mat, ep, loading)
        assert res.accepted and res.iterations == 15
        assert_same_step(res, certified_step(t, prev, ops, mat, ep, loading))
        relax = dataclasses.replace(ep, tau=1e12)
        res = incremental_step(0.0, init, ops, mat, relax, loading,
                               tol_stat=1e-9, max_iter=200)
        assert res.accepted
        assert_same_step(res, certified_step(0.0, init, ops, mat, relax,
                                             loading, tol_stat=1e-9,
                                             max_iter=200))

    @pytest.mark.parametrize("max_iter", [500, 5])
    def test_gradients_once_per_passing_sweep(self, monkeypatch, max_iter):
        # the z and p gradients (``state_gradients``) are read once per
        # sweep whose r_u is within tol_stat, plus once at the max_iter-th
        # sweep; r_u is recomputed here after each z solve from the public
        # energy gradients
        ops, mat, ep, loading, t, prev, _ = damaging_step()
        r_u = []

        def z_step(up, laws, state, prev_state, *args, **kwargs):
            out = solve_z_step(up, laws, state, prev_state, *args, **kwargs)
            st = state.copy()
            st.z = out[0]
            r_u.append(certify(t, st, prev_state, ops, mat, ep,
                               loading)[1][0])
            return out

        calls = {"state_gradients": 0}
        monkeypatch.setattr(solver_module, "solve_z_step", z_step)
        monkeypatch.setattr(solver_module, "state_gradients", counted(
            calls, "state_gradients", state_gradients))
        res = incremental_step(t, prev, ops, mat, ep, loading,
                               max_iter=max_iter)
        assert len(r_u) == res.iterations
        passing = sum(r <= 1e-8 for r in r_u)
        if max_iter == 5:
            # cut at a sweep whose r_u fails
            assert res.iterations == 5 and r_u[-1] > 1e-8
            assert calls["state_gradients"] == passing + 1
        else:
            assert 0 < passing < res.iterations == 15
            assert calls["state_gradients"] == passing

    def test_max_iter_exit_certifies_in_full(self):
        # a step cut at max_iter = 5 of its 15 sweeps returns all three
        # residuals, computed in full at the returned state, and is not
        # accepted
        ops, mat, ep, loading, t, prev, _ = damaging_step()
        res = incremental_step(t, prev, ops, mat, ep, loading, max_iter=5)
        assert res.iterations == 5 and not res.accepted
        grads, residuals = certify(t, res.new_state, prev, ops, mat, ep,
                                   loading)
        assert res.el_residuals == residuals
        assert res.el_residuals[0] > 1e-8
        assert all(np.isfinite(r) and r > 0 for r in res.el_residuals)
        for got, want in zip(res.gradients, grads):
            np.testing.assert_array_equal(got, want)
