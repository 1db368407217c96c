"""Incremental minimization: subproblem solvers, optimality residuals,
and the one-step descent structure."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import ribv.dissipation as dissipation_module
import ribv.solver as solver_module
from ribv.constitutive import (
    EnergyParams,
    Operators,
    cell_damage,
    damage_curvature,
    damage_potential,
    energy,
    energy_gradients,
    stiffness_coeff,
    yield_radius,
)
from ribv.discretization import (
    Grid,
    SymGradient,
    eval_loading,
    initial_state,
    tensor_norm,
    total_strain,
)
from ribv.config import RunConfig
from ribv.dissipation import Rate, psi_total
from ribv.driver import run_viscous
from ribv.problems import (
    ramp_loading,
    reference_material,
    reference_problem,
)
from ribv.solver import (
    Z_FLOOR,
    _z_hess,
    _z_value,
    band_newton_step,
    el_residuals,
    incremental_step,
    solve_up_step,
    solve_z_step,
)

from conftest import random_state
from oracles import band_to_dense, certified_step, incremental_functional


def small_ep(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.05):
    return EnergyParams(eps=eps, nu=nu, mu=mu, tau=tau, t_final=1.0)


def strain(ops, state, loading, t):
    """The strain e = B(u + w(t)) - p that solve_z_step takes."""
    return total_strain(ops.B, state, eval_loading(loading, t)[0])


def counted(calls, name, fn):
    """fn, adding each of its calls to calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
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
            u_new, p_new = solve_up_step(*eval_loading(loading, 0.7), st,
                                         prev, ops, mat, ep)
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
        calls = {"_prox_shift": 0, "_z_value": 0}
        per_solve = {"solve_up_step": [], "solve_z_step": []}

        def per_call(name, fn, counter):
            def wrapped(*args, **kwargs):
                before = calls[counter]
                out = fn(*args, **kwargs)
                per_solve[name].append(calls[counter] - before)
                return out
            return wrapped

        for name in calls:
            monkeypatch.setattr(solver_module, name, counted(
                calls, name, getattr(solver_module, name)))
        monkeypatch.setattr(solver_module, "solve_up_step",
                            per_call("solve_up_step", solve_up_step,
                                     "_prox_shift"))
        monkeypatch.setattr(solver_module, "solve_z_step",
                            per_call("solve_z_step", solve_z_step,
                                     "_z_value"))
        for text in ("grid_n = 4\nn_steps = 20\nload_amplitude = 1.2\n"
                     "z0 = 0.95\n",
                     "grid_n = 16\nn_steps = 20\nload_amplitude = 0.48\n"):
            cfg = RunConfig.parse(text)
            _, mat, ops, ep, loading, init = cfg.build()
            traj = run_viscous(ops, mat, ep, loading, init,
                               n_steps=cfg.n_steps, tol_stat=cfg.tol_stat,
                               max_iter=cfg.max_iter)
            assert traj.aborted_at is None
        assert max(per_solve["solve_up_step"]) <= 10
        assert max(per_solve["solve_z_step"]) <= 10

    def test_unconverged_solve_raises(self):
        # one Newton iteration from the unloaded state under a damaging
        # load cannot reach tol_dual: the solve says so
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=1.2)
        prev = initial_state(grid, z0=0.95)
        with pytest.raises(RuntimeError, match="dual residual"):
            solve_up_step(*eval_loading(loading, 1.0), prev.copy(), prev,
                          ops, mat, small_ep(), max_iter=1)


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
        ops = dataclasses.replace(ops, A_m=np.zeros_like(ops.A_m))
        loading = ramp_loading(grid, 0.0)
        ep = small_ep(tau=0.1)

        prev = initial_state(grid, z0=0.9)
        st = prev.copy()
        st.u = np.column_stack([0.4 * grid.nodes[:, 0],
                                np.zeros(grid.n_nodes)])
        st.p = np.tile([0.05, -0.05, 0.02], (grid.n_cells, 1))

        z_new = solve_z_step(strain(ops, st, loading, 0.5), st, prev, ops,
                             mat, ep, tol=1e-13)[0]
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
            val += stiffness_coeff(np.array([zeta]), mat)[0][0] * q0
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
        z_new = solve_z_step(strain(ops, st, loading, 1.0), st, prev, ops,
                             mat, ep)[0]
        assert np.all(z_new <= prev.z + 1e-15)
        assert np.all(z_new >= Z_FLOOR * (1 - 1e-12))

    def test_unconverged_z_solve_raises(self, rng):
        # one projected Newton iteration cannot reach tol on the data of
        # test_box_constraints: the solve says so instead of returning z
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
            solve_z_step(strain(ops, st, loading, 1.0), st, prev, ops, mat,
                         small_ep(), max_iter=1)

    @pytest.mark.parametrize("n_side", [3, 5])
    def test_z_value_gradient_fd(self, n_side, rng):
        # the fused value-and-gradient call: central differences of the
        # value along random directions at random interior z, away from
        # the kinks of the stiffness and yield-radius laws
        grid = Grid(n_side)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = small_ep()
        q0 = rng.uniform(0.0, 0.5, grid.n_cells)
        dp_norm = rng.uniform(0.0, 0.2, grid.n_cells)
        h = 1e-6
        for _ in range(5):
            z = rng.uniform(0.3, 0.9, grid.n_nodes)
            z_prev = z + rng.uniform(0.0, 0.1, grid.n_nodes)
            dz = rng.normal(size=grid.n_nodes)
            g = _z_value(z, z_prev, q0, dp_norm, ops, mat, ep)[1]
            fp = _z_value(z + h * dz, z_prev, q0, dp_norm, ops, mat, ep)[0]
            fm = _z_value(z - h * dz, z_prev, q0, dp_norm, ops, mat, ep)[0]
            assert (fp - fm) / (2 * h) == pytest.approx(g @ dz, rel=1e-7)

    def test_one_potential_per_evaluation(self, monkeypatch):
        # each z trial is one fused call: per z solve, the barrier
        # potential is evaluated exactly as often as the objective
        calls = {"damage_potential": 0, "_z_value": 0}
        per_solve = []

        def per_call(*args, **kwargs):
            before = dict(calls)
            out = solve_z_step(*args, **kwargs)
            per_solve.append(tuple(calls[k] - before[k] for k in calls))
            return out

        for name in calls:
            monkeypatch.setattr(solver_module, name, counted(
                calls, name, getattr(solver_module, name)))
        monkeypatch.setattr(solver_module, "solve_z_step", per_call)
        _, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=5, amplitude=1.2)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=5)
        assert traj.aborted_at is None
        assert per_solve and all(n_pot == n_val for n_pot, n_val in per_solve)


class TestOneEvaluationPerIterate:
    def test_z_hessian_from_passed_curvature(self, rng):
        # the Hessian from the c'' of the _z_value call at z equals, bit
        # for bit, one built from z alone in the same order of sums, on
        # cells on both sides of the stiffness kink at z = 1
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = small_ep()
        q0 = rng.uniform(0.0, 0.5, grid.n_cells)
        dp_norm = rng.uniform(0.0, 0.2, grid.n_cells)
        for _ in range(5):
            z = 0.6 + 0.8 * grid.nodes[:, 0] \
                + rng.uniform(-0.05, 0.05, grid.n_nodes)
            cpp = _z_value(z, z + 0.1, q0, dp_norm, ops, mat, ep)[2]
            H = _z_hess(z, q0, cpp, ops, mat, ep)
            want = ops.A_m.copy()
            want[np.diag_indices(grid.n_nodes)] += grid.lump * (
                damage_curvature(z, mat) + ep.eps / ep.tau)
            cpp_z = stiffness_coeff(cell_damage(grid, z), mat)[2]
            assert 0 < np.count_nonzero(cpp_z) < grid.n_cells
            for c, corners in enumerate(grid.cells):
                for i in corners:
                    for j in corners:
                        want[i, j] += grid.w_cell[c] * cpp_z[c] * q0[c] / 16.0
            np.testing.assert_array_equal(H, want)

    def test_laws_and_prox_run_in_value_evaluations_only(self, monkeypatch):
        # per z solve, stiffness_coeff and cell_damage run once per
        # _z_value call and nowhere else (the Hessian takes c'' from the
        # evaluation at its iterate); per (u, p) solve, the prox shift runs
        # once per value evaluation, that is per strain B(u + w), and the
        # Newton tangent reuses it
        calls = {"stiffness_coeff": 0, "cell_damage": 0, "_z_value": 0,
                 "_prox_shift": 0, "apply": 0}
        per_solve = {"solve_z_step": [], "solve_up_step": []}

        def per_call(name, fn):
            def wrapped(*args, **kwargs):
                before = dict(calls)
                out = fn(*args, **kwargs)
                per_solve[name].append(
                    {k: calls[k] - before[k] for k in calls})
                return out
            return wrapped

        for name in ("stiffness_coeff", "cell_damage", "_z_value",
                     "_prox_shift"):
            monkeypatch.setattr(solver_module, name, counted(
                calls, name, getattr(solver_module, name)))
        # the prox and its derivative reach the shift through dissipation
        monkeypatch.setattr(dissipation_module, "_prox_shift",
                            counted(calls, "_prox_shift",
                                    dissipation_module._prox_shift))
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
            assert n["stiffness_coeff"] == n["cell_damage"] == n["_z_value"]
        for n in per_solve["solve_up_step"]:
            assert n["_prox_shift"] == n["apply"] >= 1
        assert sum(n["_prox_shift"] for n in per_solve["solve_up_step"]) \
            > len(per_solve["solve_up_step"])


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
            assert before - (ep.tau * res.psi + res.energy) >= -1e-11
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
        grads = energy_gradients(0.9, res.new_state, ops, mat, ep.mu, loading)
        r = el_residuals(grads, res.new_state, prev, ops, mat, ep)
        assert max(r) <= 1e-9

    def test_functional_evaluated_once_per_end(self, monkeypatch):
        # the energy and psi, the two terms of the step functional, are
        # taken once, at the result, however many sweeps the step takes
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=1.2)
        calls = {"energy": 0, "psi_total": 0}

        monkeypatch.setattr(solver_module, "energy",
                            counted(calls, "energy", energy))
        monkeypatch.setattr(solver_module, "psi_total",
                            counted(calls, "psi_total", psi_total))
        res = incremental_step(0.9, initial_state(grid, z0=0.95), ops, mat,
                               small_ep(tau=0.1), loading, tol_stat=1e-9)
        assert res.iterations >= 2
        assert calls == {"energy": 1, "psi_total": 1}


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
    assert res.psi == ref.psi
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
        # energy_gradients runs once per sweep whose r_u is within
        # tol_stat, plus once at the max_iter-th sweep; r_u is recomputed
        # here after each z solve from the public energy gradients
        ops, mat, ep, loading, t, prev, _ = damaging_step()
        r_u = []

        def z_step(e, state, prev_state, *args, **kwargs):
            out = solve_z_step(e, state, prev_state, *args, **kwargs)
            st = state.copy()
            st.z = out[0]
            r_u.append(el_residuals(
                energy_gradients(t, st, ops, mat, ep.mu, loading), st,
                prev_state, ops, mat, ep)[0])
            return out

        calls = {"energy_gradients": 0}
        monkeypatch.setattr(solver_module, "solve_z_step", z_step)
        monkeypatch.setattr(solver_module, "energy_gradients", counted(
            calls, "energy_gradients", energy_gradients))
        res = incremental_step(t, prev, ops, mat, ep, loading,
                               max_iter=max_iter)
        assert len(r_u) == res.iterations
        passing = sum(r <= 1e-8 for r in r_u)
        if max_iter == 5:
            # cut at a sweep whose r_u fails
            assert res.iterations == 5 and r_u[-1] > 1e-8
            assert calls["energy_gradients"] == passing + 1
        else:
            assert 0 < passing < res.iterations == 15
            assert calls["energy_gradients"] == passing

    def test_max_iter_exit_certifies_in_full(self):
        # a step cut at max_iter = 5 of its 15 sweeps returns all three
        # residuals, computed in full at the returned state, and is not
        # accepted
        ops, mat, ep, loading, t, prev, _ = damaging_step()
        res = incremental_step(t, prev, ops, mat, ep, loading, max_iter=5)
        assert res.iterations == 5 and not res.accepted
        grads = energy_gradients(t, res.new_state, ops, mat, ep.mu, loading)
        assert res.el_residuals == el_residuals(grads, res.new_state, prev,
                                                ops, mat, ep)
        assert res.el_residuals[0] > 1e-8
        assert all(np.isfinite(r) and r > 0 for r in res.el_residuals)
        for got, want in zip(res.gradients, grads):
            np.testing.assert_array_equal(got, want)
