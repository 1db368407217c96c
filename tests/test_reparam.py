"""Arclength reparameterization, contact potentials, jump detection,
switching recovery, and vanishing-parameter sweeps."""

from types import SimpleNamespace

import numpy as np
import pytest

import ribv.constitutive as constitutive_module
import ribv.reparam as reparam_module
from ribv.constitutive import (
    EnergyParams,
    Operators,
    cell_damage,
    energy,
    energy_gradients,
    yield_radius,
)
from ribv.discretization import Grid, State, initial_state, tensor_norm
from ribv.dissipation import DualDiagnostics, Rate, RateNorms, d_nu, \
    dual_diagnostics, psi_total
from ribv.driver import Trajectory, run_viscous
from ribv.problems import (
    ramp_loading,
    reference_material,
    reference_problem,
)
from ribv.reparam import (
    REGIMES,
    ParamTrajectory,
    _align_z_curves,
    _integrand,
    bv_sweep,
    contact_potential,
    detect_jumps,
    ed_balance_residual_bv,
    max_stability_nonjump,
    recover_switching,
    reparam_ed,
    reparam_standard,
    stability_magnitude,
)

from conftest import random_rate, random_state
from oracles import align_z_curves, d_up, jump_intervals, loaded_at, \
    state_strain, switching_residual


def ramp_run(n_steps=20, n_side=4, amplitude=0.48, tol_stat=1e-8,
             **ep_over):
    grid, mat, ops, ep, loading, init = reference_problem(
        n_side=n_side, n_steps=n_steps, amplitude=amplitude, **ep_over)
    traj = run_viscous(ops, mat, ep, loading, init, n_steps=n_steps,
                       tol_stat=tol_stat)
    assert traj.aborted_at is None
    return ops, traj


class TestNormalization:
    def test_constant_trajectory_arclength_is_time(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.1,
                          t_final=1.0)
        traj = run_viscous(ops, mat, ep, ramp_loading(grid, 0.0),
                           initial_state(grid, 0.95), n_steps=10)
        p = reparam_standard(traj, ops)
        assert np.allclose(p.s, traj.times, atol=1e-12)

    def test_unit_normalization_both_arclengths(self):
        ops, traj = ramp_run()
        for p in (reparam_standard(traj, ops), reparam_ed(traj, ops)):
            assert np.all(np.abs(p.normalization[1:] - 1.0) < 1e-8)
            assert np.all(np.diff(p.s) > 0)
            assert np.all(p.t_rate >= 0)

    def test_rates_scale_the_run(self):
        # a reparameterization holds the run itself; its rates are the
        # run's time rates times dt/ds = tau / ds, bit for bit
        ops, traj = ramp_run(n_steps=10)
        for p in (reparam_standard(traj, ops), reparam_ed(traj, ops)):
            assert p.traj is traj
            for k in range(1, p.n_knots):
                tau = traj.times[k] - traj.times[k - 1]
                fac = p.t_rate[k]
                assert fac == pytest.approx(tau / (p.s[k] - p.s[k - 1]),
                                            rel=1e-12)
                r, rs = traj.rate(k), p.rate(k)
                assert np.array_equal(rs.u_rate, r.u_rate * fac)
                assert np.array_equal(rs.z_rate, r.z_rate * fac)
                assert np.array_equal(rs.p_rate, r.p_rate * fac)

    def test_rate_outside_knots_raises(self):
        # the rates per unit s are the run's backward differences, which
        # exist at knots 1..n_knots - 1 only
        ops, traj = ramp_run(n_steps=5, amplitude=1.2)
        for p in (reparam_standard(traj, ops), reparam_ed(traj, ops)):
            for k in (0, p.n_knots):
                with pytest.raises(ValueError, match="outside"):
                    p.rate(k)
            assert (p.rate(1).z_rate <= 0).all()

    def test_round_trip_rates_resum(self):
        # rebuild rates from (s, t, q(s)) alone and re-integrate the
        # normalization: the total must reproduce the final arclength
        ops, traj = ramp_run(n_steps=10)
        st = traj.states
        for kind, build in (("std", reparam_standard), ("ed", reparam_ed)):
            p = build(traj, ops)
            total = 0.0
            for k in range(1, p.n_knots):
                ds = p.s[k] - p.s[k - 1]
                t_rate = (traj.times[k] - traj.times[k - 1]) / ds
                check = Rate(u_rate=(st[k].u - st[k - 1].u) / ds,
                             z_rate=(st[k].z - st[k - 1].z) / ds,
                             p_rate=(st[k].p - st[k - 1].p) / ds)
                assert np.allclose(check.u_rate, p.rate(k).u_rate,
                                   atol=1e-10)
                V = yield_radius(cell_damage(ops.grid, st[k].z), traj.mat)
                norms = RateNorms.of(
                    ops, check, V, traj.mat.kappa,
                    (state_strain(traj, ops, k)
                     - state_strain(traj, ops, k - 1)) / ds)
                total += ds * _integrand(kind, traj.ep, t_rate, norms,
                                         traj.dual_diag[k].d_nu_star)
            assert total == pytest.approx(p.s[-1], abs=1e-10)


class TestContactPotential:
    def test_viscous_identity_at_converged_knots(self):
        # at sharply converged steps the dual and primal readings agree:
        # D* = eps D_nu, so the viscous contact value collapses to the
        # rate-independent part plus eps D_nu^2.  The amplitude stays
        # below the yield window: simultaneous plastic flow adds an
        # O(tau) cross term between the damage driving force and the
        # damage-dependent yield radius, which is tested separately at
        # the tau-dependent tolerance.
        ops, traj = ramp_run(n_steps=10, amplitude=0.46, tol_stat=1e-11)
        p = reparam_standard(traj, ops)
        ep = traj.ep
        for k in range(1, p.n_knots):
            dn = d_nu(ops, p.rate(k), ep.nu)
            ds = traj.dual_diag[k].d_nu_star
            # the stored rate is per unit s; the slow-time rate is a
            # factor 1/t' larger, so eps * D_nu(q') / t' must match D*
            assert abs(ep.eps * dn / p.t_rate[k] - ds) < 1e-8

    def test_viscous_branch_consistency(self):
        ops, traj = ramp_run(n_steps=10, amplitude=0.46, tol_stat=1e-11)
        p = reparam_standard(traj, ops)
        ep, mat = traj.ep, traj.mat
        for k in range(1, p.n_knots):
            m = contact_potential("visc", float(p.t_rate[k]), p.norms(k),
                                  traj.dual_diag[k], ep, stab_tol=10 * ep.eps)
            ri = psi_total(traj.states[k], p.rate(k), ops, mat, 0.0, 0.0,
                           tol_pos=1e-12)
            dn = d_nu(ops, p.rate(k), ep.nu)
            expect = ri + ep.eps * dn ** 2 / p.t_rate[k]
            assert m == pytest.approx(expect, rel=1e-6, abs=1e-10)

    def test_multirate_jump_branch_formula(self, rng):
        # a jump knot (t' below TOL_JUMP) with z' = 0 in the nu = eps
        # regime: the value is the product D(u', p') * D^{*,mu}
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.45)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=0.1, tau=0.05,
                          t_final=1.0)
        st = random_state(grid, rng)
        u_rate = rng.normal(0, 0.3, (grid.n_nodes, 2))
        u_rate[grid.dirichlet_mask] = 0.0
        p_rate = rng.normal(0, 0.3, (grid.n_cells, 3))
        p_rate[:, 1] = -p_rate[:, 0]
        rate = Rate(u_rate=u_rate, z_rate=np.zeros(grid.n_nodes),
                    p_rate=p_rate)
        diag = dual_diagnostics(0.5, st, ops, mat, ep.mu, ep.nu, loading)
        norms = RateNorms.of(ops, rate,
                             yield_radius(cell_damage(grid, st.z), mat),
                             mat.kappa, np.zeros_like(p_rate))
        m = contact_potential("eps-nu0", 1e-5, norms, diag, ep,
                              stab_tol=0.1, jump=True)
        ri = psi_total(st, rate, ops, mat, 0.0, 0.0, tol_pos=1e-12)
        expect = ri + d_up(ops, u_rate, p_rate) * diag.d_star_mu
        assert m == pytest.approx(expect, rel=1e-12)


    def test_jump_knot_takes_jump_branch(self, monkeypatch):
        # the snap's one jump knot (dt/ds about 6e-5) takes the jump branch
        # of the vanishing regimes: the eps0 balance is finite, with the
        # contact integral of the viscous formula to roundoff, which holds
        # at every knot whatever TOL_JUMP marks; on the stable branch the
        # knot reads inf.  all0 over the energy-dissipation arclength stays
        # inf: both of its branches are infinite there
        ops, traj = ramp_run(n_steps=20, amplitude=0.48, eps=1e-4,
                             nu=1e-4, mu=1e-4)
        p_std, p_ed = reparam_standard(traj, ops), reparam_ed(traj, ops)
        assert p_std.jumps().sum() == 1
        _, visc = ed_balance_residual_bv(p_std, "visc")
        resid, contact = ed_balance_residual_bv(p_std, "eps0")
        assert np.isfinite(resid)
        assert contact == pytest.approx(visc, rel=1e-8)
        assert ed_balance_residual_bv(p_ed, "all0")[0] == np.inf
        # with no knot marked a jump
        monkeypatch.setattr(reparam_module, "TOL_JUMP", 0.0)
        assert ed_balance_residual_bv(p_std, "visc")[1] == visc
        assert ed_balance_residual_bv(p_std, "eps0")[0] == np.inf


class TestJumpsAndStability:
    def test_smooth_run_no_jumps(self, monkeypatch):
        ops, traj = ramp_run(n_steps=10)
        p = reparam_standard(traj, ops)
        assert detect_jumps(p) == []
        monkeypatch.setattr(reparam_module, "TOL_JUMP", 0.0)
        assert detect_jumps(p) == []

    def test_frozen_loading_all_stable(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.1,
                          t_final=1.0)
        traj = run_viscous(ops, mat, ep, ramp_loading(grid, 0.0),
                           initial_state(grid, 0.95), n_steps=5)
        p = reparam_standard(traj, ops)
        # no jump, so the maximum runs over every knot k >= 1
        assert not np.any(p.jumps())
        assert max_stability_nonjump(p, "visc") <= 1e-6
        assert stability_magnitude("visc", traj.dual_diag[0]) <= 1e-6

    def test_forced_snap_detected(self):
        # small viscosity and hardening under a load that exceeds the
        # softened capacity: damage and plastic flow run away inside a
        # single time step, freezing the reparameterized time there
        ops, traj = ramp_run(n_steps=20, amplitude=0.48, eps=1e-4,
                             nu=1e-4, mu=1e-4)
        p = reparam_ed(traj, ops)
        jumps = detect_jumps(p)
        assert jumps, "expected at least one near-frozen segment"
        a, b = jumps[0]
        assert b - a > 0.1  # the snap carries O(1) arclength
        # while time stalls, the state still moves at unit speed
        snap_knots = [k for k in range(1, p.n_knots)
                      if p.t_rate[k] < 1e-3]
        assert snap_knots
        assert all(p.normalization[k] == pytest.approx(1.0, abs=1e-8)
                   for k in snap_knots)
        # the stability maximum skips exactly the knots k >= 1 that the
        # knot-by-knot jump scan puts inside an interval (s_{a-1}, s_b]
        intervals = jump_intervals(p.s, p.t_rate, 1e-3)
        outside = [k for k in range(1, p.n_knots)
                   if not any(a < p.s[k] <= b for a, b in intervals)]
        assert len(outside) < p.n_knots - 1
        for regime in REGIMES:
            assert max_stability_nonjump(p, regime) == max(
                stability_magnitude(regime, traj.dual_diag[k])
                for k in outside)

    def test_jump_runs_from_hand_set_rates(self, rng, monkeypatch):
        # the rule reads only s and t_rate: runs of knots 1-2, 4 and 6-7
        # (one knot apart, the last one ending at the last knot); knot 0
        # never counts although its t_rate is 0
        t_rate = np.array([0.0, 1e-4, 0.0, 0.5, 1e-5, 0.5, 2e-4, 1e-6])
        p = ParamTrajectory(traj=None, s=np.arange(8.0), t_rate=t_rate,
                            normalization=np.ones(8))
        assert detect_jumps(p) == [(0.0, 2.0), (3.0, 4.0), (5.0, 7.0)]
        for tol_jump, runs in ((0.0, []), (1.0, [(0.0, 7.0)])):
            monkeypatch.setattr(reparam_module, "TOL_JUMP", tol_jump)
            assert detect_jumps(p) == runs
        monkeypatch.undo()
        # random rates against the knot-by-knot scan
        for _ in range(200):
            n = int(rng.integers(1, 12))
            p = ParamTrajectory(
                traj=None, s=np.cumsum(rng.uniform(0.1, 1, n)),
                t_rate=rng.choice([0.0, 1e-4, 0.5], n),
                normalization=np.ones(n))
            assert detect_jumps(p) == jump_intervals(p.s, p.t_rate, 1e-3)

    def test_stability_maximum_from_hand_set_rates(self, monkeypatch):
        # knot 0 and the jump knots 2 and 4 carry the largest magnitudes,
        # so counting any of them would show in the maximum
        diag = [DualDiagnostics(0.0, 0.0, 0.0, d_nu_star=m,
                                d_star_mu=0.0, d_star0=0.0)
                for m in (9.0, 1.0, 8.0, 2.0, 7.0)]
        p = ParamTrajectory(traj=SimpleNamespace(dual_diag=diag),
                            s=np.arange(5.0),
                            t_rate=np.array([0.0, 0.5, 1e-4, 0.5, 1e-5]),
                            normalization=np.ones(5))
        assert max_stability_nonjump(p, "visc") == 2.0
        for tol_jump, expect in ((0.0, 8.0), (1.0, 0.0)):
            monkeypatch.setattr(reparam_module, "TOL_JUMP", tol_jump)
            assert max_stability_nonjump(p, "visc") == expect


def _build_knot_traj(state, rate, t, ops, mat, ep, loading):
    """A one-step run that reaches state at time t with time rate `rate`,
    reparameterized at dt/ds = 1."""
    start = State(state.u - rate.u_rate, state.z - rate.z_rate,
                  state.p - rate.p_rate)
    traj = Trajectory(
        times=np.array([t - 1.0, t]), states=[start, state], ep=ep, mat=mat,
        loading=loading, E_mu=None, N_value=None, power=None,
        balance_residual_cum=None, dual_diag=[None, None],
        el_residuals=None, dnu=None, rate_norms=None, iterations=None,
        accepted=None)
    return ParamTrajectory(traj=traj, s=np.array([0.0, 1.0]),
                           t_rate=np.array([0.0, 1.0]),
                           normalization=np.ones(2))


def manufactured_rate(lam, lam_z, state, t, ops, mat, ep, loading):
    """Rates satisfying the convex-combination optimality system with
    coefficient lam on the displacement/plastic blocks and lam_z on the
    damage block."""
    grid = ops.grid
    g_u, g_z, g_p = energy_gradients(t, state, ops, mat, ep.mu, loading)

    u_rate = np.zeros(2 * grid.n_nodes)
    u_rate[grid.free_dofs] = -(1 - lam) / (lam * ep.nu) \
        * np.linalg.solve(ops.K_D, g_u)
    u_rate = u_rate.reshape(-1, 2)

    if lam_z >= 1.0:
        z_rate = np.zeros(grid.n_nodes)
    else:
        z_rate = np.where(g_z > mat.kappa,
                          (1 - lam_z) * (mat.kappa - g_z) / lam_z, 0.0)

    V = yield_radius(cell_damage(grid, state.z), mat)
    gn = tensor_norm(g_p)
    s = np.where(gn > V, (1 - lam) * (gn - V) / (lam * ep.nu), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dirs = np.where(gn[:, None] > 0, -g_p / np.where(gn, gn, 1.0)[:, None], 0.0)
    p_rate = s[:, None] * dirs
    return Rate(u_rate=u_rate, z_rate=z_rate, p_rate=p_rate)


class TestSwitchingRecovery:
    def _setup(self, rng):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.6)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.05,
                          t_final=1.0)
        state = random_state(grid, rng, u_scale=0.2, p_scale=0.2)
        return grid, mat, ops, loading, ep, state

    def test_planted_single_rate(self, rng):
        grid, mat, ops, loading, ep, state = self._setup(rng)
        for lam_true in (0.3, 0.62, 0.85):
            rate = manufactured_rate(lam_true, lam_true, state, 0.8,
                                     ops, mat, ep, loading)
            p = _build_knot_traj(state, rate, 0.8, ops, mat, ep, loading)
            lams, resid = recover_switching(p, ops)
            assert lams[1] == pytest.approx(lam_true, abs=1e-12)
            assert resid[1] < 1e-12

    def test_planted_multi_rate(self, rng):
        grid, mat, ops, loading, ep, state = self._setup(rng)
        lam_up_true = 0.45
        rate = manufactured_rate(lam_up_true, 1.0, state, 0.8, ops, mat,
                                 ep, loading)
        p = _build_knot_traj(state, rate, 0.8, ops, mat, ep, loading)
        lams, resid = recover_switching(p, ops, multi_rate=True)
        lam_up, lam_z = lams[1]
        assert resid[1] < 1e-12
        assert lam_up * (1 - lam_z) == pytest.approx(0.0, abs=1e-12)
        assert lam_up == pytest.approx(lam_up_true, abs=1e-12)

    def test_stable_knot_small_residual(self):
        # a relaxed stationary knot satisfies the system with lam = 0
        # up to the solver tolerance, so the best residual is tiny
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.1,
                          t_final=1.0)
        traj = run_viscous(ops, mat, ep, ramp_loading(grid, 0.0),
                           initial_state(grid, 0.95), n_steps=3,
                           tol_stat=1e-10)
        p = reparam_standard(traj, ops)
        _, resid = recover_switching(p, ops)
        assert np.all(resid[1:] < 1e-7)

    @pytest.mark.parametrize("multi_rate", [False, True])
    def test_one_gradient_per_knot(self, monkeypatch, multi_rate):
        # recover_switching forms each knot's gradients from its state,
        # exactly once per knot k >= 1 and at the knot's time
        ops, traj = ramp_run(n_steps=4, n_side=3)
        p = reparam_standard(traj, ops)
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0], args[1]))
            return energy_gradients(*args, **kwargs)

        for module in (constitutive_module, reparam_module):
            monkeypatch.setattr(module, "energy_gradients", counted,
                                raising=False)
        recover_switching(p, ops, multi_rate=multi_rate)
        assert [t for t, _ in calls] == list(traj.times[1:])
        assert all(st is traj.states[k]
                   for k, (_, st) in enumerate(calls, start=1))

    @pytest.mark.parametrize("multi_rate", [False, True])
    def test_fit_is_oracle_minimum(self, rng, multi_rate):
        # on admissible rates with a third of the nodes at rest and of
        # the cells sticking, the oracle (every block recomputed per
        # call) reads the reported residual at the fitted coefficients,
        # and no coefficient of a fine grid over the admissible set
        # beats it
        grid = Grid(4)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        loading = ramp_loading(grid, amplitude=0.6)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.05,
                          t_final=1.0)
        grid_lams = np.linspace(0.0, 1.0, 1001)
        if multi_rate:
            pairs = [(0.0, lam) for lam in grid_lams] \
                + [(lam, 1.0) for lam in grid_lams]
        else:
            pairs = [(lam, lam) for lam in grid_lams]
        rest_active = stick_active = False
        for _ in range(2):
            state = random_state(grid, rng, u_scale=0.2, p_scale=0.2)
            rate = random_rate(grid, rng)
            rest = rng.permutation(grid.n_nodes)[:grid.n_nodes // 3]
            stick = rng.permutation(grid.n_cells)[:grid.n_cells // 3]
            rate.z_rate[rest] = 0.0
            rate.p_rate[stick] = 0.0
            p = _build_knot_traj(state, rate, 0.8, ops, mat, ep, loading)
            grads = energy_gradients(0.8, state, ops, mat, ep.mu, loading)
            g_z, g_p = grads[1], grads[2]
            rest_active |= (g_z[rest] > mat.kappa).any()
            V = yield_radius(cell_damage(grid, state.z), mat)
            stick_active |= (tensor_norm(g_p[stick]) > V[stick]).any()

            def oracle(lam_up, lam_z):
                return switching_residual(lam_up, lam_z, grads, state,
                                          p.rate(1), ops, mat, ep)

            lams, resid = recover_switching(p, ops, multi_rate=multi_rate)
            fitted = lams[1] if multi_rate else (lams[1], lams[1])
            assert oracle(*fitted) == pytest.approx(resid[1], rel=1e-12)
            assert min(oracle(*pair) for pair in pairs) \
                >= resid[1] * (1 - 1e-12)
        # the rest and sticking rows carry a violation somewhere
        assert rest_active and stick_active

    def test_rising_node_raises(self, rng):
        # z' > 0 lies outside the domain of the dissipation, which the
        # viscous run (z clipped to at most its previous value) never
        # produces
        grid, mat, ops, loading, ep, state = self._setup(rng)
        rate = random_rate(grid, rng)
        rate.z_rate[4] = 1e-6
        p = _build_knot_traj(state, rate, 0.8, ops, mat, ep, loading)
        for multi_rate in (False, True):
            with pytest.raises(ValueError, match="damage rate"):
                recover_switching(p, ops, multi_rate=multi_rate)

    def test_lambda_stable_under_roundoff(self, monkeypatch):
        # gradients moved by 1e-14 relative move the fitted coefficient
        # by roundoff only, not by the square root of it
        ops, traj = ramp_run(n_steps=20, n_side=4, amplitude=1.2)
        p = reparam_standard(traj, ops)
        rng = np.random.default_rng(0)

        def shaken(*args, **kwargs):
            return tuple(g * (1.0 + 1e-14 * rng.choice((-1.0, 1.0),
                                                       g.shape))
                         for g in energy_gradients(*args, **kwargs))

        for multi_rate in (False, True):
            lams, _ = recover_switching(p, ops, multi_rate=multi_rate)
            moving = lams > 1e-3
            assert moving.any()
            with monkeypatch.context() as patch:
                patch.setattr(reparam_module, "energy_gradients", shaken)
                for _ in range(3):
                    lams_shaken, _ = recover_switching(
                        p, ops, multi_rate=multi_rate)
                    assert not np.array_equal(lams_shaken, lams)
                    assert np.all(np.abs(lams_shaken - lams)[moving]
                                  <= 1e-10 * lams[moving])

    @pytest.mark.parametrize("multi_rate", [False, True])
    def test_two_dual_solves_per_knot(self, monkeypatch, multi_rate):
        # the displacement block is affine in lambda after two
        # triangular solves per knot
        ops, traj = ramp_run(n_steps=4, n_side=3)
        p = reparam_standard(traj, ops)
        calls = []
        dual_solve = Operators.dual_solve

        def counted(self, g):
            calls.append(1)
            return dual_solve(self, g)

        monkeypatch.setattr(Operators, "dual_solve", counted)
        recover_switching(p, ops, multi_rate=multi_rate)
        assert len(calls) == 2 * (p.n_knots - 1)


class TestSweep:
    def test_trivial_loading_levels_identical(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        rep = bv_sweep(ops, mat, ramp_loading(grid, 0.0),
                       initial_state(grid, 0.95), "eps0",
                       [(1e-1, 0.1, 0.1), (1e-2, 0.1, 0.1)], n_steps=5)
        assert all(d < 1e-10 for d in rep.pairwise_sup_distance)

    def test_balance_matches_requadrature(self):
        # the BV balance reuses the viscous run's energies and power; the
        # same floats come out of a fresh quadrature along ptraj's states
        _, mat, ops, _, loading, init = reference_problem(
            n_side=3, n_steps=6, amplitude=0.4)
        rep = bv_sweep(ops, mat, loading, init, "eps0",
                       [(1e-1, 0.1, 0.1), (1e-2, 0.1, 0.1)], n_steps=6)
        for lv in rep.levels:
            t, st = lv.ptraj.traj.times, lv.ptraj.traj.states
            mu = lv.ptraj.traj.ep.mu
            power = 0.0
            for k in range(1, len(t)):
                power += loaded_at(t[k], st[k - 1], ops, mat, loading) \
                    - loaded_at(t[k - 1], st[k - 1], ops, mat, loading)
            e_end = energy(t[-1], st[-1], ops, mat, mu, loading)
            e_0 = energy(t[0], st[0], ops, mat, mu, loading)
            assert np.isfinite(lv.contact_integral)
            assert lv.ed_balance_residual == \
                abs(e_end + lv.contact_integral - e_0 - power)

    def test_alignment_matches_pointwise_interp(self):
        # the row blend against one np.interp per node and point, on a
        # ladder whose last level snaps, and on levels of unequal length
        _, mat, ops, _, loading, init = reference_problem(
            n_side=4, n_steps=20, amplitude=0.48)
        rep = bv_sweep(ops, mat, loading, init, "eps0",
                       [(1e-2, 1e-4, 1e-4), (1e-3, 1e-4, 1e-4),
                        (1e-4, 1e-4, 1e-4)], n_steps=20)
        assert rep.levels[-1].jump_intervals
        pairs = list(zip(rep.levels, rep.levels[1:]))
        for (a, b), d in zip(pairs, rep.pairwise_sup_distance):
            assert d == pytest.approx(
                align_z_curves(a.ptraj, b.ptraj, ops.grid), rel=1e-14)
        ep = rep.levels[0].ptraj.traj.ep
        coarse = reparam_standard(run_viscous(ops, mat, ep, loading, init,
                                              n_steps=7), ops)
        fine = rep.levels[-1].ptraj
        for pa, pb in ((coarse, fine), (fine, coarse)):
            assert _align_z_curves(pa, pb, ops) == pytest.approx(
                align_z_curves(pa, pb, ops.grid), rel=1e-14)
        # at its own knots a curve comes back bit for bit, the last one
        # included, so a curve is at distance 0 from itself
        for p in (coarse, fine):
            assert _align_z_curves(p, p, ops) == 0.0

    def test_snap_ladder_balance_finite(self):
        # an eps0 ladder whose levels each hold one jump knot: the balance
        # takes the jump branch there, and every level reads finite
        _, mat, ops, _, loading, init = reference_problem(
            n_side=4, n_steps=20, amplitude=0.48)
        rep = bv_sweep(ops, mat, loading, init, "eps0",
                       [(1e-2, 1e-4, 1e-4), (1e-3, 1e-4, 1e-4),
                        (1e-4, 1e-4, 1e-4)], n_steps=20)
        for lv in rep.levels:
            assert lv.jump_intervals
            assert np.isfinite(lv.ed_balance_residual)

    def test_ladder_validation(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        with pytest.raises(ValueError):
            bv_sweep(ops, mat, ramp_loading(grid, 0.0),
                     initial_state(grid, 0.95), "eps0",
                     [(1e-2, 0.1, 0.1), (1e-1, 0.1, 0.1)], n_steps=5)
        with pytest.raises(ValueError):
            bv_sweep(ops, mat, ramp_loading(grid, 0.0),
                     initial_state(grid, 0.95), "all0",
                     [(1e-1, 0.2, 0.1), (1e-2, 0.02, 0.01)], n_steps=5)
