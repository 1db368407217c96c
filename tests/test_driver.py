"""Time-stepping driver and energy-dissipation balance diagnostics."""

import sys

import numpy as np

import ribv.constitutive as constitutive_module
import ribv.discretization as discretization_module
import ribv.dissipation as dissipation_module
import ribv.solver as solver_module

from ribv.cli import cmd_reparam
from ribv.config import RunConfig
from ribv.constitutive import EnergyParams, Operators
from ribv.discretization import Grid, eval_loading, initial_state, \
    total_strain
from ribv.driver import enhanced_estimate_total, pre_relax, run_viscous
from ribv.dissipation import norm_p_l2, norm_u_h1, norm_z_m
from ribv.problems import (
    ramp_loading,
    reference_material,
    reference_problem,
)
from ribv.reparam import TOL_JUMP, ed_balance_residual_bv, reparam_ed, \
    reparam_standard

from oracles import balance_residual


def run_reference(n_steps, n_side=3, amplitude=0.45, **ep_over):
    grid, mat, ops, ep, loading, init = reference_problem(
        n_side=n_side, n_steps=n_steps, amplitude=amplitude, **ep_over)
    return ops, run_viscous(ops, mat, ep, loading, init, n_steps=n_steps)


class TestZeroLoading:
    def test_states_constant(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.1,
                          t_final=1.0)
        traj = run_viscous(ops, mat, ep, ramp_loading(grid, 0.0),
                           initial_state(grid, 0.95), n_steps=10)
        assert traj.aborted_at is None
        for st in traj.states[1:]:
            assert np.allclose(st.u, traj.states[0].u, atol=1e-11)
            assert np.allclose(st.z, traj.states[0].z, atol=1e-11)
            assert np.allclose(st.p, traj.states[0].p, atol=1e-11)

    def test_constant_trajectory_zero_residual(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.1,
                          t_final=1.0)
        traj = run_viscous(ops, mat, ep, ramp_loading(grid, 0.0),
                           initial_state(grid, 0.95), n_steps=10)
        assert np.all(traj.balance_residual_cum < 1e-12)
        assert np.all(balance_residual(traj, ops) < 1e-12)


class TestRampRun:
    def test_monotone_damage_and_balance(self):
        ops, traj = run_reference(20, amplitude=0.45)
        assert traj.aborted_at is None
        mins = [st.z.min() for st in traj.states]
        assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))
        # the balance residual stays at the time-discretization scale
        tau = traj.times[1] - traj.times[0]
        assert traj.balance_residual_cum.max() < 10 * tau

    def test_balance_recompute_matches(self):
        ops, traj = run_reference(10)
        rec = balance_residual(traj, ops)
        assert np.allclose(rec, traj.balance_residual_cum, atol=1e-11)

    def test_dissipation_rate_nonnegative(self):
        ops, traj = run_reference(10)
        assert np.all(traj.N_value >= 0.0)
        assert np.all(traj.dnu >= 0.0)

    def test_self_convergence_under_refinement(self):
        # halving tau repeatedly: the final-state differences decay
        # (the first halvings sit outside the asymptotic regime, so the
        # comparison skips one level)
        runs = {n: run_reference(n, n_side=4, amplitude=0.48)
                for n in (20, 40, 80, 160)}
        ops = runs[20][0]
        g = Grid(4)

        def dist(a, b):
            sa, sb = a.states[-1], b.states[-1]
            return (norm_z_m(g, sa.z - sb.z)
                    + norm_p_l2(g, sa.p - sb.p)
                    + norm_u_h1(ops, sa.u - sb.u))

        d_coarse = dist(runs[20][1], runs[40][1])
        d_fine = dist(runs[80][1], runs[160][1])
        assert d_fine < d_coarse

    def test_residual_convergence_ratio(self):
        # tau vs tau/2: cumulative residual ratio >= 1.5
        _, t20 = run_reference(20, n_side=3)
        _, t40 = run_reference(40, n_side=3)
        r1 = t20.balance_residual_cum[-1]
        r2 = t40.balance_residual_cum[-1]
        assert r1 / r2 >= 1.5

    def test_enhanced_estimate_finite(self):
        ops, traj = run_reference(10)
        total = enhanced_estimate_total(traj, ops)
        assert np.isfinite(total)
        assert total > 0.0

    def test_strains_are_the_states_strains(self):
        # each step hands on the strain its last sweep formed: bit-equal to
        # e = B(u + w(t)) - p formed afresh at every state, the
        # pre-relaxed one included
        ops, traj = run_reference(4)
        assert len(traj.strains) == len(traj.states)
        for t, st, e in zip(traj.times, traj.states, traj.strains):
            np.testing.assert_array_equal(
                e, total_strain(ops.B, st, eval_loading(traj.loading, t)[0]))


def count_evaluations(monkeypatch):
    """Count energy, energy-gradient, psi, D_nu and loading evaluations
    through every ribv module that binds them, sweeps by z solves and
    full certifications by el_residuals calls."""
    counts = {"energy": 0, "energy_gradients": 0, "psi_total": 0,
              "d_nu": 0, "eval_loading": 0, "sweeps": 0, "el_residuals": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((constitutive_module, "energy"),
                         (constitutive_module, "energy_gradients"),
                         (dissipation_module, "psi_total"),
                         (dissipation_module, "d_nu"),
                         (discretization_module, "eval_loading")):
        fn = getattr(module, name)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("ribv") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    monkeypatch.setattr(solver_module, "solve_z_step",
                        counting("sweeps", solver_module.solve_z_step))
    monkeypatch.setattr(solver_module, "el_residuals",
                        counting("el_residuals", solver_module.el_residuals))
    return counts


class TestEvaluationCounts:
    def test_step_quantities_taken_from_step(self, monkeypatch):
        # each step's energy, dissipation potential and energy gradients
        # come from the step result: the energy and psi are evaluated once
        # per step, at its result (the pre-relaxation included), and the
        # gradients once per full certification, which only the sweeps
        # whose r_u passes get; each step reads the loading once, and the
        # power integral twice more
        counts = count_evaluations(monkeypatch)
        ops, traj = run_reference(4)
        assert traj.aborted_at is None
        assert counts["energy"] == traj.n_steps + 1
        assert counts["psi_total"] == traj.n_steps + 1
        assert counts["eval_loading"] == traj.n_steps + 1 + 2 * traj.n_steps
        assert counts["energy_gradients"] == counts["el_residuals"]
        assert traj.n_steps + 1 <= counts["el_residuals"] <= counts["sweeps"]

    def test_reparam_gradients_once_per_certification(self, monkeypatch,
                                                      tmp_path):
        # switching recovery reads each knot's gradients from the viscous
        # run, so the whole reparam command evaluates them in the solver's
        # full certifications only, fewer than one per sweep
        counts = count_evaluations(monkeypatch)
        cfg = RunConfig.parse("grid_n = 4\nn_steps = 6\n"
                              "load_amplitude = 1.2\n")
        assert cmd_reparam(cfg, str(tmp_path)) == 0
        assert counts["sweeps"] > 0
        assert counts["energy_gradients"] == counts["el_residuals"] \
            < counts["sweeps"]

    def test_reparam_skips_unread_work(self, monkeypatch):
        # the arclengths read their strain rates from the run's strains,
        # so neither evaluates a loading, the BV balance takes R + H
        # without the viscous norms of psi, and the eps0 contact potential
        # reads D_nu on jump knots only
        ops, traj = run_reference(4)
        counts = count_evaluations(monkeypatch)
        ptraj = reparam_standard(traj, ops)
        assert counts["eval_loading"] == 0
        reparam_ed(traj, ops)
        assert counts["eval_loading"] == 0
        ed_balance_residual_bv(ptraj, ops, "visc", 10 * traj.ep.eps)
        assert counts["psi_total"] == 0
        assert not ptraj.jumps(TOL_JUMP).any()
        before = counts["d_nu"]
        ed_balance_residual_bv(ptraj, ops, "eps0", 10 * traj.ep.eps)
        assert counts["d_nu"] == before


class TestPreRelax:
    def test_relaxed_state_is_stable(self):
        grid = Grid(3)
        mat = reference_material()
        ops = Operators.build(grid, mat)
        ep = EnergyParams(eps=1e-2, nu=1e-2, mu=1e-2, tau=0.05,
                          t_final=1.0)
        loading = ramp_loading(grid, amplitude=0.45)
        st = pre_relax(0.0, initial_state(grid, 0.95), ops, mat, ep,
                       loading).new_state
        from ribv.dissipation import dual_diagnostics
        dd = dual_diagnostics(0.0, st, ops, mat, ep.mu, ep.nu, loading)
        assert dd.dist_z < 1e-8
        assert dd.dist_p < 1e-8

    def test_rate_backward_difference(self):
        ops, traj = run_reference(10)
        k = 5
        tau = traj.times[k] - traj.times[k - 1]
        r = traj.rate(k)
        assert np.allclose(r.u_rate,
                           (traj.states[k].u - traj.states[k - 1].u) / tau)
