"""Time-stepping driver and energy-dissipation balance diagnostics."""

import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ribv.constitutive as constitutive_module
import ribv.discretization as discretization_module
import ribv.driver as driver_module
import ribv.reparam as reparam_module
import ribv.solver as solver_module

from ribv.cli import cmd_reparam, cmd_sweep
from ribv.config import RunConfig
from ribv.constitutive import EnergyParams, Operators, cell_damage, \
    energy_gradients, strain_at, yield_radius
from ribv.discretization import Grid, initial_state, tensor_norm
from ribv.dissipation import Rate, RateNorms, norm_p_l2, norm_u_h1
from ribv.driver import enhanced_estimate_total, pre_relax, run_viscous
from ribv.problems import (
    ramp_loading,
    reference_material,
    reference_problem,
)
from ribv.reparam import TOL_JUMP, bv_sweep, ed_balance_residual_bv, \
    reparam_ed, reparam_standard

import oracles
from oracles import balance_residual, norm_z_m, rate_norm_fields


def pre_relax_unreached(*args, **kwargs):
    raise AssertionError("pre-relaxation reached")


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
        # the sum over the run's rate records is the array formulas' loop
        ops, traj = run_reference(10)
        total = enhanced_estimate_total(traj)
        assert np.isfinite(total)
        assert total > 0.0
        assert total == pytest.approx(
            oracles.enhanced_estimate_total(traj, ops), rel=1e-13)

    def test_undamaged_body_damages(self):
        # z0 = 1 is the top of the damage domain, where the laws hold as
        # below it: the damaging ramp breaks an undamaged body as it
        # breaks one a hair below, to the same end state
        ends = []
        for z0 in (1.0, 1.0 - 1e-6):
            _, mat, ops, ep, loading, init = reference_problem(
                n_side=6, amplitude=1.2, z0=z0)
            traj = run_viscous(ops, mat, ep, loading, init, n_steps=20)
            assert traj.aborted_at is None
            ends.append((traj.states[-1].z.min(), traj.E_mu[-1]))
        (z_top, e_top), (z_below, e_below) = ends
        assert z_top < 0.5
        assert z_top == pytest.approx(z_below, abs=1e-7)
        assert e_top == pytest.approx(e_below, abs=1e-7)

    def test_rate_records_match_array_formulas(self):
        # every field of every step's record on the damaging ramp is the
        # array formula of the step's backward-difference rate (H bit for
        # bit, from the yield radii at the kept state's z), step 0's
        # record is the zero rate, and the record of f times the rate is f
        # times the record at the std arclength's dt/ds and beyond
        ops, traj = run_reference(10, n_side=4, amplitude=1.2)
        assert traj.aborted_at is None
        assert traj.rate_norms[0] == RateNorms()
        facs = reparam_standard(traj, ops).t_rate
        assert facs[1:].min() < 0.1
        for k in range(1, traj.n_steps + 1):
            tau = traj.times[k] - traj.times[k - 1]
            rate = traj.rate(k)
            e_rate = (oracles.state_strain(traj, ops, k)
                      - oracles.state_strain(traj, ops, k - 1)) / tau
            rec = traj.rate_norms[k]
            want = rate_norm_fields(ops, rate, traj.states[k], traj.mat,
                                    e_rate)
            for name, value in want.items():
                assert getattr(rec, name) == pytest.approx(value, rel=1e-13)
            assert traj.dnu[k] == pytest.approx(
                oracles.d_nu(ops, rate, traj.ep.nu), rel=1e-13)
            V = yield_radius(cell_damage(ops.grid, traj.states[k].z),
                             traj.mat)
            assert rec.h_p == float((ops.grid.w_cell * V
                                     * tensor_norm(rate.p_rate)).sum())
            for f in (facs[k], 3.7e-5, 2.5e3):
                fold = RateNorms.of(
                    ops, Rate(f * rate.u_rate, f * rate.z_rate,
                              f * rate.p_rate),
                    V, traj.mat.kappa, f * e_rate)
                for name, value in vars(rec.scaled(f)).items():
                    assert getattr(fold, name) == pytest.approx(value,
                                                                rel=1e-13)

    def test_strains_are_the_states_strains(self, monkeypatch):
        # the strain and gradients a reader forms from a kept state
        # (``strain_at``, ``energy_gradients``) are bit-equal to those the
        # step's last sweep formed, the pre-relaxed state included, and to
        # the fresh loop's, on the mild and the damaging ramp
        formed = []

        def keeping(*args, **kwargs):
            res = solver_module.incremental_step(*args, **kwargs)
            formed.append((res.strain, res.gradients))
            return res

        monkeypatch.setattr(driver_module, "incremental_step", keeping)
        for amplitude in (0.48, 1.2):
            formed.clear()
            grid, mat, ops, ep, loading, init = reference_problem(
                n_side=4, n_steps=4, amplitude=amplitude)
            traj = run_viscous(ops, mat, ep, loading, init, n_steps=4)
            steps, _ = oracles.viscous_steps(ops, mat, ep, loading, init, 4)
            assert traj.aborted_at is None
            assert len(formed) == len(steps) == len(traj.states)
            for k, ((strain, grads), ref) in enumerate(zip(formed, steps)):
                t, st = traj.times[k], traj.states[k]
                e = strain_at(t, st, ops, loading)[2]
                np.testing.assert_array_equal(e, strain)
                np.testing.assert_array_equal(e, ref.strain)
                for got, want in zip(energy_gradients(
                        t, st, ops, mat, ep.mu, loading), grads):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_steps, amplitude, over", [
        (5, 1.2, {}), (20, 0.48, {"eps": 1e-2, "nu": 0.1, "mu": 0.1})],
        ids=["damaging", "eps0-level"])
    def test_matches_fresh_loop(self, n_steps, amplitude, over):
        # what one sweep, step or power hands the next (strain records,
        # damage laws, the loaded energy) changes no bit: the run equals a
        # loop that certifies every sweep in full with everything formed
        # afresh and takes the power from two fresh loaded energies, on the
        # damaging ramp and on the second level of the eps0 ladder
        grid, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=n_steps, amplitude=amplitude, **over)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=n_steps)
        steps, power = oracles.viscous_steps(ops, mat, ep, loading, init,
                                             n_steps)
        assert traj.aborted_at is None and traj.iterations.sum() > n_steps
        assert list(traj.power) == power
        assert list(traj.E_mu) == [r.energy for r in steps]
        assert traj.el_residuals == [r.el_residuals for r in steps]
        assert list(traj.iterations[1:]) == [r.iterations for r in steps[1:]]
        for k, ref in enumerate(steps):
            t, st = traj.times[k], traj.states[k]
            np.testing.assert_array_equal(
                strain_at(t, st, ops, loading)[2], ref.strain)
            for got, want in zip(energy_gradients(t, st, ops, mat, ep.mu,
                                                  loading), ref.gradients):
                np.testing.assert_array_equal(got, want)
            for name in ("u", "z", "p"):
                np.testing.assert_array_equal(
                    getattr(traj.states[k], name),
                    getattr(ref.new_state, name))


def count_evaluations(monkeypatch):
    """Count energy, loaded-energy, energy-gradient, rate-record and
    loading evaluations through every ribv module that binds them (the
    bare-state ``energy`` and ``energy_gradients`` apart from the record
    readers ``energy_from`` and ``state_gradients``), sweeps by z solves
    and full certifications by el_residuals calls."""
    counts = {"energy": 0, "energy_from": 0, "loaded_energy": 0,
              "energy_gradients": 0, "state_gradients": 0, "rate_norms": 0,
              "eval_loading": 0, "sweeps": 0, "el_residuals": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((constitutive_module, "energy"),
                         (constitutive_module, "energy_from"),
                         (constitutive_module, "loaded_energy"),
                         (constitutive_module, "energy_gradients"),
                         (constitutive_module, "state_gradients"),
                         (discretization_module, "eval_loading")):
        fn = getattr(module, name)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("ribv") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    monkeypatch.setattr(RateNorms, "of", classmethod(
        counting("rate_norms", RateNorms.of.__func__)))
    monkeypatch.setattr(solver_module, "solve_z_step",
                        counting("sweeps", solver_module.solve_z_step))
    monkeypatch.setattr(solver_module, "el_residuals",
                        counting("el_residuals", solver_module.el_residuals))
    return counts


# the modules whose operator products are products of rates
_RATE_MODULES = {"ribv.dissipation", "ribv.driver", "ribv.reparam"}


def count_rate_products(monkeypatch):
    """Count the ``Operators.apply_K_D`` and ``apply_A_m`` calls made
    directly by a function of ``_RATE_MODULES``; those of
    ``reparam._switching_blocks``, one K_D product per knot, apart."""
    counts = {"K_D": 0, "A_m": 0, "switching_K_D": 0, "switching_A_m": 0}

    def counting(name, fn):
        def wrapped(self, v):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_switching_blocks":
                counts["switching_" + name] += 1
            elif caller.f_globals["__name__"] in _RATE_MODULES:
                counts[name] += 1
            return fn(self, v)
        return wrapped

    monkeypatch.setattr(Operators, "apply_K_D",
                        counting("K_D", Operators.apply_K_D))
    monkeypatch.setattr(Operators, "apply_A_m",
                        counting("A_m", Operators.apply_A_m))
    return counts


class TestEvaluationCounts:
    def test_step_quantities_taken_from_step(self, monkeypatch):
        # each step's energy and energy gradients come from the step
        # result, and its Psi, D_nu and N from its rate record: the energy
        # is read from its records once per step, at its result (the
        # pre-relaxation included), the record once per step after the
        # pre-relaxation, and the z and p gradients once per full
        # certification, which only the sweeps whose r_u passes get; the
        # loaded energy once per step at its result and once in the power,
        # whose start value is the previous step's; each step reads the
        # loading once, and the power once more; no bare-state energy or
        # gradient is evaluated
        counts = count_evaluations(monkeypatch)
        ops, traj = run_reference(4)
        assert traj.aborted_at is None
        assert counts["energy"] == counts["energy_gradients"] == 0
        assert counts["energy_from"] == traj.n_steps + 1
        assert counts["loaded_energy"] == traj.n_steps + 1 + traj.n_steps
        assert counts["rate_norms"] == traj.n_steps
        assert counts["eval_loading"] == traj.n_steps + 1 + traj.n_steps
        assert counts["state_gradients"] == counts["el_residuals"]
        assert traj.n_steps + 1 <= counts["el_residuals"] <= counts["sweeps"]

    def test_reparam_gradients_once_per_certification(self, monkeypatch,
                                                      tmp_path):
        # the whole reparam command evaluates the z and p gradients in the
        # solver's full certifications, fewer than one per sweep, and the
        # gradients of a bare state once per knot k >= 1, where switching
        # recovery forms them from the knot's state
        counts = count_evaluations(monkeypatch)
        cfg = RunConfig.parse("grid_n = 4\nn_steps = 6\n"
                              "load_amplitude = 1.2\n")
        assert cmd_reparam(cfg, str(tmp_path)) == 0
        assert counts["sweeps"] > 0
        assert counts["energy_gradients"] == cfg.n_steps
        assert counts["state_gradients"] - counts["energy_gradients"] \
            == counts["el_residuals"] < counts["sweeps"]

    def test_reparam_skips_unread_work(self, monkeypatch):
        # both arclengths and the BV balance of every regime read the
        # run's rate records, scaled: none forms a record, takes an
        # operator product of a rate or evaluates a loading
        ops, traj = run_reference(4)
        counts = count_evaluations(monkeypatch)
        products = count_rate_products(monkeypatch)
        ptraj = reparam_standard(traj, ops)
        reparam_ed(traj, ops)
        # no knot is a jump at TOL_JUMP, every knot k >= 1 is one at 1
        for tol_jump, marked in ((TOL_JUMP, False), (1.0, True)):
            monkeypatch.setattr(reparam_module, "TOL_JUMP", tol_jump)
            assert (ptraj.jumps()[1:] == marked).all()
            for regime in ("visc", "eps0", "eps-nu0", "all0"):
                ed_balance_residual_bv(ptraj, regime)
        assert counts["eval_loading"] == counts["rate_norms"] == 0
        assert not any(products.values())

    def test_rate_norms_formed_once_per_step(self, monkeypatch, tmp_path):
        # through both commands each step's rate takes one K_D and one
        # A_m product, in its record, and none at the pre-relaxation;
        # switching recovery adds its one K_D product per knot
        products = count_rate_products(monkeypatch)
        cfg = RunConfig.parse("grid_n = 4\nn_steps = 6\n"
                              "load_amplitude = 1.2\n")
        assert cmd_reparam(cfg, str(tmp_path)) == 0
        assert products == {"K_D": 6, "A_m": 6, "switching_K_D": 6,
                            "switching_A_m": 0}
        products.update(dict.fromkeys(products, 0))
        cfg = RunConfig.parse("grid_n = 4\nn_steps = 5\nnu = 0.1\n"
                              "mu = 0.1\nladder_eps = 1e-1,1e-2,1e-3\n")
        assert cmd_sweep(cfg, str(tmp_path)) == 0
        assert products == {"K_D": 15, "A_m": 15, "switching_K_D": 0,
                            "switching_A_m": 0}


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

    def test_rejects_zero_steps(self):
        grid, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                              n_steps=2)
        with pytest.raises(ValueError, match="n_steps must be positive"):
            reference_problem(n_side=3, n_steps=0)
        with pytest.raises(ValueError, match="n_steps must be positive"):
            run_viscous(ops, mat, ep, loading, init, n_steps=0)
        with pytest.raises(ValueError, match="n_steps must be positive"):
            bv_sweep(ops, mat, loading, init, "eps0",
                     [(1e-2, 0.1, 0.1), (1e-3, 0.1, 0.1)], n_steps=0)
        with pytest.raises(ValueError, match="n_steps must be positive"):
            RunConfig.parse("n_steps = 0\n")

    @pytest.mark.parametrize("n_steps", [1, 3, 7, 20])
    def test_one_uniform_step(self, n_steps):
        # every entry point forms its step by EnergyParams.uniform
        grid, mat, ops, ep, loading, init = reference_problem(
            n_side=3, n_steps=n_steps, amplitude=0.3)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=n_steps)
        sweep = bv_sweep(ops, mat, loading, init, "eps0",
                         [(1e-2, 0.1, 0.1), (1e-3, 0.1, 0.1)],
                         n_steps=n_steps)
        taus = [ep.tau, traj.ep.tau,
                *(lvl.ptraj.traj.ep.tau for lvl in sweep.levels)]
        assert all(tau == 1.0 / n_steps for tau in taus)

    @pytest.mark.parametrize("t_final", [0.5, 2.0])
    def test_rejects_other_horizon(self, t_final, monkeypatch):
        # unchecked, 0.5 runs silently over half the ramp and 2.0 fails
        # after two steps at a time outside the loading's horizon
        grid, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                              n_steps=4)
        monkeypatch.setattr(driver_module, "pre_relax", pre_relax_unreached)
        with pytest.raises(ValueError, match=f"{t_final}.*1.0"):
            run_viscous(ops, mat, replace(ep, t_final=t_final), loading,
                        init, n_steps=4)

    def test_initial_state_validated(self):
        # z is checked once, where it enters the run; the z-step keeps
        # every later z at or above Z_FLOOR
        _, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                           n_steps=2)
        init.z[4] = 0.0
        with pytest.raises(ValueError, match="damage field must stay"):
            run_viscous(ops, mat, ep, loading, init, n_steps=2)

    @pytest.mark.parametrize("field, where, bad", [
        ("u", "free", np.nan), ("u", "dirichlet", np.nan),
        ("p", (0, 0), np.nan), ("p", (0, 2), np.inf)],
        ids=["u-free-nan", "u-dirichlet-nan", "p-nan", "p-inf"])
    def test_rejects_non_finite_state(self, field, where, bad, monkeypatch):
        # unchecked, each reaches the solver, which fails at a nan dual
        # residual: a nan passed the Dirichlet and trace checks, and a
        # shear component of inf passed the trace check
        _, mat, ops, ep, loading, init = reference_problem(n_side=3,
                                                           n_steps=2)
        if field == "u":
            on_dirichlet = ops.grid.dirichlet_mask == (where == "dirichlet")
            init.u[np.flatnonzero(on_dirichlet)[0], 0] = bad
        else:
            init.p[where] = bad
        with pytest.raises(ValueError):
            init.validate(ops.grid)
        monkeypatch.setattr(driver_module, "pre_relax", pre_relax_unreached)
        with pytest.raises(ValueError):
            run_viscous(ops, mat, ep, loading, init, n_steps=2)

    def test_step0_carries_pre_relaxation(self, monkeypatch):
        # step 0 reports the pre-relaxation's residuals and acceptance,
        # and a pre-relaxation that fails aborts the run at step 0
        ops, traj = run_reference(4)
        relaxed = pre_relax(0.0, initial_state(ops.grid, 0.95), ops,
                            traj.mat, traj.ep, traj.loading)
        assert traj.el_residuals[0] == relaxed.el_residuals
        assert traj.accepted[0] and traj.iterations[0] == 0

        def failing(*args, **kwargs):
            return replace(pre_relax(*args, **kwargs), accepted=False,
                           el_residuals=(1e-3, 0.0, 0.0))

        monkeypatch.setattr(driver_module, "pre_relax", failing)
        ops, traj = run_reference(4)
        assert traj.aborted_at == 0 and traj.n_steps == 0
        assert not traj.accepted[0]
        assert traj.el_residuals == [(1e-3, 0.0, 0.0)]
        assert list(traj.iterations) == [0]

    def test_rate_outside_steps_raises(self):
        # a backward difference exists at steps 1..n_steps only: step 0
        # has no predecessor, and states[-1] is the last state, so rate(0)
        # would read the whole run's mean rate as a rate at t = 0
        _, mat, ops, ep, loading, init = reference_problem(
            n_side=4, n_steps=5, amplitude=1.2)
        traj = run_viscous(ops, mat, ep, loading, init, n_steps=5)
        assert traj.aborted_at is None and traj.n_steps == 5
        for k in (0, -1, traj.n_steps + 1):
            with pytest.raises(ValueError, match="outside 1..5"):
                traj.rate(k)
        assert (traj.rate(1).z_rate <= 0).all()
        assert (traj.rate(traj.n_steps).z_rate <= 0).all()

    def test_rate_backward_difference(self):
        ops, traj = run_reference(10)
        k = 5
        tau = traj.times[k] - traj.times[k - 1]
        r = traj.rate(k)
        assert np.allclose(r.u_rate,
                           (traj.states[k].u - traj.states[k - 1].u) / tau)


class TestRunMemory:
    def test_run_keeps_states_only(self):
        # the bytes a returned run holds, and its traced peak, grow per
        # extra step by one state's arrays plus a small constant (its
        # scalars and records); keeping each step's strain and gradients
        # too would take about 2.6 times the state per step
        def traced(n_steps):
            _, mat, ops, ep, loading, init = reference_problem(
                n_side=16, n_steps=n_steps, amplitude=0.48)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traj = run_viscous(ops, mat, ep, loading, init,
                                   n_steps=n_steps)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.aborted_at is None
            st = traj.states[-1]
            return (kept - base, peak - base,
                    st.u.nbytes + st.z.nbytes + st.p.nbytes)

        kept_a, peak_a, state_bytes = traced(10)
        kept_b, peak_b, _ = traced(40)
        assert (kept_b - kept_a) / 30 <= state_bytes + 2048
        assert (peak_b - peak_a) / 30 <= state_bytes + 2048

    def test_at_most_two_step_results_alive(self, monkeypatch):
        # a step is dropped once the next one has read it: when a step
        # starts, only its predecessor is alive
        alive = [0]
        at_start = []

        def dropped():
            alive[0] -= 1

        def tracked(*args, **kwargs):
            at_start.append(alive[0])
            res = solver_module.incremental_step(*args, **kwargs)
            alive[0] += 1
            weakref.finalize(res, dropped)
            return res

        monkeypatch.setattr(driver_module, "incremental_step", tracked)
        ops, traj = run_reference(6, n_side=4, amplitude=1.2)
        assert traj.aborted_at is None
        assert at_start == [0] + [1] * 6
        assert alive == [0]
