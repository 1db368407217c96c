"""Run the incremental scheme over a uniform partition and compute the
energy-dissipation diagnostics along the resulting trajectory.

Rates are backward differences over the run's time grid; each step's
rate norms are formed once, into the ``RateNorms`` record that every
per-step diagnostic reads.  The power integral over a step is
exact at the frozen previous state: the change of the energy's
t-dependent part, so the per-step balance residual measures exactly the
error of freezing the state over the step and nothing else.  Its value
at the step's start is the loaded part of the previous step's energy,
which that step holds with its damage laws, so each step costs one
strain and one ``loaded_energy`` call; the previous step's damage laws
also start the next step.  A run keeps its states and per-step numbers
only: a reader forms a step's strain or gradients again from its state.
Its memory grows by one state a step: on the mild ramp at n_side 32,
1,600 steps of ``python -m ribv solve`` peak at 129 MB maxrss, from 40 MB
before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constitutive import EnergyParams, MaterialParams, Operators, \
    elastic_cells, loaded_energy, strain_at
from .discretization import LoadingSpec, State
from .dissipation import (
    DualDiagnostics,
    Rate,
    RateNorms,
    diagnostics_from_gradients,
)
from .solver import StepResult, incremental_step

@dataclass
class Trajectory:
    """Discrete-in-time viscous evolution with per-step diagnostics.

    All per-step arrays have length n_steps + 1 with entry 0 describing
    the initial state (rate quantities are 0 there by convention).
    E_mu[k] is the energy at times[k] and power[k] the power integral
    over step k, E(t_k, q_{k-1}) - E(t_{k-1}, q_{k-1});
    ``reparam.ed_balance_residual_bv`` reuses both.
    """

    times: np.ndarray
    states: list[State]
    ep: EnergyParams
    mat: MaterialParams
    loading: LoadingSpec
    E_mu: np.ndarray
    N_value: np.ndarray          # dissipation rate functional per step
    power: np.ndarray            # integral of the partial time derivative
    balance_residual_cum: np.ndarray
    dual_diag: list[DualDiagnostics]
    el_residuals: list[tuple[float, float, float]]
    dnu: np.ndarray              # D_nu of the backward-difference rate
    rate_norms: list[RateNorms]  # of the backward-difference rate
    iterations: np.ndarray
    accepted: np.ndarray
    aborted_at: int | None = None
    z_floor_hit: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def rate(self, k: int) -> Rate:
        """Backward-difference rate at step k, 1 <= k <= n_steps."""
        if not 1 <= k <= self.n_steps:
            raise ValueError(f"step {k} outside 1..{self.n_steps}")
        return Rate.between(self.states[k - 1], self.states[k],
                            self.times[k] - self.times[k - 1])


def _power_integral(t1: float, prev: StepResult, ops: Operators,
                    mat: MaterialParams, loading: LoadingSpec) -> float:
    """Integral of the partial time derivative of the energy over
    [t0, t1] at the frozen state q of the step ``prev`` at t0:
    E(t1, q) - E(t0, q), of which only the loaded part depends on t;
    ``prev`` holds that part at t0 and the damage laws at q."""
    state = prev.new_state
    w, F, e = strain_at(t1, state, ops, loading)
    return loaded_energy(w, F, state.u, elastic_cells(e, mat)[1], prev.laws,
                         ops) - prev.loaded


def pre_relax(t0: float, init_state: State, ops: Operators,
              mat: MaterialParams, ep: EnergyParams,
              loading: LoadingSpec) -> StepResult:
    """Relax the initial data to a stationary starting configuration at
    t0.  A single incremental step with an enormous time step removes
    the viscous terms while keeping the rate-independent dissipation, so
    its ``new_state`` is stable with respect to the dissipation distance."""
    return incremental_step(t0, init_state, ops, mat, replace(ep, tau=1e12),
                            loading, tol_stat=1e-9, max_iter=200)


def run_viscous(ops: Operators, mat: MaterialParams, ep: EnergyParams,
                loading: LoadingSpec, init_state: State, n_steps: int,
                tol_stat: float = 1e-8) -> Trajectory:
    """Drive the incremental scheme from t=0 to t=t_final in n_steps
    uniform steps of ``EnergyParams.uniform``, from the validated,
    pre-relaxed initial state (step 0) to the first rejected step, the
    pre-relaxation included; n_steps not an integer >= 1 or a t_final other
    than the loading's raises ValueError."""
    if ep.t_final != loading.t_final:
        raise ValueError(f"run horizon t_final = {ep.t_final} differs "
                         f"from the loading's t_final = {loading.t_final}")
    ep = EnergyParams.uniform(ep.eps, ep.nu, ep.mu, ep.t_final, n_steps)
    init_state.validate(ops.grid)
    times = np.linspace(0.0, ep.t_final, n_steps + 1)

    # each step is reduced to a row as it ends (its dual diagnostics from
    # its gradients) and dropped once the next step has read its laws,
    # strain and loaded energy: at most two StepResults are alive
    res, norm, pw, rows = pre_relax(0.0, init_state, ops, mat, ep,
                                    loading), RateNorms(), 0.0, []
    for k in range(1, n_steps + 2):
        rows.append((res.new_state, res.energy, diagnostics_from_gradients(
            res.gradients, res.new_state, res.laws.V, ops, mat, ep.mu,
            ep.nu), res.el_residuals, res.iterations, res.accepted,
            res.z_floor_active, norm, pw))
        if k > n_steps or not res.accepted:
            break
        prev, dt = res, times[k] - times[k - 1]
        res = incremental_step(times[k], prev.new_state, ops, mat, ep,
                               loading, tol_stat=tol_stat, laws=prev.laws)
        norm = RateNorms.of(
            ops, Rate.between(prev.new_state, res.new_state, dt),
            res.laws.V, mat.kappa, (res.strain - prev.strain) / dt)
        pw = _power_integral(times[k], prev, ops, mat, loading)
    (states, E, diags, residuals, iterations, accepted, floor, norms,
     power) = zip(*rows)
    dnus = np.array([n.d_nu(ep.nu) for n in norms])
    # Psi carries half of the viscous quadratic, N all of it
    N = np.array([n.psi(ep.eps, ep.nu, tol_pos=1e-14) + 0.5 * ep.eps * d ** 2
                  for n, d in zip(norms, dnus)])
    E = np.array(E)
    return Trajectory(
        times=times[:len(states)],
        states=list(states),
        ep=ep,
        mat=mat,
        loading=loading,
        E_mu=E,
        N_value=N,
        power=np.array(power),
        balance_residual_cum=np.abs(E + np.cumsum(ep.tau * N) - E[0]
                                    - np.cumsum(power)),
        dual_diag=list(diags),
        el_residuals=list(residuals),
        dnu=dnus,
        rate_norms=list(norms),
        iterations=np.array([0, *iterations[1:]]),
        accepted=np.array(accepted),
        aborted_at=None if accepted[-1] else len(states) - 1,
        z_floor_hit=any(floor[1:]),
    )


def enhanced_estimate_total(traj: Trajectory) -> float:
    """Accumulated rate total  sum_k tau (||e'|| + ||z'||_Hm +
    sqrt(mu) ||u'||_H1 + sqrt(mu) ||p'||_L2), the quantity whose bound
    is uniform across vanishing-parameter levels with nu <= mu."""
    rmu = np.sqrt(traj.ep.mu)
    return float(sum(tau * (n.e_l2 + n.z_hm + rmu * n.u_h1 + rmu * n.p_l2)
                     for tau, n in zip(np.diff(traj.times),
                                       traj.rate_norms[1:])))
