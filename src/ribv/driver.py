"""Run the incremental scheme over a uniform partition and compute the
energy-dissipation diagnostics along the resulting trajectory.

Rates are backward differences.  The power integral over a step is
exact at the frozen previous state: the change of the energy's
t-dependent part, so the per-step balance residual measures exactly the
error of freezing the state over the step and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constitutive import EnergyParams, MaterialParams, Operators, \
    loaded_energy
from .discretization import LoadingSpec, State
from .dissipation import (
    DualDiagnostics,
    Rate,
    d_nu,
    diagnostics_from_gradients,
    norm_p_l2,
    norm_u_h1,
    norm_z_hm,
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
    strains: list[np.ndarray]    # elastic strain e of each state
    ep: EnergyParams
    mat: MaterialParams
    loading: LoadingSpec
    E_mu: np.ndarray
    N_value: np.ndarray          # dissipation rate functional per step
    power: np.ndarray            # integral of the partial time derivative
    balance_residual_cum: np.ndarray
    dual_diag: list[DualDiagnostics]
    gradients: list[tuple]       # energy gradients (g_u, g_z, g_p)
    el_residuals: list[tuple[float, float, float]]
    dnu: np.ndarray              # D_nu of the backward-difference rate
    iterations: np.ndarray
    accepted: np.ndarray
    aborted_at: int | None = None
    z_floor_hit: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def rate(self, k: int) -> Rate:
        """Backward-difference rate at step k >= 1."""
        return Rate.between(self.states[k - 1], self.states[k],
                            self.times[k] - self.times[k - 1])

    def strain_rate(self, k: int) -> np.ndarray:
        """Backward-difference rate of the elastic strain at step k >= 1."""
        return (self.strains[k] - self.strains[k - 1]) \
            / (self.times[k] - self.times[k - 1])


def _power_integral(t0: float, t1: float, state: State, ops: Operators,
                    mat: MaterialParams, loading: LoadingSpec) -> float:
    """Integral of the partial time derivative of the energy over
    [t0, t1] at the frozen state: E(t1, q) - E(t0, q), of which only the
    loaded part depends on t."""
    return loaded_energy(t1, state, ops, mat, loading) \
        - loaded_energy(t0, state, ops, mat, loading)


def pre_relax(t0: float, init_state: State, ops: Operators,
              mat: MaterialParams, ep: EnergyParams, loading: LoadingSpec,
              tol_stat: float = 1e-9, max_iter: int = 200) -> StepResult:
    """Relax the initial data to a stationary starting configuration at
    t0.  A single incremental step with an enormous time step removes
    the viscous terms while keeping the rate-independent dissipation, so
    its ``new_state`` is stable with respect to the dissipation distance."""
    return incremental_step(t0, init_state, ops, mat, replace(ep, tau=1e12),
                            loading, tol_stat=tol_stat, max_iter=max_iter)


def run_viscous(ops: Operators, mat: MaterialParams, ep: EnergyParams,
                loading: LoadingSpec, init_state: State, n_steps: int,
                tol_stat: float = 1e-8, max_iter: int = 500) -> Trajectory:
    """Drive the incremental scheme from t=0 to t=t_final in n_steps
    uniform steps (ep.tau is replaced by t_final / n_steps), starting
    from the pre-relaxed initial state and stopping at the first
    rejected step."""
    tau = ep.t_final / n_steps
    ep = replace(ep, tau=tau)
    times = np.linspace(0.0, ep.t_final, n_steps + 1)

    steps = [pre_relax(0.0, init_state, ops, mat, ep, loading)]
    N = [0.0]
    power = [0.0]
    dnus = [0.0]
    aborted_at = None
    for k in range(1, n_steps + 1):
        prev = steps[-1].new_state
        res = incremental_step(times[k], prev, ops, mat, ep, loading,
                               tol_stat=tol_stat, max_iter=max_iter)
        state = res.new_state
        dnu_k = d_nu(ops, Rate.between(prev, state, tau), ep.nu)
        steps.append(res)
        N.append(res.psi + 0.5 * ep.eps * dnu_k ** 2)
        power.append(_power_integral(times[k - 1], times[k], prev, ops, mat,
                                     loading))
        dnus.append(dnu_k)
        if not res.accepted:
            aborted_at = k
            break

    E = np.array([r.energy for r in steps])
    return Trajectory(
        times=times[:len(steps)],
        states=[r.new_state for r in steps],
        strains=[r.strain for r in steps],
        ep=ep,
        mat=mat,
        loading=loading,
        E_mu=E,
        N_value=np.array(N),
        power=np.array(power),
        balance_residual_cum=np.abs(E + np.cumsum(tau * np.array(N)) - E[0]
                                    - np.cumsum(power)),
        dual_diag=[diagnostics_from_gradients(r.gradients, r.new_state, ops,
                                              mat, ep.mu, ep.nu)
                   for r in steps],
        gradients=[r.gradients for r in steps],
        el_residuals=[(0.0, 0.0, 0.0)] + [r.el_residuals for r in steps[1:]],
        dnu=np.array(dnus),
        iterations=np.array([0] + [r.iterations for r in steps[1:]]),
        accepted=np.array([True] + [r.accepted for r in steps[1:]]),
        aborted_at=aborted_at,
        z_floor_hit=any(r.z_floor_active for r in steps[1:]),
    )


def enhanced_estimate_total(traj: Trajectory, ops: Operators) -> float:
    """Accumulated rate total  sum_k tau (||e'|| + ||z'||_Hm +
    sqrt(mu) ||u'||_H1 + sqrt(mu) ||p'||_L2), the quantity whose bound
    is uniform across vanishing-parameter levels with nu <= mu."""
    ep = traj.ep
    total = 0.0
    for k in range(1, len(traj.times)):
        tau = traj.times[k] - traj.times[k - 1]
        rate = traj.rate(k)
        total += tau * (norm_p_l2(ops.grid, traj.strain_rate(k))
                        + norm_z_hm(ops, rate.z_rate)
                        + np.sqrt(ep.mu) * norm_u_h1(ops, rate.u_rate)
                        + np.sqrt(ep.mu) * norm_p_l2(ops.grid, rate.p_rate))
    return float(total)
