"""One step of the time-incremental minimization scheme.

Each step minimizes

    tau Psi_{eps,nu}(q, (q - q_prev)/tau) + E_mu(t_k, q)

by sweeps that alternate a joint (u, p) solve with z frozen (semismooth
Newton on u, with p eliminated by the exact cellwise proximal map) and a
projected-Newton solve in z under the irreversibility constraint
z_floor <= z <= z_prev.  Both solves backtrack to one acceptance rule
and raise RuntimeError when they cannot converge; each builds its
Hessian from the value evaluation at the iterate (the prox shift, c'').
Sweeps start from q_prev, form each strain and A_m z once, and are
certified by r_u first, the other two optimality residuals where it passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .constitutive import (
    EnergyParams,
    MaterialParams,
    Operators,
    add_corner_form,
    cell_damage,
    corner_scatter,
    damage_curvature,
    damage_potential,
    deviatoric_modulus,
    displacement_gradient,
    elastic_cells,
    energy,
    energy_gradients,
    stiffness,
    stiffness_coeff,
    yield_radius,
    yield_radius_prime,
)
from .discretization import (
    LoadingSpec,
    State,
    eval_loading,
    tensor_dev,
    tensor_dot,
    tensor_norm,
    total_strain,
)
from .dissipation import Rate, _prox_shift, prox_tangent, psi_total, \
    subdiff_violation

Z_FLOOR = 1e-8
# sufficient-decrease fraction delta of both line searches
_ARMIJO = 1e-4


def _acceptable(val, val_t, slope, slope_t):
    """Line-search test of a step s to a trial point (value val_t, slope
    g_t.s) from one with value val and slope g.s: Armijo, or, where val_t
    <= val + 1e-6 |val|, the approximate Armijo condition of Hager & Zhang
    (SIAM J. Optim. 16 (2005) 170), which judges by slopes where values
    drown in roundoff."""
    return val_t <= val + _ARMIJO * slope or (
        val_t <= val + 1e-6 * abs(val)
        and slope_t <= (2 * _ARMIJO - 1) * slope)


@dataclass
class StepResult:
    """One incremental step at time t; ``energy``, ``gradients``
    (g_u, g_z, g_p) and ``strain`` are those of the energy at
    (t, new_state)."""
    new_state: State
    iterations: int
    el_residuals: tuple[float, float, float]  # (r_u, r_z, r_p)
    accepted: bool
    energy: float
    gradients: tuple[np.ndarray, np.ndarray, np.ndarray]
    psi: float  # Psi_{eps,nu} at new_state of the step's rate
    strain: np.ndarray  # e = B(u + w(t)) - p, (n_cells, 3)
    z_floor_active: bool = False


# ---------------------------------------------------------------------------
# subproblem solves
# ---------------------------------------------------------------------------

def band_newton_step(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H step = grad for a symmetric positive definite H in the lower
    band storage of ``SymGradient.form`` by band Cholesky (LAPACK ``dpbsv``,
    overwriting H); raises LinAlgError naming info when the factor fails."""
    _, step, info = lapack.dpbsv(H, grad, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbsv failed with info={info}")
    return step


def solve_up_step(w: np.ndarray, F_ext: np.ndarray, state: State,
                  prev_state: State, ops: Operators, mat: MaterialParams,
                  ep: EnergyParams, tol_dual: float = 1e-12,
                  max_iter: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """Joint minimization in (u, p) with z frozen at the loading (w, F_ext).

    Alternating u- and p-solves contract slowly once cells yield, so
    instead minimize the envelope F(u) = min_p J(u, p) by a semismooth
    Newton iteration: the inner minimum is the exact cellwise prox, the
    gradient of F needs only the elastic stress at p*(u) (envelope
    theorem), and the Hessian uses the consistent tangent
    w_c c_c S0 (I - J_c) of the prox: J_c = ``prox_tangent`` of the value
    evaluation's shift.  Value, gradient and tangent read the cell kernel
    ``elastic_cells`` and its form S0.  The tangent is symmetric by
    construction (S0 acts as 2 mu_L G on the trace-free range of J_c, G =
    diag(FROB_W)); the Hessian is assembled over the free dofs in lower
    band storage and solved by band Cholesky (``band_newton_step``),
    which raises LinAlgError when it is not positive definite.
    Steps are halved until ``_acceptable`` holds: Armijo's condition or,
    where the objective grows by at most 1e-6 of itself, the approximate
    Armijo condition of Hager & Zhang (2005).  Stops when
    the dual norm ``ops.dual_norm`` of the gradient is <= tol_dual and
    raises RuntimeError, stating that norm, when 50 halvings find no
    acceptable step or max_iter iterations end above tol_dual.
    """
    grid = ops.grid
    free = grid.free_dofs
    F_free = F_ext[free]
    zc = cell_damage(grid, state.z)
    c = stiffness(zc, mat)
    wc = grid.w_cell * c
    V = yield_radius(zc, mat)
    wV = grid.w_cell * V
    visc_fac = ep.eps * ep.nu / ep.tau
    u_prev_f = prev_state.u.ravel()[free]
    c_q = deviatoric_modulus(c, mat)

    def value_grad(u_free):
        uw = w.flatten()
        uw[free] += u_free
        e_bar = ops.B.apply(uw)
        shift = _prox_shift(prev_state.p, tensor_dev(e_bar), V, visc_fac,
                            ep.mu, c_q)
        p = shift[0]
        s0, q0 = elastic_cells(e_bar - p, mat)
        val = wc @ q0 - F_ext @ uw
        du = u_free - u_prev_f
        kd_du = ops.apply_K_D(du)
        val += 0.5 * visc_fac * du @ kd_du
        dp = p - prev_state.p
        val += (wV * tensor_norm(dp)).sum()
        val += 0.5 * visc_fac * (grid.w_cell * tensor_dot(dp, dp)).sum()
        val += 0.5 * ep.mu * (grid.w_cell * tensor_dot(p, p)).sum()
        grad = ops.B.adjoint(wc[:, None] * s0)[free] - F_free \
            + visc_fac * kd_du
        return float(val), grad, shift

    u_free = state.u.ravel()[free].copy()
    val, grad, shift = value_grad(u_free)
    for it in range(max_iter + 1):
        r_dual = ops.dual_norm(grad)
        if r_dual <= tol_dual:
            break
        if it == max_iter:
            raise RuntimeError(f"solve_up_step: dual residual {r_dual:.3e} "
                               f"> tol_dual after {max_iter} iterations")
        # per-cell consistent tangent w_c c_c S0 (I - dp*/d e_bar) from
        # the shift; Hessian visc_fac K_D + sum_c B_c^T T_c B_c
        T = mat.unit_stiffness @ (np.eye(3) - prox_tangent(shift, c_q))
        H = ops.B.form(visc_fac * ops.K_D_cells + wc[:, None, None] * T)
        step = -band_newton_step(H, grad)
        slope = grad @ step
        alpha = 1.0
        for _bt in range(50):
            trial = u_free + alpha * step
            val_t, grad_t, shift_t = value_grad(trial)
            if _acceptable(val, val_t, alpha * slope, alpha * (grad_t @ step)):
                break
            alpha *= 0.5
        else:
            raise RuntimeError(f"solve_up_step: no acceptable step in 50 "
                               f"halvings at dual residual {r_dual:.3e}")
        u_free, val, grad, shift = trial, val_t, grad_t, shift_t
    u_full = np.zeros(2 * grid.n_nodes)
    u_full[free] = u_free
    return u_full.reshape(grid.n_nodes, 2), shift[0]


def _z_value(z, z_prev, q0, dp_norm, ops, mat, ep):
    """Value, Euclidean gradient, cell c''(z_c) and A_m z of the z subproblem
    objective: one damage_potential, stiffness_coeff and A_m product each."""
    grid = ops.grid
    zc = cell_damage(grid, z)
    W, Wp = damage_potential(z, mat)
    Az = ops.apply_A_m(z)
    dz = z - z_prev
    val = 0.5 * z @ Az
    val += (grid.lump * W).sum()
    c, cp, cpp = stiffness_coeff(zc, mat)
    val += (grid.w_cell * c * q0).sum()
    val += (grid.w_cell * yield_radius(zc, mat) * dp_norm).sum()
    val += 0.5 * (ep.eps / ep.tau) * (grid.lump * dz ** 2).sum()
    val -= mat.kappa * (grid.lump * dz).sum()
    cell_term = grid.w_cell * (cp * q0 + yield_radius_prime(zc, mat) * dp_norm)
    g = Az + corner_scatter(grid, cell_term) \
        + grid.lump * (Wp + (ep.eps / ep.tau) * dz - mat.kappa)
    return float(val), g, cpp, Az


def _z_hess(z, q0, cpp, ops, mat, ep):
    """Hessian of the z subproblem (a.e.; the yield-radius term is
    piecewise linear and contributes nothing), cpp from _z_value at z."""
    grid = ops.grid
    H = ops.A_m.copy()
    H.flat[::grid.n_nodes + 1] += grid.lump * (damage_curvature(z, mat)
                                               + ep.eps / ep.tau)
    # damage-elasticity coupling: d/dz of the scattered cell drive
    add_corner_form(grid, H, grid.w_cell * cpp * q0)
    return H


def _at_bounds(z, z_prev):
    """Masks of the nodes at the lower and at the upper bound of z."""
    return z <= Z_FLOOR * (1 + 1e-12), z >= z_prev - 1e-15


def solve_z_step(e: np.ndarray, state: State, prev_state: State,
                 ops: Operators, mat: MaterialParams, ep: EnergyParams,
                 tol: float = 1e-10, max_iter: int = 200):
    """Minimize the z subproblem at strain e under z_floor <= z <= z_prev by
    projected Newton: g/m at nodes held at a bound, the (SPD) Newton step
    on the others, halved along the projection arc clip(z - alpha d)
    (Calamai & More, Math. Prog. 39 (1987) 93) until ``_acceptable``;
    trials that leave z unmoved are rejected, and each other trial is one
    ``_z_value`` call.  Returns (z, A_m z); raises RuntimeError, stating
    the stationarity residual, when 50 halvings find no step or max_iter
    iterations end above tol."""
    z_prev = prev_state.z
    # z-independent cell data: elastic density at unit stiffness, |dp|
    _, q0 = elastic_cells(e, mat)
    dp_norm = tensor_norm(state.p - prev_state.p)
    m = ops.grid.lump
    z = np.minimum(np.maximum(state.z, Z_FLOOR), z_prev)
    val, g, cpp, Az = _z_value(z, z_prev, q0, dp_norm, ops, mat, ep)
    for it in range(max_iter + 1):
        d = g / m
        lower, upper = _at_bounds(z, z_prev)
        # mass-norm of the density-form projected gradient on the box
        proj = np.where(lower, np.minimum(d, 0.0),
                        np.where(upper, np.maximum(d, 0.0), d))
        res = float(np.sqrt((m * proj ** 2).sum()))
        if res <= tol:
            return z, Az
        if it == max_iter:
            raise RuntimeError(f"solve_z_step: stationarity residual "
                               f"{res:.3e} > tol after {max_iter} iterations")
        # held nodes keep d, the others take the Newton direction
        free = ~((lower & (d > 0)) | (upper & (d < 0)))
        H = _z_hess(z, q0, cpp, ops, mat, ep)
        *_, d[free], info = lapack.dgesv(H[free][:, free], g[free])
        if info != 0:
            raise np.linalg.LinAlgError(f"dgesv failed with info={info}")
        alpha = 1.0
        for _bt in range(50):
            z_t = np.minimum(np.maximum(z - alpha * d, Z_FLOOR), z_prev)
            s = z_t - z
            if (s != 0.0).any():
                ev_t = _z_value(z_t, z_prev, q0, dp_norm, ops, mat, ep)
                if _acceptable(val, ev_t[0], g @ s, ev_t[1] @ s):
                    break
            alpha *= 0.5
        else:
            raise RuntimeError(f"solve_z_step: no acceptable step in 50 "
                               f"halvings at stationarity residual {res:.3e}")
        z, (val, g, cpp, Az) = z_t, ev_t


# ---------------------------------------------------------------------------
# optimality residuals
# ---------------------------------------------------------------------------

def _displacement_residual(g_u, state, prev_state, ops, ep):
    """r_u of ``el_residuals`` from g_u."""
    du = (state.u - prev_state.u).ravel()[ops.grid.free_dofs]
    return ops.dual_norm((ep.eps * ep.nu / ep.tau) * ops.apply_K_D(du) + g_u)


def el_residuals(grads: tuple, state: State, prev_state: State,
                 ops: Operators, mat: MaterialParams,
                 ep: EnergyParams) -> tuple[float, float, float]:
    """Residuals of the three coupled optimality conditions of the
    incremental problem at a state, given the energy gradients there.

    r_u: dual norm (``ops.dual_norm``) of the viscous displacement
         stationarity.
    r_z: violation of the one-sided variational inequality pair for z.
    r_p: cellwise inclusion residual of the plastic flow condition.
    """
    grid = ops.grid
    g_u, g_z, g_p = grads
    r_u = _displacement_residual(g_u, state, prev_state, ops, ep)

    z_rate = (state.z - prev_state.z) / ep.tau
    chi = g_z  # density form of the damage driving force
    gv1_viol = np.maximum(ep.eps * z_rate + chi - mat.kappa, 0.0)
    gv1 = np.sqrt((grid.lump * gv1_viol ** 2).sum())
    p_rate = (state.p - prev_state.p) / ep.tau
    lhs2 = (grid.lump * (mat.kappa * np.abs(z_rate)
                         + ep.eps * z_rate ** 2 + chi * z_rate)).sum()
    rhs2 = mat.c_k * ep.tau * np.abs(z_rate).max(initial=0.0) \
        * (grid.w_cell * tensor_norm(p_rate)).sum()
    gv2 = max(lhs2 - rhs2, 0.0)
    r_z = float(gv1 + gv2)

    dp = state.p - prev_state.p
    xi = -g_p - (ep.eps * ep.nu / ep.tau) * dp
    viol = subdiff_violation(xi, dp,
                             yield_radius(cell_damage(grid, state.z), mat))
    r_p = float(np.sqrt((grid.w_cell * viol ** 2).sum()))
    return r_u, r_z, r_p


def incremental_step(t: float, prev_state: State, ops: Operators,
                     mat: MaterialParams, ep: EnergyParams,
                     loading: LoadingSpec, tol_stat: float = 1e-8,
                     max_iter: int = 500) -> StepResult:
    """Alternating (u, p) -> z sweeps from prev_state until the combined
    optimality residual drops below tol_stat (or max_iter sweeps); a
    (u, p) or z solve that cannot reach its tolerance raises RuntimeError.

    The loading is read once per step; each sweep forms its strain once
    (for the z-step and the certification) and A_m z once (in the z-step).
    A sweep is certified r_u first: the full ``energy_gradients`` and
    ``el_residuals`` run only where r_u <= tol_stat or at the max_iter-th
    sweep.  The energy and Psi are evaluated once, at the final state."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    w, F = eval_loading(loading, t)
    state = prev_state.copy()
    for sweeps in range(1, max_iter + 1):
        state.u, state.p = solve_up_step(
            w, F, state, prev_state, ops, mat, ep,
            tol_dual=max(1e-13, 0.02 * tol_stat))
        e = total_strain(ops.B, state, w)
        state.z, Az = solve_z_step(e, state, prev_state, ops, mat, ep,
                                   tol=0.1 * tol_stat)
        g_u = displacement_gradient(e, cell_damage(ops.grid, state.z), F,
                                    ops, mat)
        r_u = _displacement_residual(g_u, state, prev_state, ops, ep)
        if r_u > tol_stat and sweeps < max_iter:
            continue
        at = (w, F, e)
        grads = energy_gradients(t, state, ops, mat, ep.mu, loading, at, Az)
        residuals = el_residuals(grads, state, prev_state, ops, mat, ep)
        if max(residuals) <= tol_stat:
            break
    energy_k = energy(t, state, ops, mat, ep.mu, loading, at, Az)
    psi_k = psi_total(state, Rate.between(prev_state, state, ep.tau), ops,
                      mat, ep.eps, ep.nu, tol_pos=1e-14)
    return StepResult(
        new_state=state,
        iterations=sweeps,
        el_residuals=residuals,
        accepted=max(residuals) <= tol_stat,
        energy=energy_k,
        gradients=grads,
        psi=psi_k,
        strain=e,
        z_floor_active=bool(_at_bounds(state.z, prev_state.z)[0].any()),
    )
