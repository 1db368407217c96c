"""One step of the time-incremental minimization scheme.

Each step minimizes

    tau Psi_{eps,nu}(q, (q - q_prev)/tau) + E_mu(t_k, q)

by sweeps that alternate a joint (u, p) solve with z frozen (semismooth
Newton on u, with p eliminated by the exact cellwise proximal map) and a
projected-Newton solve in z under the irreversibility constraint
z_floor <= z <= z_prev.  Both solves backtrack to one acceptance rule
and raise RuntimeError when they cannot converge; each forms the data
fixed over its call once (the prox map; the z cell data).  The (u, p)
solve builds its Hessian from the prox shift at the iterate, the z-solve
from a base on its free nodes only (the form's ``slice`` plus the
corner form of c'' = 2), formed again only where the free set changes;
the (u, p) solve reads the data fixed over a step from the step's
``UpData``.  Each value evaluation is formed once and handed on
as a record: the (u, p) solve's ``UpRecord`` (strain, stress, density,
|dp| and the viscous K_D product) to the z-solve, r_u and the
certification; the z-solve's ``DamageLaws`` at its accepted z to the
next sweep, the certification, the energy and the next step.  Sweeps
start from q_prev and are certified by r_u first, the other two
optimality residuals where it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constitutive import (
    DamageLaws,
    EnergyParams,
    MaterialParams,
    Operators,
    add_corner_form,
    corner_scatter,
    damage_curvature,
    deviatoric_modulus,
    displacement_gradient,
    elastic_cells,
    energy_from,
    lapack,
    loaded_energy,
    state_gradients,
)
from .discretization import (
    Z_FLOOR,
    LoadingSpec,
    State,
    eval_loading,
    tensor_dev,
    tensor_dot,
    tensor_norm,
)
from .dissipation import dist_r, prox_map, prox_tangent, subdiff_violation

# sufficient-decrease fraction delta of both line searches
_ARMIJO = 1e-4
# Newton iterations of one (u, p) solve and of one z-solve
UP_MAX_ITER = 80
Z_MAX_ITER = 200


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
    """One incremental step at time t; ``energy``, its ``loaded`` part,
    ``gradients`` (g_u, g_z, g_p) and ``strain`` are those of the energy
    at (t, new_state), and ``laws`` the ``DamageLaws`` at new_state.z."""
    new_state: State
    iterations: int
    el_residuals: tuple[float, float, float]  # (r_u, r_z, r_p)
    accepted: bool
    energy: float
    gradients: tuple[np.ndarray, np.ndarray, np.ndarray]
    strain: np.ndarray  # e = B(u + w(t)) - p, (n_cells, 3)
    loaded: float       # loaded_energy at (t, new_state)
    laws: DamageLaws
    z_floor_active: bool = False


class UpRecord(NamedTuple):
    """A (u, p) value evaluation: the strain e = B(u + w) - p, its
    ``elastic_cells`` (s0, q0), |p - p_prev| per cell and the viscous
    product visc_fac K_D (u - u_prev) on the free dofs.  A tuple, since
    each evaluation makes one."""

    e: np.ndarray
    s0: np.ndarray
    q0: np.ndarray
    dp_abs: np.ndarray
    visc_kd: np.ndarray

    @classmethod
    def of(cls, e: np.ndarray, dp_abs: np.ndarray, mat: MaterialParams,
           visc_kd: np.ndarray) -> "UpRecord":
        return cls(e, *elastic_cells(e, mat), dp_abs, visc_kd)


class UpData(NamedTuple):
    """The (u, p) solve's data fixed over a step: the force F of the
    loading at t and its free slice, u_prev on the free dofs, the loading
    w flattened (a work buffer: each value evaluation writes w + u into
    its free entries) and its free slice, visc_fac = eps nu / tau and the
    viscous cell forms visc_fac K_D."""

    F: np.ndarray
    F_free: np.ndarray
    u_prev_f: np.ndarray
    uw: np.ndarray
    w_free: np.ndarray
    visc_fac: float
    visc_cells: np.ndarray

    @classmethod
    def of(cls, w: np.ndarray, F: np.ndarray, prev_state: State,
           ops: Operators, ep: EnergyParams) -> "UpData":
        """The data of a step from prev_state under the loading (w, F)."""
        free = ops.grid.free_dofs
        visc_fac = ep.eps * ep.nu / ep.tau
        return cls(F, F[free], prev_state.u.ravel()[free], w.flatten(),
                   w.ravel()[free], visc_fac, visc_fac * ops.K_D_cells)


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


def solve_up_step(data: UpData, laws: DamageLaws, state: State,
                  prev_state: State, ops: Operators, mat: MaterialParams,
                  ep: EnergyParams, tol_dual: float = 1e-12) -> tuple:
    """Joint minimization in (u, p) with z frozen, from the step's
    ``UpData`` and the ``DamageLaws`` at state.z.

    Alternating u- and p-solves contract slowly once cells yield, so
    instead minimize the envelope F(u) = min_p J(u, p) by a semismooth
    Newton iteration: the inner minimum is the exact cellwise prox, the
    gradient of F needs only the elastic stress at p*(u) (envelope
    theorem), and the Hessian uses the consistent tangent
    w_c c_c S0 (I - J_c) of the prox: J_c = ``prox_tangent`` of the value
    evaluation's shift.  Value, gradient and tangent read the cell kernel
    ``elastic_cells`` and its form S0; the cell laws (c, V) are read from
    ``laws``, the loading and the viscous cell forms from ``data``, and
    the checked ``prox_map`` is formed once per call.  Where no cell
    yields, J_c is 0 and the tangent S0 itself.  The tangent is symmetric
    by construction (S0 acts as 2 mu_L G on the trace-free range of J_c,
    G = diag(FROB_W)); the Hessian is assembled over the free dofs in
    lower band storage and solved by band Cholesky (``band_newton_step``),
    which raises LinAlgError when it is not positive definite.  Steps are
    halved until ``_acceptable`` holds: Armijo's condition or, where the
    objective grows by at most 1e-6 of itself, the approximate Armijo
    condition of Hager & Zhang (2005).
    Stops when the dual norm ``ops.dual_norm`` of the gradient is <=
    tol_dual and raises RuntimeError, stating that norm, when 50 halvings
    find no acceptable step or UP_MAX_ITER iterations end above tol_dual.
    Returns (u, p, rec), rec the ``UpRecord`` of the accepted evaluation.
    """
    grid = ops.grid
    free = grid.free_dofs
    wc, wV = grid.w_cell * laws.c, grid.w_cell * laws.V
    visc_fac, uw = data.visc_fac, data.uw
    c_q = deviatoric_modulus(laws.c, mat)
    shift_at = prox_map(prev_state.p, laws.V, visc_fac, ep.mu, c_q)
    eye = np.eye(3)

    def value_grad(u_free):
        uw[free] = data.w_free + u_free
        e_bar = ops.B.apply(uw)
        shift = shift_at(tensor_dev(e_bar))
        p = shift[0]
        du = u_free - data.u_prev_f
        kd_du = ops.apply_K_D(du)
        dp = p - prev_state.p
        dp2 = tensor_dot(dp, dp)
        rec = UpRecord.of(e_bar - p, np.sqrt(dp2), mat, visc_fac * kd_du)
        val = wc @ rec.q0 - data.F @ uw + 0.5 * visc_fac * (du @ kd_du) \
            + wV @ rec.dp_abs + grid.w_cell @ (
                0.5 * visc_fac * dp2 + 0.5 * ep.mu * tensor_dot(p, p))
        grad = displacement_gradient(rec.s0, wc, data.F_free, ops) \
            + rec.visc_kd
        return float(val), grad, shift, rec

    u_free = state.u.ravel()[free]
    val, grad, shift, rec = value_grad(u_free)
    for it in range(UP_MAX_ITER + 1):
        r_dual = ops.dual_norm(grad)
        if r_dual <= tol_dual:
            break
        if it == UP_MAX_ITER:
            raise RuntimeError(f"solve_up_step: dual residual {r_dual:.3e} "
                               f"> tol_dual after {it} iterations")
        # per-cell consistent tangent w_c c_c S0 (I - dp*/d e_bar) from
        # the shift, S0 where no cell yields (shrink < 1); Hessian
        # visc_fac K_D + sum_c B_c^T T_c B_c
        T = mat.unit_stiffness
        if (shift[3] < 1.0).any():
            T = T @ (eye - prox_tangent(shift, c_q))
        H = ops.B.form(data.visc_cells + wc[:, None, None] * T)
        step = -band_newton_step(H, grad)
        slope = grad @ step
        alpha = 1.0
        for _bt in range(50):
            trial = u_free + alpha * step
            val_t, grad_t, shift_t, rec_t = value_grad(trial)
            if _acceptable(val, val_t, alpha * slope, alpha * (grad_t @ step)):
                break
            alpha *= 0.5
        else:
            raise RuntimeError(f"solve_up_step: no acceptable step in 50 "
                               f"halvings at dual residual {r_dual:.3e}")
        u_free, val, grad, shift, rec = trial, val_t, grad_t, shift_t, rec_t
    u_full = np.zeros(2 * grid.n_nodes)
    u_full[free] = u_free
    return u_full.reshape(grid.n_nodes, 2), shift[0], rec


def _z_value(laws, z, z_prev, a, b, ops, mat, ep):
    """Value and gradient of the z objective at z, assembled from the
    ``DamageLaws`` at z and the cell data a = w_c q0, b = w_c |dp|."""
    grid = ops.grid
    dz = z - z_prev
    r = ep.eps / ep.tau
    val = 0.5 * (z @ laws.Az) \
        + grid.lump @ (laws.W + (0.5 * r * dz - mat.kappa) * dz) \
        + laws.c @ a + laws.V @ b
    g = laws.Az + corner_scatter(grid, laws.cp * a + mat.c_k * b) \
        + grid.lump * (laws.Wp + r * dz - mat.kappa)
    return float(val), g


def _z_base(a, idx, ops):
    """The z-Hessian's part fixed while the free nodes idx are, on idx:
    A_m plus the coupling sum_c c'' a_c (corner form), c'' = 2; the
    affine V adds nothing.  A view: the slice holds one spare row and
    column last (the last free node again), which take the corner terms
    off the free nodes."""
    H = ops.A_m.slice(np.concatenate((idx, idx[-1:])))
    add_corner_form(ops.grid, H, 2.0 * a, idx)
    return H[:-1, :-1]


def _at_bounds(z, z_prev):
    """Masks of the nodes at the lower and at the upper bound of z."""
    return z <= Z_FLOOR * (1 + 1e-12), z >= z_prev - 1e-15


def solve_z_step(up: UpRecord, laws: DamageLaws, state: State,
                 prev_state: State, ops: Operators, mat: MaterialParams,
                 ep: EnergyParams, tol: float = 1e-10):
    """Minimize the z subproblem at the (u, p) record ``up`` of state under
    z_floor <= z <= z_prev by projected Newton: g/m at nodes held at a
    bound, the (SPD) Newton step on the others, halved along the
    projection arc clip(z - alpha d) (Calamai & More, Math. Prog. 39
    (1987) 93) until ``_acceptable``; trials that leave z unmoved are
    rejected, and each other trial is one ``DamageLaws`` and one
    ``_z_value`` call.  The cell data a = w_c q0 and b = w_c |dp| are
    formed once per call, from ``up``, and the Hessian base ``_z_base``
    on the free nodes when first needed and again only where the free
    set changes; each iteration adds lump (W'' + eps/tau) to a copy of
    it and solves that by dense Cholesky (LAPACK ``dposv``), raising
    LinAlgError naming info where it is not positive definite.  It starts
    at state.z, within the bounds, with ``laws``, the ``DamageLaws`` there.
    The stationarity residual is the mass norm of g/m over the free nodes
    (a node pinned at both bounds adds nothing).  Returns (z, laws) at the
    accepted z; raises RuntimeError, stating the residual, when 50
    halvings find no step or Z_MAX_ITER iterations end above tol."""
    z_prev, m, w_cell = prev_state.z, ops.grid.lump, ops.grid.w_cell
    a, b = w_cell * up.q0, w_cell * up.dp_abs
    z = state.z
    val, g = _z_value(laws, z, z_prev, a, b, ops, mat, ep)
    for it in range(Z_MAX_ITER + 1):
        d = g / m
        lower, upper = _at_bounds(z, z_prev)
        # held nodes keep d, the others take the Newton direction
        free = ~((lower & (d > 0)) | (upper & (d < 0)))
        res = float(g[free] @ d[free]) ** 0.5
        if res <= tol:
            return z, laws
        if it == Z_MAX_ITER:
            raise RuntimeError(f"solve_z_step: stationarity residual "
                               f"{res:.3e} > tol after {it} iterations")
        idx = free.nonzero()[0]
        if it == 0 or (free != base_free).any():
            base_free = free
            base = H = None  # the last base and its work array go first
            base = _z_base(a, idx, ops)
            H = np.empty(base.shape)
        np.copyto(H, base)
        H.flat[::len(idx) + 1] += m[idx] * (damage_curvature(z[idx], mat)
                                            + ep.eps / ep.tau)
        # H is exactly symmetric: its transpose is the Fortran array
        _, d[idx], info = lapack.dposv(H.T, g[idx], lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dposv failed with info={info}")
        alpha = 1.0
        for _bt in range(50):
            z_t = np.minimum(np.maximum(z - alpha * d, Z_FLOOR), z_prev)
            s = z_t - z
            if s.any():
                laws_t = DamageLaws.at(z_t, ops, mat)
                val_t, g_t = _z_value(laws_t, z_t, z_prev, a, b, ops, mat,
                                      ep)
                if _acceptable(val, val_t, g @ s, g_t @ s):
                    break
            alpha *= 0.5
        else:
            raise RuntimeError(f"solve_z_step: no acceptable step in 50 "
                               f"halvings at stationarity residual {res:.3e}")
        z, val, g, laws = z_t, val_t, g_t, laws_t


# ---------------------------------------------------------------------------
# optimality residuals
# ---------------------------------------------------------------------------

def el_residuals(r_u: float, g_z: np.ndarray, g_p: np.ndarray,
                 V: np.ndarray, state: State, prev_state: State,
                 ops: Operators, mat: MaterialParams,
                 ep: EnergyParams) -> tuple[float, float, float]:
    """Residuals of the three coupled optimality conditions of the
    incremental problem at a state, given the energy's partial gradients
    g_z, g_p and the yield radii V of state.z there.

    r_u: dual norm (``ops.dual_norm``) of the viscous displacement
         stationarity, as passed.
    r_z: violation of the one-sided variational inequality pair for z.
    r_p: cellwise inclusion residual of the plastic flow condition.
    """
    grid = ops.grid
    z_rate = (state.z - prev_state.z) / ep.tau
    gv1 = dist_r(grid, -(ep.eps * z_rate + g_z), mat.kappa)
    p_rate = (state.p - prev_state.p) / ep.tau
    lhs2 = (grid.lump * (mat.kappa * np.abs(z_rate)
                         + ep.eps * z_rate ** 2 + g_z * z_rate)).sum()
    rhs2 = mat.c_k * ep.tau * np.abs(z_rate).max(initial=0.0) \
        * (grid.w_cell * tensor_norm(p_rate)).sum()
    gv2 = max(lhs2 - rhs2, 0.0)
    r_z = float(gv1 + gv2)

    dp = state.p - prev_state.p
    xi = -g_p - (ep.eps * ep.nu / ep.tau) * dp
    viol = subdiff_violation(xi, dp, V)
    r_p = float(np.sqrt((grid.w_cell * viol ** 2).sum()))
    return r_u, r_z, r_p


def incremental_step(t: float, prev_state: State, ops: Operators,
                     mat: MaterialParams, ep: EnergyParams,
                     loading: LoadingSpec, tol_stat: float = 1e-8,
                     max_iter: int = 500, laws=None) -> StepResult:
    """Alternating (u, p) -> z sweeps from prev_state until the combined
    optimality residual drops below tol_stat (or max_iter sweeps); a
    (u, p) or z solve that cannot reach its tolerance raises RuntimeError.

    The loading is read, and the (u, p) solve's ``UpData`` formed, once
    per step, and every evaluation once per sweep: the (u, p) solve's
    ``UpRecord`` gives the z-solve its cell data, r_u its viscous product
    and the certification its strain, stress and density; the z-solve's
    ``DamageLaws`` at its accepted z give g_u, r_p, the energy gradients
    and the energy their laws, and start the next sweep's (u, p) solve
    and z-solve, since the (u, p) solve leaves z alone.  ``laws``, those
    at prev_state.z (the previous step's), start the first sweep; they
    are formed where not passed.  A sweep is certified r_u first:
    ``state_gradients`` and ``el_residuals`` run, from that g_u and r_u,
    only where r_u <= tol_stat or at the max_iter-th sweep.  The energy
    and its loaded part are evaluated once, at the end; the step's Psi is
    read by the driver from its rate record."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not 0 < tol_stat < np.inf:
        raise ValueError("tol_stat must be positive")
    w, F = eval_loading(loading, t)
    data = UpData.of(w, F, prev_state, ops, ep)
    state = prev_state.copy()
    laws = laws or DamageLaws.at(state.z, ops, mat)
    for sweeps in range(1, max_iter + 1):
        state.u, state.p, up = solve_up_step(
            data, laws, state, prev_state, ops, mat, ep,
            tol_dual=max(1e-13, 0.02 * tol_stat))
        state.z, laws = solve_z_step(up, laws, state, prev_state, ops, mat,
                                     ep, tol=0.1 * tol_stat)
        g_u = displacement_gradient(up.s0, ops.grid.w_cell * laws.c,
                                    data.F_free, ops)
        r_u = ops.dual_norm(up.visc_kd + g_u)
        if r_u > tol_stat and sweeps < max_iter:
            continue
        g_z, g_p = state_gradients(up.e, up.q0, laws, state.p, ops, mat,
                                   ep.mu)
        residuals = el_residuals(r_u, g_z, g_p, laws.V, state, prev_state,
                                 ops, mat, ep)
        if max(residuals) <= tol_stat:
            break
    loaded = loaded_energy(w, F, state.u, up.q0, laws, ops)
    return StepResult(
        new_state=state,
        iterations=sweeps,
        el_residuals=residuals,
        accepted=max(residuals) <= tol_stat,
        energy=energy_from(loaded, state, laws, ops, ep.mu),
        gradients=(g_u, g_z, g_p),
        strain=up.e,
        loaded=loaded,
        laws=laws,
        z_floor_active=bool(_at_bounds(state.z, prev_state.z)[0].any()),
    )
