"""Arclength reparameterizations, contact potentials for the four
parameter regimes, jump detection, the largest stability magnitude off
the jumps, switching recovery, and the vanishing-parameter sweep
driver.

Conventions.  A reparameterized trajectory keeps one knot per original
time step; rates are backward differences on the nonuniform s-grid with
no smoothing.  The discrete normalization identity (slow-time rate plus
rate norm equals one) then holds at every interior knot by construction.
Regime names: "visc" (all parameters fixed positive), "eps0" (viscosity
scale to zero, rate weights fixed), "eps-nu0" (multi-rate, hardening
fixed), "all0" (everything vanishing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .constitutive import EnergyParams, MaterialParams, Operators, \
    yield_radius, cell_damage
from .discretization import LoadingSpec, State
from .dissipation import (
    DualDiagnostics,
    Rate,
    d_nu,
    d_up,
    flow_directions,
    norm_p_l1,
    norm_p_l2,
    norm_u_h1,
    norm_z_hm,
    norm_z_m,
    psi_rate_independent,
    subdiff_violation,
)
from .driver import Trajectory, run_viscous

TOL_JUMP = 1e-3

REGIMES = ("visc", "eps0", "eps-nu0", "all0")


@dataclass
class ParamTrajectory:
    """A viscous run reparameterized by arclength: its knot map s -> t.

    Knot k sits at arclength s[k] and slow time traj.times[k]; states,
    dual diagnostics, energy gradients, ep, mat and loading are the
    run's, read from ``traj``.  Rates at knot k >= 1 are backward
    differences over (s_{k-1}, s_k]; t_rate is 0 at knot 0.
    """

    kind: str                      # "std" or "ed"
    traj: Trajectory
    s: np.ndarray                  # (n+1,) strictly increasing
    t_rate: np.ndarray             # (n+1,) dt/ds
    normalization: np.ndarray      # (n+1,), == 1 at interior knots

    @property
    def n_knots(self) -> int:
        return len(self.s)

    def rate(self, k: int) -> Rate:
        """State rate per unit s at knot k >= 1: the run's time rate
        scaled by dt/ds."""
        return _scaled(self.traj.rate(k), self.t_rate[k])

    def jumps(self, tol_jump: float) -> np.ndarray:
        """Boolean per knot: True where the slow time is (numerically)
        frozen, t_rate < tol_jump; never at knot 0."""
        mask = self.t_rate < tol_jump
        mask[0] = False
        return mask


def _scaled(rate: Rate, f) -> Rate:
    return Rate(u_rate=rate.u_rate * f, z_rate=rate.z_rate * f,
                p_rate=rate.p_rate * f)


def _build_ptraj(kind, traj, ops):
    """Knots s_k = s_{k-1} + tau_k * integrand at the time rates (slow-time
    rate 1); the normalization is the same integrand at the
    reparameterized rates."""
    n = len(traj.times)
    ds = np.zeros(n)
    t_rate = np.zeros(n)
    normalization = np.ones(n)
    for k in range(1, n):
        tau = traj.times[k] - traj.times[k - 1]
        rate = traj.rate(k)
        # only the energy-dissipation integrand reads the strain rate
        erate = traj.strain_rate(k) if kind == "ed" else 0.0
        dns = traj.dual_diag[k].d_nu_star
        ds[k] = tau * _integrand(kind, ops, traj.ep, 1.0, rate, erate, dns)
        if ds[k] <= 0:
            raise ValueError(f"degenerate zero-length step at knot {k}")
        fac = t_rate[k] = tau / ds[k]
        normalization[k] = _integrand(kind, ops, traj.ep, fac,
                                      _scaled(rate, fac), erate * fac, dns)
    return ParamTrajectory(kind=kind, traj=traj, s=np.cumsum(ds),
                           t_rate=t_rate, normalization=normalization)


def _integrand(kind, ops, ep, t_rate, rate, erate, d_nu_star):
    """Arclength integrand of a reparameterization kind at slow-time rate
    t_rate, state rate `rate` and strain rate erate."""
    grid = ops.grid
    if kind == "std":
        return (t_rate + norm_u_h1(ops, rate.u_rate)
                + norm_z_hm(ops, rate.z_rate)
                + norm_p_l2(grid, rate.p_rate))
    rmu = np.sqrt(ep.mu)
    return (t_rate + rmu * norm_u_h1(ops, rate.u_rate)
            + norm_z_hm(ops, rate.z_rate)
            + norm_p_l1(grid, rate.p_rate)
            + rmu * norm_p_l2(grid, rate.p_rate)
            + norm_p_l2(grid, erate)
            + d_nu(ops, rate, ep.nu) * d_nu_star)


def reparam_standard(traj: Trajectory, ops: Operators) -> ParamTrajectory:
    """Arclength with integrand 1 + ||u'||_H1 + ||z'||_Hm + ||p'||_L2."""
    return _build_ptraj("std", traj, ops)


def reparam_ed(traj: Trajectory, ops: Operators) -> ParamTrajectory:
    """Energy-dissipation arclength: the integrand additionally carries
    the rate L1 norm, the strain rate, and the product of the primal
    rate functional D_nu with its dual counterpart."""
    return _build_ptraj("ed", traj, ops)


# ---------------------------------------------------------------------------
# contact potentials
# ---------------------------------------------------------------------------

def contact_potential(regime: str, t_rate: float, state: State, rate: Rate,
                      diag: DualDiagnostics, ops: Operators,
                      mat: MaterialParams, ep: EnergyParams,
                      stab_tol: float = 0.0) -> float:
    """Regime-dependent contact potential at a knot (per unit s).

    Magnitudes below stab_tol are treated as vanished when selecting
    the piecewise branch, which is how the discrete ladder evaluates
    the limiting formulas.  Returns +inf on the infinite branches.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if t_rate < 0:
        raise ValueError("slow-time rate must be nonnegative")
    ri = psi_rate_independent(state, rate, ops, mat, tol_pos=1e-12)
    if not np.isfinite(ri):
        return float("inf")

    if regime == "visc":
        if ep.eps <= 0:
            raise ValueError("regime 'visc' needs eps > 0")
        dn = d_nu(ops, rate, ep.nu)
        if t_rate > 0:
            return ri + (ep.eps / (2 * t_rate)) * dn ** 2 \
                + (t_rate / (2 * ep.eps)) * diag.d_nu_star ** 2
        return ri if dn <= stab_tol else float("inf")

    if regime == "eps0":
        if ep.nu <= 0:
            raise ValueError("regime 'eps0' needs nu > 0")
        if t_rate > 0:
            return ri if diag.d_nu_star <= stab_tol else float("inf")
        return ri + d_nu(ops, rate, ep.nu) * diag.d_nu_star

    # multi-rate and all-vanishing regimes share the reduced structure;
    # they differ in which dual surrogate is tested
    dstar = diag.d_star_mu if regime == "eps-nu0" else diag.d_star0
    if t_rate > 0:
        stable = dstar <= stab_tol and diag.dist_z <= stab_tol
        return ri if stable else float("inf")
    zr_norm = norm_z_m(ops.grid, rate.z_rate)
    dup = d_up(ops, rate.u_rate, rate.p_rate)
    if zr_norm <= stab_tol:
        return ri + dup * dstar
    if dstar <= stab_tol:
        return ri + zr_norm * diag.dist_z
    return float("inf")


def detect_jumps(ptraj: ParamTrajectory,
                 tol_jump: float = TOL_JUMP) -> list[tuple[float, float]]:
    """Maximal s-intervals over which the slow time is (numerically)
    frozen: each run a..b of consecutive ``ptraj.jumps`` knots gives
    the interval (s_{a-1}, s_b)."""
    edges = np.diff(np.concatenate(([0], ptraj.jumps(tol_jump), [0])))
    return [(float(ptraj.s[a - 1]), float(ptraj.s[b - 1]))
            for a, b in zip(np.flatnonzero(edges > 0),
                            np.flatnonzero(edges < 0))]


def stability_magnitude(regime: str, diag: DualDiagnostics) -> float:
    """The dual quantity that must vanish on non-jump knots."""
    if regime in ("visc", "eps0"):
        return diag.d_nu_star
    if regime == "eps-nu0":
        return diag.d_star_mu + diag.dist_z
    if regime == "all0":
        return diag.d_star0 + diag.dist_z
    raise ValueError(f"unknown regime {regime!r}")


def max_stability_nonjump(ptraj: ParamTrajectory, regime: str,
                          tol_jump: float = TOL_JUMP) -> float:
    """Largest stability magnitude over the knots k >= 1 outside the
    jumps, where it must vanish in the limit; 0 when there is none."""
    off_jump = ~ptraj.jumps(tol_jump)
    off_jump[0] = False
    return float(max((stability_magnitude(regime, d)
                      for d, keep in zip(ptraj.traj.dual_diag, off_jump)
                      if keep), default=0.0))


# ---------------------------------------------------------------------------
# switching recovery
# ---------------------------------------------------------------------------

def _switching_residual(grads, state: State, rate: Rate, ops: Operators,
                        mat: MaterialParams, ep: EnergyParams):
    """Least-squares residual residual(lam_up, lam_z) of the convex-
    combination optimality system at one knot, with coefficient lam_up on
    the displacement/plastic blocks and lam_z on the damage block; grads
    = (g_u, g_z, g_p) are the energy gradients at the knot.  Everything
    independent of the coefficients is computed once, here."""
    grid = ops.grid
    g_u, g_z, g_p = grads

    # K_D^{-1/2} is linear: the dual norm of lam a + (1-lam) b is
    # |lam y_a + (1-lam) y_b|
    uf = rate.u_rate.ravel()[grid.free_dofs]
    y_visc = ops.dual_solve(ep.nu * ops.apply_K_D(uf))
    y_grad = ops.dual_solve(g_u)

    # damage block: 0 in (1-lam) dR(z') + lam z' + (1-lam) chi nodewise;
    # the subdifferential is {-(1-lam) kappa} where z' < 0 and the ray
    # [-(1-lam) kappa, inf) where z' = 0
    zr = rate.z_rate
    rising, falling = zr > 1e-12, zr < -1e-12
    rest, rises = ~(rising | falling), rising.any()

    # plastic block: 0 in (1-lam) dH(z, p') + lam nu p' + (1-lam) g_p
    V = yield_radius(cell_damage(grid, state.z), mat)
    flow = flow_directions(rate.p_rate)

    def residual(lam_up: float, lam_z: float) -> float:
        y = lam_up * y_visc + (1 - lam_up) * y_grad
        target = -(lam_z * zr + (1 - lam_z) * g_z)
        floor = -(1 - lam_z) * mat.kappa
        viol = np.abs(target - floor, out=np.empty_like(zr), where=falling)
        np.maximum(floor - target, 0.0, out=viol, where=rest)
        if rises:
            viol[rising] = np.abs(target[rising]) + 1.0
        xi = -(lam_up * ep.nu * rate.p_rate + (1 - lam_up) * g_p)
        dist = subdiff_violation(xi, rate.p_rate, (1 - lam_up) * V, flow)
        return math.sqrt(y @ y + (grid.lump * viol ** 2).sum()
                         + (grid.w_cell * dist ** 2).sum())

    return residual


def recover_switching(ptraj: ParamTrajectory, ops: Operators,
                      multi_rate: bool = False):
    """Per-knot least-squares switching coefficients.

    Single-rate: one lambda per knot shared by all blocks.  Multi-rate:
    (lambda_up, lambda_z) with the switching constraint
    lambda_up (1 - lambda_z) = 0, handled by minimizing both admissible
    branches.  The energy gradients are the viscous run's
    (``ptraj.traj.gradients``).  Returns (lambdas, residuals); lambdas has
    shape (n,) or (n, 2).
    """
    n = ptraj.n_knots
    lams = np.zeros((n, 2)) if multi_rate else np.zeros(n)
    resid = np.zeros(n)
    if multi_rate:
        # branch 1: lam_up = 0, lam_z free; branch 2: lam_z = 1, lam_up free
        searches = ((lambda l: (0.0, l)), (lambda l: (l, 1.0)))
        corners = ((0.0, 0.0),)
    else:
        searches, corners = ((lambda l: (l, l)),), ((0.0, 0.0), (1.0, 1.0))
    traj = ptraj.traj
    for k in range(1, n):
        residual = _switching_residual(traj.gradients[k], traj.states[k],
                                       ptraj.rate(k), ops, traj.mat, traj.ep)
        cands = []
        for pair in searches:
            r = minimize_scalar(lambda l: residual(*pair(l)),
                                bounds=(0.0, 1.0), method="bounded",
                                options={"xatol": 1e-10})
            cands.append((pair(float(r.x)), float(r.fun)))
        cands += [(c, residual(*c)) for c in corners]
        # the first smallest: a search result wins ties with the corners
        (lam_up, lam_z), resid[k] = min(cands, key=lambda c: c[1])
        lams[k] = (lam_up, lam_z) if multi_rate else lam_up
    return lams, resid


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    params: tuple[float, float, float]      # (eps, nu, mu)
    n_steps: int
    max_stability_nonjump: float
    jump_intervals: list[tuple[float, float]]
    contact_integral: float
    ed_balance_residual: float
    total_length: float
    min_z: float
    ptraj: ParamTrajectory = field(repr=False)


@dataclass
class SweepReport:
    regime: str
    ladder: list[tuple[float, float, float]]
    levels: list[LevelReport]
    pairwise_sup_distance: list[float]      # consecutive levels


def _interp_rows(x: np.ndarray, xp: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``np.interp`` of every column of Z (one row per increasing knot xp)
    at the points x >= xp[0], by its own formula slope (x - xp_j) + Z_j,
    which is Z_j itself at a knot; the last row at and beyond the end."""
    n = len(xp)
    j = np.searchsorted(xp, x, side="right") - 1
    i = np.minimum(j, n - 2)
    slope = (Z[i + 1] - Z[i]) / (xp[i + 1] - xp[i])[:, None]
    blend = slope * (x - xp[i])[:, None] + Z[i]
    return np.where((j == n - 1)[:, None], Z[-1], blend)


def _align_z_curves(pa: ParamTrajectory, pb: ParamTrajectory, ops) -> float:
    """Sup (over the finer rescaled s-grid) of the lumped-L2 distance
    between the damage curves of two levels."""
    ref = pa if pa.n_knots >= pb.n_knots else pb
    sig = ref.s / ref.s[-1]
    za, zb = (_interp_rows(sig, p.s / p.s[-1],
                           np.array([st.z for st in p.traj.states]))
              for p in (pa, pb))
    return float(np.sqrt(np.sum(ops.grid.lump * (za - zb) ** 2,
                                axis=1)).max())


def ed_balance_residual_bv(ptraj: ParamTrajectory, ops: Operators,
                           regime: str,
                           stab_tol: float) -> tuple[float, float]:
    """Energy-dissipation balance residual of a candidate limit curve
    with the regime's contact potential: |E(end) + integral M ds -
    E(0) - integral power|.  The energies E_mu and per-step power
    integrals of the reparameterized viscous run ``ptraj.traj`` supply E
    and the power.  Returns (residual, contact_integral).  Either may be
    +inf when an infinite branch is hit."""
    traj = ptraj.traj
    contact = 0.0
    power = 0.0
    for k in range(1, ptraj.n_knots):
        ds = ptraj.s[k] - ptraj.s[k - 1]
        m = contact_potential(regime, float(ptraj.t_rate[k]),
                              traj.states[k], ptraj.rate(k),
                              traj.dual_diag[k], ops, traj.mat, traj.ep,
                              stab_tol=stab_tol)
        contact += ds * m
        power += traj.power[k]
    if not np.isfinite(contact):
        return float("inf"), float(contact)
    resid = abs(traj.E_mu[-1] + contact - traj.E_mu[0] - power)
    return float(resid), float(contact)


def ladder_levels(regime: str, ladder) -> list[tuple[float, float, float]]:
    """The ladder as float (eps, nu, mu) levels.  Raises ValueError on an
    unknown regime or a ladder that breaks the regime's constraints:
    eps strictly decreasing, and nu, mu fixed (eps0), nu/eps and mu
    fixed (eps-nu0), or mu strictly decreasing with nu <= mu (all0)."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    levels = [tuple(float(x) for x in lvl) for lvl in ladder]
    eps = [l[0] for l in levels]
    nus = [l[1] for l in levels]
    mus = [l[2] for l in levels]
    dec = all(a > b for a, b in zip(eps, eps[1:]))
    if regime == "eps0":
        ok = dec and len(set(nus)) == 1 and len(set(mus)) == 1 \
            and nus[0] > 0
    elif regime == "eps-nu0":
        ratios = [n / e for n, e in zip(nus, eps)]
        ok = dec and len(set(mus)) == 1 \
            and max(ratios) - min(ratios) < 1e-12
    elif regime == "all0":
        ok = dec and all(a > b for a, b in zip(mus, mus[1:])) \
            and all(n <= m + 1e-15 for n, m in zip(nus, mus))
    else:
        ok = True
    if not ok:
        raise ValueError(f"ladder violates the constraints of regime "
                         f"{regime!r}")
    return levels


def bv_sweep(ops: Operators, mat: MaterialParams, loading: LoadingSpec,
             init_state: State, regime: str, ladder, n_steps: int = 20,
             tol_stat: float = 1e-8, tol_jump: float = TOL_JUMP,
             stab_tol_factor: float = 10.0,
             max_iter: int = 500) -> SweepReport:
    """Run viscous solves over the loading's horizon along a
    vanishing-parameter ladder (checked by ``ladder_levels``), reparam-
    eterize (energy-dissipation arclength when everything vanishes,
    standard otherwise), and assemble the cross-level convergence
    evidence."""
    ladder = ladder_levels(regime, ladder)
    t_final = loading.t_final

    levels = []
    for lvl in ladder:
        eps, nu, mu = lvl
        ep = EnergyParams(eps=eps, nu=nu, mu=mu, tau=t_final / n_steps,
                          t_final=t_final)
        traj = run_viscous(ops, mat, ep, loading, init_state.copy(),
                           n_steps=n_steps, tol_stat=tol_stat,
                           max_iter=max_iter)
        if traj.aborted_at is not None:
            raise RuntimeError(f"viscous run failed at step "
                               f"{traj.aborted_at} for level {lvl}")
        if regime == "all0":
            ptraj = reparam_ed(traj, ops)
        else:
            ptraj = reparam_standard(traj, ops)
        resid, contact = ed_balance_residual_bv(ptraj, ops, regime,
                                                stab_tol_factor * eps)
        levels.append(LevelReport(
            params=lvl,
            n_steps=n_steps,
            max_stability_nonjump=max_stability_nonjump(ptraj, regime,
                                                        tol_jump),
            jump_intervals=detect_jumps(ptraj, tol_jump),
            contact_integral=contact,
            ed_balance_residual=resid,
            total_length=float(ptraj.s[-1]),
            min_z=float(min(st.z.min() for st in traj.states)),
            ptraj=ptraj,
        ))

    dists = [_align_z_curves(a.ptraj, b.ptraj, ops)
             for a, b in zip(levels, levels[1:])]
    return SweepReport(regime=regime, ladder=list(ladder), levels=levels,
                       pairwise_sup_distance=dists)
