"""Arclength reparameterizations, contact potentials for the four
parameter regimes, jump detection, the largest stability magnitude off
the jumps, switching recovery, and the vanishing-parameter sweep
driver.

Conventions.  A reparameterized trajectory keeps one knot per original
time step; rates are backward differences on the nonuniform s-grid with
no smoothing.  The discrete normalization identity (slow-time rate plus
rate norm equals one) then holds at every interior knot by construction.
Both arclengths and every contact potential read the run's rate
records scaled by dt/ds; only switching recovery reads the rate arrays,
and it forms each knot's energy gradients from the knot's state.

Switching recovery fits each knot's rates to lam (viscous system) +
(1 - lam) (rate-independent system) in least squares.  The dissipation's
subgradient nearest to minus the energy gradient scales with (1 - lam),
so the residual is affine in lam and the fit is the clipped one-variable
least-squares solution; lam = 0 (the stable value) where lam does not
move it.  Nodes at rest (|z'| <= 1e-12) and sticking cells (|p'| <=
1e-14) count as z' = p' = 0; a rising node raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import EnergyParams, MaterialParams, Operators, \
    cell_damage, energy_gradients, yield_radius
from .discretization import FROB_W, LoadingSpec, State, tensor_norm
from .dissipation import DualDiagnostics, Rate, RateNorms, flow_directions
from .driver import Trajectory, run_viscous

# the discrete evidence's thresholds: a knot is in a jump where dt/ds <
# TOL_JUMP, and a sweep level reads a magnitude below STAB_TOL_FACTOR * eps
# as vanished
TOL_JUMP = 1e-3
STAB_TOL_FACTOR = 10.0


@dataclass(frozen=True)
class Regime:
    """What a vanishing-parameter regime tests."""

    dual: str                 # DualDiagnostics field to vanish off the jumps
    multi_rate: bool          # dist_z tested apart from ``dual``
    vanishing: tuple          # of eps, nu, mu: those going to 0 on a ladder
    positive: str | None      # the parameter that must stay above 0
    arclength: str            # of the limit curve: "std" or "ed"


# "visc" (all parameters fixed positive, the viscous formula at every knot),
# "eps0" (viscosity scale to zero, rate weights fixed), "eps-nu0" (multi-
# rate, hardening fixed), "all0" (everything vanishing); no code outside
# this module compares a regime name
REGIMES = {
    "visc": Regime("d_nu_star", False, (), "eps", "std"),
    "eps0": Regime("d_nu_star", False, ("eps",), "nu", "std"),
    "eps-nu0": Regime("d_star_mu", True, ("eps", "nu"), None, "std"),
    "all0": Regime("d_star0", True, ("eps", "nu", "mu"), None, "ed"),
}


def regime_entry(regime: str) -> Regime:
    """The ``REGIMES`` entry of a regime name; raises on an unknown one."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    return REGIMES[regime]


@dataclass
class ParamTrajectory:
    """A viscous run reparameterized by arclength: its knot map s -> t.

    Knot k sits at arclength s[k] and slow time traj.times[k]; states,
    dual diagnostics, ep, mat and loading are the run's, read from
    ``traj``.  Rates at knot k >= 1 are backward differences over
    (s_{k-1}, s_k]; t_rate is 0 at knot 0.
    """

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
        rate, f = self.traj.rate(k), self.t_rate[k]
        return Rate(rate.u_rate * f, rate.z_rate * f, rate.p_rate * f)

    def norms(self, k: int) -> RateNorms:
        """The record of ``rate(k)``: the run's record scaled by dt/ds."""
        return self.traj.rate_norms[k].scaled(self.t_rate[k])

    def jumps(self) -> np.ndarray:
        """Boolean per knot: True where the slow time is (numerically)
        frozen, t_rate < TOL_JUMP; never at knot 0."""
        mask = self.t_rate < TOL_JUMP
        mask[0] = False
        return mask


def _build_ptraj(kind, traj):
    """Knots s_k = s_{k-1} + tau_k * integrand at the run's rate record
    (slow-time rate 1); the normalization is the same integrand at the
    record scaled to the reparameterized rates."""
    n = len(traj.times)
    ds = np.zeros(n)
    t_rate = np.zeros(n)
    normalization = np.ones(n)
    for k in range(1, n):
        tau = traj.times[k] - traj.times[k - 1]
        norms = traj.rate_norms[k]
        dns = traj.dual_diag[k].d_nu_star
        ds[k] = tau * _integrand(kind, traj.ep, 1.0, norms, dns)
        if ds[k] <= 0:
            raise ValueError(f"degenerate zero-length step at knot {k}")
        fac = t_rate[k] = tau / ds[k]
        normalization[k] = _integrand(kind, traj.ep, fac, norms.scaled(fac),
                                      dns)
    return ParamTrajectory(traj=traj, s=np.cumsum(ds),
                           t_rate=t_rate, normalization=normalization)


def _integrand(kind, ep, t_rate, norms, d_nu_star):
    """Arclength integrand of a reparameterization kind at slow-time rate
    t_rate and rate record ``norms``."""
    if kind == "std":
        return t_rate + norms.u_h1 + norms.z_hm + norms.p_l2
    rmu = np.sqrt(ep.mu)
    return (t_rate + rmu * norms.u_h1 + norms.z_hm + norms.p_l1
            + rmu * norms.p_l2 + norms.e_l2
            + norms.d_nu(ep.nu) * d_nu_star)


def reparam_standard(traj: Trajectory, ops: Operators) -> ParamTrajectory:
    """Arclength with integrand 1 + ||u'||_H1 + ||z'||_Hm + ||p'||_L2, from
    the run's rate records (ops is not read)."""
    return _build_ptraj("std", traj)


def reparam_ed(traj: Trajectory, ops: Operators) -> ParamTrajectory:
    """Energy-dissipation arclength: the integrand additionally carries
    the rate L1 norm, the strain rate, and the product of the primal
    rate functional D_nu with its dual counterpart (ops is not read)."""
    return _build_ptraj("ed", traj)


# ---------------------------------------------------------------------------
# contact potentials
# ---------------------------------------------------------------------------

def contact_potential(regime: str, t_rate: float, norms: RateNorms,
                      diag: DualDiagnostics, ep: EnergyParams,
                      stab_tol: float = 0.0, jump: bool = False) -> float:
    """Regime-dependent contact potential at a knot (per unit s), from
    the record ``norms`` of the knot's rate per unit s.

    jump selects the branch of a knot where the slow time is frozen
    (``ParamTrajectory.jumps``) in the vanishing regimes; "visc" has one
    formula at every knot.  Magnitudes below stab_tol are treated as
    vanished when selecting the piecewise branch, which is how the
    discrete ladder evaluates the limiting formulas.  Returns +inf on
    the infinite branches.
    """
    reg = regime_entry(regime)
    if t_rate <= 0:
        raise ValueError("slow-time rate must be positive")
    ri = norms.psi(0.0, 0.0, tol_pos=1e-12)
    if not np.isfinite(ri):
        return float("inf")
    if reg.positive and getattr(ep, reg.positive) <= 0:
        raise ValueError(f"regime {regime!r} needs {reg.positive} > 0")

    if "eps" not in reg.vanishing:
        return ri + (ep.eps / (2 * t_rate)) * norms.d_nu(ep.nu) ** 2 \
            + (t_rate / (2 * ep.eps)) * diag.d_nu_star ** 2

    dstar = getattr(diag, reg.dual)
    if not jump:
        dist = diag.dist_z if reg.multi_rate else 0.0
        return ri if dstar <= stab_tol and dist <= stab_tol else float("inf")
    if not reg.multi_rate:
        return ri + norms.d_nu(ep.nu) * dstar
    if norms.z_m <= stab_tol:
        return ri + norms.norm_up() * dstar
    if dstar <= stab_tol:
        return ri + norms.z_m * diag.dist_z
    return float("inf")


def detect_jumps(ptraj: ParamTrajectory) -> list[tuple[float, float]]:
    """Maximal s-intervals over which the slow time is (numerically)
    frozen: each run a..b of consecutive ``ptraj.jumps`` knots gives
    the interval (s_{a-1}, s_b)."""
    edges = np.diff(np.concatenate(([0], ptraj.jumps(), [0])))
    return [(float(ptraj.s[a - 1]), float(ptraj.s[b - 1]))
            for a, b in zip(np.flatnonzero(edges > 0),
                            np.flatnonzero(edges < 0))]


def stability_magnitude(regime: str, diag: DualDiagnostics) -> float:
    """The dual quantity that must vanish on non-jump knots."""
    reg = regime_entry(regime)
    return getattr(diag, reg.dual) + (diag.dist_z if reg.multi_rate else 0.0)


def max_stability_nonjump(ptraj: ParamTrajectory, regime: str) -> float:
    """Largest stability magnitude over the knots k >= 1 outside the
    jumps, where it must vanish in the limit; 0 when there is none."""
    off_jump = ~ptraj.jumps()
    off_jump[0] = False
    return float(max((stability_magnitude(regime, d)
                      for d, keep in zip(ptraj.traj.dual_diag, off_jump)
                      if keep), default=0.0))


# ---------------------------------------------------------------------------
# switching recovery
# ---------------------------------------------------------------------------

def _switching_blocks(grads, state: State, rate: Rate, ops: Operators,
                      mat: MaterialParams, ep: EnergyParams):
    """The switching residual at one knot as a_up + lam b_up on the
    displacement/plastic rows and a_z + lam b_z on the damage rows,
    whitened to the Euclidean norm; grads = (g_u, g_z, g_p)."""
    if (rate.z_rate > 1e-12).any():
        raise ValueError("a damage rate is positive")
    grid = ops.grid
    g_u, g_z, g_p = grads
    # lam nu K_D u' + (1 - lam) g_u in the K_D-dual norm: |L^-1 .|
    y_grad = ops.dual_solve(g_u)
    y_visc = ops.dual_solve(
        ep.nu * ops.apply_K_D(rate.u_rate.ravel()[grid.free_dofs]))
    # lam nu p' + (1 - lam) (g_p + V d): d = p'/|p'| on moving cells, the
    # point of the unit ball with V d nearest to -g_p on sticking ones
    moving, dirs = flow_directions(rate.p_rate)
    V = yield_radius(cell_damage(grid, state.z), mat)
    d = -g_p / np.maximum(tensor_norm(g_p), V)[:, None]
    d[moving] = dirs
    w_p = np.sqrt(grid.w_cell[:, None] * FROB_W)
    m_p = w_p * (g_p + V[:, None] * d)
    v_p = w_p * ep.nu * rate.p_rate * moving[:, None]
    # lam z' + (1 - lam) (g_z - kappa) on falling nodes; at rest the
    # distance (1 - lam) max(g_z - kappa, 0) to -(1 - lam) [kappa, inf)
    falling = rate.z_rate < -1e-12
    m_z = np.where(falling, g_z - mat.kappa, np.maximum(g_z - mat.kappa, 0))
    w_z = np.sqrt(grid.lump)
    a_up = np.concatenate((y_grad, m_p.ravel()))
    return (a_up, np.concatenate((y_visc, v_p.ravel())) - a_up,
            w_z * m_z, w_z * (rate.z_rate * falling - m_z))


def _fit(a, b):
    """lam in [0, 1] minimizing |a + lam b| (0 where b = 0) and the
    squared residual there."""
    bb = b @ b
    lam = min(max(-(a @ b) / bb, 0.0), 1.0) if bb > 0 else 0.0
    r = a + lam * b
    return lam, r @ r


def recover_switching(ptraj: ParamTrajectory, ops: Operators,
                      multi_rate: bool = False):
    """Per-knot least-squares switching coefficients, in closed form.

    Single-rate: one lambda per knot shared by all blocks.  Multi-rate:
    (lambda_up, lambda_z) with lambda_up (1 - lambda_z) = 0; the blocks
    separate, so the branches (0, lambda_z) and (lambda_up, 1) are fit
    apart and the first wins a tie.  Each knot's energy gradients are
    formed from its state, one ``energy_gradients`` call per knot, bit
    for bit those of the viscous step.  Returns (lambdas, residuals);
    lambdas has shape (n,) or (n, 2).  A rising damage rate raises.
    """
    n = ptraj.n_knots
    lams = np.zeros((n, 2)) if multi_rate else np.zeros(n)
    resid = np.zeros(n)
    traj = ptraj.traj
    for k in range(1, n):
        a_up, b_up, a_z, b_z = _switching_blocks(
            energy_gradients(traj.times[k], traj.states[k], ops, traj.mat,
                             traj.ep.mu, traj.loading),
            traj.states[k], ptraj.rate(k), ops, traj.mat, traj.ep)
        if multi_rate:
            (lam_z, rz), (lam_up, rup) = _fit(a_z, b_z), _fit(a_up, b_up)
            r0, r1 = a_up @ a_up + rz, rup + (a_z + b_z) @ (a_z + b_z)
            lams[k], rr = ((0.0, lam_z), r0) if r0 <= r1 \
                else ((lam_up, 1.0), r1)
        else:
            lams[k], rr = _fit(np.concatenate((a_up, a_z)),
                               np.concatenate((b_up, b_z)))
        resid[k] = math.sqrt(rr)
    return lams, resid


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    """A sweep level; ``ptraj.traj.ep`` holds the level's uniform step."""

    params: tuple[float, float, float]      # (eps, nu, mu)
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
    levels: list[LevelReport]
    pairwise_sup_distance: list[float]      # consecutive levels


def _align_z_curves(pa: ParamTrajectory, pb: ParamTrajectory, ops) -> float:
    """Sup (over the finer rescaled s-grid) of the lumped-L2 distance
    between the damage curves of two levels."""
    ref = pa if pa.n_knots >= pb.n_knots else pb
    sig = ref.s / ref.s[-1]
    za, zb = (np.column_stack([np.interp(sig, p.s / p.s[-1], zn) for zn in
                               np.array([st.z for st in p.traj.states]).T])
              for p in (pa, pb))
    return float(np.sqrt(np.sum(ops.grid.lump * (za - zb) ** 2,
                                axis=1)).max())


def ed_balance_residual_bv(ptraj: ParamTrajectory,
                           regime: str) -> tuple[float, float]:
    """Energy-dissipation balance residual of a candidate limit curve
    with the regime's contact potential: |E(end) + integral M ds -
    E(0) - integral power|, on the jump branch at the knots
    ``ptraj.jumps()`` marks, reading magnitudes below STAB_TOL_FACTOR
    times the run's eps as vanished.  The run ``ptraj.traj`` supplies E
    (E_mu) and the power.  Returns (residual, contact_integral).
    Either may be +inf when an infinite branch is hit."""
    traj = ptraj.traj
    jumps, stab_tol = ptraj.jumps(), STAB_TOL_FACTOR * traj.ep.eps
    contact = 0.0
    power = 0.0
    for k in range(1, ptraj.n_knots):
        ds = ptraj.s[k] - ptraj.s[k - 1]
        m = contact_potential(regime, float(ptraj.t_rate[k]), ptraj.norms(k),
                              traj.dual_diag[k], traj.ep, stab_tol=stab_tol,
                              jump=bool(jumps[k]))
        contact += ds * m
        power += traj.power[k]
    if not np.isfinite(contact):
        return float("inf"), float(contact)
    resid = abs(traj.E_mu[-1] + contact - traj.E_mu[0] - power)
    return float(resid), float(contact)


def ladder_levels(regime: str, ladder) -> list[tuple[float, float, float]]:
    """The ladder as float (eps, nu, mu) levels.  Raises ValueError on an
    unknown regime or a ladder that breaks the regime's constraints (the
    ``REGIMES`` entry's): each vanishing parameter above 0 at every level
    (the error names it), and its positive parameter above 0; a vanishing
    eps or mu strictly decreasing, a fixed parameter constant; nu <= mu
    where mu vanishes, else a vanishing nu a fixed multiple of eps."""
    reg = regime_entry(regime)
    levels = [tuple(float(x) for x in lvl) for lvl in ladder]
    col = dict(zip(("eps", "nu", "mu"),
                   ([lvl[i] for lvl in levels] for i in range(3))))
    eps, nus, mus = col.values()
    for name in reg.vanishing:
        if any(x <= 0 for x in col[name]):
            raise ValueError(f"regime {regime!r} needs {name} > 0")
    ok = all(x > 0 for x in col.get(reg.positive, ()))
    if "eps" in reg.vanishing:
        ok = ok and all(a > b for a, b in zip(eps, eps[1:])) and all(
            len(set(xs)) == 1 for p, xs in col.items()
            if p not in reg.vanishing)
    if "mu" in reg.vanishing:
        ok = ok and all(a > b for a, b in zip(mus, mus[1:])) \
            and all(n <= m + 1e-15 for n, m in zip(nus, mus))
    elif "nu" in reg.vanishing:
        ratios = [n / e for n, e in zip(nus, eps)]
        ok = ok and max(ratios) - min(ratios) < 1e-12
    if not ok:
        raise ValueError(f"ladder violates the constraints of regime "
                         f"{regime!r}")
    return levels


def bv_sweep(ops: Operators, mat: MaterialParams, loading: LoadingSpec,
             init_state: State, regime: str, ladder, n_steps: int = 20,
             tol_stat: float = 1e-8) -> SweepReport:
    """Run viscous solves over the loading's horizon along a
    vanishing-parameter ladder (checked by ``ladder_levels``), reparam-
    eterize by the regime's arclength, and assemble the cross-level
    convergence evidence; each level's n_steps uniform steps are
    ``EnergyParams.uniform``'s, which checks n_steps."""
    ladder = ladder_levels(regime, ladder)

    levels = []
    for lvl in ladder:
        ep = EnergyParams.uniform(*lvl, loading.t_final, n_steps)
        traj = run_viscous(ops, mat, ep, loading, init_state.copy(),
                           n_steps=n_steps, tol_stat=tol_stat)
        if traj.aborted_at is not None:
            raise RuntimeError(f"viscous run failed at step "
                               f"{traj.aborted_at} for level {lvl}")
        ptraj = _build_ptraj(REGIMES[regime].arclength, traj)
        resid, contact = ed_balance_residual_bv(ptraj, regime)
        levels.append(LevelReport(
            params=lvl,
            max_stability_nonjump=max_stability_nonjump(ptraj, regime),
            jump_intervals=detect_jumps(ptraj),
            contact_integral=contact,
            ed_balance_residual=resid,
            total_length=float(ptraj.s[-1]),
            min_z=float(min(st.z.min() for st in traj.states)),
            ptraj=ptraj,
        ))

    dists = [_align_z_curves(a.ptraj, b.ptraj, ops)
             for a, b in zip(levels, levels[1:])]
    return SweepReport(regime=regime, levels=levels,
                       pairwise_sup_distance=dists)
