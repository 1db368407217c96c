"""Dissipation potentials, the per-step rate record, conjugates,
distance functionals, and the plastic proximal map.

Every rate norm a diagnostic reads is a field of one ``RateNorms``
record per step, scaled rather than re-formed by positive homogeneity.

All distance-type quantities come out in closed form because the
discrete inner products are lumped: the subdifferential of the damage
dissipation at zero rate is the nodewise half-space {chi >= -kappa}, the
stable set of the plastic dissipation is the cellwise ball of radius
V(z), and both distances reduce to weighted norms of constraint
violations.

Infinite values are ordinary float('inf') returns, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import (
    DamageLaws,
    MaterialParams,
    Operators,
    cell_damage,
    energy_gradients,
    yield_radius,
)
from .discretization import (
    FROB_W,
    Grid,
    State,
    tensor_dev,
    tensor_dot,
    tensor_norm,
    tensor_trace,
)


@dataclass
class Rate:
    """State rate triple (per unit time).  z_rate must be nonpositive
    whenever the rate is admissible for the unidirectional damage
    dissipation; p_rate is trace-free cellwise."""

    u_rate: np.ndarray   # (n_nodes, 2), zero on Dirichlet nodes
    z_rate: np.ndarray   # (n_nodes,)
    p_rate: np.ndarray   # (n_cells, 3)

    @classmethod
    def between(cls, prev: State, state: State, tau: float) -> "Rate":
        """Backward-difference rate (state - prev) / tau."""
        return cls(u_rate=(state.u - prev.u) / tau,
                   z_rate=(state.z - prev.z) / tau,
                   p_rate=(state.p - prev.p) / tau)


# the deviatoric projection as a 3x3 matrix: tensor_dev(xi) = xi @ _DEV.T
_DEV = tensor_dev(np.eye(3))


@dataclass
class DualDiagnostics:
    """Dual stability magnitudes of a state at a time instant.

    dual_u      -- dual norm of the displacement residual (ops.dual_norm)
    dist_z      -- lumped-L2 distance of -g_z to the half-spaces {>= -kappa}
    dist_p      -- weighted distance of -g_p to the cellwise yield balls
    d_nu_star   -- sqrt(dual_u^2/nu + dist_z^2 + dist_p^2/nu)
    d_star_mu   -- sqrt(dual_u^2 + dist_p^2)
    d_star0     -- d_star_mu with the hardening term mu p dropped from
                   g_p, so that sigma_D itself is tested
    """

    dual_u: float
    dist_z: float
    dist_p: float
    d_nu_star: float
    d_star_mu: float
    d_star0: float


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _h1_parts(ops: Operators, u_field: np.ndarray):
    """Squared lumped L2 and K_D parts of the H1 norm of a nodal field
    vanishing on the Dirichlet nodes (so the free dofs carry K_D)."""
    grid = ops.grid
    v = u_field.ravel()[grid.free_dofs]
    return ((grid.lump * (u_field ** 2).sum(axis=1)).sum(),
            max(v @ ops.apply_K_D(v), 0.0))


def norm_u_h1(ops: Operators, u_field: np.ndarray) -> float:
    """Full H1 norm: lumped L2 part plus the strain seminorm."""
    l2sq, kdsq = _h1_parts(ops, u_field)
    return float(np.sqrt(l2sq + kdsq))


def norm_p_l2(grid: Grid, p_field: np.ndarray) -> float:
    return float(np.sqrt((grid.w_cell * tensor_dot(p_field, p_field)).sum()))


def norm_p_l1(grid: Grid, p_field: np.ndarray) -> float:
    return float((grid.w_cell * tensor_norm(p_field)).sum())


@dataclass(frozen=True)
class RateNorms:
    """Every positively homogeneous quantity of a rate that a diagnostic
    reads, formed by ``of`` from one K_D and one A_m product;
    ``RateNorms()`` is the zero rate."""

    u_h1: float = 0.0     # sqrt(||u'||_L2^2 + ||u'||_KD^2), lumped L2
    u_kd: float = 0.0     # ||u'||_KD, the viscous seminorm
    z_m: float = 0.0      # ||z'||_M, lumped L2
    z_hm: float = 0.0     # sqrt(||z'||_M^2 + z' A_m z')
    z_max: float = 0.0    # max z', for the positivity test
    r_z: float = 0.0      # R(z') = kappa ||z'||_L1, lumped
    h_p: float = 0.0      # H(z, p') = sum_c w_c V(z_c) |p'_c|, new state
    p_l1: float = 0.0
    p_l2: float = 0.0
    e_l2: float = 0.0     # ||e'||_L2 of the elastic strain rate

    @classmethod
    def of(cls, ops: Operators, rate: Rate, V: np.ndarray, kappa: float,
           e_rate: np.ndarray) -> "RateNorms":
        """The record of a rate, with R from the damage dissipation
        coefficient kappa, H from the cell yield radii V at the new
        state's z, and ||e'|| from the elastic strain rate e_rate."""
        grid = ops.grid
        z = rate.z_rate
        l2sq, kdsq = _h1_parts(ops, rate.u_rate)
        msq = (grid.lump * z ** 2).sum()
        p_abs = tensor_norm(rate.p_rate)
        return cls(
            u_h1=float(np.sqrt(l2sq + kdsq)),
            u_kd=float(np.sqrt(kdsq)),
            z_m=float(np.sqrt(msq)),
            z_hm=float(np.sqrt(msq + max(z @ ops.apply_A_m(z), 0.0))),
            z_max=float(z.max()),
            r_z=float((grid.lump * kappa * np.abs(z)).sum()),
            h_p=float((grid.w_cell * V * p_abs).sum()),
            p_l1=float((grid.w_cell * p_abs).sum()),
            p_l2=norm_p_l2(grid, rate.p_rate),
            e_l2=norm_p_l2(grid, e_rate))

    def scaled(self, f: float) -> "RateNorms":
        """The record of f times the rate, f > 0."""
        return RateNorms(*(f * x for x in vars(self).values()))

    def d_nu_sq(self, nu: float) -> float:
        """nu ||u'||_KD^2 + ||z'||_M^2 + nu ||p'||_L2^2."""
        return nu * self.u_kd ** 2 + self.z_m ** 2 + nu * self.p_l2 ** 2

    def d_nu(self, nu: float) -> float:
        """Primal rate functional D_nu, the root of ``d_nu_sq``."""
        return float(np.sqrt(self.d_nu_sq(nu)))

    def norm_up(self) -> float:
        """sqrt(||u'||_H1^2 + ||p'||_L2^2), the hardening-free jump norm."""
        return float(np.hypot(self.u_h1, self.p_l2))

    def psi(self, eps: float, nu: float, tol_pos: float = 0.0) -> float:
        """Dissipation potential R(z') + H(z, p') + eps/2 ``d_nu_sq``, +inf
        when some z' component exceeds tol_pos."""
        if self.z_max > tol_pos:
            return float("inf")
        return float(self.r_z + self.h_p + 0.5 * eps * self.d_nu_sq(nu))


# ---------------------------------------------------------------------------
# dissipation potential and conjugates
# ---------------------------------------------------------------------------

def psi_total(state: State, rate: Rate, ops: Operators, mat: MaterialParams,
              eps: float, nu: float, tol_pos: float = 0.0) -> float:
    """Dissipation potential ``RateNorms.psi`` of a rate at state, from
    the state's yield radii and a zero strain rate, which Psi ignores."""
    V = yield_radius(cell_damage(ops.grid, state.z), mat)
    return RateNorms.of(ops, rate, V, mat.kappa,
                        np.zeros_like(rate.p_rate)).psi(eps, nu, tol_pos)


def conj_visc_u(ops: Operators, eta: np.ndarray, eps: float, nu: float) -> float:
    """Conjugate of the viscous displacement potential: for eps*nu > 0 the
    value is eta K_D^-1 eta / (2 eps nu); for eps*nu = 0 it is +inf
    unless eta vanishes."""
    eta = np.asarray(eta, dtype=float)
    if eps * nu <= 0.0:
        return 0.0 if (eta == 0.0).all() else float("inf")
    return ops.dual_norm(eta) ** 2 / (2.0 * eps * nu)


def dist_r(grid: Grid, chi: np.ndarray, kappa: float) -> float:
    """Lumped-L2 distance of the nodal field chi to the stable set
    {gamma >= -kappa} of the damage dissipation at zero rate."""
    viol = np.maximum(-kappa - chi, 0.0)
    return float(np.sqrt((grid.lump * viol ** 2).sum()))


def dist_ball(grid: Grid, omega: np.ndarray, radii: np.ndarray) -> float:
    """Weighted L2 distance of the cellwise deviatoric field omega (trace
    at most 1e-10) to the pointwise balls of the given cell radii."""
    omega = np.asarray(omega, dtype=float)
    if np.abs(tensor_trace(omega)).max(initial=0.0) > 1e-10:
        raise ValueError("omega must be trace-free")
    viol = np.maximum(tensor_norm(omega) - radii, 0.0)
    return float(np.sqrt((grid.w_cell * viol ** 2).sum()))


def dist_h(grid: Grid, z: np.ndarray, omega: np.ndarray,
           mat: MaterialParams) -> float:
    """``dist_ball`` of omega to the yield balls, of radius V(z_c)."""
    return dist_ball(grid, omega, yield_radius(cell_damage(grid, z), mat))


def flow_directions(direction: np.ndarray):
    """Mask of the cells where a cellwise direction moves (norm above
    1e-14), and its unit direction on them."""
    dn = tensor_norm(direction)
    moving = dn > 1e-14
    return moving, direction[moving] / dn[moving, None]


def subdiff_violation(xi: np.ndarray, direction: np.ndarray,
                      R: np.ndarray) -> np.ndarray:
    """Per-cell distance of xi to the subdifferential of R_c |.| at
    direction_c: the ball of radius R_c where the direction vanishes, the
    point R_c direction_c / |direction_c| elsewhere."""
    moving, dirs = flow_directions(direction)
    viol = np.maximum(tensor_norm(xi) - R, 0.0)
    viol[moving] = tensor_norm(xi[moving] - R[moving][:, None] * dirs)
    return viol


# ---------------------------------------------------------------------------
# dual diagnostics
# ---------------------------------------------------------------------------

def dual_diagnostics(t: float, state: State, ops: Operators,
                     mat: MaterialParams, mu: float, nu: float,
                     loading) -> DualDiagnostics:
    """Evaluate every dual stability magnitude of a state at time t, the
    yield radii read from the ``DamageLaws`` its gradients are formed
    from."""
    laws = DamageLaws.at(state.z, ops, mat)
    grads = energy_gradients(t, state, ops, mat, mu, loading, laws)
    return diagnostics_from_gradients(grads, state, laws.V, ops, mat, mu,
                                      nu)


def diagnostics_from_gradients(grads: tuple, state: State, V: np.ndarray,
                               ops: Operators, mat: MaterialParams,
                               mu: float, nu: float) -> DualDiagnostics:
    """``dual_diagnostics`` from the energy's partial gradients and the
    yield radii V of state.z."""
    g_u, g_z, g_p = grads
    dual_u = ops.dual_norm(g_u)
    dz = dist_r(ops.grid, -g_z, mat.kappa)
    dp = dist_ball(ops.grid, -g_p, V)
    # hardening-free surrogate: test sigma_D itself
    dp0 = dist_ball(ops.grid, -(g_p - mu * state.p), V)
    if nu > 0:
        dnustar = float(np.sqrt(dual_u ** 2 / nu + dz ** 2 + dp ** 2 / nu))
    else:
        dnustar = float("inf") if (dual_u > 0 or dp > 0) else dz
    return DualDiagnostics(
        dual_u=dual_u,
        dist_z=dz,
        dist_p=dp,
        d_nu_star=dnustar,
        d_star_mu=float(np.hypot(dual_u, dp)),
        d_star0=float(np.hypot(dual_u, dp0)),
    )


def d_nu(ops: Operators, rate: Rate, nu: float) -> float:
    """Primal rate functional ``RateNorms.d_nu`` of a rate, from zero
    radii, kappa 0 and a zero strain rate, none of which D_nu reads."""
    zero = np.zeros_like(rate.p_rate)
    return RateNorms.of(ops, rate, zero[:, 0], 0.0, zero).d_nu(nu)


# ---------------------------------------------------------------------------
# plastic proximal map
# ---------------------------------------------------------------------------

def prox_map(p_prev, a, b, mu_w, c_q):
    """``prox_plastic`` at fixed p_prev and coefficients, with the algebra
    its derivative reuses, as a map of e_bar_dev.  The coefficients are
    checked, and M = b + mu_w + c_q (per cell) and b p_prev formed, once;
    the map returns the prox, the shift d = (b p_prev + c_q e_bar_dev) / M
    - p_prev of the unconstrained minimizer from p_prev, |d|, the shrink
    a/(M |d|) (below 1 where the cell yields) and M."""
    a, b, c_q = map(np.asarray, (a, b, c_q))
    modulus = b + mu_w + c_q + np.zeros(np.shape(p_prev)[:-1])
    if (modulus <= 0).any():
        raise ValueError("quadratic modulus must be positive")
    if (a < 0).any():
        raise ValueError("shrinkage threshold must be nonnegative")
    b_p = b[..., None] * p_prev

    def shift(e_bar_dev):
        d = (b_p + c_q[..., None] * e_bar_dev) / modulus[..., None] - p_prev
        dn = tensor_norm(d)
        shrink = np.divide(a, modulus * dn, out=np.full(dn.shape, np.inf),
                           where=dn > 0.0)
        p = p_prev + np.maximum(1.0 - shrink, 0.0)[..., None] * d
        return p, d, dn, shrink, modulus
    return shift


def prox_plastic(p_prev: np.ndarray, e_bar_dev: np.ndarray, a, b, mu_w, c_q):
    """Exact minimizer over trace-free pi of

        a |pi - p_prev| + b/2 |pi - p_prev|^2 + mu_w/2 |pi|^2
        + c_q/2 |e_bar_dev - pi|^2.

    Accepts broadcast scalar or per-cell coefficients; returns an array of
    the same shape as p_prev.  The quadratic modulus b + mu_w + c_q must
    be positive."""
    return prox_map(p_prev, a, b, mu_w, c_q)(e_bar_dev)[0]


def prox_tangent(shift, c_q) -> np.ndarray:
    """Jacobian (..., 3, 3) of e_bar -> prox_plastic(p_prev,
    tensor_dev(e_bar), a, b, mu_w, c_q), from the ``prox_map`` shift of
    its point: the consistent tangent of the return map (Simo & Taylor,
    Comput. Methods Appl. Mech. Engrg. 48 (1985) 101).  It vanishes where
    the cell sticks and is c_q/M ((1 - s) P + s n n^T G) where it yields,
    n = d/|d|, s the shrink, P the deviatoric projection and G =
    diag(FROB_W); n is trace-free, so n n^T G P = n n^T G.  One formula
    serves every cell: the shrink is clipped at 1 and the ratio c_q/M
    zeroed where the cell sticks, and n is 0 where d is."""
    _, d, dn, shrink, modulus = shift
    n = np.divide(d, dn[..., None], out=np.zeros_like(d),
                  where=dn[..., None] > 0.0)
    outer = n[..., :, None] * (n * FROB_W)[..., None, :]
    sh = np.minimum(shrink, 1.0)[..., None, None]
    ratio = (c_q / modulus * (shrink < 1.0))[..., None, None]
    return ratio * ((1.0 - sh) * _DEV + sh * outer)
