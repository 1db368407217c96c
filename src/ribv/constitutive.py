"""Constitutive laws and the driving energy.

Material model:

* damage-dependent isotropic elasticity C(z) xi = c(z) C0 xi,
      c(z) = delta_reg + min(z,1)^2,  C0 xi = 2 mu_L xi + lam_L tr(xi) I,
  with c'(z) = 2z and c''(z) = 2 on [0, 1), both 0 beyond; C0 is written
  once, as the component form ``MaterialParams.unit_stiffness`` (S0), and
  ``elastic_cells`` gives every cell stress and density from it,
* damage potential W(z) = w0 z^(-q_exp) with q_exp > 4 (a barrier at the
  fully broken state z = 0), W''(z) = q_exp (q_exp+1) w0 z^(-q_exp-2),
* damage-dependent yield radius V(z) = sigma_y (m_bar + (1-m_bar)
  clamp(z,0,1)) for the deviatoric constraint ball, with plastic
  dissipation density H(z, pi) = V(z) |pi|; V'(z) = c_k on [0, 1),
* unidirectional damage dissipation density kappa |zeta| for zeta <= 0.

The assembled energy is

    E_mu(t, q) = 1/2 sum_c w_c C(z_c) e_c : e_c + sum_i m_i W(z_i)
                 + mu/2 sum_c w_c |p_c|^2 + 1/2 z A z - F(t).(u + w(t))

with e = B(u + w(t)) - p and z_c the Q1 cell-center value (corner mean).
Only the elastic term and the work depend on t (``loaded_energy``).
``damage_cells`` evaluates c, c', c'', V and V' per cell in one pass, and
``DamageLaws`` holds every law at one z (W, W', A_m z and the cell laws).
The energy and its gradients are read from these records
(``loaded_energy``, ``energy_from``, ``displacement_gradient``,
``state_gradients``); ``energy`` and ``energy_gradients`` form the
records of a bare state and read them the same way.
Gradients are returned as the representers used throughout the solver:
Euclidean covector for u on free dofs, lumped-L2 density for z, cellwise
density for p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from .discretization import (
    FROB_W,
    Grid,
    LoadingSpec,
    State,
    SymGradient,
    assemble_nonlocal_form,
    assemble_sym_gradient,
    eval_loading,
    tensor_dev,
    tensor_dot,
    total_strain,
)


# q0 = 1/2 s0 . e as one matvec: a short-axis sum costs several times more
_HALF = np.full(3, 0.5)


@dataclass(frozen=True)
class MaterialParams:
    """Material constants. Validated at construction.  The defaults are
    the reference problem's material (``problems``)."""

    lame_lambda: float = 1.0
    lame_mu: float = 1.0
    delta_reg: float = 0.05
    sigma_y: float = 0.85
    m_bar: float = 0.8
    kappa: float = 0.03
    w0: float = 0.034
    q_exp: float = 5.0
    m_order: float = 1.5

    def __post_init__(self):
        if self.lame_mu <= 0 or self.lame_lambda <= 0:
            raise ValueError("Lame constants must be positive")
        if not (0.0 < self.delta_reg < 1.0):
            raise ValueError("delta_reg must lie in (0, 1)")
        if self.sigma_y <= 0:
            raise ValueError("sigma_y must be positive")
        if not (0.0 < self.m_bar < 1.0):
            raise ValueError("m_bar must lie in (0, 1)")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.w0 <= 0:
            raise ValueError("w0 must be positive")
        if self.q_exp <= 4.0:
            raise ValueError("q_exp must exceed 4 (2n for n = 2)")
        if self.m_order <= 1.0:
            raise ValueError("m_order must exceed 1")

    @property
    def c_k(self) -> float:
        """Lipschitz constant of z -> V(z)."""
        return self.sigma_y * (1.0 - self.m_bar)

    @cached_property
    def unit_stiffness(self) -> np.ndarray:
        """The undamaged tensor C0 xi = 2 mu_L xi + lam_L tr(xi) I as a
        symmetric 3x3 form S0 on (xx, yy, xy) components, Frobenius
        weighted: xi S0 = FROB_W * C0 xi, so (xi S0) . eta = C0 xi : eta."""
        lam, mu = self.lame_lambda, self.lame_mu
        return np.array([[2.0 * mu + lam, lam, 0.0],
                         [lam, 2.0 * mu + lam, 0.0],
                         [0.0, 0.0, 4.0 * mu]])


@dataclass(frozen=True)
class EnergyParams:
    """Regularization parameters and time grid data."""

    eps: float = 1e-2
    nu: float = 1e-2
    mu: float = 1e-2
    tau: float = 0.05
    t_final: float = 1.0

    def __post_init__(self):
        if self.eps < 0 or self.nu < 0 or self.mu < 0:
            raise ValueError("regularization parameters must be nonnegative")
        if self.tau <= 0:
            raise ValueError("time step must be positive")


# ---------------------------------------------------------------------------
# pointwise laws
# ---------------------------------------------------------------------------

def stiffness(z, mat: MaterialParams):
    """Stiffness factor c(z) = delta_reg + min(z,1)^2 of C(z) = c(z) C0."""
    z = np.asarray(z, dtype=float)
    return mat.delta_reg + np.minimum(z, 1.0) ** 2


def elastic_cells(e: np.ndarray, mat: MaterialParams):
    """The cell kernel of the elastic law at unit stiffness: for a (..., 3)
    strain array, the Frobenius-weighted stress s0 = e S0 and the density
    q0 = 1/2 s0 . e = 1/2 C0 e : e.  C(z) scales both by c(z)."""
    s0 = e @ mat.unit_stiffness
    return s0, (s0 * e) @ _HALF


def deviatoric_modulus(c, mat: MaterialParams):
    """Modulus 2 mu_L c of C(z) on trace-free tensors, c = c(z)."""
    return 2.0 * mat.lame_mu * c


def damage_potential(z, mat: MaterialParams):
    """Return (W(z), W'(z)) for the barrier potential w0 z^(-q) at z > 0."""
    z = np.asarray(z, dtype=float)
    W = mat.w0 * z ** (-mat.q_exp)
    Wp = -mat.q_exp * mat.w0 * z ** (-mat.q_exp - 1.0)
    return W, Wp


def damage_curvature(z, mat: MaterialParams):
    """W''(z) of the barrier potential at z > 0."""
    return mat.q_exp * (mat.q_exp + 1.0) * mat.w0 * z ** (-mat.q_exp - 2.0)


def yield_radius(z, mat: MaterialParams):
    """Damage-dependent radius of the admissible deviatoric stress ball."""
    z = np.minimum(np.maximum(z, 0.0), 1.0)
    return mat.sigma_y * (mat.m_bar + (1.0 - mat.m_bar) * z)


def damage_cells(zc: np.ndarray, mat: MaterialParams):
    """The cell kernel of the damage laws: (c, c', c'', V, V') at cell
    damage zc >= 0 in one pass, c = ``stiffness`` and V = ``yield_radius``;
    c' = 2 zc, c'' = 2 and V' = c_k below zc = 1, all three 0 above."""
    cpp = 2.0 * (zc < 1.0)
    return (stiffness(zc, mat), cpp * zc, cpp, yield_radius(zc, mat),
            (0.5 * mat.c_k) * cpp)


def cell_damage(grid: Grid, z: np.ndarray) -> np.ndarray:
    """Q1 interpolation of nodal damage at cell centers (corner mean)."""
    return z[grid.cells].sum(axis=1) * 0.25


def corner_scatter(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Adjoint of ``cell_damage``: each cell value spread by 1/4 onto its
    four corners."""
    return np.bincount(grid.cells.ravel(), np.repeat(0.25 * v, 4),
                       minlength=grid.n_nodes)


def add_corner_form(grid: Grid, H: np.ndarray, v: np.ndarray) -> None:
    """Add sum_c v_c a_c a_c^T to H in place, a_c = 1/4 at the corners of
    cell c: the Hessian of z -> sum_c f_c(z_c) for v_c = f_c''(z_c)."""
    np.add.at(H, (grid.cells[:, :, None], grid.cells[:, None, :]),
              (v / 16.0)[:, None, None])


# ---------------------------------------------------------------------------
# assembled operators shared across evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Operators:
    """Assembled discrete operators reused by every energy evaluation.

    The viscosity matrix K_D, 1/2 u K_D u = 1/2 sum_c w_c |(B u)_c|^2, is
    held as its lower band ``B.form(K_D_cells)`` together with its band
    Cholesky factor in the same storage; products and dual norms go
    through BLAS/LAPACK band kernels.  ``K_D`` expands the band into a
    dense matrix for reference checks.
    """

    grid: Grid
    B: SymGradient         # element-local symmetrized gradient
    A_m: np.ndarray        # (n_nodes, n_nodes)
    K_D_cells: np.ndarray  # (n_cells, 3, 3) forms w_c diag(1, 1, 2)
    K_D_band: np.ndarray   # (kd + 1, n_free) lower band of K_D, Fortran order
    K_D_chol: np.ndarray   # (kd + 1, n_free) lower band Cholesky factor

    @classmethod
    def build(cls, grid: Grid, mat: MaterialParams) -> "Operators":
        B = assemble_sym_gradient(grid)
        A_m = assemble_nonlocal_form(grid, mat.m_order)
        cells = grid.w_cell[:, None, None] * np.diag(FROB_W)
        band = B.form(cells)
        chol, info = lapack.dpbtrf(band, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrf failed with info={info}")
        return cls(grid, B, A_m, cells, band, chol)

    @property
    def K_D(self) -> np.ndarray:
        """Dense (n_free, n_free) K_D, expanded from the band."""
        n = self.B.n_free
        K = np.zeros((n, n))
        for d, diag in enumerate(self.K_D_band):
            K[np.arange(d, n), np.arange(n - d)] = diag[:n - d]
        return K + np.tril(K, -1).T

    def apply_K_D(self, v: np.ndarray) -> np.ndarray:
        """K_D v for a vector on the free dofs."""
        return blas.dsbmv(self.B.kd, 1.0, self.K_D_band, v, lower=1)

    def apply_A_m(self, z: np.ndarray) -> np.ndarray:
        """A_m z, applied to z - z[0]: A_m annihilates constants, and the
        shift makes that exact in floating point."""
        return self.A_m @ (z - z[0])

    def dual_solve(self, g: np.ndarray) -> np.ndarray:
        """y = L^-1 g for the band Cholesky factor K_D = L L^T of a
        covector g on the free dofs: linear in g, with |y| its dual norm."""
        # the raw LAPACK call: scipy.linalg.solve_banded costs ~30x more
        # per call on the small systems the solver loops over
        y, info = lapack.dtbtrs(self.K_D_chol, g, uplo="L")
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs failed with info={info}")
        return y

    def dual_norm(self, g: np.ndarray) -> float:
        """Dual norm sqrt(g K_D^-1 g) = |dual_solve(g)| of a covector."""
        y = self.dual_solve(g)
        return float(np.sqrt(y @ y))


class DamageLaws(NamedTuple):
    """Every damage law at one nodal z: the barrier W, W' and A_m z at the
    nodes and ``damage_cells`` at the cell damage.  A tuple, since the z
    solve makes one per trial."""

    W: np.ndarray
    Wp: np.ndarray
    Az: np.ndarray
    c: np.ndarray
    cp: np.ndarray
    cpp: np.ndarray
    V: np.ndarray
    Vp: np.ndarray

    @classmethod
    def at(cls, z: np.ndarray, ops: Operators,
           mat: MaterialParams) -> "DamageLaws":
        """The laws at z: one damage_potential, A_m product and
        damage_cells."""
        return cls(*damage_potential(z, mat), ops.apply_A_m(z),
                   *damage_cells(cell_damage(ops.grid, z), mat))


# ---------------------------------------------------------------------------
# energy and derivatives
# ---------------------------------------------------------------------------

def strain_at(t: float, state: State, ops: Operators, loading: LoadingSpec):
    """The loading (w, F) at t and the strain e = B(u + w) - p of state."""
    w, F = eval_loading(loading, t)
    return w, F, total_strain(ops.B, state, w)


def loaded_energy(w: np.ndarray, F: np.ndarray, u: np.ndarray,
                  q0: np.ndarray, laws: DamageLaws, ops: Operators) -> float:
    """The part of the energy that depends on t: the elastic energy less
    the work F(t).(u + w(t)), from the loading (w, F) at t, the density q0
    of ``elastic_cells`` at the strain and the ``DamageLaws`` at z."""
    quad = (ops.grid.w_cell * laws.c * q0).sum()
    return quad - F @ (u + w).ravel()


def energy_from(loaded: float, state: State, laws: DamageLaws,
                ops: Operators, mu: float) -> float:
    """E_mu from its ``loaded_energy`` part and the ``DamageLaws`` at
    state.z."""
    grid = ops.grid
    dam = (grid.lump * laws.W).sum()
    hard = 0.5 * mu * (grid.w_cell * tensor_dot(state.p, state.p)).sum()
    nonloc = 0.5 * state.z @ laws.Az
    return loaded + dam + hard + nonloc


def energy(t: float, state: State, ops: Operators, mat: MaterialParams,
           mu: float, loading: LoadingSpec) -> float:
    """E_mu(t, state), its records formed from the bare state."""
    w, F, e = strain_at(t, state, ops, loading)
    laws = DamageLaws.at(state.z, ops, mat)
    loaded = loaded_energy(w, F, state.u, elastic_cells(e, mat)[1], laws, ops)
    return energy_from(loaded, state, laws, ops, mu)


def displacement_gradient(s0: np.ndarray, c: np.ndarray, F: np.ndarray,
                          ops: Operators) -> np.ndarray:
    """g_u = B^T (w_c c_c s0_c) - F on the free dofs at cell stiffness c,
    s0 the weighted stress of ``elastic_cells`` at the strain."""
    wc = ops.grid.w_cell * c
    return (ops.B.adjoint(wc[:, None] * s0) - F)[ops.grid.free_dofs]


def state_gradients(e: np.ndarray, q0: np.ndarray, laws: DamageLaws,
                    p: np.ndarray, ops: Operators, mat: MaterialParams,
                    mu: float):
    """(g_z, g_p) at the strain e, its density q0 (``elastic_cells``) and
    the ``DamageLaws`` at z: g_z the nodal density against the lumped
    weights m_i, g_p the cellwise density against the cell weights w_c
    (with the Frobenius pairing), g_p = mu p - sigma_D."""
    grid = ops.grid
    # z: nonlocal + barrier + c'(z) q0 scattered to corner nodes.
    g_z = (laws.Az + corner_scatter(grid, grid.w_cell * laws.cp * q0)) \
        / grid.lump + laws.Wp
    # p: mu p - sigma_D, sigma_D = 2 mu_L c dev e.
    g_p = mu * p - deviatoric_modulus(laws.c, mat)[:, None] * tensor_dev(e)
    return g_z, g_p


def energy_gradients(t: float, state: State, ops: Operators,
                     mat: MaterialParams, mu: float, loading: LoadingSpec):
    """Partial gradients (g_u, g_z, g_p) of the energy at a bare state:
    g_u the Euclidean covector on the free displacement dofs
    (``displacement_gradient``), g_z and g_p as in ``state_gradients``."""
    _, F, e = strain_at(t, state, ops, loading)
    laws = DamageLaws.at(state.z, ops, mat)
    s0, q0 = elastic_cells(e, mat)
    return (displacement_gradient(s0, laws.c, F, ops),
            *state_gradients(e, q0, laws, state.p, ops, mat, mu))
