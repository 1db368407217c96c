"""Constitutive laws and the driving energy.

Material model:

* damage-dependent isotropic elasticity C(z) xi = c(z) C0 xi,
      c(z) = delta_reg + z^2,  C0 xi = 2 mu_L xi + lam_L tr(xi) I,
  with c'(z) = 2z and c''(z) = 2; C0 is written once, as the component
  form ``MaterialParams.unit_stiffness`` (S0), and ``elastic_cells``
  gives every cell stress and density from it,
* damage potential W(z) = w0 z^(-q_exp) with q_exp > 4 (a barrier at the
  fully broken state z = 0), W''(z) = q_exp (q_exp+1) w0 z^(-q_exp-2),
* damage-dependent yield radius V(z) = sigma_y (m_bar + (1-m_bar) z)
  for the deviatoric constraint ball, with plastic dissipation density
  H(z, pi) = V(z) |pi|; V'(z) = c_k,
* unidirectional damage dissipation density kappa |zeta| for zeta <= 0:
  z starts in [Z_FLOOR, 1] (``State.validate``) and stays; the laws hold there.

The assembled energy is

    E_mu(t, q) = 1/2 sum_c w_c C(z_c) e_c : e_c + sum_i m_i W(z_i)
                 + mu/2 sum_c w_c |p_c|^2 + 1/2 z A z - F(t).(u + w(t))

with e = B(u + w(t)) - p and z_c the Q1 cell-center value (corner mean).
Only the elastic term and the work depend on t (``loaded_energy``).
``damage_cells`` evaluates c, c' and V per cell in one pass, and
``DamageLaws`` holds every law at one z (W, W', A_m z and the cell laws).
``Operators`` holds A_m as ``nonlocal_form`` picks it, a ``DenseForm`` on
small grids and a ``ToeplitzForm`` on large ones; the energy reads it
through ``Operators.apply_A_m`` and the z-step Hessian its free slice.
The energy and its gradients are read from these records
(``loaded_energy``, ``energy_from``, ``displacement_gradient``,
``state_gradients``); ``energy`` and ``energy_gradients`` form the
records of a bare state and read them the same way.
Gradients are returned as the representers used throughout the solver:
Euclidean covector for u on free dofs, lumped-L2 density for z, cellwise
density for p.  No other module reads a constant of these laws, and
only ``MaterialParams`` and ``deviatoric_modulus`` read the Lame ones.
The band and dense kernels (``lapack``, ``blas``; ``solver`` takes
``lapack`` from here) are scipy's compiled LAPACK and BLAS modules,
loaded from their files without the scipy.linalg package: its import
cost every process 23 MB of peak RSS and about 0.19 s.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy

from .discretization import (
    FROB_W,
    Grid,
    DenseForm,
    LoadingSpec,
    State,
    SymGradient,
    ToeplitzForm,
    assemble_sym_gradient,
    eval_loading,
    nonlocal_form,
    tensor_dev,
    tensor_dot,
    total_strain,
)


def _scipy_linalg_extension(name: str):
    """scipy.linalg's compiled module ``name``, loaded from its file
    without running the scipy.linalg package; kept in ``sys.modules``
    under its own name, so a process loads it once, with or without the
    package.  A missing file raises ``ImportError`` naming its path."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    stem = os.path.join(scipy.__path__[0], "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            spec = importlib.util.spec_from_file_location(full, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
            return module
    raise ImportError(f"no compiled module at {stem} with a suffix in "
                      f"{importlib.machinery.EXTENSION_SUFFIXES}",
                      name=full, path=stem)


# the five band and dense kernels: dpbtrf, dtbtrs, dpbsv, dposv and dsbmv
lapack = _scipy_linalg_extension("_flapack")
blas = _scipy_linalg_extension("_fblas")

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
        # each check is written so that nan and inf fail it
        if not (0 < self.lame_mu < np.inf and 0 < self.lame_lambda < np.inf):
            raise ValueError("Lame constants must be positive")
        if not (0.0 < self.delta_reg < 1.0):
            raise ValueError("delta_reg must lie in (0, 1)")
        if not 0 < self.sigma_y < np.inf:
            raise ValueError("sigma_y must be positive")
        if not (0.0 < self.m_bar < 1.0):
            raise ValueError("m_bar must lie in (0, 1)")
        if not 0 < self.kappa < np.inf:
            raise ValueError("kappa must be positive")
        if not 0 < self.w0 < np.inf:
            raise ValueError("w0 must be positive")
        if not 4.0 < self.q_exp < np.inf:
            raise ValueError("q_exp must exceed 4 (2n for n = 2)")
        if not 1.0 < self.m_order < np.inf:
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
        if not all(0 <= x < np.inf for x in (self.eps, self.nu, self.mu)):
            raise ValueError("regularization parameters must be nonnegative")
        # the horizon first: a bad one makes a bad uniform step too
        if not 0 < self.t_final < np.inf:
            raise ValueError("final time must be positive")
        if not 0 < self.tau < np.inf:
            raise ValueError("time step must be positive")

    @classmethod
    def uniform(cls, eps, nu, mu, t_final, n_steps) -> "EnergyParams":
        """The parameters of n_steps uniform steps over [0, t_final],
        tau = t_final / n_steps; n_steps not an integer >= 1 raises."""
        if not isinstance(n_steps, (int, np.integer)):
            raise ValueError("n_steps must be an integer")
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        return cls(eps, nu, mu, t_final / n_steps, t_final)


# ---------------------------------------------------------------------------
# pointwise laws
# ---------------------------------------------------------------------------

def stiffness(z, mat: MaterialParams):
    """Stiffness factor c(z) = delta_reg + z^2 of C(z) = c(z) C0."""
    return mat.delta_reg + np.asarray(z, dtype=float) ** 2


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
    """Radius V(z) of the deviatoric stress ball, affine with slope c_k."""
    return mat.sigma_y * (mat.m_bar + (1.0 - mat.m_bar) * z)


def damage_cells(zc: np.ndarray, mat: MaterialParams):
    """The cell kernel of the damage laws: (c, c', V) at cell damage zc in
    (0, 1] in one pass, c = ``stiffness``, c' = 2 zc and V =
    ``yield_radius``; c'' = 2 and V' = c_k are constants."""
    return stiffness(zc, mat), 2.0 * zc, yield_radius(zc, mat)


def cell_damage(grid: Grid, z: np.ndarray) -> np.ndarray:
    """Q1 interpolation of nodal damage at cell centers (corner mean)."""
    return z[grid.cells].sum(axis=1) * 0.25


def corner_scatter(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Adjoint of ``cell_damage``: each cell value spread by 1/4 onto its
    four corners."""
    return np.bincount(grid.cells.ravel(), np.repeat(0.25 * v, 4),
                       minlength=grid.n_nodes)


def add_corner_form(grid: Grid, H: np.ndarray, v: np.ndarray,
                    idx: np.ndarray) -> None:
    """Add sum_c v_c a_c a_c^T on the nodes idx to H[:-1, :-1] in place,
    a_c = 1/4 at the corners of cell c: the Hessian of z -> sum_c
    f_c(z_c) for v_c = f_c''(z_c).  H is a form on idx and one spare node
    last, whose row and column take every term with a corner off idx.
    Each entry takes its cells' terms in cell order, as on all nodes."""
    pos = np.full(grid.n_nodes, len(idx))
    pos[idx] = np.arange(len(idx))
    at = pos[grid.cells]
    flat = len(H) * at[:, :, None] + at[:, None, :]
    np.add.at(H.reshape(-1), flat.ravel(), np.repeat(v / 16.0, 16))


# ---------------------------------------------------------------------------
# assembled operators shared across evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Operators:
    """Assembled discrete operators reused by every energy evaluation.

    The viscosity matrix K_D, 1/2 u K_D u = 1/2 sum_c w_c |(B u)_c|^2, is
    held as its lower band ``B.form(K_D_cells)`` together with its band
    Cholesky factor in the same storage; products and dual norms go
    through the BLAS/LAPACK band kernels ``dsbmv`` and ``dtbtrs``, loaded
    from scipy's compiled modules without the scipy.linalg package.
    ``K_D`` expands the band into a dense matrix for reference checks.
    The nonlocal form ``A_m`` is ``nonlocal_form``'s, by grid size.
    """

    grid: Grid
    B: SymGradient         # element-local symmetrized gradient
    A_m: DenseForm | ToeplitzForm  # the nonlocal form on the nodes
    K_D_cells: np.ndarray  # (n_cells, 3, 3) forms w_c diag(1, 1, 2)
    K_D_band: np.ndarray   # (kd + 1, n_free) lower band of K_D, Fortran order
    K_D_chol: np.ndarray   # (kd + 1, n_free) lower band Cholesky factor

    @classmethod
    def build(cls, grid: Grid, mat: MaterialParams) -> "Operators":
        B = assemble_sym_gradient(grid)
        A_m = nonlocal_form(grid, mat.m_order)
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
        """A_m z, applied to z - z[0]: exact zeros on constants."""
        return self.A_m.apply(z)

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
    """Every damage law at one nodal z in (0, 1]: the barrier W, W' and
    A_m z at the nodes and ``damage_cells`` at the cell damage.  A tuple,
    since the z solve makes one per trial."""

    W: np.ndarray
    Wp: np.ndarray
    Az: np.ndarray
    c: np.ndarray
    cp: np.ndarray
    V: np.ndarray

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


def displacement_gradient(s0: np.ndarray, wc: np.ndarray,
                          F_free: np.ndarray, ops: Operators) -> np.ndarray:
    """g_u = B^T (wc_c s0_c) - F on the free dofs: wc = w_c c_c, s0 the
    weighted stress of ``elastic_cells``, F_free the free part of F."""
    return ops.B.adjoint(wc[:, None] * s0)[ops.grid.free_dofs] - F_free


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
    grid = ops.grid
    return (displacement_gradient(s0, grid.w_cell * laws.c,
                                  F[grid.free_dofs], ops),
            *state_gradients(e, q0, laws, state.p, ops, mat, mu))
