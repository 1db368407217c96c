"""Spatial discretization for the coupled elasto-plastic damage solver.

Plane-strain setting on the unit square [0,1]^2 with a regular grid of
bilinear (Q1) cells.  Displacement and damage live at the nodes, the
plastic strain and the elastic strain live at one central quadrature
point per cell.  Symmetric 2x2 tensors are stored as component triples
(xx, yy, xy); the Frobenius pairing therefore carries weights (1, 1, 2).

The module provides:

* ``Grid`` -- nodes, cells, quadrature weights, Dirichlet mask,
* ``assemble_sym_gradient`` -- the cellwise symmetrized gradient B,
* ``assemble_nonlocal_form`` -- a Gagliardo-type nonlocal bilinear form
  for the damage field, built from finite-difference nodal gradients,
* ``LoadingSpec`` / ``eval_loading`` -- time-dependent Dirichlet data
  (with a fixed interior lift) and external nodal forces,
* ``total_strain`` -- e = B(u + w) - p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Frobenius weights for the (xx, yy, xy) component storage.
FROB_W = np.array([1.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# symmetric-tensor component helpers
# ---------------------------------------------------------------------------

def tensor_trace(xi: np.ndarray) -> np.ndarray:
    """Trace of a (..., 3) component array."""
    return xi[..., 0] + xi[..., 1]


def tensor_dev(xi: np.ndarray) -> np.ndarray:
    """Deviatoric part: subtract (tr/2) I, exact in 2d."""
    out = np.array(xi, dtype=float, copy=True)
    half_tr = 0.5 * tensor_trace(xi)
    out[..., 0] -= half_tr
    out[..., 1] -= half_tr
    return out


def tensor_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of (..., 3) component arrays."""
    return np.einsum("...i,...i->...", a * FROB_W, b)


def tensor_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a (..., 3) component array."""
    return np.sqrt(tensor_dot(a, a))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Regular Q1 grid on the unit square with one quadrature point per cell.

    ``dirichlet_mask`` marks constrained nodes (left edge by default);
    both displacement components are constrained there.  ``w_cell`` are
    the cell quadrature weights (h^2 each) and ``lump`` the lumped nodal
    weights (each cell spreads h^2/4 onto its four corners).
    """

    n_side: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)          # (n_nodes, 2)
    cells: np.ndarray = field(init=False)          # (n_cells, 4) corner ids
    w_cell: np.ndarray = field(init=False)         # (n_cells,)
    lump: np.ndarray = field(init=False)           # (n_nodes,)
    dirichlet_mask: np.ndarray = field(init=False)  # (n_nodes,) bool

    def __post_init__(self):
        n = self.n_side
        if n < 2:
            raise ValueError("need at least 2 nodes per side")
        h = 1.0 / (n - 1)
        xs = np.linspace(0.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        nodes = np.column_stack([X.ravel(), Y.ravel()])

        def nid(ix, iy):
            return iy * n + ix

        cells = []
        for iy in range(n - 1):
            for ix in range(n - 1):
                # counter-clockwise: SW, SE, NE, NW
                cells.append([nid(ix, iy), nid(ix + 1, iy),
                              nid(ix + 1, iy + 1), nid(ix, iy + 1)])
        cells = np.array(cells, dtype=int)
        w_cell = np.full(len(cells), h * h)

        lump = np.zeros(n * n)
        np.add.at(lump, cells.ravel(), h * h / 4.0)

        mask = np.zeros(n * n, dtype=bool)
        mask[nodes[:, 0] == 0.0] = True  # left edge

        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "w_cell", w_cell)
        object.__setattr__(self, "lump", lump)
        object.__setattr__(self, "dirichlet_mask", mask)

    @property
    def n_nodes(self) -> int:
        return self.n_side * self.n_side

    @property
    def n_cells(self) -> int:
        return (self.n_side - 1) ** 2

    @property
    def free_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.dirichlet_mask)

    @property
    def free_dofs(self) -> np.ndarray:
        """Flat displacement dof indices (node-major, x then y) not on the
        Dirichlet boundary."""
        fn = self.free_nodes
        return np.sort(np.concatenate([2 * fn, 2 * fn + 1]))


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class State:
    """Discrete state triple: nodal displacement correction u (zero on the
    Dirichlet nodes), nodal damage z in (0, 1], and cellwise trace-free
    plastic strain p."""

    u: np.ndarray   # (n_nodes, 2)
    z: np.ndarray   # (n_nodes,)
    p: np.ndarray   # (n_cells, 3), trace-free

    def copy(self) -> "State":
        return State(self.u.copy(), self.z.copy(), self.p.copy())

    def validate(self, grid: Grid, tol: float = 1e-10) -> None:
        if self.u.shape != (grid.n_nodes, 2):
            raise ValueError("u has wrong shape")
        if self.z.shape != (grid.n_nodes,):
            raise ValueError("z has wrong shape")
        if self.p.shape != (grid.n_cells, 3):
            raise ValueError("p has wrong shape")
        if np.any(np.abs(self.u[grid.dirichlet_mask]) > tol):
            raise ValueError("u must vanish on Dirichlet nodes")
        if np.any(self.z <= 0.0):
            raise ValueError("damage field must stay positive")
        if np.max(np.abs(tensor_trace(self.p)), initial=0.0) > tol:
            raise ValueError("plastic strain must be trace-free")


def initial_state(grid: Grid, z0: float = 1.0) -> State:
    return State(
        u=np.zeros((grid.n_nodes, 2)),
        z=np.full(grid.n_nodes, float(z0)),
        p=np.zeros((grid.n_cells, 3)),
    )


# ---------------------------------------------------------------------------
# symmetrized gradient
# ---------------------------------------------------------------------------

def assemble_sym_gradient(grid: Grid) -> np.ndarray:
    """Dense operator B of shape (n_cells, 3, 2*n_nodes).

    Row block c maps the flat nodal displacement vector (node-major,
    components interleaved) to the symmetrized gradient (xx, yy, xy) at
    the center of cell c.  Constant fields are annihilated exactly.
    """
    n_nodes = grid.n_nodes
    B = np.zeros((grid.n_cells, 3, 2 * n_nodes))
    h = grid.h
    # Q1 shape-function derivatives at the cell center, corner order
    # SW, SE, NE, NW.
    dndx = np.array([-1.0, 1.0, 1.0, -1.0]) / (2.0 * h)
    dndy = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * h)
    for c, corners in enumerate(grid.cells):
        for a, node in enumerate(corners):
            ux, uy = 2 * node, 2 * node + 1
            B[c, 0, ux] += dndx[a]                 # e_xx
            B[c, 1, uy] += dndy[a]                 # e_yy
            B[c, 2, ux] += 0.5 * dndy[a]           # e_xy
            B[c, 2, uy] += 0.5 * dndx[a]
    return B


def apply_sym_gradient(B: np.ndarray, field_uv: np.ndarray) -> np.ndarray:
    """Evaluate B on a (n_nodes, 2) field; returns (n_cells, 3)."""
    return B @ field_uv.ravel()


# ---------------------------------------------------------------------------
# nonlocal damage form
# ---------------------------------------------------------------------------

def _fd_gradient_matrices(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference nodal gradient reconstruction: two (n_nodes,
    n_nodes) matrices Gx, Gy.  Central differences in the interior,
    one-sided at the boundary."""
    n = grid.n_side
    h = grid.h
    N = grid.n_nodes
    Gx = np.zeros((N, N))
    Gy = np.zeros((N, N))

    def nid(ix, iy):
        return iy * n + ix

    for iy in range(n):
        for ix in range(n):
            i = nid(ix, iy)
            if 0 < ix < n - 1:
                Gx[i, nid(ix + 1, iy)] += 1.0 / (2 * h)
                Gx[i, nid(ix - 1, iy)] -= 1.0 / (2 * h)
            elif ix == 0:
                Gx[i, nid(1, iy)] += 1.0 / h
                Gx[i, i] -= 1.0 / h
            else:
                Gx[i, i] += 1.0 / h
                Gx[i, nid(n - 2, iy)] -= 1.0 / h
            if 0 < iy < n - 1:
                Gy[i, nid(ix, iy + 1)] += 1.0 / (2 * h)
                Gy[i, nid(ix, iy - 1)] -= 1.0 / (2 * h)
            elif iy == 0:
                Gy[i, nid(ix, 1)] += 1.0 / h
                Gy[i, i] -= 1.0 / h
            else:
                Gy[i, i] += 1.0 / h
                Gy[i, nid(ix, n - 2)] -= 1.0 / h
    return Gx, Gy


def assemble_nonlocal_form(grid: Grid, m_order: float = 1.5) -> np.ndarray:
    """Symmetric PSD matrix A such that z1 @ A @ z2 equals the double sum

        sum_{i != j} m_i m_j |g_i - g_j| . |g'_i - g'_j| / |x_i - x_j|^(2 m)

    over ordered node pairs, with g the finite-difference nodal gradient
    of z.  Requires m_order > 1 (n/2 in two dimensions); the singular
    diagonal i = j is excluded.  Constants are annihilated since their
    reconstructed gradient vanishes.
    """
    if m_order <= 1.0:
        raise ValueError("nonlocal order must exceed 1")
    x = grid.nodes
    diff = x[:, None, :] - x[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(dist2, 1.0)  # placeholder, zeroed below
    kernel = dist2 ** (-m_order)  # |x_i - x_j|^(-2 m)
    np.fill_diagonal(kernel, 0.0)
    W = np.outer(grid.lump, grid.lump) * kernel
    # Graph Laplacian of the pair weights: g L g' = 1/2 sum_{i!=j}
    # W_ij (g_i - g_j)(g'_i - g'_j); the ordered double sum is twice that.
    L = np.diag(W.sum(axis=1)) - W
    Gx, Gy = _fd_gradient_matrices(grid)
    A = 2.0 * (Gx.T @ L @ Gx + Gy.T @ L @ Gy)
    return 0.5 * (A + A.T)


def nonlocal_double_sum(grid: Grid, m_order: float,
                        z1: np.ndarray, z2: np.ndarray) -> float:
    """Direct O(N^2) evaluation of the nonlocal form, bypassing the
    assembled matrix.  Used as an independent cross-check."""
    Gx, Gy = _fd_gradient_matrices(grid)
    g1 = np.column_stack([Gx @ z1, Gy @ z1])
    g2 = np.column_stack([Gx @ z2, Gy @ z2])
    total = 0.0
    x = grid.nodes
    for i in range(grid.n_nodes):
        for j in range(grid.n_nodes):
            if i == j:
                continue
            r2 = np.sum((x[i] - x[j]) ** 2)
            k = r2 ** (-m_order)
            total += grid.lump[i] * grid.lump[j] * k * np.dot(
                g1[i] - g1[j], g2[i] - g2[j])
    return total


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadingSpec:
    """Time-dependent loading: Dirichlet data g_dir * theta(t) extended
    into the interior by a fixed lift, and a nodal force F(t) = f0 *
    phi(t) (already weighted by the lumped quadrature).

    ``g_dir`` holds nodal values that are only read on the Dirichlet
    nodes; the lift blends them linearly to zero at the opposite edge.
    ``theta_dot`` / ``phi_dot`` are the exact derivatives.
    """

    grid: Grid
    g_dir: np.ndarray                        # (n_nodes, 2)
    theta: Callable[[float], float]
    theta_dot: Callable[[float], float]
    f0: np.ndarray                           # (n_nodes, 2) force density
    phi: Callable[[float], float]
    phi_dot: Callable[[float], float]
    t_final: float
    lift: np.ndarray = field(init=False)     # (n_nodes, 2)
    f_vec: np.ndarray = field(init=False)    # (2*n_nodes,) covector

    def __post_init__(self):
        grid = self.grid
        n = grid.n_side
        # Each node inherits the value of the Dirichlet node in its row
        # (the left-edge node with the same y), scaled by (1 - x).
        gd = np.asarray(self.g_dir, dtype=float).reshape(grid.n_nodes, 2)
        lift = np.zeros_like(gd)
        for iy in range(n):
            edge = iy * n  # ix = 0
            for ix in range(n):
                i = iy * n + ix
                lift[i] = gd[edge] * (1.0 - grid.nodes[i, 0])
        fv = (grid.lump[:, None] * np.asarray(self.f0, float)).ravel()
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "f_vec", fv)


def eval_loading(spec: LoadingSpec, t: float):
    """Return (w_field, w_rate_field, F_vector, F_rate_vector) at time t.

    ``w_field`` and its rate are (n_nodes, 2); the force vectors are flat
    covectors of length 2*n_nodes paired with flat displacement fields.
    """
    if t < -1e-12 or t > spec.t_final + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.t_final}]")
    w = spec.lift * spec.theta(t)
    w_rate = spec.lift * spec.theta_dot(t)
    F = spec.f_vec * spec.phi(t)
    F_rate = spec.f_vec * spec.phi_dot(t)
    return w, w_rate, F, F_rate


def total_strain(B: np.ndarray, state: State, w_field: np.ndarray) -> np.ndarray:
    """Elastic strain e = B(u + w) - p, cellwise (n_cells, 3)."""
    return apply_sym_gradient(B, state.u + w_field) - state.p
