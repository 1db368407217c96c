"""Spatial discretization for the coupled elasto-plastic damage solver.

Plane-strain setting on the unit square [0,1]^2 with a regular grid of
bilinear (Q1) cells.  Displacement and damage live at the nodes, the
plastic strain and the elastic strain live at one central quadrature
point per cell.  Symmetric 2x2 tensors are stored as component triples
(xx, yy, xy); the Frobenius pairing therefore carries weights (1, 1, 2).

The module provides:

* ``Grid`` -- nodes, cells, quadrature weights, Dirichlet mask,
* ``SymGradient`` / ``assemble_sym_gradient`` -- the symmetrized
  gradient B as one 3x8 cell matrix and the cell-to-dof map, with its
  apply, adjoint and symmetric element forms sum_c B_c^T T_c B_c
  assembled over the free dofs in LAPACK lower symmetric-band storage
  (the node-major dof order keeps their bandwidth at 2 n_side + 1),
* ``assemble_nonlocal_form`` -- a Gagliardo-type nonlocal form for the
  damage field, built in O(N^2) from its n_side distinct Toeplitz blocks
  in its own N x N buffer, the one such array it holds,
* ``LoadingSpec`` / ``eval_loading`` -- time-dependent Dirichlet data
  (with a fixed interior lift) and external nodal forces,
* ``total_strain`` -- e = B(u + w) - p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
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
    return (a * b) @ FROB_W


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
    weights (each cell spreads h^2/4 onto its four corners), lump_1d (x)
    lump_1d for the 1-D weights lump_1d = (h/2, h, ..., h, h/2).
    """

    n_side: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)          # (n_nodes, 2)
    cells: np.ndarray = field(init=False)          # (n_cells, 4) corner ids
    w_cell: np.ndarray = field(init=False)         # (n_cells,)
    lump_1d: np.ndarray = field(init=False)        # (n_side,)
    lump: np.ndarray = field(init=False)           # (n_nodes,)
    dirichlet_mask: np.ndarray = field(init=False)  # (n_nodes,) bool
    # flat displacement dof indices (node-major, x then y) not on the
    # Dirichlet boundary, ascending
    free_dofs: np.ndarray = field(init=False)      # (n_free,)

    def __post_init__(self):
        n = self.n_side
        if n < 2:
            raise ValueError("need at least 2 nodes per side")
        h = 1.0 / (n - 1)
        xs = np.linspace(0.0, 1.0, n)
        nodes = np.empty((n, n, 2))  # node iy * n + ix at (xs[ix], xs[iy])
        nodes[..., 0], nodes[..., 1] = xs, xs[:, None]

        # counter-clockwise corners SW, SE, NE, NW, cells row by row
        sw = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
        cells = sw[:, None] + np.array([0, 1, n + 1, n])
        w_cell = np.full(len(cells), h * h)

        lump_1d = np.full(n, h)
        lump_1d[0] = lump_1d[-1] = 0.5 * h

        mask = np.zeros(n * n, dtype=bool)
        mask[::n] = True  # left edge

        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes.reshape(n * n, 2))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "w_cell", w_cell)
        object.__setattr__(self, "lump_1d", lump_1d)
        object.__setattr__(self, "lump", np.outer(lump_1d, lump_1d).ravel())
        object.__setattr__(self, "dirichlet_mask", mask)
        fn = np.flatnonzero(~mask)
        object.__setattr__(self, "free_dofs",
                           (2 * fn[:, None] + np.arange(2)).ravel())

    @property
    def n_nodes(self) -> int:
        return self.n_side * self.n_side

    @property
    def n_cells(self) -> int:
        return (self.n_side - 1) ** 2


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

    def validate(self, grid: Grid) -> None:
        if self.u.shape != (grid.n_nodes, 2):
            raise ValueError("u has wrong shape")
        if self.z.shape != (grid.n_nodes,):
            raise ValueError("z has wrong shape")
        if self.p.shape != (grid.n_cells, 3):
            raise ValueError("p has wrong shape")
        if np.any(np.abs(self.u[grid.dirichlet_mask]) > 1e-10):
            raise ValueError("u must vanish on Dirichlet nodes")
        if np.any(self.z <= 0.0):
            raise ValueError("damage field must stay positive")
        if np.max(np.abs(tensor_trace(self.p)), initial=0.0) > 1e-10:
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

@dataclass(frozen=True)
class SymGradient:
    """Element-local symmetrized gradient B.

    Every cell applies the same 3x8 matrix ``local`` to its eight corner
    dofs ``dofs[c]`` (x then y of the corners SW, SE, NE, NW) and yields
    the strain (xx, yy, xy) at its center.  Flat displacement vectors are
    node-major with the components interleaved.

    Element forms are assembled over the ``n_free`` free dofs, whose
    couplings reach at most ``kd`` positions off the diagonal.
    ``band_pos[c, a, b]`` is the flat position of the pair of local dofs
    (a, b) of cell c in a Fortran-order (kd + 1, n_free) lower band
    array, or one past its end when either dof is constrained or the
    pair lies above the diagonal.
    """

    local: np.ndarray     # (3, 8)
    dofs: np.ndarray      # (n_cells, 8)
    n_dofs: int
    n_free: int
    kd: int
    band_pos: np.ndarray  # (n_cells, 8, 8)

    @property
    def nbytes(self) -> int:
        """Bytes held: the cell matrix, the cell-to-dof and the band maps."""
        return self.local.nbytes + self.dofs.nbytes + self.band_pos.nbytes

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B v for a displacement field of n_dofs entries; (n_cells, 3)."""
        return np.ravel(v)[self.dofs] @ self.local.T

    def adjoint(self, s: np.ndarray) -> np.ndarray:
        """B^T s for a cellwise (n_cells, 3) array; flat (n_dofs,)."""
        return np.bincount(self.dofs.ravel(), weights=(s @ self.local).ravel(),
                           minlength=self.n_dofs)

    def form(self, T: np.ndarray) -> np.ndarray:
        """sum_c B_c^T T_c B_c of symmetric per-cell (n_cells, 3, 3) forms
        on the free dofs, in the LAPACK lower band storage of ``?pbsv``:
        entry (i, j), j <= i <= j + kd, sits at row i - j of column j of a
        Fortran-order (kd + 1, n_free) array."""
        Ke = self.local.T @ T @ self.local
        rows = self.kd + 1
        K = np.bincount(self.band_pos.ravel(), weights=Ke.ravel(),
                        minlength=rows * self.n_free + 1)
        return K[:-1].reshape(self.n_free, rows).T


def assemble_sym_gradient(grid: Grid) -> SymGradient:
    """The symmetrized gradient of the grid: Q1 shape-function derivatives
    at the cell center.  Constant fields are annihilated exactly."""
    h = grid.h
    dndx = np.array([-1.0, 1.0, 1.0, -1.0]) / (2.0 * h)
    dndy = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * h)
    local = np.zeros((3, 8))
    local[0, 0::2] = dndx                  # e_xx
    local[1, 1::2] = dndy                  # e_yy
    local[2, 0::2] = 0.5 * dndy            # e_xy
    local[2, 1::2] = 0.5 * dndx
    dofs = (2 * grid.cells[:, :, None] + np.arange(2)).reshape(-1, 8)

    # free position of every cell dof, -1 where constrained
    n_dofs, n_free = 2 * grid.n_nodes, len(grid.free_dofs)
    pos = np.full(n_dofs, -1)
    pos[grid.free_dofs] = np.arange(n_free)
    fp = pos[dofs]
    i, j = fp[:, :, None], fp[:, None, :]
    lower = (j >= 0) & (i >= j)
    kd = int(np.max(i - j, where=lower, initial=0))
    rows = kd + 1
    band_pos = np.where(lower, j * rows + i - j, rows * n_free)
    return SymGradient(local=local, dofs=dofs, n_dofs=n_dofs, n_free=n_free,
                       kd=kd, band_pos=band_pos)


# ---------------------------------------------------------------------------
# nonlocal damage form
# ---------------------------------------------------------------------------

def _fd_stencil(grid: Grid) -> np.ndarray:
    """1-D finite-difference derivative on n_side nodes, central inside and
    one-sided at the ends: Gx = I (x) D and Gy = D (x) I, i.e. Z D^T and
    D Z for a nodal field reshaped to Z[iy, ix]."""
    n, h = grid.n_side, grid.h
    D = np.zeros((n, n))
    D.flat[1::n + 1], D.flat[n::n + 1] = 0.5 / h, -0.5 / h
    D[0, :2] = D[-1, -2:] = (-1.0 / h, 1.0 / h)
    return D


def assemble_nonlocal_form(grid: Grid, m_order: float = 1.5) -> np.ndarray:
    """Symmetric PSD matrix A such that z1 @ A @ z2 equals the double sum

        sum_{i != j} m_i m_j |g_i - g_j| . |g'_i - g'_j| / |x_i - x_j|^(2 m)

    over ordered node pairs, with g the finite-difference nodal gradient
    of z.  Requires m_order > 1 (n/2 in two dimensions); the singular
    diagonal i = j is excluded.  Constants are annihilated since their
    reconstructed gradient vanishes.

    A = 2 (Gx^T L Gx + Gy^T L Gy) for L = diag(W 1) - W, W the pair weights.
    With m = m1 (x) m1, block (a, b) of Gx^T L Gx over node rows is -m1_a
    m1_b P_|a-b| + [a = b] D^T diag((W 1)_a) D, P_d = E K_d E^T for E = D^T
    diag(m1) and K_d the Toeplitz kernel table of row offset d; Gy^T L Gy
    swaps the axes.  O(N^2) flops for N nodes and one N x N array live:
    X[a, ix, b, jx], twice the symmetric part of block (a, b) of Gx^T L Gx
    at (ix, jx), is gathered k node rows at a time into the output's
    layout, and A = X + X with (a, ix) and (b, jx) swapped is formed in
    place, k node rows at a time against the rows after them; each
    mirrored pair of entries is the same two terms added in either order,
    so A is exactly symmetric.
    """
    if m_order <= 1.0:
        raise ValueError("nonlocal order must exceed 1")
    n, D, m1 = grid.n_side, _fd_stencil(grid), grid.lump_1d
    r2 = (grid.h * np.arange(n)) ** 2
    dist2 = r2[:, None] + r2
    dist2[0, 0] = np.inf  # the excluded diagonal: inf^(-m) = 0
    off = np.abs(np.arange(n)[:, None] - np.arange(n))
    K = (dist2 ** -m_order)[:, off]          # K[d]: rows d apart, (n, n, n)
    E = D.T * m1
    # row sums r = W 1 on the grid; R_a = D^T diag(r_a) D per node row a,
    # and R_a + R_a^T, P_d + P_d^T: twice their symmetric parts
    w = grid.lump.reshape(n, n)              # m1_a m1_b
    r = w * (m1 @ (K @ m1)[off])
    R = (D.T * r[:, None, :]) @ D
    R = R + R.transpose(0, 2, 1)
    P = E @ K @ E.T
    P = P + P.transpose(0, 2, 1)
    del K  # the kernel tables are not held beside the output
    nw = -w[:, :, None, None]
    # k node rows per block: a block's work array holds at most
    # max(2^15, n^3) entries
    k = max(1, 2 ** 15 // n ** 3)
    # X[a, ix, b, jx] = 2 sym of block (a, b) of Gx^T L Gx at (ix, jx),
    # gathered as Q[a, b, ix, jx] and laid out in the output
    X = np.empty((n, n, n, n))
    for a0 in range(0, n, k):
        a1 = a0 + k
        Q = P[off[a0:a1]]
        Q *= nw[a0:a1]
        Q.reshape(-1, n, n)[a0::n + 1] += R[a0:a1]
        X[a0:a1] = Q.transpose(0, 2, 1, 3)
    del Q  # one block is all of X up to n_side 13: free it first
    # A[(a, ix), (b, jx)] = X[a, ix, b, jx] + X[ix, a, jx, b], in place
    for a0 in range(0, n, k):
        a1 = a0 + k
        blk = X[a0:a1, a0:] + X[a0:, a0:a1].transpose(1, 0, 3, 2)
        X[a0:a1, a0:] = blk
        X[a1:, a0:a1] = blk[:, k:].transpose(1, 0, 3, 2)
    return X.reshape(n * n, n * n)


def nonlocal_double_sum(grid: Grid, m_order: float,
                        z1: np.ndarray, z2: np.ndarray) -> float:
    """Direct O(N^2) evaluation of the nonlocal form, bypassing the
    assembled matrix.  Used as an independent cross-check."""
    D, n = _fd_stencil(grid), grid.n_side
    Z = np.reshape([z1, z2], (2, n, n))
    g1, g2 = np.stack([(Z @ D.T).reshape(2, -1), (D @ Z).reshape(2, -1)], -1)
    total = 0.0
    x = grid.nodes
    for i, j in permutations(range(grid.n_nodes), 2):
        k = np.sum((x[i] - x[j]) ** 2) ** (-m_order)
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
    """

    grid: Grid
    g_dir: np.ndarray                        # (n_nodes, 2)
    theta: Callable[[float], float]
    f0: np.ndarray                           # (n_nodes, 2) force density
    phi: Callable[[float], float]
    t_final: float
    lift: np.ndarray = field(init=False)     # (n_nodes, 2)
    f_vec: np.ndarray = field(init=False)    # (2*n_nodes,) covector

    def __post_init__(self):
        grid = self.grid
        n = grid.n_side
        # Each node inherits the value of the Dirichlet node in its row
        # (the left-edge node with the same y), scaled by (1 - x).
        gd = np.asarray(self.g_dir, dtype=float).reshape(grid.n_nodes, 2)
        edge = np.arange(grid.n_nodes) // n * n  # ix = 0
        lift = gd[edge] * (1.0 - grid.nodes[:, 0])[:, None]
        fv = (grid.lump[:, None] * np.asarray(self.f0, float)).ravel()
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "f_vec", fv)


def eval_loading(spec: LoadingSpec, t: float):
    """Return (w_field, F_vector) at time t.

    ``w_field`` is (n_nodes, 2); the force vector is a flat covector of
    length 2*n_nodes paired with flat displacement fields.
    """
    if t < -1e-12 or t > spec.t_final + 1e-12:
        raise ValueError(f"time {t} outside [0, {spec.t_final}]")
    return spec.lift * spec.theta(t), spec.f_vec * spec.phi(t)


def total_strain(B: SymGradient, state: State, w_field: np.ndarray) -> np.ndarray:
    """Elastic strain e = B(u + w) - p, cellwise (n_cells, 3)."""
    return B.apply(state.u + w_field) - state.p
