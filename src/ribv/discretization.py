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
  damage field, built in O(N^2) from its n_side distinct Toeplitz blocks:
  the blocks gathered into one N x N array and added to their mirror
  image into a second,
* ``nonlocal_form`` -- that form, by grid size: a ``DenseForm``, the
  array, with its product and its slice on a node subset, up to
  ``NONLOCAL_DENSE_MAX_SIDE``; above, a ``ToeplitzForm``, the FFT of the
  kernel and n_side x n_side tables, no n_side^3 one, with its product
  and its diagonal in the lump-orthonormal 2-D DCT-I basis, which
  preconditions the z-step's CG,
* ``LoadingSpec`` / ``eval_loading`` -- the record of a loading: a
  fixed Dirichlet lift and a lumped nodal force, each scaled by its own
  time profile, as the problem builder formed them,
* ``total_strain`` -- e = B(u + w) - p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

import numpy as np

# Frobenius weights for the (xx, yy, xy) component storage.
FROB_W = np.array([1.0, 1.0, 2.0])
# The damage floor: z lives on [Z_FLOOR, 1], the box of the z-step.
Z_FLOOR = 1e-8


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
    Dirichlet nodes), nodal damage z in [Z_FLOOR, 1], and cellwise
    trace-free plastic strain p."""

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
        # each check is written so that nan fails it
        if not (np.abs(self.u[grid.dirichlet_mask]) <= 1e-10).all():
            raise ValueError("u must vanish on Dirichlet nodes")
        # below the floor the z-step's box is empty
        if not ((self.z >= Z_FLOOR) & (self.z <= 1.0)).all():
            raise ValueError("damage field must stay in [Z_FLOOR, 1]")
        if not (np.abs(tensor_trace(self.p)) <= 1e-10).all():
            raise ValueError("plastic strain must be trace-free")
        if not (np.isfinite(self.u).all() and np.isfinite(self.p).all()):
            raise ValueError("u and p must be finite")


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

# The largest n_side at which ``nonlocal_form`` holds the dense N x N
# form; above it the form is its FFT and n x n tables.  The rule sits at
# the crossover of the z-steps, dense Cholesky against CG: on the
# damaging ramp (3 steps, amplitude 1.2, 33 sweeps either way, best of 3)
# they take 0.21 against 0.27 s at n_side 24, 0.27 against 0.33 at 25,
# 0.39 against 0.39 at 26, 0.40 against 0.35 at 27, 0.48 against 0.36 at
# 28 and 0.95 against 0.46 at 32.  The products cross lower: dense
# against FFT, 92 against 88 us at 24, 144 against 118 at 26, 193
# against 108 at 28 and 325 against 122 at 32 (one BLAS thread, best of
# 7).  Up to 27 the outputs stay those of the dense form bit for bit.
NONLOCAL_DENSE_MAX_SIDE = 27


def nonlocal_form(grid: Grid, m_order: float) -> DenseForm | ToeplitzForm:
    """The nonlocal form of the grid, by its size: ``DenseForm`` at n_side
    <= ``NONLOCAL_DENSE_MAX_SIDE``, ``ToeplitzForm`` above."""
    if grid.n_side <= NONLOCAL_DENSE_MAX_SIDE:
        return DenseForm(assemble_nonlocal_form(grid, m_order))
    return ToeplitzForm.build(grid, m_order)


def _fd_stencil(grid: Grid) -> np.ndarray:
    """1-D finite-difference derivative on n_side nodes, central inside and
    one-sided at the ends: Gx = I (x) D and Gy = D (x) I, i.e. Z D^T and
    D Z for a nodal field reshaped to Z[iy, ix]."""
    n, h = grid.n_side, grid.h
    D = np.zeros((n, n))
    D.flat[1::n + 1], D.flat[n::n + 1] = 0.5 / h, -0.5 / h
    D[0, :2] = D[-1, -2:] = (-1.0 / h, 1.0 / h)
    return D


def _nonlocal_kernel(grid: Grid, m_order: float) -> np.ndarray:
    """The kernel |x|^(-2 m) at node offsets (dy, dx), (n, n), 0 at
    (0, 0)."""
    if m_order <= 1.0:
        raise ValueError("nonlocal order must exceed 1")
    r2 = (grid.h * np.arange(grid.n_side)) ** 2
    dist2 = r2[:, None] + r2
    dist2[0, 0] = np.inf  # the excluded diagonal: inf^(-m) = 0
    return dist2 ** -m_order


def assemble_nonlocal_form(grid: Grid, m_order: float) -> np.ndarray:
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
    swaps the axes.  O(N^2) flops for N nodes: Q[a, b, ix, jx], twice the
    symmetric part of block (a, b) of Gx^T L Gx at (ix, jx), is gathered
    from the tables, and A[(a, ix), (b, jx)] = Q[a, b, ix, jx] + Q[ix, jx,
    a, b] is added into a second N x N array; each mirrored pair of
    entries is the same two terms added in either order, so A is exactly
    symmetric.
    """
    n, D, m1 = grid.n_side, _fd_stencil(grid), grid.lump_1d
    off = np.abs(np.arange(n)[:, None] - np.arange(n))
    K = _nonlocal_kernel(grid, m_order)[:, off]  # K[d]: rows d apart
    E = D.T * m1
    # row sums r = W 1 on the grid; R_a = D^T diag(r_a) D per node row a,
    # and S[d] = P_d + P_d^T, R[a] = R_a + R_a^T: twice their symmetric
    # parts, (n, n, n) each
    r = grid.lump.reshape(n, n) * (m1 @ (K @ m1)[off])
    R = (D.T * r[:, None, :]) @ D
    R = R + R.transpose(0, 2, 1)
    P = E @ K @ E.T
    S = P + P.transpose(0, 2, 1)
    del K, P
    Q = S[off]
    Q *= -grid.lump.reshape(n, n, 1, 1)
    Q.reshape(n * n, n, n)[::n + 1] += R
    del S, R  # the tables go before the second N x N array comes
    return np.add(Q.transpose(0, 2, 1, 3), Q.transpose(2, 0, 3, 1),
                  out=np.empty((n, n, n, n))).reshape(n * n, n * n)


@dataclass(frozen=True)
class DenseForm:
    """The nonlocal form as the N x N array of ``assemble_nonlocal_form``."""

    A: np.ndarray  # (N, N)

    @property
    def nbytes(self) -> int:
        return self.A.nbytes

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A (z - z[0]): A annihilates constants, and the shift makes that
        exact in floating point."""
        return self.A @ (z - z[0])

    def slice(self, idx: np.ndarray) -> np.ndarray:
        """A[idx][:, idx] for ascending node indices idx, a new array."""
        return self.A.take(idx, 0).take(idx, 1)


@dataclass(frozen=True)
class ToeplitzForm:
    """The nonlocal form as the FFT of its kernel and n x n tables, no
    N x N array and no n^3 one: its product is ``DenseForm``'s, and
    ``dct_solve`` inverts its diagonal in the lump-orthonormal 2-D DCT-I
    basis, the z-step's preconditioner."""

    w: np.ndarray         # (n, n): the lumped weights, m1_a m1_b
    r: np.ndarray         # (n, n): the row sums W 1
    D: np.ndarray         # (n, n): the difference stencil
    k_hat: np.ndarray     # (2n, n + 1): the FFT of the kernel
    basis: np.ndarray     # (n, n): lump-orthonormal DCT-I vectors, columns
    dct_diag: np.ndarray  # (n, n): v A v of the 2-D basis vectors v

    @classmethod
    def build(cls, grid: Grid, m_order: float) -> "ToeplitzForm":
        """The FFT of the kernel at offsets -(n-1)..n-1 wrapped onto a
        2n x 2n torus, with offset n, which no node pair reaches, set to
        0; the row sums W 1 by that FFT; the DCT-I diagonal in O(n^3)."""
        kern = _nonlocal_kernel(grid, m_order)
        n, D = grid.n_side, _fd_stencil(grid)
        wrap = np.r_[0:n + 1, n - 1:0:-1]
        k_hat = np.fft.rfft2(np.pad(kern, (0, 1))[np.ix_(wrap, wrap)]).real
        w = grid.lump.reshape(n, n)
        r = w * _kernel_product(k_hat, w)
        # DCT-I vectors, orthonormal under the trapezoid weights lump_1d
        c = np.cos(np.pi / (n - 1) * np.outer(np.arange(n), np.arange(n)))
        basis = c / np.sqrt(grid.lump_1d @ c ** 2)
        return cls(w, r, D, k_hat, basis,
                   _dct_diagonal(kern, r, D, basis, grid.lump_1d))

    @property
    def nbytes(self) -> int:
        """Bytes held: the tables and the kernel FFT."""
        return sum(v.nbytes for v in vars(self).values())

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A (z - z[0]) as W g = M T (M g), by a zero-padded 2-D FFT of the
        kernel (``k_hat``, real since the kernel is even), for the
        difference gradients g and the lumped weights M, in O(N log N); a
        constant field reads exact zeros."""
        n, D, w = len(self.w), self.D, self.w
        Z = (z - z[0]).reshape(n, n)
        G = np.stack([Z @ D.T, D @ Z])       # Gx z and Gy z on the grid
        Y = self.r * G - w * _kernel_product(self.k_hat, w * G)
        return 2.0 * (Y[0] @ D + D.T @ Y[1]).ravel()

    def dct_solve(self, y: np.ndarray, shift: float) -> np.ndarray:
        """P^-1 y for a nodal covector y, P = M V (L + shift) V^T M the
        form plus shift M with the form taken diagonal, L =
        ``dct_diag``, in the basis V (V^T M V = I): V (L + shift)^-1 V^T
        y, by four n x n products."""
        n, v = len(self.w), self.basis
        Q = v.T @ y.reshape(n, n) @ v / (self.dct_diag + shift)
        return (v @ Q @ v.T).ravel()


def _kernel_product(k_hat: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The kernel table applied to (..., n, n) grid fields X, T X[i] =
    sum_j kern(i - j) X[j], by the zero-padded 2-D FFT ``k_hat``: the
    passes of ``rfft2`` and ``irfft2``, each 1-D pass over the last axis
    made on the n rows that are not padding only."""
    n = k_hat.shape[1] - 1
    Y = np.fft.fft(np.fft.rfft(X, 2 * n), 2 * n, axis=-2) * k_hat
    return np.fft.irfft(np.fft.ifft(Y, axis=-2)[..., :n, :], 2 * n)[..., :n]


def _dct_diagonal(kern, r, D, basis, m1) -> np.ndarray:
    """v A v for every 2-D basis vector v = basis[:, ky] (x) basis[:, kx],
    (n, n), in O(n^3).  With A = 2 (Gx^T L Gx + Gy^T L Gy) and v
    separable, Gx v = v_ky (x) D v_kx: its diagonal part r g^2 is
    (v^2)^T r (Dv)^2, and its pair part g W g is the kernel paired with
    the 1-D autocorrelations of m1 v and m1 D v; Gy v swaps the axes."""
    n = len(r)
    v, dv = basis, D @ basis
    pad = 2 * n
    # autocorrelations at lags 0..n-1 of each column, doubled past lag 0
    # for the lags -(n-1)..-1
    ac_v, ac_dv = (np.fft.irfft(np.abs(np.fft.rfft(m1[:, None] * f, pad,
                                                   axis=0)) ** 2,
                                pad, axis=0)[:n] for f in (v, dv))
    ac_v[1:] *= 2.0
    ac_dv[1:] *= 2.0
    diag = (v ** 2).T @ r @ dv ** 2 + (dv ** 2).T @ r @ v ** 2
    pair = ac_v.T @ kern @ ac_dv + ac_dv.T @ kern @ ac_v
    return 2.0 * (diag - pair)


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
    """Time-dependent loading, as its builder formed it: the Dirichlet
    lift w(t) = lift * theta(t), a nodal field that extends the boundary
    datum into the interior, and the nodal force F(t) = f_vec * phi(t),
    already weighted by the lumped quadrature."""

    lift: np.ndarray                         # (n_nodes, 2)
    theta: Callable[[float], float]
    f_vec: np.ndarray                        # (2*n_nodes,) covector
    phi: Callable[[float], float]
    t_final: float


def eval_loading(spec: LoadingSpec, t: float):
    """Return (w_field, F_vector) at time t.

    ``w_field`` is (n_nodes, 2); the force vector is a flat covector of
    length 2*n_nodes paired with flat displacement fields.
    """
    if not (-1e-12 <= t <= spec.t_final + 1e-12):
        raise ValueError(f"time {t} outside [0, {spec.t_final}]")
    return spec.lift * spec.theta(t), spec.f_vec * spec.phi(t)


def total_strain(B: SymGradient, state: State, w_field: np.ndarray) -> np.ndarray:
    """Elastic strain e = B(u + w) - p, cellwise (n_cells, 3)."""
    return B.apply(state.u + w_field) - state.p
