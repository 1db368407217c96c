"""Independent brute-force oracles used by the unit and acceptance
tests.  Each one recomputes a library quantity by a different method
(grid search, projection, optimality solve) without touching the
implementation under test beyond its public inputs."""

from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from ribv.constitutive import DamageLaws, cell_damage, elastic_cells, \
    energy, energy_gradients, loaded_energy, strain_at, yield_radius
from ribv.discretization import eval_loading, tensor_dev, tensor_norm
from ribv.dissipation import Rate, prox_map, prox_tangent, psi_total
from ribv.solver import StepResult, UpData, UpRecord, el_residuals, \
    solve_up_step, solve_z_step

FROB_W = np.array([1.0, 1.0, 2.0])


def wnorm(a):
    return float(np.sqrt(np.sum(FROB_W * np.asarray(a) ** 2)))


def prox_objective(pi, p_prev, ebar, a, b, mu_w, c_q):
    d = pi - p_prev
    return (a * wnorm(d) + 0.5 * b * wnorm(d) ** 2
            + 0.5 * mu_w * wnorm(pi) ** 2
            + 0.5 * c_q * wnorm(ebar - pi) ** 2)


def prox_oracle(p_prev, ebar, a, b, mu_w, c_q):
    """Shrinking 41x41 grid search over trace-free tensors (d, -d, s),
    followed by a derivative-free polish."""
    def obj2(x):
        return prox_objective(np.array([x[0], -x[0], x[1]]),
                              p_prev, ebar, a, b, mu_w, c_q)

    center = np.array([p_prev[0], p_prev[2]])
    width = 2.0 * max(1.0, wnorm(p_prev), wnorm(ebar))
    best = center
    for _ in range(4):
        xs = np.linspace(best[0] - width, best[0] + width, 41)
        ys = np.linspace(best[1] - width, best[1] + width, 41)
        vals = np.array([[obj2((x, y)) for y in ys] for x in xs])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([xs[i], ys[j]])
        width /= 15.0
    res = minimize(obj2, best, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15,
                            "maxiter": 2000})
    x = res.x
    return np.array([x[0], -x[0], x[1]])


def prox_plastic_derivative(p_prev, e_bar, a, b, mu_w, c_q):
    """Jacobian (..., 3, 3) of e_bar -> prox_plastic(p_prev,
    tensor_dev(e_bar), a, b, mu_w, c_q): ``prox_tangent`` of the shift
    formed afresh at e_bar."""
    return prox_tangent(
        prox_map(p_prev, a, b, mu_w, c_q)(tensor_dev(e_bar)), c_q)


def dist_lumped_oracle(lump, chi, kappa):
    """Lumped-L2 distance of chi to {gamma >= -kappa} by nodewise
    clipping (the exact projection in a diagonal metric)."""
    proj = np.maximum(chi, -kappa)
    return float(np.sqrt(np.sum(lump * (chi - proj) ** 2)))


def dist_ball_oracle(w_cell, omega, radii):
    """Weighted L2 distance of a cellwise deviatoric field to pointwise
    balls, via constrained minimization per cell."""
    total = 0.0
    for c in range(len(omega)):
        om, V = omega[c], radii[c]

        def obj(x):
            xi = np.array([x[0], -x[0], x[1]])
            return np.sum(FROB_W * (om - xi) ** 2)

        def con(x):
            xi = np.array([x[0], -x[0], x[1]])
            return V ** 2 - np.sum(FROB_W * xi ** 2)

        res = minimize(obj, np.zeros(2), method="SLSQP",
                       constraints=[{"type": "ineq", "fun": con}],
                       options={"ftol": 1e-16, "maxiter": 500})
        total += w_cell[c] * max(res.fun, 0.0)
    return float(np.sqrt(total))


def conj_visc_oracle(K_D, eta, eps, nu):
    """Value of sup_v eta.v - (eps nu / 2) v.K_D v via the linear
    optimality system."""
    v = np.linalg.solve(K_D, eta) / (eps * nu)
    return float(eta @ v - 0.5 * eps * nu * v @ K_D @ v)


def dual_norm_oracle(K_D, g):
    """sup of g.eta over the K_D-unit ball via the constrained
    maximizer eta* = K_D^{-1} g / ||K_D^{-1} g||_{K_D}."""
    x = np.linalg.solve(K_D, g)
    denom = np.sqrt(x @ K_D @ x)
    if denom == 0.0:
        return 0.0
    return float(g @ (x / denom))


def prox_oracle_batch(p_prev, ebar, a, b, mu_w, c_q, levels=6):
    """Vectorized shrinking grid search over many instances at once.

    Arrays are (n, 3) for the tensors and (n,) for the coefficients;
    returns the (n, 3) argmin over trace-free tensors to ~1e-7
    component accuracy.
    """
    p_prev = np.asarray(p_prev, float)
    ebar = np.asarray(ebar, float)
    n = len(p_prev)
    centers = np.column_stack([p_prev[:, 0], p_prev[:, 2]])
    pn = np.sqrt(np.sum(FROB_W * p_prev ** 2, axis=1))
    en = np.sqrt(np.sum(FROB_W * ebar ** 2, axis=1))
    width = 2.0 * np.maximum(1.0, np.maximum(pn, en))
    grid = np.linspace(-1.0, 1.0, 41)
    GX, GY = np.meshgrid(grid, grid, indexing="ij")
    gx = GX.ravel()
    gy = GY.ravel()
    for _ in range(levels):
        X = centers[:, 0, None] + width[:, None] * gx[None, :]
        Y = centers[:, 1, None] + width[:, None] * gy[None, :]
        dX = X - p_prev[:, 0, None]
        dY = Y - p_prev[:, 2, None]
        dn = np.sqrt(2.0 * dX ** 2 + 2.0 * dY ** 2)
        pin = 2.0 * X ** 2 + 2.0 * Y ** 2
        eX = ebar[:, 0, None] - X
        eY = ebar[:, 2, None] - Y
        en2 = 2.0 * eX ** 2 + 2.0 * eY ** 2
        vals = (a[:, None] * dn + 0.5 * b[:, None] * dn ** 2
                + 0.5 * mu_w[:, None] * pin
                + 0.5 * c_q[:, None] * en2)
        idx = np.argmin(vals, axis=1)
        centers = np.column_stack([X[np.arange(n), idx],
                                   Y[np.arange(n), idx]])
        width = width / 15.0
    return np.column_stack([centers[:, 0], -centers[:, 0],
                            centers[:, 1]])


def cell_spread_grid(n_side):
    """Nodes, cells, lumped weights and free dofs of the n_side x n_side
    grid built from their first definitions: node coordinates from a
    meshgrid, corner ids stacked column by column, each cell spreading
    h^2/4 onto its four corners, and both dofs of every node off the
    left edge x = 0."""
    n, h = n_side, 1.0 / (n_side - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    iy, ix = np.divmod(np.arange((n - 1) ** 2), n - 1)
    sw = iy * n + ix
    cells = np.column_stack([sw, sw + 1, sw + n + 1, sw + n])
    lump = np.zeros(n * n)
    np.add.at(lump, cells.ravel(), h * h / 4.0)
    free = np.flatnonzero(nodes[:, 0] != 0.0)
    free_dofs = np.column_stack([2 * free, 2 * free + 1]).ravel()
    return nodes, cells, lump, free_dofs


def dense_sym_gradient(grid):
    """Dense symmetrized gradient of shape (n_cells, 3, 2*n_nodes), built
    cell by cell from the Q1 shape-function derivatives at the cell
    center (corner order SW, SE, NE, NW)."""
    B = np.zeros((grid.n_cells, 3, 2 * grid.n_nodes))
    h = grid.h
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


def band_to_dense(ab, kd):
    """Dense symmetric matrix of a LAPACK lower band array with kd
    subdiagonals, A[i, j] = A[j, i] = ab[i - j, j] for j <= i <= j + kd,
    read entry by entry."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for j in range(n):
        for i in range(j, min(n, j + kd + 1)):
            A[i, j] = A[j, i] = ab[i - j, j]
    return A


def dense_fd_gradients(grid):
    """Finite-difference nodal gradient as two dense (n_nodes, n_nodes)
    matrices Gx, Gy, built row by row: central differences in the
    interior, one-sided at the boundary."""
    n, h, N = grid.n_side, grid.h, grid.n_nodes
    i = np.arange(N)
    out = []
    for pos, step in ((i % n, 1), (i // n, n)):
        hi = np.where(pos < n - 1, i + step, i)
        lo = np.where(pos > 0, i - step, i)
        G = np.zeros((N, N))
        G[i, hi] = 1.0 / ((hi - lo) // step * h)
        G[i, lo] = -G[i, hi]
        out.append(G)
    return out[0], out[1]


def dense_nonlocal_form(grid, m_order):
    """The nonlocal form from the node coordinates and dense products:
    the kernel at every node pair, the graph Laplacian L of the pair
    weights and 2 (Gx^T L Gx + Gy^T L Gy), symmetrized."""
    x = grid.nodes
    diff = x[:, None, :] - x[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    np.fill_diagonal(dist2, 1.0)
    kernel = dist2 ** (-m_order)
    np.fill_diagonal(kernel, 0.0)
    W = np.outer(grid.lump, grid.lump) * kernel
    L = np.diag(W.sum(axis=1)) - W
    Gx, Gy = dense_fd_gradients(grid)
    A = 2.0 * (Gx.T @ L @ Gx + Gy.T @ L @ Gy)
    return 0.5 * (A + A.T)


def two_array_nonlocal_form(grid, m_order):
    """The nonlocal form by the two-array assembly: every block (a, b) of
    2 sym(Gx^T L Gx) gathered as Q[a, b, ix, jx], and A[(a, ix), (b, jx)]
    = Q[a, b, ix, jx] + Q[ix, jx, a, b] written into a second N x N
    array.  Entry by entry the same operations as the in-place assembly,
    so the two agree bit for bit."""
    n, h, m1 = grid.n_side, grid.h, grid.lump_1d
    D = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)
    D[0, :2] = D[-1, -2:] = (-1.0 / h, 1.0 / h)
    r2 = (h * np.arange(n)) ** 2
    dist2 = r2[:, None] + r2
    dist2[0, 0] = np.inf
    off = np.abs(np.arange(n)[:, None] - np.arange(n))
    K = (dist2 ** -m_order)[:, off]
    E = D.T * m1
    P = E @ K @ E.T
    w = grid.lump.reshape(n, n)
    r = w * (m1 @ (K @ m1)[off])
    R = (D.T * r[:, None, :]) @ D
    Q = (P + P.transpose(0, 2, 1))[off]
    Q *= -w[:, :, None, None]
    Q.reshape(n * n, n, n)[::n + 1] += R + R.transpose(0, 2, 1)
    return np.add(Q.transpose(0, 2, 1, 3), Q.transpose(2, 0, 3, 1),
                  out=np.empty((n, n, n, n))).reshape(n * n, n * n)


def switching_residual(lam_up, lam_z, grads, state, rate, ops, mat, ep):
    """Least-squares residual of the switching system at one knot, every
    block recomputed at the given (lam_up, lam_z): the displacement
    block's dual norm by a dense K_D solve, the yield radii from the
    corner-mean damage and the plastic block cell by cell."""
    grid = ops.grid
    g_u, g_z, g_p = grads
    K = ops.K_D
    res_u = lam_up * ep.nu * K @ rate.u_rate.ravel()[grid.free_dofs] \
        + (1 - lam_up) * g_u
    ru2 = res_u @ np.linalg.solve(K, res_u)

    target = -(lam_z * rate.z_rate + (1 - lam_z) * g_z)
    floor = -(1 - lam_z) * mat.kappa
    viol = np.where(
        rate.z_rate > 1e-12, np.abs(target) + 1.0,
        np.where(rate.z_rate < -1e-12, np.abs(target - floor),
                 np.maximum(floor - target, 0.0)))
    rz2 = np.sum(grid.lump * viol ** 2)

    zc = state.z[grid.cells].mean(axis=1)
    radii = (1 - lam_up) * mat.sigma_y \
        * (mat.m_bar + (1 - mat.m_bar) * np.clip(zc, 0.0, 1.0))
    rp2 = 0.0
    for c in range(grid.n_cells):
        xi = -(lam_up * ep.nu * rate.p_rate[c] + (1 - lam_up) * g_p[c])
        dn = wnorm(rate.p_rate[c])
        if dn > 1e-14:
            dist = wnorm(xi - radii[c] * rate.p_rate[c] / dn)
        else:
            dist = max(wnorm(xi) - radii[c], 0.0)
        rp2 += grid.w_cell[c] * dist ** 2
    return float(np.sqrt(ru2 + rz2 + rp2))


def jump_intervals(s, t_rate, tol_jump):
    """Knot-by-knot scan for maximal runs of knots k >= 1 with
    t_rate[k] < tol_jump; a run a..b gives the interval (s[a-1], s[b])."""
    jumps = []
    k, n = 1, len(s)
    while k < n:
        if t_rate[k] < tol_jump:
            start = k
            while k < n and t_rate[k] < tol_jump:
                k += 1
            jumps.append((float(s[start - 1]), float(s[k - 1])))
        else:
            k += 1
    return jumps


def incremental_functional(t, state, prev_state, ops, mat, ep, loading):
    """tau Psi_{eps,nu}(q, (q - q_prev)/tau) + E_mu(t, q), the functional
    one incremental step minimizes, at a state q."""
    rate = Rate.between(prev_state, state, ep.tau)
    return ep.tau * psi_total(state, rate, ops, mat, ep.eps, ep.nu,
                              tol_pos=1e-14) \
        + energy(t, state, ops, mat, ep.mu, loading)


def loaded_at(t, state, ops, mat, loading):
    """The loaded part of the energy at (t, state), its strain, elastic
    cells and damage laws formed afresh."""
    w, F, e = strain_at(t, state, ops, loading)
    return loaded_energy(w, F, state.u, elastic_cells(e, mat)[1],
                         DamageLaws.at(state.z, ops, mat), ops)


def viscous_product(state, prev_state, ops, ep):
    """The viscous product eps nu / tau K_D (u - u_prev) on the free dofs,
    formed afresh."""
    du = (state.u - prev_state.u).ravel()[ops.grid.free_dofs]
    return (ep.eps * ep.nu / ep.tau) * ops.apply_K_D(du)


def up_record(t, state, prev_state, ops, mat, ep, loading):
    """The ``UpRecord`` of state at t, formed afresh from the state
    arrays."""
    return UpRecord.of(strain_at(t, state, ops, loading)[2],
                       tensor_norm(state.p - prev_state.p), mat,
                       viscous_product(state, prev_state, ops, ep))


def certify(t, state, prev_state, ops, mat, ep, loading):
    """The energy gradients and all three EL residuals at state, with r_u
    and the yield radii formed afresh: (grads, residuals)."""
    grads = energy_gradients(t, state, ops, mat, ep.mu, loading)
    r_u = ops.dual_norm(viscous_product(state, prev_state, ops, ep)
                        + grads[0])
    V = yield_radius(cell_damage(ops.grid, state.z), mat)
    return grads, el_residuals(r_u, *grads[1:], V, state, prev_state, ops,
                               mat, ep)


def certified_step(t, prev_state, ops, mat, ep, loading, tol_stat=1e-8,
                   max_iter=500):
    """The incremental step with the full certification on every sweep:
    after each (u, p) and z solve, the energy gradients and all three EL
    residuals by ``certify``, and the loading, strain, cell laws and
    records formed afresh for each solve, none handed from one solve to
    the next."""
    state = prev_state.copy()
    for sweeps in range(1, max_iter + 1):
        state.u, state.p, _ = solve_up_step(
            UpData.of(*eval_loading(loading, t), prev_state, ops, ep),
            DamageLaws.at(state.z, ops, mat), state, prev_state, ops, mat, ep,
            tol_dual=max(1e-13, 0.02 * tol_stat))
        state.z = solve_z_step(
            up_record(t, state, prev_state, ops, mat, ep, loading),
            DamageLaws.at(state.z, ops, mat), state, prev_state, ops, mat,
            ep, tol=0.1 * tol_stat)[0]
        grads, residuals = certify(t, state, prev_state, ops, mat, ep,
                                   loading)
        if max(residuals) <= tol_stat:
            break
    return StepResult(
        new_state=state, iterations=sweeps, el_residuals=residuals,
        accepted=max(residuals) <= tol_stat,
        energy=energy(t, state, ops, mat, ep.mu, loading), gradients=grads,
        strain=strain_at(t, state, ops, loading)[2],
        loaded=loaded_at(t, state, ops, mat, loading),
        laws=DamageLaws.at(state.z, ops, mat))


def viscous_steps(ops, mat, ep, loading, init, n_steps, tol_stat=1e-8,
                  max_iter=500):
    """The steps and per-step powers of ``driver.run_viscous`` by a plain
    loop: the pre-relaxation and every step by ``certified_step``, and
    the power over step k as two fresh loaded energies at the frozen
    q_{k-1}, E(t_k, q_{k-1}) - E(t_{k-1}, q_{k-1})."""
    ep = replace(ep, tau=ep.t_final / n_steps)
    times = np.linspace(0.0, ep.t_final, n_steps + 1)
    steps = [certified_step(0.0, init, ops, mat, replace(ep, tau=1e12),
                            loading, tol_stat=1e-9, max_iter=200)]
    power = [0.0]
    for k in range(1, n_steps + 1):
        prev = steps[-1].new_state
        steps.append(certified_step(times[k], prev, ops, mat, ep, loading,
                                    tol_stat=tol_stat, max_iter=max_iter))
        power.append(loaded_at(times[k], prev, ops, mat, loading)
                     - loaded_at(times[k - 1], prev, ops, mat, loading))
    return steps, power


# ---------------------------------------------------------------------------
# rate norms from the state arrays, each formed afresh
# ---------------------------------------------------------------------------

def norm_kd(ops, u_field):
    """Viscous H1 seminorm of a nodal field vanishing on the Dirichlet
    nodes."""
    v = u_field.ravel()[ops.grid.free_dofs]
    return float(np.sqrt(max(v @ ops.apply_K_D(v), 0.0)))


def norm_u_h1(ops, u_field):
    """Full H1 norm: lumped L2 part plus the strain seminorm."""
    grid = ops.grid
    l2sq = (grid.lump * (u_field ** 2).sum(axis=1)).sum()
    v = u_field.ravel()[grid.free_dofs]
    return float(np.sqrt(l2sq + max(v @ ops.apply_K_D(v), 0.0)))


def norm_z_m(grid, z_field):
    """Lumped L2 norm of a nodal scalar field."""
    return float(np.sqrt((grid.lump * z_field ** 2).sum()))


def norm_z_hm(ops, z_field):
    """Lumped L2 norm plus the Gagliardo form."""
    grid = ops.grid
    return float(np.sqrt((grid.lump * z_field ** 2).sum()
                         + max(z_field @ ops.apply_A_m(z_field), 0.0)))


def norm_p_l2(grid, p_field):
    """Weighted L2 norm of a cellwise tensor field, cell by cell."""
    return float(np.sqrt(sum(w * wnorm(p) ** 2
                             for w, p in zip(grid.w_cell, p_field))))


def norm_p_l1(grid, p_field):
    """Weighted L1 norm of a cellwise tensor field, cell by cell."""
    return float(sum(w * wnorm(p) for w, p in zip(grid.w_cell, p_field)))


def d_nu(ops, rate, nu):
    """sqrt(nu ||u'||_KD^2 + ||z'||_M^2 + nu ||p'||_L2^2)."""
    grid = ops.grid
    return float(np.sqrt(nu * norm_kd(ops, rate.u_rate) ** 2
                         + norm_z_m(grid, rate.z_rate) ** 2
                         + nu * norm_p_l2(grid, rate.p_rate) ** 2))


def d_up(ops, u_rate, p_rate):
    """sqrt(||u'||_H1^2 + ||p'||_L2^2)."""
    return float(np.hypot(norm_u_h1(ops, u_rate),
                          norm_p_l2(ops.grid, p_rate)))


def rate_norm_fields(ops, rate, state, mat, e_rate):
    """Every field of ``dissipation.RateNorms`` of a rate at state, each
    from its own array formula."""
    grid = ops.grid
    V = yield_radius(cell_damage(grid, state.z), mat)
    return {
        "u_h1": norm_u_h1(ops, rate.u_rate),
        "u_kd": norm_kd(ops, rate.u_rate),
        "z_m": norm_z_m(grid, rate.z_rate),
        "z_hm": norm_z_hm(ops, rate.z_rate),
        "z_max": float(np.max(rate.z_rate)),
        "r_z": float(np.sum(grid.lump * mat.kappa * np.abs(rate.z_rate))),
        "h_p": float(sum(w * v * wnorm(p) for w, v, p
                         in zip(grid.w_cell, V, rate.p_rate))),
        "p_l1": norm_p_l1(grid, rate.p_rate),
        "p_l2": norm_p_l2(grid, rate.p_rate),
        "e_l2": norm_p_l2(grid, e_rate),
    }


def state_strain(traj, ops, k):
    """The strain e = B(u + w(t_k)) - p of a run's state k, formed
    afresh."""
    return strain_at(traj.times[k], traj.states[k], ops, traj.loading)[2]


def enhanced_estimate_total(traj, ops):
    """sum_k tau (||e'|| + ||z'||_Hm + sqrt(mu) ||u'||_H1 + sqrt(mu)
    ||p'||_L2) over a run's backward-difference rates."""
    ep = traj.ep
    total = 0.0
    for k in range(1, len(traj.times)):
        tau = traj.times[k] - traj.times[k - 1]
        rate = traj.rate(k)
        e_rate = (state_strain(traj, ops, k)
                  - state_strain(traj, ops, k - 1)) / tau
        total += tau * (norm_p_l2(ops.grid, e_rate)
                        + norm_z_hm(ops, rate.z_rate)
                        + np.sqrt(ep.mu) * norm_u_h1(ops, rate.u_rate)
                        + np.sqrt(ep.mu) * norm_p_l2(ops.grid, rate.p_rate))
    return float(total)


def balance_residual(traj, ops):
    """Per-step cumulative energy-dissipation balance residual of a
    viscous run recomputed from its stored states: the energies afresh,
    and the dissipation rate N = psi + eps/2 D_nu^2 (psi carries half of
    the viscous quadratic, N all of it) from each backward-difference
    rate, and the power integral as the sum of the energy changes
    E(t_k, q_{k-1}) - E(t_{k-1}, q_{k-1}) at the frozen previous states,
    from whole energies rather than ``driver._power_integral``."""
    ep, mat, loading = traj.ep, traj.mat, traj.loading
    out = np.zeros(len(traj.times))
    diss = 0.0
    pwr = 0.0
    E0 = energy(traj.times[0], traj.states[0], ops, mat, ep.mu, loading)
    for k in range(1, len(traj.times)):
        tau = traj.times[k] - traj.times[k - 1]
        rate = traj.rate(k)
        psi = psi_total(traj.states[k], rate, ops, mat, ep.eps, ep.nu,
                        tol_pos=1e-12)
        diss += tau * (psi + 0.5 * ep.eps * d_nu(ops, rate, ep.nu) ** 2)
        pwr += (energy(traj.times[k], traj.states[k - 1], ops, mat, ep.mu,
                       loading)
                - energy(traj.times[k - 1], traj.states[k - 1], ops, mat,
                         ep.mu, loading))
        Ek = energy(traj.times[k], traj.states[k], ops, mat, ep.mu, loading)
        out[k] = abs(Ek + diss - E0 - pwr)
    return out


def align_z_curves(pa, pb, grid):
    """Sup over the finer rescaled s-grid of the lumped-L2 distance
    between the damage curves of two reparameterized levels, by one
    ``np.interp`` per node and point."""
    ref = pa if pa.n_knots >= pb.n_knots else pb
    sig = ref.s / ref.s[-1]
    za = np.array([st.z for st in pa.traj.states])
    zb = np.array([st.z for st in pb.traj.states])
    sa = pa.s / pa.s[-1]
    sb = pb.s / pb.s[-1]
    best = 0.0
    for x in sig:
        d = np.array([np.interp(x, sa, za[:, i]) - np.interp(x, sb, zb[:, i])
                      for i in range(za.shape[1])])
        best = max(best, float(np.sqrt(np.sum(grid.lump * d ** 2))))
    return best
