"""Grid, strain operator, nonlocal form, and loading evaluation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribv.discretization import (
    NONLOCAL_DENSE_MAX_SIDE,
    DenseForm,
    Grid,
    ToeplitzForm,
    assemble_nonlocal_form,
    assemble_sym_gradient,
    eval_loading,
    initial_state,
    nonlocal_double_sum,
    nonlocal_form,
    tensor_dev,
    tensor_dot,
    tensor_trace,
    total_strain,
)
from ribv.problems import ramp_loading

from oracles import (
    band_to_dense,
    cell_spread_grid,
    dense_nonlocal_form,
    dense_sym_gradient,
    two_array_nonlocal_form,
)


def nodal_field(grid, fn):
    return np.array([fn(x, y) for x, y in grid.nodes])


class TestGrid:
    def test_partition_of_unity(self):
        for n in (2, 3, 5):
            g = Grid(n)
            assert g.w_cell.sum() == pytest.approx(1.0, abs=1e-14)
            assert g.lump.sum() == pytest.approx(1.0, abs=1e-14)

    def test_mesh_size(self):
        assert Grid(3).h == pytest.approx(0.5)
        assert Grid(5).h == pytest.approx(0.25)

    def test_dirichlet_left_edge(self):
        g = Grid(4)
        on_edge = g.nodes[:, 0] == 0.0
        assert np.array_equal(g.dirichlet_mask, on_edge)
        # both components of every free node appear among the free dofs
        assert len(g.free_dofs) == 2 * (g.n_nodes - g.n_side)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Grid(1)

    @pytest.mark.parametrize("n_side", [2, 3, 4, 7, 32])
    def test_matches_cell_spread_construction(self, n_side):
        g = Grid(n_side)
        nodes, cells, lump, free_dofs = cell_spread_grid(n_side)
        for got, ref in ((g.nodes, nodes), (g.cells, cells),
                         (g.lump, lump), (g.free_dofs, free_dofs)):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        assert np.array_equal(g.lump, np.outer(g.lump_1d, g.lump_1d).ravel())


class TestSymGradient:
    def test_uniaxial_stretch(self):
        # u = (x, 0) has constant symmetrized gradient diag(1, 0)
        g = Grid(3)
        B = assemble_sym_gradient(g)
        u = nodal_field(g, lambda x, y: (x, 0.0))
        e = B.apply(u)
        assert np.allclose(e, np.array([1.0, 0.0, 0.0]), atol=1e-13)

    def test_pure_shear(self):
        # u = (y, x) has symmetrized gradient with unit off-diagonal
        g = Grid(3)
        B = assemble_sym_gradient(g)
        u = nodal_field(g, lambda x, y: (y, x))
        e = B.apply(u)
        assert np.allclose(e, np.array([0.0, 0.0, 1.0]), atol=1e-13)

    def test_rigid_translation(self):
        g = Grid(4)
        B = assemble_sym_gradient(g)
        u = np.tile([0.3, -0.7], (g.n_nodes, 1))
        assert np.allclose(B.apply(u), 0.0, atol=1e-13)

    def test_rigid_rotation(self):
        # infinitesimal rotation u = (-y, x) is annihilated
        g = Grid(4)
        B = assemble_sym_gradient(g)
        u = nodal_field(g, lambda x, y: (-y, x))
        assert np.allclose(B.apply(u), 0.0, atol=1e-13)

    @pytest.mark.parametrize("n_side", [3, 4, 7])
    def test_matches_dense_reference(self, n_side, rng):
        g = Grid(n_side)
        B = assemble_sym_gradient(g)
        D = dense_sym_gradient(g)
        v = rng.normal(size=2 * g.n_nodes)
        s = rng.normal(size=(g.n_cells, 3))
        T = rng.normal(size=(g.n_cells, 3, 3))
        T += T.transpose(0, 2, 1)  # the band holds symmetric forms
        free = g.free_dofs
        Df = D[:, :, free]
        dense_form = np.einsum("cia,cij,cjb->ab", Df, T, Df)
        for got, ref in ((B.apply(v), D @ v),
                         (B.adjoint(s), np.einsum("cia,ci->a", D, s)),
                         (band_to_dense(B.form(T), B.kd), dense_form)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(
                1.0, np.max(np.abs(ref)))


# every form check runs where most nodes take the central difference too
NONLOCAL_SIDES = (3, 5, 8)


class TestNonlocalForm:
    def test_constants_annihilated(self):
        for n_side in NONLOCAL_SIDES:
            g = Grid(n_side)
            A = assemble_nonlocal_form(g, 1.5)
            assert np.allclose(A @ np.ones(g.n_nodes), 0.0, atol=1e-10)

    def test_symmetry(self, rng):
        for n_side in NONLOCAL_SIDES:
            g = Grid(n_side)
            A = assemble_nonlocal_form(g, 1.5)
            # exact: the z-step hands A's transpose to LAPACK as the matrix
            np.testing.assert_array_equal(A, A.T)
            z1 = rng.normal(size=g.n_nodes)
            z2 = rng.normal(size=g.n_nodes)
            assert z1 @ A @ z2 == pytest.approx(z2 @ A @ z1, abs=1e-12)

    def test_psd_random(self, rng):
        for n_side in NONLOCAL_SIDES:
            g = Grid(n_side)
            A = assemble_nonlocal_form(g, 1.5)
            for _ in range(1000):
                v = rng.normal(size=g.n_nodes)
                assert v @ A @ v >= -1e-12

    def test_corner_indicator_matches_double_sum(self):
        for n_side in NONLOCAL_SIDES:
            g = Grid(n_side)
            A = assemble_nonlocal_form(g, 1.5)
            z = np.zeros(g.n_nodes)
            z[0] = 1.0  # corner node
            assert z @ A @ z == pytest.approx(
                nonlocal_double_sum(g, 1.5, z, z), rel=1e-12)

    def test_random_fields_match_double_sum(self, rng):
        for n_side in NONLOCAL_SIDES:
            g = Grid(n_side)
            A = assemble_nonlocal_form(g, 1.5)
            for _ in range(5):
                z1 = rng.normal(size=g.n_nodes)
                z2 = rng.normal(size=g.n_nodes)
                assert z1 @ A @ z2 == pytest.approx(
                    nonlocal_double_sum(g, 1.5, z1, z2), rel=1e-12,
                    abs=1e-12)

    @pytest.mark.parametrize("n_side", [2, 3, 4, 7, 12, 16, 24])
    def test_matches_dense_reference(self, n_side):
        g = Grid(n_side)
        for m_order in (1.25, 1.5, 2.0):
            A = assemble_nonlocal_form(g, m_order)
            ref = dense_nonlocal_form(g, m_order)
            assert A.shape == ref.shape
            assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(A, A.T)

    def test_smooth_field_energy_converges(self):
        # z = cos(pi x) cos(pi y): the discrete seminorm rises toward its
        # h-limit, each increment under half the last as h halves
        energy = []
        for n_side in (8, 16, 32):
            g = Grid(n_side)
            z = np.cos(np.pi * g.nodes[:, 0]) * np.cos(np.pi * g.nodes[:, 1])
            energy.append(z @ assemble_nonlocal_form(g, 1.5) @ z)
        steps = np.diff(energy)
        assert np.all(steps > 0.0)
        assert steps[1] < 0.5 * steps[0]

    @pytest.mark.parametrize("n_side",
                             range(2, NONLOCAL_DENSE_MAX_SIDE + 1))
    def test_matches_two_array_assembly_bit_for_bit(self, n_side):
        # every size that holds the dense form: each entry is the oracle's
        # two terms, formed and added in the same order, so no bit moves
        g = Grid(n_side)
        for m_order in (1.25, 1.5, 2.0):
            assert np.array_equal(assemble_nonlocal_form(g, m_order),
                                  two_array_nonlocal_form(g, m_order))

    def test_memory_budget(self):
        # at the largest dense size the assembly holds two N x N arrays,
        # the gathered blocks and the result; its O(N^1.5) tables are
        # freed before the second
        g = Grid(NONLOCAL_DENSE_MAX_SIDE)
        tracemalloc.start()
        try:
            A = assemble_nonlocal_form(g, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * A.nbytes

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            assemble_nonlocal_form(Grid(3), 1.0)


class TestToeplitzForm:
    """The form held as its tables alone, built directly at every size,
    against the dense assembly."""

    @pytest.mark.parametrize("n_side",
                             range(2, NONLOCAL_DENSE_MAX_SIDE + 1))
    def test_fft_apply_matches_dense(self, n_side, rng):
        g = Grid(n_side)
        for m_order in (1.25, 1.5, 2.0):
            form = ToeplitzForm.build(g, m_order)
            A = assemble_nonlocal_form(g, m_order)
            for _ in range(3):
                z = rng.uniform(0.2, 1.0, g.n_nodes)
                ref = A @ (z - z[0])
                assert np.max(np.abs(form.apply(z) - ref)) \
                    <= 1e-12 * np.max(np.abs(ref))
            # a constant field reads exact zeros, not FFT roundoff
            assert not form.apply(np.full(g.n_nodes, 0.7)).any()

    @pytest.mark.parametrize("n_side",
                             range(2, NONLOCAL_DENSE_MAX_SIDE + 1))
    def test_gathered_slice_is_dense_take(self, n_side, rng):
        # the free slice the z-step's CG applies (the product on a vector
        # zero off the free nodes, read on them), gathered column by
        # column, is the dense take
        g = Grid(n_side)
        for m_order in (1.25, 1.5, 2.0):
            form = ToeplitzForm.build(g, m_order)
            A = assemble_nonlocal_form(g, m_order)
            tol = 1e-12 * np.max(np.abs(A))
            subsets = [np.arange(g.n_nodes), rng.integers(g.n_nodes, size=1)]
            subsets += [np.flatnonzero(rng.random(g.n_nodes) < frac)
                        for frac in (0.2, 0.5, 0.8)]
            e = np.zeros(g.n_nodes)
            for idx in subsets:
                got = np.empty((len(idx), len(idx)))
                for k, j in enumerate(idx):
                    e[j] = 1.0
                    got[:, k] = form.apply(e)[idx]
                    e[j] = 0.0
                assert np.max(np.abs(got - A[np.ix_(idx, idx)]),
                              initial=0.0) <= tol

    @pytest.mark.parametrize("n_side", range(3, 13))
    def test_dct_diagonal_is_probed_form(self, n_side):
        # the basis is orthonormal under the lumped weights, and the
        # diagonal formed from the kernel and 1-D autocorrelations is
        # v A v probed on the dense matrix, for every 2-D basis vector
        g = Grid(n_side)
        for m_order in (1.25, 1.5, 2.0):
            form = ToeplitzForm.build(g, m_order)
            A = assemble_nonlocal_form(g, m_order)
            V = np.kron(form.basis, form.basis)  # column ky n + kx
            np.testing.assert_allclose(V.T @ (g.lump[:, None] * V),
                                       np.eye(g.n_nodes), atol=1e-13)
            probed = np.einsum("ik,ij,jk->k", V, A, V).reshape(n_side,
                                                                n_side)
            assert np.max(np.abs(form.dct_diag - probed)) \
                <= 1e-13 * np.max(np.abs(probed))

    def test_dct_solve_inverts_on_the_basis(self, rng):
        # P^-1 of M v (L_k + shift) is v for each basis vector v, and P^-1
        # is symmetric
        g = Grid(9)
        form = ToeplitzForm.build(g, 1.5)
        V = np.kron(form.basis, form.basis)
        shift = 0.7
        for k in rng.permutation(g.n_nodes)[:10]:
            y = g.lump * V[:, k] * (form.dct_diag.ravel()[k] + shift)
            np.testing.assert_allclose(form.dct_solve(y, shift), V[:, k],
                                       atol=1e-12)
        x, y = rng.normal(size=(2, g.n_nodes))
        assert x @ form.dct_solve(y, shift) \
            == pytest.approx(y @ form.dct_solve(x, shift), rel=1e-12)

    def test_build_forms_no_cubic_array(self):
        # set-up holds n x n tables and FFT work arrays only: its peak is
        # a few dozen nodal vectors, where one n^3 table is 64 at n_side 64
        g = Grid(64)
        tracemalloc.start()
        try:
            ToeplitzForm.build(g, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 8 * g.n_nodes

    def test_build_picks_by_size(self):
        # the benchmark's grids on either side of the crossover; the dense
        # array is the assembled matrix
        for n_side, kind in ((4, DenseForm), (12, DenseForm),
                             (27, DenseForm), (28, ToeplitzForm),
                             (32, ToeplitzForm)):
            form = nonlocal_form(Grid(n_side), 1.5)
            assert type(form) is kind, n_side
            if kind is DenseForm:
                assert np.array_equal(
                    form.A, assemble_nonlocal_form(Grid(n_side), 1.5))

    def test_nbytes_counts_what_is_held(self):
        # five n x n tables and the kernel FFT
        g = Grid(12)
        n = g.n_side
        tables = 5 * n ** 2
        assert ToeplitzForm.build(g, 1.5).nbytes \
            == 8 * (tables + 2 * n * (n + 1))
        assert nonlocal_form(g, 1.5).nbytes == 8 * n ** 4


class TestLoading:
    def test_zero_time_ramp(self):
        g = Grid(3)
        spec = ramp_loading(g, amplitude=2.0)
        w, F = eval_loading(spec, 0.0)
        assert np.allclose(w, 0.0)
        assert np.allclose(F, 0.0)

    def test_ramp_record(self):
        # the builder's lift is +0.0 everywhere and its force the
        # lump-weighted amplitude along e_y, bit for bit
        g = Grid(4)
        spec = ramp_loading(g, amplitude=-0.7)
        assert spec.lift.shape == (g.n_nodes, 2)
        assert not np.signbit(spec.lift).any() and not spec.lift.any()
        want = np.zeros((g.n_nodes, 2))
        want[:, 1] = g.lump * -0.7
        np.testing.assert_array_equal(spec.f_vec, want.ravel())

    def test_eval_scales_the_record(self):
        g = Grid(4)
        spec = ramp_loading(g, amplitude=0.48, t_final=2.0)
        for t in (0.0, 0.3, 1.7, 2.0):
            w, F = eval_loading(spec, t)
            np.testing.assert_array_equal(w, spec.lift * 0.0)
            np.testing.assert_array_equal(F, spec.f_vec * t)

    @pytest.mark.parametrize("name, value", [
        ("amplitude", np.nan), ("amplitude", np.inf),
        ("amplitude", -np.inf), ("t_final", np.nan), ("t_final", 0.0),
        ("t_final", -1.0), ("t_final", np.inf)])
    def test_ramp_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            ramp_loading(Grid(3), **{name: value})

    @pytest.mark.parametrize("t", [np.nan, -1e-9, 1.0 + 1e-9])
    def test_eval_rejects_time_outside(self, t):
        with pytest.raises(ValueError, match="outside"):
            eval_loading(ramp_loading(Grid(3)), t)


class TestStrainAndState:
    def test_zero_everything(self):
        g = Grid(3)
        B = assemble_sym_gradient(g)
        st0 = initial_state(g)
        e = total_strain(B, st0, np.zeros((g.n_nodes, 2)))
        assert np.allclose(e, 0.0)

    def test_lift_only(self):
        g = Grid(3)
        B = assemble_sym_gradient(g)
        st0 = initial_state(g)
        w = nodal_field(g, lambda x, y: (x, 0.0))
        e = total_strain(B, st0, w)
        assert np.allclose(e, np.array([1.0, 0.0, 0.0]), atol=1e-13)

    def test_deviatoric_cancellation(self, rng):
        g = Grid(3)
        B = assemble_sym_gradient(g)
        st0 = initial_state(g)
        st0.u = rng.normal(0, 0.1, (g.n_nodes, 2))
        st0.u[g.dirichlet_mask] = 0.0
        st0.p = tensor_dev(B.apply(st0.u))
        e = total_strain(B, st0, np.zeros((g.n_nodes, 2)))
        assert np.allclose(tensor_dev(e), 0.0, atol=1e-13)

    def test_state_validation(self, rng):
        g = Grid(3)
        st0 = initial_state(g)
        st0.validate(g)
        bad = st0.copy()
        bad.u[0, 0] = 1.0  # node 0 is clamped
        with pytest.raises(ValueError):
            bad.validate(g)
        bad2 = st0.copy()
        bad2.p[:, 0] = 1.0  # nonzero trace
        with pytest.raises(ValueError):
            bad2.validate(g)


@given(xi=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       eta=st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_dev_trace_orthogonality(xi, eta):
    """dev/spherical split is orthogonal in the weighted Frobenius
    pairing."""
    xi = np.array([xi])
    sph = np.array([[eta, eta, 0.0]])
    assert abs(tensor_dot(tensor_dev(xi), sph)[0]) < 1e-9
    assert abs(tensor_trace(tensor_dev(xi))[0]) < 1e-9
