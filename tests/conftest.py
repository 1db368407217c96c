import numpy as np
import pytest

from ribv.constitutive import Operators
from ribv.discretization import Grid, State
from ribv.problems import reference_material


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid3():
    return Grid(3)


@pytest.fixture
def mat():
    return reference_material()


@pytest.fixture
def ops3(grid3, mat):
    return Operators.build(grid3, mat)


def random_state(grid, rng, u_scale=0.05, z_lo=0.5, z_hi=0.95,
                 p_scale=0.05):
    """Admissible random state: u zero on the clamped edge, z in
    (z_lo, z_hi], p trace-free."""
    u = rng.normal(0.0, u_scale, (grid.n_nodes, 2))
    u[grid.dirichlet_mask] = 0.0
    z = rng.uniform(z_lo, z_hi, grid.n_nodes)
    p = rng.normal(0.0, p_scale, (grid.n_cells, 3))
    p[:, 1] = -p[:, 0]
    return State(u=u, z=z, p=p)


def random_rate(grid, rng, scale=0.1, z_down=True):
    """Random rate triple with nonpositive damage rate (admissible for
    the dissipation potential)."""
    from ribv.dissipation import Rate
    u = rng.normal(0.0, scale, (grid.n_nodes, 2))
    u[grid.dirichlet_mask] = 0.0
    z = -np.abs(rng.normal(0.0, scale, grid.n_nodes)) if z_down \
        else rng.normal(0.0, scale, grid.n_nodes)
    p = rng.normal(0.0, scale, (grid.n_cells, 3))
    p[:, 1] = -p[:, 0]
    return Rate(u_rate=u, z_rate=z, p_rate=p)
