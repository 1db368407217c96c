"""The reference problem, which every command, demo and test solves.

The reference ramp problem pulls a left-clamped unit square with a
linearly growing body force.  Its material is ``MaterialParams()``,
whose defaults are tuned so that a short run passes through all three
phases: elastic, plastic flow, and damage growth, without ever hitting
the damage floor.  ``reference_problem`` is the one builder of the
problem; ``RunConfig.build`` calls it with a config's values, and
amplitude 0 gives the unloaded problem.
"""

from __future__ import annotations

import numpy as np

from .constitutive import EnergyParams, MaterialParams, Operators
from .discretization import Grid, LoadingSpec, initial_state


def ramp_loading(grid: Grid, amplitude: float = 1.0,
                 t_final: float = 1.0) -> LoadingSpec:
    """Transverse body-force ramp F(t) = t * amplitude * e_y with zero
    Dirichlet data: a clamped block loaded in bending/shear, so yielding
    stays contained near the clamped edge instead of forming a
    through-thickness mechanism.  The lift is the zero field and the
    force the lump-weighted amplitude along e_y; a non-finite amplitude
    or a t_final that is not positive and finite raises ValueError."""
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not 0 < t_final < np.inf:
        raise ValueError("t_final must be positive")
    f0 = np.zeros((grid.n_nodes, 2))
    f0[:, 1] = amplitude
    return LoadingSpec(
        lift=np.zeros((grid.n_nodes, 2)),
        theta=lambda t: 0.0,
        f_vec=(grid.lump[:, None] * f0).ravel(),
        phi=lambda t: t,
        t_final=t_final,
    )


def reference_material() -> MaterialParams:
    """Constants of the reference ramp problem."""
    return MaterialParams()


def reference_problem(n_side: int = 4, eps: float = 1e-2, nu: float = 1e-2,
                      mu: float = 1e-2, n_steps: int = 20,
                      amplitude: float = 0.48, t_final: float = 1.0,
                      z0: float = 0.95,
                      mat: MaterialParams = MaterialParams()):
    """Return (grid, mat, ops, ep, loading, init_state) for the reference
    ramp from a uniform damage z0 in [Z_FLOOR, 1]; z0 = 1 is the undamaged
    body; ep is ``EnergyParams.uniform``'s, which checks n_steps."""
    ep = EnergyParams.uniform(eps, nu, mu, t_final, n_steps)
    grid = Grid(n_side)
    ops = Operators.build(grid, mat)
    loading = ramp_loading(grid, amplitude=amplitude, t_final=t_final)
    return grid, mat, ops, ep, loading, initial_state(grid, z0=z0)
