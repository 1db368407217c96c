"""Switching-coefficient recovery along a reparameterized trajectory.

Inside a jump interval the limiting rates solve a convex combination
of the stable system and a gradient-flow system; the coefficient
lambda in [0, 1] tells which regime governs each knot.  The recovery
is a per-knot least-squares fit of the optimality system.  On stable
(non-jump) knots lambda ~ 0 with tiny residual; inside a fast
transition the fit reports intermediate values.
"""

from ribv.driver import run_viscous
from ribv.problems import reference_problem
from ribv.reparam import detect_jumps, recover_switching, reparam_standard

grid, mat, ops, ep, loading, init = reference_problem(
    n_side=4, n_steps=20, amplitude=0.48, eps=1e-4, nu=1e-4, mu=1e-4)
traj = run_viscous(ops, mat, ep, loading, init, n_steps=20)
ptraj = reparam_standard(traj, ops)

lams, resid = recover_switching(ptraj, ops)
jumps = detect_jumps(ptraj)
in_jump = ptraj.jumps()

print(f"{'s':>9} {'t':>7} {'t_rate':>9} {'lambda':>8} {'residual':>10}"
      f"  {'jump':>4}")
for k in range(1, ptraj.n_knots):
    print(f"{ptraj.s[k]:9.3f} {traj.times[k]:7.3f} "
          f"{ptraj.t_rate[k]:9.2e} {lams[k]:8.4f} {resid[k]:10.2e}  "
          f"{'*' if in_jump[k] else ''}")

print()
print(f"detected jump intervals: {len(jumps)}")
