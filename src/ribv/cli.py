"""Batch entry points: solve, sweep, reparam, check-gronwall, selftest,
from one command table, one {lemma: checker} table and one CSV writer.

Every output file is byte-deterministic: floats are written with
shortest round-trip repr and all iteration orders are fixed, so a
config (plus seed, where randomness is involved) pins the bytes.
"""

from __future__ import annotations

import argparse
import itertools
import os
from dataclasses import MISSING, fields

import numpy as np

from .config import RunConfig, read_pairs, read_value
from .constitutive import energy, energy_gradients, strain_at
from .discretization import Grid, State, ToeplitzForm, \
    nonlocal_double_sum, tensor_norm
from .dissipation import (
    dist_r,
    norm_p_l1,
    norm_p_l2,
    norm_u_h1,
    prox_plastic,
)
from .driver import Trajectory, run_viscous
from .gronwall import (
    GronwallInstance,
    check_gronwall_affine,
    check_gronwall_classic,
    check_gronwall_viscous,
    viscous_hypotheses,
)
from .problems import reference_problem
from .reparam import (
    bv_sweep,
    detect_jumps,
    recover_switching,
    reparam_ed,
    reparam_standard,
)

CSV_COLUMNS = ("step", "t", "s_std", "s_ed", "E_mu", "N_value", "power",
               "balance_residual", "min_z", "dual_u", "dist_z", "dist_p",
               "dnu", "dstar", "norm_u_H1", "norm_p_L1", "norm_p_L2",
               "norm_e_L2", "iterations", "accepted")
REPARAM_COLUMNS = ("step", "s_std", "s_ed", "t", "t_rate_std", "t_rate_ed",
                   "norm_std", "norm_ed", "jump_std", "jump_ed", "lambda",
                   "switch_residual")
SWEEP_COLUMNS = ("level", "eps", "nu", "mu", "max_stability_nonjump",
                 "ed_balance_residual", "contact_integral", "total_length",
                 "min_z", "n_jump_intervals", "dist_to_next")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_kv(path, pairs):
    _write_lines(path, [f"{k} = {_fmt(v)}" for k, v in pairs])


def _write_csv(path, header, rows):
    """The header line, then one line per row; ``_write_lines`` formats
    each row as it writes it."""
    _write_lines(path, (",".join(map(_fmt, row))
                        for row in itertools.chain([header], rows)))


def trajectory_rows(traj: Trajectory, ops, ptraj_std, ptraj_ed):
    """Assemble the fixed-order per-step diagnostic rows."""
    rows = []
    for k in range(len(traj.times)):
        st = traj.states[k]
        dd = traj.dual_diag[k]
        rows.append((
            k, traj.times[k], ptraj_std.s[k], ptraj_ed.s[k],
            traj.E_mu[k], traj.N_value[k], traj.power[k],
            traj.balance_residual_cum[k], float(st.z.min()),
            dd.dual_u, dd.dist_z, dd.dist_p, traj.dnu[k], dd.d_nu_star,
            norm_u_h1(ops, st.u), norm_p_l1(ops.grid, st.p),
            norm_p_l2(ops.grid, st.p), norm_p_l2(
                ops.grid, strain_at(traj.times[k], st, ops, traj.loading)[2]),
            int(traj.iterations[k]), bool(traj.accepted[k]),
        ))
    return rows


def _solve_from_config(cfg: RunConfig):
    """(ops, ep, traj, ptraj_std, ptraj_ed): the config's viscous run and
    its standard and energy-dissipation reparameterizations."""
    _, mat, ops, ep, loading, init = cfg.build()
    traj = run_viscous(ops, mat, ep, loading, init,
                       n_steps=cfg.n_steps, tol_stat=cfg.tol_stat)
    return ops, ep, traj, reparam_standard(traj, ops), reparam_ed(traj, ops)


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    ops, ep, traj, ptraj_std, ptraj_ed = _solve_from_config(cfg)
    rows = trajectory_rows(traj, ops, ptraj_std, ptraj_ed)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), CSV_COLUMNS, rows)
    _write_kv(os.path.join(out_dir, "summary.txt"), [
        ("command", "solve"),
        ("eps", ep.eps), ("nu", ep.nu), ("mu", ep.mu),
        ("n_steps", traj.n_steps), ("t_final", ep.t_final),
        ("aborted_at", -1 if traj.aborted_at is None else traj.aborted_at),
        ("z_floor_hit", traj.z_floor_hit),
        ("final_energy", traj.E_mu[-1]),
        ("max_balance_residual", float(traj.balance_residual_cum.max())),
        ("min_z", float(min(st.z.min() for st in traj.states))),
        ("total_length_std", float(ptraj_std.s[-1])),
        ("total_length_ed", float(ptraj_ed.s[-1])),
        ("total_iterations", int(traj.iterations.sum())),
    ])
    return 0 if traj.aborted_at is None else 1


def cmd_reparam(cfg: RunConfig, out_dir: str) -> int:
    ops, ep, traj, p_std, p_ed = _solve_from_config(cfg)
    lams, resid = recover_switching(p_std, ops)
    jump_s, jump_e = p_std.jumps(), p_ed.jumps()
    _write_csv(os.path.join(out_dir, "reparam.csv"), REPARAM_COLUMNS, (
        (k, p_std.s[k], p_ed.s[k], traj.times[k], p_std.t_rate[k],
         p_ed.t_rate[k], p_std.normalization[k], p_ed.normalization[k],
         jump_s[k], jump_e[k], lams[k], resid[k])
        for k in range(p_std.n_knots)))

    jumps_std, jumps_ed = detect_jumps(p_std), detect_jumps(p_ed)
    dev_std, dev_ed = (float(np.abs(p.normalization[1:] - 1.0).max(
        initial=0.0)) for p in (p_std, p_ed))
    _write_kv(os.path.join(out_dir, "summary.txt"), [
        ("command", "reparam"),
        ("eps", ep.eps), ("nu", ep.nu), ("mu", ep.mu),
        ("n_steps", traj.n_steps),
        ("aborted_at", -1 if traj.aborted_at is None else traj.aborted_at),
        ("total_length_std", float(p_std.s[-1])),
        ("total_length_ed", float(p_ed.s[-1])),
        ("max_normalization_deviation_std", dev_std),
        ("max_normalization_deviation_ed", dev_ed),
        ("n_jump_intervals_std", len(jumps_std)),
        ("n_jump_intervals_ed", len(jumps_ed)),
        ("jump_intervals_std",
         ";".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in jumps_std)),
        ("jump_intervals_ed",
         ";".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in jumps_ed)),
        ("max_switch_residual", float(resid[1:].max(initial=0.0))),
    ])
    return 0 if traj.aborted_at is None else 1


def cmd_sweep(cfg: RunConfig, out_dir: str) -> int:
    _, mat, ops, _, loading, init = cfg.build()
    report = bv_sweep(ops, mat, loading, init, cfg.regime, cfg.ladder(),
                      n_steps=cfg.n_steps, tol_stat=cfg.tol_stat)
    dists = report.pairwise_sup_distance + [float("nan")]
    _write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_COLUMNS, (
        (i, *lv.params, lv.max_stability_nonjump, lv.ed_balance_residual,
         lv.contact_integral, lv.total_length, lv.min_z,
         len(lv.jump_intervals), dist)
        for i, (lv, dist) in enumerate(zip(report.levels, dists))))

    stabs = [lv.max_stability_nonjump for lv in report.levels]
    ratios = [a / b if b > 0 else float("inf")
              for a, b in zip(stabs, stabs[1:])]
    _write_kv(os.path.join(out_dir, "summary.txt"), [
        ("command", "sweep"),
        ("regime", report.regime),
        ("n_levels", len(report.levels)),
        ("n_steps", cfg.n_steps),
        ("stability_values", ";".join(_fmt(x) for x in stabs)),
        ("stability_decay_ratios", ";".join(_fmt(x) for x in ratios)),
        ("pairwise_sup_distances",
         ";".join(_fmt(x) for x in report.pairwise_sup_distance)),
        ("min_stability_decay_ratio",
         min(ratios) if ratios else float("inf")),
    ])
    return 0


# ---------------------------------------------------------------------------
# gronwall instance files
# ---------------------------------------------------------------------------

# lemma -> its checker, which returns (hypotheses_ok, bound, holds)
_CHECKERS = {"classic": check_gronwall_classic,
             "affine": check_gronwall_affine,
             "viscous": check_gronwall_viscous}


def parse_gronwall_instances(text: str) -> list[GronwallInstance]:
    """Instance file: blocks of config lines (``config.read_pairs``)
    separated by `---` lines, one key per field of ``GronwallInstance``;
    `lemma` picks the checker.  Line numbers count in the whole file."""
    lines = text.splitlines()
    cuts = [i for i, raw in enumerate(lines)
            if set(raw.split("#", 1)[0].strip()) == {"-"}]
    known = {f.name: f for f in fields(GronwallInstance)}
    out = []
    for a, b in zip([-1] + cuts, cuts + [len(lines)]):
        kw = {}
        for ln, key, val in read_pairs("\n".join(lines[a + 1:b]), a + 2):
            if key not in known:
                raise ValueError(f"line {ln}: unknown instance key {key!r}")
            # a sequence field (no plain default) reads comma-separated
            # floats, any other field its default's type
            default = known[key].default
            kw[key] = read_value(ln, key, val, (
                lambda v: np.array([float(x) for x in v.split(",")]))
                if default is MISSING else type(default))
        if not kw:
            continue
        if kw.get("lemma") not in _CHECKERS:
            raise ValueError(f"each instance needs lemma = "
                             f"{' | '.join(_CHECKERS)}, got "
                             f"{kw.get('lemma')!r}")
        out.append(GronwallInstance(**kw))
    return out


def cmd_check_gronwall(instance_path: str, out_dir: str) -> int:
    with open(instance_path, "r", encoding="utf-8") as fh:
        instances = parse_gronwall_instances(fh.read())
    lines = []
    n_fail = 0
    for i, inst in enumerate(instances):
        hyp_ok, _, holds = _CHECKERS[inst.lemma](inst)
        # the viscous lemma names each violated hypothesis
        msgs = [] if hyp_ok else viscous_hypotheses(inst)[1] \
            if inst.lemma == "viscous" else ["hypotheses violated"]
        # vacuous truth: an instance violating the hypotheses cannot
        # witness a failure of the lemma
        fail = hyp_ok and not holds
        n_fail += fail
        status = "FAIL" if fail else "PASS"
        detail = "" if not msgs else " [" + "; ".join(msgs) + "]"
        lines.append(f"instance {i}: lemma={inst.lemma} "
                     f"hypotheses={'ok' if hyp_ok else 'violated'} "
                     f"bound={'holds' if holds else 'violated'} "
                     f"{status}{detail}")
    lines.append(f"checked {len(instances)} instances, {n_fail} failures")
    _write_lines(os.path.join(out_dir, "gronwall_report.txt"), lines)
    for line in lines:
        print(line)
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# selftest: quick seeded brute-force oracles
# ---------------------------------------------------------------------------

def _selftest_gradients(rng) -> tuple[bool, str]:
    grid, mat, ops, _, loading, _ = reference_problem(n_side=3,
                                                      amplitude=0.3)
    worst = 0.0
    for _ in range(20):
        st = State(u=rng.normal(0, 0.05, (grid.n_nodes, 2)),
                   z=rng.uniform(0.6, 0.95, grid.n_nodes),
                   p=rng.normal(0, 0.05, (grid.n_cells, 3)))
        st.u[grid.dirichlet_mask] = 0.0
        t = rng.uniform(0.2, 0.8)
        g_u, g_z, _ = energy_gradients(t, st, ops, mat, 0.1, loading)
        h = 1e-6
        for _ in range(3):
            du = np.zeros(2 * grid.n_nodes)
            j = rng.integers(len(grid.free_dofs))
            du[grid.free_dofs[j]] = h
            stp = st.copy()
            stm = st.copy()
            stp.u = (st.u.ravel() + du).reshape(-1, 2)
            stm.u = (st.u.ravel() - du).reshape(-1, 2)
            fd = (energy(t, stp, ops, mat, 0.1, loading)
                  - energy(t, stm, ops, mat, 0.1, loading)) / (2 * h)
            worst = max(worst, abs(fd - g_u[j]) / max(1.0, abs(g_u[j])))
        i = rng.integers(grid.n_nodes)
        stp, stm = st.copy(), st.copy()
        stp.z[i] += h
        stm.z[i] -= h
        fd = (energy(t, stp, ops, mat, 0.1, loading)
              - energy(t, stm, ops, mat, 0.1, loading)) / (2 * h)
        worst = max(worst, abs(fd - grid.lump[i] * g_z[i])
                    / max(1.0, abs(g_z[i])))
    ok = worst < 1e-5
    return ok, f"energy gradient vs central differences: rel err {worst:.2e}"


def _selftest_prox(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        p_prev = rng.normal(0, 1, 3)
        p_prev[1] = -p_prev[0]
        ebar = rng.normal(0, 1, 3)
        ebar[1] = -ebar[0]
        a, b, mu_w, c_q = rng.uniform(0.01, 2.0, 4)

        def obj(pi):
            d = pi - p_prev
            return (a * tensor_norm(d[None])[0]
                    + 0.5 * b * tensor_norm(d[None])[0] ** 2
                    + 0.5 * mu_w * tensor_norm(pi[None])[0] ** 2
                    + 0.5 * c_q * tensor_norm((ebar - pi)[None])[0] ** 2)

        pi_star = prox_plastic(p_prev[None], ebar[None],
                               np.array([a]), np.array([b]),
                               np.array([mu_w]), np.array([c_q]))[0]
        f_star = obj(pi_star)
        for _ in range(60):
            step = rng.normal(0, rng.uniform(1e-4, 0.5), 3)
            step[1] = -step[0]
            worst = max(worst, f_star - obj(pi_star + step))
    ok = worst < 1e-10
    return ok, f"plastic proximal map vs random competitors: " \
               f"max excess {worst:.2e}"


def _selftest_nonlocal(rng) -> tuple[bool, str]:
    # both forms: the dense one that Operators holds at this size, and
    # the FFT product of the large grids, built directly
    grid, mat, ops, _, _, _ = reference_problem(n_side=3)
    fft = ToeplitzForm.build(grid, mat.m_order)
    worst = 0.0
    for _ in range(10):
        z1 = rng.uniform(0.2, 1.0, grid.n_nodes)
        z2 = rng.uniform(0.2, 1.0, grid.n_nodes)
        brute = nonlocal_double_sum(grid, mat.m_order, z1, z2)
        for quad in (z1 @ ops.apply_A_m(z2), z1 @ fft.apply(z2)):
            worst = max(worst, abs(quad - brute) / max(1.0, abs(brute)))
    ok = worst < 1e-12
    return ok, f"nonlocal form (dense and FFT) vs brute-force double " \
               f"sum: rel err {worst:.2e}"


def _selftest_dist(rng) -> tuple[bool, str]:
    grid = Grid(3)
    worst = 0.0
    for _ in range(30):
        chi = rng.normal(0, 0.1, grid.n_nodes)
        kappa = rng.uniform(0.01, 0.2)
        d = dist_r(grid, chi, kappa)
        # the admissible set is chi >= -kappa nodewise; the lumped-L2
        # projection is nodewise clipping
        proj = np.maximum(chi, -kappa)
        brute = float(np.sqrt(np.sum(grid.lump * (chi - proj) ** 2)))
        worst = max(worst, abs(d - brute))
    ok = worst < 1e-12
    return ok, f"damage dual-constraint distance vs clipping " \
               f"projection: err {worst:.2e}"


def _selftest_balance(_rng) -> tuple[bool, str]:
    _, mat, ops, ep, loading, init = reference_problem(
        n_side=3, n_steps=10, amplitude=0.4)
    traj = run_viscous(ops, mat, ep, loading, init, n_steps=10)
    ok = traj.aborted_at is None \
        and float(traj.balance_residual_cum.max()) < 1e-2
    return ok, f"short viscous run balance residual " \
               f"{float(traj.balance_residual_cum.max()):.2e}"


def cmd_selftest(seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    checks = [
        ("gradients", _selftest_gradients),
        ("prox", _selftest_prox),
        ("nonlocal", _selftest_nonlocal),
        ("dual-distance", _selftest_dist),
        ("balance", _selftest_balance),
    ]
    n_fail = 0
    for name, fn in checks:
        ok, msg = fn(rng)
        n_fail += not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {msg}")
    print(f"selftest: {len(checks) - n_fail}/{len(checks)} passed")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------

# the commands of a run config: name -> command(cfg, out_dir)
_RUN_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep,
                 "reparam": cmd_reparam}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ribv",
        description="coupled elasto-plastic damage evolution: viscous "
                    "solves, arclength reparameterization, and "
                    "vanishing-parameter sweeps")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _RUN_COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=False, default=None)
        sp.add_argument("--out", required=True)
    gp = sub.add_parser("check-gronwall")
    gp.add_argument("--config", required=True,
                    help="instance file of lemma data blocks")
    gp.add_argument("--out", required=True)
    st = sub.add_parser("selftest")
    st.add_argument("--seed", type=int, default=0)

    args = ap.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args.seed)

    os.makedirs(args.out, exist_ok=True)
    if args.command == "check-gronwall":
        return cmd_check_gronwall(args.config, args.out)

    cfg = RunConfig.load(args.config) if args.config \
        else RunConfig.defaults()
    return _RUN_COMMANDS[args.command](cfg, args.out)
