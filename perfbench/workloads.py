"""Workload configs, seeded perturbations and the correctness gate.

Every workload is one ribv batch command (``cli.cmd_solve``,
``cmd_reparam`` or ``cmd_sweep``) run on config text generated here; the
program receives nothing else.  A run makes passes over a batch of
configs 0 .. batch-1:

- config 0 is drawn from the run's seed (the nominal config at seed 0);
- configs 1 .. batch-1 are a fixed ensemble, the same for every seed.

A drawn config perturbs ``load_amplitude`` by up to a relative
LOAD_SPREAD and ``z0`` by up to an absolute Z0_SPREAD; those ranges keep
each workload in its regime (the mild ramp stays elastic-to-plastic, the
damaging ramp keeps ~20 sweeps in its hardest steps).  The cost of the
damaging ramp is chaotic in its input: a change in the last digit moves
its line-search work by tens of percent.  That workload therefore times
a batch of ten configs: the shared ensemble makes runs of one program
comparable across seeds, and config 0 keeps every seed's inputs its own.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

LOAD_SPREAD = 0.01
Z0_SPREAD = 0.002
Z0_NOMINAL = 0.95

# Seed-0 outputs are compared with the files under reference/<workload>/,
# written by the seed commit.  Solver-path counts (sweep totals) are not
# compared: a different but equally converged path changes them.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
SKIP_COLUMNS = {"iterations", "total_iterations"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # ribv.cli.cmd_<command>
    config: dict
    outputs: tuple          # files the command writes, checked at seed 0
    batch: int = 1          # configs per pass: 0 from the seed, the rest
                            # from the shared ensemble
    # Times are multiplied by the calibration factor to this power: how
    # strongly the workload's seconds follow the kernel's (calibration.py).
    speed_power: float = 1.0


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve_n12", "solve",
        {"grid_n": 12, "n_steps": 10, "load_amplitude": 0.48},
        ("trajectory.csv", "summary.txt"),
        # its einsum Hessian slows less than the kernel on a slow machine:
        # over 20 runs log raw run_s against log mean kernel seconds had
        # slope 0.74
        speed_power=0.75),
    Workload(
        "reparam_damage", "reparam",
        {"grid_n": 4, "n_steps": 20, "load_amplitude": 1.2},
        ("reparam.csv", "summary.txt"), batch=10),
    Workload(
        "sweep_ladder", "sweep",
        {"grid_n": 4, "n_steps": 20, "load_amplitude": 0.48, "nu": 0.1,
         "mu": 0.1, "regime": "eps0", "ladder_eps": "1e-1,1e-2,1e-3"},
        ("sweep.csv", "summary.txt")),
    Workload(
        "build_n32", "solve",
        {"grid_n": 32, "n_steps": 1, "load_kind": "zero"},
        ("trajectory.csv", "summary.txt", "probe.txt"),
        # its large-array work slows less than the kernel on a slow
        # machine: over 47 repetitions in one run, log command seconds
        # against log mean kernel seconds had slope 0.77 (set-up: 0.46)
        speed_power=0.75),
)}


def config_values(workload: Workload, seed: int, index: int) -> dict:
    values = dict(workload.config)
    values.setdefault("z0", Z0_NOMINAL)
    values.setdefault("load_amplitude", 0.48)
    if seed == 0 and index == 0:
        return values
    # str seeding hashes the text, so the draw is stable across Python
    # versions and independent of PYTHONHASHSEED
    rng = random.Random(f"{workload.name}:seed:{seed}" if index == 0
                        else f"{workload.name}:ensemble:{index}")
    values["load_amplitude"] *= 1.0 + rng.uniform(-LOAD_SPREAD, LOAD_SPREAD)
    values["z0"] += rng.uniform(-Z0_SPREAD, Z0_SPREAD)
    return values


def config_text(workload: Workload, seed: int, index: int) -> str:
    lines = [f"# {workload.name} seed {seed} config {index}"]
    for key, value in config_values(workload, seed, index).items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def trajectory_failures(trajs, tol_stat: float) -> list[str]:
    """Gate on the viscous runs a command made: none aborted, every step
    accepted, every step's EL residual within tol_stat."""
    if not trajs:
        return ["the command made no viscous run"]
    out = []
    for i, tr in enumerate(trajs):
        if tr.aborted_at is not None:
            out.append(f"run {i}: aborted at step {tr.aborted_at}")
        if not all(bool(a) for a in tr.accepted):
            out.append(f"run {i}: a step was not accepted")
        worst = max((max(r) for r in tr.el_residuals[1:]), default=0.0)
        if not worst <= tol_stat:
            out.append(f"run {i}: EL residual {worst!r} > tol_stat "
                       f"{tol_stat!r}")
    return out


def read_kv(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(" = ")
            out[key] = value
    return out


def _read_table(path) -> dict:
    """CSV as {column: [cells]}, or a key = value file as {key: [value]}."""
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return {col: [r[j] for r in rows[1:]]
                for j, col in enumerate(rows[0])}
    return {k: [v] for k, v in read_kv(path).items()}


def _cells_match(got: str, ref: str) -> bool:
    got_parts, ref_parts = got.split(";"), ref.split(";")
    if len(got_parts) != len(ref_parts):
        return False
    for g, r in zip(got_parts, ref_parts):
        try:
            gv, rv = float(g), float(r)
        except ValueError:
            if g != r:
                return False
            continue
        if math.isnan(rv) or math.isinf(rv):
            if not (g == r or (math.isnan(gv) and math.isnan(rv))):
                return False
        elif not abs(gv - rv) <= REF_ATOL + REF_RTOL * abs(rv):
            return False
    return True


def reference_failures(workload: Workload, out_dir: str,
                       ref_dir: str) -> list[str]:
    """Compare every output file with the seed-commit reference, cell by
    cell, numbers within REF_RTOL / REF_ATOL."""
    out = []
    for fname in workload.outputs:
        got_path = os.path.join(out_dir, fname)
        ref_path = os.path.join(ref_dir, fname)
        if not (os.path.exists(got_path) and os.path.exists(ref_path)):
            out.append(f"{fname}: output or reference missing")
            continue
        got, ref = _read_table(got_path), _read_table(ref_path)
        for col, ref_cells in ref.items():
            if col in SKIP_COLUMNS:
                continue
            cells = got.get(col)
            if cells is None or len(cells) != len(ref_cells):
                out.append(f"{fname}: {col} missing or of another length")
                continue
            bad = [i for i, (g, r) in enumerate(zip(cells, ref_cells))
                   if not _cells_match(g, r)]
            if bad:
                i = bad[0]
                out.append(f"{fname}: {col}[{i}] = {cells[i]} against "
                           f"reference {ref_cells[i]}")
    return out


def write_probe(path, built, load_amplitude: float) -> None:
    """Dual norms of the ramp load at t = 1 on the initial state: a cheap
    check of the assembled strain, nonlocal and K_D operators at a size
    where no loaded solve is affordable."""
    from ribv.constitutive import MaterialParams, Operators
    from ribv.dissipation import dual_diagnostics
    from ribv.discretization import Grid, State
    from ribv.problems import ramp_loading

    def pick(cls):
        return next(x for x in built if isinstance(x, cls))

    grid, ops, init = pick(Grid), pick(Operators), pick(State)
    mat = pick(MaterialParams)
    dd = dual_diagnostics(1.0, init, ops, mat, 0.01, 0.01,
                          ramp_loading(grid, amplitude=load_amplitude))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in ("dual_u", "dist_z", "dist_p", "d_nu_star"):
            fh.write(f"{key} = {getattr(dd, key)!r}\n")

