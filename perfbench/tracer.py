"""Spans and call counts around the public functions of each ribv module.

The hooks live here, in the benchmark, and are installed by replacing
the module attributes for the duration of one run; nothing inside
``src/ribv`` is edited.  A function imported by name into several ribv
modules (``from .driver import run_viscous``) is replaced in every module
that binds it, so calls through any of those names are seen.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  The span name is "<layer>.<function>"
# with the module's name as the layer.  Attributes a later version of the
# program no longer has are skipped, and their metrics read 0.
TRACED = (
    ("ribv.discretization", "Grid.__post_init__", "discretization.Grid"),
    ("ribv.discretization", "assemble_sym_gradient",
     "discretization.assemble_sym_gradient"),
    ("ribv.discretization", "assemble_nonlocal_form",
     "discretization.assemble_nonlocal_form"),
    ("ribv.constitutive", "Operators.build", "constitutive.Operators.build"),
    ("ribv.constitutive", "energy", "constitutive.energy"),
    ("ribv.constitutive", "energy_gradients",
     "constitutive.energy_gradients"),
    ("ribv.constitutive", "energy_time_derivative",
     "constitutive.energy_time_derivative"),
    ("ribv.constitutive", "damage_potential",
     "constitutive.damage_potential"),
    ("ribv.dissipation", "prox_plastic_cells",
     "dissipation.prox_plastic_cells"),
    ("ribv.dissipation", "dual_diagnostics", "dissipation.dual_diagnostics"),
    ("ribv.solver", "incremental_step", "solver.incremental_step"),
    ("ribv.solver", "solve_up_step", "solver.solve_up_step"),
    ("ribv.solver", "solve_z_step", "solver.solve_z_step"),
    ("ribv.solver", "el_residuals", "solver.el_residuals"),
    ("ribv.solver", "incremental_functional",
     "solver.incremental_functional"),
    ("ribv.driver", "run_viscous", "driver.run_viscous"),
    ("ribv.driver", "pre_relax", "driver.pre_relax"),
    ("ribv.driver", "_power_integral", "driver.power_integral"),
    ("ribv.reparam", "reparam_standard", "reparam.reparam_standard"),
    ("ribv.reparam", "reparam_ed", "reparam.reparam_ed"),
    ("ribv.reparam", "recover_switching", "reparam.recover_switching"),
    ("ribv.reparam", "bv_sweep", "reparam.bv_sweep"),
    ("ribv.reparam", "ed_balance_residual_bv",
     "reparam.ed_balance_residual_bv"),
    ("ribv.reparam", "_align_z_curves", "reparam.align_z_curves"),
    ("ribv.config", "RunConfig.parse", "config.RunConfig.parse"),
    ("ribv.config", "RunConfig.build", "config.RunConfig.build"),
    ("ribv.cli", "cmd_solve", "cli.cmd_solve"),
    ("ribv.cli", "cmd_reparam", "cli.cmd_reparam"),
    ("ribv.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("ribv.cli", "trajectory_rows", "cli.trajectory_rows"),
    ("ribv.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("ribv.cli", "_write_kv", "cli.write_kv"),
    ("ribv.cli", "_write_lines", "cli.write_lines"),
)

# Spans that together make up the output stage of a command.
OUTPUT_SPANS = ("cli.trajectory_rows", "cli.write_trajectory_csv",
                "cli.write_kv", "cli.write_lines")


class Patches:
    """Context manager that swaps ribv functions for wrappers and puts the
    originals back on exit."""

    def __init__(self):
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
        return False

    def wrap(self, module_name: str, attr: str, make) -> bool:
        """Replace ``module.attr`` (a function, or ``Class.method``) by
        ``make(original)``.  Returns False when the target is missing."""
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return True
        orig = getattr(module, attr, None)
        if orig is None:
            return False
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ribv" and not mod_name.startswith("ribv."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, new)
        return True


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent],
    parent being the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrapper(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1]])
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            return traced
        return make

    def install(self, patches: Patches) -> None:
        for module_name, attr, name in TRACED:
            patches.wrap(module_name, attr, self.wrapper(name))


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a no-op called through a Tracer
    wrapper against the bare no-op, best of three rounds."""
    def noop():
        return None

    traced = Tracer().wrapper("noop")(noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            traced()
        t1 = clock()
        for _ in range(calls):
            noop()
        t2 = clock()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return best


def write_spans_csv(spans, path) -> None:
    """Spans as CSV, times in seconds from the first span's start."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        t_ref = spans[0][1] if spans else 0.0
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{t0 - t_ref:.9f},"
                     f"{t1 - t_ref:.9f}\n")


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def span_table(spans) -> dict:
    """Per span name: calls, busy seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds (duration
    minus the direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += t1 - t0
    return table


def children_per_call(spans, parent_name: str, child_name: str) -> list[int]:
    """For every span named parent_name, the number of direct child spans
    named child_name."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name}
    for name, _, _, parent in spans:
        if name == child_name and parent in counts:
            counts[parent] += 1
    return [counts[i] for i in sorted(counts)]


def outermost_time(spans, names) -> float:
    """Summed duration of the spans named in `names` that do not sit
    inside another span of that group."""
    names = set(names)
    total = 0.0
    for name, t0, t1, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += t1 - t0
    return total


def step_latencies_ms(spans) -> list[float]:
    return [1e3 * (t1 - t0) for name, t0, t1, _ in spans
            if name == "solver.incremental_step"]

