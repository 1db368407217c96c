"""ribv benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload solve_n12 --seed 0 --seconds 28 \
        --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 a run times set-up (``RunConfig.parse`` + ``build``)
alone, then makes passes of set-up plus the workload's ``ribv.cli``
command over the workload's batch of configs for about --seconds, and
reports the end-to-end metrics named in BENCHMARK.json, rescaled to a
reference machine speed (calibration.py) unless the workload opts out.
With --trace 1 it runs the seed's first config traced, untraced,
traced, traced, untraced, traced, ... and reports the per-layer metrics,
the tracing overhead and the determinism checks.  The last line of
standard output is one JSON object; everything a run writes goes under
.perfbench/ in the checkout.
"""

import os

# One BLAS thread, set before numpy loads: it keeps the thread count at
# or below nproc on any machine, and the output bytes depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
from calibration import NEIGHBOURS, SpeedProbe  # noqa: E402
from workloads import (WORKLOADS, config_text, read_kv,  # noqa: E402
                       reference_failures, trajectory_failures, write_probe)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5
SETUP_PHASE_S = 1.0
MAX_SETUPS = 500
# Set-up is timed again for SETUP_BURST_S every SETUP_BURST_GAP_S, where
# one set-up is shorter than that: machine speed drifts within a run, and
# a median over set-ups from one moment moved by 20% between runs.
SETUP_BURST_S = 0.2
SETUP_BURST_GAP_S = 1.0
# quantile of the per-step latencies reported as step_ms.tail
TAIL_Q = 0.9
# A command still running this long after start is stopped and counted
# as failed, so the process ends within 180 s whatever the program does.
HARD_LIMIT_S = 160.0
# glibc places a block below its mmap threshold in the heap, where it
# stays resident after it is freed until a later block reuses it, and it
# raises that threshold as a process frees large blocks.  So the peak RSS
# of build_n32 depended on the order of earlier frees: it took values
# 30 MB apart between identical runs, with the threshold left to glibc
# or fixed at 32 MiB.  Fixed at 4 MiB, every operator-sized array gets a
# mapping of its own that is returned when it is freed, and peak RSS is
# the peak of the live arrays.
MMAP_THRESHOLD = 4 << 20
M_MMAP_THRESHOLD = -3
clock = time.perf_counter
PROCESS_START = clock()


def pin_mmap_threshold() -> bool:
    try:
        return bool(ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD,
                                              MMAP_THRESHOLD))
    except (OSError, AttributeError):  # no glibc
        return False


def import_ribv():
    src = ROOT / "src"
    if not (src / "ribv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ribv sources under {src}")
    sys.path.insert(0, str(src))
    import ribv
    import ribv.cli  # noqa: F401  (loads every module the hooks patch)
    if Path(ribv.__file__).resolve().parent != (src / "ribv").resolve():
        raise SystemExit(f"perfbench: imported ribv from {ribv.__file__}, "
                         f"not from {src}")
    return ribv


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in ln.lower()
                        and ln.split()[-1].startswith("/")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[os.path.basename(path)] = int(getattr(lib, sym)())
                break
    return out


def git_commit():
    """HEAD of the checkout's own .git, read from its files; None where
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ribv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_cfg.get('name')} {blas_cfg.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
    }


# ---------------------------------------------------------------------------
# one repetition: set-up, command, gate
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    index: int
    traced: bool
    setup_s: float
    run_s: float
    setup_at: tuple         # (start, end) clock readings of set-up
    run_at: tuple           # and of the command
    wall_s: float
    failures: list
    digest: str
    balance_residual: float
    outer_sweeps: int
    steps: int
    output_bytes: int
    operator_bytes: int
    spans: list = field(default_factory=list, repr=False)


def _capture(store):
    def make(fn):
        @functools.wraps(fn)
        def run_viscous(*args, **kwargs):
            traj = fn(*args, **kwargs)
            store.append(traj)
            return traj
        return run_viscous
    return make


def _hand_out(built):
    """RunConfig.build that returns the set-up's inputs once, so the
    command starts from them and run_s holds no second build."""
    left = [built]

    def make(fn):
        @functools.wraps(fn)
        def build(self, *args, **kwargs):
            return left.pop() if left else fn(self, *args, **kwargs)
        return build
    return make


def operator_bytes(built) -> int:
    """Bytes of the arrays an Operators object holds, computed from their
    shapes (dense arrays, or the data/index arrays of sparse ones)."""
    from ribv.constitutive import Operators

    ops = next((x for x in built if isinstance(x, Operators)), None)
    total = 0
    for value in vars(ops).values() if ops is not None else ():
        if hasattr(value, "indptr"):
            total += value.data.nbytes + value.indices.nbytes \
                + value.indptr.nbytes
        elif hasattr(value, "nbytes"):
            total += value.nbytes
    return total


def digest_dir(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def run_rep(ribv, workload, seed: int, index: int, out_dir: Path,
            traced: bool) -> Rep:
    from ribv.config import RunConfig

    text = config_text(workload, seed, index)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = tr.Tracer() if traced else None
    trajs = []
    failures = []
    t_start = clock()
    with tr.Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        t0 = clock()
        cfg = RunConfig.parse(text)
        built = cfg.build()
        t1 = clock()
        patches.wrap("ribv.driver", "run_viscous", _capture(trajs))
        patches.wrap("ribv.config", "RunConfig.build", _hand_out(built))
        command = getattr(ribv.cli, "cmd_" + workload.command)
        signal.setitimer(signal.ITIMER_REAL,
                         max(0.01, PROCESS_START + HARD_LIMIT_S - clock()))
        t2 = clock()
        try:
            rc = command(cfg, str(out_dir))
        except Exception:  # a failing command is counted, not fatal
            rc = None
            failures.append("command raised:\n" + traceback.format_exc())
        finally:
            t3 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
    if rc is not None and rc != 0:
        failures.append(f"command returned {rc}")
    failures += trajectory_failures(trajs, cfg.tol_stat)
    if workload.command == "solve" and rc is not None:
        aborted = read_kv(out_dir / "summary.txt").get("aborted_at")
        if aborted != "-1":
            failures.append(f"summary.txt: aborted_at = {aborted}")
    if workload.name == "build_n32":
        write_probe(out_dir / "probe.txt", built, cfg.load_amplitude)
    if seed == 0 and index == 0 and rc is not None:
        failures += reference_failures(
            workload, str(out_dir), str(HERE / "reference" / workload.name))
    digest, size = digest_dir(out_dir)
    return Rep(
        index=index, traced=traced, setup_s=t1 - t0, run_s=t3 - t2,
        setup_at=(t0, t1), run_at=(t2, t3),
        wall_s=clock() - t_start, failures=failures, digest=digest,
        balance_residual=balance_residual(workload, out_dir, trajs),
        outer_sweeps=sum(int(t.iterations.sum()) for t in trajs),
        steps=sum(len(t.times) - 1 for t in trajs),
        output_bytes=size, operator_bytes=operator_bytes(built),
        spans=tracer.spans if tracer is not None else [])


def balance_residual(workload, out_dir: Path, trajs) -> float:
    """Max cumulative balance residual of the viscous run; for a sweep,
    the finest level's ed_balance_residual.  NaN when not produced."""
    if workload.command != "sweep":
        return max((float(t.balance_residual_cum.max()) for t in trajs),
                   default=float("nan"))
    path = out_dir / "sweep.csv"
    rows = path.read_text().splitlines() if path.exists() else []
    if len(rows) < 2:
        return float("nan")
    column = rows[0].split(",").index("ed_balance_residual")
    return float(rows[-1].split(",")[column])


def _time_limit(signum, frame):
    raise TimeoutError(f"command still running {HARD_LIMIT_S:.0f} s after "
                       f"the benchmark started")


def setup_times(workload, seed: int, count: int,
                seconds: float) -> list[tuple]:
    """Set-up alone, repeated: at least count times and for at least
    seconds (at most MAX_SETUPS times).  Returns the (start, end) clock
    readings."""
    from ribv.config import RunConfig

    text = config_text(workload, seed, 0)
    spans = []
    start = clock()
    while len(spans) < count or (clock() - start < seconds
                                 and len(spans) < MAX_SETUPS):
        t0 = clock()
        built = RunConfig.parse(text).build()
        spans.append((t0, clock()))
        del built
    return spans


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------

def layer_metrics(rep: Rep) -> dict:
    spans = rep.spans
    table = tr.span_table(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    up = tr.children_per_call(spans, "solver.solve_up_step",
                              "dissipation.prox_plastic_cells")
    z = tr.children_per_call(spans, "solver.solve_z_step",
                             "constitutive.damage_potential")
    m = {}
    for name, keys in (
            ("discretization.Grid", ("s",)),
            ("discretization.assemble_sym_gradient", ("s",)),
            ("discretization.assemble_nonlocal_form", ("s",)),
            ("constitutive.Operators.build", ("s", "self_s")),
            ("constitutive.energy_gradients", ("calls", "s")),
            ("constitutive.energy_time_derivative", ("calls", "s")),
            ("dissipation.prox_plastic_cells", ("calls", "s")),
            ("dissipation.dual_diagnostics", ("calls", "s")),
            ("solver.incremental_step", ("calls",)),
            ("solver.solve_up_step", ("calls", "s", "self_s")),
            ("solver.solve_z_step", ("calls", "s")),
            ("solver.el_residuals", ("s",)),
            ("solver.incremental_functional", ("s",)),
            ("driver.run_viscous", ("calls", "self_s")),
            ("driver.pre_relax", ("s",)),
            ("driver.power_integral", ("s",)),
            ("reparam.reparam_standard", ("s",)),
            ("reparam.reparam_ed", ("s",)),
            ("reparam.recover_switching", ("s",)),
            ("reparam.bv_sweep", ("self_s",)),
            ("reparam.ed_balance_residual_bv", ("s",)),
            ("reparam.align_z_curves", ("s",)),
            ("config.RunConfig.build", ("s",))):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    m["discretization.operator_bytes"] = rep.operator_bytes
    m["solver.solve_up_step.share"] = \
        get("solver.solve_up_step", "s") / rep.run_s
    m["solver.up_evals_per_call"] = sum(up) / len(up) if up else 0.0
    m["solver.up_evals_max"] = max(up, default=0)
    m["solver.z_evals_per_call"] = sum(z) / len(z) if z else 0.0
    m["solver.outer_sweeps"] = rep.outer_sweeps
    m["solver.sweeps_per_step"] = \
        rep.outer_sweeps / rep.steps if rep.steps else 0.0
    m["cli.output.s"] = tr.outermost_time(spans, tr.OUTPUT_SPANS)
    m["cli.output_bytes"] = rep.output_bytes
    m["result.balance_residual"] = rep.balance_residual
    m["trace.run_s"] = rep.run_s
    m["trace.spans"] = len(spans)
    return m


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between runs of one config."""
    return name.endswith((".calls", "_bytes", "evals_per_call",
                          "evals_max", "sweeps", "sweeps_per_step",
                          ".spans"))


# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    pinned = pin_mmap_threshold()
    ribv = import_ribv()
    spec = load_spec()
    signal.signal(signal.SIGALRM, _time_limit)
    workload = WORKLOADS[args.workload]
    env = environment()
    env["malloc_mmap_threshold"] = MMAP_THRESHOLD if pinned else None
    run_dir = ROOT / ".perfbench" / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    problems = []
    if max(env["blas_threads"].values(), default=1) > env["nproc"]:
        problems.append(f"BLAS threads {env['blas_threads']} exceed nproc")

    start = clock()
    deadline = start + args.seconds
    reps = []
    probe = SpeedProbe()
    probe.sample(NEIGHBOURS)

    def seconds(at, power=workload.speed_power):
        """Seconds between the (start, end) clock readings at, less the
        calibration samples taken within them, times the calibration
        factor to the given power."""
        net = probe.net_s(*at)
        return net * probe.factor(*at) ** power if power else net

    if args.trace == 0:
        probe.start()
        setups = setup_times(workload, args.seed, MIN_SETUPS, SETUP_PHASE_S)
        last_burst = clock()
        passes = []
        while True:
            t_pass = clock()
            batch = []
            for index in range(workload.batch):
                i = len(reps)
                batch.append(run_rep(ribv, workload, args.seed, index,
                                     run_dir / f"out{i}", traced=False))
                reps.append(batch[-1])
                if i > 0:
                    shutil.rmtree(run_dir / f"out{i}")
                gc.collect()
                if reps[-1].setup_s < SETUP_BURST_S and \
                        clock() - last_burst >= SETUP_BURST_GAP_S:
                    setups += setup_times(workload, args.seed, 0,
                                          SETUP_BURST_S)
                    last_burst = clock()
            passes.append(batch)
            if clock() + (clock() - t_pass) > deadline:
                break
        probe.stop()
        probe.sample(NEIGHBOURS)
        setups += [r.setup_at for r in reps]

        def timings(power):
            """setup_s and run_s, rescaled to the given power: medians
            over set-ups, and over passes of the median over the batch."""
            setup = [seconds(at, power) for at in setups]
            run = [statistics.median(seconds(r.run_at, power) for r in p)
                   for p in passes]
            return statistics.median(setup), statistics.median(run)

        values = dict(zip(("setup_s", "run_s"),
                          timings(workload.speed_power)))
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = spec["end_to_end"]
        raw = timings(0.0)
        extra = {"raw_setup_s": raw[0], "raw_run_s": raw[1],
                 "kernel_s": probe.kernel,
                 "balance_residual": [r.balance_residual for r in reps],
                 "setup_samples": len(setups)}
    else:
        # the seed's first config in groups of traced, untraced, traced,
        # so that every traced run has an untraced neighbour and one short
        # run already compares untraced with traced bytes and traced with
        # traced counts
        while True:
            i = len(reps)
            reps.append(run_rep(ribv, workload, args.seed, 0,
                                run_dir / f"out{i}", traced=i % 3 != 1))
            if i > 0:
                shutil.rmtree(run_dir / f"out{i}")
            probe.sample(NEIGHBOURS)
            if i % 3 == 2 and \
                    clock() + sum(r.wall_s for r in reps[-3:]) > deadline:
                break
        traced_reps = [r for r in reps if r.traced]
        per_rep = [layer_metrics(r) for r in traced_reps]
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name in per_rep[0]}
        for name in per_rep[0]:
            if is_count(name) and len({m[name] for m in per_rep}) > 1:
                problems.append(f"{name} differs between traced runs: "
                                f"{[m[name] for m in per_rep]}")
        # step latencies pooled over the traced runs for a usable tail
        steps_ms = [x for r in traced_reps
                    for x in tr.step_latencies_ms(r.spans)]
        step = "solver.incremental_step.step_ms"
        values[f"{step}.p50"] = tr.quantile(steps_ms, 0.5)
        values[f"{step}.tail"] = tr.quantile(steps_ms, TAIL_Q)
        # each traced run against its untraced neighbour (runs 3k + 1 are
        # untraced), both rescaled, so machine drift between runs cancels
        values["trace.overhead_s"] = statistics.median(
            seconds(r.run_at) - seconds(reps[n].run_at)
            for i, r in enumerate(reps) if r.traced
            for n in [i + 1 if i % 3 == 0 else i - 1])
        # the same overhead from the spans recorded and the cost of one,
        # free of the machine noise in the difference above
        values["trace.span_cost_s"] = values["trace.spans"] * tr.span_cost_s()
        if len({r.digest for r in reps}) > 1:
            problems.append("output files differ between repeated runs")
        tr.write_spans_csv(traced_reps[-1].spans, run_dir / "spans.csv")
        units = spec["per_layer"]
        extra = {"kernel_s": probe.kernel}

    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}; reported as 0")
            values[name] = 0.0
    failed = sum(1 for r in reps if r.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "problems": problems, "result": result, **extra,
        "reps": [{k: v for k, v in vars(r).items() if k != "spans"}
                 for r in reps],
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("env: " + json.dumps(env, sort_keys=True))
    for msg in problems + [f"rep {r.index}: {f}" for r in reps
                           for f in r.failures]:
        print("FAIL " + msg.splitlines()[0])
    print(f"{workload.name} seed {args.seed}: {len(reps)} runs, "
          f"{failed} failed, fail_share {failed / len(reps):.3g}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  {'balance_residual':48s} "
              f"{statistics.median(extra['balance_residual']):.6g} energy")
        print(f"  {'setup_s, run_s before rescaling':48s} "
              f"{extra['raw_setup_s']:.6g} s, {extra['raw_run_s']:.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
