"""Static hygiene: every name a ribv module or a test module imports is
used there, every import sits at module level, no function binds a name
it never reads, no module reaches for a dense viscosity operator, the
nonlocal form is applied through ``Operators``, the material law's
constants are read in ``constitutive`` only (the Lame constants only in
``MaterialParams``, which writes C0 once, and ``deviatoric_modulus``),
the reference problem is built in ``problems`` only, a loading's time
profile is read in ``eval_loading`` only, the solvers have one
line-search rule and no fallback for a failed linear solve, and the
modules of the per-iterate work (``solver``, ``constitutive``,
``dissipation``) call no numpy function whose ndarray method or ufunc
form costs a fraction of it on the small per-cell arrays they loop over
(``np.sum``, ``np.any``, ``np.all``, ``np.max``, ``np.clip``,
``np.errstate``, ``np.linalg.solve``, ``np.ix_``), the only scipy import
is the bare ``import scipy`` of ``constitutive``'s loader (and, run in a
fresh process, ribv loads scipy's compiled LAPACK and BLAS without the
``scipy.linalg`` package, and a missing one raises), and each batch
format has one owner:
only ``config`` splits a `key = value` line and only ``cli._write_csv``
joins a row with ",", only ``reparam``, whose ``REGIMES`` table says
what each regime tests, compares a value with a regime name, and outside
``dissipation`` only the state norms of ``cli.trajectory_rows`` call a
norm function: every rate norm is read from a ``RateNorms`` record, and
each iterate's strain and laws are formed once: in ``solver`` the strain
and the cell and damage laws are formed only by the (u, p) value
evaluation and the records, and no bare-state energy is evaluated, and
in ``driver`` the strain and the loaded energy only by the power.  A
reader takes each record it reads as a required argument: only the
parameters and fields listed in ``_NONE_DEFAULTS`` default to None, and
only the fields listed in ``_OPTIONAL_FIELDS`` may hold it.  Every class
field has a reader: it is read as an attribute in ``src/ribv``, the
demos or the benchmark harness, or named as a string in ``src/ribv``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ribv
from ribv.reparam import REGIMES

SRC = Path(ribv.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
# kept unchanged as the fixed acceptance suite, with two unused imports
_SCAN_EXEMPT = {"test_acceptance.py"}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + [
        path for path in sorted(TESTS.glob("*.py"))
        if path.name not in _SCAN_EXEMPT]
    offenders = [msg for path in paths for msg in _unused_imports(path)]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


# constants of the elastic, barrier and yield laws
_LAW_CONSTANTS = {"lame_lambda", "lame_mu", "delta_reg", "sigma_y", "m_bar",
                  "w0", "q_exp"}


def _law_constant_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: reads .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in _LAW_CONSTANTS
            and isinstance(node.ctx, ast.Load)]


def test_law_constants_read_in_constitutive_only():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name != "constitutive.py"
                 for msg in _law_constant_reads(path)]
    assert not offenders, "law constants read outside constitutive:\n" \
        + "\n".join(offenders)


# the scopes that may read the Lame constants: the material, which builds
# C0 once (``unit_stiffness``), and the deviatoric modulus 2 mu_L c
_LAME_READERS = {"MaterialParams", "deviatoric_modulus"}


def _lame_constant_reads(path: Path) -> list[str]:
    """Reads of ``.lame_mu`` or ``.lame_lambda`` outside _LAME_READERS of
    ``constitutive``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, (ast.ClassDef, ast.FunctionDef))
              and path.name == "constitutive.py"
              and scope.name in _LAME_READERS
              for node in ast.walk(scope)}
    return [f"{path.name}:{node.lineno}: reads .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("lame_mu", "lame_lambda")
            and isinstance(node.ctx, ast.Load) and id(node) not in inside]


def test_elastic_tensor_written_once():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _lame_constant_reads(path)]
    assert not offenders, "Lame constants read outside MaterialParams " \
        "and deviatoric_modulus:\n" + "\n".join(offenders)


def _problem_builds(path: Path) -> list[str]:
    """Calls of ``Operators.build`` and ``LoadingSpec``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "build" \
                and getattr(f.value, "id", None) == "Operators":
            out.append(f"{path.name}:{node.lineno}: Operators.build")
        elif getattr(f, "id", None) == "LoadingSpec":
            out.append(f"{path.name}:{node.lineno}: LoadingSpec")
    return out


def test_reference_problem_built_in_problems_only():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name != "problems.py"
                 for msg in _problem_builds(path)]
    assert not offenders, "problem built outside problems:\n" \
        + "\n".join(offenders)


def _time_profile_calls(path: Path) -> list[str]:
    """Calls of a loading's ``.theta`` or ``.phi`` outside
    ``discretization.eval_loading``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              and path.name == "discretization.py"
              and func.name == "eval_loading"
              for node in ast.walk(func)}
    return [f"{path.name}:{node.lineno}: calls .{node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("theta", "phi") and id(node) not in inside]


def test_time_profile_read_in_eval_loading_only():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _time_profile_calls(path)]
    assert not offenders, "time profile read outside eval_loading:\n" \
        + "\n".join(offenders)


def _nested_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


def test_imports_at_module_level():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _nested_imports(path)]
    assert not offenders, "imports below module level:\n" \
        + "\n".join(offenders)


def _scope_nodes(func):
    """Nodes of a function body, not descending into nested scopes."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unread_names(path: Path) -> list[str]:
    """Locals a function binds and never reads, and parameters a
    private function never reads.  Names starting with '_' are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        bound = {}
        for node in _scope_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
        if func.name.startswith("_"):
            a = func.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [x for x in (a.vararg, a.kwarg) if x]):
                bound.setdefault(arg.arg, arg.lineno)
        out += [f"{path.name}:{line}: {func.name}: {name}"
                for name, line in sorted(bound.items(), key=lambda kv: kv[1])
                if not name.startswith("_") and name not in read]
    return out


def test_no_unread_names():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _unread_names(path)]
    assert not offenders, "names bound and never read:\n" \
        + "\n".join(offenders)


_DENSE_LINALG = {"cholesky", "inv"}


def _dense_operator_uses(path: Path) -> list[str]:
    """Reads of the dense ``K_D`` property (kept for reference checks
    only) and dense ``linalg.cholesky`` / ``linalg.inv`` calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "K_D":
            out.append(f"{path.name}:{node.lineno}: reads .K_D")
        elif (isinstance(node, ast.Attribute) and node.attr in _DENSE_LINALG
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"):
            out.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith("linalg")):
            out += [f"{path.name}:{node.lineno}: imports {a.name}"
                    for a in node.names if a.name in _DENSE_LINALG]
    return out


def test_no_dense_viscosity_operator():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _dense_operator_uses(path)]
    assert not offenders, "dense operator use:\n" + "\n".join(offenders)


# the one scope per module allowed to read the nonlocal form: the
# Operators class (apply_A_m) and the z-step Hessian base, which reads
# its slice on the free nodes
_A_M_READERS = {"constitutive.py": "Operators", "solver.py": "_z_base"}


def _nonlocal_form_reads(path: Path) -> list[str]:
    """Reads of ``.A_m`` outside the module's allowed scope."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, (ast.ClassDef, ast.FunctionDef))
              and scope.name == _A_M_READERS.get(path.name)
              for node in ast.walk(scope)}
    return [f"{path.name}:{node.lineno}: reads .A_m"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "A_m"
            and isinstance(node.ctx, ast.Load) and id(node) not in inside]


def test_nonlocal_form_applied_through_operators():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _nonlocal_form_reads(path)]
    assert not offenders, "A_m read outside Operators:\n" \
        + "\n".join(offenders)


def _line_search_escapes(path: Path) -> list[str]:
    """Reads of ``_ARMIJO`` outside the acceptance predicate
    ``_acceptable``, and ``except`` clauses naming ``LinAlgError``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              and func.name == "_acceptable"
              for node in ast.walk(func)}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "_ARMIJO"
                and isinstance(node.ctx, ast.Load) and id(node) not in inside):
            out.append(f"{path.name}:{node.lineno}: reads _ARMIJO")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                and any(getattr(n, "id", getattr(n, "attr", None))
                        == "LinAlgError" for n in ast.walk(node.type)):
            out.append(f"{path.name}:{node.lineno}: except LinAlgError")
    return out


def test_one_line_search_rule():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _line_search_escapes(path)]
    assert not offenders, "line-search escapes:\n" + "\n".join(offenders)


# in their place: x.sum(), x.any(), x.all(), x.max(initial=),
# np.minimum(np.maximum(...)), np.divide(..., where=), lapack.dposv and
# x[rows][:, cols]
_ITERATE_MODULES = {"solver.py", "constitutive.py", "dissipation.py"}
_SLOW_NUMPY_CALLS = {"np.sum", "np.any", "np.all", "np.max", "np.clip",
                     "np.errstate", "np.linalg.solve", "np.ix_",
                     "np.broadcast_to"}


def _slow_numpy_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: calls {ast.unparse(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in _SLOW_NUMPY_CALLS]


def test_iterate_modules_avoid_slow_numpy_calls():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name in _ITERATE_MODULES
                 for msg in _slow_numpy_calls(path)]
    assert not offenders, "slow numpy calls:\n" + "\n".join(offenders)


def _scipy_imports(path: Path) -> list[tuple[str, int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # (line, dotted name) of every module or name imported
    modules = [(node.lineno, alias.name if isinstance(node, ast.Import)
                else f"{node.module}.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    return [(path.name, line, name) for line, name in modules
            if name.split(".")[0] == "scipy"]


def test_scipy_imported_bare_once():
    # scipy.linalg's __init__ adds 23 MB of peak RSS and 0.19 s of import
    # (scipy.optimize 20 MB more): only the loader's bare ``import scipy``
    # names scipy, and it loads the compiled kernels from their files
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _scipy_imports(path)]
    assert [(name, module) for name, _, module in found] \
        == [("constitutive.py", "scipy")], \
        "scipy imports beyond the loader's:\n" \
        + "\n".join(f"{name}:{line}: imports {module}"
                    for name, line, module in found)


def _run_python(script: str, *args: str) -> list:
    """Run ``script`` in a fresh interpreter on this checkout's ribv; its
    last line of output, read as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script,
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_FOOTPRINT = """
import json, sys
import ribv.cli
imported = "scipy.linalg" in sys.modules
rc = ribv.cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]])
solved = "scipy.linalg" in sys.modules
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack
print(json.dumps([imported, rc, solved,
                  scipy.linalg.lapack._flapack is flapack]))
"""


def test_scipy_linalg_package_stays_out(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("grid_n = 3\nn_steps = 1\n", encoding="utf-8")
    imported, rc, solved, shared = _run_python(
        _FOOTPRINT, str(cfg), str(tmp_path / "out"))
    assert not imported, "import ribv.cli loads scipy.linalg"
    assert rc == 0
    assert not solved, "a solve loads scipy.linalg"
    assert shared, "scipy.linalg loads _flapack a second time"


_MISSING = """
import json, sys
from ribv.constitutive import _scipy_linalg_extension
try:
    _scipy_linalg_extension("_no_such_kernels")
    raised = None
except ImportError as exc:
    raised = [str(exc), exc.path]
print(json.dumps([raised, "scipy.linalg" in sys.modules]))
"""


def test_missing_extension_fails_loudly():
    # no quiet fallback: the error names the file, and the scipy.linalg
    # package is not imported in its place
    raised, package = _run_python(_MISSING)
    assert raised is not None, "no ImportError for a missing extension"
    message, path = raised
    assert path.endswith(os.path.join("scipy", "linalg", "_no_such_kernels"))
    assert path in message
    assert not package


def _key_value_splits(path: Path) -> list[str]:
    """Calls of ``.split("=", ...)``: the split of a `key = value` line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: splits at '='"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "split" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "="]


def test_key_value_lines_read_in_config_only():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name != "config.py"
                 for msg in _key_value_splits(path)]
    assert not offenders, "`key = value` lines split outside " \
        "config.read_pairs:\n" + "\n".join(offenders)


def _csv_row_joins(path: Path) -> list[str]:
    """Calls of ``",".join`` outside ``cli._write_csv``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              and path.name == "cli.py" and func.name == "_write_csv"
              for node in ast.walk(func)}
    return [f"{path.name}:{node.lineno}: joins a row with ','"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and isinstance(node.func.value, ast.Constant)
            and node.func.value.value == ","
            and id(node) not in inside]


def test_one_csv_writer():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 for msg in _csv_row_joins(path)]
    assert not offenders, "CSV rows joined outside cli._write_csv:\n" \
        + "\n".join(offenders)


def _regime_name_compares(path: Path) -> list[str]:
    """Comparisons (``==``, ``in``, ...) of which one side is a regime
    name or a tuple, list or set holding one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def names(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List,
                                               ast.Set)) else [node]
        return [n.value for n in items
                if isinstance(n, ast.Constant) and n.value in REGIMES]

    return [f"{path.name}:{node.lineno}: compares with {name!r}"
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for side in [node.left, *node.comparators]
            for name in names(side)]


def test_regimes_compared_in_reparam_only():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name != "reparam.py"
                 for msg in _regime_name_compares(path)]
    assert not offenders, "regime names compared outside reparam:\n" \
        + "\n".join(offenders)


# the norm functions of ``dissipation``; outside it, every rate norm is a
# field of a ``RateNorms`` record
_NORM_FUNCTIONS = {"norm_u_h1", "norm_z_hm", "norm_p_l1", "norm_p_l2"}


def _norm_calls(path: Path) -> list[str]:
    """Calls of a norm function outside ``cli.trajectory_rows``, which
    takes the norms of states, not of rates."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              and path.name == "cli.py" and func.name == "trajectory_rows"
              for node in ast.walk(func)}
    return [f"{path.name}:{node.lineno}: calls {name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            for name in [getattr(node.func, "id",
                                 getattr(node.func, "attr", None))]
            if name in _NORM_FUNCTIONS]


def test_rate_norms_read_from_records():
    offenders = [msg for path in sorted(SRC.glob("*.py"))
                 if path.name != "dissipation.py"
                 for msg in _norm_calls(path)]
    assert not offenders, "norm functions called outside dissipation " \
        "and cli.trajectory_rows:\n" + "\n".join(offenders)


# per module, the calls that form an iterate's strain, elastic cells or
# damage laws, and the scopes allowed to make them: in ``solver`` the
# (u, p) value evaluation and its record (the z laws come from
# ``constitutive.DamageLaws``), in ``driver`` the power
_FORMING_CALLS = {
    "solver.py": ({"elastic_cells", "damage_cells", "damage_potential",
                   "apply", "total_strain", "strain_at", "stiffness",
                   "energy", "energy_gradients"},
                  {"value_grad", "UpRecord"}),
    "driver.py": ({"loaded_energy", "energy", "energy_gradients",
                   "strain_at", "elastic_cells"},
                  {"_power_integral"}),
}


def _forming_calls(path: Path) -> list[str]:
    names, scopes = _FORMING_CALLS[path.name]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for scope in ast.walk(tree)
              if isinstance(scope, (ast.ClassDef, ast.FunctionDef))
              and scope.name in scopes
              for node in ast.walk(scope)}
    return [f"{path.name}:{node.lineno}: calls {name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            for name in [getattr(node.func, "id",
                                 getattr(node.func, "attr", None))]
            if name in names]


def test_iterate_formed_once():
    offenders = [msg for name in sorted(_FORMING_CALLS)
                 for msg in _forming_calls(SRC / name)]
    assert not offenders, "strain, cells or laws formed outside the " \
        "value evaluations and the power:\n" + "\n".join(offenders)


# the parameters and fields of ``src/ribv`` that default to None, as
# "module:scope:name": the command line's argv, a run's abort step and
# the damage laws a bare step forms; a None default anywhere else would
# fork a reader into forming its record itself
_NONE_DEFAULTS = {
    "cli.py:main:argv",
    "driver.py:Trajectory:aborted_at",
    "solver.py:incremental_step:laws",
}


def _none_defaults(path: Path) -> list[str]:
    """Every function parameter and class field of a module whose default
    is the literal None, as "module:scope:name"."""
    out = []

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = scope + child.name
                a = child.args
                pos = a.posonlyargs + a.args
                pairs = list(zip(pos[len(pos) - len(a.defaults):],
                                 a.defaults)) \
                    + list(zip(a.kwonlyargs, a.kw_defaults))
                out.extend(f"{path.name}:{name}:{arg.arg}"
                           for arg, d in pairs if is_none(d))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                name = scope + child.name
                out.extend(f"{path.name}:{name}:{stmt.target.id}"
                           for stmt in child.body
                           if isinstance(stmt, ast.AnnAssign)
                           and is_none(stmt.value))
                visit(child, name + ".")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_none_defaults_listed():
    found = [msg for path in sorted(SRC.glob("*.py"))
             for msg in _none_defaults(path)]
    assert sorted(found) == sorted(_NONE_DEFAULTS), \
        "None defaults other than those listed:\n" + "\n".join(
            sorted(set(found) ^ _NONE_DEFAULTS))


# the class fields of ``src/ribv`` annotated ``... | None``, as
# "module:class:name": a run's abort step and the parameter a regime keeps
# positive; a record whose other fields may be None (one representation
# or another held in one type) forks each reader on which it holds
_OPTIONAL_FIELDS = {
    "driver.py:Trajectory:aborted_at",
    "reparam.py:Regime:positive",
}


def _optional_fields(path: Path) -> list[str]:
    """Every class field of a module whose annotation admits None
    (``X | None`` or ``Optional[X]``), as "module:class:name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{cls.name}:{stmt.target.id}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and any((isinstance(n, ast.Constant) and n.value is None)
                    or getattr(n, "id", getattr(n, "attr", None))
                    == "Optional" for n in ast.walk(stmt.annotation))]


def test_optional_fields_listed():
    found = [msg for path in sorted(SRC.glob("*.py"))
             for msg in _optional_fields(path)]
    assert sorted(found) == sorted(_OPTIONAL_FIELDS), \
        "fields that may be None other than those listed:\n" + "\n".join(
            sorted(set(found) ^ _OPTIONAL_FIELDS))


def _class_fields(path: Path) -> list[tuple[str, str]]:
    """(class, field) of every annotated class field of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(cls.name, stmt.target.id)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _read_names(path: Path, strings: bool) -> set[str]:
    """Attribute names a module reads and, with ``strings``, the string
    constants it holds (``getattr`` by name, as ``REGIMES`` does)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)} | {
        node.value for node in ast.walk(tree) if strings
        and isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_field_has_a_reader():
    # a field nothing reads is work each builder does for no one
    read = set().union(
        *(_read_names(path, True) for path in SRC.glob("*.py")),
        *(_read_names(path, False) for folder in ("demos", "perfbench")
          for path in (ROOT / folder).rglob("*.py")))
    offenders = [f"{path.name}:{cls}.{name}"
                 for path in sorted(SRC.glob("*.py"))
                 for cls, name in _class_fields(path) if name not in read]
    assert not offenders, "class fields nothing reads:\n" \
        + "\n".join(offenders)
