"""Config parsing, batch entry points, and output files."""

import filecmp
import re
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import ribv.driver as driver_module
from ribv.cli import (
    CSV_COLUMNS,
    cmd_check_gronwall,
    cmd_reparam,
    cmd_selftest,
    cmd_solve,
    cmd_sweep,
    main,
    parse_gronwall_instances,
)
from ribv.config import RunConfig
from ribv.constitutive import MaterialParams
from ribv.gronwall import GronwallInstance
from ribv.problems import reference_material, reference_problem
from ribv.solver import incremental_step

FAST_CFG = """
grid_n = 3
n_steps = 6
load_amplitude = 0.4
"""


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig.defaults()
        cfg.validate()
        assert cfg.grid_n == 4
        assert cfg.eps == pytest.approx(1e-2)
        assert cfg.load_kind == "ramp"

    def test_parse_overrides_and_comments(self):
        cfg = RunConfig.parse("""
        # comment line
        grid_n = 5   # trailing comment
        eps = 1e-3
        load_kind = zero
        """)
        assert cfg.grid_n == 5
        assert cfg.eps == pytest.approx(1e-3)
        assert cfg.load_kind == "zero"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="line 2: unknown config key"
                                             " 'epps'"):
            RunConfig.parse("grid_n = 4\nepps = 0.1\n")
        # removed keys are unknown too
        with pytest.raises(ValueError, match="line 1: unknown config key"
                                             " 'seed'"):
            RunConfig.parse("seed = 0\n")
        with pytest.raises(ValueError, match="line 2: unknown config key"
                                             " 'dist_z_convention'"):
            RunConfig.parse("grid_n = 4\ndist_z_convention = subdiff\n")
        with pytest.raises(ValueError, match="line 1: unknown config key"
                                             " 'ed_dnu_args'"):
            RunConfig.parse("ed_dnu_args = pair\n")
        # the jump and stability thresholds and the sweep cap are
        # constants of reparam and solver
        for key, val in (("tol_jump", "1e-3"), ("stab_tol_factor", "10.0"),
                         ("max_iter", "500")):
            with pytest.raises(ValueError, match=f"line 2: unknown config "
                                                 f"key '{key}'"):
                RunConfig.parse(f"grid_n = 4\n{key} = {val}\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            RunConfig.parse("grid_n 4\n")

    @pytest.mark.parametrize("line", [
        "grid_n = 4.5", "eps = abc", "ladder_eps = 1e-1,x", "eps = nan",
        "nu = inf", "tol_stat = nan", "load_amplitude = nan", "kappa = nan",
        "ladder_eps = 1e-1,nan"])
    def test_unreadable_value_named(self, line):
        # a value that does not read as its key's type, or reads as a
        # non-finite number, names its line and key; a ladder list is read
        # when its line is
        key, val = line.split(" = ")
        with pytest.raises(ValueError,
                           match=re.escape(f"line 2: {key} = {val!r}: ")):
            RunConfig.parse(f"regime = eps0\n{line}\n")

    def test_z0_below_floor_rejected(self):
        # the solver holds z >= Z_FLOOR = 1e-8, so a start below it is
        # rejected when the config is read; the floor itself runs
        # (TestSolveCommand.test_floor_start_runs)
        with pytest.raises(ValueError, match="z0"):
            RunConfig.parse("z0 = 1e-9\n")
        assert RunConfig.parse("z0 = 1e-8\n").z0 == 1e-8

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_n"):
            RunConfig.parse("grid_n = 2\n")

    def test_build_shapes(self):
        cfg = RunConfig.parse(FAST_CFG)
        grid, mat, ops, ep, loading, init = cfg.build()
        assert grid.n_nodes == 9
        assert init.z.shape == (9,)
        assert ep.tau == pytest.approx(cfg.t_final / cfg.n_steps)

    @pytest.mark.parametrize("regime", ["visc", "eps0", "eps-nu0", "all0"])
    def test_ladder_regime_defaults(self, regime):
        # an empty ladder_nu or ladder_mu follows eps where the regime
        # lets the parameter vanish, and repeats the config's value
        # where it is fixed
        follows = {"visc": (), "eps0": (), "eps-nu0": ("nu",),
                   "all0": ("nu", "mu")}[regime]
        cfg = RunConfig.parse(f"regime = {regime}\nnu = 0.05\nmu = 0.2\n"
                              "ladder_eps = 1e-1,1e-2\n")
        eps, nus, mus = zip(*cfg.ladder())
        assert eps == (1e-1, 1e-2)
        assert nus == (eps if "nu" in follows else (0.05, 0.05))
        assert mus == (eps if "mu" in follows else (0.2, 0.2))

    def test_unknown_regime_named_at_parse(self):
        with pytest.raises(ValueError, match="unknown regime 'eps1'"):
            RunConfig.parse("regime = eps1\n")

    def test_ladder_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            RunConfig.parse("regime = eps0\n"
                            "ladder_eps = 1e-1,1e-2\n"
                            "ladder_nu = 0.1\n").ladder()

    def test_ladder_checked_at_parse(self):
        # a rising eps0 ladder, and an all0 ladder with nu > mu, fail
        # when the config is read, before any operator is assembled
        with pytest.raises(ValueError, match="constraints of regime"):
            RunConfig.parse("regime = eps0\nladder_eps = 1e-3,1e-1\n")
        with pytest.raises(ValueError, match="constraints of regime"):
            RunConfig.parse("regime = all0\nladder_eps = 1e-1,1e-2\n"
                            "ladder_nu = 2e-1,2e-2\n")
        # the viscous formula divides by eps, so a visc ladder needs
        # eps > 0 at every level
        with pytest.raises(ValueError, match="constraints of regime 'visc'"):
            RunConfig.parse("regime = visc\nladder_eps = 1e-1,0\n")

    @pytest.mark.parametrize("regime, ladder, name", [
        ("eps0", "ladder_eps = 1e-1,0", "eps"),
        ("eps-nu0", "ladder_eps = 1e-1,0", "eps"),
        ("all0", "ladder_eps = 1e-1,0", "eps"),
        ("all0", "ladder_eps = 1e-1,1e-2\nladder_mu = 1e-1,0", "mu"),
    ], ids=["eps0", "eps-nu0", "all0", "all0-mu"])
    def test_vanishing_parameter_zero_rejected(self, regime, ladder, name):
        # a vanishing parameter must stay above 0 at every level: eps0
        # wrote an inf balance, eps-nu0 divided by eps = 0 and all0 failed
        # only in the sweep; each now fails at parse, naming the parameter
        with pytest.raises(ValueError, match=f"needs {name} > 0"):
            RunConfig.parse(f"regime = {regime}\n{ladder}\n")

    def test_solver_settings_checked_at_parse(self):
        # a nonpositive or non-finite tolerance fails when the config is
        # read, before any operator is assembled or step solved
        for text in ("tol_stat = 0\n", "tol_stat = -1e-8\n",
                     "tol_stat = nan\n", "tol_stat = inf\n"):
            with pytest.raises(ValueError, match="tol_stat"):
                RunConfig.parse(text)

    def test_one_reference_problem(self):
        # one material and one builder: the default config builds the
        # reference problem bit for bit
        assert MaterialParams() == reference_material() \
            == RunConfig.defaults().material()
        _, mat, ops, ep, loading, init = RunConfig.defaults().build()
        _, mat_r, ops_r, ep_r, loading_r, init_r = reference_problem()
        assert mat == mat_r
        assert ep == ep_r
        # the reference grid holds the dense form alone
        assert ops.A_m.S is None and ops_r.A_m.S is None
        assert np.array_equal(ops.A_m.dense, ops_r.A_m.dense)
        assert np.array_equal(ops.K_D_band, ops_r.K_D_band)
        assert np.array_equal(loading.f_vec, loading_r.f_vec)
        for name in ("u", "z", "p"):
            assert np.array_equal(getattr(init, name), getattr(init_r, name))


class TestSolveCommand:
    def test_outputs_and_header(self, tmp_path):
        cfg = RunConfig.parse(FAST_CFG)
        rc = cmd_solve(cfg, str(tmp_path))
        assert rc == 0
        traj = tmp_path / "trajectory.csv"
        with open(traj) as fh:
            header = fh.readline().strip()
            n_rows = sum(1 for _ in fh)
        assert header == ",".join(CSV_COLUMNS)
        assert n_rows == cfg.n_steps + 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "min_z = " in summary
        assert "aborted_at = -1" in summary

    def test_floor_start_runs(self, tmp_path):
        # z0 at the floor pins every node at both bounds of the z-step: the
        # run goes through with the floor flagged
        cfg = RunConfig.parse(FAST_CFG + "z0 = 1e-8\n")
        assert cmd_solve(cfg, str(tmp_path)) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "aborted_at = -1" in summary
        assert "z_floor_hit = 1" in summary

    def test_byte_determinism(self, tmp_path):
        cfg = RunConfig.parse(FAST_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        cmd_solve(cfg, str(a))
        cmd_solve(cfg, str(b))
        for name in ("trajectory.csv", "summary.txt"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    def test_zero_loading_constant_rows(self, tmp_path):
        cfg = RunConfig.parse("grid_n = 3\nn_steps = 4\n"
                              "load_kind = zero\n")
        cmd_solve(cfg, str(tmp_path))
        rows = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",",
                             names=True)
        assert np.ptp(rows["min_z"]) == 0.0
        assert np.all(rows["balance_residual"] < 1e-12)


def one_sweep(monkeypatch):
    """Cap each step of a run at one sweep; ``pre_relax`` passes its own
    cap of 200 sweeps, which overrides this one."""
    monkeypatch.setattr(driver_module, "incremental_step",
                        partial(incremental_step, max_iter=1))


class TestReparamSweep:
    def test_reparam_outputs(self, tmp_path):
        cfg = RunConfig.parse(FAST_CFG)
        rc = cmd_reparam(cfg, str(tmp_path))
        assert rc == 0
        text = (tmp_path / "reparam.csv").read_text()
        assert text.splitlines()[0].startswith("step,s_std,s_ed,t")
        summary = (tmp_path / "summary.txt").read_text()
        assert "max_normalization_deviation_std" in summary

    def test_reparam_reports_truncated_run(self, tmp_path, monkeypatch):
        # one sweep per step cannot converge the damaging ramp: the run
        # stops at the first rejected step
        one_sweep(monkeypatch)
        cfg = RunConfig.parse("grid_n = 3\nn_steps = 4\n"
                              "load_amplitude = 1.2\n")
        rc = cmd_reparam(cfg, str(tmp_path))
        assert rc == 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "aborted_at = 2" in summary

    def test_sweep_outputs(self, tmp_path):
        cfg = RunConfig.parse("grid_n = 3\nn_steps = 6\n"
                              "load_amplitude = 0.4\n"
                              "regime = eps0\n"
                              "ladder_eps = 1e-1,1e-2\n"
                              "nu = 0.1\nmu = 0.1\n")
        rc = cmd_sweep(cfg, str(tmp_path))
        assert rc == 0
        rows = np.genfromtxt(tmp_path / "sweep.csv", delimiter=",",
                             names=True)
        assert rows.shape == (2,)
        assert rows["eps"][0] == pytest.approx(1e-1)
        summary = (tmp_path / "summary.txt").read_text()
        assert "stability_decay_ratios" in summary

    def test_sweep_honours_max_iter(self, tmp_path, monkeypatch):
        # one sweep per step cannot converge the damaging ramp: the first
        # level stops at a rejected step and the sweep names it
        one_sweep(monkeypatch)
        cfg = RunConfig.parse("grid_n = 3\nn_steps = 4\n"
                              "load_amplitude = 1.2\n"
                              "regime = eps0\n"
                              "ladder_eps = 1e-1,1e-2\n"
                              "nu = 0.1\nmu = 0.1\n")
        with pytest.raises(RuntimeError, match=r"failed at step \d+ for "
                                               r"level \(0\.1, "):
            cmd_sweep(cfg, str(tmp_path))


# one case per rule of the shared `key = value` reader: (lines, the line
# of the error or None).  The Gronwall reader gets them after a first
# instance block, so its line numbers count across a `---` line
_READER_CASES = [
    (["# a comment line", "eps = 1e-3"], None),
    (["", "eps = 1e-3", "   "], None),
    (["eps = 1e-3   # a trailing comment"], None),
    (["eps = 1e-3", "eps 1e-3"], 2),
    (["eps = nan"], 1),
    (["eps = 1e-3", "eps = -inf"], 2),
]
_GRONWALL_HEAD = ["lemma = classic", "a = 1.0", "b = 0.1", "B = 1.0", "---",
                  "lemma = affine"]


class TestSharedReader:
    @pytest.mark.parametrize("lines, bad", _READER_CASES)
    def test_both_formats_read_alike(self, lines, bad):
        texts = ("\n".join(lines), "\n".join(_GRONWALL_HEAD + lines))
        if bad is None:
            assert RunConfig.parse(texts[0]).eps == 1e-3
            assert parse_gronwall_instances(texts[1])[1].eps == 1e-3
            return
        messages = []
        for parse, text in zip((RunConfig.parse, parse_gronwall_instances),
                               texts):
            with pytest.raises(ValueError) as err:
                parse(text)
            messages.append(str(err.value))
        # a line without `=`, or a value that reads as a non-finite number
        line = lines[bad - 1]
        key, eq, val = (part.strip() for part in line.partition("="))
        assert messages[0] == f"line {bad}: " + (
            f"{key} = {val!r}: not a finite number" if eq
            else f"expected 'key = value', got {line!r}")
        assert messages[1] == messages[0].replace(
            f"line {bad}", f"line {bad + len(_GRONWALL_HEAD)}")

    def test_every_instance_field_read(self):
        # every field of GronwallInstance is a key, read as its type: a
        # sequence of floats, a float or the lemma's name
        seqs = ("a", "b", "c", "r", "M")
        text = "\n".join(
            f"{f.name} = {'0.5, 1.5' if f.name in seqs else 0.25}"
            for f in fields(GronwallInstance) if f.name != "lemma")
        (inst,) = parse_gronwall_instances(text + "\nlemma = viscous")
        for f in fields(GronwallInstance):
            got = getattr(inst, f.name)
            if f.name in seqs:
                assert got.tolist() == [0.5, 1.5]
            else:
                assert got == ("viscous" if f.name == "lemma" else 0.25)

    def test_unknown_instance_key_named(self):
        with pytest.raises(ValueError, match="line 3: unknown instance key "
                                             "'gamma'"):
            parse_gronwall_instances("lemma = classic\nB = 1.0\n"
                                     "gamma = 0.1\n")

    @pytest.mark.parametrize("line", ["B = x", "a = 1,2,q", "B = nan",
                                      "a = 1,nan", "lam = inf"])
    def test_unreadable_instance_value_named(self, line):
        # as in a run config: a non-finite number, alone or in a
        # sequence, is rejected with its line and key
        key, val = line.split(" = ")
        with pytest.raises(ValueError,
                           match=re.escape(f"line 3: {key} = {val!r}: ")):
            parse_gronwall_instances(f"lemma = classic\nB = 1.0\n{line}\n")

    def test_unknown_lemma_named(self):
        with pytest.raises(ValueError, match="'gronwall2'"):
            parse_gronwall_instances("lemma = gronwall2\nB = 1.0\n")


class TestGronwallCommand:
    SAMPLE = """
lemma = classic
a = 1.0, 1.1, 1.2
b = 0.1, 0.1, 0.1
B = 1.0
---
lemma = affine
a = 1.0, 1.5
b_const = 0.3
lam = 1.5
Lam = 1.0
"""

    def test_parse_blocks(self):
        insts = parse_gronwall_instances(self.SAMPLE)
        assert len(insts) == 2
        assert insts[0].lemma == "classic"
        assert np.allclose(insts[0].a, [1.0, 1.1, 1.2])
        assert insts[1].lam == pytest.approx(1.5)

    def test_missing_lemma_rejected(self):
        with pytest.raises(ValueError, match="lemma"):
            parse_gronwall_instances("a = 1.0\nB = 1.0\n")

    def test_command_report(self, tmp_path, capsys):
        path = tmp_path / "instances.txt"
        path.write_text(self.SAMPLE)
        rc = cmd_check_gronwall(str(path), str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 2

    def test_violated_bound_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("lemma = classic\n"
                        "a = 1.0, 1.05, 50.0\n"
                        "b = 0.1, 0.1, 0.1\n"
                        "B = 1.0\n")
        rc = cmd_check_gronwall(str(path), str(tmp_path))
        out = capsys.readouterr().out
        # the hypothesis is violated too, so the report marks the
        # instance vacuous rather than failed
        assert "hypotheses=violated" in out
        assert rc == 0


class TestSelftestAndMain:
    def test_selftest_passes(self, capsys):
        assert cmd_selftest(seed=0) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 5

    def test_main_solve_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(FAST_CFG)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
