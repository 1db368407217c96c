"""Flat key-value run configuration of the reference problem.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored; ``read_pairs`` reads it, here and in the Gronwall instance
files.  Unknown keys are rejected with the offending name.  Ladder
values are comma-separated lists.  The material keys and their defaults
are the fields of ``MaterialParams``, the problem keys take their
defaults from the keywords of ``problems.reference_problem``, to which
``RunConfig.build`` hands the values.  ``tol_stat``, the stationarity
tolerance of each step, is the one solver setting a config takes; its
default is that of ``reparam.bv_sweep``.  A value that reads as a
non-finite number (nan, inf) is rejected with its line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from inspect import signature

from .constitutive import EnergyParams, MaterialParams
from .discretization import Z_FLOOR
from .problems import reference_problem
from .reparam import bv_sweep, ladder_levels, regime_entry

_MATERIAL_KEYS = {f.name: f.default for f in fields(MaterialParams)}
# config key -> keyword of reference_problem, whose default it takes
_PROBLEM_KEYS = {"eps": "eps", "nu": "nu", "mu": "mu", "t_final": "t_final",
                 "load_amplitude": "amplitude", "z0": "z0",
                 "grid_n": "n_side", "n_steps": "n_steps"}
# every key with its default, whose type is the type its value is read as
_DEFAULTS = {
    **_MATERIAL_KEYS,
    **{key: signature(reference_problem).parameters[kw].default
       for key, kw in _PROBLEM_KEYS.items()},
    "tol_stat": signature(bv_sweep).parameters["tol_stat"].default,
    "load_kind": "ramp",            # ramp | zero
    "regime": "eps0",               # visc | eps0 | eps-nu0 | all0
    "ladder_eps": "1e-1,1e-2,1e-3",
    "ladder_nu": "",                # empty: regime default
    "ladder_mu": "",
}


def read_pairs(text: str, start: int = 1):
    """Yield (line number, key, value) of each `key = value` line of text,
    numbering its first line start; `#` starts a comment, and blank lines
    are skipped."""
    for ln, raw in enumerate(text.splitlines(), start=start):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', "
                             f"got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        yield ln, key, val


def read_value(ln: int, key: str, val: str, convert):
    """convert(val), its ValueError naming the line ln and the key; a
    non-finite number it yields, alone or in a sequence, is one too."""
    try:
        out = convert(val)
        items = (out,) if isinstance(out, (str, int, float)) else out
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in items):
            raise ValueError("not a finite number")
    except ValueError as exc:
        raise ValueError(f"line {ln}: {key} = {val!r}: {exc}") from None
    return out


def _float_list(text: str) -> list[float]:
    """The floats of a comma-separated list, blank items skipped."""
    return [float(x) for x in text.split(",") if x.strip()]


@dataclass
class RunConfig:
    """Validated run configuration: the reference problem, whose uniform
    step is ``EnergyParams.uniform``'s, the sweep's ladder and tol_stat."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.__dict__["values"][key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(values=dict(_DEFAULTS))

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls.defaults()
        for ln, key, val in read_pairs(text):
            if key not in _DEFAULTS:
                raise ValueError(f"line {ln}: unknown config key {key!r}")
            cfg.values[key] = read_value(ln, key, val, type(_DEFAULTS[key]))
            if key.startswith("ladder_"):
                read_value(ln, key, val, _float_list)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def validate(self) -> None:
        self.material()  # raises on bad constants
        if self.load_kind not in ("ramp", "zero"):
            raise ValueError(f"unknown load_kind {self.load_kind!r}")
        if self.grid_n < 3:
            # a 2x2 grid leaves the one-point-quadrature stiffness
            # singular on the free dofs (hourglass modes)
            raise ValueError("grid_n must be at least 3")
        # raises on bad regularization parameters, horizon or n_steps
        EnergyParams.uniform(self.eps, self.nu, self.mu, self.t_final,
                             self.n_steps)
        if not (Z_FLOOR <= self.z0 <= 1.0):
            raise ValueError(f"z0 must lie in [Z_FLOOR, 1] = [{Z_FLOOR}, 1]")
        if self.tol_stat <= 0:
            raise ValueError("tol_stat must be positive")
        self.ladder()

    # -- constructors for the solver stack ------------------------------

    def material(self) -> MaterialParams:
        return MaterialParams(**{k: self.values[k] for k in _MATERIAL_KEYS})

    def build(self):
        """Return (grid, mat, ops, ep, loading, init_state): the reference
        problem with this config's values; load_kind zero is amplitude 0."""
        args = {kw: self.values[key] for key, kw in _PROBLEM_KEYS.items()}
        if self.load_kind == "zero":
            args["amplitude"] = 0.0
        return reference_problem(**args, mat=self.material())

    def ladder(self) -> list[tuple[float, float, float]]:
        """The (eps, nu, mu) levels of the sweep, checked against the
        regime by ``reparam.ladder_levels``; an empty ``ladder_nu`` or
        ``ladder_mu`` follows eps where the regime lets it vanish."""
        eps = _float_list(self.ladder_eps)
        if not eps:
            raise ValueError("ladder_eps must not be empty")
        cols = []
        for key in ("nu", "mu"):
            text = self.values[f"ladder_{key}"]
            if text.strip():
                cols.append(_float_list(text))
            elif key in regime_entry(self.regime).vanishing:
                cols.append(list(eps))
            else:
                cols.append([self.values[key]] * len(eps))
        if any(len(col) != len(eps) for col in cols):
            raise ValueError("ladder lists must have equal length")
        return ladder_levels(self.regime, zip(eps, *cols))
