"""Flat key-value run configuration of the reference problem.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Unknown keys are rejected with the offending name.  Ladder
values are comma-separated lists.  The material keys and their defaults
are the fields of ``MaterialParams``; ``RunConfig.build`` hands the
values to ``problems.reference_problem``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .constitutive import EnergyParams, MaterialParams
from .problems import reference_problem
from .reparam import ladder_levels

_MATERIAL_KEYS = {f.name: f.default for f in fields(MaterialParams)}
_FLOAT_KEYS = {
    **_MATERIAL_KEYS,
    "eps": 1e-2, "nu": 1e-2, "mu": 1e-2, "t_final": 1.0,
    "load_amplitude": 0.48, "z0": 0.95,
    "tol_stat": 1e-8, "tol_jump": 1e-3, "stab_tol_factor": 10.0,
}
_INT_KEYS = {"grid_n": 4, "n_steps": 20, "max_iter": 500}
_STR_KEYS = {
    "load_kind": "ramp",            # ramp | zero
    "regime": "eps0",               # visc | eps0 | eps-nu0 | all0
    "ladder_eps": "1e-1,1e-2,1e-3",
    "ladder_nu": "",                # empty: regime default
    "ladder_mu": "",
}


@dataclass
class RunConfig:
    """Validated run configuration with every tunable of the solver
    stack."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.__dict__["values"][key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(values={**_FLOAT_KEYS, **_INT_KEYS, **_STR_KEYS})

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls.defaults()
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {ln}: expected 'key = value', "
                                 f"got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in _FLOAT_KEYS:
                cfg.values[key] = float(val)
            elif key in _INT_KEYS:
                cfg.values[key] = int(val)
            elif key in _STR_KEYS:
                cfg.values[key] = val
            else:
                raise ValueError(f"line {ln}: unknown config key {key!r}")
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
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        # raises on bad regularization parameters or time step
        EnergyParams(eps=self.eps, nu=self.nu, mu=self.mu,
                     tau=self.t_final / self.n_steps, t_final=self.t_final)
        if not (0.0 < self.z0 <= 1.0):
            raise ValueError("z0 must lie in (0, 1]")
        self.ladder()

    # -- constructors for the solver stack ------------------------------

    def material(self) -> MaterialParams:
        return MaterialParams(**{k: self.values[k] for k in _MATERIAL_KEYS})

    def build(self):
        """Return (grid, mat, ops, ep, loading, init_state): the reference
        problem with this config's values; load_kind zero is amplitude 0."""
        return reference_problem(
            n_side=self.grid_n, eps=self.eps, nu=self.nu, mu=self.mu,
            n_steps=self.n_steps,
            amplitude=self.load_amplitude if self.load_kind == "ramp"
            else 0.0,
            t_final=self.t_final, z0=self.z0, mat=self.material())

    def ladder(self) -> list[tuple[float, float, float]]:
        """The (eps, nu, mu) levels of the sweep, checked against the
        regime by ``reparam.ladder_levels``."""
        eps = [float(x) for x in self.ladder_eps.split(",") if x.strip()]
        if not eps:
            raise ValueError("ladder_eps must not be empty")
        if self.ladder_nu.strip():
            nus = [float(x) for x in self.ladder_nu.split(",")]
        elif self.regime in ("eps-nu0", "all0"):
            nus = list(eps)
        else:
            nus = [self.nu] * len(eps)
        if self.ladder_mu.strip():
            mus = [float(x) for x in self.ladder_mu.split(",")]
        elif self.regime == "all0":
            mus = list(eps)
        else:
            mus = [self.mu] * len(eps)
        if not (len(eps) == len(nus) == len(mus)):
            raise ValueError("ladder lists must have equal length")
        return ladder_levels(self.regime, zip(eps, nus, mus))
