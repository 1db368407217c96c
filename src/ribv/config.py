"""Flat key-value run configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Unknown keys are rejected with the offending name.  Ladder
values are comma-separated lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constitutive import EnergyParams, MaterialParams, Operators
from .discretization import Grid, initial_state
from .problems import ramp_loading, zero_loading

_FLOAT_KEYS = {
    "lame_lambda": 1.0, "lame_mu": 1.0, "delta_reg": 0.05,
    "sigma_y": 0.85, "m_bar": 0.8, "kappa": 0.03, "w0": 0.034,
    "q_exp": 5.0, "m_order": 1.5,
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
        vals = {}
        vals.update(_FLOAT_KEYS)
        vals.update(_INT_KEYS)
        vals.update(_STR_KEYS)
        return cls(values=vals)

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
        self.energy_params()
        if self.load_kind not in ("ramp", "zero"):
            raise ValueError(f"unknown load_kind {self.load_kind!r}")
        if self.regime not in ("visc", "eps0", "eps-nu0", "all0"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.grid_n < 3:
            # a 2x2 grid leaves the one-point-quadrature stiffness
            # singular on the free dofs (hourglass modes)
            raise ValueError("grid_n must be at least 3")
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if not (0.0 < self.z0 <= 1.0):
            raise ValueError("z0 must lie in (0, 1]")
        self.ladder()

    # -- constructors for the solver stack ------------------------------

    def material(self) -> MaterialParams:
        return MaterialParams(
            lame_lambda=self.lame_lambda, lame_mu=self.lame_mu,
            delta_reg=self.delta_reg, sigma_y=self.sigma_y,
            m_bar=self.m_bar, kappa=self.kappa, w0=self.w0,
            q_exp=self.q_exp, m_order=self.m_order)

    def energy_params(self) -> EnergyParams:
        return EnergyParams(eps=self.eps, nu=self.nu, mu=self.mu,
                            tau=self.t_final / self.n_steps,
                            t_final=self.t_final)

    def build(self):
        """Return (grid, mat, ops, ep, loading, init_state)."""
        grid = Grid(self.grid_n)
        mat = self.material()
        ops = Operators.build(grid, mat)
        ep = self.energy_params()
        if self.load_kind == "ramp":
            loading = ramp_loading(grid, amplitude=self.load_amplitude,
                                   t_final=self.t_final)
        else:
            loading = zero_loading(grid, t_final=self.t_final)
        return grid, mat, ops, ep, loading, initial_state(grid, self.z0)

    def ladder(self) -> list[tuple[float, float, float]]:
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
        return list(zip(eps, nus, mus))
