"""Run configuration: a single JSON document with materialized defaults.

Every default is filled in at load time so the echo embedded in each
report fully describes the run. The same configuration (seed included)
always produces byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .env import EnvironmentModel, check_stable_params, validate_model
from .walk import StableSpec


class ConfigError(ValueError):
    """Configuration rejected; message lists the offending fields."""


DEFAULT_REPLICAS = {
    "walk_stats": 20_000,
    "arcsine": 20_000,
    "measure_change": 10_000,
    "lemma1": 10_000,
    "lemma5": 10_000,
    "lemma7": 10_000,
    "martingale": 100_000,
    "gamma": 10_000,
    "onedim": 10_000,
    "twodim": 10_000,
    "level_change": 10_000,
    "band": 10_000,
}


@dataclass
class RunConfig:
    """Everything a run depends on, with acceptance-scale defaults."""

    # environment model
    x_family: str = "normal"
    x_param: float = 1.0
    rate_family: str = "constant"
    rate_params: list = field(default_factory=lambda: [2.0])
    alpha: float = 2.0
    rho: float = 0.5
    eps: float = 1.0
    stable_scale: float | None = None  # None: analytic value for the family

    # horizons, times, truncations
    horizons: list = field(default_factory=lambda: [200, 800, 3200])
    n_walk: int = 2000
    n_small: int = 5
    t_values: list = field(default_factory=lambda: [1.0, 2.0])
    grid_delta: float | None = None  # None: 1e-3 * max(t_values)
    trunc_i: int = 64
    trunc_j: int = 64
    series_trunc: int = 512  # raw-series comparisons need a longer tail
    lemma_offsets: list = field(default_factory=lambda: [-2, -1, 1, 2])
    band_eps: list = field(default_factory=lambda: [0.2, 0.1, 0.05])

    # sampling budgets
    replicas: dict = field(default_factory=lambda: dict(DEFAULT_REPLICAS))
    ladder_budget: int = 200_000

    # execution
    master_seed: int = 20260809
    workers: int = 1
    out_dir: str = "bpire-lab-out"

    def __post_init__(self):
        merged = dict(DEFAULT_REPLICAS)
        merged.update(self.replicas or {})
        self.replicas = merged
        self.validate()

    def validate(self) -> None:
        problems = []
        if self.x_family not in ("normal", "pareto"):
            problems.append(f"x_family: unknown family {self.x_family!r}")
        if self.x_param <= 0:
            problems.append(f"x_param: must be positive, got {self.x_param}")
        if self.x_family == "pareto" and not 0 < self.x_param < 2:
            problems.append(f"x_param: pareto tail index must lie in (0,2), got {self.x_param}")
        if self.rate_family not in ("constant", "lognormal"):
            problems.append(f"rate_family: unknown family {self.rate_family!r}")
        try:
            check_stable_params(self.alpha, self.rho)
        except ValueError as exc:
            problems.append(f"alpha/rho: {exc}")
        if self.eps <= 0:
            problems.append(f"eps: must be positive, got {self.eps}")
        if self.stable_scale is not None and self.stable_scale <= 0:
            problems.append(f"stable_scale: must be positive, got {self.stable_scale}")
        if not self.horizons or any(int(n) < 1 for n in self.horizons):
            problems.append(f"horizons: need positive integers, got {self.horizons}")
        if list(self.horizons) != sorted(self.horizons):
            problems.append("horizons: must be increasing")
        if self.n_walk < 4:
            problems.append(f"n_walk: too small, got {self.n_walk}")
        if self.n_small < 1:
            problems.append(f"n_small: must be >= 1, got {self.n_small}")
        ts = list(self.t_values)
        if len(ts) < 2 or ts[0] <= 0 or any(b <= a for a, b in zip(ts, ts[1:])):
            problems.append(f"t_values: need strictly increasing positives, got {ts}")
        if self.grid_delta is not None and self.grid_delta <= 0:
            problems.append(f"grid_delta: must be positive, got {self.grid_delta}")
        if self.trunc_i < 1 or self.trunc_j < 1:
            problems.append("trunc_i/trunc_j: must be >= 1")
        if self.series_trunc < 1:
            problems.append(f"series_trunc: must be >= 1, got {self.series_trunc}")
        for key, val in self.replicas.items():
            if key not in DEFAULT_REPLICAS:
                problems.append(f"replicas.{key}: unknown test name")
            elif int(val) < 10:
                problems.append(f"replicas.{key}: too few replicas ({val})")
        if self.ladder_budget < 1000:
            problems.append(f"ladder_budget: need >= 1000 epochs, got {self.ladder_budget}")
        if self.workers < 1:
            problems.append(f"workers: must be >= 1, got {self.workers}")
        if problems:
            raise ConfigError("; ".join(problems))

    def model(self) -> EnvironmentModel:
        model = EnvironmentModel(
            x_family=self.x_family, x_param=self.x_param,
            rate_family=self.rate_family, rate_params=tuple(self.rate_params),
            alpha=self.alpha, rho=self.rho, eps=self.eps,
        )
        validate_model(model, strict=True)
        return model

    def spec(self) -> StableSpec:
        scale = self.stable_scale
        if scale is None:
            scale = self.model().stable_scale()
        return StableSpec(alpha=self.alpha, rho=self.rho, scale=scale)

    def delta(self) -> float:
        if self.grid_delta is not None:
            return float(self.grid_delta)
        return 1e-3 * float(max(self.t_values))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)
