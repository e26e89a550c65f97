"""Run configuration: a single JSON document with materialized defaults.

Every default is filled in at load time so the echo embedded in each
report fully describes the run. The same configuration (seed included)
always produces byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

from .env import EnvironmentModel, InvalidModelError, validate_model


class ConfigError(ValueError):
    """Configuration rejected; message lists the offending fields."""


DEFAULT_REPLICAS = {
    "walk_stats": 20_000,  # the free walks of walk-stats, arcsine and lemma1
    "measure_change": 10_000,
    "lemma5": 10_000,
    "lemma7": 10_000,
    "martingale": 100_000,
    "gamma": 10_000,
    "onedim": 10_000,
    "twodim": 10_000,
    "level_change": 10_000,
    "band": 10_000,
}

# what each annotated kind asks of a value, alone and as list items; a
# float field takes any finite real, and type(v) is int turns away bools
_NEEDS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          str: ("a string", "strings")}


def _fits(kind, val) -> bool:
    if kind is float:
        return type(val) in (int, float) and math.isfinite(val)
    return type(val) is kind


def _type_problems(cfg) -> list:
    """One message per field whose value does not fit its annotation:
    a scalar kind, ``list[kind]`` or ``dict[str, kind]``."""
    problems = []
    for name, hint in get_type_hints(RunConfig).items():
        val, origin, args = getattr(cfg, name), get_origin(hint), get_args(hint)
        if origin is dict and not isinstance(val, dict):
            problems.append(f"{name}: need an object, got {val!r}")
        elif origin is dict:
            problems += [f"{name}.{key}: need {_NEEDS[args[1]][0]}, got {v!r}"
                         for key, v in val.items() if not _fits(args[1], v)]
        elif origin is list:
            if not (isinstance(val, (list, tuple)) and all(_fits(args[0], v) for v in val)):
                problems.append(f"{name}: need a list of {_NEEDS[args[0]][1]}, got {val!r}")
        elif not _fits(hint, val):
            problems.append(f"{name}: need {_NEEDS[hint][0]}, got {val!r}")
    return problems


@dataclass
class RunConfig:
    """Everything a run depends on, with acceptance-scale defaults."""

    # environment model
    x_family: str = "normal"
    x_param: float = 1.0
    rate_family: str = "constant"
    rate_params: list[float] = field(default_factory=lambda: [2.0])
    alpha: float = 2.0
    rho: float = 0.5
    eps: float = 1.0

    # horizons, times, truncations
    horizons: list[int] = field(default_factory=lambda: [200, 800, 3200])
    n_walk: int = 2000
    n_small: int = 5
    t_values: list[float] = field(default_factory=lambda: [1.0, 2.0])
    trunc_i: int = 64
    trunc_j: int = 64
    series_trunc: int = 512  # raw-series comparisons need a longer tail
    lemma_offsets: list[int] = field(default_factory=lambda: [-2, -1, 1, 2])
    band_eps: list[float] = field(default_factory=lambda: [0.2, 0.1, 0.05])

    # sampling budgets
    replicas: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_REPLICAS))
    ladder_budget: int = 200_000

    # execution
    master_seed: int = 20260809
    workers: int = 1
    out_dir: str = "bpire-lab-out"

    def __post_init__(self):
        if isinstance(self.replicas, dict):  # anything else fails the type gate
            self.replicas = {**DEFAULT_REPLICAS, **self.replicas}
        self.validate()

    def validate(self) -> None:
        # the value checks below compare numbers, so a wrong type stops here
        problems = _type_problems(self)
        if problems:
            raise ConfigError("; ".join(problems))
        if self.rate_family not in ("constant", "lognormal"):
            problems.append(f"rate_family: unknown family {self.rate_family!r}")
        rates = self.rate_params
        if self.rate_family == "constant" and not (len(rates) == 1 and rates[0] > 0):
            problems.append(f"rate_params: constant family takes one positive rate, got {rates}")
        if self.rate_family == "lognormal" and not (len(rates) == 2 and rates[1] >= 0):
            problems.append(f"rate_params: lognormal family takes [m, s] with s >= 0, got {rates}")
        if not problems:  # the rates are well-formed, so the model can be built
            try:
                self.model()
            except InvalidModelError as exc:
                problems.append(f"model: {exc}")
        if not self.horizons or any(n < 1 for n in self.horizons):
            problems.append(f"horizons: need positive integers, got {self.horizons}")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            problems.append("horizons: must be increasing")
        if self.n_walk < 4:
            problems.append(f"n_walk: too small, got {self.n_walk}")
        if self.n_small < 1:
            problems.append(f"n_small: must be >= 1, got {self.n_small}")
        # theorem1-twodim reads Y at generations floor(N t) of these two times,
        # N = horizons[-1], splits its band walk at floor(n_walk t), and
        # delta() scales with the last
        ts = list(self.t_values)
        if len(ts) != 2 or ts[0] <= 0 or ts[1] <= ts[0]:
            problems.append(f"t_values: need exactly two strictly increasing positives, got {ts}")
        else:
            if self.horizons and math.floor(self.horizons[-1] * ts[0]) < 1:
                problems.append(f"t_values: need floor(horizons[-1] * t1) >= 1, got t1 = {ts[0]} "
                                f"with horizons[-1] = {self.horizons[-1]}")
            # the joint law of Y at one generation twice says nothing of two times
            if self.horizons and len({math.floor(self.horizons[-1] * t) for t in ts}) < 2:
                problems.append(f"t_values: need floor(horizons[-1] * t1) < floor(horizons[-1] "
                                f"* t2), got {ts} with horizons[-1] = {self.horizons[-1]}")
            k1, k2 = (math.floor(self.n_walk * t) for t in ts)
            if k1 < 1:
                problems.append(f"t_values: need floor(n_walk * t1) >= 1, got t1 = {ts[0]} "
                                f"with n_walk = {self.n_walk}")
            # the band compares the minima over [0, k1] and [k1, k2]
            if k1 >= k2:
                problems.append(f"t_values: need floor(n_walk * t1) < floor(n_walk * t2), got "
                                f"{ts} with n_walk = {self.n_walk}")
        eps = self.band_eps
        # the band fractions must fall as eps does, and the last one is gated
        if not eps or eps[-1] <= 0 or any(b >= a for a, b in zip(eps, eps[1:])):
            problems.append(f"band_eps: need strictly decreasing positives, got {eps}")
        if self.trunc_i < 1 or self.trunc_j < 1:
            problems.append("trunc_i/trunc_j: must be >= 1")
        # an offset reads S*_i of the two-sided environment, which spans
        # |i| <= trunc_i, and S_{tau+i} of the free walk S_0..S_{n_walk}, and
        # names one record
        offsets = self.lemma_offsets
        if not offsets or len(set(offsets)) < len(offsets) or not all(
                1 <= abs(i) <= min(self.trunc_i, self.n_walk) for i in offsets):
            problems.append(f"lemma_offsets: need one or more distinct integers i with 1 <= |i| "
                            f"<= trunc_i = {self.trunc_i} and |i| <= n_walk = {self.n_walk}, "
                            f"got {offsets}")
        if self.series_trunc < 1:
            problems.append(f"series_trunc: must be >= 1, got {self.series_trunc}")
        for key, val in self.replicas.items():
            if key not in DEFAULT_REPLICAS:
                problems.append(f"replicas.{key}: unknown test name")
            elif val < 10:
                problems.append(f"replicas.{key}: too few replicas ({val})")
        if self.ladder_budget < 1000:
            problems.append(f"ladder_budget: need >= 1000 epochs, got {self.ladder_budget}")
        if not self.out_dir:
            problems.append("out_dir: need a nonempty path")
        if self.workers < 1:
            problems.append(f"workers: must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            problems.append(f"master_seed: must be >= 0, got {self.master_seed}")
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

    def delta(self) -> float:
        """Lévy grid width: 1e-3 of the last time."""
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
