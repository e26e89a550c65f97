"""Parametric i.i.d. random-environment families.

One environment step is a pair (offspring law, immigration law), carried
in array form as a pair of arrays (x, mu) of one shape. The offspring law is
fractional-linear (geometric on {0,1,...} with success parameter q), so
its log conditional mean is x = ln((1-q)/q) and sums of offspring can be
drawn as single negative-binomial variates. Immigration is Poisson, so
mu equals the rate. The step law is driven by the law of x: we draw x
from a named family and couple q = 1/(1+e^x), which keeps the law of x
exactly the declared family.

Shipped x families:

* ``normal``  -- Normal(0, sigma^2); stable index 2, positivity 1/2.
* ``pareto``  -- symmetric two-sided Pareto, density (a/2)|x|^{-a-1} on
  |x| >= 1, tail index a in (0, 2); positivity 1/2.

Shipped rate families: ``constant`` and ``lognormal``. Both have finite
(ln^+ rate)^p moments of every order.

The model also owns the stable law its walk is attracted to: the scale
c of each family and the normalizing sequence C_n = c n^{1/alpha}, with
the slowly varying part constant for both shipped families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnvironmentModel",
    "ValidationCheck",
    "InvalidModelError",
    "check_stable_params",
    "validate_model",
]

# every family must be symmetric: ladder.py reads u as v, which needs X ~ -X
X_FAMILIES = ("normal", "pareto")
RATE_FAMILIES = ("constant", "lognormal")


class InvalidModelError(ValueError):
    """Raised when an environment model fails validation."""


def check_stable_params(alpha: float, rho: float) -> None:
    """Reject (alpha, rho) pairs with no two-sided strictly stable law.

    For alpha in (1, 2) the positivity parameter is constrained to
    [1 - 1/alpha, 1/alpha]; alpha = 2 forces rho = 1/2; rho in the open
    interval (0, 1) excludes one-sided laws throughout.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0,2], got {alpha}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    if alpha == 2.0 and rho != 0.5:
        raise ValueError("alpha=2 admits only rho=1/2")
    if 1.0 < alpha < 2.0 and not (1.0 - 1.0 / alpha <= rho <= 1.0 / alpha):
        raise ValueError(
            f"alpha={alpha} requires rho in [{1 - 1/alpha:.4f}, {1/alpha:.4f}]"
        )


@dataclass(frozen=True)
class EnvironmentModel:
    """Declared law of one environment step.

    Fields:
        x_family: name of the law of the offspring log mean.
        x_param: sigma for ``normal``, tail index for ``pareto``.
        rate_family: name of the law of the immigration rate.
        rate_params: (value,) for ``constant``; (m, s) for ``lognormal``
            meaning exp(Normal(m, s^2)).
        alpha: declared stable index in (0, 2].
        rho: declared positivity parameter in (0, 1).
        eps: moment-condition exponent slack, > 0.
    """

    x_family: str = "normal"
    x_param: float = 1.0
    rate_family: str = "constant"
    rate_params: tuple = (2.0,)
    alpha: float = 2.0
    rho: float = 0.5
    eps: float = 1.0

    def draw_x(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.x_family == "normal":
            return rng.normal(0.0, self.x_param, size)
        if self.x_family == "pareto":
            # One uniform per step. W = 1 - random() lies on the 2^-53 grid
            # of (0, 1]; the step is negative when W > 1/2. Then
            # V = 2W - ceil(2W) + 1 is 2W on the lower half and 2W - 1 on
            # the upper one: every intermediate is a multiple of 2^-52 of
            # size at most 2, so all are exact, and V is uniform on the
            # 2^-52 grid of (0, 1] given either sign. The step is
            # +-V^(-1/a); V is never 0, so no step is infinite.
            x = 1.0 - rng.random(size)
            x *= 2.0
            c = np.ceil(x)
            x -= c
            x += 1.0
            x **= -1.0 / self.x_param
            c *= -2.0  # ceil(2W) in {1, 2} -> sign in {+1, -1}
            c += 3.0
            x *= c
            return x
        raise InvalidModelError(f"unknown x family {self.x_family!r}")

    def draw_rate(self, rng: np.random.Generator, size) -> np.ndarray:
        """Rates of shape ``size``; constant rates draw nothing and are one
        read-only view of the value."""
        if self.rate_family == "constant":
            return np.broadcast_to(float(self.rate_params[0]), size)
        if self.rate_family == "lognormal":
            m, s = self.rate_params
            rates = rng.normal(m, s, size)
            return np.exp(rates, out=rates)  # in place: one rate-sized array
        raise InvalidModelError(f"unknown rate family {self.rate_family!r}")

    def stable_scale(self) -> float:
        """Scale c such that walk sums obey S_n / (c n^{1/alpha}) -> W(1).

        W(1) is the standard strictly stable variate produced by
        :func:`bpire_lab.limit.stable_standard` (characteristic function
        exp(-|t|^alpha) in the symmetric case; Normal(0, 2) at alpha=2).
        For ``normal`` steps, S_n ~ Normal(0, sigma^2 n), so c = sigma/sqrt(2).
        For ``pareto`` steps with tail P(|X|>x) = x^{-a}, the classical
        tail-to-scale constant is c = (Gamma(2-a) cos(pi a/2) / (1-a))^{1/a},
        with the a=1 limit pi/2.
        """
        if self.x_family == "normal":
            return self.x_param / math.sqrt(2.0)
        a = self.x_param
        if abs(a - 1.0) < 1e-12:
            return math.pi / 2.0
        c_a = math.gamma(2.0 - a) * math.cos(math.pi * a / 2.0) / (1.0 - a)
        return c_a ** (1.0 / a)

    def normalizer(self, n: int) -> float:
        """C_n = c n^{1/alpha}, with c the family's :meth:`stable_scale`."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.stable_scale() * n ** (1.0 / self.alpha)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


def validate_model(model: EnvironmentModel, strict: bool = False) -> list:
    """Check a model against the structural hypotheses.

    Confirms finite positive offspring/immigration means by construction,
    consistency of the declared (alpha, rho) with the x family (both
    shipped families are symmetric, hence rho = 1/2 and the limit law is
    two-sided), and the moment condition E(ln^+ mu)^{alpha+eps} < inf,
    which holds analytically for constant and lognormal rates.

    Returns the list of :class:`ValidationCheck`. With ``strict=True``
    raises :class:`InvalidModelError` on any failing check instead.
    """
    checks: list[ValidationCheck] = []

    def add(name, passed, detail=""):
        checks.append(ValidationCheck(name, bool(passed), detail))

    add("x family known", model.x_family in X_FAMILIES, model.x_family)
    add("rate family known", model.rate_family in RATE_FAMILIES, model.rate_family)
    add("eps positive", model.eps > 0, f"eps={model.eps}")

    if model.x_family == "normal":
        add("x scale positive", model.x_param > 0, f"sigma={model.x_param}")
        add("alpha matches family", model.alpha == 2.0,
            f"normal family has stable index 2, declared {model.alpha}")
    elif model.x_family == "pareto":
        add("tail index in (0,2)", 0.0 < model.x_param < 2.0, f"alpha={model.x_param}")
        add("alpha matches family", model.alpha == model.x_param,
            f"declared {model.alpha}, family tail index {model.x_param}")

    # Both shipped families are symmetric: the attracting stable law is
    # two-sided (not one-sided) and the positivity parameter is 1/2.
    add("rho in (0,1)", 0.0 < model.rho < 1.0, f"rho={model.rho}")
    add("rho matches symmetric family", model.rho == 0.5,
        f"symmetric x family forces rho=1/2, declared {model.rho}")
    add("limit law two-sided", 0.0 < model.rho < 1.0,
        "rho in the open interval excludes one-sided limits")

    if model.rate_family == "constant":
        params = model.rate_params
        ok = len(params) == 1 and 0 < params[0] < math.inf
        add("rate positive finite", ok,
            f"rate={params[0]}" if len(params) == 1 else f"need one rate, got {params}")
        add("moment condition", ok,
            "constant rate has bounded ln^+, all moments finite")
    elif model.rate_family == "lognormal":
        ok = len(model.rate_params) == 2 and model.rate_params[1] >= 0
        add("rate params well-formed", ok, str(model.rate_params))
        add("moment condition", ok,
            "ln^+ of a lognormal rate is a truncated normal: all moments finite")

    failed = "; ".join(f"{c.name}: {c.detail}" for c in checks if not c.passed)
    if strict and failed:
        raise InvalidModelError(failed)
    return checks
