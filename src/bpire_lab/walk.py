"""The associated random walk and its path functionals.

The walk is S_0 = 0, S_k = x_1 + ... + x_k over the environment's log
means. Everything downstream is driven by its extrema: the running
minimum, the running maximum, and the first index at which the minimum
is attained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .env import EnvironmentModel, check_stable_params

__all__ = [
    "StableSpec",
    "simulate_walk_matrix",
    "arcsine_cdf",
    "normalizer",
]


@dataclass(frozen=True)
class StableSpec:
    """Normalizing-sequence spec: C_n = scale * n^{1/alpha}.

    The slowly varying part is constant for the shipped step families, so
    it is folded into ``scale``.
    """

    alpha: float
    rho: float
    scale: float = 1.0

    def __post_init__(self):
        check_stable_params(self.alpha, self.rho)
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def simulate_walk_matrix(model: EnvironmentModel, n: int, reps: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Simulate ``reps`` independent paths; rows are S_0..S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.empty((reps, n + 1))
    s[:, 0] = 0.0
    np.cumsum(model.draw_x(rng, (reps, n)), axis=1, out=s[:, 1:])
    return s


def _arcsine_lower(rho: float, x: float) -> float:
    # integral over [0, x] with the algebraic u^{rho-1} endpoint factor
    val, _ = integrate.quad(
        lambda u: (1.0 - u) ** (-rho), 0.0, x, weight="alg", wvar=(rho - 1.0, 0.0),
        epsabs=1e-10, epsrel=1e-10,
    )
    return val


def _arcsine_upper(rho: float, x: float) -> float:
    # integral over [x, 1] with the algebraic (1-u)^{-rho} endpoint factor
    val, _ = integrate.quad(
        lambda u: u ** (rho - 1.0), x, 1.0, weight="alg", wvar=(0.0, -rho),
        epsabs=1e-10, epsrel=1e-10,
    )
    return val


def arcsine_cdf(rho: float, x) -> float:
    """Generalized arcsine law: (sin(pi rho)/pi) * int_0^x u^{rho-1}(1-u)^{-rho} du.

    Evaluated by adaptive quadrature with the endpoint singularities
    handled algebraically; absolute error below 1e-8. Accepts scalar or
    array ``x`` in [0, 1].
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise ValueError("x must lie in [0,1]")
    norm = np.sin(np.pi * rho) / np.pi
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi == 0.0:
            out[i] = 0.0
        elif xi == 1.0:
            out[i] = 1.0
        elif xi <= 0.5:
            out[i] = norm * _arcsine_lower(rho, xi)
        else:
            out[i] = 1.0 - norm * _arcsine_upper(rho, xi)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def normalizer(spec: StableSpec, n: int) -> float:
    """C_n = scale * n^{1/alpha}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return spec.scale * n ** (1.0 / spec.alpha)

