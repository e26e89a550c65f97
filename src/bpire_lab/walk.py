"""The associated random walk and its path functionals.

The walk is S_0 = 0, S_k = x_1 + ... + x_k over the environment's log
means. Everything downstream is driven by its extrema: the running
minimum, the running maximum, and the first index at which the minimum
is attained. That index over n steps, divided by n, tends to the
generalized arcsine law Beta(rho, 1 - rho), whose CDF ``arcsine_cdf``
evaluates in closed form as a regularized incomplete beta function.
The normalizing sequence C_n of the walk belongs to the environment
model (``EnvironmentModel.normalizer``).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .env import EnvironmentModel

__all__ = ["simulate_walk_matrix", "arcsine_cdf"]


def simulate_walk_matrix(model: EnvironmentModel, n: int, reps: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Simulate ``reps`` independent paths; rows are S_0..S_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.empty((reps, n + 1))
    s[:, 0] = 0.0
    np.cumsum(model.draw_x(rng, (reps, n)), axis=1, out=s[:, 1:])
    return s


def arcsine_cdf(rho: float, x) -> float:
    """Generalized arcsine law: (sin(pi rho)/pi) * int_0^x u^{rho-1}(1-u)^{-rho} du.

    The density is that of Beta(rho, 1 - rho), so the law is its
    regularized incomplete beta function I_x(rho, 1 - rho). Accepts scalar
    or array ``x`` in [0, 1].
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    xs = np.asarray(x, dtype=float)
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise ValueError("x must lie in [0,1]")
    out = special.betainc(rho, 1.0 - rho, xs)
    return float(out) if xs.ndim == 0 else out

