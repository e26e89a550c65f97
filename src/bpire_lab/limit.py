"""The limiting objects: stable Lévy paths, glued conditioned
environments, martingale-limit proxies, and the ratio law driving the
limit process.

The limit process is built from two independent ingredients: the level
(running infimum) of a strictly stable Lévy process, and an i.i.d.
sequence of ratios gamma = Sigma2/Sigma1 of two random series over a
two-sided environment. The two-sided environment glues an independent
pair of conditioned walks: a nonnegative one indexed forward and a
negative one indexed backward (with flipped sign), each carrying its own
immigration rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bpire import cohort_log_sizes
from .conditioned import resample_by_weight, sample_conditioned_batch
from .env import EnvironmentModel, check_stable_params
from .ladder import LadderTables

__all__ = [
    "TwoSidedBatch",
    "GammaBatch",
    "stable_standard",
    "levy_levels",
    "sample_two_sided_batch",
    "series_terms",
    "sample_gamma_batch",
    "sample_limit_fdd_batch",
    "estimate_level_change_prob",
]


def stable_standard(alpha: float, rho: float, size, rng: np.random.Generator) -> np.ndarray:
    """Standard strictly stable variates with P(X > 0) = rho.

    Uniform-exponential transform: with U uniform on (-pi/2, pi/2), E a
    unit exponential and t = pi (rho - 1/2),

        X = sin(alpha (U + t)) / (cos(alpha t) cos U)^{1/alpha}
            * (cos(alpha t + (alpha-1) U) / E)^{(1-alpha)/alpha}

    for alpha != 1, and X = tan(U) + tan(pi (rho - 1/2)) at alpha = 1.
    The symmetric case has characteristic function exp(-|s|^alpha); at
    alpha = 2 this is Normal(0, 2).
    """
    check_stable_params(alpha, rho)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    if alpha == 1.0:
        return np.tan(u) + math.tan(np.pi * (rho - 0.5))
    e = rng.exponential(1.0, size)
    t = np.pi * (rho - 0.5)
    a = alpha
    num = np.sin(a * (u + t))
    den = (math.cos(a * t) * np.cos(u)) ** (1.0 / a)
    fac = (np.cos(a * t + (a - 1.0) * u) / e) ** ((1.0 - a) / a)
    return num / den * fac


def levy_levels(alpha: float, rho: float, delta: float, idx, reps: int,
                rng: np.random.Generator) -> np.ndarray:
    """Levels of a strictly stable Lévy path W at grid indices ``idx``.

    W(0) = 0 and increments over cells of width delta are standard
    stable variates scaled by delta^{1/alpha}; the level at index k is
    the discretized running infimum min(0, W(delta), ..., W(k delta)).
    ``idx`` must be nondecreasing and nonnegative; the path runs to
    ``idx[-1]``. Returns an array of shape (reps, len(idx)). Replicas
    are drawn in chunks of about 2e7 cells, and each chunk is summed in
    place and reduced segment by segment, so memory holds one chunk.
    """
    idx = [int(k) for k in idx]
    if delta <= 0 or not idx or idx[0] < 0 or any(b < a for a, b in zip(idx, idx[1:])):
        raise ValueError("need delta > 0 and nondecreasing nonnegative grid indices")
    levels = np.empty((reps, len(idx)))
    chunk = max(1, int(2e7 // max(idx[-1], 1)))
    for lo in range(0, reps, chunk):
        w = stable_standard(alpha, rho, (min(chunk, reps - lo), idx[-1]), rng)
        w *= delta ** (1.0 / alpha)
        np.cumsum(w, axis=1, out=w)
        level = np.zeros(len(w))
        start = 0
        for j, k in enumerate(idx):
            level = np.minimum(level, w[:, start:k].min(axis=1, initial=0.0))
            levels[lo:lo + len(w), j] = level
            start = k
    return levels


@dataclass
class TwoSidedBatch:
    """Replica batch of glued two-sided environments.

    Positive side: ``s_pos`` rows are S*_0..S*_{hp} (nonnegative walk),
    ``mu_pos`` the rates mu*_1..mu*_{hp}. Negative side: ``s_neg`` rows
    are the negative-conditioned walk S^-_0..S^-_{hn} (negative from
    index 1), ``mu_neg`` its rates mu^-_1..mu^-_{hn}; the glued values
    at i <= 0 are S*_i = -S^-_{-i} and mu*_i = mu^-_{-i+1}.
    """

    s_pos: np.ndarray
    mu_pos: np.ndarray
    s_neg: np.ndarray
    mu_neg: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def reps(self) -> int:
        return self.s_pos.shape[0]

    def s_star(self, i: int) -> np.ndarray:
        return self.s_pos[:, i] if i >= 0 else -self.s_neg[:, -i]

    def mu_star(self, i: int) -> np.ndarray:
        return self.mu_pos[:, i - 1] if i >= 1 else self.mu_neg[:, -i]

    def x_star(self, j: int) -> np.ndarray:
        """Step S*_j - S*_{j-1} of the glued walk."""
        if j >= 1:
            return self.s_pos[:, j] - self.s_pos[:, j - 1]
        return self.s_neg[:, -j + 1] - self.s_neg[:, -j]


def sample_two_sided_batch(model: EnvironmentModel, I: int, method: str,
                           reps: int, rng: np.random.Generator,
                           tables: LadderTables | None = None,
                           pos_extra: int = 0,
                           face: str = "tilt") -> TwoSidedBatch:
    """Draw glued environments at series half-width ``I``.

    The positive side is sampled to horizon I + ``pos_extra`` (cohort
    evolution beyond the series needs the extra steps), the negative side
    to horizon I; the two sides are independent. With ``face='tilt'``
    (the default) both sides are drawn from the renewal-reweighted
    measure that the limiting environment obeys: rejection paths are
    importance-resampled by their terminal renewal weight, h-transform
    paths already carry that law. ``face='conditional'`` keeps the plain
    finite-horizon conditional laws.
    """
    if I < 1:
        raise ValueError("I must be >= 1")
    hp = I + max(pos_extra, 0)
    hn = I
    sides = {}
    for side, horizon in (("positive", hp), ("negative", hn)):
        batch = sample_conditioned_batch(model, horizon, method, reps, rng,
                                         side, tables)
        s = batch.s
        if face == "tilt":
            if batch.tilt_weights is None:
                raise ValueError("tilt face requires ladder tables")
            if batch.method == "rejection":
                s = resample_by_weight(s, batch.tilt_weights, reps, rng)
        elif face == "conditional":
            if batch.method == "h-transform":
                s = resample_by_weight(s, batch.cond_weights, reps, rng)
        else:
            raise ValueError(f"unknown face {face!r}")
        sides[side] = s
    mu_pos = np.asarray(model.draw_rate(rng, (reps, hp)), dtype=float)
    mu_neg = np.asarray(model.draw_rate(rng, (reps, hn)), dtype=float)
    return TwoSidedBatch(
        s_pos=sides["positive"], mu_pos=mu_pos,
        s_neg=sides["negative"], mu_neg=mu_neg,
        meta={"I": I, "method": method, "face": face, "pos_extra": pos_extra},
    )


def series_terms(env: TwoSidedBatch, I: int):
    """Per-index terms mu*_{i+1} e^{-S*_i} of the first series.

    Returns (pos, neg): ``pos[:, j]`` is the term at i = j for
    j = 0..I-1; ``neg[:, j]`` the term at i = -(j+1) for j = 0..I-1,
    which in the negative side's own coordinates is mu^-_{j+1} e^{S^-_{j+1}}.
    """
    pos = env.mu_pos[:, :I] * np.exp(-env.s_pos[:, :I])
    neg = env.mu_neg[:, :I] * np.exp(env.s_neg[:, 1:I + 1])
    return pos, neg


def _zeta_log_batch(env: TwoSidedBatch, i: int, J: int,
                    rng: np.random.Generator) -> np.ndarray:
    """ln of the cohort martingale value a*_{i,i+J} Z*_{i,i+J} per replica.

    The cohort starts from a Poisson immigrant draw with rate mu*_{i+1}
    and branches through the glued environment for J generations; the
    result approximates the almost-sure martingale limit for the cohort.
    Returns -inf where the cohort died.
    """
    x = np.stack([env.x_star(j) for j in range(i + 1, i + J + 1)])
    z_log = cohort_log_sizes(env.mu_star(i + 1), x, env.reps, rng)[-1]
    return z_log - (env.s_star(i + J) - env.s_star(i))


@dataclass
class GammaBatch:
    sigma1: np.ndarray
    sigma2: np.ndarray
    gamma: np.ndarray
    trunc_i: int
    trunc_j: int
    method: str


def sample_gamma_batch(model: EnvironmentModel, I: int, J: int, method: str,
                       reps: int, rng: np.random.Generator,
                       tables: LadderTables | None = None,
                       face: str = "tilt") -> GammaBatch:
    """Draw ``reps`` truncated (Sigma1, Sigma2, gamma) realizations.

    Sigma1 sums mu*_{i+1} e^{-S*_i} and Sigma2 sums zeta*_i e^{-S*_i}
    over i in [-I, I-1], with zeta proxies at martingale depth J.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    env = sample_two_sided_batch(model, I, method, reps, rng, tables,
                                 pos_extra=J, face=face)
    pos, neg = series_terms(env, I)
    sigma1 = pos.sum(axis=1) + neg.sum(axis=1)
    sigma2 = np.zeros(reps)
    for i in range(-I, I):
        zl = _zeta_log_batch(env, i, J, rng)
        sigma2 += np.where(np.isfinite(zl), np.exp(zl - env.s_star(i)), 0.0)
    return GammaBatch(sigma1=sigma1, sigma2=sigma2, gamma=sigma2 / sigma1,
                      trunc_i=I, trunc_j=J, method=method)


def _fdd_from_levels(levels: np.ndarray, gammas: np.ndarray):
    """Map per-time levels (reps x m) and gamma pools (reps x m) to values.

    The first coordinate takes the first gamma; each strict level
    decrease advances to the next unused gamma.
    """
    changed = levels[:, 1:] < levels[:, :-1]
    idx = np.concatenate([np.zeros((len(levels), 1), dtype=int),
                          np.cumsum(changed, axis=1)], axis=1)
    y = np.take_along_axis(gammas, idx, axis=1)
    return y, changed


def sample_limit_fdd_batch(ts, model: EnvironmentModel, I: int, J: int,
                           delta: float | None, reps: int,
                           rng: np.random.Generator,
                           tables: LadderTables | None = None,
                           gamma_pool: np.ndarray | None = None,
                           method: str = "rejection"):
    """Draw ``reps`` finite-dimensional vectors of the limit process.

    The Lévy path (level source) and the gamma stream are independent:
    they must be fed from distinct random streams by the caller or drawn
    here from one stream in a fixed order (path first, gammas second).
    ``gamma_pool`` may supply pre-drawn gamma variates (at least reps * m,
    consumed row-wise without reuse).
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 1 or np.any(np.diff(ts) <= 0) or ts[0] <= 0:
        raise ValueError("need strictly increasing positive times")
    if delta is None:
        delta = 1e-3 * ts[-1]
    levels = levy_levels(model.alpha, model.rho, delta,
                         np.ceil(ts / delta - 1e-9).astype(int), reps, rng)
    m = len(ts)
    if gamma_pool is None:
        gamma_pool = sample_gamma_batch(model, I, J, method, reps * m, rng,
                                        tables).gamma
    if len(gamma_pool) < reps * m:
        raise ValueError("gamma pool too small")
    gammas = np.asarray(gamma_pool[: reps * m]).reshape(reps, m)
    y, changed = _fdd_from_levels(levels, gammas)
    return y, changed, gammas


def estimate_level_change_prob(alpha: float, rho: float, t1: float, t2: float,
                               delta: float, reps: int,
                               rng: np.random.Generator) -> float:
    """Fraction of Lévy paths whose level strictly decreases on (t1, t2]."""
    idx = (int(np.ceil(t1 / delta - 1e-9)), int(np.ceil(t2 / delta)))
    levels = levy_levels(alpha, rho, delta, idx, reps, rng)
    return int((levels[:, 1] < levels[:, 0]).sum()) / reps
