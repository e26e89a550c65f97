"""The limiting objects: stable Lévy paths, glued conditioned
environments, and the ratio law driving the limit process, drawn from
exact martingale limits.

The limit process is built from two independent ingredients: the level
(running infimum) of a strictly stable Lévy process, and an i.i.d.
sequence of ratios gamma = Sigma2/Sigma1 of two random series over a
two-sided environment. The two-sided environment glues an independent
pair of conditioned walks: a nonnegative one indexed forward and a
negative one indexed backward (with flipped sign), each carrying its own
immigration rates. They are glued once, when drawn, into one array per
quantity in one coordinate system (``TwoSidedBatch``): column
origin + i holds S*_i and mu*_{i+1}, and every reader slices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bpire import limit_log_values
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
    "estimate_level_change_prob",
]


def stable_standard(alpha: float, rho: float, size, rng: np.random.Generator) -> np.ndarray:
    """Standard strictly stable variates with P(X > 0) = rho.

    Uniform-exponential transform: with U uniform on (-pi/2, pi/2), E a
    unit exponential and t = pi (rho - 1/2),

        X = sin(alpha (U + t)) / (cos(alpha t) cos U)^{1/alpha}
            * (cos(alpha t + (alpha-1) U) / E)^{(1-alpha)/alpha}

    for alpha != 1, and X = tan(U) + tan(pi (rho - 1/2)) at alpha = 1
    (Chambers, Mallows and Stuck, 1976). The symmetric case has
    characteristic function exp(-|s|^alpha). At alpha = 2 (so rho = 1/2)
    the formula reduces to 2 sin(U) sqrt(E), which is Normal(0, 2) by the
    Box-Muller transform, and that normal is drawn directly. Computed in
    place: the draws plus one buffer, three arrays of the requested size
    at most.
    """
    check_stable_params(alpha, rho)
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0), size)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    if alpha == 1.0:
        np.tan(u, out=u)
        u += math.tan(np.pi * (rho - 0.5))
        return u
    e = rng.exponential(1.0, size)
    t = np.pi * (rho - 0.5)
    a = alpha
    # e <- fac = (cos(a t + (a-1) u) / e)^{(1-a)/a}
    buf = u * (a - 1.0)
    buf += a * t
    np.cos(buf, out=buf)
    np.divide(buf, e, out=e)
    e **= (1.0 - a) / a
    # buf <- den = (cos(a t) cos u)^{1/a}
    np.cos(u, out=buf)
    buf *= math.cos(a * t)
    buf **= 1.0 / a
    # u <- num / den * fac with num = sin(a (u + t))
    u += t
    u *= a
    np.sin(u, out=u)
    u /= buf
    u *= e
    return u


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
    """Replica batch of glued two-sided environments, in one coordinate
    system.

    Column ``origin + i`` of ``s`` is S*_i and the same column of ``mu``
    is mu*_{i+1}, for i = -origin..width - origin - 1 (``mu`` stops one
    column short of ``s``). S*_i for i >= 0 is the nonnegative walk; for
    i < 0 it is minus the negative walk read backward, S*_i = -S^-_{-i},
    with mu*_{i+1} = mu^-_{-i}.
    """

    s: np.ndarray
    mu: np.ndarray
    origin: int

    def s_star(self, i: int) -> np.ndarray:
        if not -self.origin <= i < self.s.shape[1] - self.origin:
            raise IndexError(f"S*_{i} lies outside the glued environment")
        return self.s[:, self.origin + i]


def sample_two_sided_batch(model: EnvironmentModel, I: int, reps: int,
                           rng: np.random.Generator, tables: LadderTables,
                           pos_extra: int = 0) -> TwoSidedBatch:
    """Draw glued environments at series half-width ``I``: S*_{-I}..S*_hp,
    origin I, with hp = I + ``pos_extra``.

    The positive side is sampled to horizon hp (the tail sums beyond the
    series need the extra steps), the negative side to horizon I; the two
    sides are independent. Both sides follow the renewal-reweighted
    measure that the limiting environment obeys: exact rejection paths,
    importance-resampled by their terminal renewal weight.
    """
    if I < 1:
        raise ValueError("I must be >= 1")
    hp = I + max(pos_extra, 0)
    # each draw goes straight into its columns of the glued arrays, and a
    # side's batch is dropped before the next draw, so memory holds one
    # copy of the environment. The draw order fixes the bytes: the
    # positive side's paths and their resample, the same for the negative
    # side, then the positive and the negative rates.
    s = np.empty((reps, I + hp + 1))
    pos = sample_conditioned_batch(model, hp, "rejection", reps, rng, "positive", tables)
    s[:, I:] = resample_by_weight(pos.s, pos.tilt_weights, reps, rng)
    del pos
    neg = sample_conditioned_batch(model, I, "rejection", reps, rng, "negative", tables)
    s[:, I - 1::-1] = -resample_by_weight(neg.s, neg.tilt_weights, reps, rng)[:, 1:]
    del neg
    mu = np.empty((reps, I + hp))
    mu[:, I:] = model.draw_rate(rng, (reps, hp))
    mu[:, I - 1::-1] = model.draw_rate(rng, (reps, I))
    return TwoSidedBatch(s=s, mu=mu, origin=I)


def series_terms(env: TwoSidedBatch, I: int):
    """Per-index terms mu*_{i+1} e^{-S*_i} of the first series.

    Returns (pos, neg): ``pos[:, j]`` is the term at i = j and
    ``neg[:, j]`` the term at i = -(j+1), for j = 0..I-1.
    """
    o = env.origin
    # one (reps, 2I) buffer: negate, exponentiate and scale in place
    terms = np.negative(env.s[:, o - I:o + I])
    np.exp(terms, out=terms)
    terms *= env.mu[:, o - I:o + I]
    return terms[:, I:], terms[:, I - 1::-1]


def _glued_tails(env: TwoSidedBatch, I: int, J: int):
    """Tail sums of the 2I immigrant cohorts i = -I..I-1 of the glued
    environment.

    Returns (reps, 2I) arrays: S*_i, mu*_{i+1}, and
    ln T_i = ln sum_{j=i}^{I+J-1} e^{-S*_j}, the sum running J steps past
    the series into the positive tail. One right-to-left ``logaddexp``
    pass over the glued walk gives every T_i, so no increment of the walk
    underflows a sum to zero.
    """
    o = env.origin
    if o < I or env.s.shape[1] - o < I + J:
        raise ValueError(f"two-sided environment too short for I={I}, J={J}")
    s = env.s[:, o - I:o + I + J]
    t_log = np.logaddexp.accumulate(-s[:, ::-1], axis=1)[:, ::-1]
    return s[:, :2 * I], env.mu[:, o - I:o + I], t_log[:, :2 * I]


@dataclass
class GammaBatch:
    sigma1: np.ndarray
    sigma2: np.ndarray
    gamma: np.ndarray


def sample_gamma_batch(model: EnvironmentModel, I: int, J: int, *, reps: int,
                       rng: np.random.Generator, tables: LadderTables) -> GammaBatch:
    """Draw ``reps`` truncated (Sigma1, Sigma2, gamma) realizations.

    Sigma1 sums t_i = mu*_{i+1} e^{-S*_i} and Sigma2 sums zeta*_i e^{-S*_i}
    over i in [-I, I-1]. Each zeta*_i is the martingale limit of cohort
    i, drawn exactly given the environment: zeta*_i e^{-S*_i} = T_i G_i
    with G_i ~ Gamma(Poisson(t_i/T_i)) and T_i = sum_{j>=i} e^{-S*_j},
    summed over a positive tail of J steps past the series.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    env = sample_two_sided_batch(model, I, reps, rng, tables, pos_extra=J)
    pos, neg = series_terms(env, I)
    sigma1 = pos.sum(axis=1) + neg.sum(axis=1)
    s_i, mu, t_log = _glued_tails(env, I, J)
    # the limit's B_i = sum_{k>=0} e^{-(S*_{i+k} - S*_i)} is e^{S*_i} T_i
    sigma2 = np.exp(limit_log_values(mu, t_log + s_i, rng) - s_i).sum(axis=1)
    return GammaBatch(sigma1=sigma1, sigma2=sigma2, gamma=sigma2 / sigma1)


def _grid_index(ts, delta: float) -> np.ndarray:
    """Grid index ceil(t / delta) of each time; the 1e-9 guard keeps a time
    on the grid at its own index when the division rounds up."""
    return np.ceil(np.asarray(ts, dtype=float) / delta - 1e-9).astype(int)


def estimate_level_change_prob(alpha: float, rho: float, t1: float, t2: float,
                               delta: float, reps: int,
                               rng: np.random.Generator) -> float:
    """Fraction of Lévy paths whose level strictly decreases on (t1, t2]."""
    levels = levy_levels(alpha, rho, delta, _grid_index((t1, t2), delta), reps, rng)
    return int((levels[:, 1] < levels[:, 0]).sum()) / reps
