"""The limiting objects: stable Lévy levels, two-sided conditioned
environments, and the ratio law driving the limit process, drawn from
exact martingale limits.

The limit process is built from two independent ingredients: the level
(running infimum) of a strictly stable Lévy process, of which theorem 1
needs only whether it drops between two times (one pass over a grid
path, ``estimate_level_change_prob``), and an i.i.d.
sequence of ratios gamma = Sigma2/Sigma1 of two random series over a
two-sided environment. The two-sided environment pairs independent
conditioned walks, each carrying its own immigration rates: S
conditioned to stay nonnegative, indexed forward, and the dual walk -S
conditioned the same way, indexed backward. The environment takes one
form, its two sides: one rule draws a side (``sample_side``: its paths,
their resample indices, then its rates), so every reader sees the same
numbers from the same stream, and column j of a side is S*_j on the
positive side and S*_{-j} on the negative one. One rule sums a side's
series (``series_sums``). A reader that needs only per-side reads
(lemma1's S*_i, the series sums) holds one side at a time; the gamma
sample builds its cohort arrays straight from both sides
(``_cohort_tails``).
"""

from __future__ import annotations

import math

import numpy as np

from .bpire import _row_groups, limit_log_values
from .conditioned import resample_indices, sample_conditioned_batch
from .env import EnvironmentModel, check_stable_params
from .ladder import LadderTables

__all__ = [
    "stable_standard",
    "sample_side",
    "sample_two_sided_batch",
    "series_sums",
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
    Box-Muller transform, and that normal is drawn directly.

    The trigonometric factors come from three tangents, which cost a
    fraction of a sine or cosine: both cosine angles lie in (-pi/2, pi/2),
    so cos x = (1 + tan^2 x)^{-1/2}, and sin 2h = 2 tan h / (1 + tan^2 h).
    The values agree with the sine-cosine form to rounding, not bit for
    bit. Computed in place: the draws plus one buffer, three arrays of the
    requested size at most.
    """
    check_stable_params(alpha, rho)
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0), size)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    if alpha == 1.0:
        np.tan(u, out=u)
        u += math.tan(np.pi * (rho - 0.5))
        return u
    e = rng.standard_exponential(size)
    t = np.pi * (rho - 0.5)
    a = alpha
    # with c2 = cos(a t + (a-1) u) = (1 + tan^2)^{-1/2}, the last factor is
    # (c2 / e)^{(1-a)/a} = ((1 + tan^2) e^2)^{(a-1)/(2a)}: e <- that
    buf = u * (a - 1.0)
    buf += a * t
    np.tan(buf, out=buf)
    buf *= buf
    buf += 1.0
    e *= e
    e *= buf
    e **= (a - 1.0) / (2.0 * a)
    # 1 / (cos u)^{1/a} = (1 + tan^2 u)^{1/(2a)}: e <- e times that
    np.tan(u, out=buf)
    buf *= buf
    buf += 1.0
    buf **= 1.0 / (2.0 * a)
    e *= buf
    # u <- sin(a (u + t)) / 2 from the tangent h of its half angle
    u += t
    u *= a / 2.0
    np.tan(u, out=u)
    np.multiply(u, u, out=buf)
    buf += 1.0
    u /= buf
    u *= e
    u *= 2.0 * math.cos(a * t) ** (-1.0 / a)
    return u


def sample_side(model: EnvironmentModel, n: int, reps: int, rng: np.random.Generator,
                tables: LadderTables, side: str):
    """One side of the two-sided environment at horizon ``n``, in the
    coordinates of S*: (walk, rows, mu), the only form the environment
    takes.

    ``walk`` holds ``reps`` exact rejection paths, as the sampler returns
    them: S on the positive side and the dual walk -S on the negative one,
    so that column j is S*_j on the positive side and S*_{-j} on the
    negative one. Row r of the side is ``walk[rows[r]]``: the paths
    importance-resampled by their terminal renewal weight, so the side
    follows the renewal-reweighted measure of the limiting environment.
    Column j of ``mu`` is mu*_{j+1} on the positive side and mu*_{-j} on
    the negative one, so the series term of column j is
    mu[:, j] e^{-walk[rows, j]} on the positive side and
    mu[:, j] e^{-walk[rows, j + 1]} on the negative one. The draw order
    fixes the bytes: the paths, their resample indices, then the rates
    (constant rates draw nothing and are one read-only view of the value).
    """
    walk, weights = sample_conditioned_batch(model, n, "rejection", reps, rng, side, tables)
    return walk, resample_indices(weights, reps, rng), model.draw_rate(rng, (reps, n))


def sample_two_sided_batch(model: EnvironmentModel, I: int, reps: int,
                           rng: np.random.Generator, tables: LadderTables,
                           pos_extra: int = 0):
    """The two sides of ``reps`` environments at series half-width ``I``, as
    the side draws (positive, negative) of ``sample_side``: the positive
    side to horizon I + ``pos_extra`` (the tail sums beyond the series need
    the extra steps), then the negative side to horizon I. The two sides
    are independent.
    """
    if I < 1:
        raise ValueError("I must be >= 1")
    return (sample_side(model, I + max(pos_extra, 0), reps, rng, tables, "positive"),
            sample_side(model, I, reps, rng, tables, "negative"))


def series_sums(walk: np.ndarray, mu: np.ndarray, rows=None) -> np.ndarray:
    """Per-row sums of one side's series terms mu[:, j] e^{-walk[:, j]}, one
    term per column of ``mu``: row 0 sums every term, row 1 all but the
    first (the term nearest the origin). Row r of the side reads walk row
    ``rows[r]`` (walk row r when ``rows`` is None) and mu row r.

    The terms are formed in row groups of about ``_BLOCK_CELLS`` cells, so
    no (reps, width) buffer exists; a row's sums do not depend on its group.
    """
    width = mu.shape[1]
    sums = np.empty((2, len(mu)))
    for lo, hi in _row_groups(width, len(mu)):
        # gather, negate, exponentiate and scale in place
        terms = np.negative(walk[np.s_[lo:hi] if rows is None else rows[lo:hi], :width])
        np.exp(terms, out=terms)
        terms *= mu[lo:hi]
        sums[0, lo:hi] = terms.sum(axis=1)
        sums[1, lo:hi] = terms[:, 1:].sum(axis=1)
    return sums


def _cohort_tails(model: EnvironmentModel, positive, negative, I: int, J: int):
    """Tail sums of the 2I immigrant cohorts i = -I..I-1 of the side draws
    (``positive``, ``negative``).

    Returns (reps, 2I) arrays, column c for cohort i = c - I: S*_i,
    mu*_{i+1}, and ln T_i = ln sum_{j=i}^{I+J-1} e^{-S*_j}, the sum running
    J steps past the series into the positive tail. One right-to-left
    ``logaddexp`` pass over S*_{-I}..S*_{I+J-1} gives every T_i, so no
    increment of the walk underflows a sum to zero. Under constant rates
    mu*_{i+1} stays one read-only view of the rate.
    """
    (pos, pos_rows, pos_mu), (neg, neg_rows, neg_mu) = positive, negative
    if pos.shape[1] < I + J or neg.shape[1] < I + 1:
        raise ValueError(f"two-sided environment too short for I={I}, J={J}")
    # the negative side read backward, S*_{-I}..S*_{-1}, then S*_0..S*_{I+J-1}
    s = np.concatenate([neg[neg_rows, I:0:-1], pos[pos_rows, :I + J]], axis=1)
    t_log = np.logaddexp.accumulate(-s[:, ::-1], axis=1)[:, ::-1]
    if model.rate_family == "constant":
        mu = model.draw_rate(None, (len(s), 2 * I))
    else:
        mu = np.concatenate([neg_mu[:, I - 1::-1], pos_mu[:, :I]], axis=1)
    return s[:, :2 * I], mu, t_log[:, :2 * I]


def sample_gamma_batch(model: EnvironmentModel, I: int, J: int, *, reps: int,
                       rng: np.random.Generator, tables: LadderTables) -> dict:
    """Draw ``reps`` truncated (Sigma1, Sigma2, gamma) realizations, keyed
    ``sigma1``, ``sigma2`` and ``gamma``.

    Sigma1 sums t_i = mu*_{i+1} e^{-S*_i} and Sigma2 sums zeta*_i e^{-S*_i}
    over i in [-I, I-1]. Each zeta*_i is the martingale limit of cohort
    i, drawn exactly given the environment: zeta*_i e^{-S*_i} = T_i G_i
    with G_i ~ Gamma(Poisson(t_i/T_i)) and T_i = sum_{j>=i} e^{-S*_j},
    summed over a positive tail of J steps past the series.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    positive, negative = sample_two_sided_batch(model, I, reps, rng, tables, pos_extra=J)
    (pos, pos_rows, pos_mu), (neg, neg_rows, neg_mu) = positive, negative
    # the positive series starts at S*_0, the negative one at S*_{-1}
    sigma1 = (series_sums(pos, pos_mu[:, :I], pos_rows)[0]
              + series_sums(neg[:, 1:], neg_mu, neg_rows)[0])
    s_i, mu, t_log = _cohort_tails(model, positive, negative, I, J)
    # the limit's B_i = sum_{k>=0} e^{-(S*_{i+k} - S*_i)} is e^{S*_i} T_i
    sigma2 = np.exp(limit_log_values(mu, t_log + s_i, rng) - s_i).sum(axis=1)
    return {"sigma1": sigma1, "sigma2": sigma2, "gamma": sigma2 / sigma1}


def _grid_index(ts, delta: float) -> np.ndarray:
    """Grid index ceil(t / delta) of each time; the 1e-9 guard keeps a time
    on the grid at its own index when the division rounds up."""
    return np.ceil(np.asarray(ts, dtype=float) / delta - 1e-9).astype(int)


def estimate_level_change_prob(alpha: float, rho: float, t1: float, t2: float,
                               delta: float, reps: int,
                               rng: np.random.Generator) -> float:
    """Fraction of Lévy paths whose level strictly decreases on (t1, t2].

    W(0) = 0 and W moves by delta^{1/alpha} times a standard stable
    variate per grid cell; the level at grid index k is the running
    infimum min(0, W(delta), ..., W(k delta)). With k = ceil(t / delta),
    the level drops on (t1, t2] when the minimum over (k1, k2] lies below
    min(0, minimum over [1, k1]). Replicas go in blocks of about
    ``_BLOCK_CELLS`` cells: each block is drawn, summed in place and
    reduced to its two minima.
    """
    if delta <= 0 or not 0 < t1 <= t2:
        raise ValueError(f"need delta > 0 and 0 < t1 <= t2, got {delta}, {t1}, {t2}")
    k1, k2 = _grid_index((t1, t2), delta).tolist()
    drops = 0
    for lo, hi in _row_groups(k2, reps):
        w = stable_standard(alpha, rho, (hi - lo, k2), rng)
        # W is left unscaled: scaling it by c > 0, here delta^{1/alpha},
        # does not change the event that the minimum drops
        np.cumsum(w, axis=1, out=w)
        before = w[:, :k1].min(axis=1, initial=0.0)
        drops += int((w[:, k1:].min(axis=1, initial=np.inf) < before).sum())
    return drops / reps
