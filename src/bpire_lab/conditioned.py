"""Samplers for the walk and its dual walk conditioned to stay nonnegative.

Every path is returned in the coordinates of the limit environment S*:
a positive-side path is the walk S conditioned on
{min_{0<=i<=n} S_i >= 0}, and a negative-side path is the dual walk -S
conditioned the same way, since the environment reads its negative side
backward from the minimum. The side is one sign, applied where the steps
are drawn, and both sides keep their paths in one region, S* >= 0.

Two laws are in play for each side and horizon n: the plain conditional
law given the region, and the renewal-reweighted law whose density
against the conditional one is proportional to v(S*_n). The first is
what a finite-n conditioning event produces; the second is the
harmonic-transform measure that the limiting environment obeys, and it
is consistent across horizons. For the dual walk v is the ascending
ladder renewal function u of S, which equals v for the symmetric
continuous step laws shipped here (see ladder.py), so both sides read one
table. A batch is a pair (paths, weights): equal-weight paths drawn
from the method's native face, and a weight vector converting them into
the other face by self-normalized importance weighting.

Methods:

* ``rejection`` -- resimulate free walks until the conditioning event
  holds; paths are exact draws from the conditional law, and the weights
  (proportional to v(S*_n)) give the reweighted law.
* ``h-transform`` -- sequential importance sampling whose running weight
  after step k is proportional to v(S*_k) on surviving paths, with
  systematic resampling; particles are equal-weight draws from the
  reweighted law, and the weights (proportional to 1/v(S*_n)) recover the
  conditional law.
"""

from __future__ import annotations

import math

import numpy as np

from .env import EnvironmentModel
from .ladder import LadderTables

__all__ = [
    "RejectionExhausted",
    "sample_conditioned_batch",
    "resample_indices",
]

REJECTION_CAP = 1_000_000  # free-path attempts allowed per accepted path


class RejectionExhausted(RuntimeError):
    """Raised when rejection sampling exceeds its attempt budget."""


def _steps(model: EnvironmentModel, rng: np.random.Generator, size, sign: int) -> np.ndarray:
    """Steps of S*: the drawn steps X, negated in place when ``sign`` is -1."""
    x = model.draw_x(rng, size)
    if sign < 0:
        np.negative(x, out=x)
    return x


# Longest kill sweep in rejection: the sweeps double from 1 step up to
# this length, which bounds the rows x steps block drawn at once.
_KILL_SEGMENT = 128


def _rejection(model: EnvironmentModel, n: int, reps: int,
               rng: np.random.Generator, sign: int) -> np.ndarray:
    """Exact conditional sampling by resimulation, of the walk with steps
    ``sign`` X (+1 for the positive side, -1 for the negative one).

    Proposals advance in sweeps of 1, 2, 4, ... steps (at most
    ``_KILL_SEGMENT``) and are dropped at the end of the first sweep in
    which they leave the conditioning region. A proposal is dropped only
    once it has left the region, so the accepted paths are exact. For a
    symmetric continuous step law, Sparre Andersen's theorem gives
    P(S_1, ..., S_k >= 0) = C(2k, k)/4^k (Feller vol. II, XII.7), so a
    proposal stopped at its exit draws E[min(tau, n)] = 2n C(2n, n)/4^n
    steps, and an accepted path costs about 2n variates. A sweep is never
    longer than the steps before it plus one, so the doubling at most
    doubles a proposal's draws. Each chunk holds the expected number of
    proposals that yield the paths still needed, so few accepted paths are
    drawn and dropped; a chunk that falls short is followed by a smaller
    one. Accepted rows are copied straight into the returned matrix, so
    the accepted paths are held once.
    """
    out = np.empty((reps, n + 1))
    out[:, 0] = 0.0
    got = 0
    attempts = 0
    budget = REJECTION_CAP * reps
    # C(2n, n)/4^n, the probability that a proposal is accepted (in logs:
    # the exact binomial takes seconds at n = 10^5)
    p_accept = math.exp(math.lgamma(2 * n + 1) - 2.0 * math.lgamma(n + 1)
                        - n * math.log(4.0))
    while got < reps:
        if attempts >= budget:
            raise RejectionExhausted(
                f"rejection (sign {sign:+d}) at n={n}: {attempts} attempts for {got}/{reps} paths"
            )
        need = reps - got
        m = min(32768, budget - attempts, math.ceil(need / p_accept))
        rows = np.arange(m)
        cur = np.zeros(m)
        kept = []  # per sweep: the surviving proposals and their segments
        lo, width = 0, 1
        while lo < n:
            k = min(width, n - lo)
            lo, width = lo + k, min(2 * width, _KILL_SEGMENT)
            seg = cur[:, None] + np.cumsum(_steps(model, rng, (len(rows), k), sign), axis=1)
            ok = seg.min(axis=1) >= 0.0
            rows, seg = rows[ok], seg[ok]
            kept.append((rows, seg))
            cur = seg[:, -1]
            if len(rows) == 0:
                break
        take = min(len(rows), reps - got)
        if take:
            # an accepted proposal survived every sweep, so the kept
            # segments fill columns 1..n
            done = rows[:take]
            col = 1
            for r, s in kept:
                out[got:got + take, col:col + s.shape[1]] = s[np.searchsorted(r, done)]
                col += s.shape[1]
        got += take
        attempts += m
    return out


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    m = len(weights)
    positions = (rng.uniform() + np.arange(m)) / m
    return np.searchsorted(np.cumsum(weights), positions).clip(0, m - 1)


def _h_flow(model: EnvironmentModel, n: int, reps: int, rng: np.random.Generator,
            sign: int, tables: LadderTables) -> np.ndarray:
    s = np.zeros((reps, n + 1))
    h_prev = np.ones(reps)  # h at the origin is 1 by convention
    for k in range(1, n + 1):
        y = s[:, k - 1] + _steps(model, rng, reps, sign)
        alive = y >= 0.0
        if not alive.any():
            raise RejectionExhausted(f"h-flow (sign {sign:+d}) died out at step {k}")
        h_cur = np.ones(reps)
        h_cur[alive] = tables.v_at(y[alive])
        # one step of weights, then systematic resampling at every step
        logw = np.where(alive, np.log(h_cur / h_prev), -np.inf)
        s[:, k] = y
        w = np.exp(logw - logw.max())
        idx = _systematic_resample(w / w.sum(), rng)
        s[:, : k + 1] = s[idx, : k + 1]
        h_prev = h_cur[idx]
    return s


def sample_conditioned_batch(model: EnvironmentModel, n: int, method: str,
                             reps: int, rng: np.random.Generator, side: str,
                             tables: LadderTables | None = None):
    """Draw ``reps`` conditioned paths at horizon ``n``.

    Returns (paths, weights): rows S*_0..S*_n, which are S on the positive
    side and -S on the negative one, so every row stays >= 0; equal-weight
    draws from the method's native face, and normalized weights giving the
    other face (see the module docstring). ``tables`` may be omitted for
    rejection, in which case the weights are None.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    sign = 1 if side == "positive" else -1
    if method == "rejection":
        s = _rejection(model, n, reps, rng, sign)
        if tables is None:
            return s, None
        w = tables.v_at(s[:, -1])
    elif method == "h-transform":
        if tables is None:
            raise ValueError("h-transform sampling requires ladder tables")
        s = _h_flow(model, n, reps, rng, sign, tables)
        w = 1.0 / tables.v_at(s[:, -1])
    else:
        raise ValueError(f"unknown method {method!r}")
    return s, w / w.sum()


def resample_indices(weights: np.ndarray, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of an importance resample: ``reps`` draws with replacement,
    index k with probability ``weights[k]``, so the indexed rows form an
    equal-weight sample."""
    return rng.choice(len(weights), size=reps, replace=True, p=weights)
