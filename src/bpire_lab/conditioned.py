"""Samplers for the walk conditioned to stay positive or negative.

Two laws are in play for each side and horizon n. Taking the positive
side: the plain conditional law given {min_{0<=i<=n} S_i >= 0}, and the
renewal-reweighted law whose density against the conditional one is
proportional to v(S_n). The first is what a finite-n conditioning event
produces; the second is the harmonic-transform measure that the limiting
environment obeys, and it is consistent across horizons. Every batch
returned here carries both faces: equal-weight paths plus a weight
vector converting one face into the other by self-normalized importance
weighting.

Methods:

* ``rejection`` -- resimulate free walks until the conditioning event
  holds; paths are exact draws from the conditional law, and
  ``tilt_weights`` (proportional to v(S_n), resp. u(-S_n)) give the
  reweighted law.
* ``h-transform`` -- sequential importance sampling whose running weight
  after step k is proportional to v(S_k) on surviving paths, with
  systematic resampling; particles are equal-weight draws from the
  reweighted law, and ``cond_weights`` (proportional to 1/v(S_n))
  recover the conditional law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvironmentModel
from .ladder import LadderTables

__all__ = [
    "ConditionedSample",
    "RejectionExhausted",
    "sample_conditioned_batch",
    "resample_by_weight",
]

REJECTION_CAP = 1_000_000  # free-path attempts allowed per accepted path


class RejectionExhausted(RuntimeError):
    """Raised when rejection sampling exceeds its attempt budget."""


@dataclass
class ConditionedSample:
    """A batch of conditioned paths with both measure faces.

    ``s`` holds the paths (rows are S_0..S_n). The path rows are
    equal-weight draws from the method's native law: the conditional law
    for ``rejection``, the renewal-reweighted law for ``h-transform``.
    ``cond_weights`` and ``tilt_weights`` are normalized importance
    weights producing the conditional and reweighted faces respectively;
    the native face has uniform weights.
    """

    s: np.ndarray
    cond_weights: np.ndarray
    tilt_weights: np.ndarray | None
    side: str
    method: str

    @property
    def n(self) -> int:
        return self.s.shape[1] - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.s[:, -1]


def _harmonic(tables: LadderTables, side: str):
    if side == "positive":
        return lambda y: tables.v_at(y)
    return lambda y: tables.u_at(-y)


def _event_rows(s: np.ndarray, side: str) -> np.ndarray:
    if side == "positive":
        return s[:, 1:].min(axis=1) >= 0.0
    return s[:, 1:].max(axis=1) < 0.0


_KILL_SEGMENT = 128  # steps between early-kill sweeps in rejection


def _rejection(model: EnvironmentModel, n: int, reps: int,
               rng: np.random.Generator, side: str) -> np.ndarray:
    """Exact conditional sampling by resimulation.

    Proposals are killed as soon as they leave the conditioning region,
    so the cost per proposal is O(sqrt(n)) steps instead of n.
    """
    out = np.empty((reps, n + 1))
    out[:, 0] = 0.0
    got = 0
    attempts = 0
    budget = REJECTION_CAP * reps
    chunk = int(min(32768, max(1024, 8 * reps)))
    while got < reps:
        if attempts >= budget:
            raise RejectionExhausted(
                f"{side} rejection at n={n}: {attempts} attempts for {got}/{reps} paths"
            )
        m = min(chunk, budget - attempts)
        paths = np.empty((m, n + 1))
        paths[:, 0] = 0.0
        rows = np.arange(m)
        cur = np.zeros(m)
        for lo in range(0, n, _KILL_SEGMENT):
            k = min(_KILL_SEGMENT, n - lo)
            seg = cur[:, None] + np.cumsum(model.draw_x(rng, (len(rows), k)), axis=1)
            paths[rows, lo + 1: lo + 1 + k] = seg
            ok = (seg.min(axis=1) >= 0.0) if side == "positive" else (seg.max(axis=1) < 0.0)
            rows = rows[ok]
            cur = seg[ok, -1]
            if len(rows) == 0:
                break
        take = min(len(rows), reps - got)
        out[got:got + take] = paths[rows[:take]]
        got += take
        attempts += m
    return out


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    m = len(weights)
    positions = (rng.uniform() + np.arange(m)) / m
    return np.searchsorted(np.cumsum(weights), positions).clip(0, m - 1)


def _h_flow(model: EnvironmentModel, n: int, reps: int, rng: np.random.Generator,
            side: str, tables: LadderTables, resample_every: int = 1) -> np.ndarray:
    h = _harmonic(tables, side)
    s = np.zeros((reps, n + 1))
    logw = np.zeros(reps)
    h_prev = np.ones(reps)  # h at the origin is 1 by convention
    for k in range(1, n + 1):
        y = s[:, k - 1] + model.draw_x(rng, reps)
        alive = (y >= 0.0) if side == "positive" else (y < 0.0)
        if not alive.any():
            raise RejectionExhausted(f"{side} h-flow died out at step {k}")
        h_cur = np.ones(reps)
        h_cur[alive] = h(y[alive])
        logw += np.where(alive, np.log(h_cur / h_prev), -np.inf)
        s[:, k] = y
        h_prev = h_cur
        if k % resample_every == 0 or k == n:
            w = np.exp(logw - logw.max())
            w_sum = w.sum()
            idx = _systematic_resample(w / w_sum, rng)
            s[:, : k + 1] = s[idx, : k + 1]
            h_prev = h_prev[idx]
            logw[:] = 0.0
    return s


def sample_conditioned_batch(model: EnvironmentModel, n: int, method: str,
                             reps: int, rng: np.random.Generator, side: str,
                             tables: LadderTables | None = None) -> ConditionedSample:
    """Draw ``reps`` conditioned paths at horizon ``n``.

    ``tables`` may be omitted for rejection, in which case the sample
    carries no reweighted face.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    if method == "rejection":
        s = _rejection(model, n, reps, rng, side)
        cond = np.full(reps, 1.0 / reps)
        tilt = None
        if tables is not None:
            w = _harmonic(tables, side)(s[:, -1])
            tilt = w / w.sum()
        return ConditionedSample(s=s, cond_weights=cond, tilt_weights=tilt,
                                 side=side, method=method)
    if method == "h-transform":
        if tables is None:
            raise ValueError("h-transform sampling requires ladder tables")
        s = _h_flow(model, n, reps, rng, side, tables)
        w = 1.0 / _harmonic(tables, side)(s[:, -1])
        return ConditionedSample(s=s, cond_weights=w / w.sum(),
                                 tilt_weights=np.full(reps, 1.0 / reps),
                                 side=side, method=method)
    raise ValueError(f"unknown method {method!r}")


def resample_by_weight(values: np.ndarray, weights: np.ndarray, reps: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Importance-resample rows (or scalars) into an equal-weight sample."""
    idx = rng.choice(len(values), size=reps, replace=True, p=weights)
    return values[idx]
