"""Monte Carlo renewal function of the walk's ladder-height process.

Under oscillation, absolute values of strict descending ladder heights
form a renewal process; its renewal function v(x) (with v(0) = 1,
counting the origin) is the harmonic function of the walk killed on
going negative. Weak ascending ladder heights give u(x), the harmonic
function of the walk killed on reaching nonnegative territory.

One table serves both sides. Every shipped step law is symmetric, so -S
has the law of S and the ascending ladder heights of S have the law of
its descending ones; and every shipped step law is continuous, so weak
and strict ladder epochs coincide almost surely. Hence u = v exactly,
not approximately (Feller vol. II, XII.1-XII.3 and XVIII.5), and the
negative side reads u(x) as v(x). An asymmetric step family would need
its own ascending table, so ``env.X_FAMILIES`` admits none.

v is estimated empirically: each walker contributes one renewal
realization, followed until its cumulative ladder depth leaves the
grid. Record times are detected strictly: a ladder point is a step at
which the walk falls below its running minimum, counted at the depth of
the new minimum. A walker can set a record in a sweep only if the
sweep's minimum falls below its record, so the record bookkeeping runs
on those walkers alone; every other walker would add no count and keep
its record, so the table is the one the bookkeeping of every walker
gives, bit for bit. The walkers run in the fixed
replica blocks of ``bpire._BLOCK_REPS`` (never a function of the worker
count): block 0 draws on the caller's stream after the pilot, so a table
of one block draws what one pass over all walkers would, and block
b >= 1 on the b-th stream spawned from it (``Generator.spawn``). Each
block gives exact int64 sums of its walkers' cumulative counts and of
their squares, so no process holds more than one block's count matrix
and the table is the same however the blocks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io

import numpy as np

from .bpire import _BLOCK_REPS
from .env import EnvironmentModel

__all__ = [
    "LadderTables",
    "LadderNonconvergence",
    "estimate_ladder_tables",
    "save_ladder_tables",
]

_CHUNK = 512  # steps simulated per vectorized sweep
_STEP_CAP = 262_144  # steps after which a walker's renewal sequence is cut
_NONCONVERGENCE_TOL = 0.05  # largest tolerated share of cut walkers
_SPAN = 10  # grid top in mean ladder heights


class LadderNonconvergence(RuntimeError):
    """Raised when too many ladder excursions exceed the step cap."""


@dataclass
class LadderTables:
    """Renewal-function estimate on a grid of nonnegative heights.

    ``v`` counts strict descending ladder points by cumulative depth,
    including the origin, so v(0) = 1 by convention. It is also the
    weak ascending renewal function u (see the module docstring).
    """

    grid: np.ndarray
    v: np.ndarray
    v_se: np.ndarray
    meta: dict = field(default_factory=dict)

    def v_at(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise ValueError("ladder renewal functions are defined on x >= 0")
        out = np.interp(xs, self.grid, self.v)
        # linear extrapolation beyond the grid with the final slope
        top = self.grid[-1]
        slope = (self.v[-1] - self.v[-2]) / (self.grid[-1] - self.grid[-2])
        high = xs > top
        if np.any(high):
            out = np.where(high, self.v[-1] + (xs - top) * slope, out)
        return out


def _first_height_sample(model: EnvironmentModel, rng: np.random.Generator,
                         walkers: int = 2048, max_steps: int = 65536) -> np.ndarray:
    """Sample first strict descending ladder heights: |S| at the first S < 0."""
    cur = np.zeros(walkers)
    alive = np.ones(walkers, dtype=bool)
    out: list[float] = []
    steps = 0
    while alive.any() and steps < max_steps:
        idx = np.nonzero(alive)[0]
        s = model.draw_x(rng, (len(idx), _CHUNK))
        np.cumsum(s, axis=1, out=s)
        s += cur[idx, None]
        cur[idx] = s[:, -1]
        # only a row whose minimum is negative holds a first ladder height
        anyhit = s.min(axis=1) < 0.0
        s = s[anyhit]
        first = np.argmax(s < 0.0, axis=1)
        out.extend(np.abs(s[np.arange(len(s)), first]).tolist())
        alive[idx[anyhit]] = False
        steps += _CHUNK
    if not out:
        raise LadderNonconvergence("pilot run produced no ladder epochs")
    return np.asarray(out)


def _renewal_counts(model: EnvironmentModel, grid: np.ndarray, walkers: int,
                    rng: np.random.Generator):
    """Per-walker counts of descending ladder points with depth <= grid top.

    Returns (cumulative counts, walkers x grid; number of capped walkers).
    """
    top = grid[-1]
    counts = np.zeros((walkers, len(grid)), dtype=np.int32)
    cur = np.zeros(walkers)
    rec = np.zeros(walkers)  # running minimum of the walk, <= 0
    active = np.arange(walkers)
    steps_used = 0
    while len(active) and steps_used < _STEP_CAP:
        k = min(_CHUNK, _STEP_CAP - steps_used)
        # one buffer holds the draws, then the walk; a copy of its rows that
        # set a record holds their running minimum
        run = model.draw_x(rng, (len(active), k))
        np.cumsum(run, axis=1, out=run)
        run += cur[active, None]
        cur[active] = run[:, -1]
        # a walker sets a record in this sweep only if the sweep falls
        # below its record; the bookkeeping runs on those rows alone
        old = rec[active]
        hit = run.min(axis=1) < old
        rows, old, run = active[hit], old[hit], run[hit]
        np.minimum.accumulate(run, axis=1, out=run)
        # seed the running minimum with the historical record so only
        # genuinely new records fire
        np.minimum(run, old[:, None], out=run)
        is_rec = np.empty(run.shape, dtype=bool)
        np.less(run[:, 0], old, out=is_rec[:, 0])
        np.less(run[:, 1:], run[:, :-1], out=is_rec[:, 1:])
        w_idx, t_idx = np.nonzero(is_rec)
        h = np.abs(run[w_idx, t_idx])
        keep = h <= top
        cells = np.searchsorted(grid, h[keep], side="left")
        np.add.at(counts, (rows[w_idx[keep]], cells), 1)
        rec[rows] = run[:, -1]
        active = active[np.abs(rec[active]) <= top]
        steps_used += k
    capped = len(active)
    return np.cumsum(counts, axis=1), capped


def _block_sums(walkers: int, rng: np.random.Generator, model: EnvironmentModel,
                grid: np.ndarray):
    """One block's per-grid sums of the walkers' cumulative counts and of
    their squares (int64; a count is at most ``_STEP_CAP``, one record a
    step), and its number of capped walkers."""
    counts, capped = _renewal_counts(model, grid, walkers, rng)
    # the plain sum is taken before the squares overwrite the counts
    return counts.sum(axis=0), np.square(counts, out=counts).sum(axis=0), capped


def estimate_ladder_tables(model: EnvironmentModel, rng: np.random.Generator, *,
                           budget: int, submit=None) -> LadderTables:
    """Estimate the renewal function v by direct renewal simulation.

    ``budget`` is the target number of ladder epochs across all walkers
    (at least 1000). The grid spans 10 mean ladder heights in 512
    points. Each walker runs until its record leaves the grid or
    ``_STEP_CAP`` steps elapse; if more than ``_NONCONVERGENCE_TOL`` of
    all walkers hit the cap, :class:`LadderNonconvergence` is raised.
    Capped walkers censor a small tail of late ladder points; the capped
    fraction is recorded in the metadata. Only descending walkers run,
    since u = v for the symmetric step laws: the metadata keys
    ``epochs_asc`` and ``capped_frac_asc`` are kept and are 0.

    The walkers run in replica blocks (module docstring). Block 0 runs
    in this process; ``submit``, when given, takes the tasks
    ``(fn, rng, count, args)`` of the other blocks and returns a callable
    giving each ``fn(count, rng, *args)`` in task order (the runner
    submits them to its pool first, so they overlap block 0). Without it
    they run here, one at a time. v = 1 + S1/W and v_se is the sample
    standard deviation over sqrt(W), from the exact W S2 - S1^2.
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000 ladder epochs")
    pilot = _first_height_sample(model, rng)
    # heavy-tailed steps give ladder heights with infinite mean; cap the
    # span scale by a quantile so the grid stays reachable
    scale = float(min(pilot.mean(), 3.0 * np.median(pilot)))
    grid = np.linspace(0.0, _SPAN * scale, 512)
    # by the renewal theorem a walker meets about _SPAN epochs on the grid
    walkers = max(512, int(budget) // _SPAN)

    sizes = [min(_BLOCK_REPS, walkers - lo) for lo in range(_BLOCK_REPS, walkers, _BLOCK_REPS)]
    tasks = [(_block_sums, r, n, (model, grid)) for r, n in zip(rng.spawn(len(sizes)), sizes)]
    rest = (submit(tasks) if submit is not None and tasks
            else lambda: [fn(n, r, *args) for fn, r, n, args in tasks])
    # block 0 on this stream, drawn while the submitted blocks run
    first = _block_sums(min(_BLOCK_REPS, walkers), rng, model, grid)
    s1, s2, capped = map(sum, zip(first, *rest()))
    if capped / walkers > _NONCONVERGENCE_TOL:
        raise LadderNonconvergence(
            f"{capped}/{walkers} walkers exceeded the step cap {_STEP_CAP}")
    # W S2 - S1^2 in Python integers: exact, whatever the sums' size
    spread = np.array([walkers * b - a * a for a, b in zip(s1.tolist(), s2.tolist())], float)
    return LadderTables(
        grid=grid,
        v=1.0 + s1 / walkers,
        v_se=np.sqrt(spread / walkers / (walkers - 1)) / np.sqrt(walkers),
        meta={
            "walkers": walkers,
            "step_cap": _STEP_CAP,
            "epochs_desc": int(s1[-1]),
            "epochs_asc": 0,
            "capped_frac_desc": capped / walkers,
            "capped_frac_asc": 0.0,
        },
    )


def save_ladder_tables(tables: LadderTables, path: str) -> None:
    """Write the table in a keyed text format (grid, v, standard error)."""
    buf = io.StringIO()
    for key, val in sorted(tables.meta.items()):
        buf.write(f"# {key} = {val}\n")
    buf.write("# columns: x v v_se\n")
    for row in zip(tables.grid, tables.v, tables.v_se):
        buf.write(" ".join(repr(float(c)) for c in row) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
