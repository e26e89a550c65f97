"""Monte Carlo renewal functions of the walk's ladder-height processes.

Under oscillation, absolute values of strict descending ladder heights
form a renewal process; its renewal function v(x) (with v(0) = 1,
counting the origin) is the harmonic function of the walk killed on
going negative. Weak ascending ladder heights give u(x), the harmonic
function of the walk killed on reaching nonnegative territory. Both are
estimated empirically: each walker contributes one renewal realization,
followed until its cumulative ladder height leaves the grid.

Both shipped step families are continuous, so weak and strict ladder
epochs coincide almost surely; record times are detected strictly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io

import numpy as np

from .env import EnvironmentModel

__all__ = [
    "LadderTables",
    "LadderNonconvergence",
    "estimate_ladder_tables",
    "save_ladder_tables",
]

_CHUNK = 512  # steps simulated per vectorized sweep
_STEP_CAP = 262_144  # steps after which a walker's renewal sequence is cut
_NONCONVERGENCE_TOL = 0.05  # largest tolerated share of cut walkers per side


class LadderNonconvergence(RuntimeError):
    """Raised when too many ladder excursions exceed the step cap."""


@dataclass
class LadderTables:
    """Renewal-function estimates on a grid of nonnegative heights.

    ``v`` counts strict descending ladder points by cumulative depth,
    ``u`` weak ascending ladder points by cumulative height; both include
    the origin, so v(0) = u(0) = 1 by convention.
    """

    grid: np.ndarray
    v: np.ndarray
    u: np.ndarray
    v_se: np.ndarray
    u_se: np.ndarray
    meta: dict = field(default_factory=dict)

    def _interp(self, table: np.ndarray, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise ValueError("ladder renewal functions are defined on x >= 0")
        out = np.interp(xs, self.grid, table)
        # linear extrapolation beyond the grid with the final slope
        top = self.grid[-1]
        slope = (table[-1] - table[-2]) / (self.grid[-1] - self.grid[-2])
        high = xs > top
        if np.any(high):
            out = np.where(high, table[-1] + (xs - top) * slope, out)
        return out

    def v_at(self, x):
        return self._interp(self.v, x)

    def u_at(self, x):
        return self._interp(self.u, x)


def _first_height_sample(model: EnvironmentModel, rng: np.random.Generator,
                         side: str, walkers: int = 2048,
                         max_steps: int = 65536) -> np.ndarray:
    """Sample first ladder heights: |S| at the first record time."""
    cur = np.zeros(walkers)
    alive = np.ones(walkers, dtype=bool)
    out: list[float] = []
    steps = 0
    while alive.any() and steps < max_steps:
        idx = np.nonzero(alive)[0]
        x = model.draw_x(rng, (len(idx), _CHUNK))
        s = cur[idx, None] + np.cumsum(x, axis=1)
        hit = (s < 0.0) if side == "desc" else (s > 0.0)
        anyhit = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        vals = s[np.arange(len(idx)), first]
        out.extend(np.abs(vals[anyhit]).tolist())
        cur[idx] = s[:, -1]
        alive[idx[anyhit]] = False
        steps += _CHUNK
    if not out:
        raise LadderNonconvergence("pilot run produced no ladder epochs")
    return np.asarray(out)


def _renewal_counts(model: EnvironmentModel, grid: np.ndarray, walkers: int,
                    rng: np.random.Generator, side: str):
    """Per-walker counts of ladder points with cumulative height <= grid top.

    Returns (cumulative counts, walkers x grid; number of capped walkers).
    """
    top = grid[-1]
    counts = np.zeros((walkers, len(grid)), dtype=np.int32)
    cur = np.zeros(walkers)
    rec = np.zeros(walkers)  # signed record level: running min or max
    active = np.arange(walkers)
    steps_used = 0
    while len(active) and steps_used < _STEP_CAP:
        k = min(_CHUNK, _STEP_CAP - steps_used)
        x = model.draw_x(rng, (len(active), k))
        s = cur[active, None] + np.cumsum(x, axis=1)
        # seed the running extremum with the historical record so only
        # genuinely new records fire
        ext = np.concatenate([rec[active, None], s], axis=1)
        if side == "desc":
            run = np.minimum.accumulate(ext, axis=1)
            is_rec = run[:, 1:] < run[:, :-1]
        else:
            run = np.maximum.accumulate(ext, axis=1)
            is_rec = run[:, 1:] > run[:, :-1]
        run = run[:, 1:]
        heights = np.abs(run)
        w_idx, t_idx = np.nonzero(is_rec)
        h = heights[w_idx, t_idx]
        keep = h <= top
        cells = np.searchsorted(grid, h[keep], side="left")
        np.add.at(counts, (active[w_idx[keep]], cells), 1)
        cur[active] = s[:, -1]
        rec[active] = run[:, -1]
        active = active[np.abs(run[:, -1]) <= top]
        steps_used += k
    capped = len(active)
    return np.cumsum(counts, axis=1), capped


def estimate_ladder_tables(model: EnvironmentModel, rng: np.random.Generator,
                           budget: int = 200_000) -> LadderTables:
    """Estimate both renewal functions by direct renewal simulation.

    ``budget`` is the target number of ladder epochs across all walkers
    (at least 1000). The grid spans 10 mean ladder heights in 512
    points. Each walker runs until its record leaves the grid or
    ``_STEP_CAP`` steps elapse; if more than ``_NONCONVERGENCE_TOL`` of
    the walkers hit the cap on either side, :class:`LadderNonconvergence`
    is raised. Capped walkers censor a small tail of late ladder points; the
    capped fractions are recorded in the metadata.
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000 ladder epochs")
    scales = {}
    for side in ("desc", "asc"):
        pilot = _first_height_sample(model, rng, side)
        # heavy-tailed steps give ladder heights with infinite mean; cap
        # the span scale by a quantile so the grid stays reachable
        scales[side] = float(min(pilot.mean(), 3.0 * np.median(pilot)))
    grid = np.linspace(0.0, 10.0 * max(scales.values()), 512)
    per_walker = max(2.0, grid[-1] / min(scales.values()))
    walkers = max(512, int(budget / per_walker))

    est = {}
    capped_frac = {}
    for side in ("desc", "asc"):
        counts, capped = _renewal_counts(model, grid, walkers, rng, side)
        fn = 1.0 + counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(walkers)
        est[side] = (fn, se, int(counts[:, -1].sum()))
        capped_frac[side] = capped / walkers
        if capped / walkers > _NONCONVERGENCE_TOL:
            raise LadderNonconvergence(
                f"{side} side: {capped}/{walkers} walkers exceeded the "
                f"step cap {_STEP_CAP}"
            )

    v, v_se, v_epochs = est["desc"]
    u, u_se, u_epochs = est["asc"]
    return LadderTables(
        grid=grid, v=v, u=u, v_se=v_se, u_se=u_se,
        meta={
            "walkers": walkers,
            "step_cap": _STEP_CAP,
            "epochs_desc": v_epochs,
            "epochs_asc": u_epochs,
            "capped_frac_desc": capped_frac["desc"],
            "capped_frac_asc": capped_frac["asc"],
        },
    )


def save_ladder_tables(tables: LadderTables, path: str) -> None:
    """Write tables in a keyed text format (grid, v, u, standard errors)."""
    buf = io.StringIO()
    for key, val in sorted(tables.meta.items()):
        buf.write(f"# {key} = {val}\n")
    buf.write("# columns: x v v_se u u_se\n")
    for row in zip(tables.grid, tables.v, tables.v_se, tables.u, tables.u_se):
        buf.write(" ".join(repr(float(c)) for c in row) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())

