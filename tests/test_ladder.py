import copy
import math
import tracemalloc

import numpy as np
import pytest

from bpire_lab import env, ladder
from bpire_lab.config import RunConfig
from bpire_lab.env import EnvironmentModel
from bpire_lab.ladder import (
    LadderNonconvergence,
    estimate_ladder_tables,
    save_ladder_tables,
)
from bpire_lab.runner import Runner
from bpire_lab.stats import ks_two_sample


def test_origin_convention(std_tables):
    assert std_tables.v[0] == 1.0
    assert std_tables.v_at(0.0) == 1.0


def test_monotone_nondecreasing(std_tables):
    assert np.all(np.diff(std_tables.v) >= 0)


def test_renewal_slope_stabilizes(std_tables):
    # renewal theorem: counts grow linearly, so increments over equal
    # spans far from the origin agree
    top = std_tables.grid[-1]
    a = std_tables.v_at(0.5 * top) - std_tables.v_at(0.25 * top)
    b = std_tables.v_at(top) - std_tables.v_at(0.75 * top)
    slope = (std_tables.v_at(top) - 1.0) / top
    assert slope > 0
    assert abs(a - b) / b < 0.12


class _Mirrored(EnvironmentModel):
    """Steps -X: its descending ladder table is the ascending table of X."""

    def draw_x(self, rng, size=None):
        return -EnvironmentModel.draw_x(self, rng, size)


def test_ascending_table_matches_descending(std_model, std_tables):
    # u = v for symmetric continuous steps: the ascending table, built as
    # the descending table of the mirrored walk from an independent
    # stream at the same budget, agrees with v within its noise
    mirrored = _Mirrored(x_family=std_model.x_family, x_param=std_model.x_param)
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(2,)))
    asc = estimate_ladder_tables(mirrored, rng, budget=80_000)
    xs = np.linspace(0.0, min(std_tables.grid[-1], asc.grid[-1]), 50)
    se = np.interp(xs, std_tables.grid, std_tables.v_se)
    se_asc = np.interp(xs, asc.grid, asc.v_se)
    gap = np.abs(asc.v_at(xs) - std_tables.v_at(xs))
    assert np.all(gap <= 4.0 * np.sqrt(se**2 + se_asc**2))


@pytest.mark.parametrize("family", env.X_FAMILIES)
def test_every_x_family_is_symmetric(family):
    # the one-table shortcut (u = v) needs X and -X to share a law
    model = EnvironmentModel(x_family=family, x_param=1.5)
    rng = np.random.default_rng(99)
    n = 20_000
    d = ks_two_sample(model.draw_x(rng, n), -model.draw_x(rng, n)).statistic
    assert d < math.sqrt(-0.5 * math.log(0.005)) * math.sqrt(2.0 / n)


def test_harmonic_property(std_model, std_tables):
    # E[v(x + X); x + X >= 0] = v(x) makes the reweighted measures
    # consistent across horizons
    rng = np.random.default_rng(5)
    for x0 in (0.0, 0.8, 2.5):
        y = x0 + rng.standard_normal(400_000)
        val = np.where(y >= 0, std_tables.v_at(np.clip(y, 0, None)), 0.0).mean()
        assert val == pytest.approx(std_tables.v_at(x0), rel=0.03)


def test_standard_errors_reported(std_tables):
    assert std_tables.v_se.shape == std_tables.grid.shape
    assert np.all(std_tables.v_se[1:] > 0)
    assert std_tables.meta["epochs_desc"] >= 1000


def test_interp_and_extrapolation(std_tables):
    top = std_tables.grid[-1]
    slope = (std_tables.v[-1] - std_tables.v[-2]) / (std_tables.grid[-1] - std_tables.grid[-2])
    expect = std_tables.v[-1] + slope * top
    assert std_tables.v_at(2 * top) == pytest.approx(expect)
    with pytest.raises(ValueError):
        std_tables.v_at(-1.0)


def test_budget_floor(std_model, rng):
    with pytest.raises(ValueError):
        estimate_ladder_tables(std_model, rng, budget=10)


def test_step_cap_nonconvergence(std_model, rng, monkeypatch):
    monkeypatch.setattr(ladder, "_STEP_CAP", 64)
    monkeypatch.setattr(ladder, "_NONCONVERGENCE_TOL", 0.01)
    with pytest.raises(LadderNonconvergence):
        estimate_ladder_tables(std_model, rng, budget=2000)


def test_save_load_roundtrip(std_tables, tmp_path):
    path = str(tmp_path / "tables.txt")
    save_ladder_tables(std_tables, path)
    grid, v, v_se = np.loadtxt(path, unpack=True)
    assert np.array_equal(grid, std_tables.grid)
    assert np.array_equal(v, std_tables.v)
    assert np.array_equal(v_se, std_tables.v_se)
    lines = open(path).read().splitlines()
    assert f"# walkers = {std_tables.meta['walkers']}" in lines


# -- walker blocks ------------------------------------------------------------

def test_block_tables_are_worker_count_invariant(tmp_path):
    # 3,000 walkers: a block of 2,500 in this process and one of 500, which
    # goes to the pool on two workers; the table is the same bit for bit
    tables = []
    for workers in (1, 2):
        bench = Runner(RunConfig.from_dict({"ladder_budget": 30_000, "workers": workers,
                                            "out_dir": str(tmp_path)}))
        tables.append(bench.tables)
    one, two = tables
    assert one.meta["walkers"] == 3000
    assert one.meta == two.meta
    for key in ("grid", "v", "v_se"):
        assert np.array_equal(getattr(one, key), getattr(two, key)), key


@pytest.mark.parametrize("family", env.X_FAMILIES)
def test_one_block_is_the_single_pass(family):
    # at most 2,500 walkers are one block on the caller's stream: v and the
    # metadata are those of one pass over the walkers' count matrix, and
    # v_se is its sample standard deviation over sqrt(W) up to rounding
    model = EnvironmentModel(x_family=family, x_param=1.5)
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(4,)))
    again = copy.deepcopy(rng)
    tables = estimate_ladder_tables(model, rng, budget=25_009)
    pilot = ladder._first_height_sample(model, again)
    scale = float(min(pilot.mean(), 3.0 * np.median(pilot)))
    grid = np.linspace(0.0, ladder._SPAN * scale, 512)
    walkers = 2500
    counts, capped = ladder._renewal_counts(model, grid, walkers, again)
    assert np.array_equal(tables.grid, grid)
    assert np.array_equal(tables.v, 1.0 + counts.mean(axis=0))
    se = counts.std(axis=0, ddof=1) / np.sqrt(walkers)
    assert np.allclose(tables.v_se, se, rtol=1e-12, atol=0.0)
    assert tables.meta == {"walkers": walkers, "step_cap": ladder._STEP_CAP,
                           "epochs_desc": int(counts[:, -1].sum()), "epochs_asc": 0,
                           "capped_frac_desc": capped / walkers, "capped_frac_asc": 0.0}


def test_block_sums_cannot_overflow(std_model):
    # a walker meets at most one record a step, so a cumulative count is at
    # most _STEP_CAP: the int32 counts hold it, and the int64 sum of its
    # squares over every walker of the default budget holds that bound
    walkers = RunConfig().ladder_budget // ladder._SPAN
    assert ladder._STEP_CAP <= np.iinfo(np.int32).max
    assert walkers * ladder._STEP_CAP ** 2 <= np.iinfo(np.int64).max
    grid = np.linspace(0.0, 3.0, 512)
    s1, s2, capped = ladder._block_sums(50, np.random.default_rng(8), std_model, grid)
    assert s1.dtype == s2.dtype == np.int64
    assert np.all(s2 >= s1) and np.all(np.diff(s1) >= 0)


def test_ladder_peak_is_one_block(std_model):
    # 10,000 walkers in four blocks, one at a time in this process: the
    # traced peak stays under 1.5 blocks' working set. A block's working
    # set is its (2,500, 512) float64 draw buffer, its int32 counts and
    # their int64 cumulative sums: 25,600,000 bytes (one pass over all
    # 10,000 walkers peaks at about 103 MB)
    block = 2500 * 512 * (8 + 4 + 8)
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(5,)))
    tracemalloc.start()
    try:
        tables = estimate_ladder_tables(std_model, rng, budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.meta["walkers"] == 10_000
    assert peak <= 1.5 * block


def _full_bookkeeping_counts(model, grid, walkers, rng):
    """The renewal counts with the record bookkeeping run on every active
    walker in every sweep, as before walkers whose sweep stays above their
    record were skipped: the oracle of the skip."""
    top = grid[-1]
    counts = np.zeros((walkers, len(grid)), dtype=np.int32)
    cur = np.zeros(walkers)
    rec = np.zeros(walkers)
    active = np.arange(walkers)
    steps_used = 0
    while len(active) and steps_used < ladder._STEP_CAP:
        k = min(ladder._CHUNK, ladder._STEP_CAP - steps_used)
        run = model.draw_x(rng, (len(active), k))
        np.cumsum(run, axis=1, out=run)
        run += cur[active, None]
        cur[active] = run[:, -1]
        np.minimum.accumulate(run, axis=1, out=run)
        old = rec[active]
        np.minimum(run, old[:, None], out=run)
        is_rec = np.empty(run.shape, dtype=bool)
        np.less(run[:, 0], old, out=is_rec[:, 0])
        np.less(run[:, 1:], run[:, :-1], out=is_rec[:, 1:])
        w_idx, t_idx = np.nonzero(is_rec)
        h = np.abs(run[w_idx, t_idx])
        keep = h <= top
        cells = np.searchsorted(grid, h[keep], side="left")
        np.add.at(counts, (active[w_idx[keep]], cells), 1)
        rec[active] = run[:, -1]
        active = active[np.abs(run[:, -1]) <= top]
        steps_used += k
    return np.cumsum(counts, axis=1), len(active)


@pytest.mark.parametrize("family", env.X_FAMILIES)
def test_record_skip_matches_full_bookkeeping(family, monkeypatch):
    # a cap of 2.5 sweeps ends on a short sweep and leaves walkers capped;
    # the grid top is crossed in the middle of sweeps, so records past it
    # are dropped and walkers leave at the end of the sweep that crossed
    monkeypatch.setattr(ladder, "_STEP_CAP", 1280)
    model = EnvironmentModel(x_family=family, x_param=1.5)
    grid = np.linspace(0.0, 12.0, 512)
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(6,)))
    again = copy.deepcopy(rng)
    counts, capped = ladder._renewal_counts(model, grid, 400, rng)
    expect, expect_capped = _full_bookkeeping_counts(model, grid, 400, again)
    assert 0 < capped < 400
    assert capped == expect_capped
    assert np.array_equal(counts, expect)
    # the two loops drew the same variates
    assert rng.random() == again.random()
