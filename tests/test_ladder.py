import math

import numpy as np
import pytest

from bpire_lab import env, ladder
from bpire_lab.env import EnvironmentModel
from bpire_lab.ladder import (
    LadderNonconvergence,
    estimate_ladder_tables,
    save_ladder_tables,
)
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
