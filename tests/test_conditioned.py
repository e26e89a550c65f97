import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.stats import norm

import bpire_lab.conditioned as conditioned
from bpire_lab.conditioned import (
    RejectionExhausted,
    resample_indices,
    sample_conditioned_batch,
)
from bpire_lab.env import EnvironmentModel
from bpire_lab.stats import ks_against_cdf, ks_two_sample
from bpire_lab.streams import derive_stream
from test_golden import FAMILIES

# the step families of the goldens (their rates do not enter a conditioned walk)
STEPS = {family: FAMILIES[family] for family in ("normal", "pareto")}


@dataclass(frozen=True)
class _RecordingModel(EnvironmentModel):
    """An environment model that keeps a copy of every step block it draws
    (the sampler may negate a block in place)."""

    draws: list = field(default_factory=list, compare=False)

    def draw_x(self, rng, size=None):
        x = super().draw_x(rng, size)
        self.draws.append(x.copy())
        return x


@dataclass(frozen=True)
class _MirroredModel(EnvironmentModel):
    """An environment model whose steps are the negated draws of its law."""

    def draw_x(self, rng, size=None):
        return -super().draw_x(rng, size)


def _sign(side):
    """Steps of S* are those of S on the positive side, of -S on the negative one."""
    return 1.0 if side == "positive" else -1.0


def _replay_sweeps(draws, n, side):
    """Proposals and accepted proposals of rejection, from its step blocks.

    Each proposal chunk starts at 0 with a one-step block over all its
    rows; every later block continues the rows still in the region
    S* >= 0. The rows that reach step n in the region are accepted.
    """
    proposals = accepted = 0
    lo = n
    for d in draws:
        if lo == n:
            cur, lo = np.zeros(len(d)), 0
            proposals += len(d)
        seg = cur[:, None] + np.cumsum(_sign(side) * d, axis=1)
        cur, lo = seg[seg.min(axis=1) >= 0.0, -1], lo + d.shape[1]
        if lo == n:
            accepted += len(cur)
        elif len(cur) == 0:
            lo = n
    return proposals, accepted


@pytest.mark.parametrize("method", ["rejection", "h-transform"])
def test_positive_paths_stay_nonnegative(std_model, std_tables, rng, method):
    s, _ = sample_conditioned_batch(std_model, 12, method, 500, rng, "positive", std_tables)
    assert s.shape == (500, 13)
    assert np.all(s[:, 0] == 0.0)
    assert s[:, 1:].min() >= 0.0


@pytest.mark.parametrize("method", ["rejection", "h-transform"])
def test_negative_paths_stay_negative(std_model, std_tables, rng, method):
    # a negative-side row is S* = -S, so S stays <= 0 where the row stays >= 0
    s, _ = sample_conditioned_batch(std_model, 12, method, 500, rng, "negative", std_tables)
    assert s.shape == (500, 13)
    assert np.all(s[:, 0] == 0.0)
    assert s[:, 1:].min() >= 0.0


def test_single_path_wrappers(std_model, std_tables, rng):
    # one conditioned path is one row of a batch, in S* coordinates on
    # either side
    p = sample_conditioned_batch(std_model, 8, "rejection", 1, rng,
                                 "positive", std_tables)[0][0]
    assert p[1:].min() >= 0.0
    q = sample_conditioned_batch(std_model, 8, "h-transform", 256, rng,
                                 "negative", std_tables)[0][0]
    assert q[1:].min() >= 0.0


@pytest.mark.parametrize("family", sorted(STEPS))
@pytest.mark.parametrize("method", ["rejection", "h-transform"])
def test_negative_side_is_the_dual_walk(std_tables, family, method):
    # the negative side draws the dual walk -S and conditions it as the
    # positive side conditions S: a model whose steps are the negated draws
    # gives, on its positive side, the plain model's negative side, bit for
    # bit, paths and weights
    model = EnvironmentModel(**STEPS[family])
    mirrored = _MirroredModel(**STEPS[family])
    s, w = sample_conditioned_batch(model, 40, method, 300, derive_stream(9, 0, family),
                                    "negative", std_tables)
    ms, mw = sample_conditioned_batch(mirrored, 40, method, 300, derive_stream(9, 0, family),
                                      "positive", std_tables)
    assert np.array_equal(s, ms) and np.array_equal(w, mw)


def test_methods_agree_on_conditional_face(std_model, std_tables, rng):
    reps = 6000
    rej, _ = sample_conditioned_batch(std_model, 5, "rejection", reps, rng,
                                      "positive", std_tables)
    hfl, cond = sample_conditioned_batch(std_model, 5, "h-transform", reps, rng,
                                         "positive", std_tables)
    ks = ks_two_sample(rej[:, -1], hfl[:, -1], None, cond)
    assert ks.statistic <= 0.05


def test_methods_agree_on_reweighted_face(std_model, std_tables, rng):
    reps = 6000
    rej, tilt = sample_conditioned_batch(std_model, 5, "rejection", reps, rng,
                                         "positive", std_tables)
    hfl, _ = sample_conditioned_batch(std_model, 5, "h-transform", reps, rng,
                                      "positive", std_tables)
    ks = ks_two_sample(rej[:, -1], hfl[:, -1], tilt, None)
    assert ks.statistic <= 0.05


def test_faces_differ_at_small_horizons(std_model, std_tables, rng):
    # the renewal tilt is a genuine change of measure: the conditional
    # and reweighted laws of S_5 are far apart
    rej, _ = sample_conditioned_batch(std_model, 5, "rejection", 6000, rng,
                                      "positive", std_tables)
    hfl, _ = sample_conditioned_batch(std_model, 5, "h-transform", 6000, rng,
                                      "positive", std_tables)
    ks = ks_two_sample(rej[:, -1], hfl[:, -1])
    assert ks.statistic > 0.1


def test_conditional_expectation_consistency(std_model, std_tables, rng):
    # self-normalized estimates of E(phi | conditioning) agree across
    # methods within combined Monte Carlo error
    reps = 20_000
    phi = lambda s: np.exp(-s)  # noqa: E731
    rej, _ = sample_conditioned_batch(std_model, 6, "rejection", reps, rng,
                                      "positive", std_tables)
    hfl, w = sample_conditioned_batch(std_model, 6, "h-transform", reps, rng,
                                      "positive", std_tables)
    est_rej = phi(rej[:, -1]).mean()
    se_rej = phi(rej[:, -1]).std(ddof=1) / np.sqrt(reps)
    vals = phi(hfl[:, -1])
    est_h = np.sum(w * vals)
    # delta-method standard error for the self-normalized estimator
    se_h = np.sqrt(np.sum((w * (vals - est_h)) ** 2))
    assert abs(est_rej - est_h) <= 3.0 * np.hypot(se_rej, se_h)


def test_single_step_law_reweighted_face(std_model, std_tables, rng):
    # at horizon 1 the reweighted law has density proportional to
    # phi(s) v(s) on s >= 0; check against a quadrature oracle
    reps = 20_000
    hfl, _ = sample_conditioned_batch(std_model, 1, "h-transform", reps, rng,
                                      "positive", std_tables)
    grid = np.linspace(0.0, 6.0, 2001)
    dens = norm.pdf(grid) * std_tables.v_at(grid)
    cdf_vals = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0
                                                * np.diff(grid))])
    cdf_vals /= cdf_vals[-1]
    oracle = lambda x: np.interp(x, grid, cdf_vals)  # noqa: E731
    ks = ks_against_cdf(hfl[:, -1], oracle)
    assert ks.statistic <= 0.03


def test_single_step_law_conditional_face(std_model, rng):
    # at horizon 1 the conditional law is the half-normal
    rej, _ = sample_conditioned_batch(std_model, 1, "rejection", 20_000, rng,
                                      "positive")
    oracle = lambda x: np.clip(2.0 * norm.cdf(x) - 1.0, 0.0, 1.0)  # noqa: E731
    ks = ks_against_cdf(rej[:, -1], oracle)
    assert ks.statistic <= 0.02


def test_rejection_exhaustion(std_model, rng, monkeypatch):
    monkeypatch.setattr(conditioned, "REJECTION_CAP", 4)
    with pytest.raises(RejectionExhausted):
        sample_conditioned_batch(std_model, 4000, "rejection", 2, rng, "positive")


@pytest.mark.parametrize("family", sorted(STEPS))
@pytest.mark.parametrize("side", ["positive", "negative"])
@pytest.mark.parametrize("n", [5, 64, 512, 2000])
def test_rejection_cost_per_accepted_path(rng, family, side, n):
    # Sparre Andersen: for a symmetric continuous step law the walk stays
    # in either region for k steps with probability C(2k, k)/4^k, and a
    # proposal stopped at its exit costs 2n variates per accepted path.
    # At n = 5 a quarter of the proposals are accepted, so 10,000 paths
    # take several chunks, and accepted paths drawn past the last one
    # needed would count against the paths returned.
    reps = 10_000 if n == 5 else 400
    model = _RecordingModel(**STEPS[family])
    s, _ = sample_conditioned_batch(model, n, "rejection", reps, rng, side)
    assert s.shape == (reps, n + 1)
    proposals, accepted = _replay_sweeps(model.draws, n, side)
    assert accepted >= reps
    assert sum(d.size for d in model.draws) <= 3 * n * accepted
    if n == 5:
        assert sum(d.size for d in model.draws) <= 3 * n * reps
    p = math.comb(2 * n, n) / 4**n
    se = math.sqrt(p * (1.0 - p) / proposals)
    assert abs(accepted / proposals - p) <= 4.0 * se


def _filtered_paths(model, n, reps, rng, side):
    """Oracle: whole free paths, mirrored on the negative side, kept when
    every step stays in the region S* >= 0."""
    kept, got = [], 0
    while got < reps:
        s = np.cumsum(_sign(side) * model.draw_x(rng, (4096, n)), axis=1)
        s = s[s.min(axis=1) >= 0.0]
        kept.append(s)
        got += len(s)
    return np.concatenate(kept)[:reps]


@pytest.mark.parametrize("family", sorted(STEPS))
@pytest.mark.parametrize("side", ["positive", "negative"])
def test_rejection_matches_full_path_filter(rng, family, side):
    # n = 300 is no sum of whole sweeps (1 + 2 + ... + 128 = 255), so the
    # last sweep is cut short
    n, reps = 300, 2000
    model = EnvironmentModel(**STEPS[family])
    rej = sample_conditioned_batch(model, n, "rejection", reps, rng, side)[0][:, 1:]
    ref = _filtered_paths(model, n, reps, rng, side)
    crit = 1.95 * math.sqrt(2.0 / reps)  # two-sample KS at the 0.1% level
    for a, b in ((rej[:, -1], ref[:, -1]), (rej[:, 149], ref[:, 149]),
                 (np.min(rej, axis=1), np.min(ref, axis=1))):
        assert ks_two_sample(a, b).statistic <= crit


@pytest.mark.parametrize("side", ["positive", "negative"])
def test_sample_weights_contract(std_model, std_tables, rng, side):
    # a batch is (paths, weights): rejection without tables has no other
    # face, and with tables either method's weights are a positive
    # normalized vector over its paths
    s, w = sample_conditioned_batch(std_model, 6, "rejection", 40, rng, side)
    assert s.shape == (40, 7) and w is None
    for method in ("rejection", "h-transform"):
        s, w = sample_conditioned_batch(std_model, 6, method, 40, rng, side, std_tables)
        assert s.shape == (40, 7) and w.shape == (40,)
        assert np.all(w > 0.0)
        assert w.sum() == pytest.approx(1.0)


def test_requires_tables_for_h_transform(std_model, rng):
    with pytest.raises(ValueError):
        sample_conditioned_batch(std_model, 4, "h-transform", 10, rng, "positive")


def test_unknown_method_and_side(std_model, rng):
    with pytest.raises(ValueError):
        sample_conditioned_batch(std_model, 4, "metropolis", 10, rng, "positive")
    with pytest.raises(ValueError):
        sample_conditioned_batch(std_model, 4, "rejection", 10, rng, "sideways")


def test_resample_by_weight(rng):
    vals = np.array([0.0, 1.0, 2.0])
    w = np.array([0.0, 0.0, 1.0])
    out = vals[resample_indices(w, 50, rng)]
    assert np.all(out == 2.0)
