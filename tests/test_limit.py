import math

import numpy as np
import pytest
from scipy.stats import cauchy, kstest, levy_stable, norm

import bpire_lab.limit as limit
from bpire_lab.limit import (
    GammaBatch,
    _zeta_log_batch,
    estimate_level_change_prob,
    levy_levels,
    sample_gamma_batch,
    sample_limit_fdd_batch,
    sample_two_sided_batch,
    series_terms,
    stable_standard,
)
from bpire_lab.env import check_stable_params, normal_model
from bpire_lab.report import write_csv
from bpire_lab.stats import ks_two_sample
from bpire_lab.streams import derive_stream


# -- stable variates ---------------------------------------------------------

def test_feasible_parameter_set():
    check_stable_params(2.0, 0.5)
    check_stable_params(1.5, 0.6)
    check_stable_params(0.7, 0.3)
    with pytest.raises(ValueError):
        check_stable_params(2.0, 0.6)
    with pytest.raises(ValueError):
        check_stable_params(1.5, 0.8)  # outside [1-1/a, 1/a]
    with pytest.raises(ValueError):
        check_stable_params(0.5, 1.0)  # one-sided boundary
    with pytest.raises(ValueError):
        check_stable_params(2.5, 0.5)


def test_gaussian_case(rng):
    x = stable_standard(2.0, 0.5, 100_000, rng)
    assert x.var() == pytest.approx(2.0, rel=0.03)
    assert kstest(x, norm(scale=math.sqrt(2.0)).cdf).statistic <= 0.01


def test_cauchy_case(rng):
    x = stable_standard(1.0, 0.5, 100_000, rng)
    assert kstest(x, cauchy.cdf).statistic <= 0.01


def test_symmetric_stable_matches_reference(rng):
    # library oracle: the symmetric standard parameterization has
    # characteristic function exp(-|t|^alpha)
    x = stable_standard(1.3, 0.5, 60_000, rng)
    qs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    expect = np.array([levy_stable.ppf(p, 1.3, 0.0) for p in qs])
    got = np.quantile(x, qs)
    assert np.allclose(got, expect, atol=0.05)


@pytest.mark.parametrize("alpha,rho", [(1.5, 0.6), (0.7, 0.3), (1.0, 0.75)])
def test_positivity_parameter(alpha, rho, rng):
    x = stable_standard(alpha, rho, 200_000, rng)
    assert abs((x > 0).mean() - rho) <= 3.5 * 0.5 / math.sqrt(len(x))


def test_skewed_stable_matches_reference(rng):
    # the positivity parameter maps to the reference skew parameter via
    # beta = tan(pi a (rho - 1/2)) / tan(pi a / 2)
    alpha, rho = 1.5, 0.6
    beta = math.tan(math.pi * alpha * (rho - 0.5)) / math.tan(math.pi * alpha / 2.0)
    assert 1.0 - levy_stable.cdf(0.0, alpha, beta) == pytest.approx(rho, abs=1e-6)
    x = stable_standard(alpha, rho, 60_000, rng)
    qs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    expect = np.array([levy_stable.ppf(p, alpha, beta) for p in qs])
    assert np.allclose(np.quantile(x, qs), expect, atol=0.06)


# -- Lévy paths and levels ---------------------------------------------------

def test_levy_path_basics(rng):
    # the level after one cell is min(0, W(delta)), W(delta) ~ Normal(0, 2 delta)
    delta = 1.0 / 4000
    lev = levy_levels(2.0, 0.5, delta, [0, 1], 20_000, rng)
    assert np.all(lev[:, 0] == 0.0)
    assert np.mean(lev[:, 1] ** 2) == pytest.approx(delta, rel=0.1)


def test_levy_grid_validation(rng):
    with pytest.raises(ValueError):
        levy_levels(2.0, 0.5, 0.1, [], 10, rng)
    with pytest.raises(ValueError):
        levy_levels(2.0, 0.5, 0.1, [-1, 2], 10, rng)
    with pytest.raises(ValueError):
        levy_levels(2.0, 0.5, 0.1, [3, 2], 10, rng)
    with pytest.raises(ValueError):
        levy_levels(2.0, 0.5, 0.0, [1, 2], 10, rng)


def test_level_examples(monkeypatch):
    # fixed unit increments: the level is the running infimum with W(0) = 0
    for inc, expect in (([1.0, 1.0], [0.0, 0.0, 0.0]),
                        ([-1.0, 0.5], [0.0, -1.0, -1.0])):
        monkeypatch.setattr(limit, "stable_standard",
                            lambda *args, inc=inc: np.array([inc]))
        assert levy_levels(2.0, 0.5, 1.0, [0, 1, 2], 1, None)[0].tolist() == expect


def test_level_monotone(rng):
    lev = levy_levels(1.5, 0.5, 2.0 / 800, np.arange(801), 10, rng)
    assert np.all(np.diff(lev, axis=1) <= 0.0)
    assert np.all(lev[:, 0] == 0.0)


# -- two-sided environments --------------------------------------------------

def test_two_sided_gluing_invariants(std_model, std_tables, rng):
    env = sample_two_sided_batch(std_model, 6, "rejection", 800, rng,
                                 std_tables, pos_extra=4)
    assert np.all(env.s_star(0) == 0.0)
    for i in (1, 3, 6):
        assert np.all(env.s_star(i) >= 0.0)
    for i in (-1, -3, -6):
        assert np.all(env.s_star(i) > 0.0)
    assert np.all(env.mu_star(1) > 0.0)
    # glued steps reproduce the stored walks
    assert np.allclose(env.x_star(2), env.s_pos[:, 2] - env.s_pos[:, 1])
    assert np.allclose(env.x_star(0), env.s_neg[:, 1] - env.s_neg[:, 0])


def test_two_sided_first_marginal_matches_direct_sampler(std_model, std_tables, rng):
    # the glued S*_1 law equals the reweighted-face law of S_1 sampled at
    # the direct one-step horizon: horizon consistency of the tilt
    from bpire_lab.conditioned import resample_by_weight, sample_conditioned_batch

    reps = 8000
    env = sample_two_sided_batch(std_model, 8, "rejection", reps, rng,
                                 std_tables)
    direct = sample_conditioned_batch(std_model, 1, "rejection", reps, rng,
                                      "positive", std_tables)
    direct_tilt = resample_by_weight(direct.terminal, direct.tilt_weights,
                                     reps, rng)
    ks = ks_two_sample(env.s_star(1), direct_tilt)
    assert ks.statistic <= 0.05


def test_scalar_environment_view(std_model, std_tables, rng):
    env = sample_two_sided_batch(std_model, 4, "rejection", 256, rng, std_tables)
    assert np.all(env.s_star(0) == 0.0)
    assert np.all(env.s_star(-2) > 0.0)
    assert np.all(env.mu_star(1) > 0.0)


# -- martingale-limit proxies and the ratio law ------------------------------

def test_zeta_dead_cohort_is_zero(std_model, std_tables):
    rng = derive_stream(11, 0, "zeta")
    tiny = normal_model(rate=1e-9)
    env = sample_two_sided_batch(tiny, 2, "rejection", 256, rng, std_tables,
                                 pos_extra=4)
    assert np.all(np.exp(_zeta_log_batch(env, 0, 4, rng)) == 0.0)
    with pytest.raises(IndexError):  # horizon too short for the cohort
        _zeta_log_batch(env, 2, 8, rng)


def test_zeta_conditional_mean(std_model, std_tables, rng):
    # E(zeta proxy | environment) = mu*_{i+1} at any depth: tile one
    # environment row across replicas and average over cohort noise
    from bpire_lab.limit import TwoSidedBatch

    base = sample_two_sided_batch(std_model, 4, "rejection", 1, rng,
                                  std_tables, pos_extra=8)
    reps = 40_000
    tiled = TwoSidedBatch(
        s_pos=np.repeat(base.s_pos, reps, axis=0),
        mu_pos=np.repeat(base.mu_pos, reps, axis=0),
        s_neg=np.repeat(base.s_neg, reps, axis=0),
        mu_neg=np.repeat(base.mu_neg, reps, axis=0),
    )
    for i, J in ((0, 1), (0, 6), (-2, 4)):
        zl = _zeta_log_batch(tiled, i, J, rng)
        vals = np.where(np.isfinite(zl), np.exp(zl), 0.0)
        se = vals.std(ddof=1) / math.sqrt(reps)
        target = float(base.mu_star(i + 1)[0])
        assert abs(vals.mean() - target) <= 4.0 * se


def test_zeta_law_stabilizes_in_depth(std_model, std_tables, rng):
    reps = 6000
    env = sample_two_sided_batch(std_model, 2, "rejection", reps, rng,
                                 std_tables, pos_extra=64)
    a = np.exp(_zeta_log_batch(env, 0, 24, rng))
    b = np.exp(_zeta_log_batch(env, 0, 48, rng))
    assert ks_two_sample(a, b).statistic <= 0.05


def test_gamma_sample_basics(std_model, std_tables, rng):
    g = sample_gamma_batch(std_model, 8, 8, "rejection", 64, rng, std_tables)
    assert isinstance(g, GammaBatch)
    assert np.all(g.sigma1 > 0.0)
    assert g.gamma == pytest.approx(g.sigma2 / g.sigma1)


def test_gamma_batch_lower_bound(std_model, std_tables, rng):
    batch = sample_gamma_batch(std_model, 8, 8, "rejection", 2000, rng, std_tables)
    # the i=0 term alone gives sigma1 >= mu*_1
    assert np.all(batch.sigma1 > 0.0)
    assert batch.gamma.min() >= 0.0


def test_gamma_zero_without_immigrants(std_tables, rng):
    tiny = normal_model(rate=1e-9)
    batch = sample_gamma_batch(tiny, 4, 4, "rejection", 200, rng, std_tables)
    assert np.all(batch.sigma2 == 0.0)
    assert np.all(batch.gamma == 0.0)
    assert np.all(batch.sigma1 > 0.0)


def test_gamma_truncation_stability(std_model, std_tables, rng):
    a = sample_gamma_batch(std_model, 16, 16, "rejection", 4000, rng, std_tables)
    b = sample_gamma_batch(std_model, 32, 32, "rejection", 4000, rng, std_tables)
    assert ks_two_sample(a.gamma, b.gamma).statistic <= 0.05


def test_series_terms_match_star_sequence(std_model, std_tables, rng):
    env = sample_two_sided_batch(std_model, 4, "rejection", 50, rng, std_tables)
    pos, neg = series_terms(env, 4)
    for j in range(4):
        assert np.allclose(pos[:, j], env.mu_star(j + 1) * np.exp(-env.s_star(j)))
        i = -(j + 1)
        assert np.allclose(neg[:, j], env.mu_star(i + 1) * np.exp(-env.s_star(i)))


# -- finite-dimensional limit draws ------------------------------------------

def test_fdd_first_coordinate_is_first_gamma(std_model, std_tables, rng):
    pool = np.arange(1.0, 41.0)
    y, changed, gammas = sample_limit_fdd_batch(
        (1.0,), std_model, 2, 2, 0.01, 40, rng, std_tables, gamma_pool=pool)
    assert np.array_equal(y[:, 0], pool[:40])


def test_fdd_no_change_keeps_gamma(std_model, std_tables, rng):
    y, changed, gammas = sample_limit_fdd_batch(
        (0.5, 1.0, 1.5), std_model, 2, 2, 5e-3, 600, rng, std_tables,
        gamma_pool=rng.exponential(1.0, 600 * 3))
    same01 = ~changed[:, 0]
    assert np.all(y[same01, 1] == y[same01, 0])
    chg01 = changed[:, 0]
    assert np.all(y[chg01, 1] == gammas[chg01, 1])


def test_fdd_scalar_wrapper(std_model, std_tables, rng):
    y, changed, _ = sample_limit_fdd_batch(
        (1.0, 2.0), std_model, 2, 2, 5e-3, 1, rng, std_tables,
        gamma_pool=np.array([3.0, 7.0]))
    assert y[0, 0] == 3.0
    assert y[0, 1] in (3.0, 7.0)
    assert changed[0].shape == (1,)


def test_fdd_gamma_independent_of_level(std_model, std_tables, rng):
    reps = 6000
    pool = rng.exponential(1.0, reps * 2)
    y, changed, gammas = sample_limit_fdd_batch(
        (1.0, 2.0), std_model, 2, 2, 2e-3, reps, rng, std_tables,
        gamma_pool=pool)
    # correlation between the first gamma and the change indicator
    corr = np.corrcoef(gammas[:, 0], changed[:, 0].astype(float))[0, 1]
    assert abs(corr) <= 3.5 / math.sqrt(reps)


def test_fdd_time_validation(std_model, std_tables, rng):
    with pytest.raises(ValueError):
        sample_limit_fdd_batch((2.0, 1.0), std_model, 2, 2, 0.01, 10, rng,
                               std_tables, gamma_pool=np.ones(20))
    with pytest.raises(ValueError):
        sample_limit_fdd_batch((1.0,), std_model, 2, 2, 0.01, 10, rng,
                               std_tables, gamma_pool=np.ones(5))


def test_fdd_joint_law_matches_mixture(std_model, std_tables, rng):
    # self-consistency of the construction: the two-coordinate law of the
    # limit draws equals the mixture of independent and common gamma
    # coordinates weighted by the level-change probability
    from bpire_lab.stats import joint_two_time_test

    reps = 8000
    pool = rng.exponential(1.0, reps * 2)
    y, changed, _ = sample_limit_fdd_batch(
        (1.0, 2.0), std_model, 2, 2, 2e-3, reps, rng, std_tables,
        gamma_pool=pool)
    p_hat = changed[:, 0].mean()
    rep = joint_two_time_test(y[:, 0], y[:, 1], pool, p_hat)
    assert rep.max_discrepancy <= 2.0 * 2.0 / math.sqrt(reps) + 0.015


def test_fdd_classification_is_binary(std_model, std_tables, rng):
    # each replica is classified either as a strict level decrease or as
    # an unchanged level: the two event frequencies sum to one exactly
    reps = 500
    y, changed, _ = sample_limit_fdd_batch(
        (1.0, 2.0), std_model, 2, 2, 5e-3, reps, rng, std_tables,
        gamma_pool=rng.exponential(1.0, reps * 2))
    p_change = changed[:, 0].mean()
    p_same = (~changed[:, 0]).mean()
    assert p_change + p_same == 1.0


def test_gamma_csv_export(std_model, std_tables, rng, tmp_path):
    batch = sample_gamma_batch(std_model, 4, 4, "rejection", 50, rng, std_tables)
    path = write_csv(str(tmp_path), "gamma.csv", {
        "sigma1": batch.sigma1, "sigma2": batch.sigma2, "gamma": batch.gamma,
    }, {"trunc_i": batch.trunc_i, "trunc_j": batch.trunc_j, "method": batch.method})
    lines = open(path).read().splitlines()
    assert "# trunc_i = 4" in lines and "# method = rejection" in lines
    assert lines[3] == "sigma1,sigma2,gamma"
    assert len(lines) == 4 + 50


def test_fdd_csv_export(std_model, std_tables, rng, tmp_path):
    y, changed, _ = sample_limit_fdd_batch(
        (1.0, 2.0), std_model, 2, 2, 0.01, 20, rng, std_tables,
        gamma_pool=rng.exponential(1.0, 40))
    path = write_csv(str(tmp_path), "fdd.csv", {
        "y1": y[:, 0], "y2": y[:, 1], "changed12": changed[:, 0].astype(int),
    }, {"delta": 0.01, "t_values": [1.0, 2.0]})
    lines = open(path).read().splitlines()
    assert lines[0] == "# delta = 0.01"
    assert lines[2] == "y1,y2,changed12"
    assert len(lines) == 3 + 20


def test_brownian_level_change_probability(rng):
    # argmin of a Brownian path on [0,2] lands past the midpoint with
    # probability 1/2 (continuum arcsine law); the discretized estimate
    # carries a small downward bias from near-ties
    p = estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 2e-3, 20_000, rng)
    assert abs(p - 0.5) <= 0.02
    # refinement study: a finer grid moves the estimate toward 1/2
    p_fine = estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 5e-4, 20_000, rng)
    assert abs(p_fine - 0.5) <= 0.02
