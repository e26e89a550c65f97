import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import cauchy, kstest, levy_stable, norm

import bpire_lab.bpire as bpire
import bpire_lab.limit as limit
from bpire_lab import runner
from bpire_lab.limit import (
    _cohort_tails,
    estimate_level_change_prob,
    sample_gamma_batch,
    sample_two_sided_batch,
    series_sums,
    stable_standard,
)
from bpire_lab.bpire import cohort_log_values, limit_log_values
from bpire_lab.conditioned import resample_indices, sample_conditioned_batch
from bpire_lab.config import RunConfig
from bpire_lab.env import EnvironmentModel, check_stable_params
from bpire_lab.report import write_csv
from bpire_lab.stats import ks_two_sample
from bpire_lab.streams import derive_stream
from bpire_lab.walk import arcsine_cdf


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


def _cms_sin_cos(alpha, rho, size, rng):
    # the uniform-exponential transform written out with sines and cosines
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    e = rng.exponential(1.0, size)
    t = np.pi * (rho - 0.5)
    return (np.sin(alpha * (u + t)) / (math.cos(alpha * t) * np.cos(u)) ** (1.0 / alpha)
            * (np.cos(alpha * t + (alpha - 1.0) * u) / e) ** ((1.0 - alpha) / alpha))


@pytest.mark.parametrize("alpha,rho", [(0.5, 0.5), (1.2, 0.5), (1.5, 0.5), (1.8, 0.5),
                                       (1.5, 0.6)])
def test_stable_matches_sin_cos_form(alpha, rho):
    # the tangent form gives the sine-cosine values on the same draws, to rounding
    got = stable_standard(alpha, rho, 200_000, derive_stream(9, 0, "cms"))
    want = _cms_sin_cos(alpha, rho, 200_000, derive_stream(9, 0, "cms"))
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


# -- two-sided environments --------------------------------------------------

def _s_star(sides, i):
    # S*_i: column |i| of the side of i's sign, read through its rows
    walk, rows, _ = sides[0] if i >= 0 else sides[1]
    return walk[rows, abs(i)]


def _mu_star(sides, i):
    # mu*_i: column i - 1 of the positive side's rates for i >= 1, column -i
    # of the negative side's for i <= 0
    return sides[0][2][:, i - 1] if i >= 1 else sides[1][2][:, -i]


def test_two_sided_gluing_invariants(std_model, std_tables, rng):
    sides = sample_two_sided_batch(std_model, 6, 800, rng, std_tables, pos_extra=4)
    assert np.all(_s_star(sides, 0) == 0.0)
    for i in (1, 3, 6):
        assert np.all(_s_star(sides, i) >= 0.0)
    for i in (-1, -3, -6):
        assert np.all(_s_star(sides, i) > 0.0)
    assert np.all(_mu_star(sides, 1) > 0.0)


def test_two_sided_first_marginal_matches_direct_sampler(std_model, std_tables, rng):
    # the two-sided S*_1 law equals the reweighted-face law of S_1 sampled
    # at the direct one-step horizon: horizon consistency of the tilt
    reps = 8000
    sides = sample_two_sided_batch(std_model, 8, reps, rng, std_tables)
    direct, tilt = sample_conditioned_batch(std_model, 1, "rejection", reps, rng,
                                            "positive", std_tables)
    direct_tilt = direct[resample_indices(tilt, reps, rng), -1]
    ks = ks_two_sample(_s_star(sides, 1), direct_tilt)
    assert ks.statistic <= 0.05


def test_scalar_environment_view(std_model, std_tables, rng):
    sides = sample_two_sided_batch(std_model, 4, 256, rng, std_tables)
    assert np.all(_s_star(sides, 0) == 0.0)
    assert np.all(_s_star(sides, -2) > 0.0)
    assert np.all(_mu_star(sides, 1) > 0.0)


def test_sides_span_the_environment(std_model, std_tables, rng):
    # S*_i spans i = -I..I+pos_extra, 3 + 5 + 1 values: the positive side
    # holds S*_0..S*_5 and mu*_1..mu*_5, the negative side S*_0..S*_{-3} and
    # mu*_0..mu*_{-2}
    (pos, pos_rows, pos_mu), (neg, neg_rows, neg_mu) = sample_two_sided_batch(
        std_model, 3, 16, rng, std_tables, pos_extra=2)
    assert pos.shape[1] == 5 + 1 and neg.shape[1] == 3 + 1
    assert pos_mu.shape == (16, 5) and neg_mu.shape == (16, 3)
    assert pos_rows.shape == neg_rows.shape == (16,)
    assert np.all(pos[:, 0] == 0.0) and np.all(neg[:, 0] == 0.0)


@pytest.mark.parametrize("side", ["positive", "negative"])
def test_side_draws_paths_then_resample_then_rates(side, std_tables):
    # one side draws its rejection paths, their resample indices, then its
    # rates; the sampler already returns the paths in the coordinates of S*
    model = EnvironmentModel(rate_family="lognormal", rate_params=(0.0, 0.5))
    walk, rows, mu = limit.sample_side(model, 6, 300, derive_stream(8, 0, side), std_tables, side)
    rng = derive_stream(8, 0, side)
    paths, weights = sample_conditioned_batch(model, 6, "rejection", 300, rng, side, std_tables)
    assert np.array_equal(rows, resample_indices(weights, 300, rng))
    assert np.array_equal(mu, model.draw_rate(rng, (300, 6)))
    assert np.array_equal(walk, paths)


@pytest.mark.parametrize("rates", [{}, {"rate_family": "lognormal", "rate_params": [0.0, 0.5]}])
def test_series_sample_reads_the_glued_environment(rates, std_tables):
    # the series sample's reads are those of the two sides that
    # sample_two_sided_batch draws from the same stream, each gathered by its
    # rows first: both follow one draw order
    bench = runner.Runner(RunConfig.from_dict({"series_trunc": 6, "out_dir": "unused", **rates}))
    bench._samples["tables"] = std_tables
    reads = bench.series_sample(300)
    sides = sample_two_sided_batch(bench.model, 6, 300, bench._stream("lemma5-limit"), std_tables)
    want = dict(zip(("positive", "tail_after", "negative", "head_before"), _side_sums(sides, 6)))
    want.update(a_after=np.exp(-_s_star(sides, 1)), a_before=np.exp(-_s_star(sides, -1)))
    assert reads.keys() == want.keys()
    for key, val in want.items():
        assert np.array_equal(reads[key], val), key


def test_series_sample_holds_one_side(std_tables):
    # the series sample holds one side's path matrix at a time: its traced
    # peak stays under 2.5 of them (1.8 measured; glued whole, it was 4)
    reps, trunc = 4000, 256
    bench = runner.Runner(RunConfig.from_dict({"series_trunc": trunc, "out_dir": "unused"}))
    bench._samples["tables"] = std_tables
    tracemalloc.start()
    try:
        bench.series_sample(reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * reps * (trunc + 1) * 8


def test_lemma1_limit_holds_one_side(std_tables, tmp_path):
    # lemma1 reads S*_i from one side at a time: at the default size, with
    # the free walks joined beforehand, the traced peak of the check stays
    # under 2 path matrices of one side (1.4 measured; glued whole, 4.3)
    reps, trunc = 20_000, 64
    bench = runner.Runner(RunConfig.from_dict({
        "trunc_i": trunc, "n_walk": 50, "replicas": {"walk_stats": reps},
        "out_dir": str(tmp_path)}))
    bench._samples["tables"] = std_tables
    bench.free_walks()()
    tracemalloc.start()
    try:
        bench.dispatch("lemma1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * reps * (trunc + 1) * 8


def test_lemma1_limit_holds_one_side_lognormal_rates(std_tables, tmp_path):
    # under lognormal rates each side also draws its (reps, trunc_i) rate
    # matrix, which lemma1 never reads; drawn in one array (the normals,
    # then exp in place) the check peaks at about 2.1 one-side path
    # matrices (3.05 with a second array for the exponentials)
    reps, trunc = 20_000, 64
    bench = runner.Runner(RunConfig.from_dict({
        "trunc_i": trunc, "n_walk": 50, "replicas": {"walk_stats": reps},
        "rate_family": "lognormal", "rate_params": [0.5, 0.5], "out_dir": str(tmp_path)}))
    bench._samples["tables"] = std_tables
    bench.free_walks()()
    tracemalloc.start()
    try:
        bench.dispatch("lemma1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * reps * (trunc + 1) * 8


# -- martingale limits and the ratio law ------------------------------------

def _tiled(sides, reps):
    # row 0 of each side repeated across replicas
    return tuple((walk, np.repeat(rows[:1], reps), np.repeat(mu[:1], reps, axis=0))
                 for walk, rows, mu in sides)


def _zeta_log(model, sides, i, J, rng):
    # ln zeta*_i: the exact martingale limit of cohort i over a tail of J
    # steps; the negative side's horizon is the series half-width I
    I = sides[1][0].shape[1] - 1
    s_i, mu, t_log = _cohort_tails(model, *sides, I, J)
    return limit_log_values(mu[:, I + i], t_log[:, I + i] + s_i[:, I + i], rng)


def test_cohort_tails_match_stepwise_sums(std_model, std_tables, rng):
    # the tail sums agree with a logaddexp loop over each cohort's tail,
    # also on hand-built sides with +-800 jumps, where one shift for the
    # whole walk would underflow some sums to zero
    I, J = 3, 4
    drawn = sample_two_sided_batch(std_model, I, 40, rng, std_tables, pos_extra=J)
    # S*_{-3}..S*_7: the steps 800, 1, 2 on both sides of 0, then 3, 1, -805, 2;
    # mu*_{-2}..mu*_7 = 13, 12, 11, then 1..7
    s = np.cumsum([803.0, -2.0, -1.0, -800.0, 800.0, 1.0, 2.0, 3.0, 1.0, -805.0, 2.0])
    wild = ((s[None, 3:], np.zeros(1, int), np.arange(1.0, 8.0)[None]),
            (s[None, 3::-1], np.zeros(1, int), np.array([[11.0, 12.0, 13.0]])))
    # hand-built rates are not one value: a non-constant family reads them
    lognormal = EnvironmentModel(rate_family="lognormal", rate_params=(0.0, 1.0))
    for model, sides in ((std_model, drawn), (lognormal, wild)):
        s_i, mu, t_log = _cohort_tails(model, *sides, I, J)
        for c, i in enumerate(range(-I, I)):
            t_ref = np.full(len(s_i), -np.inf)
            for j in range(i, I + J):
                t_ref = np.logaddexp(t_ref, -_s_star(sides, j))
            assert np.array_equal(s_i[:, c], _s_star(sides, i))
            assert np.array_equal(mu[:, c], _mu_star(sides, i + 1))
            assert np.allclose(t_log[:, c], t_ref, rtol=1e-12, atol=1e-12)


def test_zeta_dead_cohort_is_zero(std_model, std_tables):
    rng = derive_stream(11, 0, "zeta")
    tiny = EnvironmentModel(rate_params=(1e-9,))
    sides = sample_two_sided_batch(tiny, 2, 256, rng, std_tables, pos_extra=4)
    assert np.all(np.exp(_zeta_log(tiny, sides, 0, 4, rng)) == 0.0)
    with pytest.raises(ValueError):  # horizon too short for the tail
        _zeta_log(tiny, sides, 1, 8, rng)


def test_zeta_conditional_mean(std_model, std_tables, rng):
    # E(zeta*_i | environment) = mu*_{i+1} at any tail length: tile one
    # environment row across replicas and average over cohort noise
    base = sample_two_sided_batch(std_model, 4, 1, rng, std_tables, pos_extra=8)
    reps = 40_000
    tiled = _tiled(base, reps)
    for i, J in ((0, 1), (0, 6), (-2, 4)):
        vals = np.exp(_zeta_log(std_model, tiled, i, J, rng))
        se = vals.std(ddof=1) / math.sqrt(reps)
        target = float(_mu_star(base, i + 1)[0])
        assert abs(vals.mean() - target) <= 4.0 * se


def test_zeta_law_stabilizes_in_depth(std_model, std_tables, rng):
    # doubling the positive tail that T_i sums leaves the law in place
    reps = 6000
    sides = sample_two_sided_batch(std_model, 2, reps, rng, std_tables, pos_extra=64)
    a = np.exp(_zeta_log(std_model, sides, 0, 24, rng))
    b = np.exp(_zeta_log(std_model, sides, 0, 48, rng))
    assert ks_two_sample(a, b).statistic <= 0.05


def test_zeta_limit_matches_deep_cohort(std_model, std_tables, rng):
    # oracle on one conditioned environment: the exact limit against the
    # closed-form cohort value A·Z at depth 256 (257 for cohort -1), over
    # the same stretch of walk, where A = e^{-(S*_{I+J} - S*_i)} is tiny;
    # two-sample KS at the 5% critical value
    I, J, reps = 1, 255, 20_000
    base = sample_two_sided_batch(std_model, I, 1, rng, std_tables, pos_extra=J)
    s_i, mu, t_log = _cohort_tails(std_model, *_tiled(base, reps), I, J)
    lim = np.exp(limit_log_values(mu, t_log + s_i, rng))
    star = np.array([_s_star(base, i)[0] for i in range(-I, I + J + 1)])  # S*_{-I}..S*_{I+J}
    for c in range(2 * I):
        walk = star[c:] - star[c]
        deep = np.exp(cohort_log_values(mu[:, c], -walk[-1],
                                        np.logaddexp.reduce(-walk[:-1]), rng))
        assert ks_two_sample(lim[:, c], deep).statistic <= 1.358 * math.sqrt(2.0 / reps)


def test_gamma_sample_basics(std_model, std_tables, rng):
    g = sample_gamma_batch(std_model, 8, 8, reps=64, rng=rng, tables=std_tables)
    assert set(g) == {"sigma1", "sigma2", "gamma"}
    assert all(v.shape == (64,) for v in g.values())
    assert np.all(g["sigma1"] > 0.0)
    assert g["gamma"] == pytest.approx(g["sigma2"] / g["sigma1"])


def test_gamma_batch_lower_bound(std_model, std_tables, rng):
    batch = sample_gamma_batch(std_model, 8, 8, reps=2000, rng=rng, tables=std_tables)
    # the i=0 term alone gives sigma1 >= mu*_1
    assert np.all(batch["sigma1"] > 0.0)
    assert batch["gamma"].min() >= 0.0


def test_gamma_zero_without_immigrants(std_tables, rng):
    tiny = EnvironmentModel(rate_params=(1e-9,))
    batch = sample_gamma_batch(tiny, 4, 4, reps=200, rng=rng, tables=std_tables)
    assert np.all(batch["sigma2"] == 0.0)
    assert np.all(batch["gamma"] == 0.0)
    assert np.all(batch["sigma1"] > 0.0)


def test_gamma_truncation_stability(std_model, std_tables, rng):
    a = sample_gamma_batch(std_model, 16, 16, reps=4000, rng=rng, tables=std_tables)
    b = sample_gamma_batch(std_model, 32, 32, reps=4000, rng=rng, tables=std_tables)
    assert ks_two_sample(a["gamma"], b["gamma"]).statistic <= 0.05


def _side_sums(sides, I):
    # the series sums of both sides, each side gathered by its rows first:
    # the positive series starts at S*_0, the negative one at S*_{-1}
    (pos, pos_rows, pos_mu), (neg, neg_rows, neg_mu) = sides
    return np.concatenate([series_sums(pos[pos_rows], pos_mu[:, :I], "positive"),
                           series_sums(neg[neg_rows], neg_mu, "negative")])


@pytest.mark.parametrize("gathered", [False, True])
def test_series_sums_side_rule(gathered):
    # the side decides the first walk column: "positive" sums
    # mu[r, j] e^{-walk[row, j]} (from S*_0) and "negative" sums
    # mu[r, j] e^{-walk[row, j + 1]} (from S*_{-1}), row = rows[r] or r;
    # row 1 of the sums drops the term nearest the origin
    walk = np.array([[0.0, 0.5, 1.0, 2.0],
                     [0.0, 1.5, 0.25, 3.0],
                     [0.0, 0.75, 2.5, 1.25]])
    mu = np.array([[1.0, 2.0, 3.0],
                   [0.5, 4.0, 1.5]])
    rows = np.array([2, 0]) if gathered else None
    for side, shift in (("positive", 0), ("negative", 1)):
        sums = series_sums(walk, mu, side, rows)
        for r in range(2):
            row = rows[r] if gathered else r
            terms = [mu[r, j] * math.exp(-walk[row, j + shift]) for j in range(3)]
            assert sums[0, r] == pytest.approx(sum(terms), rel=1e-14), (side, r)
            assert sums[1, r] == pytest.approx(sum(terms[1:]), rel=1e-14), (side, r)


def test_series_sums_match_star_sequence(std_model, std_tables, rng, monkeypatch):
    sides = sample_two_sided_batch(std_model, 4, 50, rng, std_tables)
    terms = {i: _mu_star(sides, i + 1) * np.exp(-_s_star(sides, i)) for i in range(-4, 4)}
    sums = _side_sums(sides, 4)
    # (positive, tail_after, negative, head_before)
    assert np.allclose(sums[0], sum(terms[j] for j in range(4)))
    assert np.allclose(sums[2], sum(terms[-(j + 1)] for j in range(4)))
    assert np.allclose(sums[1], sum(terms[j] for j in range(1, 4)))
    assert np.allclose(sums[3], sum(terms[-(j + 1)] for j in range(1, 4)))
    # a row's sums do not depend on the row group it is formed in
    monkeypatch.setattr(bpire, "_BLOCK_CELLS", 3 * 4)
    assert np.array_equal(_side_sums(sides, 4), sums)
    # row r of a gathered side reads walk row rows[r] and rate row r
    rows = rng.integers(0, 50, 80)
    mu = rng.lognormal(0.0, 1.0, (80, 4))
    walk = sides[0][0]
    assert np.array_equal(series_sums(walk, mu, "positive", rows),
                          series_sums(walk[rows], mu, "positive"))


@dataclass(frozen=True)
class _MaterializedRates(EnvironmentModel):
    """A model whose rates are a writeable matrix, as before the view."""

    def draw_rate(self, rng, size):
        return np.array(super().draw_rate(rng, size))


def test_constant_rates_are_a_read_only_view(std_model, std_tables, monkeypatch):
    # constant rates draw nothing: each side's mu and the cohort rates of the
    # gamma sample are one broadcast view of the rate, and the readers give
    # the same numbers as from materialized matrices
    sides = sample_two_sided_batch(std_model, 4, 50, derive_stream(3, 0, "mu"), std_tables,
                                   pos_extra=3)
    (_, _, pos_mu), (_, _, neg_mu) = sides
    assert not pos_mu.flags.writeable and not neg_mu.flags.writeable
    assert pos_mu.shape == (50, 7) and neg_mu.shape == (50, 4)
    full = tuple((walk, rows, np.array(mu)) for walk, rows, mu in sides)
    assert all(mu.flags.writeable for _, _, mu in full)
    assert np.array_equal(_side_sums(sides, 4), _side_sums(full, 4))
    assert not _cohort_tails(std_model, *sides, 4, 3)[1].flags.writeable

    dense = _MaterializedRates(**vars(std_model))
    assert dense.draw_rate(None, (3, 4)).flags.writeable
    view, full = (sample_gamma_batch(m, 4, 4, reps=200, rng=derive_stream(4, 0, "g"),
                                     tables=std_tables) for m in (std_model, dense))
    for key in ("sigma1", "sigma2", "gamma"):
        assert np.array_equal(view[key], full[key])

    # the pre-limit readers of the rates: the theorem-1 window sampler and
    # the lemma-5 series block give the same numbers from a materialized
    # rate matrix as from the view
    assert not std_model.draw_rate(None, (3, 4)).flags.writeable
    monkeypatch.setattr(bpire, "_BLOCK_CELLS", 2 ** 8)  # several row groups
    ys = [bpire.simulate_normalized_at(m, 30, (0.5, 1.0), 40, derive_stream(5, 0, "y"))
          for m in (std_model, dense)]
    assert np.array_equal(*ys)
    for side in ("positive", "negative"):
        sums = [runner._cond_series_block(30, derive_stream(6, 0, side), m, 16, side)
                for m in (std_model, dense)]
        assert np.array_equal(*sums)


def test_gamma_csv_export(std_model, std_tables, rng, tmp_path):
    batch = sample_gamma_batch(std_model, 4, 4, reps=50, rng=rng, tables=std_tables)
    path = write_csv(str(tmp_path), "gamma.csv", batch, {"trunc_i": 4, "trunc_j": 4, "method": "rejection"})
    lines = open(path).read().splitlines()
    assert "# trunc_i = 4" in lines and "# method = rejection" in lines
    assert lines[3] == "sigma1,sigma2,gamma"
    assert len(lines) == 4 + 50


# -- level changes of the Lévy path -------------------------------------------

def test_brownian_level_change_probability(rng):
    # argmin of a Brownian path on [0,2] lands past the midpoint with
    # probability 1/2 (continuum arcsine law); the discretized estimate
    # carries a small downward bias from near-ties
    p = estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 2e-3, 20_000, rng)
    assert abs(p - 0.5) <= 0.02
    # refinement study: a finer grid moves the estimate toward 1/2
    p_fine = estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 5e-4, 20_000, rng)
    assert abs(p_fine - 0.5) <= 0.02


def test_level_change_grid_index_matches_fdd(monkeypatch):
    # 0.07 / 0.01 evaluates to 7.000000000000001: the level-change
    # estimate must still end the path at grid index 7, not 8
    widths = []

    def fake_stable(alpha, rho, size, rng):
        widths.append(size[1])
        return np.zeros(size)

    monkeypatch.setattr(limit, "stable_standard", fake_stable)
    estimate_level_change_prob(2.0, 0.5, 0.05, 0.07, 0.01, 4, None)
    assert widths == [7]


def test_levy_grid_validation(rng):
    with pytest.raises(ValueError):
        estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 0.0, 10, rng)
    with pytest.raises(ValueError):
        estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, -0.1, 10, rng)
    with pytest.raises(ValueError):
        estimate_level_change_prob(2.0, 0.5, 2.0, 1.0, 0.1, 10, rng)
    with pytest.raises(ValueError):
        estimate_level_change_prob(2.0, 0.5, -1.0, 2.0, 0.1, 10, rng)


def test_level_examples(monkeypatch):
    # fixed unit increments over two cells, t = (1, 2): the level is the
    # running infimum with W(0) = 0 and must strictly drop in the second cell
    for inc, expect in (([1.0, 1.0], 0.0), ([1.0, -0.5], 0.0), ([-1.0, 0.5], 0.0),
                        ([-1.0, 0.0], 0.0), ([1.0, -2.0], 1.0), ([-1.0, -0.5], 1.0)):
        monkeypatch.setattr(limit, "stable_standard",
                            lambda *args, inc=inc: np.array([inc]))
        assert estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 1.0, 1, None) == expect


def test_level_change_blocks_match_one_block(monkeypatch):
    # Gaussian increments come off the stream in row order, so blocks of
    # 300 rows (16 full and a last one of 200) count what one block counts
    def estimate(cells):
        monkeypatch.setattr(bpire, "_BLOCK_CELLS", cells)
        return estimate_level_change_prob(2.0, 0.5, 1.0, 2.0, 0.01, 5000,
                                          derive_stream(5, 0, "levy-blocks"))
    assert estimate(300 * 200) == estimate(5000 * 200)


def test_level_change_scale_invariance():
    # the event depends on the times only through their grid indices
    p = estimate_level_change_prob(1.5, 0.5, 1.0, 2.0, 0.01, 2000, derive_stream(6, 0, "s"))
    q = estimate_level_change_prob(1.5, 0.5, 0.5, 1.0, 0.005, 2000, derive_stream(6, 0, "s"))
    assert p == q


def test_level_change_one_cell_is_zero(rng):
    # both times end in grid cell 1000: the level cannot drop between them
    assert estimate_level_change_prob(2.0, 0.5, 1.0, 1.0004, 1.0004e-3, 50, rng) == 0.0


def test_stable_level_change_matches_arcsine(rng):
    # the argmin of a strictly stable path on [0, t2] follows the arcsine
    # law, so the level drops on (t1, t2] with probability 1 - F(t1/t2)
    t1, t2 = 1.0, 2.0
    p = estimate_level_change_prob(1.5, 0.5, t1, t2, 2e-3, 20_000, rng)
    assert abs(p - (1.0 - arcsine_cdf(0.5, t1 / t2))) <= 0.02
