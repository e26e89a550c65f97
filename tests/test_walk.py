import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from bpire_lab import bpire, runner
from bpire_lab.conditioned import sample_conditioned_batch
from bpire_lab.env import EnvironmentModel
from bpire_lab.limit import stable_standard
from bpire_lab.runner import _free_walk_block
from bpire_lab.stats import ks_against_cdf, ks_two_sample
from bpire_lab.streams import derive_stream
from bpire_lab.walk import arcsine_cdf, simulate_walk_matrix


class _FixedSteps:
    """Model stand-in whose draws are given increments, one row per path."""

    def __init__(self, *paths):
        self.x = np.diff(np.array(paths, dtype=float), axis=1)

    def draw_x(self, rng, size):
        assert size == self.x.shape
        return self.x


def test_walk_is_cumsum_of_model_draws(std_model):
    # identical streams: the path must be the cumulative sum of the draws
    s = simulate_walk_matrix(std_model, 50, 1, derive_stream(7, 0, "w"))[0]
    xs = std_model.draw_x(derive_stream(7, 0, "w"), 50)
    assert s[0] == 0.0
    assert np.allclose(s[1:], np.cumsum(xs))


def test_walk_single_step(std_model):
    s = simulate_walk_matrix(std_model, 1, 1, derive_stream(7, 1, "w"))[0]
    x = float(std_model.draw_x(derive_stream(7, 1, "w"), 1)[0])
    assert s.tolist() == [0.0, x]


def test_walk_requires_positive_n(std_model, rng):
    with pytest.raises(ValueError):
        simulate_walk_matrix(std_model, 0, 5, rng)


def test_sign_fraction_symmetric(std_model, rng):
    reps, n = 4000, 1000
    s = simulate_walk_matrix(std_model, n, reps, rng)
    frac = (s[:, -1] > 0).mean()
    assert abs(frac - 0.5) <= 0.015 + 3.0 * 0.5 / math.sqrt(reps)


def test_terminal_clt_normal_family(std_model, rng):
    reps, n = 4000, 400
    s = simulate_walk_matrix(std_model, n, reps, rng)
    ks = ks_against_cdf(s[:, -1] / math.sqrt(n), norm.cdf)
    assert ks.statistic <= 0.02 + 1.63 / math.sqrt(reps)


def test_pareto_family_stable_limit(rng):
    # S_n / (c n^{1/a}) must match the standard stable law the package
    # itself samples; the scale constant is the analytic tail constant
    model = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.3)
    reps, n = 4000, 512
    s = simulate_walk_matrix(model, n, reps, rng)
    scaled = s[:, -1] / model.normalizer(n)
    ref = stable_standard(1.3, 0.5, reps, rng)
    assert ks_two_sample(scaled, ref).statistic <= 0.05


def test_summarize_examples():
    paths = _FixedSteps([0.0, -1.0, -2.0, -1.0], [0.0, 1.0, -1.0, -1.0])
    s = simulate_walk_matrix(paths, 3, 2, None)
    tau = np.argmin(s, axis=1)
    assert tau.tolist() == [2, 2]  # first attainment of the minimum
    assert s[[0, 1], tau].tolist() == [-2.0, -1.0]
    assert s[0, 1:].max() == -1.0
    # the recentered walk reads from that first argmin
    assert _free_walk_block(2, None, paths, 3, (1,))[1].tolist() == [1.0, 0.0]
    s3 = simulate_walk_matrix(_FixedSteps([0.0, 2.0, 3.0]), 2, 1, None)
    assert (s3[0].min(), np.argmin(s3[0]), s3[0, 1:].max()) == (0.0, 0, 3.0)


def test_summarize_consistency_with_simulation(std_model, rng):
    s = simulate_walk_matrix(std_model, 64, 200, rng)
    tau = np.argmin(s, axis=1)
    for row in range(s.shape[0]):
        assert s[row, tau[row]] == s[row].min()
        assert np.all(s[row, : tau[row]] > s[row, tau[row]])  # strict pre-minimality


def test_arcsine_cdf_half_cases():
    assert arcsine_cdf(0.5, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert arcsine_cdf(0.5, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert arcsine_cdf(0.5, 1.0) == 1.0
    assert arcsine_cdf(0.3, 1.0) == 1.0
    assert arcsine_cdf(0.7, 0.0) == 0.0


def test_arcsine_cdf_closed_form_half():
    xs = np.linspace(0.01, 0.99, 23)
    closed = (2.0 / np.pi) * np.arcsin(np.sqrt(xs))
    assert np.allclose(arcsine_cdf(0.5, xs), closed, atol=1e-8)


def _arcsine_quadrature(rho, x):
    # (sin(pi rho)/pi) * int_0^x u^{rho-1} (1-u)^{-rho} du by adaptive
    # quadrature, the endpoint singularity on the near side of x taken as
    # an algebraic weight: the lower integral up to 1/2, one minus the
    # upper integral past it
    norm = math.sin(math.pi * rho) / math.pi
    if x <= 0.5:
        val, _ = integrate.quad(lambda u: (1.0 - u) ** (-rho), 0.0, x, weight="alg",
                                wvar=(rho - 1.0, 0.0), epsabs=1e-10, epsrel=1e-10)
        return norm * val
    val, _ = integrate.quad(lambda u: u ** (rho - 1.0), x, 1.0, weight="alg",
                            wvar=(0.0, -rho), epsabs=1e-10, epsrel=1e-10)
    return 1.0 - norm * val


@pytest.mark.parametrize("rho", [0.2, 0.35, 0.5, 0.65, 0.8])
def test_arcsine_cdf_matches_incomplete_beta(rho):
    # the closed form I_x(rho, 1-rho) against quadrature of the density
    xs = np.linspace(0.05, 0.95, 10)
    quad = [_arcsine_quadrature(rho, x) for x in xs]
    assert np.allclose(arcsine_cdf(rho, xs), quad, atol=1e-8)


def test_arcsine_cdf_domain_errors():
    with pytest.raises(ValueError):
        arcsine_cdf(0.0, 0.5)
    with pytest.raises(ValueError):
        arcsine_cdf(1.0, 0.5)
    with pytest.raises(ValueError):
        arcsine_cdf(0.5, -0.1)
    with pytest.raises(ValueError):
        arcsine_cdf(0.5, 1.1)


def test_argmin_fraction_follows_arcsine(std_model, rng):
    reps, n = 4000, 500
    s = simulate_walk_matrix(std_model, n, reps, rng)
    frac = np.argmin(s, axis=1) / n
    ks = ks_against_cdf(frac, lambda x: arcsine_cdf(0.5, x))
    assert ks.statistic <= 0.05


def test_normalizer_examples():
    # C_n = c n^{1/alpha}, c the family's analytic scale
    assert EnvironmentModel(x_param=2.0 ** 0.5).normalizer(100) == pytest.approx(10.0)
    cauchy = EnvironmentModel(x_family="pareto", x_param=1.0, alpha=1.0)
    assert cauchy.normalizer(7) == pytest.approx(7.0 * math.pi / 2.0)
    half = EnvironmentModel(x_family="pareto", x_param=0.5, alpha=0.5)
    assert half.normalizer(4) == pytest.approx(16.0 * half.stable_scale())
    with pytest.raises(ValueError):
        cauchy.normalizer(0)


def test_normalizer_increasing():
    model = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.3)
    values = [model.normalizer(n) for n in range(1, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_centered_at_min_example():
    out = _free_walk_block(1, None, _FixedSteps([0.0, -1.0, -2.0, -1.0]), 3, (-1, 0, 1))
    assert [out[i].tolist() for i in (-1, 0, 1)] == [[1.0], [0.0], [1.0]]


def test_centered_at_min_properties(std_model, rng):
    offsets = tuple(range(-40, 41))
    out = _free_walk_block(20, rng, std_model, 40, offsets)
    assert out[0].tolist() == [0.0] * 20
    assert all(np.all(out[i] >= 0.0) for i in offsets)


@pytest.mark.parametrize("model", [
    EnvironmentModel(),
    EnvironmentModel(x_family="pareto", x_param=1.5, alpha=1.5),
], ids=["normal", "pareto"])
def test_walk_groups_match_one_group(monkeypatch, model):
    # walks come off the stream row-major, so groups of 7 rows (5 full and
    # a last one of 5) give the band, free-walk and ratio blocks one group's
    # values; constant rates draw nothing, so the ratio steps stay row-major
    def blocks():
        band = runner._band_block(40, derive_stream(3, 0, "g"), model, 10, 20)
        walks = _free_walk_block(40, derive_stream(4, 0, "g"), model, 20, (-2, 1))
        ratios = runner._ratio_block(40, derive_stream(5, 0, "g"), model, 20, 1)
        return band, walks, ratios
    band, walks, ratios = blocks()
    monkeypatch.setattr(bpire, "_BLOCK_CELLS", 7 * 21)
    grouped_band, grouped_walks, grouped_ratios = blocks()
    assert np.array_equal(grouped_band, band)
    assert list(grouped_walks) == list(walks) == ["terminal", "argmin_frac", -2, 1]
    assert all(np.array_equal(grouped_walks[k], walks[k]) for k in walks)
    assert list(grouped_ratios) == list(ratios) == [
        "tail_after", "head_before", "a_after", "a_before"]
    assert len(ratios["a_after"]) > 20  # rows whose argmin lies inside [1, 19]
    assert all(np.array_equal(grouped_ratios[k], ratios[k]) for k in ratios)


@pytest.mark.parametrize("model", [
    EnvironmentModel(),
    EnvironmentModel(x_family="pareto", x_param=1.5, alpha=1.5),
    EnvironmentModel(rate_family="lognormal", rate_params=(0.0, 0.5)),
], ids=["normal", "pareto", "lognormal"])
@pytest.mark.parametrize("side", ["positive", "negative"])
def test_cond_series_block_matches_direct_sum(model, side):
    # the block sums in place over the batch's paths; the same draws summed
    # from fresh arrays give the same bits
    n = 30
    got = runner._cond_series_block(50, derive_stream(6, 0, "c"), model, n, side)
    rng = derive_stream(6, 0, "c")
    s, _ = sample_conditioned_batch(model, n, "rejection", 50, rng, side)
    mu = np.asarray(model.draw_rate(rng, (50, n)), dtype=float)
    if side == "positive":
        want = (mu * np.exp(-s[:, :n])).sum(axis=1)
    else:
        want = (mu[:, : n - 1] * np.exp(s[:, 1:n])).sum(axis=1)
    assert np.array_equal(got, want)
