import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bpire_lab.env import (
    EnvironmentModel,
    InvalidModelError,
    validate_model,
)
from bpire_lab.stats import ks_against_cdf, ks_two_sample


def geometric_q(x):
    # the coupling q = 1/(1+e^x) of a step's log offspring mean x
    return 1.0 / (1.0 + np.exp(x))


def drawn_env(model, n, rng):
    """``n`` drawn steps (x, mu)."""
    return model.draw_x(rng, n), model.draw_rate(rng, n)


def test_offspring_law_mean():
    # the step with log mean x has geometric offspring of mean (1-q)/q = e^x
    q = geometric_q(np.array([0.0, math.log(2.0)]))
    mean = (1.0 - q) / q
    assert mean[0] == 1.0
    assert mean[1] == pytest.approx(2.0)


def test_immigration_law_rejects_bad_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(InvalidModelError):
            validate_model(EnvironmentModel(rate_params=(rate,)), strict=True)


def test_coupling_at_zero_log_mean(rng):
    # a zero log mean is the critical step: q = 1/2, offspring mean 1
    q = 1.0 / (1.0 + math.exp(0.0))
    assert q == 0.5
    assert (1.0 - q) / q == 1.0


def test_coupling_inverts_log_two():
    q = 1.0 / (1.0 + math.exp(math.log(2.0)))
    assert q == pytest.approx(1 / 3)
    step_x = math.log((1 - q) / q)
    assert step_x == pytest.approx(math.log(2.0))


def test_log_mean_examples():
    x = np.array([0.0, math.log(2.0), -math.log(2.0)])
    q = geometric_q(x)
    assert q == pytest.approx([0.5, 1 / 3, 2 / 3])
    log_mean = np.log((1.0 - q) / q)
    assert log_mean[0] == 0.0
    assert log_mean[1] == pytest.approx(math.log(2.0))
    assert log_mean[2] == pytest.approx(-math.log(2.0))


def test_immigration_mean_examples(rng):
    # Poisson immigration: the step's mu is the immigration mean
    for lam in (2.0, 1.0):
        assert np.all(drawn_env(EnvironmentModel(rate_params=(lam,)), 10, rng)[1] == lam)


def test_drawn_x_sample_mean_near_zero(std_model, rng):
    xs = std_model.draw_x(rng, 100_000)
    assert abs(xs.mean()) < 0.02


def test_lognormal_rate_sample_mean(rng):
    model = EnvironmentModel(rate_family="lognormal", rate_params=(0.0, 1.0))
    mus = np.asarray(model.draw_rate(rng, 100_000))
    target = math.exp(0.5)
    assert abs(mus.mean() - target) / target < 0.02


def test_draw_step_consistency(std_model, rng):
    x, mu = drawn_env(std_model, 1, rng)
    assert mu[0] == std_model.rate_params[0]  # constant rate
    assert geometric_q(x)[0] == pytest.approx(1.0 / (1.0 + math.exp(x[0])))
    assert math.isfinite(x[0]) and mu[0] > 0


@given(x=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_coupling_roundtrip_property(x):
    # exp(log_mean) * q/(1-q) = 1 within machine precision
    q = 1.0 / (1.0 + math.exp(x))
    m = (1.0 - q) / q
    assert math.exp(math.log(m)) * q / (1.0 - q) == pytest.approx(1.0, rel=1e-12)


def test_positive_fraction_symmetric(std_model, rng):
    n = 200_000
    xs = std_model.draw_x(rng, n)
    frac = (xs > 0).mean()
    assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(n)


def test_pareto_positive_fraction(rng):
    model = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.3)
    n = 200_000
    xs = model.draw_x(rng, n)
    assert abs((xs > 0).mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(n)
    assert np.abs(xs).min() >= 1.0  # two-sided support excludes (-1, 1)


@pytest.mark.parametrize("a", [1.3, 1.5])
def test_pareto_step_law(rng, a):
    # |X| has P(|X| > t) = t^{-a} on t >= 1, and the sign is independent
    # of |X|: the law of |X| is the same on either side
    n = 100_000
    model = EnvironmentModel(x_family="pareto", x_param=a, alpha=a)
    assert abs(model.draw_x(rng)) >= 1.0  # a scalar draw
    xs = model.draw_x(rng, n)
    mags = np.abs(xs)
    ks = ks_against_cdf(mags, lambda t: 1.0 - t ** -a)
    assert ks.statistic <= 1.95 / math.sqrt(n)  # the 0.1% level
    pos, neg = mags[xs > 0], mags[xs < 0]
    assert len(pos) + len(neg) == n
    crit = 1.95 * math.sqrt(1.0 / len(pos) + 1.0 / len(neg))
    assert ks_two_sample(pos, neg).statistic <= crit


class _StubGenerator:
    """Returns the extreme uniforms 0, 1/2 and 1 - 2^-53 of ``random``."""

    def random(self, size=None):
        return np.array([0.0, 0.5, 1.0 - 2.0**-53])


@pytest.mark.parametrize("a", [1.3, 1.5])
def test_pareto_step_at_extreme_uniforms(a):
    # W = 1 - u is 1, 1/2 and 2^-53: the signs are -, +, + and
    # V = 2W - ceil(2W) + 1 is 1, 1 and 2^-52
    xs = EnvironmentModel(x_family="pareto", x_param=a, alpha=a).draw_x(_StubGenerator(), 3)
    assert np.all(np.isfinite(xs))
    assert np.all(np.abs(xs) >= 1.0)
    assert list(np.sign(xs)) == [-1.0, 1.0, 1.0]
    assert xs[:2].tolist() == [-1.0, 1.0]
    assert xs[2] == pytest.approx(2.0 ** (52.0 / a), rel=1e-12)


def test_serial_independence(std_model, rng):
    n = 100_000
    xs = std_model.draw_x(rng, n)
    lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
    assert abs(lag1) <= 3.0 / math.sqrt(n)


def test_validate_normal_model_passes(std_model):
    checks = validate_model(std_model)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "moment condition" in names
    assert "rho matches symmetric family" in names


def test_validate_rejects_one_sided_rho():
    model = EnvironmentModel(rho=0.0)
    assert not all(c.passed for c in validate_model(model))
    with pytest.raises(InvalidModelError):
        validate_model(model, strict=True)


def test_validate_rejects_alpha_mismatch():
    model = EnvironmentModel(x_family="normal", alpha=1.5)
    assert not all(c.passed for c in validate_model(model))


def test_validate_constant_rate_moment():
    model = EnvironmentModel(rate_params=(3.0,))
    assert all(c.passed for c in validate_model(model) if c.name == "moment condition")


def test_pareto_model_alpha_consistency():
    model = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.3)
    assert all(c.passed for c in validate_model(model))
    bad = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.1)
    assert not all(c.passed for c in validate_model(bad))


def test_draw_steps_batch(std_model, rng):
    x, mu = drawn_env(std_model, 1000, rng)
    assert len(x) == len(mu) == 1000
    assert np.all(mu == 2.0)
    assert np.allclose(geometric_q(x), 1.0 / (1.0 + np.exp(x)))
