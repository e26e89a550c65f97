import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bpire_lab.env import (
    EnvironmentModel,
    EnvSteps,
    InvalidModelError,
    draw_steps,
    normal_model,
    pareto_model,
    validate_model,
)


def test_offspring_law_mean():
    # the step with log mean x has geometric offspring of mean (1-q)/q = e^x
    q = EnvSteps(x=np.array([0.0, math.log(2.0)]), mu=np.ones(2)).q
    mean = (1.0 - q) / q
    assert mean[0] == 1.0
    assert mean[1] == pytest.approx(2.0)


def test_immigration_law_rejects_bad_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(InvalidModelError):
            validate_model(normal_model(rate=rate), strict=True)


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
    steps = EnvSteps(x=np.array([0.0, math.log(2.0), -math.log(2.0)]), mu=np.ones(3))
    q = steps.q
    assert q == pytest.approx([0.5, 1 / 3, 2 / 3])
    log_mean = np.log((1.0 - q) / q)
    assert log_mean[0] == 0.0
    assert log_mean[1] == pytest.approx(math.log(2.0))
    assert log_mean[2] == pytest.approx(-math.log(2.0))


def test_immigration_mean_examples(rng):
    # Poisson immigration: the step's mu is the immigration mean
    for lam in (2.0, 1.0):
        assert np.all(draw_steps(normal_model(rate=lam), 10, rng).mu == lam)


def test_drawn_x_sample_mean_near_zero(std_model, rng):
    xs = std_model.draw_x(rng, 100_000)
    assert abs(xs.mean()) < 0.02


def test_lognormal_rate_sample_mean(rng):
    model = EnvironmentModel(rate_family="lognormal", rate_params=(0.0, 1.0))
    mus = np.asarray(model.draw_rate(rng, 100_000))
    target = math.exp(0.5)
    assert abs(mus.mean() - target) / target < 0.02
    assert model.mean_rate() == pytest.approx(target)


def test_draw_step_consistency(std_model, rng):
    step = draw_steps(std_model, 1, rng)
    assert step.mu[0] == std_model.mean_rate()
    assert step.q[0] == pytest.approx(1.0 / (1.0 + math.exp(step.x[0])))
    assert math.isfinite(step.x[0]) and step.mu[0] > 0


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
    model = pareto_model(alpha=1.3)
    n = 200_000
    xs = model.draw_x(rng, n)
    assert abs((xs > 0).mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(n)
    assert np.abs(xs).min() >= 1.0  # two-sided support excludes (-1, 1)


def test_serial_independence(std_model, rng):
    n = 100_000
    xs = std_model.draw_x(rng, n)
    lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
    assert abs(lag1) <= 3.0 / math.sqrt(n)


def test_validate_normal_model_passes(std_model):
    report = validate_model(std_model)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "moment condition" in names
    assert "rho matches symmetric family" in names


def test_validate_rejects_one_sided_rho():
    model = EnvironmentModel(rho=0.0)
    report = validate_model(model)
    assert not report.ok
    with pytest.raises(InvalidModelError):
        validate_model(model, strict=True)


def test_validate_rejects_alpha_mismatch():
    model = EnvironmentModel(x_family="normal", alpha=1.5)
    assert not validate_model(model).ok


def test_validate_constant_rate_moment():
    model = normal_model(rate=3.0)
    report = validate_model(model)
    assert all(c.passed for c in report.checks if c.name == "moment condition")


def test_pareto_model_alpha_consistency():
    model = pareto_model(alpha=1.3)
    assert validate_model(model).ok
    bad = EnvironmentModel(x_family="pareto", x_param=1.3, alpha=1.1)
    assert not validate_model(bad).ok


def test_draw_steps_batch(std_model, rng):
    steps = draw_steps(std_model, 1000, rng)
    assert len(steps) == 1000
    assert np.all(steps.mu == 2.0)
    assert np.allclose(steps.q, 1.0 / (1.0 + np.exp(steps.x)))
