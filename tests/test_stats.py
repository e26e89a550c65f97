import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpire_lab.stats import (
    ecdf,
    joint_two_time_test,
    ks_against_cdf,
    ks_two_sample,
)


def test_ecdf_examples():
    f = ecdf([1.0, 2.0, 3.0])
    assert f.evaluate(2.0) == pytest.approx(2.0 / 3.0)
    assert f.evaluate(0.5) == 0.0
    assert f.evaluate(3.0) == 1.0
    assert f.evaluate(99.0) == 1.0


def test_ecdf_right_continuous_nondecreasing(rng):
    f = ecdf(rng.normal(size=200))
    xs = np.linspace(-4, 4, 500)
    vals = f.evaluate(xs)
    assert np.all(np.diff(vals) >= 0)
    # right continuity: value at a sample point includes its jump
    x0 = f.values[10]
    assert f.evaluate(x0) > f.evaluate(x0 - 1e-12)


def test_ecdf_rejects_empty():
    with pytest.raises(ValueError):
        ecdf([])


def test_ecdf_weighted_matches_duplication():
    a = ecdf([1.0, 2.0], weights=[2.0, 1.0])
    b = ecdf([1.0, 1.0, 2.0])
    xs = [0.5, 1.0, 1.5, 2.0, 3.0]
    assert np.allclose(a.evaluate(xs), b.evaluate(xs))


def test_ks_two_sample_examples():
    assert ks_two_sample([1, 2, 3], [1, 2, 3]).statistic == 0.0
    assert ks_two_sample([0.0, 1.0], [2.0, 3.0]).statistic == 1.0
    assert ks_two_sample([1.0, 2.0], [1.0, 3.0]).statistic == pytest.approx(0.5)


def test_ks_two_sample_brute_force_oracle(rng):
    # evaluate both step functions densely and compare suprema
    a = rng.normal(size=37)
    b = rng.normal(size=53) + 0.3
    fa, fb = ecdf(a), ecdf(b)
    dense = np.linspace(-5, 5, 200_001)
    oracle = np.abs(fa.evaluate(dense) - fb.evaluate(dense)).max()
    assert ks_two_sample(a, b).statistic == pytest.approx(oracle, abs=1e-12)


def test_ks_matches_scipy(rng):
    from scipy.stats import ks_2samp

    a = rng.normal(size=400)
    b = rng.normal(size=300) * 1.3
    assert ks_two_sample(a, b).statistic == pytest.approx(
        ks_2samp(a, b).statistic, abs=1e-12)


@given(
    a=st.lists(st.integers(-100_000, 100_000), min_size=1, max_size=40),
    b=st.lists(st.integers(-100_000, 100_000), min_size=1, max_size=40),
    scale=st.floats(0.5, 4.0),
    shift=st.floats(-5.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_ks_symmetry_and_monotone_invariance(a, b, scale, shift):
    # values on a lattice keep the affine map injective in floats
    a = [x / 1000.0 for x in a]
    b = [x / 1000.0 for x in b]
    d1 = ks_two_sample(a, b).statistic
    d2 = ks_two_sample(b, a).statistic
    assert d1 == pytest.approx(d2, abs=1e-12)
    ta = [scale * x + shift for x in a]
    tb = [scale * x + shift for x in b]
    assert ks_two_sample(ta, tb).statistic == pytest.approx(d1, abs=1e-12)


def test_ks_weighted_uniform_equals_unweighted(rng):
    a = rng.normal(size=80)
    b = rng.normal(size=60)
    d0 = ks_two_sample(a, b).statistic
    d1 = ks_two_sample(a, b, np.full(80, 1 / 80), np.full(60, 0.5)).statistic
    assert d0 == pytest.approx(d1, abs=1e-12)


def test_ks_against_cdf_point_mass_at_median():
    from scipy.stats import norm

    assert ks_against_cdf([0.0], norm.cdf).statistic == pytest.approx(0.5)


def test_ks_against_cdf_uniform_spacing():
    n = 25
    sample = (np.arange(1, n + 1) - 0.5) / n
    d = ks_against_cdf(sample, lambda x: np.clip(x, 0, 1)).statistic
    assert d == pytest.approx(1.0 / (2 * n))


def test_ks_against_cdf_calibration():
    # samples drawn from the reference law stay under the asymptotic
    # 99% quantile 1.63/sqrt(N) at almost every seed
    from scipy.stats import norm

    n = 4000
    bound = 1.63 / math.sqrt(n)
    exceed = 0
    for seed in range(30):
        sample = np.random.default_rng(seed).normal(size=n)
        if ks_against_cdf(sample, norm.cdf).statistic > bound:
            exceed += 1
    assert exceed <= 2


def test_joint_test_degenerate_branches(rng):
    gam = rng.exponential(1.0, 4000)
    g = ecdf(gam)
    # independent-coordinates branch, on the report's own probe grid
    rep1 = joint_two_time_test(gam[:2000], gam[2000:], gam, 1.0)
    probes = rep1.probes
    expect1 = g.evaluate(probes[:, 0]) * g.evaluate(probes[:, 1])
    assert np.allclose(rep1.predicted, expect1)
    # common-coordinate branch
    rep0 = joint_two_time_test(gam[:2000], gam[:2000], gam, 0.0)
    assert np.array_equal(rep0.probes, probes)
    expect0 = g.evaluate(probes.min(axis=1))
    assert np.allclose(rep0.predicted, expect0)
    assert np.allclose(rep0.observed, ecdf(gam[:2000]).evaluate(probes.min(axis=1)),
                       atol=0.05)


def test_joint_test_total_mass_probe(rng):
    # a reference marginal with all its mass past the data puts every
    # probe at (big, big)
    gam = rng.exponential(1.0, 1000)
    big = gam.max() + 1.0
    rep = joint_two_time_test(gam[:500], gam[500:], np.full(10, big), 0.37)
    assert np.all(rep.probes == big)
    assert rep.predicted[0] == pytest.approx(1.0)
    assert rep.observed[0] == 1.0


def test_joint_test_reproduces_mixture(rng):
    # synthetic data built from the mixture itself: coordinates share a
    # value unless an independent coin flips a level change
    reps = 20_000
    p = 0.4
    g1 = rng.exponential(1.0, reps)
    g2 = rng.exponential(1.0, reps)
    change = rng.uniform(size=reps) < p
    y1 = g1
    y2 = np.where(change, g2, g1)
    gam_ref = rng.exponential(1.0, reps)
    rep = joint_two_time_test(y1, y2, gam_ref, p)
    assert rep.max_discrepancy <= 2.0 * 3.0 / math.sqrt(reps) + 0.02
    assert rep.probes.shape == (25, 2)


def test_joint_test_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        joint_two_time_test([], [], [1.0], 0.5)
    with pytest.raises(ValueError):
        joint_two_time_test([1.0], [1.0, 2.0], [1.0], 0.5)
