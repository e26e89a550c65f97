import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

import bpire_lab.bpire as bpire
from bpire_lab.bpire import (
    SaturationError,
    branch_generation,
    cohort_log_sizes,
    cohort_log_values,
    compute_normalizers,
    simulate_bpire,
    simulate_normalized_at,
)
from bpire_lab.conditioned import sample_conditioned_batch
from bpire_lab.env import EnvSteps, draw_steps, normal_model
from bpire_lab.report import write_csv
from bpire_lab.stats import ks_against_cdf, ks_two_sample


def flat_env(n, x=0.0, mu=2.0):
    return EnvSteps(x=np.full(n, float(x)), mu=np.full(n, float(mu)))


def test_no_immigration_means_no_population(rng):
    env = EnvSteps(x=np.zeros(10), mu=np.zeros(10))
    traj = simulate_bpire(env, 10, 50, rng)
    assert np.all(traj.z == 0.0)
    assert np.all(traj.eta == 0)


def test_first_generation_is_offspring_of_immigrants(rng):
    # Z_1 pools the offspring of eta_0 ~ Poisson(mu_1) immigrants
    env = flat_env(1, x=0.0, mu=3.0)
    traj = simulate_bpire(env, 1, 4000, rng)
    zs = traj.z[:, 1]
    etas = traj.eta[:, 0]
    assert abs(etas.mean() - 3.0) <= 3.0 * math.sqrt(3.0 / len(etas))
    se = zs.std(ddof=1) / math.sqrt(len(zs))
    assert abs(zs.mean() - 3.0) <= 3.0 * se  # critical step keeps the mean


def test_normalizer_examples():
    env = EnvSteps(x=np.array([math.log(2.0)]), mu=np.array([3.0]))
    norms = compute_normalizers(env)
    assert norms.a[0] == 1.0 and norms.b[0] == 0.0
    assert norms.a[1] == pytest.approx(0.5)
    assert norms.b[1] == pytest.approx(3.0)

    env2 = EnvSteps(x=np.zeros(2), mu=np.ones(2))
    norms2 = compute_normalizers(env2)
    assert norms2.b[2] == pytest.approx(2.0)
    assert norms2.a[2] == pytest.approx(1.0)


def test_normalizers_monotone_b(std_model, rng):
    steps = draw_steps(std_model, 64, rng)
    norms = compute_normalizers(steps)
    assert np.all(np.diff(norms.b[1:]) > 0)
    assert norms.b[0] == 0.0


def test_conditional_mean_identity(rng):
    # MC mean of Z_3 equals b_3/a_3 = 6 for the flat critical environment
    env = flat_env(3, x=0.0, mu=2.0)
    norms = compute_normalizers(env)
    target = norms.b[3] / norms.a[3]
    assert target == pytest.approx(6.0)
    vals = simulate_bpire(env, 3, 20_000, rng).z[:, 3]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se


def test_decomposition_identity(rng):
    # Z_n is the sum of independent immigrant cohorts: the population
    # step and the cohort kernel agree in law on a fixed environment
    n, reps = 6, 6000
    env = EnvSteps(x=np.array([0.3, -0.4, 0.1, 0.2, -0.2, 0.0]),
                   mu=np.array([1.0, 2.0, 0.5, 1.5, 1.0, 2.5]))
    merged = simulate_bpire(env, n, reps, rng).z[:, n]
    cohorts = sum(np.rint(np.exp(cohort_log_sizes(env.mu[i], env.x[i:n], reps, rng)[-1]))
                  for i in range(n))
    assert ks_two_sample(merged, cohorts).statistic <= 0.05


def test_cohort_martingale_value_examples(rng):
    # a zero cohort gives zero value
    zl = cohort_log_sizes(0.0, np.full(5, math.log(2.0)), 10, rng)
    assert np.all(np.exp(zl) == 0.0)
    # a_{2,5} = e^{-(S_5 - S_2)} = e^{-3 ln 2} = 1/8
    norms = compute_normalizers(flat_env(6, x=math.log(2.0), mu=1.0))
    assert norms.a[5] / norms.a[2] == pytest.approx(1 / 8)


def test_cohort_martingale_mean(rng):
    # E(a_{0,n} Z_{0,n} | env) = mu_1 at every depth
    x = np.array([0.3, -0.4, 0.1, 0.2, -0.2, 0.0])
    s = np.cumsum(x)
    z_log = cohort_log_sizes(1.7, x, 3000, rng)
    for n in (1, 3, 6):
        vals = np.exp(z_log[n - 1] - s[n - 1])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.7) <= 4.0 * se


class _DeterministicModel:
    """Model stand-in with constant steps x and the constant rate mu = 2."""

    def __init__(self, x=0.0):
        self.x = x

    def draw_x(self, rng, size):
        return np.full(size, self.x)

    def draw_rate(self, rng, size):
        return np.full(size, 2.0)


class _JumpModel:
    """Model stand-in with walk jumps of +-800 and the constant rate mu = 2."""

    def draw_x(self, rng, size):
        return 800.0 * (rng.integers(0, 2, size) * 2 - 1)

    def draw_rate(self, rng, size):
        return np.full(size, 2.0)


def _lockstep_normalized_at(model, n, ts, reps, rng):
    # the generation-by-generation reference: every replica steps through
    # advance, and Y_n(t) = e^{-S_k} Z_k / b_k is read at k = floor(n t)
    ks = np.floor(n * np.asarray(ts)).astype(int)
    s = np.zeros(reps)
    b_log = np.full(reps, -np.inf)
    z_lin, z_log = np.zeros(reps), np.full(reps, -np.inf)
    out = np.zeros((reps, len(ks)))
    for k in range(1, ks.max() + 1):
        x_k = model.draw_x(rng, reps)
        mu_k = np.asarray(model.draw_rate(rng, reps), dtype=float)
        b_log = np.logaddexp(b_log, np.log(mu_k) - s)
        s = s + x_k
        z_lin, z_log, _ = bpire.advance(z_lin, z_log, x_k, mu_k, rng)
        out[:, ks == k] = np.exp(z_log - s - b_log)[:, None]
    return out


def test_normalized_process_conventions(std_model, rng):
    y = simulate_normalized_at(std_model, 20, [0.0, 0.5, 1.0], 1, rng)[0]
    assert y[0] == 0.0  # Y_n(0) = 0
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)


def test_normalized_process_zero_population(rng):
    # no immigrant ever arrives, so Y_n is identically zero
    y = simulate_normalized_at(normal_model(rate=1e-300), 4, [0.25, 1.0], 50, rng)
    assert np.all(y == 0.0)


def test_normalized_process_exact_ratio(monkeypatch):
    norms = compute_normalizers(flat_env(4, x=0.0, mu=2.0))
    assert np.allclose(norms.b / norms.a, 2.0 * np.arange(5))

    # force every cohort and the carried population to its mean, A Z = mu
    # and A Z = Z_prev: then e^{-S_k} Z_k = b_k and the normalized value is
    # exactly one
    def cohort_mean(mu, a_log, b_log, rng):
        return mu * np.exp(-a_log), np.log(mu) - a_log

    def carried_mean(c_lin, c_log, a_log, b_log, rng):
        return c_lin * np.exp(-a_log), c_log - a_log

    monkeypatch.setattr(bpire, "_cohort_counts", cohort_mean)
    monkeypatch.setattr(bpire, "_carried_counts", carried_mean)
    for x in (0.0, 0.7):  # flat, and a drift that makes every A differ from one
        y = simulate_normalized_at(_DeterministicModel(x), 4, [0.25, 0.5, 1.0], 3, None)
        assert np.allclose(y, 1.0)
    # windows split at unreported checkpoints carry walk, b_k and Z across
    monkeypatch.setattr(bpire, "_MAX_WINDOW", 5)
    for x in (0.0, 0.7):
        y = simulate_normalized_at(_DeterministicModel(x), 12, [0.25, 0.5, 1.0], 3, None)
        assert np.allclose(y, 1.0)


def test_normalized_process_matches_lockstep(std_model, monkeypatch):
    # the closed-form sampler against the generation-by-generation engine:
    # both coordinates and their ratio, at the 5% two-sample critical value;
    # chunks of 7 cohorts make each window carry its suffix sums across chunks
    monkeypatch.setattr(bpire, "_COHORT_CHUNK", 7)
    reps = 20_000
    crit = 1.358 * math.sqrt(2.0 / reps)
    closed_rng, lock_rng = (np.random.default_rng(seq)
                            for seq in np.random.SeedSequence(20260809).spawn(2))
    closed = simulate_normalized_at(std_model, 40, (0.5, 1.0), reps, closed_rng)
    lock = _lockstep_normalized_at(std_model, 40, (0.5, 1.0), reps, lock_rng)
    for j in range(2):
        assert ks_two_sample(closed[:, j], lock[:, j]).statistic <= crit
    # the ratio on the rows alive at the first time
    a, b = (y[y[:, 0] > 0.0, 1] / y[y[:, 0] > 0.0, 0] for y in (closed, lock))
    crit = 1.358 * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    assert ks_two_sample(a, b).statistic <= crit


def test_normalized_process_split_windows(std_model, rng, monkeypatch):
    # a horizon longer than _MAX_WINDOW is drawn in windows of at most that
    # many generations, and E Y_n(t) = 1 still holds across the splits
    widths = []
    window_cohorts = bpire._window_cohorts

    def spy(model, s_prev, w, rng):
        widths.append(w)
        return window_cohorts(model, s_prev, w, rng)

    monkeypatch.setattr(bpire, "_MAX_WINDOW", 16)
    monkeypatch.setattr(bpire, "_window_cohorts", spy)
    y = simulate_normalized_at(std_model, 300, (1.0,), 4000, rng)
    assert max(widths) == 16 and sum(widths) == 300
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - 1.0) <= 4.0 * se


def test_normalized_process_survives_huge_jumps(rng):
    # +-800 walk jumps stay in log space: no warning, finite values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = simulate_normalized_at(_JumpModel(), 40, (0.5, 1.0), 2000, rng)
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)
    assert np.any(y > 0.0)


def test_saturation_error_exact_only(rng):
    env = flat_env(200, x=math.log(4.0), mu=2.0)  # strongly supercritical
    with pytest.raises(SaturationError):
        simulate_bpire(env, 200, 1, rng, exact_only=True)


def test_hybrid_handles_supercritical_growth(rng):
    env = flat_env(300, x=math.log(4.0), mu=2.0)
    traj = simulate_bpire(env, 300, 1, rng)
    expect = 300 * math.log(4.0)
    assert abs(traj.z_log[0, 300] - expect) < 0.1 * expect


def test_hybrid_matches_exact_engine(std_model, rng, monkeypatch):
    # force the log-space branch at tiny populations and compare laws
    # against the exact integer engine on the same environment
    env = flat_env(12, x=0.05, mu=2.0)
    reps = 8000
    exact = simulate_bpire(env, 12, reps, rng, exact_only=True).z[:, 12]
    monkeypatch.setattr(bpire, "EXACT_CAP", 4)
    hybrid = simulate_bpire(env, 12, reps, rng).z[:, 12]
    monkeypatch.undo()
    ks = ks_two_sample(exact, hybrid)
    assert ks.statistic <= 0.05


_WALK_X = np.array([0.4, -0.2, 0.1, 0.5, -0.6, 0.3, -0.1, 0.2, -0.4, 0.0])


def _fractional_linear_coefficients(x):
    # 1/(1 - f_{0,n}(s)) = A/(1 - s) + B with A = e^{-S_n}, B = sum_{k<n} e^{-S_k}
    s = np.concatenate([[0.0], np.cumsum(x)])
    return -s[-1], math.log(np.exp(-s[:-1]).sum())


@pytest.mark.parametrize("mu", [2.0 ** 33, 2.0 ** 40])
def test_hybrid_matches_fractional_linear_law(rng, mu):
    # oracle far above EXACT_CAP: the generation-by-generation engine
    # against the closed-form composition of its geometric offspring laws
    a_log, b_log = _fractional_linear_coefficients(_WALK_X)
    reps = 4000
    hybrid = cohort_log_sizes(mu, _WALK_X, reps, rng)[-1] + a_log
    exact = cohort_log_values(np.full(reps, mu), a_log, b_log, rng)
    assert ks_two_sample(hybrid, exact).statistic <= 0.05


def test_cohort_log_values_extinction_and_mean(rng):
    # each ancestor survives J generations with probability 1/(A+B), so
    # P(Z = 0) = e^{-mu/(A+B)}; and E(A Z) = mu, the martingale mean
    a_log, b_log = _fractional_linear_coefficients(_WALK_X)
    mu, reps = 1.3, 40_000
    vals = np.exp(cohort_log_values(np.full(reps, mu), a_log, b_log, rng))
    p_dead = math.exp(-mu / (math.exp(a_log) + math.exp(b_log)))
    dead = (vals == 0.0).mean()
    assert abs(dead - p_dead) <= 4.0 * math.sqrt(p_dead * (1 - p_dead) / reps)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - mu) <= 4.0 * se


def test_cohort_log_values_has_no_overflow(rng):
    # walk increments of +-800 stay in log space: a vanishing A leaves a
    # cohort of value about mu (2^60 surviving lines, past the float
    # range of linear counts), a huge A or B leaves a dead cohort
    with np.errstate(over="raise"):
        out = cohort_log_values(np.full(4, 2.0 ** 60), np.array([-800.0, -800.0, 800.0, 0.0]),
                                np.array([0.0, 800.0, 0.0, 800.0]), rng)
    assert out[0] == pytest.approx(60 * math.log(2.0), abs=1e-6)
    assert np.all(np.isneginf(out[1:]))


def test_branch_generation_has_no_overflow(rng):
    # a huge log mean on a small count, and a count past the float range:
    # both stay in log space without a floating-point overflow
    with np.errstate(over="raise"):
        z_lin, z_log = branch_generation(
            np.array([3.0, np.inf]), np.array([math.log(3.0), 800.0]),
            np.array([750.0, 0.0]), rng)
    assert np.all(np.isinf(z_lin))
    assert z_log[0] > 740.0
    assert z_log[1] == pytest.approx(800.0)


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_branch_generation_large_step_small_count(rng, c):
    # a step past the exact-draw margin sends a small count to log space,
    # where NegBin(c, 1/(1+e^x)) is Poisson(e^x Gamma(c)): ln Z follows
    # x + ln Gamma(c), at the 5% one-sample critical value
    x, reps = 50.0, 40_000
    _, z_log = branch_generation(np.full(reps, c), np.full(reps, math.log(c)),
                                 np.full(reps, x), rng)
    ks = ks_against_cdf(z_log, lambda v: gammainc(c, np.exp(v - x)))
    assert ks.statistic <= 1.358 / math.sqrt(reps)


def test_branch_generation_zero_parents(rng):
    z_lin, z_log = branch_generation(np.zeros(4), np.full(4, -np.inf),
                                     np.zeros(4), rng)
    assert np.all(z_lin == 0.0) and np.all(np.isneginf(z_log))


def test_cohort_law_stabilizes_under_conditioning(std_model, std_tables, rng):
    # in a conditioned-to-stay-nonnegative environment the normalized
    # first-cohort value settles to a limit law: doubling the horizon
    # leaves its empirical law in place
    reps = 4000

    def cohort_values(n):
        batch = sample_conditioned_batch(std_model, n, "rejection", reps, rng,
                                         "positive")
        z_log = cohort_log_sizes(2.0, np.diff(batch.s, axis=1).T, reps, rng)[-1]
        return np.exp(z_log - batch.s[:, -1])

    ks = ks_two_sample(cohort_values(128), cohort_values(256))
    assert ks.statistic <= 0.05


def test_recentered_cohort_matches_martingale_limit(std_model, std_tables, rng):
    # the cohort joining one generation after the walk argmin, normalized
    # by e^{-(S_n - S_{tau+1})}, matches the martingale-limit law of the
    # glued environment's first forward cohort
    from bpire_lab.limit import _glued_cohorts, sample_two_sided_batch

    n, reps, off = 512, 3000, 1
    x = std_model.draw_x(rng, (reps, n))
    mu = np.asarray(std_model.draw_rate(rng, (reps, n)))
    s = np.concatenate([np.zeros((reps, 1)), np.cumsum(x, axis=1)], axis=1)
    tau = np.argmin(s, axis=1)
    cohort = np.minimum(tau + off, n)
    keep = cohort <= n - 1
    z_lin = np.zeros(reps)
    z_log = np.full(reps, -np.inf)
    eta = rng.poisson(mu[np.arange(reps), np.minimum(cohort, n - 1)])
    for k in range(1, n + 1):
        init = cohort == k - 1
        if init.any():
            z_lin[init] = eta[init]
            with np.errstate(divide="ignore"):
                z_log[init] = np.where(eta[init] > 0,
                                       np.log(np.maximum(eta[init], 1.0)), -np.inf)
        act = cohort <= k - 1
        if act.any():
            z_lin[act], z_log[act] = branch_generation(
                z_lin[act], z_log[act], x[act, k - 1], rng)
    pre = np.where(np.isfinite(z_log),
                   np.exp(z_log - (s[:, n] - s[np.arange(reps), cohort])), 0.0)[keep]

    env = sample_two_sided_batch(std_model, 2, reps, rng, std_tables, pos_extra=70)
    _, mu, a_log, b_log = _glued_cohorts(env, 2, 64)
    lim = np.exp(cohort_log_values(mu[:, 2 + off], a_log[:, 2 + off], b_log[:, 2 + off], rng))
    assert ks_two_sample(pre, lim).statistic <= 0.06


def test_trajectory_csv_export(std_model, rng, tmp_path):
    # trajectories go to CSV through the generic figure-data writer
    steps = draw_steps(std_model, 8, rng)
    traj = simulate_bpire(steps, 8, 1, rng)
    norms = compute_normalizers(steps)
    s = np.concatenate([[0.0], np.cumsum(steps.x)])
    path = write_csv(str(tmp_path), "traj.csv", {
        "k": np.arange(traj.n + 1), "z": traj.z[0], "s": s, "a": norms.a, "b": norms.b,
    }, {"horizon": traj.n})
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,z,s,a,b"
    assert len(lines) == 2 + 9
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[3]) == 1.0 and float(first[4]) == 0.0


def test_env_length_validation(std_model, rng):
    steps = draw_steps(std_model, 5, rng)
    with pytest.raises(ValueError):
        simulate_bpire(steps, 6, 1, rng)


def test_simulate_normalized_at_mean(std_model, rng):
    # E Y_n(t) = 1 exactly, by the conditional mean identity
    y = simulate_normalized_at(std_model, 300, (1.0,), 4000, rng)
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - 1.0) <= 4.0 * se
