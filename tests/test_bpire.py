import math

import numpy as np
import pytest

import bpire_lab.bpire as bpire
from bpire_lab.bpire import (
    SaturationError,
    Trajectory,
    branch_generation,
    cohort_log_sizes,
    compute_normalizers,
    normalized_process,
    simulate_bpire,
    simulate_normalized_at,
)
from bpire_lab.conditioned import sample_conditioned_batch
from bpire_lab.env import EnvSteps, draw_steps
from bpire_lab.report import write_csv
from bpire_lab.stats import ks_two_sample


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


def test_normalized_process_conventions(std_model, rng):
    steps = draw_steps(std_model, 20, rng)
    traj = simulate_bpire(steps, 20, 1, rng)
    norms = compute_normalizers(steps)
    y = normalized_process(traj, norms, 20, [0.0, 0.5, 1.0]).y[0]
    assert y[0] == 0.0
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)


def test_normalized_process_zero_population():
    env = flat_env(4)
    norms = compute_normalizers(env)
    traj = Trajectory(z=np.zeros(5), z_log=np.full(5, -np.inf),
                      eta=np.zeros(4, dtype=np.int64), env=env)
    path = normalized_process(traj, norms, 4, [0.25, 1.0])
    assert np.all(path.y == 0.0)


def test_normalized_process_exact_ratio():
    env = flat_env(4, x=0.0, mu=2.0)
    norms = compute_normalizers(env)
    # force Z_k = b_k/a_k: the normalized value is exactly one
    z = norms.b / norms.a
    traj = Trajectory(z=z, z_log=np.log(np.maximum(z, 1e-300)),
                      eta=np.full(4, 2, dtype=np.int64), env=env)
    path = normalized_process(traj, norms, 4, [0.25, 0.5, 1.0])
    assert np.allclose(path.y, 1.0)


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


@pytest.mark.parametrize("mu", [2.0 ** 33, 2.0 ** 40])
def test_hybrid_matches_fractional_linear_law(rng, mu):
    # oracle far above EXACT_CAP: geometric laws compose in closed form,
    # 1/(1 - f_{0,n}(s)) = A/(1 - s) + B with A = e^{-S_n} and
    # B = sum_{k<n} e^{-S_k}. Each ancestor has a surviving line with
    # probability 1/(A+B), and each surviving line leaves 1 + Geometric
    # descendants with success probability A/(A+B); Poisson(mu)
    # ancestors thin to Poisson(mu/(A+B)) surviving lines.
    x = np.array([0.4, -0.2, 0.1, 0.5, -0.6, 0.3, -0.1, 0.2, -0.4, 0.0])
    s = np.concatenate([[0.0], np.cumsum(x)])
    a, b = math.exp(-s[-1]), np.exp(-s[:-1]).sum()
    reps = 4000
    hybrid = cohort_log_sizes(mu, x, reps, rng)[-1]
    lines = rng.poisson(mu / (a + b), reps)
    exact = np.log(lines + rng.negative_binomial(lines, a / (a + b)))
    assert ks_two_sample(hybrid, exact).statistic <= 0.05


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
    from bpire_lab.limit import _zeta_log_batch, sample_two_sided_batch

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

    env = sample_two_sided_batch(std_model, 2, "rejection", reps, rng,
                                 std_tables, pos_extra=70)
    zl = _zeta_log_batch(env, off, 64, rng)
    lim = np.where(np.isfinite(zl), np.exp(zl), 0.0)
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
