import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

import bpire_lab.bpire as bpire
from bpire_lab.bpire import (
    SaturationError,
    branch_generation,
    cohort_log_values,
    compute_normalizers,
    limit_log_values,
    simulate_normalized_at,
)
from bpire_lab.conditioned import sample_conditioned_batch
from bpire_lab.env import EnvironmentModel
from bpire_lab.report import write_csv
from bpire_lab.stats import ks_against_cdf, ks_two_sample
from lockstep import lockstep


def flat_env(n, x=0.0, mu=2.0):
    """Fixed steps (x, mu) of ``n`` equal generations."""
    return np.full(n, float(x)), np.full(n, float(mu))


def drawn_env(model, n, rng):
    return model.draw_x(rng, n), model.draw_rate(rng, n)


def trajectory(env, n, reps, rng, exact_only=False):
    """(z, z_log, eta) of the lockstep oracle on fixed steps (x, mu): one
    row per replica, Z_0..Z_n and the immigrants joining generations 1..n."""
    z, z_log, eta = (np.array(a).T for a in zip(*lockstep(
        zip(*env), n, reps, rng, exact_only=exact_only)))
    return (np.column_stack([np.zeros(reps), z]),
            np.column_stack([np.full(reps, -np.inf), z_log]), eta)


def cohort_log_sizes(mu, x, reps, rng):
    """ln Z_k of one cohort of Poisson(mu) immigrants after k = 1..J
    generations of the steps x, with no further immigration: (J, reps)."""
    rates = [mu] + [0.0] * (len(x) - 1)
    return np.array([z_log for _, z_log, _ in lockstep(zip(x, rates), len(x), reps, rng)])


def test_no_immigration_means_no_population(rng):
    env = (np.zeros(10), np.zeros(10))
    z, _, eta = trajectory(env, 10, 50, rng)
    assert np.all(z == 0.0)
    assert np.all(eta == 0)


def test_first_generation_is_offspring_of_immigrants(rng):
    # Z_1 pools the offspring of eta_0 ~ Poisson(mu_1) immigrants
    env = flat_env(1, x=0.0, mu=3.0)
    z, _, eta = trajectory(env, 1, 4000, rng)
    zs = z[:, 1]
    etas = eta[:, 0]
    assert abs(etas.mean() - 3.0) <= 3.0 * math.sqrt(3.0 / len(etas))
    se = zs.std(ddof=1) / math.sqrt(len(zs))
    assert abs(zs.mean() - 3.0) <= 3.0 * se  # critical step keeps the mean


def normalizers(env):
    """(a, b): a_k = e^{-S_k} and b_k of ``compute_normalizers``."""
    s, b_log = compute_normalizers(*env)
    return np.exp(-s), np.exp(b_log)


def test_normalizer_examples():
    env = (np.array([math.log(2.0)]), np.array([3.0]))
    a, b = normalizers(env)
    assert a[0] == 1.0 and b[0] == 0.0
    assert a[1] == pytest.approx(0.5)
    assert b[1] == pytest.approx(3.0)

    env2 = (np.zeros(2), np.ones(2))
    a2, b2 = normalizers(env2)
    assert b2[2] == pytest.approx(2.0)
    assert a2[2] == pytest.approx(1.0)


def test_normalizers_monotone_b(std_model, rng):
    steps = drawn_env(std_model, 64, rng)
    _, b = normalizers(steps)
    assert np.all(np.diff(b[1:]) > 0)
    assert b[0] == 0.0


def test_normalizers_batched_match_rows(std_model, rng):
    # a batch along the leading axes gives each row's 1-D result bit for bit
    x = std_model.draw_x(rng, (3, 2, 16))
    mu = np.exp(rng.normal(0.0, 1.0, (3, 2, 16)))
    s, b_log = compute_normalizers(x, mu)
    assert s.shape == b_log.shape == (3, 2, 17)
    for idx in np.ndindex(3, 2):
        s_row, b_row = compute_normalizers(x[idx], mu[idx])
        assert np.array_equal(s[idx], s_row) and np.array_equal(b_log[idx], b_row)
    with pytest.raises(ValueError):
        compute_normalizers(np.zeros((3, 0)), np.zeros((3, 0)))


def test_conditional_mean_identity(rng):
    # MC mean of Z_3 equals b_3/a_3 = 6 for the flat critical environment
    env = flat_env(3, x=0.0, mu=2.0)
    a, b = normalizers(env)
    target = b[3] / a[3]
    assert target == pytest.approx(6.0)
    vals = trajectory(env, 3, 20_000, rng)[0][:, 3]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se


def test_decomposition_identity(rng):
    # Z_n is the sum of independent immigrant cohorts: the population
    # step and the cohort kernel agree in law on a fixed environment
    n, reps = 6, 6000
    x = np.array([0.3, -0.4, 0.1, 0.2, -0.2, 0.0])
    mu = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 2.5])
    merged = trajectory((x, mu), n, reps, rng)[0][:, n]
    cohorts = sum(np.rint(np.exp(cohort_log_sizes(mu[i], x[i:n], reps, rng)[-1]))
                  for i in range(n))
    assert ks_two_sample(merged, cohorts).statistic <= 0.05


def test_cohort_martingale_value_examples(rng):
    # a zero cohort gives zero value
    zl = cohort_log_sizes(0.0, np.full(5, math.log(2.0)), 10, rng)
    assert np.all(np.exp(zl) == 0.0)
    # a_{2,5} = e^{-(S_5 - S_2)} = e^{-3 ln 2} = 1/8
    a, _ = normalizers(flat_env(6, x=math.log(2.0), mu=1.0))
    assert a[5] / a[2] == pytest.approx(1 / 8)


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


def test_normalized_process_conventions(std_model, rng):
    y = simulate_normalized_at(std_model, 20, [0.0, 0.5, 1.0], 1, rng)[0]
    assert y[0] == 0.0  # Y_n(0) = 0
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)


def test_normalized_process_zero_population(rng):
    # no immigrant ever arrives, so Y_n is identically zero
    y = simulate_normalized_at(EnvironmentModel(rate_params=(1e-300,)), 4, [0.25, 1.0], 50, rng)
    assert np.all(y == 0.0)


def test_normalized_process_exact_ratio(monkeypatch):
    a, b = normalizers(flat_env(4, x=0.0, mu=2.0))
    assert np.allclose(b / a, 2.0 * np.arange(5))

    # force every cohort and the carried population to its mean, A Z = mu
    # and A Z = Z_prev: then e^{-S_k} Z_k = b_k and the normalized value is
    # exactly one. A cohort's mean is lambda = mu/(A+B) lines in every cell,
    # each leaving 1 + B/A descendants on average
    def lines_mean(lam, rng):
        rep, cell = np.indices(lam.shape).reshape(2, -1)
        return rep, cell, lam.ravel(), np.log(lam).ravel()

    def descendants_mean(lines, lines_log, ba_log, rng):
        return lines * (1.0 + np.exp(ba_log)), lines_log + np.logaddexp(0.0, ba_log)

    def carried_mean(c_lin, c_log, a_log, b_log, rng):
        return c_lin * np.exp(-a_log), c_log - a_log

    monkeypatch.setattr(bpire, "_cohort_lines", lines_mean)
    monkeypatch.setattr(bpire, "_descendants", descendants_mean)
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
    # both coordinates and their ratio, each at the 1/3 % two-sample
    # critical value, so that the three gates together fail 1% of seeds;
    # blocks of 48 replicas make each window span hundreds of blocks
    monkeypatch.setattr(bpire, "_BLOCK_CELLS", 2 ** 10)
    reps = 35_000
    crit = 1.789 * math.sqrt(2.0 / reps)
    closed_rng, lock_rng = (np.random.default_rng(seq)
                            for seq in np.random.SeedSequence(20260809).spawn(2))
    closed = simulate_normalized_at(std_model, 40, (0.5, 1.0), reps, closed_rng)
    # the lockstep draws each generation's step and rate as it reaches it,
    # and Y_n(t) = e^{-S_k} Z_k / b_k is read at k = floor(n t)
    walk = []  # (S_k, ln b_k) after each drawn generation

    def drawn_steps():
        s, b_log = np.zeros(reps), np.full(reps, -np.inf)
        while True:
            x_k = std_model.draw_x(lock_rng, reps)
            mu_k = np.asarray(std_model.draw_rate(lock_rng, reps), dtype=float)
            b_log = np.logaddexp(b_log, np.log(mu_k) - s)
            s = s + x_k
            walk.append((s, b_log))
            yield x_k, mu_k

    lock = []
    for k, (_, z_log, _) in enumerate(lockstep(drawn_steps(), 40, reps, lock_rng), 1):
        if k in (20, 40):
            s, b_log = walk[-1]
            lock.append(np.exp(z_log - s - b_log))
    lock = np.column_stack(lock)
    for j in range(2):
        assert ks_two_sample(closed[:, j], lock[:, j]).statistic <= crit
    # the ratio on the rows alive at the first time
    a, b = (y[y[:, 0] > 0.0, 1] / y[y[:, 0] > 0.0, 0] for y in (closed, lock))
    crit = 1.789 * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    assert ks_two_sample(a, b).statistic <= crit


def test_normalized_process_split_windows(std_model, rng, monkeypatch):
    # a horizon longer than _MAX_WINDOW is drawn in windows of at most that
    # many generations, and E Y_n(t) = 1 still holds across the splits
    widths = []
    window_cohorts = bpire._window_cohorts

    def spy(s_prev, x, rates, rng):
        widths.append(x.shape[1])
        return window_cohorts(s_prev, x, rates, rng)

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


def independent_cohorts_log(x, rate, reps, rng):
    """ln Z_k of the cohorts of one fixed window of steps ``x`` from
    S_0 = 0, each drawn on its own from the closed form."""
    # cohort i joins at generation i + 1: ln A_i = S_i - S_k, and
    # ln B_i = S_i + ln sum_{i<=j<k} e^{-S_j}
    k = len(x)
    s = np.concatenate([[0.0], np.cumsum(x)])
    a_log = s[:k] - s[k]
    b_log = s[:k] + np.logaddexp.accumulate(-s[k - 1::-1])[::-1]
    cohorts = np.full(reps, -np.inf)
    for i in range(k):
        cohorts = np.logaddexp(cohorts, cohort_log_values(np.full(reps, rate), a_log[i],
                                                          b_log[i], rng) - a_log[i])
    return cohorts


@pytest.mark.parametrize("walk, rate, k", [("normal", 2.0, 300), ("jumps", 2.0, 300),
                                           ("mixed", 2.0, 300), ("normal", 64.0, 300),
                                           ("normal", 2.0, 4)],
                         ids=["normal", "jumps", "mixed", "normal-dense", "normal-short"])
def test_window_matches_independent_cohorts(std_model, walk, rate, k):
    # on one fixed environment, Z_k of the window's superposed lines
    # against the sum of independent per-cohort draws of the closed form,
    # at the 0.1% two-sample critical value. k = 300 spans 435-replica
    # blocks; "mixed" alternates a normal and a +-800-jump environment
    # row by row, so each block holds rows summed in the linear domain
    # and rows summed in logs, and each environment is compared on its
    # own rows; at rate 64 a replica expects more lines than cells, so it
    # draws its cells directly; at k = 4, Z_k is a small count, so each
    # line's descendants show one by one. ln Z is compared at 6 decimals,
    # so the atoms at small counts match whatever the rounding of either
    # side.
    reps = 20_000
    window_rng, cohort_rng = (np.random.default_rng(seq)
                              for seq in np.random.SeedSequence(20261018).spawn(2))
    names = ("normal", "jumps") if walk == "mixed" else (walk,)
    envs = [(std_model if name == "normal" else _JumpModel()).draw_x(window_rng, k)
            for name in names]
    rows = np.arange(reps) % len(envs)
    _, _, _, window, _ = bpire._window_cohorts(
        np.zeros(reps), np.array(envs)[rows] if walk == "mixed"
        else np.broadcast_to(envs[0], (reps, k)), np.full((reps, k), rate), window_rng)
    for e, x in enumerate(envs):
        mine = window[rows == e]
        crit = 1.949 * math.sqrt(2.0 / len(mine))
        cohorts = independent_cohorts_log(x, rate, len(mine), cohort_rng)
        assert ks_two_sample(np.round(mine, 6), np.round(cohorts, 6)).statistic <= crit


def _log_domain_sums(s, rates):
    """The window sums of ``bpire._window_sums`` straight from their
    log-domain definitions: lambda, ln b_win, the suffix and ln B/A."""
    w = rates.shape[1]
    i, j = np.indices((w, w + 1))
    later = np.where(j >= i, 0.0, -np.inf)  # j = i..k
    # ln(A_i + B_i) = ln sum_{i<=j<=k} e^{S_i - S_j}
    # and ln B_i/A_i = ln sum_{i<=j<k} e^{S_k - S_j}
    apb_log = np.logaddexp.reduce(s[:, :w, None] - s[:, None, :] + later, axis=2)
    ba_log = np.logaddexp.reduce(s[:, w, None, None] - s[:, None, :w] + later[:, :w], axis=2)
    b_win = np.logaddexp.accumulate(np.log(rates) - s[:, :w], axis=1)[:, -1]
    suffix = np.logaddexp.accumulate(-s[:, :w], axis=1)[:, -1]
    return rates * np.exp(-apb_log), b_win, suffix, ba_log


def test_window_sums_match_log_domain():
    # the linear-domain sums of a block against their log-domain
    # definitions, on rows of normal steps (linear), +-800 jumps (summed
    # in logs), walk ranges just under and just over 660, and walks whose
    # last step is -100: with ordinary rates (linear, and Q_i << p_k, where
    # Q_i + p_k - p_k would lose Q_i) and with rates of 1e-300, whose
    # linear rate sum would underflow to 0 (summed in logs).
    # lambda is held to rtol 1e-12 (absolutely below 1e-300, where no line
    # is ever drawn) and the logs to 1e-12 absolute or relative, that is
    # the sums themselves to 1e-12 relative. The walks sit on a 2^-10
    # grid, so every difference S_i - S_j is exact on both sides.
    rng = np.random.default_rng(20261019)
    w = 40

    def walk(steps, start=0.0):
        s = np.zeros((len(steps), w + 1))
        s[:, :1] = start
        s[:, 1:] = steps
        return np.round(np.cumsum(s, axis=1) * 1024.0) / 1024.0

    normal = walk(rng.normal(0.0, 1.5, (30, w)), rng.normal(0.0, 5.0, (30, 1)))
    jumps = walk(800.0 * (rng.integers(0, 2, (30, w)) * 2 - 1))
    edge = walk(rng.normal(0.0, 1.0, (20, w)))
    # move each row's lowest point down to a range of 659.75 or 660.25
    low = edge.argmin(axis=1)
    edge[np.arange(20), low] = edge.max(axis=1) - np.repeat([659.75, 660.25], 10)
    drop = walk(np.column_stack([rng.normal(0.0, 1.0, (5, w - 1)), np.full(5, -100.0)]))
    s = np.concatenate([normal, jumps, edge, drop, drop])
    rates = np.exp(rng.uniform(-0.5, 1.4, (len(s), w)))
    rates[-5:] = 1e-300
    lam, b_win, suffix, ba, exact = bpire._window_sums(s, rates)
    want = _log_domain_sums(s, rates)
    np.testing.assert_allclose(lam, want[0], rtol=1e-12, atol=1e-300)
    for got, ref in zip((b_win, suffix, ba(*np.indices(lam.shape).reshape(2, -1))),
                        (want[1], want[2], want[3].ravel())):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    # only the rows over 660 and the rows of tiny rates are summed in logs
    wide = s.max(axis=1) - s.min(axis=1) > 660.0
    assert np.array_equal(wide, np.repeat([False, True, False, True, False], [30, 30, 10, 10, 10]))
    assert np.array_equal(exact, wide | (np.arange(len(s)) >= 85))


def test_saturation_error_exact_only(rng):
    env = flat_env(200, x=math.log(4.0), mu=2.0)  # strongly supercritical
    with pytest.raises(SaturationError):
        trajectory(env, 200, 1, rng, exact_only=True)


def test_hybrid_handles_supercritical_growth(rng):
    env = flat_env(300, x=math.log(4.0), mu=2.0)
    _, z_log, _ = trajectory(env, 300, 1, rng)
    expect = 300 * math.log(4.0)
    assert abs(z_log[0, 300] - expect) < 0.1 * expect


def test_hybrid_matches_exact_engine(std_model, rng, monkeypatch):
    # force the log-space branch at tiny populations and compare laws
    # against the exact integer engine on the same environment
    env = flat_env(12, x=0.05, mu=2.0)
    reps = 8000
    exact = trajectory(env, 12, reps, rng, exact_only=True)[0][:, 12]
    monkeypatch.setattr(bpire, "EXACT_CAP", 4)
    hybrid = trajectory(env, 12, reps, rng)[0][:, 12]
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
    # x + ln Gamma(c), at the 1/3 % one-sample critical value
    x, reps = 50.0, 70_000
    _, z_log = branch_generation(np.full(reps, c), np.full(reps, math.log(c)),
                                 np.full(reps, x), rng)
    ks = ks_against_cdf(z_log, lambda v: gammainc(c, np.exp(v - x)))
    assert ks.statistic <= 1.789 / math.sqrt(reps)


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
        s, _ = sample_conditioned_batch(std_model, n, "rejection", reps, rng, "positive")
        z_log = cohort_log_sizes(2.0, np.diff(s, axis=1).T, reps, rng)[-1]
        return np.exp(z_log - s[:, -1])

    ks = ks_two_sample(cohort_values(128), cohort_values(256))
    assert ks.statistic <= 0.05


def test_recentered_cohort_matches_martingale_limit(std_model, std_tables, rng):
    # the cohort joining one generation after the walk argmin, normalized
    # by e^{-(S_n - S_{tau+1})}, matches the martingale-limit law of the
    # two-sided environment's first forward cohort
    from bpire_lab.limit import _cohort_tails, sample_two_sided_batch

    n, reps, off = 512, 3000, 1
    x = std_model.draw_x(rng, (reps, n))
    mu = np.asarray(std_model.draw_rate(rng, (reps, n)))
    s = np.concatenate([np.zeros((reps, 1)), np.cumsum(x, axis=1)], axis=1)
    tau = np.argmin(s, axis=1)
    cohort = np.minimum(tau + off, n)
    keep = cohort <= n - 1
    # only the cohort's immigrants join, at generation cohort + 1
    rates = np.where(np.arange(n)[:, None] == cohort, mu.T, 0.0)
    for _, z_log, _ in lockstep(zip(x.T, rates), n, reps, rng):
        pass
    pre = np.where(np.isfinite(z_log),
                   np.exp(z_log - (s[:, n] - s[np.arange(reps), cohort])), 0.0)[keep]

    sides = sample_two_sided_batch(std_model, 2, reps, rng, std_tables, pos_extra=70)
    s_i, mu, t_log = _cohort_tails(std_model, *sides, 2, 64)
    c = 2 + off  # column of cohort i = off among i = -2..1
    lim = np.exp(limit_log_values(mu[:, c], t_log[:, c] + s_i[:, c], rng))
    assert ks_two_sample(pre, lim).statistic <= 0.06


def test_trajectory_csv_export(std_model, rng, tmp_path):
    # trajectories go to CSV through the generic figure-data writer
    n = 8
    steps = drawn_env(std_model, n, rng)
    z = trajectory(steps, n, 1, rng)[0]
    s, b_log = compute_normalizers(*steps)
    path = write_csv(str(tmp_path), "traj.csv", {
        "k": np.arange(n + 1), "z": z[0], "s": s, "a": np.exp(-s), "b": np.exp(b_log),
    }, {"horizon": n})
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "k,z,s,a,b"
    assert len(lines) == 2 + 9
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[3]) == 1.0 and float(first[4]) == 0.0


def test_env_length_validation(std_model, rng):
    steps = drawn_env(std_model, 5, rng)
    with pytest.raises(ValueError):
        trajectory(steps, 6, 1, rng)


def test_simulate_normalized_at_mean(std_model, rng):
    # E Y_n(t) = 1 exactly, by the conditional mean identity
    y = simulate_normalized_at(std_model, 300, (1.0,), 4000, rng)
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - 1.0) <= 4.0 * se
