"""Experiment orchestration: the verification subcommands.

Each subcommand draws from named streams derived from the master seed,
splits replica work into fixed-size blocks, and reduces block results in
block order, so report content is a pure function of the configuration
regardless of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bpire import (
    cohort_log_sizes,
    compute_normalizers,
    simulate_bpire,
    simulate_normalized_at,
)
from .conditioned import sample_conditioned_batch
from .config import RunConfig
from .env import EnvSteps, validate_model
from .ladder import estimate_ladder_tables, save_ladder_tables
from .limit import (
    estimate_level_change_prob,
    sample_gamma_batch,
    sample_two_sided_batch,
    series_terms,
)
from .report import VERSION, Report, TestRecord, write_csv
from .stats import ecdf, joint_two_time_test, ks_against_cdf, ks_two_sample
from .streams import derive_block_stream, derive_stream
from .walk import arcsine_cdf, normalizer, simulate_walk_matrix

_WORK_BLOCK = 2500

SUBCOMMANDS = (
    "validate-env",
    "walk-stats",
    "arcsine",
    "measure-change",
    "lemma1",
    "lemma5",
    "lemma7",
    "martingale",
    "gamma-dist",
    "theorem1-onedim",
    "theorem1-twodim",
    "all",
)


# ---------------------------------------------------------------------------
# block workers (module level so process pools can pickle them)

def _run_block(task):
    fn, master_seed, stream_name, block_index, count, args = task
    rng = derive_block_stream(master_seed, block_index, stream_name)
    return fn(count, rng, *args)


def _map_blocks(fn, total, cfg: RunConfig, stream_name: str, *args):
    """Run ``fn(count, rng, *args)`` over fixed replica blocks, in order."""
    edges = list(range(0, total, _WORK_BLOCK)) + [total]
    tasks = [
        (fn, cfg.master_seed, stream_name, bi, hi - lo, args)
        for bi, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        if hi > lo
    ]
    if cfg.workers <= 1:
        return [_run_block(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(_run_block, tasks))


def _cat(parts, key=None):
    if key is None:
        return np.concatenate(parts)
    return np.concatenate([p[key] for p in parts])


def _sigma_distance(mean: float, se: float, target: float) -> float:
    """|mean-target| in standard errors; infinite for a degenerate sample
    off target (an honest failure: the identity's mass sits on paths too
    rare to observe)."""
    if se > 0:
        return abs(mean - target) / se
    return 0.0 if mean == target else float("inf")


def _terminal_block(count, rng, model, n):
    return simulate_walk_matrix(model, n, count, rng)[:, -1]


def _argmin_frac_block(count, rng, model, n):
    s = simulate_walk_matrix(model, n, count, rng)
    return np.argmin(s, axis=1) / n


def _recentered_block(count, rng, model, n, offsets):
    s = simulate_walk_matrix(model, n, count, rng)
    tau = np.argmin(s, axis=1)
    rows = np.arange(count)
    smin = s[rows, tau]
    out = {}
    for i in offsets:
        k = tau + i
        valid = (k >= 0) & (k <= n)
        out[i] = s[rows[valid], k[valid]] - smin[valid]
    return out


def _cond_series_block(count, rng, model, n, side):
    """Pre-limit series of the conditioned walk (rejection, exact)."""
    batch = sample_conditioned_batch(model, n, "rejection", count, rng, side)
    mu = np.asarray(model.draw_rate(rng, (count, n)), dtype=float)
    if side == "positive":
        # sum_{i=0}^{n-1} mu_{i+1} e^{-S_i}
        return (mu * np.exp(-batch.s[:, :n])).sum(axis=1)
    # sum_{i=1}^{n-1} mu_i e^{S_i}
    return (mu[:, : n - 1] * np.exp(batch.s[:, 1:n])).sum(axis=1)


def _ratio_block(count, rng, model, n, i):
    """Pre-limit normalizer ratios recentered at the walk argmin."""
    x = model.draw_x(rng, (count, n))
    mu = np.asarray(model.draw_rate(rng, (count, n)), dtype=float)
    s = np.concatenate([np.zeros((count, 1)), np.cumsum(x, axis=1)], axis=1)
    terms = np.log(mu) - s[:, :n]
    b_log = np.concatenate(
        [np.full((count, 1), -np.inf), np.logaddexp.accumulate(terms, axis=1)],
        axis=1,
    )
    a_log = -s
    tau = np.argmin(s, axis=1)
    valid = (tau - i >= 0) & (tau + i <= n)
    rows = np.arange(count)[valid]
    t = tau[valid]
    bn = b_log[rows, n]
    return {
        "tail_after": 1.0 - np.exp(b_log[rows, t + i] - bn),
        "head_before": np.exp(b_log[rows, t - i] - bn),
        "a_after": np.exp(a_log[rows, t + i] - bn),
        "a_before": np.exp(a_log[rows, t - i] - bn),
    }


def _band_block(count, rng, model, k1, k2):
    """|min over [0,k1] - min over [k1,k2]| of the free walk."""
    s = simulate_walk_matrix(model, k2, count, rng)
    l1 = s[:, : k1 + 1].min(axis=1)
    l12 = s[:, k1: k2 + 1].min(axis=1)
    return np.abs(l1 - l12)


def _ynorm_block(count, rng, model, n, ts):
    return simulate_normalized_at(model, n, ts, count, rng)


def _gamma_block(count, rng, model, I, J, method, tables, face):
    g = sample_gamma_batch(model, I, J, method, count, rng, tables, face)
    return {"sigma1": g.sigma1, "sigma2": g.sigma2, "gamma": g.gamma}


def _cohort_block(count, rng, x_steps, mu_start):
    """ln Z_{0,k} of the first cohort, one row per generation k."""
    return cohort_log_sizes(mu_start, x_steps, count, rng)


def _population_block(count, rng, env, n):
    """Population sizes Z_k under a fixed environment, one row per k."""
    return simulate_bpire(env, n, count, rng).z.T.copy()


# ---------------------------------------------------------------------------
# runner

class Runner:
    """Shared resources plus one method per subcommand."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.model = cfg.model()
        self.spec = cfg.spec()
        self._tables = None
        self._gamma_cache: dict = {}

    # -- shared resources ---------------------------------------------------

    @property
    def tables(self):
        if self._tables is None:
            rng = derive_stream(self.cfg.master_seed, 0, "ladder-tables")
            self._tables = estimate_ladder_tables(
                self.model, rng, budget=self.cfg.ladder_budget)
        return self._tables

    def gamma_sample(self, I: int, J: int, reps: int) -> dict:
        key = (I, J, reps)
        if key not in self._gamma_cache:
            parts = _map_blocks(
                _gamma_block, reps, self.cfg, f"gamma/{I}/{J}",
                self.model, I, J, "rejection", self.tables, "tilt",
            )
            self._gamma_cache[key] = {
                k: _cat(parts, k) for k in ("sigma1", "sigma2", "gamma")
            }
        return self._gamma_cache[key]

    def _record(self, name, statistic, threshold, verdict, replicas, **inputs):
        return TestRecord(
            name=name,
            statistic=None if statistic is None else float(statistic),
            threshold=None if threshold is None else float(threshold),
            verdict=verdict,
            seed=self.cfg.master_seed,
            replicas=int(replicas),
            inputs=inputs,
        )

    def _prov(self, subcommand: str, **extra) -> dict:
        prov = {"subcommand": subcommand, "version": VERSION,
                "seed": self.cfg.master_seed, "x_family": self.cfg.x_family}
        prov.update(extra)
        return prov

    def _ecdf_csv(self, name: str, samples: dict, prov: dict, points: int = 512):
        """One CSV comparing ECDFs on a common quantile grid."""
        first = next(iter(samples.values()))
        base = ecdf(first[0], first[1])
        qs = np.linspace(0.0, 1.0, points, endpoint=False) + 1.0 / (2 * points)
        grid = base.quantile(qs)
        cols = {"x": grid}
        for label, (values, weights) in samples.items():
            cols[label] = ecdf(values, weights).evaluate(grid)
        write_csv(self.cfg.out_dir, name, cols, prov)

    # -- subcommands ----------------------------------------------------------

    def run_validate_env(self):
        report = validate_model(self.model)
        records = []
        for c in report.checks:
            rec = self._record(f"validate-env/{c.name}", None, None, c.passed, 0)
            rec.detail = c.detail
            records.append(rec)
        return records

    def run_walk_stats(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["walk_stats"]
        sn = _cat(_map_blocks(_terminal_block, reps, cfg, "walk-stats",
                              self.model, n))
        frac = float(np.mean(sn > 0))
        records = [self._record(
            "walk-stats/sign-fraction", abs(frac - cfg.rho), 0.03,
            abs(frac - cfg.rho) <= 0.03, reps, n=n, fraction=frac,
        )]
        if cfg.x_family == "normal":
            from scipy.stats import norm
            scaled = sn / (cfg.x_param * np.sqrt(n))
            ks = ks_against_cdf(scaled, norm.cdf, threshold=0.02)
            records.append(self._record(
                "walk-stats/terminal-ks-normal", ks.statistic, ks.threshold,
                ks.passed, reps, n=n,
            ))
        else:
            from .limit import stable_standard
            rng = derive_stream(cfg.master_seed, 0, "walk-stats-stable-ref")
            ref = stable_standard(cfg.alpha, cfg.rho, reps, rng)
            scaled = sn / normalizer(self.spec, n)
            ks = ks_two_sample(scaled, ref, threshold=0.04)
            records.append(self._record(
                "walk-stats/terminal-ks-stable", ks.statistic, ks.threshold,
                ks.passed, reps, n=n,
            ))
        return records

    def run_arcsine(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["arcsine"]
        vals = _cat(_map_blocks(_argmin_frac_block, reps, cfg, "arcsine",
                                self.model, n))
        ks = ks_against_cdf(vals, lambda x: arcsine_cdf(cfg.rho, x), threshold=0.03)
        xs = np.sort(vals)[:: max(1, reps // 2048)]
        write_csv(self.cfg.out_dir, "arcsine_ecdf.csv", {
            "x": xs,
            "empirical": ecdf(vals).evaluate(xs),
            "model": arcsine_cdf(cfg.rho, xs),
        }, self._prov("arcsine", n=n, replicas=reps))
        return [self._record("arcsine/ks", ks.statistic, 0.03, ks.passed,
                             reps, n=n)]

    def run_measure_change(self):
        cfg = self.cfg
        n = cfg.n_small
        reps = cfg.replicas["measure_change"]
        records = []
        for side in ("positive", "negative"):
            rej = sample_conditioned_batch(
                self.model, n, "rejection", reps,
                derive_stream(cfg.master_seed, 0, f"mc-rejection-{side}"),
                side, self.tables)
            hfl = sample_conditioned_batch(
                self.model, n, "h-transform", reps,
                derive_stream(cfg.master_seed, 0, f"mc-htransform-{side}"),
                side, self.tables)
            ks_cond = ks_two_sample(rej.terminal, hfl.terminal,
                                    None, hfl.cond_weights, threshold=0.05)
            ks_tilt = ks_two_sample(rej.terminal, hfl.terminal,
                                    rej.tilt_weights, None, threshold=0.05)
            records.append(self._record(
                f"measure-change/{side}/conditional-face", ks_cond.statistic,
                0.05, ks_cond.passed, reps, n=n))
            records.append(self._record(
                f"measure-change/{side}/reweighted-face", ks_tilt.statistic,
                0.05, ks_tilt.passed, reps, n=n))
            self._ecdf_csv(f"measure_change_{side}.csv", {
                "rejection": (rej.terminal, None),
                "htransform": (hfl.terminal, hfl.cond_weights),
            }, self._prov("measure-change", side=side, n=n, replicas=reps))
        return records

    def run_lemma1(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["lemma1"]
        offsets = [int(i) for i in cfg.lemma_offsets]
        pre_parts = _map_blocks(_recentered_block, reps, cfg, "lemma1-pre",
                                self.model, n, tuple(offsets))
        env = sample_two_sided_batch(
            self.model, cfg.trunc_i, "rejection", reps,
            derive_stream(cfg.master_seed, 0, "lemma1-limit"),
            self.tables, face="tilt")
        records = []
        for i in offsets:
            pre = _cat(pre_parts, i)
            lim = env.s_star(i)
            ks = ks_two_sample(pre, lim, threshold=0.06)
            records.append(self._record(
                f"lemma1/offset{i:+d}", ks.statistic, 0.06, ks.passed, reps,
                n=n, trunc_i=cfg.trunc_i, kept=len(pre)))
            self._ecdf_csv(f"lemma1_offset{i:+d}.csv", {
                "pre_limit": (pre, None), "limit": (lim, None),
            }, self._prov("lemma1", offset=i, n=n, replicas=reps))
        return records

    def run_lemma5(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["lemma5"]
        trunc = cfg.series_trunc
        env = sample_two_sided_batch(
            self.model, trunc, "rejection", reps,
            derive_stream(cfg.master_seed, 0, "lemma5-limit"),
            self.tables, face="tilt")
        pos_terms, neg_terms = series_terms(env, trunc)
        records = []
        for side, label, lim in (
            ("positive", "eq-positive", pos_terms.sum(axis=1)),
            ("negative", "eq-negative", neg_terms.sum(axis=1)),
        ):
            pre = _cat(_map_blocks(_cond_series_block, reps, cfg,
                                   f"lemma5-pre-{side}", self.model, n, side))
            ks = ks_two_sample(pre, lim, threshold=0.06)
            records.append(self._record(
                f"lemma5/{label}", ks.statistic, 0.06, ks.passed, reps,
                n=n, series_trunc=trunc))
            self._ecdf_csv(f"lemma5_{side}.csv", {
                "pre_limit": (pre, None), "limit": (lim, None),
            }, self._prov("lemma5", side=side, n=n, replicas=reps))
        return records

    def run_lemma7(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["lemma7"]
        i = 1
        trunc = cfg.series_trunc
        pre_parts = _map_blocks(_ratio_block, reps, cfg, "lemma7-pre",
                                self.model, n, i)
        env = sample_two_sided_batch(
            self.model, trunc, "rejection", reps,
            derive_stream(cfg.master_seed, 0, "lemma7-limit"),
            self.tables, face="tilt")
        pos_terms, neg_terms = series_terms(env, trunc)
        sigma1 = pos_terms.sum(axis=1) + neg_terms.sum(axis=1)
        limits = {
            "tail_after": pos_terms[:, i:].sum(axis=1) / sigma1,
            "head_before": neg_terms[:, i:].sum(axis=1) / sigma1,
            "a_after": np.exp(-env.s_pos[:, i]) / sigma1,
            "a_before": np.exp(env.s_neg[:, i]) / sigma1,
        }
        records = []
        for key, lim in limits.items():
            pre = _cat(pre_parts, key)
            ks = ks_two_sample(pre, lim, threshold=0.06)
            records.append(self._record(
                f"lemma7/{key}", ks.statistic, 0.06, ks.passed, reps,
                n=n, offset=i, series_trunc=trunc))
            self._ecdf_csv(f"lemma7_{key}.csv", {
                "pre_limit": (pre, None), "limit": (lim, None),
            }, self._prov("lemma7", ratio=key, n=n, replicas=reps))
        return records

    def _fixed_envs(self):
        rng = derive_stream(self.cfg.master_seed, 0, "martingale-env")
        drawn_x = self.model.draw_x(rng, 20)
        drawn_mu = np.asarray(self.model.draw_rate(rng, 20), dtype=float)
        return {
            "flat-critical": EnvSteps(x=np.zeros(20), mu=np.full(20, 2.0)),
            "alternating": EnvSteps(x=0.3 * (-1.0) ** np.arange(20),
                                    mu=np.full(20, 1.5)),
            "drawn": EnvSteps(x=drawn_x, mu=drawn_mu),
        }

    def run_martingale(self):
        cfg = self.cfg
        reps = cfg.replicas["martingale"]
        depths = (1, 5, 20)
        ks = (1, 3, 10)
        records = []
        rows = []
        for label, env in self._fixed_envs().items():
            norms = compute_normalizers(env)
            z_log = np.concatenate(_map_blocks(
                _cohort_block, reps, cfg, f"martingale-cohort-{label}",
                env.x[:max(depths)], float(env.mu[0])), axis=1)
            s = np.cumsum(env.x)
            for depth in depths:
                zl = z_log[depth - 1]
                vals = np.where(np.isfinite(zl), np.exp(zl - s[depth - 1]), 0.0)
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
                target = float(env.mu[0])
                stat = _sigma_distance(mean, se, target)
                records.append(self._record(
                    f"martingale/{label}/depth{depth}", stat, 3.0, stat <= 3.0,
                    reps, mean=mean, se=se, target=target))
                rows.append((label, "martingale", depth, mean, se, target))
            z = np.concatenate(_map_blocks(
                _population_block, reps, cfg, f"martingale-mean-{label}",
                env, max(ks)), axis=1)
            for k in ks:
                vals = z[k]
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
                target = float(norms.b[k] / norms.a[k])
                stat = _sigma_distance(mean, se, target)
                records.append(self._record(
                    f"conditional-mean/{label}/k{k}", stat, 3.0, stat <= 3.0,
                    reps, mean=mean, se=se, target=target))
                rows.append((label, "conditional-mean", k, mean, se, target))
        write_csv(cfg.out_dir, "martingale_means.csv", {
            "environment": [r[0] for r in rows],
            "check": [r[1] for r in rows],
            "generation": [r[2] for r in rows],
            "mc_mean": [r[3] for r in rows],
            "mc_se": [r[4] for r in rows],
            "target": [r[5] for r in rows],
        }, self._prov("martingale", replicas=reps))
        return records

    def run_gamma_dist(self):
        cfg = self.cfg
        reps = cfg.replicas["gamma"]
        base = self.gamma_sample(cfg.trunc_i, cfg.trunc_j, reps)
        doubled = self.gamma_sample(2 * cfg.trunc_i, 2 * cfg.trunc_j, reps)
        ks = ks_two_sample(base["gamma"], doubled["gamma"], threshold=0.05)
        min_sigma1 = float(min(base["sigma1"].min(), doubled["sigma1"].min()))
        records = [
            self._record("gamma-dist/truncation-stability", ks.statistic, 0.05,
                         ks.passed, reps, trunc_i=cfg.trunc_i,
                         trunc_j=cfg.trunc_j),
            self._record("gamma-dist/sigma1-positive", min_sigma1, None,
                         min_sigma1 > 0.0, reps),
        ]
        self._ecdf_csv("gamma_ecdf.csv", {
            "base": (base["gamma"], None),
            "doubled": (doubled["gamma"], None),
        }, self._prov("gamma-dist", trunc_i=cfg.trunc_i, trunc_j=cfg.trunc_j,
                      replicas=reps))
        return records

    def run_theorem1_onedim(self):
        cfg = self.cfg
        reps = cfg.replicas["onedim"]
        gamma = self.gamma_sample(cfg.trunc_i, cfg.trunc_j,
                                  cfg.replicas["gamma"])["gamma"]
        stats = []
        records = []
        csv_cols = {}
        for n in cfg.horizons:
            y = _cat([p[:, 0] for p in _map_blocks(
                _ynorm_block, reps, cfg, f"onedim-{n}", self.model, n, (1.0,))])
            ks = ks_two_sample(y, gamma)
            stats.append(ks.statistic)
            records.append(self._record(
                f"theorem1-onedim/ks-n{n}", ks.statistic,
                0.08 if n == cfg.horizons[-1] else None,
                ks.statistic <= 0.08 if n == cfg.horizons[-1] else None,
                reps, n=n))
            csv_cols[f"y_n{n}"] = (y, None)
        monotone = all(b <= a + 0.01 for a, b in zip(stats, stats[1:]))
        records.append(self._record(
            "theorem1-onedim/ks-monotone", None, None, monotone, reps,
            ks_values=stats, slack=0.01))
        csv_cols["gamma_ref"] = (gamma, None)
        self._ecdf_csv("theorem1_onedim_ecdf.csv", csv_cols,
                       self._prov("theorem1-onedim", horizons=list(cfg.horizons),
                                  replicas=reps))
        return records

    def run_theorem1_twodim(self):
        cfg = self.cfg
        reps = cfg.replicas["twodim"]
        t1, t2 = float(cfg.t_values[0]), float(cfg.t_values[1])
        n = int(cfg.horizons[-1])
        gamma = self.gamma_sample(cfg.trunc_i, cfg.trunc_j,
                                  cfg.replicas["gamma"])["gamma"]

        p_hat = estimate_level_change_prob(
            cfg.alpha, cfg.rho, t1, t2, cfg.delta(),
            cfg.replicas["level_change"],
            derive_stream(cfg.master_seed, 0, "levy-level"))
        p_exact = 1.0 - arcsine_cdf(cfg.rho, t1 / t2)
        records = [self._record(
            "theorem1-twodim/level-change-prob", abs(p_hat - p_exact), 0.03,
            abs(p_hat - p_exact) <= 0.03, cfg.replicas["level_change"],
            estimate=p_hat, analytic=p_exact, t1=t1, t2=t2)]

        yparts = _map_blocks(_ynorm_block, reps, cfg, "twodim-y",
                             self.model, n, (t1, t2))
        y = np.concatenate(yparts, axis=0)
        jt = joint_two_time_test(y[:, 0], y[:, 1], gamma, p_hat, threshold=0.05)
        records.append(self._record(
            "theorem1-twodim/joint-mixture", jt.max_discrepancy, 0.05,
            jt.passed, reps, n=n, level_change_prob=p_hat))
        write_csv(cfg.out_dir, "theorem1_twodim_probes.csv", {
            "x1": jt.probes[:, 0], "x2": jt.probes[:, 1],
            "predicted": jt.predicted, "observed": jt.observed,
        }, self._prov("theorem1-twodim", n=n, replicas=reps))

        # near-tie band of the two-segment minima under the walk scaling
        n_band = cfg.n_walk
        k1 = int(np.floor(n_band * t1))
        k2 = int(np.floor(n_band * t2))
        diffs = _cat(_map_blocks(_band_block, cfg.replicas["band"], cfg, "band",
                                 self.model, k1, k2))
        c_n = normalizer(self.spec, n_band)
        fracs = [float(np.mean(diffs <= e * c_n)) for e in cfg.band_eps]
        decreasing = all(b <= a for a, b in zip(fracs, fracs[1:]))
        records.append(self._record(
            "theorem1-twodim/band-fraction", fracs[-1], 0.05,
            fracs[-1] <= 0.05 and decreasing, cfg.replicas["band"],
            eps=list(cfg.band_eps), fractions=fracs, n=n_band,
            decreasing=decreasing))
        write_csv(cfg.out_dir, "band_fractions.csv", {
            "eps": list(cfg.band_eps), "fraction": fracs,
        }, self._prov("theorem1-twodim", n=n_band,
                      replicas=cfg.replicas["band"]))
        return records

    def run_all(self):
        records = []
        for name in SUBCOMMANDS[:-1]:
            records.extend(self.dispatch(name))
        return records

    def dispatch(self, subcommand: str):
        if subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {subcommand!r}")
        return getattr(self, "run_" + subcommand.replace("-", "_"))()


def run(subcommand: str, cfg: RunConfig) -> Report:
    """Execute one subcommand and write report plus CSV artifacts."""
    import os

    runner = Runner(cfg)
    # the echo omits execution-only fields so reports are byte-identical
    # across worker counts and output locations
    echo = {k: v for k, v in cfg.to_dict().items()
            if k not in ("workers", "out_dir")}
    report = Report(subcommand=subcommand, config=echo)
    report.extend(runner.dispatch(subcommand))
    if runner._tables is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        save_ladder_tables(runner.tables,
                           os.path.join(cfg.out_dir, "ladder_tables.txt"))
    report.write(cfg.out_dir)
    return report
