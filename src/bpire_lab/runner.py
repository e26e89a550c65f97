"""Experiment orchestration: the verification subcommands.

Each subcommand draws from named streams derived from the master seed,
splits replica work into fixed-size blocks, and joins block results in
block order (``_join``: per key for dicts, along the last axis for
arrays), so report content is a pure function of the configuration
regardless of the worker count. Every gate lives here: the samplers and
statistics return plain values, and one rule (``Runner._record``) turns
a statistic and its gate into each record's verdict. Four samples are
drawn once per run and shared: the free walks (walk-stats, arcsine,
lemma1), the gamma sample (gamma-dist, theorem1-onedim,
theorem1-twodim), the pre-limit process Y of theorem 1
(theorem1-onedim, theorem1-twodim) and the series sample of the
two-sided limit environment (lemma5, lemma7). The series sample is
drawn whole in the main process, not in blocks: each side resamples its
rejection paths by tilt weight within the pool it is given, and
splitting the pool concentrates the weight on fewer paths. Like
lemma1's limit environment, it is read one side at a time: each side is
reduced to its per-row reads and dropped before the next side is drawn,
so the process holds one side's paths at a time.

With more than one worker, the runner opens one process pool the first
time a check needs it and shuts it down before ``dispatch`` returns, so
no worker outlives its check (pending blocks are cancelled when the check
raises). A check submits all of its blocks first and gathers them after
its own main-process draws (the series sample, the lemma-1 limit
environment, the Lévy level, the stable reference of walk-stats), so
these draws overlap the workers. With one worker the blocks run in this
process when gathered. The ladder table's walker blocks after the first
use the pool too (``Runner._submit``), while this process draws block
0: inside a check they borrow its pool, and read outside any check (as
the benchmark battery reads it, before the first ``dispatch``) the
table is built as a check of its own, whose pool is shut down before
``tables`` returns. A table of one block submits nothing, so it forks
no worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .bpire import (
    _join,
    _row_groups,
    _window_cohorts,
    cohort_log_values,
    compute_normalizers,
    simulate_normalized_at,
)
from .conditioned import sample_conditioned_batch
from .config import RunConfig
from .env import validate_model
from .ladder import estimate_ladder_tables, save_ladder_tables
from .limit import (
    estimate_level_change_prob,
    sample_gamma_batch,
    sample_side,
    series_sums,
    stable_standard,
)
from .report import VERSION, Report, TestRecord, write_csv
from .stats import ecdf, joint_two_time_test, ks_against_cdf, ks_two_sample
from .streams import derive_block_stream, derive_stream
from .walk import arcsine_cdf, simulate_walk_matrix

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
    fn, rng, count, args = task
    return fn(count, rng, *args)


def _sigma_distance(mean: float, se: float, target: float) -> float:
    """|mean-target| in standard errors; infinite for a degenerate sample
    off target (an honest failure: the identity's mass sits on paths too
    rare to observe)."""
    if se > 0:
        return abs(mean - target) / se
    return 0.0 if mean == target else float("inf")


def _walk_groups(model, n, count, rng):
    """``count`` free walks S_0..S_n in row groups of about ``_BLOCK_CELLS``
    cells, drawn row-major so the draws match one ``count``-row matrix."""
    for lo, hi in _row_groups(n + 1, count):
        yield simulate_walk_matrix(model, n, hi - lo, rng)


def _free_walk_block(count, rng, model, n, offsets):
    """S_n, the first argmin tau over n, and per offset i the recentered
    value S_{tau+i} - S_tau of the rows where tau + i lies in [0, n]."""
    parts = []
    for s in _walk_groups(model, n, count, rng):
        tau = np.argmin(s, axis=1)
        # a copy, so that the part does not keep the group's matrix alive
        part = {"terminal": s[:, -1].copy(), "argmin_frac": tau / n}
        for i in offsets:
            rows = np.flatnonzero((tau + i >= 0) & (tau + i <= n))
            part[i] = s[rows, tau[rows] + i] - s[rows, tau[rows]]
        parts.append(part)
    return _join(parts)


def _cond_series_block(count, rng, model, n, side):
    """Pre-limit series of the conditioned walk (rejection, exact), summed
    over the batch's own paths S* (S on the positive side, -S on the
    negative one) by the limit's series rule: positive,
    sum_{i=0}^{n-1} mu_{i+1} e^{-S*_i}; negative,
    sum_{i=1}^{n-1} mu_i e^{-S*_i}."""
    s = sample_conditioned_batch(model, n, "rejection", count, rng, side)[0]
    mu = model.draw_rate(rng, (count, n))
    if side == "positive":
        return series_sums(s, mu)[0]
    return series_sums(s[:, 1:], mu[:, :n - 1])[0]


def _ratio_block(count, rng, model, n, i):
    """Pre-limit normalizer ratios recentered at the walk argmin, drawn in
    row groups of about ``_BLOCK_CELLS`` cells: each group's steps, then
    its rates."""
    parts = []
    for lo, hi in _row_groups(n + 1, count):
        s, b_log = compute_normalizers(model.draw_x(rng, (hi - lo, n)),
                                       model.draw_rate(rng, (hi - lo, n)))
        tau = np.argmin(s, axis=1)
        rows = np.flatnonzero((tau - i >= 0) & (tau + i <= n))
        t = tau[rows]
        bn = b_log[rows, n]
        parts.append({
            "tail_after": 1.0 - np.exp(b_log[rows, t + i] - bn),
            "head_before": np.exp(b_log[rows, t - i] - bn),
            "a_after": np.exp(-s[rows, t + i] - bn),
            "a_before": np.exp(-s[rows, t - i] - bn),
        })
    return _join(parts)


def _band_block(count, rng, model, k1, k2):
    """|min over [0,k1] - min over [k1,k2]| of the free walk."""
    return _join([np.abs(s[:, : k1 + 1].min(axis=1) - s[:, k1: k2 + 1].min(axis=1))
                  for s in _walk_groups(model, k2, count, rng)])


def _ynorm_block(count, rng, model, gens):
    """Y at each of the generations ``gens``, keyed by generation, from one
    pass (n = 1, so each t is its generation exactly)."""
    y = simulate_normalized_at(model, 1, gens, count, rng)
    return dict(zip(gens, y.T))


def _twodim_gens(cfg):
    """The generations floor(N t), t in ``t_values``, at which
    theorem1-twodim reads Y, N = ``horizons[-1]``."""
    return [int(np.floor(cfg.horizons[-1] * t)) for t in cfg.t_values]


def _gamma_block(count, rng, model, I, J, tables):
    return sample_gamma_batch(model, I, J, reps=count, rng=rng, tables=tables)


def _cohort_value_block(count, rng, mu, a_log, b_log):
    """Cohort martingale values A·Z of Poisson(``mu``) immigrants under the
    composed laws (``a_log``, ``b_log``), one row per depth."""
    mu = np.full((len(a_log), count), mu)
    return np.exp(cohort_log_values(mu, a_log[:, None], b_log[:, None], rng))


def _population_at_block(count, rng, x, mu, ks):
    """Population sizes Z_k from Z_0 = 0 under the fixed environment
    (``x``, ``mu``), one row per k, each drawn as the sum of its immigrant
    cohorts."""
    return np.array([
        _window_cohorts(np.zeros(count), np.broadcast_to(x[:k], (count, k)),
                        np.broadcast_to(mu[:k], (count, k)), rng)[2]
        for k in ks
    ])


# ---------------------------------------------------------------------------
# runner

class Runner:
    """Shared resources plus one method per subcommand."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.model = cfg.model()
        self._tables = None
        # the four shared samples by key: joined dicts, or the gathers of
        # submitted blocks until their first read
        self._samples: dict = {}
        self._pool = None  # the current check's process pool
        self._checking = False  # inside a check: it owns the pool

    # -- shared resources ---------------------------------------------------

    @property
    def tables(self):
        """The run's ladder table, built at the first read. Its walker
        blocks after the first go to the check's pool; read outside a
        check, the build is a check of its own, so a pool it opens is shut
        down before the table is returned."""
        if self._tables is None:
            build = partial(estimate_ladder_tables, self.model, self._stream("ladder-tables"),
                            budget=self.cfg.ladder_budget, submit=self._submit)
            self._tables = build() if self._checking else self._check(build)
        return self._tables

    def _stream(self, name):
        """The run's stream ``name``, for draws made whole in this process."""
        return derive_stream(self.cfg.master_seed, 0, name)

    def _submit(self, tasks):
        """Submit block tasks ``(fn, rng, count, args)`` to the check's pool,
        opened at the first submit; returns a callable giving each
        ``fn(count, rng, *args)`` in task order. With one worker the tasks
        run in this process when the callable is called."""
        if self.cfg.workers <= 1:
            return lambda: [_run_block(t) for t in tasks]
        if self._pool is None:
            # the pool forks all of its workers at the first submit, so it
            # asks for no more than the CPUs this process may run on
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            self._pool = ProcessPoolExecutor(max_workers=min(self.cfg.workers, cpus))
        futures = [self._pool.submit(_run_block, t) for t in tasks]
        return lambda: [f.result() for f in futures]

    def _blocks(self, fn, total, stream_name, *args):
        """Submit ``fn(count, rng, *args)`` over fixed replica blocks, block
        b on its own stream; returns a callable giving the block results
        joined in block order."""
        gather = self._submit([(fn, derive_block_stream(self.cfg.master_seed, bi, stream_name),
                                min(_WORK_BLOCK, total - lo), args)
                               for bi, lo in enumerate(range(0, total, _WORK_BLOCK))])
        return lambda: _join(gather())

    def _shared_sample(self, key, fn, total, stream_name, *args):
        """A callable giving the joined block results of ``fn``. The blocks
        are submitted at the first request and joined at the first call,
        once per run."""
        if key not in self._samples:
            self._samples[key] = self._blocks(fn, total, stream_name, *args)

        def joined() -> dict:
            if callable(self._samples[key]):
                self._samples[key] = self._samples[key]()
            return self._samples[key]
        return joined

    def free_walks(self):
        """The ``replicas.walk_stats`` free walks of ``n_walk`` steps that
        walk-stats, arcsine and lemma1 read."""
        cfg = self.cfg
        return self._shared_sample(
            "free-walks", _free_walk_block, cfg.replicas["walk_stats"], "walk-stats",
            self.model, cfg.n_walk, tuple(cfg.lemma_offsets))

    def gamma_sample(self, I: int, J: int, reps: int):
        return self._shared_sample((I, J, reps), _gamma_block, reps, f"gamma/{I}/{J}",
                                   self.model, I, J, self.tables)

    def theorem1_sample(self, reps: int):
        """``reps`` paths of Y by generation, at every horizon and at
        floor(N t) for t in ``t_values``, N = ``horizons[-1]``: the onedim
        horizons and the twodim times of theorem 1 read one pass."""
        cfg = self.cfg
        gens = {*cfg.horizons, *_twodim_gens(cfg)}
        return self._shared_sample(("theorem1", reps), _ynorm_block, reps, "theorem1",
                                   self.model, tuple(sorted(gens)))

    def series_sample(self, reps: int) -> dict:
        """Per-row reads of ``reps`` two-sided environments at half-width
        ``series_trunc``: the halves of the series Sigma1 (lemma5) and the
        numerators of the lemma-7 ratios at i = 1. One draw, whole and in
        this process (see the module docstring), one side at a time: each
        side is reduced to its reads and dropped before the next is drawn."""
        key = ("series", reps)
        if key not in self._samples:
            I = self.cfg.series_trunc
            rng = self._stream("lemma5-limit")
            reads = {}
            # (side, first walk column of the series, keys of its reads)
            for side, first, keys in (("positive", 0, ("positive", "tail_after", "a_after")),
                                      ("negative", 1, ("negative", "head_before", "a_before"))):
                walk, rows, mu = sample_side(self.model, I, reps, rng, self.tables, side)
                whole, rest = series_sums(walk[:, first:], mu, rows)
                reads.update(zip(keys, (whole, rest, np.exp(-walk[rows, 1]))))
                del walk, mu
            self._samples[key] = reads
        return self._samples[key]

    def _record(self, name, statistic, gate, replicas, passed=None, detail="", **inputs):
        """One verdict line. With a gate the record passes when it has a
        statistic at or below the gate and ``passed`` is not False; with
        no gate the verdict is ``passed`` (None: only reported)."""
        statistic = None if statistic is None else float(statistic)
        if gate is not None:
            passed = statistic is not None and statistic <= gate and passed is not False
        return TestRecord(name=name, statistic=statistic,
                          threshold=None if gate is None else float(gate), verdict=passed,
                          seed=self.cfg.master_seed, replicas=int(replicas), inputs=inputs,
                          detail=detail)

    def _csv(self, name, cols, subcommand, **prov):
        """One CSV in the run's out_dir; its provenance is the subcommand,
        version, seed and step family plus ``prov``."""
        write_csv(self.cfg.out_dir, name, cols, {
            "subcommand": subcommand, "version": VERSION, "seed": self.cfg.master_seed,
            "x_family": self.cfg.x_family, **prov})

    def _ecdf_csv(self, name: str, samples: dict, subcommand: str, **prov):
        """One CSV comparing ECDFs on a grid of 512 quantiles of the first
        sample."""
        points = 512
        first = next(iter(samples.values()))
        base = ecdf(first[0], first[1])
        qs = np.linspace(0.0, 1.0, points, endpoint=False) + 1.0 / (2 * points)
        grid = base.quantile(qs)
        cols = {"x": grid}
        for label, (values, weights) in samples.items():
            cols[label] = ecdf(values, weights).evaluate(grid)
        self._csv(name, cols, subcommand, **prov)

    def _versus_limit(self, name, pre, lim, replicas, csv_name, prov, **inputs):
        """Pre-limit sample against its limit law: KS record (gate 0.06)
        plus a CSV of the two ECDFs, with provenance ``prov``; an empty
        pre-limit sample (lemma1: no walk reaches S_{tau+i}) has no
        statistic, so it fails and writes no CSV."""
        if not len(pre):
            return self._record(name, None, 0.06, replicas, **inputs)
        ks = ks_two_sample(pre, lim)
        self._ecdf_csv(csv_name, {"pre_limit": (pre, None), "limit": (lim, None)}, **prov)
        return self._record(name, ks.statistic, 0.06, replicas, **inputs)

    # -- subcommands ----------------------------------------------------------

    def run_validate_env(self):
        return [self._record(f"validate-env/{c.name}", None, None, 0, c.passed, c.detail)
                for c in validate_model(self.model)]

    def run_walk_stats(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["walk_stats"]
        walks = self.free_walks()
        if cfg.x_family != "normal":
            ref = stable_standard(cfg.alpha, cfg.rho, reps, self._stream("walk-stats-stable-ref"))
        sn = walks()["terminal"]
        frac = float(np.mean(sn > 0))
        records = [self._record("walk-stats/sign-fraction", abs(frac - cfg.rho), 0.03, reps,
                                n=n, fraction=frac)]
        scaled = sn / self.model.normalizer(n)
        if cfg.x_family == "normal":
            from scipy.stats import norm
            # the standard stable law at alpha = 2 is Normal(0, 2)
            ks = ks_against_cdf(scaled, norm(scale=np.sqrt(2.0)).cdf)
            records.append(self._record("walk-stats/terminal-ks-normal", ks.statistic, 0.02,
                                        reps, n=n))
        else:
            ks = ks_two_sample(scaled, ref)
            records.append(self._record("walk-stats/terminal-ks-stable", ks.statistic, 0.04,
                                        reps, n=n))
        return records

    def run_arcsine(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["walk_stats"]
        vals = self.free_walks()()["argmin_frac"]
        ks = ks_against_cdf(vals, lambda x: arcsine_cdf(cfg.rho, x))
        xs = np.sort(vals)[:: max(1, reps // 2048)]
        self._csv("arcsine_ecdf.csv", {
            "x": xs,
            "empirical": ecdf(vals).evaluate(xs),
            "model": arcsine_cdf(cfg.rho, xs),
        }, "arcsine", n=n, replicas=reps)
        return [self._record("arcsine/ks", ks.statistic, 0.03, reps, n=n)]

    def run_measure_change(self):
        cfg = self.cfg
        n = cfg.n_small
        reps = cfg.replicas["measure_change"]
        records = []
        for side in ("positive", "negative"):
            # rejection paths come with tilt weights, h-transform paths
            # with conditional weights: each gives the other's face
            rej, tilt = sample_conditioned_batch(
                self.model, n, "rejection", reps, self._stream(f"mc-rejection-{side}"),
                side, self.tables)
            hfl, cond = sample_conditioned_batch(
                self.model, n, "h-transform", reps, self._stream(f"mc-htransform-{side}"),
                side, self.tables)
            rej, hfl = rej[:, -1], hfl[:, -1]
            if side == "negative":  # the faces are compared on the S_n axis
                rej, hfl = -rej, -hfl
            records.append(self._record(
                f"measure-change/{side}/conditional-face",
                ks_two_sample(rej, hfl, None, cond).statistic, 0.05, reps, n=n))
            records.append(self._record(
                f"measure-change/{side}/reweighted-face",
                ks_two_sample(rej, hfl, tilt, None).statistic, 0.05, reps, n=n))
            self._ecdf_csv(f"measure_change_{side}.csv", {
                "rejection": (rej, None),
                "htransform": (hfl, cond),
            }, "measure-change", side=side, n=n, replicas=reps)
        return records

    def run_lemma1(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["walk_stats"]
        walks = self.free_walks()
        rng = self._stream("lemma1-limit")
        lim = {}
        # S*_i is column |i| of the side of i's sign (the config gate keeps
        # 1 <= |i| <= trunc_i); each side is dropped before the next is drawn
        for side in ("positive", "negative"):
            walk, rows, mu = sample_side(self.model, cfg.trunc_i, reps, rng, self.tables, side)
            lim.update((i, walk[rows, abs(i)]) for i in cfg.lemma_offsets
                       if (i > 0) == (side == "positive"))
            del walk, mu
        records = []
        for i in cfg.lemma_offsets:
            pre = walks()[i]
            records.append(self._versus_limit(
                f"lemma1/offset{i:+d}", pre, lim[i], reps,
                f"lemma1_offset{i:+d}.csv",
                dict(subcommand="lemma1", offset=i, n=n, replicas=reps),
                n=n, trunc_i=cfg.trunc_i, kept=len(pre)))
        return records

    def run_lemma5(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["lemma5"]
        trunc = cfg.series_trunc
        pre = {side: self._blocks(_cond_series_block, reps, f"lemma5-pre-{side}",
                                  self.model, n, side)
               for side in ("positive", "negative")}
        lim = self.series_sample(reps)
        return [
            self._versus_limit(
                f"lemma5/eq-{side}", gather(), lim[side], reps,
                f"lemma5_{side}.csv",
                dict(subcommand="lemma5", side=side, n=n, replicas=reps),
                n=n, series_trunc=trunc)
            for side, gather in pre.items()
        ]

    def run_lemma7(self):
        cfg = self.cfg
        n = cfg.n_walk
        reps = cfg.replicas["lemma7"]
        i = 1
        trunc = cfg.series_trunc
        pre = self._blocks(_ratio_block, reps, "lemma7-pre", self.model, n, i)
        lim = self.series_sample(reps)
        sigma1 = lim["positive"] + lim["negative"]
        pre = pre()
        return [
            self._versus_limit(
                f"lemma7/{key}", pre[key], lim[key] / sigma1, reps,
                f"lemma7_{key}.csv",
                dict(subcommand="lemma7", ratio=key, n=n, replicas=reps),
                n=n, offset=i, series_trunc=trunc)
            for key in ("tail_after", "head_before", "a_after", "a_before")
        ]

    def _fixed_envs(self):
        """The martingale check's fixed environments, as (x, mu) pairs."""
        rng = self._stream("martingale-env")
        drawn_x = self.model.draw_x(rng, 20)
        return {
            "flat-critical": (np.zeros(20), np.full(20, 2.0)),
            "alternating": (0.3 * (-1.0) ** np.arange(20), np.full(20, 1.5)),
            "drawn": (drawn_x, self.model.draw_rate(rng, 20)),
        }

    def run_martingale(self):
        cfg = self.cfg
        reps = cfg.replicas["martingale"]
        depths = (1, 5, 20)
        ks = (1, 3, 10)
        submitted = []
        for label, (x, mu) in self._fixed_envs().items():
            s, b_log = compute_normalizers(x, mu)
            # the first cohort's law over d steps: ln A = -S_d, ln B = b_log[d]
            # of the same steps with unit rates
            _, unit_b_log = compute_normalizers(x, np.ones(len(x)))
            at = list(depths)
            submitted.append((label, mu, s, b_log, self._blocks(
                _cohort_value_block, reps, f"martingale-cohort-{label}",
                float(mu[0]), -s[at], unit_b_log[at]), self._blocks(
                _population_at_block, reps, f"martingale-mean-{label}", x, mu, ks)))
        records = []
        rows = []
        for label, mu, s, b_log, values, z in submitted:
            values, z = values(), z()
            # (check, generation, name tag, Monte Carlo sample, exact mean)
            cases = [
                ("martingale", d, f"depth{d}", values[j], float(mu[0]))
                for j, d in enumerate(depths)
            ] + [
                ("conditional-mean", k, f"k{k}", z[j],
                 float(np.exp(b_log[k]) / np.exp(-s[k])))
                for j, k in enumerate(ks)
            ]
            for check, gen, tag, vals, target in cases:
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
                stat = _sigma_distance(mean, se, target)
                records.append(self._record(f"{check}/{label}/{tag}", stat, 3.0, reps,
                                            mean=mean, se=se, target=target))
                rows.append((label, check, gen, mean, se, target))
        self._csv("martingale_means.csv", dict(zip(
            ("environment", "check", "generation", "mc_mean", "mc_se", "target"),
            zip(*rows))), "martingale", replicas=reps)
        return records

    def run_gamma_dist(self):
        cfg = self.cfg
        reps = cfg.replicas["gamma"]
        base = self.gamma_sample(cfg.trunc_i, cfg.trunc_j, reps)
        doubled = self.gamma_sample(2 * cfg.trunc_i, 2 * cfg.trunc_j, reps)
        base, doubled = base(), doubled()
        ks = ks_two_sample(base["gamma"], doubled["gamma"])
        min_sigma1 = float(min(base["sigma1"].min(), doubled["sigma1"].min()))
        records = [
            self._record("gamma-dist/truncation-stability", ks.statistic, 0.05, reps,
                         trunc_i=cfg.trunc_i, trunc_j=cfg.trunc_j),
            self._record("gamma-dist/sigma1-positive", min_sigma1, None, reps,
                         min_sigma1 > 0.0),
        ]
        self._ecdf_csv("gamma_ecdf.csv", {
            "base": (base["gamma"], None),
            "doubled": (doubled["gamma"], None),
        }, "gamma-dist", trunc_i=cfg.trunc_i, trunc_j=cfg.trunc_j, replicas=reps)
        return records

    def run_theorem1_onedim(self):
        cfg = self.cfg
        reps = cfg.replicas["onedim"]
        gamma = self.gamma_sample(cfg.trunc_i, cfg.trunc_j, cfg.replicas["gamma"])
        sample = self.theorem1_sample(reps)
        gamma, sample = gamma()["gamma"], sample()
        stats = []
        records = []
        csv_cols = {}
        for n in cfg.horizons:
            y = sample[n]
            ks = ks_two_sample(y, gamma)
            stats.append(ks.statistic)
            # only the longest horizon is gated
            records.append(self._record(f"theorem1-onedim/ks-n{n}", ks.statistic,
                                        0.08 if n == cfg.horizons[-1] else None, reps, n=n))
            csv_cols[f"y_n{n}"] = (y, None)
        monotone = all(b <= a + 0.01 for a, b in zip(stats, stats[1:]))
        records.append(self._record("theorem1-onedim/ks-monotone", None, None, reps, monotone,
                                    ks_values=stats, slack=0.01))
        csv_cols["gamma_ref"] = (gamma, None)
        self._ecdf_csv("theorem1_onedim_ecdf.csv", csv_cols, "theorem1-onedim",
                       horizons=list(cfg.horizons), replicas=reps)
        return records

    def run_theorem1_twodim(self):
        cfg = self.cfg
        reps = cfg.replicas["twodim"]
        t1, t2 = float(cfg.t_values[0]), float(cfg.t_values[1])
        n = int(cfg.horizons[-1])
        # near-tie band of the two-segment minima under the walk scaling
        n_band = cfg.n_walk
        k1 = int(np.floor(n_band * t1))
        k2 = int(np.floor(n_band * t2))
        gamma = self.gamma_sample(cfg.trunc_i, cfg.trunc_j, cfg.replicas["gamma"])
        sample = self.theorem1_sample(reps)
        band = self._blocks(_band_block, cfg.replicas["band"], "band", self.model, k1, k2)

        p_hat = estimate_level_change_prob(
            cfg.alpha, cfg.rho, t1, t2, cfg.delta(), cfg.replicas["level_change"],
            self._stream("levy-level"))
        p_exact = 1.0 - arcsine_cdf(cfg.rho, t1 / t2)
        records = [self._record(
            "theorem1-twodim/level-change-prob", abs(p_hat - p_exact), 0.03,
            cfg.replicas["level_change"], estimate=p_hat, analytic=p_exact, t1=t1, t2=t2)]

        y1, y2 = (sample()[k] for k in _twodim_gens(cfg))
        jt = joint_two_time_test(y1, y2, gamma()["gamma"], p_hat)
        records.append(self._record("theorem1-twodim/joint-mixture", jt["max_discrepancy"],
                                    0.05, reps, n=n, level_change_prob=p_hat))
        self._csv("theorem1_twodim_probes.csv", {
            "x1": jt["probes"][:, 0], "x2": jt["probes"][:, 1],
            "predicted": jt["predicted"], "observed": jt["observed"],
        }, "theorem1-twodim", n=n, replicas=reps)

        diffs = band()
        c_n = self.model.normalizer(n_band)
        fracs = [float(np.mean(diffs <= e * c_n)) for e in cfg.band_eps]
        decreasing = all(b <= a for a, b in zip(fracs, fracs[1:]))
        # the fractions must also fall as eps does
        records.append(self._record(
            "theorem1-twodim/band-fraction", fracs[-1], 0.05, cfg.replicas["band"], decreasing,
            eps=list(cfg.band_eps), fractions=fracs, n=n_band, decreasing=decreasing))
        self._csv("band_fractions.csv", {"eps": list(cfg.band_eps), "fraction": fracs},
                  "theorem1-twodim", n=n_band, replicas=cfg.replicas["band"])
        return records

    def run_all(self):
        records = []
        for name in SUBCOMMANDS[:-1]:
            records.extend(self.dispatch(name))
        return records

    def dispatch(self, subcommand: str):
        if subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {subcommand!r}")
        return self._check(getattr(self, "run_" + subcommand.replace("-", "_")))

    def _check(self, fn):
        """``fn()`` as one check, which owns the pool its blocks open."""
        self._checking = True
        try:
            return fn()
        finally:
            self._checking = False
            # no worker outlives its check, so its CPU time and memory are
            # reaped with it; a raising check cancels its pending blocks
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
                self._pool = None
            # a sample submitted but never joined is drawn again when asked
            self._samples = {k: v for k, v in self._samples.items() if not callable(v)}


def run(subcommand: str, cfg: RunConfig) -> Report:
    """Execute one subcommand and write report plus CSV artifacts."""
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
