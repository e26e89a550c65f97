"""Empirical-distribution machinery for the verification harness.

Everything here works on plain arrays. Weighted variants exist because
the harmonic-transform samplers hand back importance-weighted batches;
with weights omitted every function reduces to its textbook form. The
functions measure and do not judge: a result carries its statistic, and
the runner holds every gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ecdf",
    "KsResult",
    "JointTestReport",
    "ecdf",
    "ks_two_sample",
    "ks_against_cdf",
    "joint_two_time_test",
]


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF, optionally weighted.

    ``values`` are sorted sample points and ``cum`` the cumulative
    weights at those points (ending at 1).
    """

    values: np.ndarray
    cum: np.ndarray
    n: int

    def evaluate(self, x) -> np.ndarray:
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate([[0.0], self.cum])
        return padded[idx]

    def quantile(self, p) -> np.ndarray:
        ps = np.asarray(p, dtype=float)
        idx = np.searchsorted(self.cum, ps, side="left").clip(0, self.n - 1)
        return self.values[idx]


def ecdf(sample, weights=None) -> Ecdf:
    """Empirical CDF of a sample; weights are normalized if given."""
    values = np.asarray(sample, dtype=float)
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    order = np.argsort(values, kind="stable")
    values = values[order]
    if weights is None:
        cum = np.arange(1, len(values) + 1) / len(values)
    else:
        w = np.asarray(weights, dtype=float)[order]
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        cum = np.cumsum(w)
        cum /= cum[-1]
    return Ecdf(values=values, cum=cum, n=len(values))


@dataclass(frozen=True)
class KsResult:
    """Sup-distance between two distribution functions."""

    statistic: float
    n_a: int
    n_b: int


def ks_two_sample(a, b, weights_a=None, weights_b=None) -> KsResult:
    """Exact two-sample sup-distance via a merged evaluation scan.

    The supremum of the difference of two right-continuous step functions
    is attained at a sample point of one of them, so evaluating both at
    the pooled points is exact.
    """
    fa = ecdf(a, weights_a)
    fb = ecdf(b, weights_b)
    pooled = np.concatenate([fa.values, fb.values])
    d = float(np.abs(fa.evaluate(pooled) - fb.evaluate(pooled)).max())
    return KsResult(statistic=d, n_a=fa.n, n_b=fb.n)


def ks_against_cdf(sample, cdf) -> KsResult:
    """One-sample sup-distance against a distribution function.

    Both one-sided gaps are measured at the order statistics, which is
    exact for a monotone reference CDF.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    d = float(max(hi.max(), lo.max()))
    return KsResult(statistic=d, n_a=n, n_b=0)


@dataclass
class JointTestReport:
    """Mixture check of a two-coordinate law against its predicted form.

    The prediction at probe (x1, x2) is
    G(x1) G(x2) p + G(min(x1, x2)) (1 - p), where G is the reference
    marginal CDF and p the level-change probability; the two mixture
    weights sum to one by construction.
    """

    probes: np.ndarray
    predicted: np.ndarray
    observed: np.ndarray
    max_discrepancy: float


def joint_two_time_test(y1, y2, gamma_sample, level_change_prob: float) -> JointTestReport:
    """Compare an observed two-coordinate sample with the mixture law.

    The probes are the 5x5 grid of reference-marginal quantiles at
    0.1..0.9 (tails avoided).
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.size == 0 or y1.shape != y2.shape:
        raise ValueError("need matching nonempty coordinate samples")
    g = ecdf(gamma_sample)
    marks = g.quantile(np.linspace(0.1, 0.9, 5))
    probes = np.array([(x1, x2) for x1 in marks for x2 in marks])
    p = float(level_change_prob)
    g1 = g.evaluate(probes[:, 0])
    g2 = g.evaluate(probes[:, 1])
    gmin = g.evaluate(probes.min(axis=1))
    predicted = g1 * g2 * p + gmin * (1.0 - p)
    observed = np.array([
        np.mean((y1 <= x1) & (y2 <= x2)) for x1, x2 in probes
    ])
    return JointTestReport(
        probes=probes,
        predicted=predicted,
        observed=observed,
        max_discrepancy=float(np.abs(predicted - observed).max()),
    )
