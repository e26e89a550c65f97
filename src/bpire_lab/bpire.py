"""The branching-with-immigration population process.

Offspring laws are geometric, so the total offspring of c particles is a
single negative-binomial draw: one generation costs O(1) regardless of
population size. Populations grow like exp(walk range) and overflow any
integer width at desk horizons, so the engine is hybrid: exact integer
negative-binomial draws while the parent count is at most ``EXACT_CAP``,
and above that a log-space update whose noise matches the exact
branching variance (gamma-mixed Poisson limit of the negative binomial,
relative standard deviation sqrt((1+1/m)/c)). States re-enter the exact
regime when populations shrink back. In ``exact_only`` mode the log
branch is disabled and crossing the int64 range raises
:class:`SaturationError` instead of wrapping.

Population states are carried as pairs (linear count, log count): the
linear value is an exact integer whenever the population is small enough
to matter, and the log value is always finite-precision meaningful.

Every simulation in the package is built from three kernels. Two run
over ``branch_generation``: ``advance`` (one generation with immigration)
and ``cohort_log_sizes`` (one immigrant cohort, no further immigration,
generation by generation). The third, ``cohort_log_values``, draws the
cohort after J generations from the closed-form composition of the
geometric offspring laws in O(1) variates; the ratio law uses it, and the
tests hold the branching engine against it as an exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EnvSteps

__all__ = [
    "Trajectory",
    "NormalizerPair",
    "SaturationError",
    "EXACT_CAP",
    "branch_generation",
    "advance",
    "cohort_log_sizes",
    "cohort_log_values",
    "simulate_bpire",
    "simulate_normalized_at",
    "compute_normalizers",
]

EXACT_CAP = 2 ** 31          # parent counts above this use the log-space update
_INT64_MAX = 2 ** 63 - 1
_LN_POISSON_CAP = 30 * np.log(2.0)  # below this log-mean, draw an exact Poisson
_NB_DRAW_MARGIN = 59 * np.log(2.0)  # keep exact draws well inside int64
_LN_EXACT_FLOAT = np.log(2.0 ** 53)  # linear counts above 2^53 are stored as inf


class SaturationError(RuntimeError):
    """Population left the exact integer range in exact-only mode."""


def _log_count(c):
    """ln c of nonnegative counts, -inf at zero."""
    with np.errstate(divide="ignore"):
        return np.log(c)


def _poisson_log(lam_log: np.ndarray, rng: np.random.Generator):
    """Poisson counts from log means ``lam_log``, as (linear, log) counts.

    Exact draws up to ``_LN_POISSON_CAP``; above it, Poisson noise on the
    log scale (relative sd 1/sqrt(lam)), with the linear count stored as
    inf past 2^53.
    """
    z_lin = np.empty_like(lam_log)
    z_log = np.empty_like(lam_log)
    small = lam_log <= _LN_POISSON_CAP
    if small.any():
        draws = rng.poisson(np.exp(lam_log[small])).astype(float)
        z_lin[small] = draws
        z_log[small] = _log_count(draws)
    if (~small).any():
        ll = lam_log[~small]
        ll = ll + np.log1p(
            np.clip(rng.standard_normal(len(ll)) * np.exp(-0.5 * ll), -0.999, None)
        )
        z_log[~small] = ll
        lin = np.full_like(ll, np.inf)
        fits = ll < _LN_EXACT_FLOAT
        lin[fits] = np.exp(ll[fits])
        z_lin[~small] = lin
    return z_lin, z_log


def branch_generation(c_lin: np.ndarray, c_log: np.ndarray, x: np.ndarray,
                      rng: np.random.Generator, exact_only: bool = False):
    """One generation of geometric branching for parent counts ``c``.

    ``c_lin``/``c_log`` are the dual linear/log representations of the
    parent counts; ``x`` is the log offspring mean of the step (so the
    geometric success parameter is q = 1/(1+e^x)). Returns the offspring
    counts in the same dual representation.
    """
    c_lin = np.asarray(c_lin, dtype=float)
    c_log = np.asarray(c_log, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), c_lin.shape)

    z_lin = np.zeros_like(c_lin)
    z_log = np.full_like(c_lin, -np.inf)

    nonzero = c_lin > 0.0
    exact = nonzero & (c_lin <= EXACT_CAP) & (c_log + x <= _NB_DRAW_MARGIN)
    if exact_only:
        projected = c_log + np.maximum(x, 0.0)
        if np.any(nonzero & ((c_lin > _INT64_MAX) | (projected > np.log(_INT64_MAX) - 2.0))):
            raise SaturationError(
                "population crossed the int64 range; rerun without exact_only"
            )
        exact = nonzero
    big = nonzero & ~exact

    if exact.any():
        # exact draws have x <= _NB_DRAW_MARGIN, so e^x cannot overflow
        q = 1.0 / (1.0 + np.exp(x[exact]))
        z_lin[exact] = rng.negative_binomial(c_lin[exact].astype(np.int64), q)
        z_log[exact] = _log_count(z_lin[exact])

    if big.any():
        cb = c_log[big]
        # gamma mixing noise: relative sd 1/sqrt(c)
        lam_log = cb + x[big] + np.log1p(
            np.clip(rng.standard_normal(big.sum()) * np.exp(-0.5 * cb), -0.999, None)
        )
        z_lin[big], z_log[big] = _poisson_log(lam_log, rng)
    return z_lin, z_log


def advance(z_lin, z_log, x, mu, rng: np.random.Generator,
            exact_only: bool = False):
    """One generation with immigration: Poisson(``mu``) immigrants join
    the parents, then all of them branch with log offspring mean ``x``.

    Returns the offspring counts (linear, log) and the immigrant counts.
    """
    eta = rng.poisson(mu, np.shape(z_lin)).astype(float)
    z_lin, z_log = branch_generation(z_lin + eta, np.logaddexp(z_log, _log_count(eta)),
                                     x, rng, exact_only=exact_only)
    return z_lin, z_log, eta


def cohort_log_sizes(mu, x, reps: int, rng: np.random.Generator) -> np.ndarray:
    """ln Z_k of one immigrant cohort after k = 1..J generations.

    The cohort starts from Poisson(``mu``) immigrants (a scalar or one
    rate per replica) and branches with no further immigration through
    the steps ``x``, of shape (J,) shared by all replicas or (J, reps).
    Returns a (J, reps) array, -inf where the cohort died; the cohort
    martingale value is a_k Z_k = exp(ln Z_k - (S_k - S_0)) for the
    caller's walk S.
    """
    z_lin = rng.poisson(mu, reps).astype(float)
    z_log = _log_count(z_lin)
    out = np.empty((len(x), reps))
    for k, x_k in enumerate(x):
        z_lin, z_log = branch_generation(z_lin, z_log, x_k, rng)
        out[k] = z_log
    return out


def cohort_log_values(mu, a_log, b_log, rng: np.random.Generator) -> np.ndarray:
    """ln A·Z of immigrant cohorts, drawn from the composed offspring law.

    Geometric offspring laws compose in closed form over a walk S_0..S_J:
    1/(1 - f_{0,J}(s)) = A/(1 - s) + B with A = e^{-(S_J - S_0)} and
    B = sum_{k<J} e^{-(S_k - S_0)}. A cohort of Poisson(``mu``) immigrants
    therefore has Poisson(mu/(A+B)) surviving lines L, and
    Z = L + NegBin(L, A/(A+B)), drawn as L + Poisson(G·B/A) with
    G ~ Gamma(L). ``mu``, ``a_log`` = ln A and ``b_log`` = ln B broadcast
    to one shape, which is the shape of the result: ln A·Z, the cohort
    martingale value at depth J, and -inf where the cohort died. Every
    step runs in logs, so no walk increment can overflow it.
    """
    mu, a_log, b_log = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (mu, a_log, b_log)))
    lines, lines_log = _poisson_log(_log_count(mu) - np.logaddexp(a_log, b_log), rng)
    out = np.full(lines.shape, -np.inf)
    live = lines > 0.0
    lines, lines_log = lines[live], lines_log[live]
    g_log = lines_log.copy()  # past 2^53 lines, Gamma(L) is L to a relative sd of 2^-26.5
    fits = np.isfinite(lines)
    g_log[fits] = np.log(rng.standard_gamma(lines[fits]))
    _, extra_log = _poisson_log(g_log + b_log[live] - a_log[live], rng)
    out[live] = a_log[live] + np.logaddexp(lines_log, extra_log)
    return out


@dataclass
class Trajectory:
    """Population sizes Z_0..Z_n and immigrant counts, one row per replica.

    ``z`` holds exact integer counts as floats while representable and
    ``inf`` beyond the float range; ``z_log`` always carries ln Z_k
    (-inf at zero). ``eta[:, k]`` counts the immigrants joining
    generation k.
    """

    z: np.ndarray
    z_log: np.ndarray
    eta: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[-1] - 1


def simulate_bpire(env: EnvSteps, n: int, reps: int, rng: np.random.Generator,
                   exact_only: bool = False) -> Trajectory:
    """Simulate ``reps`` independent Z_0..Z_n in one environment (Z_0 = 0).

    Immigrants joining generation k-1 are Poisson with the (k-1)-indexed
    rate; generation k is the pooled geometric offspring of residents
    plus those immigrants, drawn as one negative-binomial variate.
    """
    if len(env) < n:
        raise ValueError(f"environment has {len(env)} steps, need {n}")
    z = np.zeros((reps, n + 1))
    z_log = np.full((reps, n + 1), -np.inf)
    eta = np.zeros((reps, n))
    for k in range(1, n + 1):
        z[:, k], z_log[:, k], eta[:, k - 1] = advance(
            z[:, k - 1], z_log[:, k - 1], env.x[k - 1], env.mu[k - 1], rng,
            exact_only=exact_only)
    return Trajectory(z=z, z_log=z_log, eta=eta)


@dataclass
class NormalizerPair:
    """The environment normalizers a_k = e^{-S_k}, b_k = sum mu e^{-S}."""

    a: np.ndarray
    b: np.ndarray
    a_log: np.ndarray
    b_log: np.ndarray


def compute_normalizers(env: EnvSteps) -> NormalizerPair:
    """Exact normalizer sequences from realized environment steps."""
    if len(env) == 0:
        raise ValueError("environment must be nonempty")
    s = np.concatenate([[0.0], np.cumsum(env.x)])
    a_log = -s
    with np.errstate(divide="ignore"):
        terms = np.log(env.mu) - s[:-1]  # mu_{i+1} e^{-S_i}
    b_log = np.concatenate([[-np.inf], np.logaddexp.accumulate(terms)])
    with np.errstate(over="ignore"):
        return NormalizerPair(a=np.exp(a_log), b=np.exp(b_log), a_log=a_log, b_log=b_log)


def simulate_normalized_at(model, n: int, ts, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Batch-draw Y_n(t) for t in ``ts`` across independent environments.

    Walks one generation at a time with all replicas in lockstep, so
    memory stays linear in the replica count regardless of horizon.
    Returns an array of shape (reps, len(ts)).
    """
    ts = np.asarray(ts, dtype=float)
    ks = np.floor(n * ts).astype(int)
    k_max = int(ks.max())
    if k_max < 1:
        raise ValueError("need n * max(t) >= 1")
    want: dict[int, list[int]] = {}
    for j, k in enumerate(ks):
        want.setdefault(int(k), []).append(j)

    s = np.zeros(reps)
    b_log = np.full(reps, -np.inf)
    z_lin = np.zeros(reps)
    z_log = np.full(reps, -np.inf)
    out = np.zeros((reps, len(ts)))
    for k in range(1, k_max + 1):
        x_k = model.draw_x(rng, reps)
        mu_k = np.asarray(model.draw_rate(rng, reps), dtype=float)
        b_log = np.logaddexp(b_log, np.log(mu_k) - s)  # mu_k e^{-S_{k-1}}
        s = s + x_k
        z_lin, z_log, _ = advance(z_lin, z_log, x_k, mu_k, rng)
        for j in want.get(k, ()):
            out[:, j] = np.where(np.isfinite(z_log), np.exp(z_log - s - b_log), 0.0)
    return out
