"""The branching-with-immigration population process.

Offspring laws are geometric, so the total offspring of c particles is a
single negative-binomial draw: one generation costs O(1) regardless of
population size. Populations grow like exp(walk range) and overflow any
integer width at desk horizons, so the engine is hybrid: exact integer
negative-binomial draws while the parent count is at most ``EXACT_CAP``
and the step keeps the draw inside int64, and above that a log-space
update: the negative binomial as its gamma-mixed Poisson, with the
Gamma(c) mixing drawn exactly (G = c for counts past 2^53) and the
Poisson on the log scale past 2^30. States re-enter the exact regime
when populations shrink back. In ``exact_only`` mode the log branch is
disabled and crossing the int64 range raises :class:`SaturationError`
instead of wrapping.

Population states are carried as pairs (linear count, log count): the
linear value is an exact integer whenever the population is small enough
to matter, and the log value is always finite-precision meaningful.

Two kernels run over ``branch_generation``: ``advance`` (one generation
with immigration) and ``cohort_log_sizes`` (one immigrant cohort, no
further immigration, generation by generation). They serve the martingale
check, and the tests hold them against the closed form as an exact
oracle. Everything else draws from the closed-form composition of the
geometric offspring laws in O(1) variates per cohort:
``cohort_log_values`` for the ratio law, and ``simulate_normalized_at``
for the pre-limit process Y_n of theorem 1, whose population is a sum of
independent immigrant cohorts plus the descendants carried from the
previous probe.
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
_EXACT_FLOAT = 2.0 ** 53  # counts up to here are exact integers in a float
_LN_EXACT_FLOAT = np.log(_EXACT_FLOAT)  # linear counts above 2^53 are stored as inf


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


def _gamma_log(c_lin: np.ndarray, c_log: np.ndarray, rng: np.random.Generator):
    """ln G, G ~ Gamma(c), for positive counts c given as (linear, log).

    Exact for every finite count; a count stored as inf (past 2^53) takes
    G = c, within a relative sd of 2^-26.5.
    """
    g_log = c_log.copy()
    fits = np.isfinite(c_lin)
    g_log[fits] = np.log(rng.standard_gamma(c_lin[fits]))
    return g_log


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
        # NegBin(c, 1/(1+e^x)) is Poisson(e^x G) with G ~ Gamma(c)
        z_lin[big], z_log[big] = _poisson_log(
            x[big] + _gamma_log(c_lin[big], c_log[big], rng), rng)
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


def _descendants(lines, lines_log, a_log, b_log, rng: np.random.Generator):
    """Counts Z = L + Poisson(G·B/A), G ~ Gamma(L), of L surviving lines.

    Each line that survives the composed law 1/(1 - f(s)) = A/(1 - s) + B
    leaves 1 + Geometric(A/(A+B)) descendants, so L lines leave
    L + NegBin(L, A/(A+B)). Takes and returns (linear, log) counts; rows
    with L = 0 stay empty.
    """
    z_lin = np.zeros(lines.shape)
    z_log = np.full(lines.shape, -np.inf)
    live = lines > 0.0
    lines, lines_log = lines[live], lines_log[live]
    extra, extra_log = _poisson_log(
        _gamma_log(lines, lines_log, rng) + b_log[live] - a_log[live], rng)
    z_lin[live] = lines + extra
    z_log[live] = np.logaddexp(lines_log, extra_log)
    return z_lin, z_log


def _cohort_counts(mu, a_log, b_log, rng: np.random.Generator):
    """Z of Poisson(``mu``) immigrant cohorts under the composed law
    (A, B), as (linear, log) counts: Poisson(mu/(A+B)) lines survive."""
    return _descendants(*_poisson_log(_log_count(mu) - np.logaddexp(a_log, b_log), rng),
                        a_log, b_log, rng)


def _carried_counts(c_lin, c_log, a_log, b_log, rng: np.random.Generator):
    """Z descending from ``c`` particles under the composed law (A, B),
    as (linear, log) counts: Binomial(c, 1/(A+B)) lines survive.

    The binomial is exact while c is an exact integer (up to 2^53). Past
    that, either 1/(A+B) < 2^-23 or c/(A+B) > 2^30, and the lines are
    drawn as Poisson(c/(A+B)) on the log scale, within 2^-15 relative of
    the binomial.
    """
    p_log = -np.logaddexp(a_log, b_log)
    lines = np.empty_like(c_lin)
    lines_log = np.empty_like(c_lin)
    exact = c_lin <= _EXACT_FLOAT
    if exact.any():
        # B >= 1, so 1/(A+B) <= 1 up to rounding
        p = np.minimum(np.exp(p_log[exact]), 1.0)
        lines[exact] = rng.binomial(c_lin[exact].astype(np.int64), p)
        lines_log[exact] = _log_count(lines[exact])
    if (~exact).any():
        lines[~exact], lines_log[~exact] = _poisson_log(c_log[~exact] + p_log[~exact], rng)
    return _descendants(lines, lines_log, a_log, b_log, rng)


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
    return a_log + _cohort_counts(mu, a_log, b_log, rng)[1]


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


def _log_col_sums(v: np.ndarray) -> np.ndarray:
    """ln of the column sums of e^v, shifted by each column's maximum;
    -inf on empty columns."""
    top = v.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    return top + _log_count(np.exp(v - top).sum(axis=0))


_COHORT_CHUNK = 128  # cohorts per kernel call: bounds the temporaries of a window
_MAX_WINDOW = 1024  # generations per window: bounds its walk and rate arrays


def _window_cohorts(model, s_prev: np.ndarray, w: int, rng: np.random.Generator):
    """Walk and immigrant cohorts of one window (prev, k], k = prev + w.

    The steps and the rates of the window are drawn in one call each; the
    walk is one array of w + 1 rows, s[j] = S_{prev+j}, each row across
    all replicas. The cohorts are drawn in chunks of ``_COHORT_CHUNK``
    rows from the right, so that the suffix sums
    ln sum_{j=i}^{k-1} e^{-S_j} run right to left with ``logaddexp``, one
    generation at a time: no walk increment underflows a suffix. Cohort i
    has ln A_i = S_i - S_k and ln B_i = S_i plus its suffix sum.

    Returns S_k, the suffix sum from prev, the cohorts' total count at k
    as (linear, log), and ln sum_{prev<=i<k} mu_{i+1} e^{-S_i}.
    """
    reps = len(s_prev)
    s = np.empty((w + 1, reps))
    s[0] = s_prev
    np.cumsum(model.draw_x(rng, (w, reps)), axis=0, out=s[1:])
    s[1:] += s_prev
    rates = np.asarray(model.draw_rate(rng, (w, reps)), dtype=float)  # mu_{prev+j+1}
    s_k = s[w].copy()
    suffix = np.full(reps, -np.inf)
    z_lin = np.zeros(reps)
    z_log = np.full(reps, -np.inf)
    b_log = np.full(reps, -np.inf)
    for hi in range(w, 0, -_COHORT_CHUNK):
        lo = max(hi - _COHORT_CHUNK, 0)
        s_i = s[lo:hi]
        mu = rates[lo:hi]
        b_i = np.negative(s_i)
        np.logaddexp(b_i[-1], suffix, out=b_i[-1])
        for j in range(len(b_i) - 2, -1, -1):
            np.logaddexp(b_i[j + 1], b_i[j], out=b_i[j])
        suffix = b_i[0].copy()
        b_i += s_i
        c_lin, c_log = _cohort_counts(mu, s_i - s_k, b_i, rng)
        z_lin += c_lin.sum(axis=0)
        z_log = np.logaddexp(z_log, _log_col_sums(c_log))
        b_log = np.logaddexp(b_log, _log_col_sums(np.log(mu) - s_i))
    return s_k, suffix, z_lin, z_log, b_log


def simulate_normalized_at(model, n: int, ts, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Batch-draw Y_n(t) = e^{-S_k} Z_k / b_k, k = floor(n t), for t in
    ``ts`` across independent environments.

    The probe generations are visited in ascending order, one window
    (prev, k] at a time. A window longer than ``_MAX_WINDOW`` generations
    is split at unreported checkpoints, so memory holds at most that many
    rows of walk and rates whatever the horizon. Z_k sums the window's
    immigrant cohorts, each drawn from its composed law, and the
    descendants of Z_prev under the law composed over the whole window;
    the laws compose exactly across a split.
    Returns an array of shape (reps, len(ts)).
    """
    ts = np.asarray(ts, dtype=float)
    ks = np.floor(n * ts).astype(int)
    if ks.max() < 1:
        raise ValueError("need n * max(t) >= 1")

    out = np.zeros((reps, len(ts)))
    prev = 0
    s_prev = np.zeros(reps)
    b_log = np.full(reps, -np.inf)  # ln b_k, b_k = sum_{i<k} mu_{i+1} e^{-S_i}
    z_lin = np.zeros(reps)
    z_log = np.full(reps, -np.inf)
    for k in np.unique(ks[ks > 0]):
        while prev < k:
            w = min(k - prev, _MAX_WINDOW)
            s_k, suffix, new_lin, new_log, b_win = _window_cohorts(model, s_prev, w, rng)
            b_log = np.logaddexp(b_log, b_win)
            if prev > 0:
                c_lin, c_log = _carried_counts(z_lin, z_log, s_prev - s_k, s_prev + suffix, rng)
                new_lin += c_lin
                new_log = np.logaddexp(new_log, c_log)
            # an exact total keeps its exact log, as the branching engine does
            z_lin = new_lin
            z_log = np.where(new_lin <= _EXACT_FLOAT, _log_count(new_lin), new_log)
            prev, s_prev = prev + w, s_k
        out[:, ks == k] = np.exp(z_log - s_prev - b_log)[:, None]
    return out
