"""The branching-with-immigration population process.

Offspring laws are geometric, so they compose in closed form over any
stretch of the walk, and every verdict draws its populations from that
composition: ``cohort_log_values`` for the cohort martingales of the
martingale check and ``limit_log_values`` for their J -> inf limits in
the ratio law, in O(1) variates per cohort, and
``simulate_normalized_at`` for the pre-limit process Y_n of theorem 1,
whose population is a sum of independent immigrant cohorts plus the
descendants carried from the previous probe. The window sampler behind
it, ``_window_cohorts``, draws a chunk's surviving lines by Poisson
superposition, in O(1) variates per replica per chunk plus O(1) per
surviving line. It takes given steps and rates, so the martingale check
draws its conditional means E(Z_k | env) through it on fixed
environments.

Population states are carried as pairs (linear count, log count): the
linear value is an exact integer whenever the population is small enough
to matter, and the log value is always finite-precision meaningful.

``branch_generation`` is one generation of that branching, drawn
directly: exact integer negative-binomial draws while the parent count
is at most ``EXACT_CAP`` and the step keeps the draw inside int64, and
above that a log-space update: the negative binomial as its gamma-mixed
Poisson, with the Gamma(c) mixing drawn exactly (G = c for counts past
2^53) and the Poisson on the log scale past 2^30. In ``exact_only``
mode the log branch is disabled and crossing the int64 range raises
:class:`SaturationError` instead of wrapping. No verdict calls it: the
tests build their generation-by-generation oracle on it, and the
benchmark's tracer wraps it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SaturationError",
    "EXACT_CAP",
    "branch_generation",
    "cohort_log_values",
    "limit_log_values",
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
    """ln G, G ~ Gamma(c), for counts c given as (linear, log); -inf at c = 0.

    Exact for every finite count; a count stored as inf (past 2^53) takes
    G = c, within a relative sd of 2^-26.5.
    """
    g_log = c_log.copy()
    fits = np.isfinite(c_lin) & (c_lin > 0.0)
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


def _descendants(lines, lines_log, ba_log, rng: np.random.Generator):
    """Counts Z = L + Poisson(G·B/A), G ~ Gamma(L), of L surviving lines.

    Each line that survives the composed law 1/(1 - f(s)) = A/(1 - s) + B
    leaves 1 + Geometric(A/(A+B)) descendants, so L lines leave
    L + NegBin(L, A/(A+B)). Takes (linear, log) line counts and
    ``ba_log`` = ln B/A, and returns (linear, log) counts; rows with L = 0
    stay empty.
    """
    z_lin = np.zeros(lines.shape)
    z_log = np.full(lines.shape, -np.inf)
    live = lines > 0.0
    lines, lines_log = lines[live], lines_log[live]
    extra, extra_log = _poisson_log(_gamma_log(lines, lines_log, rng) + ba_log[live], rng)
    z_lin[live] = lines + extra
    z_log[live] = np.logaddexp(lines_log, extra_log)
    return z_lin, z_log


def _cohort_counts(mu, a_log, b_log, rng: np.random.Generator):
    """Z of Poisson(``mu``) immigrant cohorts under the composed law
    (A, B), as (linear, log) counts: Poisson(mu/(A+B)) lines survive."""
    return _descendants(*_poisson_log(_log_count(mu) - np.logaddexp(a_log, b_log), rng),
                        b_log - a_log, rng)


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
    return _descendants(lines, lines_log, b_log - a_log, rng)


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


def limit_log_values(mu, b_log, rng: np.random.Generator) -> np.ndarray:
    """ln of the cohort martingale limits lim_J A·Z, drawn exactly.

    Along a walk that drifts to +inf, the composition of
    ``cohort_log_values`` has A -> 0 and B -> sum_{k>=0} e^{-(S_k - S_0)}.
    The Poisson(mu/(A+B)) surviving lines tend to L ~ Poisson(``mu``/B),
    and A·NegBin(L, A/(A+B)) tends to B·G with G ~ Gamma(L). Returns
    ln B·G, of mean ``mu``, and -inf where the cohort died (L = 0).
    """
    return b_log + _gamma_log(*_poisson_log(_log_count(mu) - b_log, rng), rng)


def compute_normalizers(x, mu):
    """Walk and normalizers of environment steps along the last axis.

    ``x`` holds the steps x_1..x_n and ``mu`` the rates mu_1..mu_n, of one
    shape. Returns (s, b_log), each with n + 1 entries on the last axis:
    the walk S_0 = 0..S_n, so that ln a_k = -S_k, and ln b_k with
    b_k = sum_{i<k} mu_{i+1} e^{-S_i} (b_0 = 0), summed by ``logaddexp``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("environment must be nonempty")
    s = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=s[..., 1:])
    b_log = np.full_like(s, -np.inf)
    with np.errstate(divide="ignore"):
        np.logaddexp.accumulate(np.log(mu) - s[..., :-1], axis=-1, out=b_log[..., 1:])
    return s, b_log


def _log_col_sums(v: np.ndarray) -> np.ndarray:
    """ln of the column sums of e^v, shifted by each column's maximum;
    -inf on empty columns."""
    top = v.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    return top + _log_count(np.exp(v - top).sum(axis=0))


def _log_group_sums(v: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """ln of the sums of e^v within each of ``n`` groups, shifted by each
    group's maximum; -inf on empty groups."""
    top = np.full(n, -np.inf)
    np.maximum.at(top, groups, v)
    top[~np.isfinite(top)] = 0.0
    return top + _log_count(np.bincount(groups, np.exp(v - top[groups]), n))


_COHORT_CHUNK = 128  # cohorts per kernel call: bounds the temporaries of a window
_MAX_WINDOW = 1024  # generations per window: bounds its walk and rate arrays


def _cohort_lines(lam_log: np.ndarray, rng: np.random.Generator):
    """Surviving lines of independent Poisson(lambda) counts, one per cell
    of the (rows, reps) array ``lam_log`` = ln lambda, returned for the
    occupied cells only: their row and column indices and (linear, log)
    line counts.

    By Poisson superposition a column's lines are Poisson(sum lambda) in
    all, each placed in a row independently with probability
    lambda_i / sum lambda. The placement is one flat ``searchsorted`` of
    column + uniform against column + cumulative share, as
    ``Generator.choice(p=)`` does for one column. A column that expects
    more lines than it has rows gains nothing from that and draws its
    cells directly, so no column holds more than about one line per row.
    """
    rows, reps = lam_log.shape
    cdf = np.exp(lam_log)
    np.cumsum(cdf, axis=0, out=cdf)
    total = cdf[-1].copy()
    dense = total > rows
    placed = (total > 0.0) & ~dense
    if dense.any():
        cdf[:, dense] = 0.0
    np.divide(cdf, total, out=cdf, where=placed)
    cdf += np.arange(reps)
    counts = rng.poisson(np.where(placed, total, 0.0))
    cols = np.repeat(np.arange(reps), counts)
    first = cols * rows  # flat index of each line's column, row 0
    cells = np.searchsorted(cdf.T.ravel(), cols + rng.random(len(cols)), side="right")
    # keep each line in its column whatever the rounding
    cells, lines = np.unique(np.clip(cells, first, first + rows - 1), return_counts=True)
    cols, row = np.divmod(cells, rows)
    lines = lines.astype(float)
    lines_log = np.log(lines)
    if dense.any():
        idx = np.flatnonzero(dense)
        d_lin, d_log = _poisson_log(lam_log[:, idx], rng)
        r, j = np.nonzero(d_lin > 0.0)
        cols, row = np.concatenate([cols, idx[j]]), np.concatenate([row, r])
        lines = np.concatenate([lines, d_lin[r, j]])
        lines_log = np.concatenate([lines_log, d_log[r, j]])
    return row, cols, lines, lines_log


def _log_expm1(y):
    """ln(e^y - 1) for y >= 0, -inf at 0, with no overflow at large y."""
    return y + _log_count(-np.expm1(-y))


def _window_cohorts(s_prev: np.ndarray, x, rates, rng: np.random.Generator):
    """Walk and immigrant cohorts of one window (prev, k], k = prev + w.

    ``x`` holds the window's w steps and ``rates`` its immigration rates
    mu_{prev+1}..mu_k, each of shape (w, reps) or broadcast to it; the
    steps are not kept past the walk. The walk is one array of w + 1
    rows, s[j] = S_{prev+j}, each row across all replicas. The cohorts
    are drawn in chunks of ``_COHORT_CHUNK`` rows from the right, so that
    the suffix sums T_i = ln sum_{j=i}^{k} e^{-S_j} run right to left
    with ``logaddexp``, one generation at a time, from T_k = -S_k: no
    walk increment underflows a suffix. Cohort i has A_i = e^{S_i - S_k}
    and ln(A_i + B_i) = S_i + T_i, so Poisson(lambda_i) of its lines
    survive, lambda_i = mu_{i+1} e^{-S_i - T_i}. Each chunk draws its
    lines with ``_cohort_lines``, in O(1) variates per replica plus O(1)
    per line, and only the cohorts left with a line go on to
    ``_descendants``, at ln B_i/A_i = ln(e^{T_i + S_k} - 1).

    Returns S_k, the suffix sum ln sum_{prev<=j<k} e^{-S_j}, the cohorts'
    total count at k as (linear, log), and
    ln sum_{prev<=i<k} mu_{i+1} e^{-S_i}.
    """
    reps = len(s_prev)
    w = len(x)
    s = np.empty((w + 1, reps))
    s[0] = s_prev
    np.cumsum(x, axis=0, out=s[1:])
    del x  # a caller that passes its draw directly frees it here
    s[1:] += s_prev
    s_k = s[w].copy()
    suffix = -s_k
    b_log = np.full(reps, -np.inf)
    cols, z_lin, z_log = [], [], []
    for hi in range(w, 0, -_COHORT_CHUNK):
        lo = max(hi - _COHORT_CHUNK, 0)
        s_i = s[lo:hi]
        t = np.negative(s_i)
        np.logaddexp(t[-1], suffix, out=t[-1])
        for j in range(len(t) - 2, -1, -1):
            np.logaddexp(t[j + 1], t[j], out=t[j])
        suffix = t[0].copy()
        lam_log = np.log(rates[lo:hi]) - s_i
        b_log = np.logaddexp(b_log, _log_col_sums(lam_log))
        lam_log -= t
        row, col, lines, lines_log = _cohort_lines(lam_log, rng)
        c_lin, c_log = _descendants(lines, lines_log,
                                    _log_expm1(t[row, col] + s_k[col]), rng)
        cols.append(col)
        z_lin.append(c_lin)
        z_log.append(c_log)
    cols = np.concatenate(cols)
    return (s_k, _log_expm1(suffix + s_k) - s_k,
            np.bincount(cols, np.concatenate(z_lin), reps).astype(float),
            _log_group_sums(np.concatenate(z_log), cols, reps), b_log)


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
            # the draw order fixes the bytes: the steps, then the rates, one call each
            s_k, suffix, new_lin, new_log, b_win = _window_cohorts(
                s_prev, model.draw_x(rng, (w, reps)),
                np.asarray(model.draw_rate(rng, (w, reps)), dtype=float), rng)
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
