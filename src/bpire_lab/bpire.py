"""The branching-with-immigration population process.

Offspring laws are geometric, so they compose in closed form over any
stretch of the walk, and every verdict draws its populations from that
composition: ``cohort_log_values`` for the cohort martingales of the
martingale check and ``limit_log_values`` for their J -> inf limits in
the ratio law, in O(1) variates per cohort, and
``simulate_normalized_at`` for the pre-limit process Y_n of theorem 1,
whose population is a sum of independent immigrant cohorts plus the
descendants carried from the previous probe. The window sampler behind
it, ``_window_cohorts``, takes the replicas in blocks of about 2^17 walk
cells. It sums each replica's window in the linear domain, shifted by
the window's lowest point, and takes the exact log-space path only for
a walk whose range exceeds 660; it then draws the block's surviving
lines by Poisson superposition, in O(1) variates per replica plus O(1)
per surviving line. It takes given steps and rates, so the martingale
check draws its conditional means E(Z_k | env) through it on fixed
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


def _log_group_sums(v: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """ln of the sums of e^v within each of ``n`` groups, shifted by each
    group's maximum; -inf on empty groups."""
    top = np.full(n, -np.inf)
    np.maximum.at(top, groups, v)
    top[~np.isfinite(top)] = 0.0
    return top + _log_count(np.bincount(groups, np.exp(v - top[groups]), n))


_MAX_WINDOW = 1024  # generations per window: bounds its step and rate arrays
# replicas per block: the runner's replica blocks and the ladder's walker
# blocks, each on its own stream; fixed, never a function of the worker count
_BLOCK_REPS = 2500
# walk cells per block of replicas: keeps a block's temporaries (1 MB each)
# in L2, and a 2,500-replica window of up to 51 generations in one block
_BLOCK_CELLS = 2 ** 17
# widest walk range summed in the linear domain: e^-660 ~ 2^-952 keeps each
# term e^{-(S_j - min S)} normal with 70 binary orders to spare for the
# rates, and a ratio of two sums of up to 1,024 terms finite
_LINEAR_RANGE = 660.0
# smallest rate sum kept in the linear domain: below it, subnormal terms
# could cost the sum bits; only rates under about 2^-8 can reach it
_LINEAR_FLOOR = 2.0 ** -960


def _row_groups(cells, count):
    """(lo, hi) bounds that split ``count`` rows of ``cells`` cells each,
    in order, into groups of about ``_BLOCK_CELLS`` cells."""
    rows = max(1, _BLOCK_CELLS // max(cells, 1))
    return [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _join(parts):
    """Block or row-group results joined in order: per key for dicts,
    along the last axis for arrays."""
    if isinstance(parts[0], dict):
        return {key: _join([p[key] for p in parts]) for key in parts[0]}
    return np.concatenate(parts, axis=-1)


def _cohort_lines(lam: np.ndarray, rng: np.random.Generator):
    """Surviving lines of independent Poisson(lambda) counts, one per cell
    of the (reps, cells) array ``lam``, returned for the occupied cells
    only: their replica and cell indices and (linear, log) line counts.

    By Poisson superposition a replica's lines are Poisson(sum lambda) in
    all, each placed in a cell independently with probability
    lambda_i / sum lambda. The placement is one flat ``searchsorted`` of
    the replicas' uniforms, sorted within each replica and scaled to its
    stretch of the row-major cumulative sum of ``lam``, as
    ``Generator.choice(p=)`` does for one replica. A replica that expects
    more lines than it has cells gains nothing from that and draws its
    cells directly, so no replica holds more than about one line per cell.
    """
    reps, cells = lam.shape
    total = lam.sum(axis=1)
    dense = total > cells
    rep = np.repeat(np.arange(reps), rng.poisson(np.where(dense, 0.0, total)))
    # sorted within a replica, the keys keep the search local and the
    # cells drawn stay the same
    u = np.clip(np.sort(rep + rng.random(len(rep))) - rep, 0.0, 1.0)
    cdf = np.cumsum(lam)
    start = np.concatenate([[0.0], cdf[cells - 1:-1:cells]])
    first = rep * cells  # flat index of each line's replica, cell 0
    flat = np.searchsorted(cdf, start[rep] + u * total[rep], side="right")
    # keep each line in its replica whatever the rounding
    flat, lines = np.unique(np.clip(flat, first, first + cells - 1), return_counts=True)
    rep, cell = np.divmod(flat, cells)
    lines = lines.astype(float)
    lines_log = np.log(lines)
    if dense.any():
        # cell-major, so a block's draws follow the order of its cells
        idx = np.flatnonzero(dense)
        d_lin, d_log = _poisson_log(_log_count(lam[idx].T), rng)
        c, j = np.nonzero(d_lin > 0.0)
        rep, cell = np.concatenate([rep, idx[j]]), np.concatenate([cell, c])
        lines = np.concatenate([lines, d_lin[c, j]])
        lines_log = np.concatenate([lines_log, d_log[c, j]])
    return rep, cell, lines, lines_log


def _log_sums(s: np.ndarray, rates: np.ndarray):
    """``_window_sums`` in logs, exact at any walk increment: lambda, ln
    b_win, the suffix and ln B_i/A_i of every cell."""
    w = rates.shape[1]
    d = s[:, w:] - s[:, :w]  # S_k - S_i = -ln A_i
    ba_log = np.logaddexp.accumulate(d[:, ::-1], axis=1)[:, ::-1]
    rate_log = np.log(rates)
    lam = np.exp(rate_log + d - np.logaddexp(0.0, ba_log))  # mu/(A + B), A + B = A(1 + B/A)
    return (lam, np.logaddexp.reduce(rate_log - s[:, :w], axis=1),
            ba_log[:, 0] - s[:, w], ba_log)


def _window_sums(s: np.ndarray, rates: np.ndarray):
    """Survival rates and sums of one block of windows' immigrant cohorts.

    ``s`` holds each replica's walk S_prev..S_k, shape (reps, w + 1), and
    ``rates`` its rates mu_{prev+1}..mu_k, shape (reps, w). Cohort i has
    A_i = e^{S_i - S_k} and B_i = sum_{i<=j<k} e^{S_i - S_j}, so
    Poisson(lambda_i) of its lines survive, lambda_i = mu_{i+1}/(A_i + B_i).
    A row is summed in the linear domain, shifted by its minimum
    m = min_j S_j: with p_j = e^{-(S_j - m)} in (2^-952, 1] and one reverse
    cumulative sum Q_i = sum_{i<=j<k} p_j, lambda_i = mu_{i+1} p_i/(Q_i + p_k)
    and B_i/A_i = Q_i/p_k, so each cell costs one exp and no log. A row
    whose range max S - m exceeds ``_LINEAR_RANGE``, or whose rate sum
    falls under ``_LINEAR_FLOOR``, could underflow a term and is summed in
    logs instead (``_log_sums``).

    Returns lambda, shape (reps, w); ln b_win = ln sum_i mu_{i+1} e^{-S_i};
    the suffix ln sum_{prev<=j<k} e^{-S_j}; a function giving ln B_i/A_i
    at given replica and cell indices; and the mask of rows summed in logs.
    """
    w = rates.shape[1]
    m = s.min(axis=1, keepdims=True)
    p = np.subtract(m, s)
    np.exp(p, out=p)  # underflows only on rows that are summed in logs
    q = np.empty(rates.shape)
    np.cumsum(p[:, w - 1::-1], axis=1, out=q[:, ::-1])
    p_k = p[:, w:]
    mp = np.multiply(p[:, :w], rates, out=p[:, :w])
    total = mp.sum(axis=1)
    exact = (s.max(axis=1) - m[:, 0] > _LINEAR_RANGE) | (total < _LINEAR_FLOOR)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # those rows only
        lam = q + p_k  # apart from q: q + p_k - p_k is 0 where Q_i << p_k
        np.divide(mp, lam, out=lam)
        b_win = np.log(total) - m[:, 0]
        suffix = np.log(q[:, 0]) - m[:, 0]
    ba_exact = None
    if exact.any():
        lam[exact], b_win[exact], suffix[exact], ba_exact = _log_sums(s[exact], rates[exact])

    def ba_log(rep, cell):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.log(q[rep, cell] / p_k[rep, 0])
        if ba_exact is not None:
            on = exact[rep]
            out[on] = ba_exact[(np.cumsum(exact) - 1)[rep[on]], cell[on]]
        return out

    return lam, b_win, suffix, ba_log, exact


def _window_cohorts(s_prev: np.ndarray, x, rates, rng: np.random.Generator):
    """Walk and immigrant cohorts of one window (prev, k], k = prev + w.

    ``x`` holds the window's w steps and ``rates`` its immigration rates
    mu_{prev+1}..mu_k, each of shape (reps, w) or broadcast to it. The
    replicas are taken in blocks of about ``_BLOCK_CELLS`` walk cells. A
    block builds its walk, s[r, j] = S_{prev+j} - S_prev of replica r,
    takes the cohorts' survival rates and sums from ``_window_sums``,
    draws their lines with ``_cohort_lines``, in O(1) variates per
    replica plus O(1) per line, and sends only the cohorts left with a
    line on to ``_descendants``.

    Returns S_k, the suffix sum ln sum_{prev<=j<k} e^{-S_j}, the cohorts'
    total count at k as (linear, log), and
    ln sum_{prev<=i<k} mu_{i+1} e^{-S_i}.
    """
    reps, w = x.shape
    s_k, suffix, b_win = np.empty(reps), np.empty(reps), np.empty(reps)
    z_lin, z_log = np.empty(reps), np.empty(reps)
    for lo, hi in _row_groups(w + 1, reps):
        # the walk from S_prev = 0: every sum but b_win and the suffix is
        # shift-invariant, and those two take S_prev back at the end
        s = np.empty((hi - lo, w + 1))
        s[:, 0] = 0.0
        np.cumsum(x[lo:hi], axis=1, out=s[:, 1:])
        s_k[lo:hi] = s[:, w]
        lam, b_win[lo:hi], suffix[lo:hi], ba_log, _ = _window_sums(s, rates[lo:hi])
        rep, cell, lines, lines_log = _cohort_lines(lam, rng)
        c_lin, c_log = _descendants(lines, lines_log, ba_log(rep, cell), rng)
        z_lin[lo:hi] = np.bincount(rep, c_lin, hi - lo)
        z_log[lo:hi] = _log_group_sums(c_log, rep, hi - lo)
    return s_k + s_prev, suffix - s_prev, z_lin, z_log, b_win - s_prev


def simulate_normalized_at(model, n: int, ts, reps: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Batch-draw Y_n(t) = e^{-S_k} Z_k / b_k, k = floor(n t), for t in
    ``ts`` across independent environments.

    The probe generations are visited in ascending order, one window
    (prev, k] at a time. A window longer than ``_MAX_WINDOW`` generations
    is split at unreported checkpoints, so memory holds at most that many
    generations of steps and rates whatever the horizon. Z_k sums the
    window's immigrant cohorts, each drawn from its composed law, and the
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
                s_prev, model.draw_x(rng, (reps, w)), model.draw_rate(rng, (reps, w)), rng)
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
