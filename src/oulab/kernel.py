"""The transition kernel of the semigroup relative to its invariant measure,
with time derivatives, zero counting, and calibration of pointwise bounds.

Writing gamma_t for the centered Gaussian with covariance Qt, the kernel is

    K_t(x, u) = gamma_t-density(e^{tB} x - u) / gamma_inf-density(u)
              = (det Qinf / det Qt)^{1/2} e^{R(x)}
                exp(-<(Qt^-1 - Qinf^-1)(u - Dt x), u - Dt x> / 2).

One evaluator gives log K on every route: per time, matrices P, R, G and
const = (log det Qinf - log det Qt)/2 give

    log K = const + R(x) - <G y, y>/2,   y = P u - R x.

For t <= T_SWITCH = 1 they are the direct form above, (I, Dt, A) with
A = Qt^-1 - Qinf^-1.  For t > 1 they are (D_{-t}, I, M_t), the form in
v = D_{-t} u - x with M_t = Qinf^-1 + N_t, N_t = (I - S Qinf)^-1 S and
S = e^{tB^T} Qinf^-1 e^{tB}, whose factors all decay; the direct
difference Qt^-1 - Qinf^-1 loses every digit to cancellation once t is
large.

log_kernel_grid returns log K - R(x), without the prefactor e^{R(x)} (up
to e^{258} on the calibration samples); only log_kernel_pairs and
log_kernel add R(x).

The time slope comes from the backward equation d/dt K = L_x K with
L = tr(Q D^2)/2 + <Bx, D>.  log K is quadratic in x, with x-gradient
g = Qinf^-1 x + R^T G y and x-Hessian H = -N_t (N_t = M_t - Qinf^-1 below
T_SWITCH), so

    d/dt log K = tr(Q H)/2 + <Q g, g>/2 + <Bx, g>.

The naive H = Qinf^-1 - M_t would cancel for large t exactly as the direct
form does.  Against Mehler's closed form the slope holds about 1e-13
relative for t in [1e-4, 40].

Both quantities take per-time factors from one propagator stack, with the
time axis last, and form every product elementwise in a fixed order
(_dot).  So a pair gets the same bits against a time grid (one block
driver, over whole rows) as with one time per pair (one argument helper).
The zero counts, the tail integral and the bound calibration reduce each
block as it is evaluated, and keep no (pairs, times) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import (ArgumentRangeError, BadOrderError,
                     NonPositiveTimeError, NumericalOverflowError,
                     RateTooLargeError)
from .model import (OUModel, Propagators, T_SWITCH, propagators, quadratic_r)
from .rng import substream

_LOG_MAX = 700.0            # exp overflows just above this
# pair-time cells per evaluation block of a grid route, whole rows of few
# pairs against all times: long inner loops, temporaries in cache.  A block
# temporary of 8192 doubles is 64 KiB, under glibc's default 128 KiB mmap
# threshold, so the blocks reuse heap memory instead of mapping (and
# faulting in) fresh pages for every temporary
_BLOCK_CELLS = 1 << 13


def _dot(row, vec):
    """sum_j row[j] vec[j], in a fixed order so that every shape of the
    operands rounds alike."""
    acc = row[0] * vec[0]
    for j in range(1, len(vec)):
        acc = acc + row[j] * vec[j]
    return acc


def _pair_args(model: OUModel, ts, x, u):
    """(props, x, u) for a route with one time per pair, x and u (m, n)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    x, u = np.broadcast_arrays(x, u)
    if x.shape[0] == 1 and ts.size > 1:
        x = np.broadcast_to(x, (ts.size, x.shape[1]))
        u = np.broadcast_to(u, (ts.size, u.shape[1]))
    return propagators(model, ts), x, u


def _on_grid(evaluate, m: int, *points):
    """Yield (rows, evaluate(*blocks)) for blocks of whole rows: the slice
    rows of each point array (p, n) of points, such as the pairs x, u, as
    (n, rows, 1), against m times.  The values are elementwise, so bits
    ignore the block shape."""
    blocks = [np.atleast_2d(np.asarray(v, dtype=float)).T[:, :, None]
              for v in points]                      # (n, p, 1) each
    size = max(1, _BLOCK_CELLS // m)
    for lo in range(0, blocks[0].shape[1], size):
        rows = slice(lo, lo + size)
        yield rows, evaluate(*(b[:, rows] for b in blocks))


def _time_last(a: np.ndarray) -> np.ndarray:
    """A (m, n, n) stack of per-time matrices as (n, n, m), so that every
    matrix entry is one contiguous row over the times."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


# ---------------------------------------------------------------------------
# log K


def _logk_factors(model: OUModel, props: Propagators) -> tuple:
    """Per-time factors (P, R, G, const) of log K for every time of props,
    as in the module docstring: P, R and G as (n, n, m), const as (m,).
    Below T_SWITCH they are (I, Dt, A), above it (D_{-t}, I, M)."""
    small = (props.ts <= T_SWITCH)[:, None, None]
    eye = np.eye(model.n)
    P = np.where(small, eye, props.Dmt)
    R = np.where(small, props.Dt, eye)
    G = np.where(small, props.A_small, props.M_large)
    return (_time_last(P), _time_last(R), _time_last(G),
            0.5 * (model.logdet_Qinf - props.logdet_Qt))


def _logk_eval(model: OUModel, factors: tuple, x, u):
    """log K - R(x) from the factors of _logk_factors.

    x and u hold one point per component, (n, ...); their pair shape
    broadcasts against the time shape of the factors."""
    P, R, G, const = factors
    n = model.n
    y = [_dot(P[i], u) - _dot(R[i], x) for i in range(n)]
    gy = [_dot(G[i], y) for i in range(n)]
    return -0.5 * _dot(gy, y) + const


def log_kernel_grid(model: OUModel, props: Propagators, x, u) -> np.ndarray:
    """log K_t(x_i, u_i) - R(x_i) for every pair i of x, u (p, n) and
    every grid time, (p, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], props.ts.size))
    for rows, val in _on_grid(
            partial(_logk_eval, model, _logk_factors(model, props)),
            props.ts.size, x, u):
        out[rows] = val
    return out


def log_kernel_pairs(model: OUModel, ts, x, u) -> np.ndarray:
    """log K_{t_i}(x_i, u_i) with one time per pair, (m,)."""
    props, x, u = _pair_args(model, ts, x, u)
    return (_logk_eval(model, _logk_factors(model, props), x.T, u.T)
            + quadratic_r(model, x))


def log_kernel(model: OUModel, t: float, x, u) -> float:
    if t <= 0:
        raise NonPositiveTimeError("kernel time must be positive")
    return float(log_kernel_pairs(model, np.array([float(t)]), x, u)[0])


def kernel(model: OUModel, t: float, x, u) -> float:
    lk = log_kernel(model, t, x, u)
    if lk > _LOG_MAX:
        raise NumericalOverflowError(
            f"log K = {lk:.3e} overflows; use log_kernel")
    return float(np.exp(lk))


# ---------------------------------------------------------------------------
# the time slope, from the backward equation d/dt K = L_x K


def _inf_norm(a: np.ndarray) -> np.ndarray:
    """Infinity norms of the matrices stacked on the last two axes."""
    return np.abs(a).sum(axis=-1).max(axis=-1)


def _slope_factors(model: OUModel, props: Propagators) -> tuple:
    """Per-time factors of d/dt log K for every time of props.

    The x-gradient of log K is g = C u - N x and its x-Hessian is -N, so

        d/dt log K = h0 + <Q g, g>/2 + <Bx, g>,   h0 = -tr(Q N)/2.

    Expanding y in the gradient of the module docstring gives C = R^T G P:
    Dt^T A below T_SWITCH and M D_{-t} above it, where A would cancel.

    Returns (C, N, h0, kappa): C and N as (n, n, m), so that every matrix
    entry is one row over the times, then (m,) rows of h0 and of kappa,
    n eps times a first-order bound on the relative error of the factors,
    which sets the slope's rounding floor: Qt = Qinf - e^{tB} Qinf
    e^{tB^T} carries an absolute error of about eps |Qinf|, so Qt^-1 a
    relative one of eps |Qinf| |Qt^-1| (generously so below t = 1e-3,
    where Qt comes from a series); the differences A and N amplify it by
    their cancellation ratios; and e^{tB} adds the error eps t |B| of its
    argument.
    """
    small = props.ts <= T_SWITCH
    C = np.empty_like(props.N)
    C[small] = np.swapaxes(props.Dt[small], -1, -2) @ props.A_small[small]
    C[~small] = props.M_large[~small] @ props.Dmt[~small]
    h0 = -0.5 * np.einsum("ij,mji->m", model.Q, props.N)
    qt_inv_norm = _inf_norm(props.Qt_inv)
    # below T_SWITCH, A = Qt^-1 - Qinf^-1 and N = M - Qinf^-1 are formed as
    # differences, which cancel as t approaches 1
    amp = np.ones_like(props.ts)
    qinf_inv_norm = _inf_norm(model.Qinf_inv)
    amp[small] = ((qt_inv_norm[small] + qinf_inv_norm)
                  / _inf_norm(props.A_small[small])
                  * (_inf_norm(props.M_large[small]) + qinf_inv_norm)
                  / _inf_norm(props.N[small]))
    kappa = model.n * np.finfo(float).eps * (
        _inf_norm(model.Qinf) * qt_inv_norm * amp
        + _inf_norm(model.B) * props.ts)
    return _time_last(C), _time_last(props.N), h0, kappa


def _slope_eval(model: OUModel, factors: tuple, x, u):
    """d/dt log K and its rounding floor from the factors of _slope_factors.

    x and u are as in _logk_eval.  The floor is kappa times the sum of the
    magnitudes of the three terms: the factors' relative error carried
    through each of them.
    """
    C, N, h0, kappa = factors
    n = model.n
    g = [_dot(C[i], u) - _dot(N[i], x) for i in range(n)]
    qg = [_dot(model.Q[i], g) for i in range(n)]
    bx = [_dot(model.B[i], x) for i in range(n)]
    half_quad = 0.5 * _dot(qg, g)
    lin = _dot(bx, g)
    slope = h0 + half_quad + lin
    return slope, kappa * (np.abs(h0) + half_quad + np.abs(lin))


def logk_time_slope(model: OUModel, ts, x, u
                    ) -> tuple[np.ndarray, np.ndarray]:
    """d/dt log K_{t_i}(x_i, u_i) with one time per pair, (m,) each.

    Returns (slope, rounding floor).  The slope is L_x K / K from the
    backward equation, exact up to rounding; see _slope_factors.
    """
    props, x, u = _pair_args(model, ts, x, u)
    return _slope_eval(model, _slope_factors(model, props), x.T, u.T)


def logk_time_slope_grid(model: OUModel, props: Propagators, x, u
                         ) -> tuple[np.ndarray, np.ndarray]:
    """d/dt log K_t(x_i, u_i) for every pair i and every time of props,
    (p, m) each, as in logk_time_slope.

    Returns (slope, rounding floor).  The per-time factors are formed once
    and shared by all pairs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    slope, floor = (np.empty((x.shape[0], props.ts.size)) for _ in range(2))
    for rows, (s, f) in _on_grid(
            partial(_slope_eval, model, _slope_factors(model, props)),
            props.ts.size, x, u):
        slope[rows], floor[rows] = s, f
    return slope, floor


# ---------------------------------------------------------------------------
# zeros of t -> dK/dt on (0, 1]

# bisection stops once every bracket of a zero is narrower than this
_REFINE_WIDTH = 1e-10


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: np.ndarray
    stable: bool


def _sign_changes(slope: np.ndarray, floor: np.ndarray):
    """(row, left column, right column) of every strict sign flip of the
    rows of slope, (p, m), treating NaN and values within the rounding
    floor as zero: left and right are neighbouring nonzero signs of one
    row, with opposite signs."""
    tol = np.maximum(1e-13, 4.0 * floor)
    s = np.where(np.abs(slope) > tol, np.sign(slope), 0).astype(np.int8)
    rows, cols = np.nonzero(s)
    signs = s[rows, cols]
    flip = (rows[1:] == rows[:-1]) & (signs[1:] != signs[:-1])
    return rows[1:][flip], cols[:-1][flip], cols[1:][flip]


def _flip_counts(slope: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per row of slope (p, m), the flips _sign_changes counts: a row with no
    value within its floor flips where neighbouring signs differ."""
    pos = slope > 0
    counts = np.count_nonzero(pos[:, 1:] != pos[:, :-1], axis=1)
    clear = np.abs(slope) > np.maximum(1e-13, 4.0 * floor)
    near = np.flatnonzero(~clear.all(axis=1))
    rows, _, _ = _sign_changes(slope[near], floor[near])
    counts[near] = np.bincount(rows, minlength=near.size)
    return counts


def _scan_grid(t_interval: tuple[float, float], n_scan: int) -> np.ndarray:
    """The log-spaced scan grid of n_scan times over the interval."""
    t_lo, t_hi = t_interval
    if t_lo <= 0 or t_hi <= t_lo:
        raise NonPositiveTimeError("need 0 < t_lo < t_hi")
    if n_scan < 2:
        raise ArgumentRangeError("the zero scan needs at least 2 times")
    return np.geomspace(t_lo, t_hi, n_scan)


def _scan_counts(model: OUModel, X: np.ndarray, U: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Per pair of X, U, the slope's sign flips on the grid (_flip_counts),
    reduced block by block."""
    counts = np.empty(X.shape[0], dtype=np.intp)
    for rows, (slope, floor) in _on_grid(
            partial(_slope_eval, model,
                    _slope_factors(model, propagators(model, grid))),
            grid.size, X, U):
        counts[rows] = _flip_counts(slope, floor)
    return counts


def count_kdot_zeros(model: OUModel, x, u,
                     t_interval: tuple[float, float] = (1e-8, 1.0),
                     n_scan: int = 4096) -> ZeroCount:
    """Count sign changes of t -> dK/dt(x, u) on the interval.

    Log-spaced scan, each flip refined by bisection; the count is rerun on
    a doubled grid and flagged unstable if it moves.
    """
    X = np.asarray(x, dtype=float).reshape(1, model.n)
    U = np.asarray(u, dtype=float).reshape(1, model.n)
    grid = _scan_grid(t_interval, n_scan)
    fine = _scan_grid(t_interval, 2 * n_scan)
    slope, floor = logk_time_slope_grid(model, propagators(model, grid), X, U)
    _, left, right = _sign_changes(slope, floor)
    lo, hi, left_sign = grid[left], grid[right], np.sign(slope[0, left])
    # bisect every flagged bracket at once
    while np.max(hi - lo, initial=0.0) > _REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        sm, _ = logk_time_slope(model, mid, X, U)
        same = np.sign(sm) == left_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    count = _flip_counts(slope, floor)[0]
    return ZeroCount(count=int(count), zeros=np.sort(0.5 * (lo + hi)),
                     stable=bool(count == _scan_counts(model, X, U, fine)[0]))


def count_kdot_zeros_batch(model: OUModel, X, U,
                           t_interval: tuple[float, float] = (1e-8, 1.0),
                           n_scan: int = 4096):
    """Zero counts for many pairs at once; returns (counts, stable mask).
    The count is rerun on a doubled grid and a pair is unstable if its
    count moves."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    grid = _scan_grid(t_interval, n_scan)
    fine = _scan_grid(t_interval, 2 * n_scan)
    counts = _scan_counts(model, X, U, grid)
    return counts, counts == _scan_counts(model, X, U, fine)


# ---------------------------------------------------------------------------
# calibration of the pointwise bounds

BOUND_NAMES = ("kernel-small-t", "dkernel-small-t", "dkernel-large-t",
               "tail-integral")
_T_LARGE = 50.0             # top of the large-time calibration range


@dataclass(frozen=True)
class BoundCalibration:
    which: str
    exponent_rate: float        # the c actually used
    prefactor_cap: float        # smallest C making the bound hold on the grid
    stable: bool


def natural_rate(model: OUModel) -> float:
    """Half the smallest eigenvalue of Q^-1: the Gaussian rate of the
    short-time convolution approximant, an upper barrier for any c."""
    return 0.5 / float(np.linalg.eigvalsh(model.Q).max())


def admissible_rate(model: OUModel, which: str) -> float:
    """Largest exponent rate the kernel's own quadratic form supports,
    from eigenvalue infima over the relevant time range (512 times),
    shrunk by the safety factor 0.9."""
    if which not in BOUND_NAMES:
        raise BadOrderError(f"unknown bound name {which!r}")
    safety = 0.9
    if which in ("kernel-small-t", "dkernel-small-t"):
        ts = np.geomspace(1e-6, 1.0, 512)
        pr = propagators(model, ts)
        lam = np.linalg.eigvalsh(pr.A_small).min(axis=1)
        cap = float(np.min(ts * lam) / 2.0)
    else:
        ts = np.geomspace(1.0, _T_LARGE, 512)
        pr = propagators(model, ts)
        lam = np.linalg.eigvalsh(pr.M_large).min(axis=1)
        cap = float(min(lam.min() / 2.0, -model.spectral_abscissa))
    return safety * min(cap, natural_rate(model) / safety)


def _calibration_sample(model: OUModel, n_samples: int, seed: int):
    """(x, u) pairs: Gaussian cloud plus deterministic far-field spikes.

    Spikes sit at evenly spaced positions with radius growing through the
    sample, so each doubling of the prefix sees strictly more extreme pairs;
    an inadmissible rate then makes the prefix maxima climb instead of
    saturating on whichever spike a shuffle happened to put first."""
    gen = substream(seed, 0)
    n = model.n
    x = gen.standard_normal((n_samples, n)) * 2.0
    u = gen.standard_normal((n_samples, n)) * 2.0
    # spikes along the least-decaying direction, large |u| and moderate |x|
    w, v = np.linalg.eigh(model.Qinf_inv)
    d = v[:, 0]
    spikes = max(4, n_samples // 100)
    pos = (np.arange(spikes, dtype=np.int64) * n_samples) // spikes
    radii = 5.0 + 25.0 * np.arange(spikes) / max(spikes - 1, 1)
    for k, (i, r) in enumerate(zip(pos, radii)):
        u[i] = r * d * (1 if k % 2 == 0 else -1)
        x[i] = (r / 4) * d
    return x, u


def _ratio_eval(model: OUModel, which: str, factors: tuple, x, u):
    """(a, b, dnorm) of one block: everything c-independent in log(true /
    rhs with C = 1).  At rate c the log ratio is a + c b, less
    log(dnorm + e^{-ct}) for dkernel-large-t (dnorm is None otherwise).

    x and u are as in _logk_eval; factors are (log K factors, slope
    factors or None, D, ts), with D = Dt, or D_{-t} for dkernel-large-t,
    as (n, n, m).  log K enters less R(x): every right-hand side carries
    the factor e^{R(x)}."""
    logk, slope, D, ts = factors
    n = model.n
    lk = _logk_eval(model, logk, x, u)
    if slope is not None:
        s, _ = _slope_eval(model, slope, x, u)
        with np.errstate(divide="ignore"):
            lk = lk + np.log(np.abs(s))                 # log |dK/dt|
    if which == "dkernel-large-t":
        dv = [_dot(D[i], u) for i in range(n)]
        v = [dv[i] - x[i] for i in range(n)]
        return lk, _dot(v, v), np.sqrt(_dot(dv, dv))
    w = [u[i] - _dot(D[i], x) for i in range(n)]
    a = lk + 0.5 * n * np.log(ts)
    if which == "dkernel-small-t":
        a = a - np.log(1.0 / ts + np.sqrt(_dot(x, x)) / np.sqrt(ts))
    return a, _dot(w, w) / ts, None


def _ratio_blocks(model: OUModel, which: str, x, u, ts, ends):
    """(group, a, b, dnorm) of _ratio_eval for blocks of whole rows of the
    pairs x, u (p, n) against the times ts, in pair order; group k holds
    the pairs ends[k]:ends[k + 1], and no block spans two groups.

    Every pair meets the same deterministic time grid; the rate test
    takes a per-pair supremum over it, which removes the sampling noise a
    random time per pair would add to the max statistic."""
    pr = propagators(model, ts)
    factors = (_logk_factors(model, pr),
               None if which == "kernel-small-t" else _slope_factors(model,
                                                                     pr),
               _time_last(pr.Dmt if which == "dkernel-large-t" else pr.Dt),
               ts)
    evaluate = partial(_ratio_eval, model, which, factors)
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        for _, pieces in _on_grid(evaluate, ts.size, x[lo:hi], u[lo:hi]):
            yield (k, *pieces)


def _log_ratios(a, b, dnorm, decay, c: float) -> np.ndarray:
    """The log ratio a + c b of every cell at rate c, less log(dnorm +
    decay) where the cells carry dnorm (decay: e^{-ct} at their times),
    formed in one buffer.  Sums and products commute, so the bits are
    those of a + c b - log(dnorm + decay)."""
    vals = np.multiply(b, c)
    vals += a
    if dnorm is not None:
        d = np.add(dnorm, decay)
        vals -= np.log(d, out=d)
    return vals


def _finite_max(vals: np.ndarray) -> float:
    """The largest finite value, -inf for none."""
    return float(vals.max(where=np.isfinite(vals), initial=-np.inf))


def _live(a, at_hi, top: float, margin: float, spread: float) -> np.ndarray:
    """The cells that may still set a prefix maximum that is at least top
    at the bottom of the bracket: a finite a, and a log ratio at its top
    that is not finite or not below top - margin (1 + |top| + spread)."""
    return np.isfinite(a) & ~(np.isfinite(at_hi) & (
        at_hi < top - margin * (1.0 + abs(top) + spread)))


def _prefix_max_log_ratios(groups, ts, c: float):
    """(maxima, ratios) at rate c over flat groups of cells (a, b, dnorm,
    time column): the largest finite log ratio up to each group (-inf for
    none), and per group the log ratio of every cell (_log_ratios)."""
    decay = None if ts is None else np.exp(-c * ts)
    maxima, ratios, top = [], [], -np.inf
    for a, b, dnorm, cols in groups:
        vals = _log_ratios(a, b, dnorm,
                           None if dnorm is None else decay[cols], c)
        top = max(top, _finite_max(vals))
        maxima.append(top)
        ratios.append(vals)
    return maxima, ratios


def _prune(groups, at_hi, at_lo, margin: float, spread: float):
    """(groups, at_hi) less the cells that are not _live against their
    group's prefix maximum at lo."""
    keeps = [_live(g[0], v, top, margin, spread)
             for g, v, top in zip(groups, at_hi, at_lo)]
    return ([tuple(None if f is None else f[k] for f in g)
             for g, k in zip(groups, keeps)],
            [v[k] for v, k in zip(at_hi, keeps)])


def _flat_group(parts):
    """One flat group (a, b, dnorm, time column) and its log ratios at hi,
    joined from the kept (a, b, dnorm, column, ratio) parts of its
    blocks."""
    if not parts:
        return (np.empty(0), np.empty(0), None, None), np.empty(0)
    *cells, at_hi = (None if f[0] is None else np.concatenate(f)
                     for f in zip(*parts))
    return tuple(cells), at_hi


def _score_blocks(blocks, n_groups: int, ts, c: float,
                  hi: float | None = None, margin: float = 0.0):
    """Score a stream of (group, a, b, dnorm) blocks at rate c as it comes.

    Returns (maxima, groups, at_hi, spread).  maxima are the prefix maxima
    at c over the n_groups groups, as _prefix_max_log_ratios gives them.
    Given hi, each block is scored at hi too, and keeps only its cells
    that are _live against the running maximum at c and the running
    spread log(max dnorm + 1), both over the blocks so far; groups and
    at_hi are then the flat groups of the kept cells and their log ratios
    at hi, and spread is the final one (0 without dnorm).  Without hi they
    are None and nothing is kept."""
    decay = None if ts is None else np.exp(-c * ts)
    decay_hi = None if ts is None or hi is None else np.exp(-hi * ts)
    tops = [-np.inf] * n_groups
    kept = [[] for _ in range(n_groups)]
    top, dmax, spread = -np.inf, -np.inf, 0.0
    for k, a, b, dnorm in blocks:
        top = max(top, _finite_max(_log_ratios(a, b, dnorm, decay, c)))
        tops[k] = top
        if hi is None:
            continue
        if dnorm is not None:
            dmax = np.maximum(dmax, dnorm.max(initial=-np.inf))
            spread = float(np.log(dmax + 1.0))
        at_hi = _log_ratios(a, b, dnorm, decay_hi, hi)
        keep = _live(a, at_hi, top, margin, spread)
        kept[k].append((a[keep], b[keep]) + (
            (None, None) if dnorm is None
            else (dnorm[keep], np.nonzero(keep)[-1].astype(np.intc)))
            + (at_hi[keep],))
    maxima = list(accumulate(tops, max))
    if hi is None:
        return maxima, None, None, spread
    groups, at_hi = zip(*map(_flat_group, kept))
    return maxima, list(groups), list(at_hi), spread


def _prefactor_cap(log_cap) -> float:
    """e^log_cap; a log cap past the largest double gives inf, quietly."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_cap))


def _rate_maxima(blocks, n_groups: int, ts, c: float | None, hi: float,
                 steps: int, margin: float = 0.0):
    """(rate, prefix maxima at that rate) over a stream of (group, a, b,
    dnorm) blocks in pair order, group k the cells that the k-th prefix
    adds, with times ts for dnorm: c if given, else the largest rate in
    [0, hi], to `steps` halvings, whose last prefix maximum exceeds the
    one before it by at most log 1.1.

    The bisection drops cells that can no longer set a prefix maximum.  A
    cell's log ratio a + c b [- log(dnorm + e^{-ct})] is nondecreasing in c
    (b >= 0), and every later rate lies in [lo, hi].  So a cell whose ratio
    at hi is below a maximum at lo of cells that every prefix holding it
    holds stays below each such prefix's maximum.  The blocks are scored
    at 0 and at hi as they come, and a cell is kept only if it is not
    below the running maximum at 0 over the blocks so far: those cells lie
    in the block's group or before it, so the running maximum is at most
    the group's prefix maximum, and no (pairs, times) array is formed.
    Each step then prunes against the full prefix maxima at lo.  Cells
    with no finite a go at once; cells with no finite ratio at hi stay.
    a + c b rounds monotonically in c; exp and log need not, so groups
    with dnorm take a margin (see _live), whose spread log(max dnorm + 1)
    runs over the cells seen so far and so bounds the log term of both the
    dropped cell and the cell that sets the maximum.
    """
    if c is not None:
        return c, _score_blocks(blocks, n_groups, ts, c)[0]
    lo = 0.0
    at_lo, groups, at_hi, spread = _score_blocks(blocks, n_groups, ts, lo,
                                                 hi, margin)
    for _ in range(steps):
        groups, at_hi = _prune(groups, at_hi, at_lo, margin, spread)
        mid = 0.5 * (lo + hi)
        maxima, at_mid = _prefix_max_log_ratios(groups, ts, mid)
        if maxima[-1] <= maxima[-2] + np.log(1.1):
            lo, at_lo = mid, maxima
        else:
            hi, at_hi = mid, at_mid
    return lo, at_lo


def calibrate_bound(model: OUModel, which: str, n_samples: int = 10_000,
                    seed: int = 0, c: float | None = None
                    ) -> BoundCalibration:
    """Calibrate one of the pointwise kernel bounds on a Monte Carlo grid.

    For an explicit rate c > 0 the largest observed ratio (true quantity
    over the c-rate right-hand side) is reported together with a stability
    flag: at most 10 percent growth when the sample doubles.  Sustained growth
    across two doublings raises RateTooLarge.  Without c, the largest
    stable rate is found by bisection below the natural Gaussian rate
    (_rate_maxima, 30 steps, prefixes of n/4, n/2 and n pairs).  The
    ratio pieces are evaluated block by block of pairs and scored as they
    come: a cell is kept only while it is not below the running maximum
    at rate 0, which no later rate lowers, so memory stays with the cells
    that can still set a prefix maximum.  dkernel-large-t prunes with a
    margin of 1e-12 (1 + |max| + log(max dnorm + 1)), the dnorm maximum
    running over the cells seen so far.
    """
    if which not in BOUND_NAMES:
        raise BadOrderError(f"unknown bound name {which!r}")
    if n_samples < 4:
        raise ArgumentRangeError("calibration needs at least 4 samples")
    if c is not None and not c > 0:
        raise ArgumentRangeError(f"rate must be positive, got {c:g}")
    if which == "tail-integral":
        return _calibrate_tail_integral(model, n_samples, seed)
    x, u = _calibration_sample(model, n_samples, seed)
    if which in ("kernel-small-t", "dkernel-small-t"):
        ts = np.geomspace(1e-6, 1.0, 48)
    else:
        ts = np.geomspace(1.0, _T_LARGE, 48)
    ends = (0, n_samples // 4, n_samples // 2, n_samples)
    margin = 1e-12 if which == "dkernel-large-t" else 0.0
    rate, (m4, m2, m1) = _rate_maxima(
        _ratio_blocks(model, which, x, u, ts, ends), len(ends) - 1, ts, c,
        natural_rate(model), 30, margin)
    stable = bool(m1 <= m2 + np.log(1.1))
    if c is not None and (not stable and m2 > m4 + np.log(1.1)
                          or not np.isfinite(m1)):
        raise RateTooLargeError(
            f"ratios diverge at c={c:g}; admissible rate is "
            f"{admissible_rate(model, which):.4g}")
    return BoundCalibration(which=which, exponent_rate=float(rate),
                            prefactor_cap=_prefactor_cap(m1), stable=stable)


def _calibrate_tail_integral(model: OUModel, n_samples: int,
                             seed: int) -> BoundCalibration:
    """max over (x, u) of int_1^50 |dK/dt| dt / e^{R(x)}; the integral is
    the total variation of t -> K_t on a fine log grid."""
    gen = substream(seed, 1)
    n = model.n
    m = min(n_samples, 2000)
    x = gen.standard_normal((m, n)) * 2.0
    u = gen.standard_normal((m, n)) * 2.0
    rate = admissible_rate(model, "dkernel-large-t")

    def tv_over_e_r(grid_size: int) -> np.ndarray:
        """Per-pair total variation of K / e^{R(x)} on the grid."""
        grid = np.geomspace(1.0, _T_LARGE, grid_size)
        tv = np.empty(m)
        for rows, lk in _on_grid(partial(_logk_eval, model, _logk_factors(
                model, propagators(model, grid))), grid_size, x, u):
            tv[rows] = np.abs(np.diff(np.exp(lk), axis=1)).sum(axis=1)
        return tv

    tv = tv_over_e_r(1024)
    r_half = float(tv[:m // 2].max())
    r_full = float(tv.max())
    r_fine = float(tv_over_e_r(2048).max())
    stable = (r_full <= 1.1 * r_half) and (r_fine <= 1.1 * r_full)
    return BoundCalibration(which="tail-integral", exponent_rate=rate,
                            prefactor_cap=max(r_full, r_fine), stable=stable)


def kernel_bounds_probe(model: OUModel, n_samples: int = 10_000,
                        seed: int = 0) -> "ProbeReport":
    """Every bound in BOUND_NAMES calibrated on one sample: its rate, its
    prefactor cap, and whether the cap is finite and stable."""
    from .report import ProbeReport
    rows, stats, flags = [], {}, {}
    for w in BOUND_NAMES:
        cal = calibrate_bound(model, w, n_samples=n_samples, seed=seed)
        rows.append({"bound": w, "rate": cal.exponent_rate,
                     "prefactor_cap": cal.prefactor_cap,
                     "stable": cal.stable})
        stats[f"{w}/rate"] = cal.exponent_rate
        stats[f"{w}/cap"] = cal.prefactor_cap
        flags[f"{w}/stable"] = cal.stable
        flags[f"{w}/finite"] = bool(cal.prefactor_cap < float("inf"))
    return ProbeReport(
        name="kernel-bounds",
        claim=("each pointwise kernel estimate holds with a finite "
               "prefactor at its calibrated Gaussian rate, stable under "
               "sample doubling"),
        inputs={"samples": n_samples},
        statistics=stats,
        tables={"calibrations": rows},
        pass_flags=flags,
        seed=seed)
