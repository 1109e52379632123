"""The transition kernel of the semigroup relative to its invariant measure,
with time derivatives, zero counting, and calibration of pointwise bounds.

Writing gamma_t for the centered Gaussian with covariance Qt, the kernel is

    K_t(x, u) = gamma_t-density(e^{tB} x - u) / gamma_inf-density(u)
              = (det Qinf / det Qt)^{1/2} e^{R(x)}
                exp(-<(Qt^-1 - Qinf^-1)(u - Dt x), u - Dt x> / 2).

Two algebraically equal quadratic forms are used: the direct one above for
t <= 1, and for t > 1 the form <M_t v, v> in v = D_{-t} u - x with
M_t = Qinf^-1 + (I - S Qinf)^-1 S, S = e^{tB^T} Qinf^-1 e^{tB}, whose
factors all decay; the direct difference Qt^-1 - Qinf^-1 loses every digit
to cancellation once t is large.  Write N_t = M_t - Qinf^-1; above
T_SWITCH = 1 it is the resolvent term (I - S Qinf)^-1 S itself.

The time slope comes from the backward equation d/dt K = L_x K with
L = tr(Q D^2)/2 + <Bx, D>.  log K is quadratic in x, with x-gradient g and
x-Hessian H, so

    d/dt log K = tr(Q H)/2 + <Q g, g>/2 + <Bx, g>,

where H = -N_t in both forms, g = Qinf^-1 x + Dt^T A w with w = u - Dt x
below T_SWITCH, and g = Qinf^-1 D_{-t} u + N_t v above it.  The naive
H = Qinf^-1 - M_t would cancel for large t exactly as the direct form
does.  Every factor comes from the one propagator stack that also gives
log K, so a slope costs one stack and no finite difference; against
Mehler's closed form it holds about 1e-13 relative for t in [1e-4, 40].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonPositiveTimeError, NumericalOverflowError,
                     RateTooLargeError)
from .model import (OUModel, Propagators, T_SWITCH, propagators, quadratic_r)
from .rng import substream

_LOG_MAX = 700.0            # exp overflows just above this


def _chunks(total: int, size: int):
    for lo in range(0, total, size):
        yield lo, min(lo + size, total)


# pairs per block of log_kernel_grid, each against the full time grid
_GRID_CHUNK = 256


def log_kernel_grid(model: OUModel, props: Propagators, x, u) -> np.ndarray:
    """log K_t(x_i, u_i) for every pair i and every grid time, (p, m).

    x, u: (p, n) paired points.  Memory is bounded by evaluating pair
    chunks against the full time grid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    p, m = x.shape[0], len(props)
    out = np.empty((p, m))
    small = props.ts <= T_SWITCH
    large = ~small
    const = 0.5 * (model.logdet_Qinf - props.logdet_Qt)    # (m,)
    for lo, hi in _chunks(p, _GRID_CHUNK):
        xs, us = x[lo:hi], u[lo:hi]
        rx = quadratic_r(model, xs)                        # (c,)
        block = np.empty((hi - lo, m))
        if np.any(small):
            w = us[:, None, :] - np.einsum("mij,pj->pmi", props.Dt[small], xs)
            q = np.einsum("pmi,mij,pmj->pm", w, props.A_small[small], w)
            block[:, small] = -0.5 * q
        if np.any(large):
            v = np.einsum("mij,pj->pmi", props.Dmt[large], us) - xs[:, None, :]
            q = np.einsum("pmi,mij,pmj->pm", v, props.M_large[large], v)
            block[:, large] = -0.5 * q
        out[lo:hi] = block + const[None, :] + rx[:, None]
    return out


def log_kernel_pairs(model: OUModel, ts, x, u,
                     props: Propagators | None = None) -> np.ndarray:
    """log K_{t_i}(x_i, u_i) with one time per pair, (m,)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    x, u = np.broadcast_arrays(x, u)
    if x.shape[0] == 1 and ts.size > 1:
        x = np.broadcast_to(x, (ts.size, x.shape[1]))
        u = np.broadcast_to(u, (ts.size, u.shape[1]))
    if props is None:
        props = propagators(model, ts)
    out = np.empty(ts.size)
    small = ts <= T_SWITCH
    large = ~small
    const = 0.5 * (model.logdet_Qinf - props.logdet_Qt)
    rx = quadratic_r(model, x)
    if np.any(small):
        w = u[small] - np.einsum("mij,mj->mi", props.Dt[small], x[small])
        out[small] = -0.5 * np.einsum("mi,mij,mj->m", w,
                                      props.A_small[small], w)
    if np.any(large):
        v = np.einsum("mij,mj->mi", props.Dmt[large], u[large]) - x[large]
        out[large] = -0.5 * np.einsum("mi,mij,mj->m", v,
                                      props.M_large[large], v)
    return out + const + rx


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

    C = Dt^T A equals M D_{-t}, since Dt^T A Dt = M; it is formed as the
    first product below T_SWITCH and as the second above it, where A
    would cancel.  Expanding w = u - Dt x and v = D_{-t} u - x turns both
    gradients of the module docstring into C u - N x.

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
    C, N = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (C, props.N))
    return C, N, h0, kappa


def _dot(row, vec):
    """sum_j row[j] vec[j], in a fixed order so that every shape of the
    operands rounds alike."""
    acc = row[0] * vec[0]
    for j in range(1, len(vec)):
        acc = acc + row[j] * vec[j]
    return acc


def _slope_eval(model: OUModel, factors: tuple, x, u):
    """d/dt log K and its rounding floor from the factors of _slope_factors.

    x and u hold one point per component, (n, ...); their pair shape
    broadcasts against the time shape of the factors.  Every product is an
    elementwise numpy operation, so a pair gets the same bits on the grid
    route as on the per-pair route.  The floor is kappa times the sum of
    the magnitudes of the three terms: the factors' relative error carried
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


def logk_time_slope(model: OUModel, ts, x, u,
                    props: Propagators | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """d/dt log K_{t_i}(x_i, u_i) with one time per pair, (m,) each.

    Returns (slope, rounding floor).  The slope is L_x K / K from the
    backward equation, exact up to rounding; see _slope_factors.  props,
    when given, must be the propagators of ts.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    x, u = np.broadcast_arrays(x, u)
    if x.shape[0] == 1 and ts.size > 1:
        x = np.broadcast_to(x, (ts.size, x.shape[1]))
        u = np.broadcast_to(u, (ts.size, u.shape[1]))
    if props is None:
        props = propagators(model, ts)
    return _slope_eval(model, _slope_factors(model, props), x.T, u.T)


# pair-time cells per evaluation block of the slope grid, and at most this
# many times in one block: few pairs against a long run of times keeps the
# inner loops long and the temporaries in cache
_SLOPE_CELLS = 1 << 15
_SLOPE_TIMES = 8192


def logk_time_slope_grid(model: OUModel, props: Propagators, x, u
                         ) -> tuple[np.ndarray, np.ndarray]:
    """d/dt log K_t(x_i, u_i) for every pair i and every time of props,
    (p, m) each, as in logk_time_slope.

    Returns (slope, rounding floor).  The per-time factors are formed once
    and shared by all pairs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    p, m = x.shape[0], len(props)
    slope = np.empty((p, m))
    floor = np.empty((p, m))
    factors = _slope_factors(model, props)
    times = max(1, min(m, _SLOPE_TIMES))
    for lo, hi in _chunks(p, max(1, _SLOPE_CELLS // times)):
        xs = x[lo:hi].T[:, :, None]                         # (n, c, 1)
        us = u[lo:hi].T[:, :, None]
        for t0, t1 in _chunks(m, times):
            block = [f[..., t0:t1] for f in factors]
            slope[lo:hi, t0:t1], floor[lo:hi, t0:t1] = _slope_eval(
                model, block, xs, us)
    return slope, floor


# ---------------------------------------------------------------------------
# zeros of t -> dK/dt on (0, 1]


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: np.ndarray
    stable: bool


def _sign_changes(slope: np.ndarray, floor: np.ndarray):
    """Indices (left, right) of strict sign flips, treating values within
    the rounding floor as zero.  slope, floor: (p, m)."""
    tol = np.maximum(1e-13, 4.0 * floor)
    s = np.where(np.abs(slope) <= tol, 0, np.sign(slope)).astype(np.int8)
    p, m = s.shape
    cols = np.arange(m)
    nz = s != 0
    idx = np.where(nz, cols[None, :], -1)
    last = np.maximum.accumulate(idx, axis=1)
    prev_last = np.concatenate([np.full((p, 1), -1, dtype=int),
                                last[:, :-1]], axis=1)
    prev_sign = np.take_along_axis(s, np.maximum(prev_last, 0), axis=1)
    flips = nz & (prev_last >= 0) & (s * prev_sign < 0)
    return flips, prev_last


def _count_zeros_once(model: OUModel, X: np.ndarray, U: np.ndarray,
                      t_lo: float, t_hi: float, n_scan: int,
                      refine_width: float, want_zeros: bool):
    grid = np.geomspace(t_lo, t_hi, n_scan)
    slope, floor = logk_time_slope_grid(model, propagators(model, grid), X, U)
    flips, prev_last = _sign_changes(slope, floor)
    counts = flips.sum(axis=1)
    if not want_zeros:
        return counts, None
    rows, cols = np.nonzero(flips)
    lo = grid[prev_last[rows, cols]]
    hi = grid[cols]
    left_sign = np.sign(slope[rows, prev_last[rows, cols]])
    # bisect every flagged bracket of every pair at once
    while np.max(hi - lo, initial=0.0) > refine_width:
        mid = 0.5 * (lo + hi)
        sm, _ = logk_time_slope(model, mid, X[rows], U[rows])
        same = np.sign(sm) == left_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    zeros = 0.5 * (lo + hi)
    return counts, (rows, zeros)


def count_kdot_zeros(model: OUModel, x, u,
                     t_interval: tuple[float, float] = (1e-8, 1.0),
                     n_scan: int = 4096,
                     refine_width: float = 1e-10) -> ZeroCount:
    """Count sign changes of t -> dK/dt(x, u) on the interval.

    Log-spaced scan, each flip refined by bisection; the count is rerun on
    a doubled grid and flagged unstable if it moves.
    """
    X = np.asarray(x, dtype=float).reshape(1, model.n)
    U = np.asarray(u, dtype=float).reshape(1, model.n)
    t_lo, t_hi = t_interval
    if t_lo <= 0 or t_hi <= t_lo:
        raise NonPositiveTimeError("need 0 < t_lo < t_hi")
    counts, packed = _count_zeros_once(model, X, U, t_lo, t_hi, n_scan,
                                       refine_width, want_zeros=True)
    counts2, _ = _count_zeros_once(model, X, U, t_lo, t_hi, 2 * n_scan,
                                   refine_width, want_zeros=False)
    _, zeros = packed
    return ZeroCount(count=int(counts[0]), zeros=np.sort(zeros),
                     stable=bool(counts[0] == counts2[0]))


def count_kdot_zeros_batch(model: OUModel, X, U,
                           t_interval: tuple[float, float] = (1e-8, 1.0),
                           n_scan: int = 4096):
    """Zero counts for many pairs at once; returns (counts, stable mask)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    t_lo, t_hi = t_interval
    counts, _ = _count_zeros_once(model, X, U, t_lo, t_hi, n_scan,
                                  0.0, want_zeros=False)
    counts2, _ = _count_zeros_once(model, X, U, t_lo, t_hi, 2 * n_scan,
                                   0.0, want_zeros=False)
    return counts, counts == counts2


# ---------------------------------------------------------------------------
# calibration of the pointwise bounds


@dataclass(frozen=True)
class BoundCalibration:
    which: str
    exponent_rate: float        # the c actually used
    prefactor_cap: float        # smallest C making the bound hold on the grid
    grid: str
    max_ratio: float
    stable: bool


def natural_rate(model: OUModel) -> float:
    """Half the smallest eigenvalue of Q^-1: the Gaussian rate of the
    short-time convolution approximant, an upper barrier for any c."""
    return 0.5 / float(np.linalg.eigvalsh(model.Q).max())


def admissible_rate(model: OUModel, which: str, t_max: float = 50.0,
                    safety: float = 0.9, grid_size: int = 512) -> float:
    """Largest exponent rate the kernel's own quadratic form supports,
    from eigenvalue infima over the relevant time range, shrunk by a
    safety factor."""
    if which in ("kernel-small-t", "dkernel-small-t"):
        ts = np.geomspace(1e-6, 1.0, grid_size)
        pr = propagators(model, ts)
        lam = np.linalg.eigvalsh(pr.A_small).min(axis=1)
        cap = float(np.min(ts * lam) / 2.0)
    elif which in ("dkernel-large-t", "tail-integral"):
        ts = np.geomspace(1.0, t_max, grid_size)
        pr = propagators(model, ts)
        lam = np.linalg.eigvalsh(pr.M_large).min(axis=1)
        cap = float(min(lam.min() / 2.0, -model.spectral_abscissa))
    else:
        raise ValueError(f"unknown bound name {which!r}")
    return safety * min(cap, natural_rate(model) / safety)


def _calibration_sample(model: OUModel, which: str, n_samples: int,
                        seed: int):
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


def _ratio_pieces(model: OUModel, which: str, x, u, ts):
    """Everything c-independent in log(true / rhs-with-C-1).

    Each piece is a (pairs, times) matrix over the shared deterministic
    time grid; the rate test later takes a per-pair supremum over times,
    which removes the sampling noise a random time per pair would add to
    the max statistic."""
    rx = quadratic_r(model, x)[:, None]
    pr = propagators(model, ts)
    lk = log_kernel_grid(model, pr, x, u)
    if which == "kernel-small-t":
        w = u[:, None, :] - np.einsum("mij,pj->pmi", pr.Dt, x)
        b = np.einsum("pmi,pmi->pm", w, w) / ts[None, :]
        a = lk - rx + 0.5 * model.n * np.log(ts)[None, :]
        return a, b, None
    if which == "dkernel-small-t":
        slope, _ = logk_time_slope_grid(model, pr, x, u)
        with np.errstate(divide="ignore"):
            log_kdot = lk + np.log(np.abs(slope))
        w = u[:, None, :] - np.einsum("mij,pj->pmi", pr.Dt, x)
        b = np.einsum("pmi,pmi->pm", w, w) / ts[None, :]
        factor = (1.0 / ts[None, :]
                  + np.linalg.norm(x, axis=1)[:, None] / np.sqrt(ts)[None, :])
        a = log_kdot - rx + 0.5 * model.n * np.log(ts)[None, :] - np.log(factor)
        return a, b, None
    if which == "dkernel-large-t":
        slope, _ = logk_time_slope_grid(model, pr, x, u)
        with np.errstate(divide="ignore"):
            log_kdot = lk + np.log(np.abs(slope))
        dv = np.einsum("mij,pj->pmi", pr.Dmt, u)
        b = np.einsum("pmi,pmi->pm", dv - x[:, None, :], dv - x[:, None, :])
        a = log_kdot - rx
        return a, b, np.linalg.norm(dv, axis=2)
    raise ValueError(f"unknown bound name {which!r}")


def _prefix_max_log_ratios(which: str, a, b, dnorm, ts, c: float,
                           uptos) -> list[float]:
    """Largest finite log ratio at rate c over the first k pairs, for each k
    in uptos (None for all pairs).  The per-pair suprema over times are
    taken once; each prefix maximum then reads the same array."""
    if which in ("kernel-small-t", "dkernel-small-t"):
        vals = a + c * b
    else:
        vals = a + c * b - np.log(dnorm + np.exp(-c * ts)[None, :])
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    per_pair = vals.max(axis=1)
    out = []
    for k in uptos:
        head = per_pair[:k]
        out.append(float(head.max()) if head.size else -np.inf)
    return out


def calibrate_bound(model: OUModel, which: str, n_samples: int = 10_000,
                    seed: int = 0, c: float | None = None,
                    t_max: float = 50.0) -> BoundCalibration:
    """Calibrate one of the pointwise kernel bounds on a Monte Carlo grid.

    For an explicit rate c the largest observed ratio (true quantity over
    the c-rate right-hand side) is reported together with a stability flag:
    at most 10 percent growth when the sample doubles.  Sustained growth
    across two doublings raises RateTooLarge.  Without c, the largest
    stable rate is found by bisection below the natural Gaussian rate.
    """
    grid_desc = (f"{n_samples} Gaussian (x,u) pairs, spikes to |u|=30, "
                 f"48-point log time grid, seed {seed}, bound {which}")
    if which == "tail-integral":
        return _calibrate_tail_integral(model, n_samples, seed, t_max,
                                        grid_desc)
    x, u = _calibration_sample(model, which, n_samples, seed)
    if which in ("kernel-small-t", "dkernel-small-t"):
        ts = np.geomspace(1e-6, 1.0, 48)
    else:
        ts = np.geomspace(1.0, t_max, 48)
    a, b, dnorm = _ratio_pieces(model, which, x, u, ts)

    def stats(cc: float):
        m4, m2, m1 = _prefix_max_log_ratios(
            which, a, b, dnorm, ts, cc, (n_samples // 4, n_samples // 2, None))
        growing = (m1 > m2 + np.log(1.1)) and (m2 > m4 + np.log(1.1))
        stable = m1 <= m2 + np.log(1.1)
        return m1, stable, growing

    if c is not None:
        if c <= 0:
            raise RateTooLargeError("rate must be positive")
        m1, stable, growing = stats(c)
        if growing or not np.isfinite(m1):
            raise RateTooLargeError(
                f"ratios diverge at c={c:g}; admissible rate is "
                f"{admissible_rate(model, which):.4g}")
        mr = float(np.exp(m1))
        return BoundCalibration(which=which, exponent_rate=float(c),
                                prefactor_cap=mr, grid=grid_desc,
                                max_ratio=mr, stable=stable)
    lo, hi = 0.0, natural_rate(model)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        _, stable, growing = stats(mid)
        if stable and not growing:
            lo = mid
        else:
            hi = mid
    m1, stable, _ = stats(lo)
    mr = float(np.exp(m1))
    return BoundCalibration(which=which, exponent_rate=float(lo),
                            prefactor_cap=mr, grid=grid_desc,
                            max_ratio=mr, stable=stable)


def _calibrate_tail_integral(model: OUModel, n_samples: int, seed: int,
                             t_max: float, grid_desc: str) -> BoundCalibration:
    """max over (x, u) of int_1^tmax |dK/dt| dt / e^{R(x)}; the integral is
    the total variation of t -> K_t on a fine log grid."""
    gen = substream(seed, 1)
    n = model.n
    m = min(n_samples, 2000)
    x = gen.standard_normal((m, n)) * 2.0
    u = gen.standard_normal((m, n)) * 2.0
    rate = admissible_rate(model, "dkernel-large-t", t_max=t_max)

    rx = quadratic_r(model, x)

    def tv_over_e_r(grid_size: int) -> np.ndarray:
        """Per-pair total variation of K / e^{R(x)} on the grid."""
        grid = np.geomspace(1.0, t_max, grid_size)
        lk = log_kernel_grid(model, propagators(model, grid), x, u)
        k = np.exp(lk - rx[:, None])      # K / e^{R(x)}, overflow-safe
        return np.abs(np.diff(k, axis=1)).sum(axis=1)

    tv = tv_over_e_r(1024)
    r_half = float(tv[:m // 2].max())
    r_full = float(tv.max())
    r_fine = float(tv_over_e_r(2048).max())
    stable = (r_full <= 1.1 * r_half) and (r_fine <= 1.1 * r_full)
    mr = max(r_full, r_fine)
    return BoundCalibration(which="tail-integral", exponent_rate=rate,
                            prefactor_cap=mr, grid=grid_desc,
                            max_ratio=mr, stable=stable)
