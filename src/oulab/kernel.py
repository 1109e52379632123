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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentPointsError, EtaZeroError,
                     NonPositiveTimeError, NumericalOverflowError,
                     RateTooLargeError, TailNotConvergedError)
from .geometry import group_apply, local_weight
from .model import (OUModel, Propagators, T_SWITCH, propagators, quadratic_r)
from .rng import substream

_LOG_MAX = 700.0            # exp overflows just above this


def _chunks(total: int, size: int):
    for lo in range(0, total, size):
        yield lo, min(lo + size, total)


def log_kernel_grid(model: OUModel, props: Propagators, x, u,
                    chunk: int = 256) -> np.ndarray:
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
    for lo, hi in _chunks(p, chunk):
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


def kernel_tilde(model: OUModel, t: float, x, u) -> float:
    """Kernel with the (det Qinf)^{1/2} e^{R(x)} factors stripped."""
    if t <= 0:
        raise NonPositiveTimeError("kernel time must be positive")
    x = np.asarray(x, dtype=float)
    lk = log_kernel(model, t, x, u)
    lkt = lk - 0.5 * model.logdet_Qinf - quadratic_r(model, x)
    return float(np.exp(lkt))


def conv_kernel(model: OUModel, t: float, y, normalized: bool = False):
    """Short-time convolution approximant
    (det Q)^{-1/2} t^{-n/2} exp(-|Q^{-1/2} y|^2 / (2t)); the normalized
    variant divides by (2 pi)^{n/2} and integrates to 1 in dy."""
    if t <= 0:
        raise NonPositiveTimeError("kernel time must be positive")
    y = np.asarray(y, dtype=float)
    w, v = np.linalg.eigh(model.Q)
    q = np.einsum("...i,ij,...j->...", y, (v / w) @ v.T, y)
    _, logdet_q = np.linalg.slogdet(model.Q)
    lk = -0.5 * logdet_q - 0.5 * model.n * np.log(t) - 0.5 * q / t
    if normalized:
        lk = lk - 0.5 * model.n * np.log(2 * np.pi)
    out = np.exp(lk)
    return float(out) if out.ndim == 0 else out


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


def kernel_dt_pairs(model: OUModel, ts, x, u) -> tuple[np.ndarray, np.ndarray]:
    """(dK/dt, rounding floor) with one time per pair; dK/dt = K d(log K)/dt."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    props = propagators(model, ts)
    slope, floor = logk_time_slope(model, ts, x, u, props=props)
    k = np.exp(np.minimum(log_kernel_pairs(model, ts, x, u, props=props),
                          _LOG_MAX))
    return k * slope, k * floor


def kernel_dt(model: OUModel, t: float, x, u) -> tuple[float, float]:
    kd, err = kernel_dt_pairs(model, np.array([float(t)]), x, u)
    return float(kd[0]), float(err[0])


def kernel_dt_raw(model: OUModel, t: float, x, u, h: float) -> float:
    """Plain central difference of K itself at explicit step h, for
    convergence-order measurements."""
    kp = kernel(model, t + h, x, u)
    km = kernel(model, t - h, x, u)
    return (kp - km) / (2 * h)


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


def kernel_space_slope(model: OUModel, t: float, x, u) -> np.ndarray:
    """The vector whose ell-th entry gives the space-derivative identity
    d/du_ell K_t = -K_t <Qt^-1 e^{tB} (D_{-t} u - x), e_ell>."""
    if t <= 0:
        raise NonPositiveTimeError("kernel time must be positive")
    pr = propagators(model, np.array([float(t)]))
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    v = pr.Dmt[0] @ u - x
    return pr.Qt_inv[0] @ (pr.exp_tB[0] @ v)


def space_derivative_residual(model: OUModel, t: float, x, u, ell: int,
                              fd_step: float = 1e-6) -> float:
    """Relative residual of the first-space-derivative identity at
    coordinate ell (0-based): |FD d/du_ell K + K R_ell| / max(1, |K R_ell|)."""
    u = np.asarray(u, dtype=float).reshape(model.n)
    e = np.zeros(model.n)
    e[ell] = fd_step
    fd = (kernel(model, t, x, u + e) - kernel(model, t, x, u - e)) \
        / (2 * fd_step)
    k = kernel(model, t, x, u)
    rl = kernel_space_slope(model, t, x, u)[ell]
    return float(abs(fd + k * rl) / max(1.0, abs(k * rl)))


# ---------------------------------------------------------------------------
# zeros of t -> dK/dt on (0, 1] and the resulting variation bound


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: np.ndarray
    stable: bool


def _scan_grid(t_lo: float, t_hi: float, n_scan: int) -> np.ndarray:
    return np.geomspace(t_lo, t_hi, n_scan)


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
    grid = _scan_grid(t_lo, t_hi, n_scan)
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


def ftc_variation_bound(model: OUModel, x, u,
                        t_interval: tuple[float, float] = (1e-8, 1.0),
                        sup_grid: int = 1000) -> dict:
    """Compare int |dK/dt| dt over (0, 1] with twice the sum of kernel
    values at the critical times and the right endpoint.

    The integral uses adaptive quadrature between the detected zeros; for
    x != u the kernel vanishes at t -> 0, so the lower endpoint adds
    nothing.  Also reports (count + 2) * sup K on a log grid.
    """
    from scipy.integrate import quad
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    if np.allclose(x, u):
        raise CoincidentPointsError("x = u makes the kernel blow up at 0+")
    zc = count_kdot_zeros(model, x, u, t_interval=t_interval)
    t_lo, t_hi = t_interval

    def absdot(t):
        kd, _ = kernel_dt(model, float(t), x, u)
        return abs(kd)

    cuts = [t_lo, *[float(z) for z in zc.zeros], t_hi]
    lhs = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        val, _ = quad(absdot, a, b, limit=200)
        lhs += val
    k_at = [kernel(model, float(z), x, u) for z in zc.zeros]
    rhs = 2.0 * (sum(k_at) + kernel(model, t_hi, x, u))
    grid = np.geomspace(t_lo, t_hi, sup_grid)
    lk = log_kernel_pairs(model, grid, np.tile(x, (sup_grid, 1)),
                          np.tile(u, (sup_grid, 1)))
    sup_k = float(np.exp(lk.max()))
    return {"lhs": lhs, "rhs": rhs, "count": zc.count, "stable": zc.stable,
            "zeros": zc.zeros, "sup_bound": 2.0 * (zc.count + 2) * sup_k}


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


# ---------------------------------------------------------------------------
# the two integral estimates used by the local and global analyses


def singular_integral_check(model: OUModel, p: float, r: float, delta: float,
                         x, u) -> tuple[float, float]:
    """Quadrature check of
    int_0^1 t^{-p} exp(-delta |u - Dt x|^2 / t) |x|^r dt <= C |u-x|^{2-2p-r}
    in its admissible range p + r/2 > 1; returns (lhs, rhs)."""
    from scipy.integrate import quad
    if p < 0 or r < 0 or p + r / 2 <= 1:
        raise ValueError("need p, r >= 0 with p + r/2 > 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    if np.allclose(x, u):
        raise CoincidentPointsError("x = u not allowed")
    if local_weight(model, x, u) == 0.0:
        raise EtaZeroError("points are not in the local region")
    xnorm_r = 1.0 if r == 0 else float(np.linalg.norm(x)) ** r

    # substitute t = e^s: the integrand's mass sits near t ~ |u-x|^2, which
    # a linear-scale quadrature misses entirely once the points are close
    def integrand(s):
        t = math.exp(s)
        pr = propagators(model, np.array([t]))
        w = u - pr.Dt[0] @ x
        return math.exp((1.0 - p) * s - delta * float(w @ w) / t)

    sep2 = float((u - x) @ (u - x))
    s_peak = min(math.log(delta * sep2 / max(p - 1.0, 0.5)), 0.0)
    s_lo = min(s_peak - 80.0, -20.0)
    lhs = 0.0
    for a, b in ((s_lo, s_peak), (s_peak, 0.0)):
        if b > a:
            val, _ = quad(integrand, a, b, limit=400)
            lhs += val
    lhs *= xnorm_r
    rhs = float(np.linalg.norm(u - x)) ** (2.0 - 2.0 * p - r)
    return float(lhs), rhs


def far_field_decay_check(model: OUModel, delta: float, x, u,
                  t_max: float = 50.0) -> float:
    """int_1^inf exp(-delta |D_{-t} u - x|^2) |D_{-t} u| dt, truncated at
    t_max with a certified exponential tail below 1e-8."""
    from scipy.integrate import quad
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    if np.allclose(u, 0.0):
        return 0.0
    sigma = -model.spectral_abscissa
    rate = 0.9 * sigma
    # |D_{-s}| <= C e^{-rate s} on s >= 0, C measured on a long grid
    s_grid = np.linspace(0.0, 100.0, 401)
    norms = np.array([np.linalg.norm(
        group_apply(model, np.eye(model.n), -s), ord=2) for s in s_grid])
    C = float(np.max(norms * np.exp(rate * s_grid)))
    d_end = float(np.linalg.norm(group_apply(model, u, -t_max)[0]))
    tail = C * d_end / rate
    if tail > 1e-8:
        raise TailNotConvergedError(
            f"tail bound {tail:.3e} at t_max={t_max:g}; raise t_max")

    def integrand(t):
        v = group_apply(model, u, -t)[0]
        return np.exp(-delta * float((v - x) @ (v - x))) * \
            float(np.linalg.norm(v))

    val, _ = quad(integrand, 1.0, t_max, limit=400)
    return float(val)
