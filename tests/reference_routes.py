"""Independent reference routes that the tests compare the package against.

None of them is on a probe's path: each is a slower or more direct way to
the same quantity, kept here as an oracle.
"""

import math
from itertools import combinations

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.special import erf
from scipy.stats import multivariate_normal

from oulab.errors import BadOrderError, EmptyPathError, TooLongError
from oulab.geometry import local_weight
from oulab.kernel import kernel, log_kernel_grid, logk_time_slope_grid
from oulab.model import T_SWITCH, propagators
from oulab.quadrature import hermite_tensor
from oulab.semigroup import _bump_stacks, bump_semigroup_grid
from oulab.variation import _check_order


def variation_exhaustive_slow(values, rho: float) -> float:
    """Plain itertools enumeration; cross-check for the bitmask oracle."""
    rho = _check_order(rho)
    v = [float(x) for x in values]
    n = len(v)
    if n == 0:
        raise EmptyPathError("need a nonempty value sequence")
    if n > 12:
        raise TooLongError("slow enumeration capped at 12 points")
    best = 0.0
    for k in range(2, n + 1):
        for idx in combinations(range(n), k):
            s = sum(abs(v[b] - v[a]) ** rho for a, b in zip(idx, idx[1:]))
            best = max(best, s)
    return best ** (1.0 / rho)


def group_dt(model, t: float) -> np.ndarray:
    """Dt = Qinf e^(-tB^T) Qinf^-1 by scipy's matrix exponential."""
    e = scipy.linalg.expm(-float(t) * model.B.T)
    return model.Qinf @ e @ model.Qinf_inv


def covariance_qt(model, t: float) -> np.ndarray:
    """Qt = int_0^t e^(sB) Q e^(sB^T) ds by scipy's matrix exponential: up
    to t = 1 from Van Loan's block exponential of [[-B, Q], [0, B^T]] t,
    whose growing corner loses digits past it; above t = 1 as
    Qinf - e^(tB) Qinf e^(tB^T), which no longer cancels there."""
    n = model.n
    if t > 1.0:
        e = scipy.linalg.expm(float(t) * model.B)
        return model.Qinf - e @ model.Qinf @ e.T
    block = np.block([[-model.B, model.Q], [np.zeros((n, n)), model.B.T]])
    e = scipy.linalg.expm(float(t) * block)
    return e[n:, n:].T @ e[:n, n:]


def gamma_density(model, t: float, x) -> np.ndarray:
    """Density of the centered Gaussian gamma_t (t = inf for the invariant
    one) by scipy.stats."""
    cov = model.Qinf if t == np.inf else covariance_qt(model, t)
    return multivariate_normal.pdf(x, mean=np.zeros(model.n), cov=cov)


def kernel_dt_raw(model, t: float, x, u, h: float) -> float:
    """Plain central difference of K itself at explicit step h, for
    convergence-order measurements."""
    kp = kernel(model, t + h, x, u)
    km = kernel(model, t - h, x, u)
    return (kp - km) / (2 * h)


def log_kernel_grid_einsum(model, props, x, u):
    """log K - R(x) on a pairs x times grid by the two einsum contractions
    the package used before its fixed-order evaluator: the direct form in
    w = u - Dt x for t <= T_SWITCH, the form in v = D_{-t} u - x above."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    small = props.ts <= T_SWITCH
    large = ~small
    q = np.empty((x.shape[0], len(props)))
    if np.any(small):
        w = u[:, None, :] - np.einsum("mij,pj->pmi", props.Dt[small], x)
        q[:, small] = np.einsum("pmi,mij,pmj->pm", w, props.A_small[small], w)
    if np.any(large):
        v = np.einsum("mij,pj->pmi", props.Dmt[large], u) - x[:, None, :]
        q[:, large] = np.einsum("pmi,mij,pmj->pm", v, props.M_large[large], v)
    const = 0.5 * (model.logdet_Qinf - props.logdet_Qt)
    return -0.5 * q + const[None, :]


def ratio_pieces_einsum(model, which, x, u, ts):
    """calibrate_bound's c-independent pieces (a, b, dnorm) on the whole
    (pairs, times) grid, by the einsum contractions the package used before
    it built them block by block: at rate c the log ratio is a + c b, less
    log(dnorm + e^{-ct}) for dkernel-large-t (dnorm None otherwise)."""
    pr = propagators(model, ts)
    lk = log_kernel_grid(model, pr, x, u)
    if which != "kernel-small-t":
        slope, _ = logk_time_slope_grid(model, pr, x, u)
        with np.errstate(divide="ignore"):
            lk = lk + np.log(np.abs(slope))             # log |dK/dt|
    if which == "dkernel-large-t":
        dv = np.einsum("mij,pj->pmi", pr.Dmt, u)
        b = np.einsum("pmi,pmi->pm", dv - x[:, None, :], dv - x[:, None, :])
        return lk, b, np.linalg.norm(dv, axis=2)
    w = u[:, None, :] - np.einsum("mij,pj->pmi", pr.Dt, x)
    b = np.einsum("pmi,pmi->pm", w, w) / ts[None, :]
    a = lk + 0.5 * model.n * np.log(ts)[None, :]
    if which == "dkernel-small-t":
        a = a - np.log(1.0 / ts[None, :] + np.linalg.norm(x, axis=1)[:, None]
                       / np.sqrt(ts)[None, :])
    return a, b, None


def adaptive_integral(f, measure, half_width: float = 10.0) -> float:
    """scipy adaptive quadrature over mean +- half_width * sqrt(cov), for
    cross-checks of the tensor rule in dimensions 1 and 2."""
    n = measure.n
    L = measure.sqrt_cov

    if n == 1:
        def g(z):
            x = measure.mean + L[0, 0] * np.atleast_1d(z)
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * np.exp(measure.log_density(x[None, :]))[0] * L[0, 0]
        val, _ = scipy.integrate.quad(g, -half_width, half_width, limit=400)
        return float(val)
    if n == 2:
        det = abs(np.linalg.det(L))

        def g(z2, z1):
            x = measure.mean + L @ np.array([z1, z2])
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * np.exp(measure.log_density(x[None, :]))[0] * det
        val, _ = scipy.integrate.dblquad(g, -half_width, half_width,
                                         -half_width, half_width)
        return float(val)
    raise BadOrderError("adaptive cross-check supports n <= 2 only")


def split_blocks(model, bump, props, x, order=None):
    """The Gaussian blocks of the near/far split, built as
    local_global_grid builds them: means (p, m, n), square roots L_t of
    the covariances (m, n, n), and the tensor rule's nodes z (q, n) and
    weights (q,)."""
    n = model.n
    z, wq = hermite_tensor(n, order)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w2 = bump.width ** 2
    prec = props.Qt_inv + np.eye(n)[None] / w2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    wv, vv = np.linalg.eigh(cov)
    L = np.einsum("mij,mj,mkj->mik", vv, np.sqrt(wv), vv)
    base_mean = np.einsum("mij,j->mi", cov, bump.center / w2)
    ex = np.einsum("mij,pj->pmi", props.exp_tB, x)
    mean = np.einsum("mij,mjk,pmk->pmi", cov, props.Qt_inv, ex) \
        + base_mean[None, :, :]
    return mean, L, z, wq


def block_nodes(mean, L, z):
    """Every node mean + L_t z_k of every block, (p, m, q, n)."""
    return mean[:, :, None, :] + np.einsum("mij,qj->mqi", L, z)[None]


def bump_semigroup_grid_einsum(model, bump, props, x):
    """Closed-form H_t f over points x grid times as it ran before the
    blocked evaluator: both sums as einsum contractions over (p, m, n)
    stacks."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sinv, log_detfac = _bump_stacks(model, bump, props)
    z = np.einsum("mij,pj->pmi", props.exp_tB, x) \
        - bump.center[None, None, :]
    q = np.einsum("pmi,mij,pmj->pm", z, sinv, z)
    return bump.amplitude * np.exp(log_detfac[None, :] - 0.5 * q)


def local_global_grid_all_nodes(model, bump, props, x, order=None):
    """The near/far split with no per-block decision: every node of every
    (point, time) block goes through local_weight."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mean, L, z, wq = split_blocks(model, bump, props, x, order)
    eta = local_weight(model, x[:, None, None, :], block_nodes(mean, L, z))
    mass = bump_semigroup_grid(model, bump, props, x)
    loc = mass * (eta * wq[None, None, :]).sum(axis=2)
    return loc, mass - loc


def merged_grid_smoother(N: int, ell: int, x) -> np.ndarray:
    """The Gaussian smoother of the periodized sum as one call per (N, ell):
    its own slot grid of scale min(3N, ell + 1), an int64 index grid, erf at
    every breakpoint of the 12 sd window, and the integer sign table."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k_fine = min(3 * N, ell + 1)
    n_scales = k_fine - 2 * N
    if n_scales <= 0:
        return np.zeros(x.shape)
    table = np.zeros(1, dtype=np.int64)
    for _ in range(n_scales):
        table = np.concatenate([table + 1, table - 1])
    sd = 2.0 ** (-ell)
    s = math.sqrt(2.0) * sd
    half_window = 12.0 * sd
    w = 2.0 ** (-k_fine)
    count = int(math.ceil(2.0 * half_window / w)) + 2
    j0 = np.floor((x - half_window + 1.0) / w).astype(np.int64)
    idx = j0[:, None] + np.arange(count + 1, dtype=np.int64)[None, :]
    e = erf((x[:, None] - (idx * w - 1.0)) / s)
    sign_sum = table[idx[:, :-1] & (table.size - 1)]
    return 0.5 * np.sum(sign_sum * (e[:, :-1] - e[:, 1:]), axis=1)


def dp_fresh_columns(v: np.ndarray, rho: float) -> np.ndarray:
    """The quadratic prefix program over the subsequences of each row, with
    fresh temporaries for every column and increments below 1e-300 always
    flushed to zero before the rho-th power."""
    m, n = v.shape
    best = np.zeros((m, n))
    for j in range(1, n):
        d = np.abs(v[:, j, None] - v[:, :j])
        d[d < 1e-300] = 0.0
        best[:, j] = np.max(best[:, :j] + d ** rho, axis=1)
    return np.max(best, axis=1)


def turning_points_nonzero(v: np.ndarray):
    """Endpoints and turning points of every row of a (paths, length)
    array by the index route the package used before its dense pass, on
    the whole array at once: the first point of each run of equal values
    from np.nonzero, then a run start stays at a row end or where the
    sign of the step between consecutive run starts flips."""
    with np.errstate(invalid="ignore"):
        rows, cols = np.nonzero(np.diff(v, axis=1, prepend=np.nan) != 0)
        w = v[rows, cols]
        s = np.sign(np.diff(w))
    edge = rows[1:] != rows[:-1]
    keep = np.ones(w.size, dtype=bool)
    keep[1:-1] = edge[:-1] | edge[1:] | (s[:-1] != s[1:])
    return w[keep], np.bincount(rows[keep], minlength=v.shape[0])


def exceedance_sorted(values, levels) -> np.ndarray:
    """#{v > a} / values.size from one sort of the non-NaN values and a
    right-sided search, the form the probes used before the rank count."""
    v = np.asarray(values, dtype=float)
    s = np.sort(v[~np.isnan(v)])
    return (s.size - np.searchsorted(s, levels, side="right")) / v.size


def bootstrap_statistics_loop(v, alphas, idx, weighted: bool) -> np.ndarray:
    """The weak-type statistic of every resample v[idx[r]], one replicate
    at a time: sup of a lambda(a), or when weighted of a sqrt(log a)
    lambda(a) over the levels above e (0.0 if there is none)."""
    out = np.empty(len(idx))
    for r, rows in enumerate(idx):
        lam = exceedance_sorted(v[rows], alphas)
        w = alphas * lam
        if weighted:
            mask = alphas > math.e
            if not mask.any():
                out[r] = 0.0
                continue
            w = alphas[mask] * np.sqrt(np.log(alphas[mask])) * lam[mask]
        out[r] = float(w.max()) if w.size else 0.0
    return out
