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
large.  kernel_forms builds each factor from the semigroup's stacks
(model.propagators) only where it is read: Dt and A up to T_SWITCH, D_{-t}
above it, M_t and N_t at every time.  So e^{tB} is inverted, for Dt, only
at t <= T_SWITCH, and a drift whose e^{tB} loses rank at larger t, as
slowly decaying non-normal ones do, keeps every kernel route there.

log_kernel_grid returns log K - R(x), without the prefactor e^{R(x)},
which every bound and weight divides out; only log_kernel_pairs adds it.

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
driver, _row_blocks, over whole rows) as with one time per pair
(_logk_pairs), and the slope needs only the grid route.  The sums
accumulate in place, so a block of _BLOCK_CELLS pair-time cells holds a
handful of arrays of its shape, not one per product and sum.  On a grid
whose times below T_SWITCH come first, as on every sorted grid, log K
skips the identity factor on each side of the switch: P = I below it and
R = I above it, and 1 x + 0 x' is x exactly.  The zero scan and the tail
integral reduce each block as it is evaluated, and keep no (pairs, times)
array; the Gaussian pointwise bounds take no pairs (_log_caps).

The zeros of t -> dK/dt take one of two routes, chosen by the model.
Where B's eigenvalues are -k_i b with small integers k_i
(model.commensurate_rates; general2 and the standard models), they are
exactly the roots of a polynomial N in tau = 1 - e^{-bt}, of degree
4 sum k - 2n + 1 (kdot_polynomial), isolated by Descartes' rule in the
Bernstein basis (_poly_route) and bisected (_kdot_zeros), with no time
grid and no eigenvalues.  On every other model the slope is scanned on
a log grid and the count is called stable if the doubled grid gives the
same one.

The tail integral int_1^50 |dK/dt| dt / e^{R(x)} of calibrate_bound
takes the same two routes.  On commensurate spectra K is monotone between
the zeros that _kdot_zeros finds, so the integral is exactly the sum of
|Delta K| over 1, those zeros and 50, K at the zeros by _logk_pairs
(_tail_tv_exact).  On every other model it is the total variation of K on
a log grid of 1,024 times, checked against the doubled grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentRangeError, BadOrderError,
                     NonPositiveTimeError, NumericalOverflowError,
                     RateTooLargeError, SingularPropagatorError)
from .model import (OUModel, Propagators, commensurate_rates,
                    isotropic_rates, propagators, quadratic_r)
from .rng import substream

# switch between the direct small-t quadratic form and the factored large-t
# one (all factors decaying) in the kernel exponent
T_SWITCH = 1.0

# pair-time cells per evaluation block of a grid route, whole rows of few
# pairs against all times: long inner loops, and few enough blocks that
# their Python overhead stays small.  The evaluators accumulate every sum
# in place, so a block holds a handful of (rows, times) arrays of 256 KiB.
# Those pass glibc's default 128 KiB mmap threshold, but the threshold
# rises to the size of the first such array freed, and every later block
# reuses heap memory
_BLOCK_CELLS = 1 << 15


def _dot(row, vec, out=None, tmp=None):
    """sum_j row[j] vec[j], in a fixed order so that every shape of the
    operands rounds alike: accumulated in place in out (a new array when
    None), with each later product formed in tmp."""
    acc = np.multiply(row[0], vec[0], out=out)
    for j in range(1, len(vec)):
        if tmp is None:
            tmp = np.empty_like(acc)
        acc += np.multiply(row[j], vec[j], out=tmp)
    return acc


def _row_blocks(m: int, *points, cells: int | None = None):
    """Yield (rows, *blocks) for blocks of whole rows of about cells
    (_BLOCK_CELLS when None) pair-time cells against m times: the slice
    rows, and those rows of each point array (p, n) of points, such as
    the pairs x, u, as (n, rows, 1).  The evaluators are elementwise, so
    bits ignore the block shape."""
    blocks = [np.atleast_2d(np.asarray(v, dtype=float)).T[:, :, None]
              for v in points]                      # (n, p, 1) each
    size = max(1, (_BLOCK_CELLS if cells is None else cells) // m)
    for lo in range(0, blocks[0].shape[1], size):
        rows = slice(lo, lo + size)
        yield (rows, *(b[:, rows] for b in blocks))


def _time_last(a: np.ndarray) -> np.ndarray:
    """A (m, n, n) stack of per-time matrices as (n, n, m), so that every
    matrix entry is one contiguous row over the times."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


# ---------------------------------------------------------------------------
# the kernel's two forms


def _per_time(op, stack: np.ndarray, ts: np.ndarray, error, message: str):
    """op (a numpy.linalg routine) on a (m, n, n) stack at the times ts,
    or error with message, formatted with the first time whose matrix op
    refuses."""
    try:
        return op(stack)
    except np.linalg.LinAlgError:
        for t, a in zip(ts, stack):
            try:
                op(a)
            except np.linalg.LinAlgError:
                raise error(message.format(t=t)) from None
        raise


@dataclass(frozen=True)
class KernelForms:
    """The factors of both forms, each only where it is read."""

    small: np.ndarray         # ts <= T_SWITCH
    Dt: np.ndarray            # Qinf e^(-tB^T) Qinf^-1, at the small times
    A: np.ndarray             # Qt^-1 - Qinf^-1, at the small times
    Dmt: np.ndarray           # D_{-t}, at the other times
    M: np.ndarray             # Dt^T A Dt, at every time
    N: np.ndarray             # M - Qinf^-1, at every time


def kernel_forms(model: OUModel, props: Propagators) -> KernelForms:
    """The factors of both forms (module docstring) at the times of props.
    Up to T_SWITCH M is the direct product Dt^T A Dt, above it Qinf^-1 +
    N, where the resolvent (I - S Qinf)^-1 in N is regular and every
    factor decays.  N is the slope's x-Hessian of log K, negated: above
    T_SWITCH the resolvent term itself, below it M - Qinf^-1, which M ~
    1/t dominates, so neither side cancels.

    Raises SingularPropagatorError where e^(tB) is singular at a time up
    to T_SWITCH, and NumericalOverflowError where A is not positive
    definite there, each naming the first such time."""
    ts, exp_tB = props.ts, props.exp_tB
    small = ts <= T_SWITCH
    large = ~small
    # e^(-tB^T) = inv(e^(tB))^T
    inv = _per_time(np.linalg.inv, exp_tB[small], ts[small],
                    SingularPropagatorError,
                    "e^(tB) is singular in floating point at t = {t:.6g}, so "
                    "D_t = Qinf e^(-tB^T) Qinf^-1 cannot be formed there")
    Dt = np.einsum("ij,mkj,kl->mil", model.Qinf, inv, model.Qinf_inv)
    Dmt = np.einsum("ij,mkj,kl->mil", model.Qinf, exp_tB[large],
                    model.Qinf_inv)
    A = props.Qt_inv[small] - model.Qinf_inv[None]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    # on a stiff drift the fast entries of Qt^-1 and Qinf^-1 agree to every
    # digit while D_t x grows, so -<A y, y>/2 no longer cancels R(x)
    _per_time(np.linalg.cholesky, A, ts[small], NumericalOverflowError,
              "A = Qt^-1 - Qinf^-1 is not positive definite in floating "
              "point at t = {t:.6g}: the kernel's small-time form cancels "
              "there")
    M, N = np.empty_like(props.Qt_inv), np.empty_like(props.Qt_inv)
    S = np.einsum("mji,jk,mkl->mil", exp_tB[large], model.Qinf_inv,
                  exp_tB[large])
    N[large] = np.linalg.solve(np.eye(model.n) - S @ model.Qinf, S)
    M[large] = model.Qinf_inv[None] + N[large]
    M[small] = np.einsum("mji,mjk,mkl->mil", Dt, A, Dt)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    N[small] = M[small] - model.Qinf_inv[None]
    N = 0.5 * (N + np.swapaxes(N, -1, -2))
    return KernelForms(small=small, Dt=Dt, A=A, Dmt=Dmt, M=M, N=N)


def _by_side(small: np.ndarray, below, above) -> np.ndarray:
    """below at the times of small, above at the others, (m, n, n); either
    may be one (n, n) matrix for all its times."""
    out = np.empty((small.size, *np.shape(above)[-2:]))
    out[small], out[~small] = below, above
    return out


# ---------------------------------------------------------------------------
# log K


def _logk_factors(model: OUModel, props: Propagators,
                  split: bool = True) -> tuple:
    """Per-time factors (P, R, G, const, k) of log K for every time of
    props, as in the module docstring: P, R and G as (n, n, m), const as
    (m,).  Below T_SWITCH they are (I, Dt, A), above it (D_{-t}, I, M).
    k is the number of times below T_SWITCH when split is asked for and
    those times come first, as on a sorted grid, and None otherwise."""
    f = kernel_forms(model, props)
    small, eye = f.small, np.eye(model.n)
    P = _by_side(small, eye, f.Dmt)
    R = _by_side(small, f.Dt, eye)
    G = _by_side(small, f.A, f.M[~small])
    k = int(np.count_nonzero(small))
    return (_time_last(P), _time_last(R), _time_last(G),
            0.5 * (model.logdet_Qinf - props.logdet_Qt),
            k if split and small[:k].all() else None)


def _logk_eval(model: OUModel, factors: tuple, x, u, out=None):
    """log K - R(x) from the factors of _logk_factors, in out when given.

    x and u hold one point per component, (n, ...); their pair shape
    broadcasts against the time shape of the factors.  Every sum is
    _dot's, accumulated in place in a few arrays of the result's shape.
    Given k, the first k times take y = u - R x and the others y = P u - x:
    there P = I and R = I, and 1 x + 0 x' is x exactly."""
    P, R, G, const, k = factors
    n = model.n
    shape = np.broadcast_shapes(x[0].shape, u[0].shape, const.shape)
    y = np.empty((n, *shape))
    g, tmp = np.empty(shape), np.empty(shape)
    lo, hi = (..., slice(None, k)), (..., slice(k, None))
    for i in range(n):
        if k is None:
            _dot(P[i], u, y[i], tmp)
            y[i] -= _dot(R[i], x, g, tmp)
        else:
            np.subtract(u[i], _dot(R[i][:, :k], x, g[lo], tmp[lo]),
                        out=y[i][lo])
            _dot(P[i][:, k:], u, y[i][hi], tmp[hi])
            y[i][hi] -= x[i]
    # -<G y, y>/2 + const, the products (G y)_i y_i summed in i order
    acc = np.empty(shape) if out is None else out
    for i in range(n):
        gy = _dot(G[i], y, acc if i == 0 else g, tmp)
        gy *= y[i]
        if i:
            acc += gy
    acc *= -0.5
    acc += const
    return acc


def log_kernel_grid(model: OUModel, props: Propagators, x, u) -> np.ndarray:
    """log K_t(x_i, u_i) - R(x_i) for every pair i of x, u (p, n) and
    every grid time, (p, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], props.ts.size))
    factors = _logk_factors(model, props)
    for rows, xb, ub in _row_blocks(props.ts.size, x, u):
        _logk_eval(model, factors, xb, ub, out[rows])
    return out


def _logk_pairs(model: OUModel, ts, x, u) -> np.ndarray:
    """log K_{t_i}(x_i, u_i) - R(x_i) for log_kernel_pairs' arguments, in
    blocks of some dozen (pairs, n, n) arrays of _BLOCK_CELLS entries."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x, u = (np.broadcast_to(v, (ts.size, model.n)) for v in (x, u))
    out = np.empty(ts.size)
    for rows, xb, ub in _row_blocks(model.n * model.n, x, u):
        factors = _logk_factors(model, propagators(model, ts[rows]),
                                split=False)
        _logk_eval(model, factors, xb[..., 0], ub[..., 0], out[rows])
    return out


def log_kernel_pairs(model: OUModel, ts, x, u) -> np.ndarray:
    """log K_{t_i}(x_i, u_i) with one time per pair, (m,); x and u (m, n),
    or one point (n,) or (1, n) taken at every time."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return _logk_pairs(model, ts, x, u) + quadratic_r(model, x)


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
    n eps times a first-order estimate of the relative error of the
    factors, which sets the slope's rounding floor: Qt = Qinf - e^{tB}
    Qinf e^{tB^T} carries an absolute error of about eps |Qinf|, so Qt^-1
    a relative one of eps |Qinf| |Qt^-1| (generously so below t = 1e-3,
    where Qt comes from a series); the differences A and N amplify it by
    their cancellation ratios; and e^{tB} adds the error eps t |B| of its
    argument.  The floor is an estimate, not a bound: e^{tB} comes from
    B's eigenvectors, whose rounding the last term does not see, and
    against 50-digit mpmath the slope reaches 1.35 floors on standard1 at
    t = 1.05 and 37 on general2 at t = 16.
    """
    f = kernel_forms(model, props)
    small = f.small
    C = _by_side(small, np.swapaxes(f.Dt, -1, -2) @ f.A,
                 f.M[~small] @ f.Dmt)
    h0 = -0.5 * np.einsum("ij,mji->m", model.Q, f.N)
    qt_inv_norm = _inf_norm(props.Qt_inv)
    # below T_SWITCH, A = Qt^-1 - Qinf^-1 and N = M - Qinf^-1 are formed as
    # differences, which cancel as t approaches 1
    amp = np.ones_like(props.ts)
    qinf_inv_norm = _inf_norm(model.Qinf_inv)
    amp[small] = ((qt_inv_norm[small] + qinf_inv_norm)
                  / _inf_norm(f.A)
                  * (_inf_norm(f.M[small]) + qinf_inv_norm)
                  / _inf_norm(f.N[small]))
    kappa = model.n * np.finfo(float).eps * (
        _inf_norm(model.Qinf) * qt_inv_norm * amp
        + _inf_norm(model.B) * props.ts)
    return _time_last(C), _time_last(f.N), h0, kappa


def _slope_eval(model: OUModel, factors: tuple, x, u, out=(None, None)):
    """d/dt log K and its rounding floor from the factors of _slope_factors,
    into the arrays of out where given.

    x and u are as in _logk_eval, and every sum is accumulated in place
    as there.  The floor is kappa times the sum of the magnitudes of the
    three terms: the factors' relative error carried through each of them.
    """
    C, N, h0, kappa = factors
    n = model.n
    shape = np.broadcast_shapes(x[0].shape, u[0].shape, h0.shape)
    g = np.empty((n, *shape))
    half, q, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    for i in range(n):
        _dot(C[i], u, g[i], tmp)
        g[i] -= _dot(N[i], x, q, tmp)
    # <Q g, g>/2, the products (Q g)_i g_i summed in i order
    for i in range(n):
        qg = _dot(model.Q[i], g, half if i == 0 else q, tmp)
        qg *= g[i]
        if i:
            half += qg
    half *= 0.5
    lin = _dot([_dot(model.B[i], x) for i in range(n)], g, q, tmp)
    slope = np.add(h0, half, out=out[0])
    slope += lin
    # kappa (|h0| + <Q g, g>/2 + |<Bx, g>|)
    half += np.abs(h0)
    half += np.abs(lin, out=lin)
    return slope, np.multiply(half, kappa, out=out[1])


def logk_time_slope_grid(model: OUModel, props: Propagators, x, u
                         ) -> tuple[np.ndarray, np.ndarray]:
    """d/dt log K_t(x_i, u_i) for every pair i of x, u (p, n) and every
    time of props, (p, m) each.

    Returns (slope, rounding floor).  The slope is L_x K / K from the
    backward equation, exact up to rounding; see _slope_factors.  The
    per-time factors are formed once and shared by all pairs.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    slope, floor = (np.empty((x.shape[0], props.ts.size)) for _ in range(2))
    factors = _slope_factors(model, props)
    for rows, xb, ub in _row_blocks(props.ts.size, x, u):
        _slope_eval(model, factors, xb, ub, (slope[rows], floor[rows]))
    return slope, floor


# ---------------------------------------------------------------------------
# zeros of t -> dK/dt on an interval, (0, 1] by default

# on the scan route, bisection stops once every bracket of a zero is
# narrower than this
_REFINE_WIDTH = 1e-10


@dataclass(frozen=True)
class ZeroCount:
    count: int
    zeros: np.ndarray
    stable: bool
    route: str                  # "polynomial" or "scan"
    degree: int | None          # of the slope polynomial; None on the scan


def _sign_tol(floor: np.ndarray, out=None) -> np.ndarray:
    """The magnitude up to which a slope value with the given rounding
    floor counts as zero, max(1e-13, 4 floor) (NaN for a NaN floor), in
    out when given."""
    tol = np.multiply(floor, 4.0, out=out)
    return np.maximum(tol, 1e-13, out=tol)


def _sign_changes(slope: np.ndarray, tol: np.ndarray):
    """(row, left column, right column) of every strict sign flip of the
    rows of slope, (p, m), treating NaN and values within their tolerance
    tol (_sign_tol) as zero: left and right are neighbouring nonzero signs
    of one row, with opposite signs."""
    s = np.where(np.abs(slope) > tol, np.sign(slope), 0).astype(np.int8)
    rows, cols = np.nonzero(s)
    signs = s[rows, cols]
    flip = (rows[1:] == rows[:-1]) & (signs[1:] != signs[:-1])
    return rows[1:][flip], cols[:-1][flip], cols[1:][flip]


def _flip_counts(slope: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per row of slope (p, m), the flips _sign_changes counts against the
    tolerance tol: a row with no value within it flips where neighbouring
    signs differ."""
    pos = slope > 0
    counts = np.count_nonzero(pos[:, 1:] != pos[:, :-1], axis=1)
    near = np.flatnonzero(~(np.abs(slope) > tol).all(axis=1))
    rows, _, _ = _sign_changes(slope[near], tol[near])
    counts[near] = np.bincount(rows, minlength=near.size)
    return counts


def _check_scan(t_interval: tuple[float, float], n_scan: int) -> None:
    """Refuse an interval that is not 0 < t_lo < t_hi < inf, and n_scan
    below 2, alike on both zero-count routes."""
    t_lo, t_hi = t_interval
    if not 0 < t_lo < t_hi < np.inf:
        raise NonPositiveTimeError("need 0 < t_lo < t_hi, both finite")
    if n_scan < 2:
        raise ArgumentRangeError("the zero scan needs at least 2 times")


def _scan_counts(model: OUModel, X: np.ndarray, U: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
    """Per pair of X, U, the slope's sign flips on the grid (_flip_counts),
    reduced block by block."""
    counts = np.empty(X.shape[0], dtype=np.intp)
    factors = _slope_factors(model, propagators(model, grid))
    for rows, xb, ub in _row_blocks(grid.size, X, U):
        slope, floor = _slope_eval(model, factors, xb, ub)
        counts[rows] = _flip_counts(slope, _sign_tol(floor, out=floor))
    return counts


# The exact route.  Where B's eigenvalues are -k_i b with small integers
# k_i (model.commensurate_rates), put tau = 1 - s, s = e^{-bt}, which runs
# from 0 to 1 as t does from 0 to infinity, and v = u - e^{tB} x.  In B's
# eigenvector coordinates (V^-1 a, V^-1 a V^-T) e^{tB} is diag((1 -
# tau)^k_i) and Qt = tau W with W_ij = Qinf_ij g_{k_i + k_j}, g_m = (1 -
# (1 - tau)^m) / tau, so Qt never forms the cancelling difference Qinf -
# e^{tB} Qinf e^{tB^T}.  With d = det W, of degree D = 2 sum k - n, and
# a = <adj W v, v>, of degree D + 1,
#
#     log K = const - (n log tau + log d) / 2 - a / (2 tau d),
#
# and since dtau/dt = b s > 0, d/dt log K has the sign of d/dtau log K,
# which is -N / (2 tau^2 d^2) with the polynomial
#
#     N = n tau d^2 + tau^2 d d' + tau d a' - (tau d' + d) a.
#
# Its a-terms cancel at tau^{2D+1}, so N has degree 2D + 1 exactly, with
# leading coefficient (n + D) lead(d)^2: 9 on general2, 2n + 1 on the
# standard models.  a is quadratic in (u - x, x), so N's coefficients are
# one product of the pair's quadratic features with a per-model matrix.
# With u - x kept apart, the constant coefficient -d(0) <adj W(0)(u - x),
# u - x> carries no cancellation at small t.  The sign changes of N on an
# interval come from its coefficients and their magnitudes alone, in the
# Bernstein basis (bernstein.isolate); no root of N is computed.


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for 1-D coefficient arrays, lowest power first."""
    out = np.zeros(max(a.size, b.size))
    out[:a.size] += a
    out[:b.size] += b
    return out


def _poly_deriv(a: np.ndarray) -> np.ndarray:
    """a' for a 1-D coefficient array, lowest power first."""
    return a[1:] * np.arange(1, a.size) if a.size > 1 else np.zeros(1)


def _times_tau(a: np.ndarray) -> np.ndarray:
    """tau a for a 1-D coefficient array, lowest power first."""
    return np.concatenate([[0.0], a])


def _poly_det(M: list) -> np.ndarray:
    """det M for a square list of rows of polynomials (1-D coefficient
    arrays, lowest power first), by cofactors along the first row; 1 for
    an empty M."""
    if not M:
        return np.ones(1)
    det = np.zeros(1)
    for j, entry in enumerate(M[0]):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        det = _poly_add(det, (-1.0) ** j * np.convolve(entry,
                                                       _poly_det(minor)))
    return det


def _one_minus_power(m: int) -> np.ndarray:
    """1 - (1 - tau)^m, lowest power first (its constant term is 0)."""
    p = np.ones(1)
    for _ in range(m):
        p = np.convolve(p, [1.0, -1.0])
    p[0] = 0.0
    return -p


def _kdot_poly_factors(model: OUModel, rates: tuple) -> tuple:
    """The per-model part of N (see above): (Vinv, rows, const), so that
    a pair's coefficients, lowest power first, are feats @ rows + const
    for feats the products (u - x)~_i (u - x)~_j, (u - x)~_i x~_j and
    x~_i x~_j in that order, ~ being Vinv applied."""
    _, k = rates
    n = model.n
    vinv = np.real(model.eig_vecs_inv)
    q = vinv @ model.Qinf @ vinv.T
    W = [[q[i, j] * _one_minus_power(k[i] + k[j])[1:] for j in range(n)]
         for i in range(n)]
    d = _poly_det(W)
    tau_d = _times_tau(d)
    # adj W_ij is the (j, i) cofactor
    adj = [[(-1.0) ** (i + j) * _poly_det(
        [row[:i] + row[i + 1:] for r, row in enumerate(W) if r != j])
        for j in range(n)] for i in range(n)]
    # v~_i = (u - x)~_i + (1 - (1 - tau)^k_i) x~_i
    grow = [_one_minus_power(ki) for ki in k]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    parts = ([adj[i][j] for i, j in pairs]
             + [2.0 * np.convolve(adj[i][j], grow[j]) for i, j in pairs]
             + [np.convolve(np.convolve(adj[i][j], grow[i]), grow[j])
                for i, j in pairs])
    # N = tau d (n d + tau d') + tau d a' - (tau d' + d) a
    const = np.convolve(tau_d, _poly_add(n * d, _times_tau(_poly_deriv(d))))
    rows = np.zeros((len(parts), const.size))
    for row, a in zip(rows, parts):
        term = _poly_add(np.convolve(tau_d, _poly_deriv(a)),
                         -np.convolve(_poly_deriv(tau_d), a))
        row[:term.size] = term
    # the a-terms of tau^{2D+1} cancel exactly; drop their rounding
    rows[:, -1] = 0.0
    return vinv, rows, const


def kdot_polynomial(model: OUModel, X, U, rates: tuple | None = None,
                    _factors: tuple | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The polynomial N in tau = 1 - e^{-bt} whose roots in tau are the
    zeros of t -> d/dt K_t(x, u), for every pair of X, U (p, n), on a
    model with a commensurate real spectrum (model.commensurate_rates,
    taken as given when rates is passed); d/dt log K has the sign of -N.

    Returns (coef, mag), each (p, deg + 1) with the lowest power first:
    the coefficients, of exact degree deg = 4 sum k - 2n + 1, and the
    sums of their terms in absolute value, which bound what their
    rounding errors scale with.  See the comment above for the form.
    _poly_route, which calls it on many blocks of pairs, passes the
    per-model part, _kdot_poly_factors(model, rates), as _factors."""
    if _factors is None:
        rates = commensurate_rates(model) if rates is None else rates
        if rates is None:
            raise ArgumentRangeError("the slope polynomial needs B's "
                                     "eigenvalues to be -k_i b with small "
                                     "integers k_i")
        _factors = _kdot_poly_factors(model, rates)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    vinv, rows, const = _factors
    dx, x = (U - X) @ vinv.T, X @ vinv.T
    feats = np.concatenate([(a[:, :, None] * c[:, None, :]).reshape(
        X.shape[0], -1) for a, c in ((dx, dx), (dx, x), (x, x))], axis=1)
    return (feats @ rows + const,
            np.abs(feats) @ np.abs(rows) + np.abs(const))


def _poly_route(model: OUModel, rates: tuple, X, U,
                t_interval: tuple[float, float]) -> tuple:
    """(coef, pair, lo, hi, left_sign, stable): bernstein.isolate's result
    in tau for the pairs of X, U (p, n) on the interval, each bracket with
    its pair's coefficients, in blocks of pairs that keep some eight
    (pairs, deg + 1) arrays of about _BLOCK_CELLS entries each.

    The slope decays as e^{-min(k) b t}, so N vanishes to order min(k) -
    1 at tau = 1, and within rounding long before it: on a 2-D drift with
    k = (2, 3) a zero at t = 9.3 has N within 0.7 of its rounding bound.
    That factor 1 - tau, positive below tau = 1, is divided out: the
    quotient's coefficients are the partial sums of N's from the constant
    one up, and so are their magnitudes, so the quotient keeps N's
    constant coefficient and its bound."""
    from .bernstein import isolate
    poly = _kdot_poly_factors(model, rates)
    lo, hi = -np.expm1(-rates[0] * np.asarray(t_interval, dtype=float))
    p, found = X.shape[0], []
    size = max(2, _BLOCK_CELLS // poly[1].shape[1])
    for start in range(0, max(p - 1, 1), size):
        # kdot_polynomial rounds a lone pair apart: it joins the last block
        rows = slice(start, p if start + size >= p - 1 else start + size)
        coef, mag = kdot_polynomial(model, X[rows], U[rows], _factors=poly)
        for _ in range(int(min(rates[1])) - 1):
            coef, mag = (np.cumsum(a, axis=1)[:, :-1] for a in (coef, mag))
        at, left, right, left_sign, stable = isolate(coef, mag, lo, hi)
        found.append((coef[at], start + at, left, right, left_sign, stable))
    return tuple(np.concatenate(a) for a in zip(*found))


def _kdot_zeros(model: OUModel, rates: tuple, X, U,
                t_interval: tuple[float, float]) -> tuple:
    """(pair, t, stable) on the interval: _poly_route's brackets bisected
    to the last bit of tau (bernstein.bisect_brackets), in pair order and
    ascending t within a pair, and _poly_route's stable per pair."""
    from .bernstein import bisect_brackets
    coef, pair, lo, hi, left_sign, stable = _poly_route(model, rates, X, U,
                                                        t_interval)
    t = -np.log1p(-bisect_brackets(coef, lo, hi, left_sign)) / rates[0]
    # clipped: tau rounds to 1 where e^{-bt} < eps / 2
    return pair, np.clip(t, *t_interval), stable


def count_kdot_zeros(model: OUModel, x, u,
                     t_interval: tuple[float, float] = (1e-8, 1.0),
                     n_scan: int = 4096) -> ZeroCount:
    """Count sign changes of t -> dK/dt(x, u) on the interval, and locate
    them.

    On a model with a commensurate real spectrum (commensurate_rates)
    the count is exact, and the zeros are those of _kdot_zeros; stable is
    true unless a part of the interval stayed undecided within rounding,
    as about a double root, and n_scan plays no part.  On every other
    model the count and its stability are count_kdot_zeros_batch's on the
    one pair: the flips of one scan of the slope (_flip_counts), compared
    with those on the doubled grid.  The same scan gives the brackets, and
    each flip is refined by bisection, every bracket at once: the slope at
    the midpoints is logk_time_slope_grid's with the midpoints as its
    times.
    """
    _check_scan(t_interval, n_scan)
    X = np.asarray(x, dtype=float).reshape(1, model.n)
    U = np.asarray(u, dtype=float).reshape(1, model.n)
    rates = commensurate_rates(model)
    if rates is not None:
        _, zeros, stable = _kdot_zeros(model, rates, X, U, t_interval)
        return ZeroCount(count=int(zeros.size), zeros=zeros,
                         stable=bool(stable[0]), route="polynomial",
                         degree=4 * int(np.sum(rates[1])) - 2 * model.n + 1)
    grid = np.geomspace(*t_interval, n_scan)
    fine = np.geomspace(*t_interval, 2 * n_scan)
    slope, floor = logk_time_slope_grid(model, propagators(model, grid), X, U)
    tol = _sign_tol(floor)
    count = _flip_counts(slope, tol)[0]
    stable = count == _scan_counts(model, X, U, fine)[0]
    _, left, right = _sign_changes(slope, tol)
    lo, hi, left_sign = grid[left], grid[right], np.sign(slope[0, left])
    while np.max(hi - lo, initial=0.0) > _REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        sm, _ = logk_time_slope_grid(model, propagators(model, mid), X, U)
        same = np.sign(sm[0]) == left_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return ZeroCount(count=int(count), zeros=np.sort(0.5 * (lo + hi)),
                     stable=bool(stable), route="scan", degree=None)


def count_kdot_zeros_batch(model: OUModel, X, U,
                           t_interval: tuple[float, float] = (1e-8, 1.0),
                           n_scan: int = 4096):
    """Zero counts for many pairs at once; returns (counts, stable mask).
    On a model with a commensurate real spectrum the counts are exact,
    _poly_route's, and a pair is unstable only where a part of the
    interval stayed undecided within rounding.  On every other model the
    count is rerun on a doubled grid and a pair is unstable if it moves."""
    _check_scan(t_interval, n_scan)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    rates = commensurate_rates(model)
    if rates is not None:
        _, pair, _, _, _, stable = _poly_route(model, rates, X, U,
                                               t_interval)
        return np.bincount(pair, minlength=X.shape[0]), stable
    grid = np.geomspace(*t_interval, n_scan)
    fine = np.geomspace(*t_interval, 2 * n_scan)
    counts = _scan_counts(model, X, U, grid)
    return counts, counts == _scan_counts(model, X, U, fine)


# ---------------------------------------------------------------------------
# critical times on isotropic models, B = -b I and Qinf = lam I


def time_critical_cubic(model: OUModel, x, c, width: float):
    """The cubic P in s = e^{-bt} whose roots are the critical times of
    t -> H_t f(x), f the Gaussian bump of the given width about c, on a
    model with B = -b I and Qinf = lam I (model.isotropic_rates).

    H_t f(x) is a constant times D^{-n/2} exp(-|s x - c|^2 / (2 D)) with
    D = lam (1 - s^2) + w^2, so with kappa = lam + w^2
    d/ds log H_t f(x) = P(s) / D^2 and

        P(s) = -n lam^2 s^3 + lam <c, x> s^2
               + (kappa (n lam - |x|^2) - lam |c|^2) s + kappa <c, x>.

    At width 0 and c = u, H_t f(x) is K_t(x, u) times a factor that does
    not depend on t, and P / lam is the cubic of d/dt log K: its roots in
    (e^{-b t_hi}, e^{-b t_lo}) are the zeros of the time slope on
    [t_lo, t_hi], which count_kdot_zeros reads from its slope polynomial
    (kdot_polynomial).

    x is (points, n) and c is (n,) or (points, n).  Returns the
    coefficients, (points, 4) with the highest power first."""
    rates = isotropic_rates(model)
    if rates is None:
        raise ArgumentRangeError("the critical-time cubic needs B = -b I "
                                 "and Qinf = lam I")
    lam, n = rates[1], model.n
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c = np.broadcast_to(np.asarray(c, dtype=float), x.shape)
    kappa = lam + float(width) ** 2
    cx, xx, cc = (np.einsum("pi,pi->p", a, b)
                  for a, b in ((c, x), (x, x), (c, c)))
    return np.stack([np.full(cx.shape, -n * lam * lam), lam * cx,
                     kappa * (n * lam - xx) - lam * cc, kappa * cx], axis=1)


def real_roots(coef: np.ndarray) -> np.ndarray:
    """The real roots of each row's cubic, (rows, 3), for coef (rows, 4)
    with the highest power first and nonzero; NaN where a root is not
    real.  Closed forms: Cardano's (one real root, in the first column)
    or the trigonometric one (three).  Roots near a multiple root keep
    only about half their digits, and a multiple root may come out as a
    complex pair, NaN."""
    # monic, one contiguous row per coefficient
    a = np.ascontiguousarray((coef[:, 1:] / coef[:, :1]).T)
    with np.errstate(all="ignore"):
        # s = y - a0 / 3 turns the cubic into y^3 + p y + q
        shift = a[0] / 3.0
        p = a[1] - a[0] * shift
        q = (2.0 * shift * shift - a[1]) * shift + a[2]
        third = p / 3.0
        disc = 0.25 * q * q + third * third * third
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))
        one = np.where(u != 0, u - third / u, 0.0)
        r = np.sqrt(-third)
        phi = np.arccos(np.clip(-0.5 * q / (r * r * r), -1.0, 1.0)) / 3.0
        y = 2.0 * r * np.cos(phi - (2.0 * np.pi / 3.0) * np.arange(3)[:, None])
        y[:, r == 0] = 0.0
        real = disc > 0
        y[0, real] = one[real]
        y[1:, real] = np.nan
    return (y - shift).T


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
        lam = np.linalg.eigvalsh(
            kernel_forms(model, propagators(model, ts)).A).min(axis=1)
        cap = float(np.min(ts * lam) / 2.0)
    else:
        ts = np.geomspace(1.0, _T_LARGE, 512)
        lam = np.linalg.eigvalsh(
            kernel_forms(model, propagators(model, ts)).M).min(axis=1)
        cap = float(min(lam.min() / 2.0, -model.spectral_abscissa))
    return safety * min(cap, natural_rate(model) / safety)


def _log_caps(model: OUModel, which: str, ts: np.ndarray,
              c: float) -> np.ndarray:
    """log sup over (x, u) of one Gaussian bound's ratio at rate c, at
    each time of ts, (m,).  Over e^{R(x)}, the ratios are K t^{n/2}
    e^{c |y|^2 / t} (kernel-small-t), |dK/dt| t^{n/2} e^{c |y|^2 / t} /
    (|x| / sqrt t + 1/t) (dkernel-small-t) with y = u - Dt x, and
    |dK/dt| e^{c |y|^2} / (|x + y| + e^{-ct}) with y = D_{-t} u - x
    (dkernel-large-t); x and y range over all pairs.

    log K - R(x) = const - <G y, y>/2, G = A or M, and the Lyapunov
    equation cancels the x-quadratic of the slope (_slope_factors):
    d/dt log K = h0 + <Q w, w>/2 - <x, V y>, with w = F y, F = Dt^T A or
    M and V = Qinf^-1 B Qinf F.  Over x, the slope's ratio to the x
    factor of the right-hand side is a Moebius function of |x| (of
    |x + y| for large t), largest at 0 or at infinity: max(t |alpha|,
    sqrt t |V y|), or max(e^{ct} |alpha + <y, V y>|, |V y|), alpha = h0 +
    <Q w, w>/2.  Both quadratics are h0 + <H y, y>/2, H = F^T Q F, or for
    large t N Q N - B^T N - N B, the form of F^T Q F + V + V^T that does
    not cancel.  With P = G - (2c/t) I or G - 2c I and z = P^{1/2} y the
    exponent is -|z|^2/2, so the sup of the quadratic term is max(log
    |h0|, log |h| - 1 + h0/h) over the extreme eigenvalues h of
    P^{-1/2} H P^{-1/2} with h0/h < 1, that of the linear term log
    |V P^{-1/2}|_2 - 1/2, and that of kernel-small-t is at y = 0.

    Raises RateTooLargeError, naming the critical rate, where P is not
    positive definite at some time: the ratio is unbounded there."""
    pr = propagators(model, ts)
    f = kernel_forms(model, pr)
    small = which != "dkernel-large-t"
    shift = 2.0 * c / ts if small else np.full(ts.size, 2.0 * c)
    lam, vec = np.linalg.eigh((f.A if small else f.M)
                              - shift[:, None, None] * np.eye(model.n))
    if not lam[:, 0].min() > 0:
        crit = 0.5 * np.min((lam[:, 0] + shift) * (ts if small else 1.0))
        raise RateTooLargeError(
            f"no finite cap at c={c:g}: the bound's exponent is not "
            f"negative definite above the critical rate {crit:.3g}")
    log_t = np.log(ts)
    const = 0.5 * (model.logdet_Qinf - pr.logdet_Qt)
    if which == "kernel-small-t":
        return const + 0.5 * model.n * log_t
    root = (vec / np.sqrt(lam)[:, None, :]) @ np.swapaxes(vec, -1, -2)
    N = f.N
    if small:
        F = np.swapaxes(f.Dt, -1, -2) @ f.A
        H = np.swapaxes(F, -1, -2) @ model.Q @ F
    else:
        F = f.M
        BN = model.B.T @ N
        H = N @ model.Q @ N - BN - np.swapaxes(BN, -1, -2)
    V = model.Qinf_inv @ model.B @ model.Qinf @ F
    h0 = -0.5 * np.einsum("ij,mji->m", model.Q, N)
    h = np.linalg.eigvalsh(root @ H @ root)[:, [0, -1]]
    # a vanishing h0 or h contributes log 0 = -inf, and h0/h >= 1 nothing
    ratio = np.divide(h0[:, None], h, out=np.full(h.shape, np.inf),
                      where=h != 0)
    peak = np.full(h.shape, -np.inf)
    at = ratio < 1
    peak[at] = np.log(np.abs(h[at])) - 1.0 + ratio[at]
    quad = np.maximum(peak.max(axis=1),
                      np.log(np.abs(h0), out=np.full(h0.shape, -np.inf),
                             where=h0 != 0))
    lin = np.log(np.linalg.norm(V @ root, ord=2, axis=(-2, -1))) - 0.5
    if small:
        return const + 0.5 * model.n * log_t + np.maximum(
            log_t + quad, 0.5 * log_t + lin)
    return const + np.maximum(c * ts + quad, lin)


def calibrate_bound(model: OUModel, which: str, n_samples: int = 10_000,
                    seed: int = 0, c: float | None = None
                    ) -> BoundCalibration:
    """Calibrate one of the pointwise kernel bounds at rate c, by default
    admissible_rate's.

    For the three Gaussian bounds the cap is the exact supremum of the
    ratio (true quantity over the c-rate right-hand side) over all (x, u),
    in closed form (_log_caps), maximised over 48 log-spaced times; it is
    stable if the cap moves by at most 10 percent when the time grid
    doubles.  A rate at which the supremum is infinite at some time of
    either grid raises RateTooLargeError with the critical rate.
    n_samples and seed feed only the sampled tail-integral bound
    (_calibrate_tail_integral).  Its stable flag is the half-sample test
    alone where the integral is exact (a commensurate spectrum), and the
    half-sample and grid-doubling tests together elsewhere.
    """
    if which not in BOUND_NAMES:
        raise BadOrderError(f"unknown bound name {which!r}")
    if n_samples < 4:
        raise ArgumentRangeError("calibration needs at least 4 samples")
    if c is not None and not c > 0:
        raise ArgumentRangeError(f"rate must be positive, got {c:g}")
    if which == "tail-integral":
        return _calibrate_tail_integral(model, n_samples, seed,
                                        None if c is None else float(c))
    rate = admissible_rate(model, which) if c is None else float(c)
    span = (1.0, _T_LARGE) if which == "dkernel-large-t" else (1e-6, 1.0)
    caps = _log_caps(model, which, np.concatenate(
        [np.geomspace(*span, 48), np.geomspace(*span, 96)]), rate)
    cap, fine = caps[:48].max(), caps[48:].max()
    with np.errstate(over="ignore"):        # a cap past the largest double
        prefactor_cap = float(np.exp(cap))
    return BoundCalibration(which=which, exponent_rate=rate,
                            prefactor_cap=prefactor_cap,
                            stable=bool(abs(fine - cap) <= np.log(1.1)))


def _variation(lk: np.ndarray) -> np.ndarray:
    """Per row of lk, log K / e^{R(x)} at one pair's times in order, the
    sum of |Delta K| / e^{R(x)}; lk is overwritten."""
    np.exp(lk, out=lk)
    step = np.subtract(lk[:, 1:], lk[:, :-1])
    return np.abs(step, out=step).sum(axis=1)


def _tail_tv_exact(model: OUModel, rates: tuple, x: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Per pair of x, u (p, n), int_1^50 |dK/dt| dt / e^{R(x)} exactly,
    on a model with a commensurate real spectrum: K is monotone between
    the sign changes of the slope polynomial on [1, 50] (_kdot_zeros), so
    the integral is the sum of |K(b) - K(a)| over the stretches [a, b]
    that they, 1 and 50 bound, K at the zeros by _logk_pairs.  A bracket
    left undecided counts as its ends say, as in count_kdot_zeros."""
    at, ts, _ = _kdot_zeros(model, rates, x, u, (1.0, _T_LARGE))
    # log K / e^{R(x)} at 1, at each pair's zeros in order and at 50, the
    # rows padded with its value at 50 to the longest
    count = np.bincount(at, minlength=x.shape[0])
    lk = np.empty((count.size, count.max(initial=0) + 2))
    lk[:, [0, -1]] = log_kernel_grid(
        model, propagators(model, [1.0, _T_LARGE]), x, u)
    lk[:, 1:-1] = lk[:, -1:]
    slot = 1 + np.arange(at.size) - (np.cumsum(count) - count)[at]
    lk[at, slot] = _logk_pairs(model, ts, x[at], u[at])
    return _variation(lk)


def _calibrate_tail_integral(model: OUModel, n_samples: int, seed: int,
                             rate: float | None = None) -> BoundCalibration:
    """max over (x, u) of int_1^50 |dK/dt| dt / e^{R(x)}, over
    min(n_samples, 2000) sampled pairs, reported at rate, by default the
    large-time admissible_rate.

    On a model with a commensurate real spectrum the integral is exact
    (_tail_tv_exact), the cap is its maximum, and stable means that it is
    within 10 percent of the maximum over the first half of the sample.
    On every other model the integral is the total variation of t -> K_t
    on a 1,024-time log grid, the cap is the larger of that and the
    maximum on the doubled grid, and stable means that the cap passes
    both 10 percent tests: against the half sample and against the
    doubled grid."""
    gen = substream(seed, 1)
    n = model.n
    m = min(n_samples, 2000)
    x = gen.standard_normal((m, n)) * 2.0
    u = gen.standard_normal((m, n)) * 2.0
    if rate is None:
        rate = admissible_rate(model, "dkernel-large-t")
    rates = commensurate_rates(model)
    if rates is not None:
        tv = _tail_tv_exact(model, rates, x, u)
        r_full = float(tv.max())
        return BoundCalibration(
            which="tail-integral", exponent_rate=rate, prefactor_cap=r_full,
            stable=r_full <= 1.1 * float(tv[:m // 2].max()))

    def tv_over_e_r(grid_size: int) -> np.ndarray:
        """Per-pair total variation of K / e^{R(x)} on the grid."""
        grid = np.geomspace(1.0, _T_LARGE, grid_size)
        tv = np.empty(m)
        factors = _logk_factors(model, propagators(model, grid))
        for rows, xb, ub in _row_blocks(grid_size, x, u):
            tv[rows] = _variation(_logk_eval(model, factors, xb, ub))
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
    """Every bound in BOUND_NAMES calibrated (calibrate_bound): its rate,
    its prefactor cap, and whether the cap is finite and stable.  The
    three Gaussian caps are exact suprema, stable if they move by at most
    10 percent when the time grid doubles; n_samples and seed feed only
    the sampled tail-integral bound, stable under sample doubling, and
    under grid doubling where its integral takes the grid route."""
    from .report import ProbeReport
    rows, stats, flags = [], {}, {}
    # two rates serve the four bounds: the small-time one and the
    # large-time one (admissible_rate)
    small, large = (admissible_rate(model, w)
                    for w in ("kernel-small-t", "dkernel-large-t"))
    for w in BOUND_NAMES:
        cal = calibrate_bound(model, w, n_samples=n_samples, seed=seed,
                              c=large if w in ("dkernel-large-t",
                                               "tail-integral") else small)
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
               "grid doubling"),
        inputs={"samples": n_samples},
        statistics=stats,
        tables={"calibrations": rows},
        pass_flags=flags,
        seed=seed)
