"""Reference computations the benchmark checks oulab against.

Nothing here imports oulab.  Each routine is written from the mathematics
(Mehler's formula, the Gaussian transition density, the ring definition of
the near/far cutoff, the definition of the rho-variation), so agreement is
evidence that the program is right rather than that it matches itself.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.linalg

_MASK64 = 0xFFFFFFFFFFFFFFFF


def philox(seed: int, index: int) -> np.random.Generator:
    """The counter-based stream keyed by (seed, index), the key layout the
    program documents for its sample points."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# rho-variation


def turning_points(values: np.ndarray) -> np.ndarray:
    """The endpoints and strict local extrema of a sequence, in order.

    Dropping the interior of a monotone run never changes the rho-variation
    for rho >= 1, since |a + b|^rho >= |a|^rho + |b|^rho when a and b have
    the same sign.  Repeated values are merged first.
    """
    v = np.asarray(values, dtype=float)
    if v.size <= 2:
        return v
    keep = np.concatenate([[True], np.diff(v) != 0])
    v = v[keep]
    if v.size <= 2:
        return v
    d = np.sign(np.diff(v))
    turn = d[1:] != d[:-1]
    return v[np.concatenate([[True], turn, [True]])]


def _dp(v: np.ndarray, rho: float) -> float:
    best = np.zeros(v.size)
    for j in range(1, v.size):
        best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** rho)
    return float(best.max())


def rho_variation(values, rho: float) -> float:
    """sup over increasing index subsequences of
    (sum |increments|^rho)^(1/rho)."""
    v = turning_points(values)
    if v.size < 2:
        return 0.0
    return _dp(v, rho) ** (1.0 / rho)


def rho_variation_rows(rows: np.ndarray, rho: float) -> np.ndarray:
    return np.array([rho_variation(r, rho) for r in np.asarray(rows)])


def variation_itertools(values, rho: float) -> float:
    """Every subsequence enumerated one by one; for short paths only."""
    v = [float(a) for a in values]
    best = 0.0
    for k in range(2, len(v) + 1):
        for idx in combinations(range(len(v)), k):
            best = max(best, sum(abs(v[b] - v[a]) ** rho
                                 for a, b in zip(idx, idx[1:])))
    return best ** (1.0 / rho)


def variation_subsets(values, rho: float) -> float:
    """Every subsequence at once: one row per bit mask, each selected point
    paired with the previously selected one.  Up to about 16 points."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        return 0.0
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1 == 1
    idx = np.where(bits, np.arange(n)[None, :], -1)
    last = np.maximum.accumulate(idx, axis=1)
    prev = np.concatenate([np.full((1 << n, 1), -1), last[:, :-1]], axis=1)
    step = np.abs(v[None, :] - v[np.maximum(prev, 0)]) ** rho
    total = np.where(bits & (prev >= 0), step, 0.0).sum(axis=1)
    return float(total.max()) ** (1.0 / rho)


# ---------------------------------------------------------------------------
# the standard one-dimensional model: Q = 2, B = -1, invariant measure N(0, 1)


def mehler_log_kernel(t, x, u):
    """log K_t(x, u) relative to N(0, 1), by Mehler's formula."""
    e = np.exp(-t)
    s = -np.expm1(-2.0 * t)
    return -(e * e * (x * x + u * u) - 2.0 * e * x * u) / (2.0 * s) \
        - 0.5 * np.log(s)


def bump_amplitude(center: float, width: float) -> float:
    """A making f(u) = A exp(-(u - c)^2 / (2 w^2)) have unit N(0, 1) mass."""
    s2 = width * width + 1.0
    return math.sqrt(s2) / width * math.exp(center * center / (2.0 * s2))


def mehler_bump(t, x, center: float, width: float):
    """H_t f(x) for the normalized bump: the Gaussian of the broadened
    variance w^2 + 1 - e^{-2t}, evaluated at e^{-t} x."""
    s2 = width * width - np.expm1(-2.0 * t)
    z = np.exp(-t) * x - center
    return bump_amplitude(center, width) * width / np.sqrt(s2) \
        * np.exp(-z * z / (2.0 * s2))


def geometric_grid(t_min: float, t_max: float, per_decade: int,
                   refinements: int) -> np.ndarray:
    """A log grid with per_decade points a decade, then the geometric
    midpoint of every gap inserted, refinements times over."""
    count = max(2, math.ceil(math.log10(t_max / t_min) * per_decade) + 1)
    p = np.geomspace(t_min, t_max, count)
    for _ in range(refinements):
        p = np.sort(np.concatenate([p, np.sqrt(p[:-1] * p[1:])]))
    return p


# ---------------------------------------------------------------------------
# the near/far cutoff, from the ring partition of unity graded by R


def smooth_step(s):
    """exp(-1/s) / (exp(-1/s) + exp(-1/(1-s))) on (0, 1); 0 below, 1 above."""
    s = float(s)
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    a = math.exp(-1.0 / s)
    b = math.exp(-1.0 / (1.0 - s))
    return a / (a + b)


def ring(j: int, R: float) -> float:
    """r_0 = 1 - psi(R - 1); r_j = psi(R - j) - psi(R - j - 1) for j >= 1."""
    if j == 0:
        return 1.0 - smooth_step(R - 1.0)
    return smooth_step(R - j) - smooth_step(R - j - 1.0)


def plateau(j: int, R: float) -> float:
    """psi(R - j + 2) - psi(R - j - 3), the lower cutoff dropped for j <= 2."""
    lo = smooth_step(R - j + 2.0) if j >= 3 else 1.0
    return lo - smooth_step(R - j - 3.0)


def eta(Rx: float, Ru: float) -> float:
    """eta(x, u) = sum_j plateau_j(x) ring_j(u), summed over every ring."""
    top = int(math.ceil(max(Rx, Ru))) + 6
    return sum(plateau(j, Rx) * ring(j, Ru) for j in range(top))


# ---------------------------------------------------------------------------
# a general Ornstein-Uhlenbeck model, from matrix exponentials


def invariant_covariance(Q, B) -> np.ndarray:
    """Qinf solving B Qinf + Qinf B^T = -Q."""
    return scipy.linalg.solve_continuous_lyapunov(np.asarray(B, float),
                                                  -np.asarray(Q, float))


def transition_covariance(Q, B, ts) -> np.ndarray:
    """Q_t = int_0^t e^{sB} Q e^{sB^T} ds for each t, (m, n, n).

    Up to t = 1 by Van Loan's block exponential, which keeps full relative
    precision as t -> 0; beyond, as Qinf - e^{tB} Qinf e^{tB^T}, where no
    cancellation is left to fear.
    """
    Q = np.asarray(Q, float)
    B = np.asarray(B, float)
    ts = np.asarray(ts, float)
    n = Q.shape[0]
    out = np.empty((ts.size, n, n))
    small = ts <= 1.0
    if small.any():
        blk = np.zeros((2 * n, 2 * n))
        blk[:n, :n] = -B
        blk[:n, n:] = Q
        blk[n:, n:] = B.T
        F = scipy.linalg.expm(ts[small, None, None] * blk[None])
        qt = np.swapaxes(F[:, n:, n:], 1, 2) @ F[:, :n, n:]
        out[small] = 0.5 * (qt + np.swapaxes(qt, 1, 2))
    if (~small).any():
        qinf = invariant_covariance(Q, B)
        E = scipy.linalg.expm(ts[~small, None, None] * B[None])
        out[~small] = qinf[None] - E @ qinf @ np.swapaxes(E, 1, 2)
    return out


def _gauss_logpdf(z, cov):
    """log N(z; 0, cov) over stacked z (..., n) and cov (..., n, n)."""
    n = z.shape[-1]
    _, logdet = np.linalg.slogdet(cov)
    w = np.linalg.solve(cov, z[..., None])[..., 0]
    q = np.einsum("...i,...i->...", z, w)
    return -0.5 * (q + logdet + n * math.log(2.0 * math.pi))


def log_kernel(Q, B, ts, x, u) -> np.ndarray:
    """log of the transition density from x_i to u_i over time t_i, divided
    by the invariant density at u_i.  ts (m,), x and u (m, n)."""
    ts = np.asarray(ts, float)
    E = scipy.linalg.expm(ts[:, None, None] * np.asarray(B, float)[None])
    qt = transition_covariance(Q, B, ts)
    z = np.asarray(u, float) - np.einsum("mij,mj->mi", E, np.asarray(x, float))
    return _gauss_logpdf(z, qt) - _gauss_logpdf(np.asarray(u, float),
                                                invariant_covariance(Q, B))


def log_kernel_grid(Q, B, ts, X, U) -> np.ndarray:
    """log K_t(x_i, u_i) for every pair and every time on a grid, (p, m)."""
    ts = np.asarray(ts, float)
    E = scipy.linalg.expm(ts[:, None, None] * np.asarray(B, float)[None])
    qt = transition_covariance(Q, B, ts)
    qinf = invariant_covariance(Q, B)
    out = np.empty((len(X), ts.size))
    X, U = np.asarray(X, float), np.asarray(U, float)
    for i, (x, u) in enumerate(zip(X, U)):
        z = u[None, :] - E @ x
        out[i] = _gauss_logpdf(z, qt) - _gauss_logpdf(u, qinf)
    return out


def slope_sign_changes(logk: np.ndarray) -> np.ndarray:
    """Sign changes of the increments of each row of log K along a time
    grid; K and log K rise and fall together.  Zero increments are skipped."""
    counts = np.empty(logk.shape[0], dtype=int)
    for i, row in enumerate(logk):
        s = np.sign(np.diff(row))
        s = s[s != 0]
        counts[i] = int(np.count_nonzero(s[1:] != s[:-1]))
    return counts
