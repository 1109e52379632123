"""rho-variation seminorms of sampled paths.

The seminorm is the supremum over increasing subsequences of
(sum |increments|^rho)^(1/rho).  On sampled data the supremum is attained
on a subsequence of the sample points, and a dynamic program over the
points finds it exactly.

Only endpoints and turning points need to enter that program (Butkus and
Norvaisa, "Computation of p-variation", 2018).  Each row is compressed
first:

* consecutive equal values collapse to one point.  Their increments to
  every other point are bit-identical and the increment between them is
  exactly 0.0, so no subsequence sum changes;
* inside a strictly monotone run only the ends stay.  For rho >= 1,
  |a + b|^rho >= |a|^rho + |b|^rho when a and b have the same sign, so a
  subsequence through an interior point of the run never beats the one
  that skips it.  Increments below 1e-300 are flushed to zero before the
  power; the inequality survives the flush, because when the merged
  increment |c - a| is below the threshold, both of its monotone parts
  are too.

The program then runs on the compressed rows, grouped by length and padded
with each row's last kept value (a zero increment adds exactly 0.0).  The
sampled semigroup paths keep about one point in a hundred, so the
quadratic cost falls on a handful of points per row.
"""

from __future__ import annotations

import numpy as np

from .errors import BadOrderError, EmptyPathError, TooLongError

# increments below this are flushed to zero before the rho-th power so that
# |d|^rho cannot underflow to a denormal mess for large rho
_TINY_INCREMENT = 1e-300
# values per block of rows in the turning-point compression
_BLOCK = 1 << 17


def _check_order(rho: float) -> float:
    rho = float(rho)
    if not np.isfinite(rho) or rho < 1.0:
        raise BadOrderError(f"variation order must be >= 1, got {rho}")
    return rho


def variation_values(values: np.ndarray, rho: float) -> float:
    """Seminorm of a value sequence (time stamps are irrelevant to the
    value).  It is variation_batch's one row, whose checks refuse an order
    below 1 and anything but a nonempty 1-d sequence."""
    v = np.asarray(values, dtype=float)
    return float(variation_batch(v[None], rho)[0])


def _turning_points(v: np.ndarray):
    """Endpoints and turning points of every row of a (paths, length)
    array: the kept values, row after row, and their count per row.

    Rows are handled in blocks of about _BLOCK values, so the temporaries
    stay small next to the input."""
    p, m = v.shape
    kept, counts = [np.empty(0)], np.empty(p, dtype=np.intp)
    step = max(1, _BLOCK // m)
    for lo in range(0, p, step):
        blk = v[lo:lo + step]
        # the first point of each run of equal values; x - y == 0 only for
        # x == y, while NaN and inf - inf never compare equal and stay
        rows, cols = np.nonzero(np.diff(blk, axis=1, prepend=np.nan) != 0)
        w = blk[rows, cols]
        edge = rows[1:] != rows[:-1]
        s = np.sign(np.diff(w))
        keep = np.ones(w.size, dtype=bool)
        keep[1:-1] = edge[:-1] | edge[1:] | (s[:-1] != s[1:])
        kept.append(w[keep])
        counts[lo:lo + step] = np.bincount(rows[keep],
                                           minlength=blk.shape[0])
    return np.concatenate(kept), counts


def _dp(v: np.ndarray, rho: float) -> np.ndarray:
    """Largest sum of rho-th powers of increments over the subsequences of
    each row, by the quadratic prefix program.  Each column's candidates
    are formed in one reused buffer.  Once 1e-300 ** rho underflows to
    0.0 (rho above about 1.08), every smaller increment's power does too,
    and the flush cannot change a sum, so it is skipped."""
    m, n = v.shape
    best = np.zeros((m, n))
    buf = np.empty(m * n)
    flush = _TINY_INCREMENT ** rho != 0.0
    for j in range(1, n):
        # contiguous, so numpy runs each step as one flat loop
        d = buf[:m * j].reshape(m, j)
        np.subtract(v[:, j, None], v[:, :j], out=d)
        np.abs(d, out=d)
        if flush:
            d[d < _TINY_INCREMENT] = 0.0
        d **= rho
        d += best[:, :j]
        np.max(d, axis=1, out=best[:, j])
    return np.max(best, axis=1)


def variation_batch(values: np.ndarray, rho: float) -> np.ndarray:
    """Row-wise seminorms for a (paths, length) array."""
    rho = _check_order(rho)
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise EmptyPathError("need a nonempty (paths, length) array")
    kept, counts = _turning_points(v)
    starts = np.cumsum(counts) - counts
    # rows keeping between 2^(k-1) and 2^k points share one padded block
    size_class = np.ceil(np.log2(counts))
    out = np.empty(v.shape[0])
    for k in np.unique(size_class):
        sel = np.flatnonzero(size_class == k)
        pos = np.minimum(np.arange(counts[sel].max()), counts[sel, None] - 1)
        out[sel] = _dp(kept[starts[sel, None] + pos], rho)
    return out ** (1.0 / rho)


def variation_exhaustive(values: np.ndarray, rho: float) -> float:
    """Enumerate every subsequence by bitmask; independent of the prefix DP.

    The value of mask m is the value of m without its lowest index plus the
    first increment, so masks are filled in popcount order.  Lengths above 20
    are refused (2^20 masks).
    """
    rho = _check_order(rho)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise EmptyPathError("need a nonempty 1-d value array")
    n = v.size
    if n > 20:
        raise TooLongError(f"exhaustive enumeration capped at 20 points, got {n}")
    if n == 1:
        return 0.0
    d = np.abs(v[:, None] - v[None, :])
    d[d < _TINY_INCREMENT] = 0.0
    d = d ** rho
    masks = np.arange(1 << n, dtype=np.int64)
    pc = np.bitwise_count(masks)
    log2 = np.full(1 << n, -1, dtype=np.int64)
    log2[1 << np.arange(n)] = np.arange(n)
    g = np.zeros(1 << n)
    for k in range(2, n + 1):
        m = masks[pc == k]
        lo1 = m & -m
        rest = m ^ lo1
        lo2 = rest & -rest
        g[m] = d[log2[lo1], log2[lo2]] + g[rest]
    return float(np.max(g) ** (1.0 / rho))
