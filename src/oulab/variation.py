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

Rough rows keep far more: a random walk turns at about half its steps, so
a 6,000-step walk keeps about 3,000 points and the full program fills
about 4.4 M cells.  On such rows each column tries only the predecessors
that can end an optimal increment:

* inserting a point that lies outside an increment's range never lowers
  the sum.  If v_i <= v_j < v_k with i < k < j, then
  |v_k - v_i| > |v_j - v_i|, so the first of the two new increments alone
  is at least the old one; rho-th powers and the flush keep that order.
  So some optimal subsequence ending at j has a last increment (i, j)
  whose endpoints are the minimum and the maximum of v on [i, j];
* for an up-step (v_i < v_j) no point of (i, j) lies above v_j, so i
  lies past the previous strictly greater point, and none lies below
  v_i.  If a later point of (i, j) equals v_i, routing the subsequence
  through the last such point adds an increment of exactly 0.0 and
  leaves the last increment's bits as they were, so i can be taken to be
  a strict suffix minimum of v[:j].  Down-steps are the mirror image;
* the strict suffix minima of v[:j] below v_j are the entries of a
  minimum stack that survive the pops at j, and those past the previous
  strictly greater point (the top of the maximum stack after its pops)
  form the top of that stack.

A 6,000-step walk then has about 12,000 candidate pairs instead of 4.4 M.
Their costs are formed in one numpy pass through the same ufuncs as the
full program's, and a scalar loop takes each column's maximum, so the
result has the full program's bits.

Rows keeping more than 512 points take this form one at a time, and
shorter rows keep the full program, which runs each column over all the
rows of a block at once.  The line is not a crossover: on walks (2 to 5
candidates a point) the sparse form is about five times faster for a
single row of any length from 16 points, but a block of 16 such rows runs
faster in the full program up to about 1,000 points, and one of 128 rows
up to about 1,200.  Rows with a non-finite kept value keep the full
program, so their NaN or inf comes out as before.  So do trending rows:
a walk with drift has linearly many strict suffix minima, and on a rising
sawtooth every earlier valley is a candidate at each peak, about m^2 / 8
in all.  The candidate pass stops once a row has more than 32 a point;
on drifting walks of 550 and 3,000 kept points that many take about half
the full program's time, and the sparse form breaks even near 65 a point
at 3,000.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import BadOrderError, EmptyPathError, TooLongError

# increments below this are flushed to zero before the rho-th power so that
# |d|^rho cannot underflow to a denormal mess for large rho
_TINY_INCREMENT = 1e-300
# values per block of rows in the turning-point compression
_BLOCK = 1 << 17
# rows keeping more than 2^_DENSE_CLASS points take the sparse program,
# unless they have more than _SPARSE_PER_POINT candidates per point
_DENSE_CLASS = 9
_SPARSE_PER_POINT = 32


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


def _powers(d: np.ndarray, rho: float) -> np.ndarray:
    """|d| ** rho in place, with increments below 1e-300 flushed to zero
    first.  Once 1e-300 ** rho underflows to 0.0 (rho above about 1.08),
    every smaller increment's power does too, and the flush cannot change
    a sum, so it is skipped.  Both programs form their costs here, so a
    pair's cost has the same bits in either."""
    np.abs(d, out=d)
    if _TINY_INCREMENT ** rho != 0.0:
        d[d < _TINY_INCREMENT] = 0.0
    d **= rho
    return d


def _dp(v: np.ndarray, rho: float) -> np.ndarray:
    """Largest sum of rho-th powers of increments over the subsequences of
    each row, by the quadratic prefix program.  Each column's candidates
    are formed in one reused buffer."""
    m, n = v.shape
    best = np.zeros((m, n))
    buf = np.empty(m * n)
    for j in range(1, n):
        # contiguous, so numpy runs each step as one flat loop
        d = buf[:m * j].reshape(m, j)
        np.subtract(v[:, j, None], v[:, :j], out=d)
        _powers(d, rho)
        d += best[:, :j]
        np.max(d, axis=1, out=best[:, j])
    return np.max(best, axis=1)


def _candidates(row: list, limit: int) -> tuple[list, list] | None:
    """Each column's predecessors that can end an optimal increment: the
    flat list of their indices, and the bounds of each column's stretch
    in it (column k's is ends[k]:ends[k + 1]).  None once there are more
    than limit of them.  One pass keeps two monotone stacks, of the strict
    suffix minima and of the strict suffix maxima of the prefix."""
    lo, hi = [], []
    cand, ends = [], [0]
    for j, x in enumerate(row):
        while lo and row[lo[-1]] >= x:
            lo.pop()
        while hi and row[hi[-1]] <= x:
            hi.pop()
        # up-steps start past the previous strictly greater point, down-steps
        # past the previous strictly smaller one
        cand += lo[bisect_right(lo, hi[-1] if hi else -1):]
        cand += hi[bisect_right(hi, lo[-1] if lo else -1):]
        ends.append(len(cand))
        if ends[-1] > limit:
            return None
        lo.append(j)
        hi.append(j)
    return cand, ends


def _dp_sparse(row: np.ndarray, rho: float) -> float | None:
    """_dp's value for one row of finite values, with each column's maximum
    taken over _candidates only; None if the row has more than
    _SPARSE_PER_POINT candidates per point."""
    found = _candidates(row.tolist(), _SPARSE_PER_POINT * row.size)
    if found is None:
        return None
    cand, ends = found
    i = np.array(cand, dtype=np.intp)
    j = np.repeat(np.arange(row.size), np.diff(ends))
    cost = _powers(row[j] - row[i], rho).tolist()
    best = [0.0] * row.size
    for k in range(1, row.size):
        # every sum is >= 0.0 and column k - 1 is always a candidate, so
        # starting from 0.0 gives the maximum over the candidates
        top = 0.0
        for x in range(ends[k], ends[k + 1]):
            s = best[cand[x]] + cost[x]
            if s > top:
                top = s
        best[k] = top
    return max(best)


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
    dense = size_class <= _DENSE_CLASS
    for r in np.flatnonzero(~dense):
        row = kept[starts[r]:starts[r] + counts[r]]
        got = _dp_sparse(row, rho) if np.isfinite(row).all() else None
        if got is None:
            dense[r] = True
        else:
            out[r] = got
    for k in np.unique(size_class[dense]):
        sel = np.flatnonzero(dense & (size_class == k))
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
