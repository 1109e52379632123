"""Dyadic oscillation laboratory on the unit interval.

Builds the sign-pattern test functions (Rademacher sums and their
periodization to [-1, 2]), three families of averaging operators indexed
by a dyadic scale (Gaussian smoothing, window means on the circle,
conditional expectation on dyadic intervals), and the experiments
that exhibit growth of the quadratic variation along the scale index:
the growth of typical v(2) values like sqrt(N log log N), and the failure
of any weak (p, p) bound for the variation of the Gaussian chain.

Exactness.  Points are 60-bit dyadic rationals held as int64 numerators.
Digit extraction gives the sign functions exactly; window means use the
closed-form tent primitive in integer arithmetic.  The Gaussian chain
drops scales k >= ell + 2 (below 7e-35) and sums k = ell, ell + 1 from
damped odd harmonics (the first left out is below 1e-54) at phases exact
in int64; coarser scales share one slot grid of 2 standard deviations,
with an integer table for the sign sum on each slot, and so do the chains
of a whole N grid.  Offsets from the breakpoints are int64, exact as
doubles from ell = 11 on and rounded once below, and only those within
5.93 sqrt(2) sd reach erf: beyond, erf is exactly +-1.0 in double
precision.  No quadrature error enters any operator chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentRangeError, BadOrderError, DimensionError
from .rng import BITS, dyadic_points, substream
from .variation import exceedance, variation_batch

# Gaussian window half-width in standard deviations; erfc(12/sqrt(2)) ~ 1e-32
_WINDOW_SD = 12.0
# |z| from which scipy's erf(z) is exactly +-1.0: it is from 5.922 on
_ERF_ONE = 5.93
# points per erf grid, so one grid's arrays stay small and are reused
_GRID_POINTS = 1024
# odd harmonics kept of scale ell + gap: the first left out is below
# 1e-54, and from gap 2 on even h = 1 is below 7e-35, so those are dropped
_SERIES = {0: (1, 3), 1: (1,)}


@dataclass(frozen=True)
class CounterexampleConfig:
    """Scale and sampling parameters for the oscillation experiments.

    The active scale indices are 2N < l <= 3N (N of them); chains are
    evaluated from the baseline index 2N, where the conditional
    expectation chain starts at exactly zero.
    """

    N: int
    seed: int = 0
    sample_size: int = 1000

    def __post_init__(self):
        if not 2 <= self.N <= 14:
            raise ArgumentRangeError("scale N must lie in [2, 14]")
        if self.sample_size < 1:
            raise DimensionError("sample_size must be positive")

    @property
    def window(self) -> range:
        return range(2 * self.N + 1, 3 * self.N + 1)

    @property
    def chain_indices(self) -> range:
        return range(2 * self.N, 3 * self.N + 1)


def rademacher_bits(k, m) -> np.ndarray:
    """Sign values of the scales k, 1 <= k <= BITS, at int64 dyadic
    numerators m / 2^BITS, exact; k and m broadcast."""
    digit = (np.asarray(m, dtype=np.int64) >> (BITS - np.asarray(k))) & 1
    return 1 - 2 * digit


def perturb_boundaries(m, kmax: int) -> np.ndarray:
    """Nudge numerators off slot boundaries of every scale up to kmax by
    one ulp, so digit extraction is unambiguous."""
    m = np.asarray(m, dtype=np.int64).copy()
    mask = (m & ((1 << (BITS - kmax)) - 1)) == 0
    m[mask] += 1
    return m


def _erf_grid(ell: int, k_fine: int, m: np.ndarray):
    """The slot grid of scale k_fine about each point x = m 2^-BITS: the
    index j0 of its first breakpoint and erf((x - b) / (sqrt(2) 2^-ell)) at
    its 2H + 2 breakpoints b = (j0 + k) 2^-k_fine - 1, where H 2^-k_fine is
    the first multiple of the spacing to reach 12 standard deviations.
    With r = m mod 2^(BITS - k_fine), x - b = (r + (H - k) 2^(BITS -
    k_fine)) 2^-BITS exactly, in int64.  Column k lies between its steps k
    and k - 1, so the columns wholly >= 5.93 lead and those wholly <= -5.93
    trail, at erf's exact +-1.0: 10 of 14 columns reach erf at 2 sd.
    """
    from scipy.special import erf
    shift = BITS - k_fine
    half = math.ceil(_WINDOW_SD * 2.0 ** (k_fine - ell))
    j0 = (m >> shift) + ((1 << k_fine) - half)
    steps = (half - np.arange(2 * half + 2, dtype=np.int64)) << shift
    scale = 2.0 ** (ell - BITS) / math.sqrt(2.0)
    z = np.add.outer(m & ((1 << shift) - 1), steps) * scale
    edges = steps * scale
    lead = np.count_nonzero(edges >= _ERF_ONE)
    tail = 1 + np.count_nonzero(edges > -_ERF_ONE)
    erf(z[:, lead:tail], out=z[:, lead:tail])
    z[:, :lead] = 1.0
    z[:, tail:] = -1.0
    return j0, z


def _damped_series(ell: int, k: int, m: np.ndarray) -> np.ndarray:
    """Scale k's sign pattern smoothed at scale ell, at x = m 2^-BITS, from
    its odd harmonics (4 / pi h) sin(2 pi h 2^(k-1) x) of _SERIES[k - ell];
    each phase h x 2^(k-1) mod 1 is (h m mod 2^(BITS+1-k)) / 2^(BITS+1-k),
    exact in int64."""
    gap, period = k - ell, 1 << (BITS + 1 - k)
    total = np.zeros(m.shape)
    for h in _SERIES[gap]:
        phase = ((h * m) & (period - 1)).astype(float)
        phase *= 2.0 * math.pi / period
        total += (4.0 / (math.pi * h) * math.exp(
            -math.pi ** 2 * h * h * 2.0 ** (2 * gap - 1))) * np.sin(phase)
    return total


def _slot_sums(n_scales: int, j0: np.ndarray, e: np.ndarray) -> np.ndarray:
    """0.5 sum_k F(j0 + k) (e_k - e_(k+1)) along each row of an erf grid,
    where F(i) = sum over the n_scales active scales of (-1)^(bit of i) is
    the periodized sign sum on fine slot i.  F depends only on i mod
    2^n_scales, so each row's signs are one window of the periodic table."""
    # F(r) = n - 2 popcount(r): each scale's bit doubles the table, +-1
    table = np.zeros(1)
    for _ in range(n_scales):
        table = np.concatenate([table + 1.0, table - 1.0])
    count = e.shape[1] - 1
    ring = np.tile(table, count // table.size + 2)
    terms = sliding_window_view(ring, count)[j0 & (table.size - 1)]
    terms *= e[:, :-1] - e[:, 1:]
    return 0.5 * np.sum(terms, axis=1)


def _numerators(m) -> np.ndarray:
    """m as a 1-d int64 array of numerators of points m 2^-BITS of
    [0, 1], or a DimensionError."""
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if np.any((m < 0) | (m > 1 << BITS)):
        raise DimensionError(f"numerators must lie in [0, 2^{BITS}]")
    return m


def _gauss_columns(pairs, m) -> np.ndarray:
    """Convolution of the periodized sum of each scale N with the Gaussian
    of variance 4^-ell at the points of [0, 1] with int64 numerators m: one
    column per (N, ell) pair.

    Active scales k = ell, ell + 1 come from _damped_series; those k <= kf
    = min(3N, ell - 1) share kf's slot grid, whose breakpoints are exactly
    theirs.  A grid needs ell >= 2N + 2 >= 6, so its window stays within
    0.25 of [0, 1], inside the support [-1, 2] of the sum.  Each grid is
    built once, in blocks of points, for all the pairs that use it.
    """
    m = _numerators(m)
    out = np.zeros((m.size, len(pairs)))
    grids, series = {}, {}
    for col, (N, ell) in enumerate(pairs):
        k_fine = min(3 * N, ell - 1)
        if k_fine > 2 * N:
            grids.setdefault((ell, k_fine), []).append((col, k_fine - 2 * N))
        for k in range(max(ell, 2 * N + 1),
                       min(ell + len(_SERIES), 3 * N + 1)):
            series.setdefault((ell, k), []).append(col)
    for (ell, k_fine), users in sorted(grids.items()):
        for lo in range(0, m.size, _GRID_POINTS):
            j0, e = _erf_grid(ell, k_fine, m[lo:lo + _GRID_POINTS])
            for col, n_scales in users:
                out[lo:lo + _GRID_POINTS, col] = _slot_sums(n_scales, j0, e)
    for (ell, k), cols in sorted(series.items()):
        out[:, cols] += _damped_series(ell, k, m)[:, None]
    return out


def _tent(k: int, y: np.ndarray) -> np.ndarray:
    """Primitive of the k-th sign pattern at y ulps, in ulps: a periodic
    tent of period 2^(BITS+1-k) and height 2^(BITS-k).  Exact int64."""
    period = np.int64(1) << (BITS + 1 - k)
    half = np.int64(1) << (BITS - k)
    z = np.mod(y, period)
    return np.where(z <= half, z, period - z)


def apply_window_mean(N: int, ell: int, m):
    """Mean of the circle's sign sum over the window of half-width 2^-ell
    around each dyadic point, via the exact tent primitive."""
    cfg = CounterexampleConfig(N=N)
    if ell < 1:
        raise BadOrderError("scale index must be >= 1")
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    h = np.int64(1) << (BITS - ell)
    lo, hi = m - h, m + h
    total = np.zeros(m.shape)
    for k in cfg.window:
        diff = _tent(k, hi) - _tent(k, lo)
        total += diff.astype(float) * 2.0 ** (ell - 1 - BITS)
    return total


_OPERATORS = ("A", "Dtorus", "E")


def chain_values(config: CounterexampleConfig, operator: str,
                 m) -> np.ndarray:
    """Operator values along the scale chain 2N..3N, one row per point.

    The chain starts at the baseline index 2N, where the conditional
    expectation is exactly zero and the smoothing operators are already
    averaging far below every active scale.  The conditional expectation
    on the dyadic intervals of length 2^-ell keeps the active signs of
    scale <= ell, so the E chain is the running sum of the window's
    signs after a leading zero.
    """
    if operator not in _OPERATORS:
        raise BadOrderError(f"operator must be one of {_OPERATORS}")
    m = _numerators(m)
    if operator == "A":
        return _gauss_columns(
            [(config.N, ell) for ell in config.chain_indices], m)
    if operator == "Dtorus":
        return np.stack([apply_window_mean(config.N, ell, m)
                         for ell in config.chain_indices], axis=1)
    chain = np.zeros((m.size, config.N + 1))
    chain[:, 1:] = np.cumsum(
        rademacher_bits(np.asarray(config.window), m[:, None]), axis=1)
    return chain


# ---------------------------------------------------------------------------
# exact combinatorics of the sign sum


def dyadic_moment(N: int, p: float) -> float:
    """L^p(circle)^p of the sign sum by exact enumeration of the 2^N
    equiprobable sign patterns (the sum is constant on each)."""
    CounterexampleConfig(N=N)
    total = sum(math.comb(N, j) * abs(N - 2 * j) ** p for j in range(N + 1))
    return float(total) / 2.0 ** N


def line_moment(N: int, p: float) -> float:
    """L^p(line)^p of the periodized sum: three unit periods."""
    return 3.0 * dyadic_moment(N, p)


# ---------------------------------------------------------------------------
# growth experiments


def variation_growth_experiment(config: CounterexampleConfig,
                                operator: str = "E") -> "ProbeReport":
    """Distribution of the chain's v(2) at uniform points, against the
    sqrt(N log log N) threshold family.

    Reports quantiles of v(2)/sqrt(N) and the measure of points whose
    variation exceeds c sqrt(N log log N) for a grid of c; the claim is
    that these measures approach one as N grows, visible at desk scale
    only as a monotone trend.
    """
    from .report import ProbeReport
    if config.sample_size < 1000:
        raise DimensionError("growth experiment needs >= 1000 samples")
    N = config.N
    m = perturb_boundaries(
        dyadic_points(config.seed, config.sample_size), 3 * N)
    vals = chain_values(config, operator, m)
    v2 = variation_batch(vals, 2.0)
    scaled = v2 / math.sqrt(N)
    qs = {q: float(np.quantile(scaled, q))
          for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    rows = []
    loglog = math.log(math.log(N)) if N >= 3 else float("nan")
    if N >= 3 and loglog > 0:
        cs = np.arange(0.1, 1.05, 0.1)
        thresholds = cs * math.sqrt(N * loglog)
        rows = [{"c": round(float(c), 2), "threshold": float(t),
                 "measure": float(lam)}
                for c, t, lam in zip(cs, thresholds,
                                     exceedance(v2, thresholds))]
    half = config.sample_size // 2
    med_half = float(np.median(v2[:half]) / math.sqrt(N))
    drift = abs(qs[0.5] - med_half) / max(med_half, 1e-300)
    flags = {"finite": bool(np.all(np.isfinite(v2))),
             "stable": bool(drift <= 0.10)}
    if operator == "E":
        # every pattern moves by one unit per scale step
        flags["lower_bound"] = bool(np.all(v2 >= math.sqrt(N) - 1e-9))
    boot = substream(config.seed, 300)
    meds = np.empty(200)
    for r in range(200):
        meds[r] = np.median(v2[boot.integers(0, v2.size, v2.size)])
    ci = np.percentile(meds / math.sqrt(N), [2.5, 97.5])
    return ProbeReport(
        name=f"variation-growth-{operator}",
        claim=("the measure of points where the scale chain's quadratic "
               "variation exceeds c sqrt(N log log N) grows toward one "
               "with N, for some fixed c"),
        inputs={"N": N, "operator": operator,
                "sample_size": config.sample_size},
        statistics={"median_scaled": qs[0.5], "quantiles": qs,
                    "loglog_N": loglog,
                    "half_sample_median_scaled": med_half,
                    "drift": float(drift)},
        tables={"threshold_measure": rows},
        pass_flags=flags,
        ci={"median_scaled": [float(ci[0]), float(ci[1])]},
        seed=config.seed)


def _refuse_repeated_scales(n_grid) -> None:
    """Refuse a scale grid that names some N twice: its growth and trend
    flags would compare that scale with itself."""
    if len(set(n_grid)) < len(n_grid):
        raise ArgumentRangeError(f"scale N repeats in {list(n_grid)}")


def variation_growth_report(n_list, operator: str = "E",
                            sample_size: int = 1000,
                            seed: int = 0) -> "ProbeReport":
    """The growth experiment at every N of n_list: one N gives its own
    report, several give one combined report, whose rows and flags are
    read from the per-N reports, plus a flag that the scaled median does
    not decrease with N."""
    from .report import ProbeReport
    if not n_list:
        raise ArgumentRangeError("need at least one scale N")
    _refuse_repeated_scales(n_list)
    reports = [variation_growth_experiment(
        CounterexampleConfig(N=N, seed=seed, sample_size=sample_size),
        operator) for N in n_list]
    if len(reports) == 1:
        return reports[0]
    growth_rows, measure_rows, flags = [], [], {}
    medians = [rep.statistics["median_scaled"] for rep in reports]
    for N, rep in zip(n_list, reports):
        growth_rows.append({"N": N,
                            "median_scaled": rep.statistics["median_scaled"],
                            "drift": rep.statistics["drift"]})
        measure_rows += [{"N": N, **row}
                         for row in rep.tables["threshold_measure"]]
        flags.update({f"N{N}/{k}": v for k, v in rep.pass_flags.items()})
    flags["median_nondecreasing"] = all(
        b - a >= -1e-12 for a, b in zip(medians, medians[1:]))
    return ProbeReport(
        name="torus-growth",
        claim=("the median of v(2)/sqrt(N) for the scale chain does not "
               "decrease with N and the threshold exceedance curves climb"),
        inputs={"n_list": list(n_list), "operator": operator,
                "sample_size": sample_size},
        statistics={"medians_scaled": medians},
        tables={"qian_growth": growth_rows,
                "threshold_measure": measure_rows},
        pass_flags=flags,
        seed=seed)


def fourier_kernel_gap(lmax: int = 48, xi_min: float = 1e-3,
                       xi_max: float = 1e9, points: int = 4001
                       ) -> "ProbeReport":
    """Max over points frequencies xi, evenly spaced in log from xi_min to
    xi_max, of the summed gap between the Gaussian multiplier
    exp(-2 pi^2 (2^-l xi)^2) and the window-mean multiplier
    sin(2 pi 2^-l xi) / (2 pi 2^-l xi).

    A bounded sup is what lets the Gaussian chain inherit the variation
    behavior of the window-mean chain in L^2.  The truncation tail is
    quadratic in 2^-lmax xi, reported as an explicit bound.  The sup must
    agree to 1e-3 with the sup over every other grid point, so the grid
    needs at least 2 points, and both ends finite and positive, xi_min
    below xi_max.
    """
    from .report import ProbeReport
    if not 1 <= lmax <= 60:
        raise BadOrderError("lmax must lie in [1, 60]")
    if not (0.0 < xi_min < np.inf and 0.0 < xi_max < np.inf):
        raise ArgumentRangeError(f"frequencies must be finite and positive, "
                                 f"got xi from {xi_min:g} to {xi_max:g}")
    if not xi_min < xi_max:
        raise ArgumentRangeError(f"the frequency grid needs xi_min < xi_max, "
                                 f"got xi from {xi_min:g} to {xi_max:g}")
    if points < 2:
        raise ArgumentRangeError(
            f"the frequency grid needs at least 2 points, got {points}")
    xi = np.geomspace(xi_min, xi_max, points)
    if 2.0 ** (-lmax) * xi.max() > 0.5:
        raise BadOrderError("lmax too small for the top frequency")
    total = np.zeros(xi.shape)
    for ell in range(1, lmax + 1):
        w = 2.0 ** (-ell) * xi
        gauss = np.exp(-2.0 * math.pi ** 2 * w ** 2)
        mean = np.sinc(2.0 * w)
        total += np.abs(gauss - mean)
    imax = int(np.argmax(total))
    top, half_max = float(total[imax]), float(total[::2].max())
    # per-term gap ~ (4 pi^2 / 3) w^2 for small w; geometric sum in l
    tail = (4.0 * math.pi ** 2 / 3.0) * (xi.max() * 2.0 ** (-lmax)) ** 2 / 3.0
    return ProbeReport(
        name="fourier-gap",
        claim=("the summed multiplier gap between Gaussian smoothing and "
               "window means is bounded uniformly over frequencies"),
        inputs={"lmax": lmax, "xi_min": float(xi[0]), "xi_max": float(xi[-1]),
                "points": int(xi.size)},
        statistics={"max": top, "argmax_xi": float(xi[imax]),
                    "half_grid_max": half_max, "tail_bound": float(tail),
                    "lmax": lmax, "grid_size": int(xi.size)},
        tables={"fourier_sum": [{"xi": float(a), "total": float(b)}
                                for a, b in zip(xi, total)]},
        pass_flags={"finite": bool(np.isfinite(top)),
                    "grid_stable":
                        bool(abs(top - half_max) <= 1e-3 * max(1.0, top))},
        seed=0)


# ---------------------------------------------------------------------------
# replacing the full kernel by the flat kernel on compact sets


def _difference_ratio_pieces(model, x, u, ts):
    """log |difference| and the quadratic weight, for rate calibration.

    The two log kernels are combined via log |e^p - e^q| =
    max + log(1 - e^{-|p-q|}), so pairs whose kernels underflow double
    precision still yield their true log-scale gap instead of denormal
    noise."""
    from .kernel import log_kernel_pairs
    from .model import quadratic_r
    w, v = np.linalg.eigh(model.Q)
    qinv = (v / w) @ v.T
    _, logdet_q = np.linalg.slogdet(model.Q)
    lt = log_kernel_pairs(model, ts, x, u) \
        - 0.5 * model.logdet_Qinf - quadratic_r(model, x)
    d = x - u
    qd = np.einsum("mi,ij,mj->m", d, qinv, d)
    lc = -0.5 * logdet_q - 0.5 * np.log(ts) - 0.5 * qd / ts
    gap = np.abs(lt - lc)
    with np.errstate(divide="ignore"):
        logdiff = np.maximum(lt, lc) + np.where(
            gap > 0, np.log(-np.expm1(-gap)), -1e6)
    return logdiff, qd / ts


def _difference_rate(a, b, half: int, c: float | None):
    """(rate, (m_half, m_full)): the largest finite log ratio a + rate b
    over the first half of the cells and over all of them, at c if given,
    else at the largest rate in [0, 0.45], to 25 halvings, at which m_full
    exceeds m_half by at most log 1.1."""
    def maxima(rate):
        vals = np.multiply(b, rate)
        vals += a
        vals[~np.isfinite(vals)] = -np.inf
        return (float(vals[:half].max(initial=-np.inf)),
                float(vals.max(initial=-np.inf)))

    if c is not None:
        return c, maxima(c)
    lo, hi, best = 0.0, 0.45, maxima(0.0)
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        m = maxima(mid)
        if m[1] <= m[0] + np.log(1.1):
            lo, best = mid, m
        else:
            hi = mid
    return lo, best


def kernel_difference_bound(model, n_grid=(2, 3, 4), c: float | None = None,
                            sample_size: int = 400, x_points: int = 96,
                            seed: int = 0) -> "ProbeReport":
    """Compare the short-time kernel against the flat Gaussian kernel on
    unit boxes: pointwise size of the gap, its t -> 0 rate on the
    diagonal, and the L^2 effect of the gap operator on sign sums.

    In one dimension the gap obeys |difference| <= C exp(-c (x-u)^2/(q t))
    for some c < 1/2; squaring and summing over dyadic times then bounds
    the v(2) seminorm of the gap chain by the L^2 norm of the input.
    Without c, a 25-step bisection on [0, 0.45] calibrates it
    (_difference_rate on the first half of the sample and the whole).
    """
    from .report import ProbeReport
    from .errors import RateTooLargeError
    n = model.n
    if n != 1:
        raise DimensionError("difference bound is probed for n = 1")
    if c is not None and not (math.isfinite(c) and c > 0):
        raise ArgumentRangeError(f"rate must be finite and positive, got "
                                 f"{c:g}")
    if sample_size < 4:
        raise ArgumentRangeError("calibration needs at least 4 samples")
    if x_points < 1:
        raise ArgumentRangeError("the operator ratio needs an x point")
    if not n_grid or not all(2 <= N <= 5 for N in n_grid):
        raise ArgumentRangeError("scale grid must be nonempty, in [2, 5]")
    _refuse_repeated_scales(n_grid)
    rng = substream(seed, 11)
    xs = rng.random((sample_size, n))
    us = substream(seed, 12).random((sample_size, n))
    ts = np.exp(substream(seed, 13).uniform(math.log(1e-6), 0.0,
                                            sample_size))
    a, b = _difference_ratio_pieces(model, xs, us, ts)
    c, (lr_half, lr_full) = _difference_rate(a, b, sample_size // 2, c)
    if not np.isfinite(lr_full) or lr_full > math.log(1.5) + lr_half:
        raise RateTooLargeError(f"rate {c} is unstable under doubling")
    try:
        ratio_full = math.exp(lr_full)
    except OverflowError:
        raise RateTooLargeError(
            f"rate {c} overflows the maximal ratio") from None
    ratio_half = math.exp(lr_half)

    # diagonal rate: the gap's leading term comes from the covariance
    # curvature, so the log-log slope is 1/2 rather than the off-diagonal
    # envelope's 0
    ts_diag = np.geomspace(1e-6, 1e-2, 40)
    x0 = np.full(n, 0.3)
    logd, _ = _difference_ratio_pieces(
        model, np.broadcast_to(x0, (40, n)).copy(),
        np.broadcast_to(x0, (40, n)).copy(), ts_diag)
    slope = float(np.polyfit(np.log(ts_diag), logd, 1)[0])

    rows = []
    for N in sorted(n_grid):
        res = _difference_operator_ratio(model, N, x_points, seed)
        rows.append({"N": N, **res})
    ratios = np.array([r["l2_ratio"] for r in rows])
    # bounded means no climb as the scale count grows; decay is fine
    growth = float(np.max(ratios[1:] / np.maximum(ratios[:-1], 1e-300))) \
        if ratios.size > 1 else 1.0
    return ProbeReport(
        name="kernel-difference-bound",
        claim=("the gap between the short-time kernel and the flat "
               "Gaussian kernel is pointwise small like sqrt(t) and its "
               "dyadic-time variation maps L^2 to L^2 on unit boxes"),
        inputs={"n": n, "n_grid": list(n_grid), "rate": float(c),
                "sample_size": sample_size, "x_points": x_points},
        statistics={"max_ratio": ratio_full,
                    "half_sample_max_ratio": ratio_half,
                    "diagonal_rate": slope,
                    "expected_diagonal_rate": 0.5,
                    "l2_ratio_growth": growth},
        tables={"operator_ratio": rows},
        pass_flags={"pointwise_stable": bool(ratio_full <= 1.5 * ratio_half),
                    "diagonal_rate_ok": bool(abs(slope - 0.5) <= 0.1),
                    "operator_bounded": bool(growth <= 1.25)},
        seed=seed)


def _difference_operator_ratio(model, N: int, x_points: int,
                               seed: int) -> dict:
    """L^2 ratio of the gap chain's v(2) against the sign sum's norm.

    One dimension only: both kernels integrate in closed form over the
    constant slots of the sign sum, so the operator values are exact up
    to erf evaluation.
    """
    from scipy.special import erf as _erf
    from .kernel import kernel_forms
    from .model import propagators
    slots = 1 << (3 * N)
    edges_m = np.arange(slots + 1, dtype=np.int64) << (BITS - 3 * N)
    mids_m = (edges_m[:-1] + (np.int64(1) << (BITS - 3 * N - 1)))
    # the E chain ends at scale 3N, where it is the whole sign sum
    fvals = chain_values(CounterexampleConfig(N=N), "E", mids_m)[:, -1]
    edges = edges_m.astype(float) * 2.0 ** (-BITS)
    xg = (np.arange(x_points) + 0.5) / x_points
    ells = np.arange(1, 3 * N + 3)
    q = float(model.Q[0, 0])
    chain = np.empty((x_points, ells.size))
    ts = 4.0 ** -ells.astype(float)
    pr = propagators(model, ts)
    # every t = 4^-ell is below T_SWITCH, so the small-time forms hold
    # every time, in order
    forms = kernel_forms(model, pr)
    for j, t in enumerate(ts):
        t = float(t)
        # both kernels are Gaussians in u, so each slot integrates to an
        # erf difference; the short-time one is centered at D_t x with
        # inverse variance a_t, the flat one at x with variance t q
        a_t = float(forms.A[j, 0, 0])
        dt_x = float(forms.Dt[j, 0, 0]) * xg
        det_qt = float(pr.Qt[j, 0, 0])
        coef_tilde = det_qt ** -0.5 * math.sqrt(math.pi / (2.0 * a_t))
        coef_flat = math.sqrt(math.pi / 2.0)
        e_tilde = _erf(np.sqrt(a_t / 2.0)
                       * (edges[None, :] - dt_x[:, None]))
        e_flat = _erf((edges[None, :] - xg[:, None])
                      / math.sqrt(2.0 * t * q))
        gap = coef_tilde * (e_tilde[:, 1:] - e_tilde[:, :-1]) \
            - coef_flat * (e_flat[:, 1:] - e_flat[:, :-1])
        chain[:, j] = gap @ fvals
    v2 = variation_batch(chain, 2.0)
    l2_v2 = float(np.sqrt(np.mean(v2 ** 2)))
    f_l2 = math.sqrt(dyadic_moment(N, 2))
    return {"l2_ratio": l2_v2 / f_l2, "v2_mean": float(v2.mean()),
            "chain_length": int(ells.size)}


# ---------------------------------------------------------------------------
# the weak-type failure


def weak_type_failure(p_grid=(1.0, 2.0), n_grid=(4, 6, 8, 10),
                      sample_size: int = 2000, seed: int = 0) -> "ProbeReport":
    """Weak (p, p) quotients of the Gaussian chain's v(2) across scales.

    For each N the statistic is sup_a a^p measure{v(2) > a} divided by
    the p-th power norm of the input sum; an operator of weak type (p, p)
    would keep it bounded, so a monotone climb across N is the failure
    signature.  The same sample of points is reused for every N so the
    trend is not washed out by resampling noise.  The flags read the
    steps between scales, so n_grid needs at least two.
    """
    from .report import ProbeReport
    p_grid = [float(p) for p in p_grid]
    n_grid = sorted(int(N) for N in n_grid)
    if not p_grid:
        raise ArgumentRangeError("the failure experiment needs at least one "
                                 "exponent p")
    if len(n_grid) < 2:
        raise ArgumentRangeError(f"the failure experiment compares scales, "
                                 f"so it needs more than one scale N, got "
                                 f"{n_grid}")
    for p in p_grid:
        if not 1.0 <= p <= 4.0:
            raise BadOrderError("p must lie in [1, 4]")
    for N in n_grid:
        if not 4 <= N <= 12:
            raise ArgumentRangeError("scale grid is limited to [4, 12]")
    _refuse_repeated_scales(n_grid)
    if sample_size < 1000:
        raise DimensionError("failure experiment needs >= 1000 samples")
    m = perturb_boundaries(dyadic_points(seed, sample_size),
                           3 * max(n_grid))
    # the chains of every N in one pass over ell, each grid built once
    chains = np.split(
        _gauss_columns([(N, ell) for N in n_grid for ell in
                        CounterexampleConfig(N=N).chain_indices], m),
        np.cumsum([N + 1 for N in n_grid])[:-1], axis=1)
    rows = []
    quotients = {p: [] for p in p_grid}
    medians = []
    for N, chain in zip(n_grid, chains):
        v2 = variation_batch(chain, 2.0)
        medians.append(float(np.median(v2) / math.sqrt(N)))
        row = {"N": N, "median_v2_scaled": medians[-1]}
        alphas = np.quantile(v2, np.linspace(0.05, 0.995, 96))
        alphas = np.unique(alphas[alphas > 0])
        lam = exceedance(v2, alphas)
        lam_h = exceedance(v2[:sample_size // 2], alphas)
        for p in p_grid:
            norm_p = line_moment(N, p)
            w_full = float(np.max(alphas ** p * lam) / norm_p)
            w_half = float(np.max(alphas ** p * lam_h) / norm_p)
            quotients[p].append(w_full)
            row[f"W_{p:g}"] = w_full
            row[f"W_{p:g}_half"] = w_half
        rows.append(row)
    increasing = {f"increasing_p{p:g}":
                  bool(np.all(np.diff(quotients[p]) > 0))
                  for p in p_grid}
    stable = all(
        abs(rows[-1][f"W_{p:g}"] - rows[-1][f"W_{p:g}_half"])
        <= 0.10 * rows[-1][f"W_{p:g}"] for p in p_grid)
    # at every N at least half the points keep v(2) above sqrt(N)/3, and
    # the scaled median itself climbs with N: the smoothing front spreads
    # each unit step over a few scales but cannot absorb the growth
    floor_c = min(medians)
    return ProbeReport(
        name="weak-type-failure",
        claim=("sup_a a^p measure{v(2) of the Gaussian chain > a} divided "
               "by the p-th power norm of the input grows with the scale "
               "count N, ruling out weak (p, p) bounds for the quadratic "
               "variation"),
        inputs={"p_grid": p_grid, "n_grid": n_grid,
                "sample_size": sample_size},
        statistics={"quotients": {f"{p:g}": quotients[p] for p in p_grid},
                    "median_scaled_floor": floor_c,
                    "final_half_sample_stable": stable},
        tables={"per_scale": rows},
        pass_flags={**increasing,
                    "median_floor_positive": bool(floor_c > 1.0 / 3.0),
                    "median_nondecreasing":
                        bool(np.all(np.diff(medians) > -1e-12)),
                    "stable": bool(stable)},
        seed=seed)
