import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import erf

from oulab import (CounterexampleConfig, apply_window_mean, chain_values,
                   dyadic_moment, dyadic_points, fourier_kernel_gap,
                   weak_type_failure)
from oulab import build_model, quadratic_r, standard_model
from oulab.errors import DimensionError
from oulab.kernel import log_kernel_pairs
import oulab.torus as torus_mod
from oulab.torus import (BITS, _difference_ratio_pieces, _gauss_columns,
                         kernel_difference_bound, perturb_boundaries)


def smoother(N, ells, m):
    """The smoothed sign sum of scale N at the numerators m, one column
    per ell."""
    return _gauss_columns([(N, ell) for ell in ells],
                          np.asarray(m, dtype=np.int64))


def per_scale_smoother(N, ell, x):
    """The Gaussian smoother as it ran before the merged grid: one erf pass
    over its own slot grid for every active scale, signs by slot parity."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sd = 2.0 ** (-ell)
    s = math.sqrt(2.0) * sd
    half_window = 12.0 * sd
    out = np.zeros(x.shape)
    for k in CounterexampleConfig(N=N).window:
        if k - ell >= 2:
            continue
        w = 2.0 ** (-k)
        count = int(math.ceil(2.0 * half_window / w)) + 2
        j0 = np.floor((x - half_window + 1.0) / w).astype(np.int64)
        idx = j0[:, None] + np.arange(count + 1, dtype=np.int64)[None, :]
        breakpoints = idx * w - 1.0
        slot_idx = idx[:, :-1]
        valid = (slot_idx >= 0) & (slot_idx < 3 * (1 << k))
        signs = np.where(slot_idx & 1 == 0, 1.0, -1.0)
        e = erf((x[:, None] - breakpoints) / s)
        out += 0.5 * np.sum(signs * valid * (e[:, :-1] - e[:, 1:]), axis=1)
    return out


def exact_double_points(N, count=400):
    """Numerators whose points are exact doubles: random ones, ones 2^-53
    either side of slot boundaries of every active scale, and the ends 0
    and 1."""
    ulp = np.int64(1) << (BITS - 53)
    m = dyadic_points(5, count) & -ulp
    gen = np.random.default_rng(N)
    near = []
    for k in CounterexampleConfig(N=N).window:
        b = gen.integers(1, 1 << k, 6) << (BITS - k)
        near += [b - ulp, b + ulp]
    return np.concatenate([m, *near, [0, 1 << BITS]])


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_merged_smoother_matches_per_scale_loop(N):
    m = exact_double_points(N)
    x = m * 2.0 ** (-BITS)
    ells = range(1, 3 * N + 2)
    for ell, got in zip(ells, smoother(N, ells, m).T):
        want = per_scale_smoother(N, ell, x)
        assert np.max(np.abs(got - want)) <= 1e-13, ell


@pytest.mark.parametrize("N", range(2, 15))
def test_smoother_keeps_the_bits_of_one_grid_per_call(N):
    # the columns of one call over every ell equal those of one (N, ell)
    # pair, one grid, per call: sharing grids moves no bit
    m = exact_double_points(N)
    ells = range(1, 3 * N + 2)
    for ell, got in zip(ells, smoother(N, ells, m).T):
        assert np.array_equal(got, smoother(N, [ell], m)[:, 0]), ell


@pytest.mark.parametrize("n_grid", [(4, 6, 8, 10), (6, 8, 10, 12)])
def test_shared_grid_chains_match_per_n_chains(n_grid):
    m = perturb_boundaries(dyadic_points(3, 1500), 3 * max(n_grid))
    pairs = [(N, ell) for N in n_grid
             for ell in CounterexampleConfig(N=N).chain_indices]
    shared = _gauss_columns(pairs, m)
    start = 0
    for N in n_grid:
        chain = shared[:, start:start + N + 1]
        start += N + 1
        cfg = CounterexampleConfig(N=N, sample_size=m.size)
        assert np.array_equal(chain, chain_values(cfg, "A", m))


def test_erf_is_exactly_one_from_5_93():
    # the premise of the saturated columns, on a dense grid and far out
    z = np.concatenate([np.linspace(torus_mod._ERF_ONE, 40.0, 2_000_001),
                        np.geomspace(40.0, 1e300, 2001), [np.inf]])
    assert torus_mod._ERF_ONE == 5.93
    assert np.all(erf(z) == 1.0)
    assert np.all(erf(-z) == -1.0)
    # and the band is tight: erf first reaches 1.0 near 5.922
    assert erf(5.921) < 1.0


def damped_harmonic(gap, h):
    """The size of the h-th odd harmonic of scale ell + gap, smoothed at
    scale ell: (4 / pi h) exp(-pi^2 h^2 2^(2 gap - 1))."""
    mpmath.mp.dps = 30
    return 4 / (mpmath.pi * h) * mpmath.exp(
        -mpmath.pi ** 2 * h * h * mpmath.mpf(2) ** (2 * gap - 1))


def test_series_leaves_out_no_harmonic_above_1e_30():
    series = torus_mod._SERIES
    assert sorted(series) == [0, 1]
    for gap, kept in series.items():
        assert kept == tuple(range(1, max(kept) + 1, 2))
        # the last harmonic kept counts; the first left out, with all the
        # harmonics after it, does not
        assert damped_harmonic(gap, max(kept)) > 1e-30
        tail = sum(damped_harmonic(gap, h)
                   for h in range(max(kept) + 2, max(kept) + 40, 2))
        assert tail < 1e-30, gap
    # the scales from gap 2 on are dropped whole, and with them every
    # scale finer still
    dropped = sum(damped_harmonic(gap, h) for gap in range(2, 10)
                  for h in range(1, 40, 2))
    assert dropped < 1e-30


@pytest.mark.parametrize("n_grid,cap", [((6, 8, 10, 12), 250),
                                        ((4, 6, 8, 10), 220)])
def test_failure_probe_evaluates_few_erfs_per_point(n_grid, cap,
                                                    monkeypatch):
    calls = []
    plain = scipy.special.erf

    def counted(z, *args, **kwargs):
        calls.append(np.size(z))
        return plain(z, *args, **kwargs)

    monkeypatch.setattr(scipy.special, "erf", counted)
    weak_type_failure(n_grid=n_grid, sample_size=1000)
    # 230 and 200 now; a grid per (N, ell) with erf at every breakpoint
    # made 1,944 and 1,536, and grids of half a standard deviation shared
    # across N 992 and 916
    assert 0 < sum(calls) <= cap * 1000


def mp_smoother(N, ell, m):
    """30-digit convolution at x = m / 2^60: every +-1 slab within 10
    sqrt(2) standard deviations of each window scale k <= ell + 1, and the
    finer scales from their odd harmonics down to 1e-45."""
    mpmath.mp.dps = 30
    two = mpmath.mpf(2)
    x = mpmath.mpf(int(m)) / two ** BITS
    s = mpmath.sqrt(2) * two ** (-ell)
    lo, hi = x - 10 * s, x + 10 * s
    window = CounterexampleConfig(N=N).window
    kmax = min(window[-1], ell + 1)
    erfs = {}  # by breakpoint numerator over 2^kmax; scales share them

    def e(j, k):
        key = j << (kmax - k)
        if key not in erfs:
            erfs[key] = mpmath.erf((x + 1 - key * two ** -kmax) / s)
        return erfs[key]

    total = mpmath.mpf(0)
    for k in window:
        if k > kmax:
            h = 1
            while damped_harmonic(k - ell, h) > 1e-45:
                total += damped_harmonic(k - ell, h) * mpmath.sin(
                    mpmath.pi * h * two ** k * x)
                h += 2
            continue
        w = two ** (-k)
        j_lo = max(0, int(mpmath.floor((lo + 1) / w)))
        j_hi = min(3 * 2 ** k, int(mpmath.ceil((hi + 1) / w)))
        for j in range(j_lo, j_hi):
            total += (-1) ** j * (e(j, k) - e(j + 1, k)) / 2
    return total


def test_mp_smoother_reads_the_numerator_exactly():
    # one numerator unit above 1/3 moves the point, where float(m) does
    # not: the reference sees the dyadic point itself
    m = (1 << BITS) // 3
    assert float(m) == float(m + 1)
    a, b = mp_smoother(4, 8, m), mp_smoother(4, 8, m + 1)
    assert a != b
    # a unit is 2^-60, and the derivative is at most 2^8 N sqrt(2 / pi)
    assert abs(a - b) <= 2.0 ** (8 - BITS) * 4


def reference_points(N):
    """Random numerators, numerators one unit either side of slot
    boundaries of two active scales, and the ends 0 and 2^60."""
    gen = np.random.default_rng(100 + N)
    m = [int(v) for v in dyadic_points(N, 3)]
    for k in gen.choice(CounterexampleConfig(N=N).window, 2, replace=False):
        b = int(gen.integers(1, 1 << int(k))) << (BITS - int(k))
        m += [b - 1, b + 1]
    return m + [0, 1 << BITS]


@pytest.mark.parametrize("N", [2, 4, 8, 12, 14])
def test_chain_columns_match_the_30_digit_reference(N):
    m = reference_points(N)
    cfg = CounterexampleConfig(N=N)
    chain = chain_values(cfg, "A", m)
    for col, ell in enumerate(cfg.chain_indices):
        for i, mi in enumerate(m):
            want = float(mp_smoother(N, ell, mi))
            assert abs(chain[i, col] - want) <= 1e-14, (ell, mi)


def test_smoother_matches_mpmath_reference():
    N = 4
    ms = [0, 1 << BITS, (1 << (BITS - 1)) + 1, 712525691637837120]
    ells = CounterexampleConfig(N=N).chain_indices
    for ell, got in zip(ells, smoother(N, ells, ms).T):
        for g, m in zip(got, ms):
            assert abs(g - float(mp_smoother(N, ell, m))) <= 1e-14, (ell, m)


@pytest.mark.parametrize("m", [-1, (1 << BITS) + 1, -(1 << 62)])
def test_numerators_outside_the_unit_interval_raise(m):
    with pytest.raises(DimensionError):
        chain_values(CounterexampleConfig(N=4), "A", [0, m])
    with pytest.raises(DimensionError):
        smoother(6, [14], [m])


@pytest.mark.parametrize("operator", ["A", "Dtorus", "E"])
def test_every_chain_refuses_numerators_outside_the_unit_interval(operator):
    cfg = CounterexampleConfig(N=2)
    for m in (-1, (1 << BITS) + 5, 1 << 62):
        with pytest.raises(DimensionError,
                           match=re.escape(f"[0, 2^{BITS}]")):
            chain_values(cfg, operator, [0, m])
    # both ends of the unit interval are points of the chain
    assert chain_values(cfg, operator, [0, 1 << BITS]).shape == (2, 3)


@pytest.mark.parametrize("N,ell", [(4, 1), (4, 7), (10, 19)])
def test_no_active_scale_gives_zeros(N, ell):
    m = [0, 1 << (BITS - 2), 806964389823620096, 1 << BITS]
    out = smoother(N, [ell], m)
    assert np.array_equal(out, np.zeros((4, 1)))


@pytest.mark.parametrize("N", range(2, 15))
def test_dyadic_moments_are_exact(N):
    assert dyadic_moment(N, 2) == N
    assert dyadic_moment(N, 4) == 3 * N * N - 2 * N


@pytest.mark.parametrize("N", [3, 8, 12])
def test_conditional_expectation_chain_is_the_bit_walk(N):
    m = perturb_boundaries(dyadic_points(2, 2000), 3 * N)
    cfg = CounterexampleConfig(N=N, sample_size=m.size)
    k = np.arange(2 * N + 1, 3 * N + 1)
    steps = 1 - 2 * ((m[:, None] >> (BITS - k[None, :])) & 1)
    walk = np.concatenate([np.zeros((m.size, 1)), np.cumsum(steps, axis=1)],
                          axis=1)
    assert np.array_equal(chain_values(cfg, "E", m), walk)


def per_scale_dyadic_means(N, m):
    """The conditional expectation chain by its definition, one scale at a
    time: at ell, the sum of the active signs of scale k <= ell, each read
    off the k-th binary digit of the numerator."""
    cols = []
    for ell in range(2 * N, 3 * N + 1):
        col = np.zeros(m.size, dtype=np.int64)
        for k in range(2 * N + 1, ell + 1):
            col += 1 - 2 * ((m >> (BITS - k)) & 1)
        cols.append(col.astype(float))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("N", [2, 7, 14])
def test_e_chain_is_the_per_scale_conditional_expectation(N):
    m = perturb_boundaries(dyadic_points(5, 1500), 3 * N)
    cfg = CounterexampleConfig(N=N, sample_size=m.size)
    assert np.array_equal(chain_values(cfg, "E", m),
                          per_scale_dyadic_means(N, m))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_e_chain_at_the_slot_midpoints_of_the_operator_ratio(N):
    # the operator ratio reads the sign sum off the chain's last column at
    # the midpoints of the 2^(3N) slots, where no digit is ambiguous
    half = np.int64(1) << (BITS - 3 * N - 1)
    mids = (np.arange(1 << (3 * N), dtype=np.int64) << (BITS - 3 * N)) + half
    want = per_scale_dyadic_means(N, mids)
    assert np.array_equal(chain_values(CounterexampleConfig(N=N), "E", mids),
                          want)
    slot_sums = [sum(1 - 2 * ((j >> (3 * N - k)) & 1)
                     for k in range(2 * N + 1, 3 * N + 1))
                 for j in range(1 << (3 * N))]
    assert np.array_equal(want[:, -1], np.array(slot_sums, dtype=float))


@pytest.mark.parametrize("N", [2, 3])
def test_window_mean_is_the_exact_slot_average(N):
    # the sign sum is constant on the 2^(3N) slots of the circle, so the
    # window mean is an overlap-weighted sum over slots, in exact integers
    width = 1 << (BITS - 3 * N)
    slot_sum = [sum(1 - 2 * ((j >> (3 * N - k)) & 1)
                    for k in range(2 * N + 1, 3 * N + 1))
                for j in range(1 << (3 * N))]
    m = dyadic_points(4, 40)
    for ell in range(1, 3 * N + 2):
        h = 1 << (BITS - ell)
        got = apply_window_mean(N, ell, m)
        for i, mi in enumerate(int(v) for v in m):
            lo, hi = mi - h, mi + h
            total = sum(
                (min(hi, (j + 1) * width) - max(lo, j * width))
                * slot_sum[j % len(slot_sum)]
                for j in range(lo // width, (hi - 1) // width + 1))
            assert got[i] == pytest.approx(total / (2 * h), abs=1e-12)


def test_fourier_kernel_gap_tail_bound_holds():
    xi = (1e-3, 2.5e5, 801)

    def curve(report):
        return np.array([r["total"] for r in report.tables["fourier_sum"]])

    full = curve(fourier_kernel_gap(60, *xi))
    for lmax in (20, 24, 32):
        report = fourier_kernel_gap(lmax, *xi)
        bound = report.statistics["tail_bound"]
        tail = full - curve(report)
        assert np.all(tail >= 0.0)
        assert tail.max() <= bound
        # the bound is the leading term of the tail at the top frequency
        assert tail[-1] >= 0.5 * bound



def frozen_difference_ratio_pieces(model, x, u, ts):
    """_difference_ratio_pieces as it was, one log K per pair."""
    n = model.n
    w, v = np.linalg.eigh(model.Q)
    qinv = (v / w) @ v.T
    _, logdet_q = np.linalg.slogdet(model.Q)
    logdiff = np.empty(ts.size)
    for i, t in enumerate(ts):
        t = float(t)
        lt = float(log_kernel_pairs(model, np.array([t]), x[i], u[i])[0]) \
            - 0.5 * model.logdet_Qinf - float(quadratic_r(model, x[i]))
        y = x[i] - u[i]
        lc = -0.5 * logdet_q - 0.5 * n * math.log(t) \
            - 0.5 * float(y @ qinv @ y) / t
        hi_, gap = max(lt, lc), abs(lt - lc)
        logdiff[i] = hi_ + (math.log(-math.expm1(-gap)) if gap > 0
                            else -1e6)
    d = x - u
    qd = np.einsum("mi,ij,mj->m", d, qinv, d)
    return logdiff - 0.5 * (1 - n) * np.log(ts), qd / ts


@pytest.mark.parametrize("model", [standard_model(1),
                                   build_model([[1.3]], [[-0.7]])])
def test_difference_pieces_match_the_per_pair_loop(model):
    gen = np.random.default_rng(5)
    x = gen.random((200, 1))
    u = gen.random((200, 1))
    ts = np.exp(gen.uniform(math.log(1e-6), 0.0, 200))
    # equal pairs hit the gap-zero branch
    u[:3], ts[:3] = x[:3], [1e-6, 1e-3, 1.0]
    got = _difference_ratio_pieces(model, x, u, ts)
    want = frozen_difference_ratio_pieces(model, x, u, ts)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-14, atol=0.0)


def frozen_difference_bisection(a, b, c):
    """kernel_difference_bound's rate search as it was, two full passes at
    every rate; returns (rate, max ratio, half-sample max ratio)."""
    n = a.size

    def max_log_ratio(rate, count):
        return float(np.max(a[:count] + rate * b[:count]))

    if c is None:
        lo, hi = 0.0, 0.45
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            full = max_log_ratio(mid, n)
            halfv = max_log_ratio(mid, n // 2)
            if np.isfinite(full) and full <= math.log(1.10) + halfv:
                lo = mid
            else:
                hi = mid
        c = lo
    return (c, math.exp(max_log_ratio(c, n)),
            math.exp(max_log_ratio(c, n // 2)))


@pytest.mark.parametrize("model", [standard_model(1),
                                   build_model([[0.7]], [[-0.3]]),
                                   build_model([[3.0]], [[-2.0]])])
def test_difference_rate_matches_the_full_pass_bisection(model,
                                                         monkeypatch):
    seen = []
    real = torus_mod._difference_ratio_pieces

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(torus_mod, "_difference_ratio_pieces", spy)
    rates = set()
    for seed in range(5):
        for c, size in ((None, 400), (None, 37), (0.2, 400), (0.44, 400)):
            seen.clear()
            report = kernel_difference_bound(model, n_grid=(2,), c=c,
                                             sample_size=size, seed=seed)
            st = report.statistics
            got = (report.inputs["rate"], st["max_ratio"],
                   st["half_sample_max_ratio"])
            # the first pieces are the calibration sample's
            assert got == frozen_difference_bisection(*seen[0], c)
            rates.add(got[0])
    # bisected rates below the top of the bracket are exercised too
    assert len(rates) > 3
