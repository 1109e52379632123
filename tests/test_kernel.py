import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.stats import multivariate_normal

from oulab import (
    admissible_rate,
    build_model,
    calibrate_bound,
    count_kdot_zeros,
    count_kdot_zeros_batch,
    local_weight,
    log_kernel,
    natural_rate,
    quadratic_r,
    standard_model,
)
from oulab.kernel import (BOUND_NAMES, BoundCalibration,
                          _calibrate_tail_integral, _flip_counts,
                          _prefix_max_log_ratios, _rate_maxima,
                          _score_blocks, _sign_changes,
                          kernel, log_kernel_grid, log_kernel_pairs,
                          logk_time_slope, logk_time_slope_grid)
import oulab.kernel as kernel_mod
from oulab.model import T_SWITCH, propagators
from oulab.rng import substream
from oulab.semigroup import _eta_kernel_paths
from oulab.errors import (
    ArgumentRangeError,
    BadOrderError,
    NonPositiveTimeError,
    RateTooLargeError,
)
from reference_routes import (covariance_qt, gamma_density, kernel_dt_raw,
                              log_kernel_grid_einsum, ratio_pieces_einsum)


def mehler_1d(t, x, u):
    """Independent route for the standard 1-d model: the classical
    transition density against the invariant Gaussian, q = e^(-t)."""
    q = np.exp(-t)
    s = 1.0 - q * q
    return s ** -0.5 * np.exp(
        -(q * q * x * x - 2.0 * q * x * u + q * q * u * u) / (2.0 * s))


# ---------------------------------------------------------------------------
# kernel values


def test_kernel_closed_point(std1):
    got = kernel(std1, np.log(2.0), np.array([0.0]), np.array([0.0]))
    assert got == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-14)


def test_kernel_matches_independent_formula(std1):
    gen = np.random.default_rng(0)
    for _ in range(30):
        t = float(np.exp(gen.uniform(np.log(1e-4), np.log(30.0))))
        x, u = gen.standard_normal(2) * 2.0
        got = kernel(std1, t, np.array([x]), np.array([u]))
        assert got == pytest.approx(mehler_1d(t, x, u), rel=1e-11)


def test_kernel_long_time_limit(std1):
    got = kernel(std1, 50.0, np.array([0.7]), np.array([-1.2]))
    assert got == pytest.approx(1.0, rel=1e-10)


def test_kernel_symmetric_in_its_arguments(std2):
    # self-adjointness against the invariant measure: K_t(x, u) = K_t(u, x)
    gen = np.random.default_rng(1)
    for t in (0.05, 1.0, 4.0):
        x = gen.standard_normal(2)
        u = gen.standard_normal(2)
        assert kernel(std2, t, x, u) == pytest.approx(
            kernel(std2, t, u, x), rel=1e-9)


def test_kernel_reproduces_the_transition_density(std1):
    # int K_t(x, u) dgamma_inf(u) = 1 for every x, t
    for t, x in ((0.3, 0.5), (2.0, -1.0)):
        val, _ = scipy.integrate.quad(
            lambda u: kernel(std1, t, np.array([x]), np.array([u]))
            * gamma_density(std1, np.inf, np.array([u])), -12, 12)
        assert val == pytest.approx(1.0, rel=1e-9)


def test_log_kernel_consistency(std2):
    x = np.array([0.4, -0.6])
    u = np.array([1.0, 0.2])
    assert np.exp(log_kernel(std2, 0.7, x, u)) == pytest.approx(
        kernel(std2, 0.7, x, u), rel=1e-13)


def test_kernel_rejects_nonpositive_time(std1):
    with pytest.raises(NonPositiveTimeError):
        kernel(std1, 0.0, np.array([0.0]), np.array([0.0]))


def test_stripped_kernel_relation(std1, std2):
    # the near-part kernel paths of the CZ sweeps are eta K e^{-R(x)}
    gen = np.random.default_rng(6)
    ts = np.geomspace(1e-3, 5.0, 7)
    for m in (std1, std2):
        x = gen.standard_normal((5, m.n))
        u = x + 0.3 * gen.standard_normal((5, m.n))
        paths = _eta_kernel_paths(m, propagators(m, ts), x, u)
        for i in range(5):
            eta = local_weight(m, x[i], u[i])
            for j, t in enumerate(ts):
                expect = eta * kernel(m, t, x[i], u[i]) * np.exp(
                    -quadratic_r(m, x[i]))
                assert paths[i, j] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# the short-time convolution approximant


def conv_kernel(model, t, y, normalized=False):
    """Short-time convolution approximant
    (det Q)^{-1/2} t^{-n/2} exp(-|Q^{-1/2} y|^2 / (2t)); the normalized
    variant divides by (2 pi)^{n/2} and integrates to 1 in dy."""
    y = np.asarray(y, dtype=float)
    w, v = np.linalg.eigh(model.Q)
    q = np.einsum("...i,ij,...j->...", y, (v / w) @ v.T, y)
    _, logdet_q = np.linalg.slogdet(model.Q)
    lk = -0.5 * logdet_q - 0.5 * model.n * np.log(t) - 0.5 * q / t
    if normalized:
        lk = lk - 0.5 * model.n * np.log(2 * np.pi)
    out = np.exp(lk)
    return float(out) if out.ndim == 0 else out


def test_conv_kernel_at_origin(std1):
    got = conv_kernel(std1, 0.01, np.array([0.0]))
    assert got == pytest.approx(7.0710678118654755, rel=1e-14)


def test_conv_kernel_normalized_mass(std1):
    val, _ = scipy.integrate.quad(
        lambda y: conv_kernel(std1, 0.05, np.array([y]), normalized=True),
        -6, 6)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_kernel_matches_transition_density(std1, std2):
    # K_t(x, u) gamma(u) is the Gaussian law of the process started at x
    cases = [
        (std1, np.array([0.3]), np.array([0.33])),
        (std1, np.array([-1.2]), np.array([0.5])),
        (std2, np.array([0.4, -0.2]), np.array([0.37, -0.16])),
    ]
    for m, x, u in cases:
        for t in (0.01, 0.3, 2.0):
            lhs = float(kernel(m, t, x, u)) * float(gamma_density(m, np.inf, u))
            mean = scipy.linalg.expm(t * m.B) @ x
            rhs = multivariate_normal.pdf(u, mean=mean, cov=covariance_qt(m, t))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conv_kernel_approximates_kernel_at_short_times(std1, std2):
    # transition density ~ flat kernel at u - x weighted by the half
    # difference of the stationary exponents, with O(t) relative error
    cases = [
        (std1, np.array([0.3]), np.array([0.33])),
        (std2, np.array([0.4, -0.2]), np.array([0.37, -0.16])),
    ]
    for m, x, u in cases:
        for t in (1e-2, 1e-3, 1e-4):
            dens = float(kernel(m, t, x, u)) * float(gamma_density(m, np.inf, u))
            split = np.exp(float(quadratic_r(m, x)) - float(quadratic_r(m, u)))
            flat = float(conv_kernel(m, t, u - x, normalized=True)) * np.sqrt(split)
            assert flat == pytest.approx(dens, rel=20 * t)


# ---------------------------------------------------------------------------
# time derivative


def kernel_dt(model, t, x, u):
    """(dK/dt, rounding floor) as K times the analytic log slope."""
    slope, floor = logk_time_slope(model, np.array([float(t)]), x, u)
    k = kernel(model, t, x, u)
    return float(k * slope[0]), float(k * floor[0])


def test_kernel_dt_closed_point(std1):
    # at x = u = 0: K = (1 - q^2)^(-1/2), dK/dt = -q^2 (1 - q^2)^(-3/2)
    got, err = kernel_dt(std1, np.log(2.0), np.array([0.0]),
                         np.array([0.0]))
    exact = -0.25 * (0.75 ** -1.5)
    assert got == pytest.approx(exact, abs=1e-8)
    assert err < 1e-6
    assert abs(got - exact) < 10 * max(err, 1e-12)


def test_kernel_dt_raw_converges_second_order(std1):
    x, u = np.array([0.0]), np.array([0.0])
    t = np.log(2.0)
    exact = -0.25 * (0.75 ** -1.5)
    hs = (1e-2, 3e-3, 1e-3)
    errs = [abs(kernel_dt_raw(std1, t, x, u, h) - exact) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_kernel_dt_matches_quadrature_of_ftc(std1):
    # int_eps^1 dK/dt dt = K_1 - K_eps
    x, u = np.array([0.2]), np.array([1.1])
    eps = 1e-3
    val, _ = scipy.integrate.quad(
        lambda t: kernel_dt(std1, t, x, u)[0], eps, 1.0, limit=300)
    assert val == pytest.approx(
        kernel(std1, 1.0, x, u) - kernel(std1, eps, x, u), rel=1e-6)


# ---------------------------------------------------------------------------
# the analytic time slope


def mehler_log_slope(t, x, u):
    """d/dt log K for the standard model (Q = 2I, B = -I), written from the
    classical Mehler kernel: with q = e^(-t) and s = 1 - q^2, each
    coordinate adds -q^2/s + q (u - q x)(q u - x) / s^2."""
    t = np.asarray(t, dtype=float)[:, None]
    q = np.exp(-t)
    s = -np.expm1(-2.0 * t)
    terms = -q * q / s + q * (u - q * x) * (q * u - x) / (s * s)
    return terms.sum(axis=1)


def fd_log_slope(model, ts, x, u):
    """The Richardson-extrapolated central difference that the analytic
    slope replaced, frozen as an independent oracle: relative step
    1e-4 t, two levels.  Returns (slope, its own error estimate)."""
    r = 1e-4
    factors = (1 + r, 1 - r, 1 + r / 2, 1 - r / 2, 1.0)
    m = ts.size
    xr = np.concatenate([np.broadcast_to(x, (m, model.n))] * len(factors))
    ur = np.concatenate([np.broadcast_to(u, (m, model.n))] * len(factors))
    vals = log_kernel_pairs(model, np.concatenate([ts * f for f in factors]),
                            xr, ur)
    g_pp, g_mm, g_p, g_m, g_0 = (vals[i * m:(i + 1) * m]
                                 for i in range(len(factors)))
    h = r * ts
    d1 = (g_pp - g_mm) / (2 * h)
    d2 = (g_p - g_m) / h
    slope = (4 * d2 - d1) / 3
    rounding = np.finfo(float).eps * np.maximum.reduce(
        [np.abs(g_pp), np.abs(g_mm), np.abs(g_0)]) / h
    return slope, np.abs(slope - d2) + 4 * rounding


def fd_grid_slope(model, ts, x, u):
    """The grid form of fd_log_slope: five propagator stacks shared by all
    pairs, (p, m) slope and error estimate."""
    r = 1e-4
    g = {f: log_kernel_grid(model, propagators(model, ts * f), x, u)
         for f in (1 + r, 1 - r, 1 + r / 2, 1 - r / 2, 1.0)}
    h = (r * ts)[None, :]
    d1 = (g[1 + r] - g[1 - r]) / (2 * h)
    d2 = (g[1 + r / 2] - g[1 - r / 2]) / h
    slope = (4 * d2 - d1) / 3
    rounding = np.finfo(float).eps * np.maximum(
        np.abs(g[1 + r]), np.abs(g[1.0])) / h
    return slope, np.abs(slope - d2) + 4 * rounding


@pytest.mark.parametrize("n", [1, 2])
def test_slope_matches_mehler_closed_form(n):
    model = standard_model(n)
    gen = np.random.default_rng(40 + n)
    ts = np.geomspace(1e-4, 40.0, 400)
    # with u = 0 or x = 0 the slope is O(e^(-2t)) for large t and rests on
    # N alone, which the difference M - Qinf^-1 would lose; with u near x
    # the gradient g = C u - N x cancels for small t
    pairs = [(np.full(n, 1.7), np.zeros(n)), (np.zeros(n), np.full(n, -0.6)),
             (np.zeros(n), np.zeros(n)), (np.full(n, 1.3), np.full(n, 1.3)),
             (np.full(n, 2.0), np.full(n, 2.01))]
    pairs += [tuple(1.5 * gen.standard_normal((2, n))) for _ in range(6)]
    for x, u in pairs:
        got, floor = logk_time_slope(model, ts, x, u)
        want = mehler_log_slope(ts, x, u)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # the floor covers the error, the closed form's own included, and
        # stays a rounding-sized quantity
        assert np.all(np.abs(got - want) <= 2.0 * floor)
        assert np.all(floor <= 1e-8 * np.abs(got) + 1e-8 / ts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slope_matches_frozen_finite_difference(n, model_factory):
    # The difference quotient is the less accurate side.  Against a
    # 40-digit derivative of log K the analytic slope errs by at most
    # about 1e-12; the quotient errs by up to 8e-8 for 1e-3 <= t < 0.1,
    # where Qt = Qinf - e^{tB} Qinf e^{tB^T} cancels and the step 1e-4 t
    # amplifies that rounding.  1/t is the scale of the slope's terms
    # where they cancel to a zero of the slope.
    ts = np.geomspace(1e-4, 5.0, 300)
    loose = (ts >= 1e-3) & (ts < 0.1)
    for seed in range(4):
        model = model_factory(seed, n)
        gen = np.random.default_rng(seed)
        for _ in range(3):
            x = gen.standard_normal(n)
            u = gen.standard_normal(n)
            got, _ = logk_time_slope(model, ts, x, u)
            fd, _ = fd_log_slope(model, ts, x, u)
            gap = np.abs(got - fd) / (np.abs(fd) + 1.0 / ts)
            assert gap[~loose].max() <= 1e-8
            assert gap[loose].max() <= 2e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slope_continuous_across_the_form_switch(n, model_factory):
    ts = np.array([np.nextafter(T_SWITCH, 0.0), T_SWITCH,
                   np.nextafter(T_SWITCH, 2.0)])
    for seed in range(4):
        model = model_factory(seed, n)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(n)
        u = gen.standard_normal(n)
        got, floor = logk_time_slope(model, ts, x, u)
        # the first two use the direct form, the last the resolvent form
        assert abs(got[2] - got[1]) <= 4 * (floor[1] + floor[2])
        assert abs(got[1] - got[0]) <= 4 * (floor[0] + floor[1])
        assert got[2] == pytest.approx(got[1], rel=1e-12, abs=1e-13)


def test_slope_grid_and_pair_routes_agree_bit_for_bit(model_factory,
                                                      monkeypatch):
    # ragged evaluation blocks on the grid route, for log K and its slope
    monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", 77)
    for n in (1, 2, 3):
        model = model_factory(7, n)
        gen = np.random.default_rng(n)
        ts = np.concatenate([np.geomspace(1e-8, 30.0, 37), [T_SWITCH]])
        X = 2.0 * gen.standard_normal((300, n))
        U = 2.0 * gen.standard_normal((300, n))
        props = propagators(model, ts)
        slope, floor = logk_time_slope_grid(model, props, X, U)
        lk = log_kernel_grid(model, props, X, U)
        tt = np.tile(ts, X.shape[0])
        XX, UU = np.repeat(X, ts.size, axis=0), np.repeat(U, ts.size, axis=0)
        s1, f1 = logk_time_slope(model, tt, XX, UU)
        assert np.array_equal(slope.ravel(), s1)
        assert np.array_equal(floor.ravel(), f1)
        lk += quadratic_r(model, X)[:, None]
        assert np.array_equal(lk.ravel(), log_kernel_pairs(model, tt, XX, UU))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_kernel_matches_frozen_einsum_route(n, model_factory):
    # the fixed-order evaluator rounds differently from the einsum
    # contractions it replaced, by a few ulps of the terms it sums; in one
    # dimension every sum has a single term, so the bits are the same
    ts = np.concatenate([np.geomspace(1e-6, 40.0, 61),
                         [np.nextafter(T_SWITCH, 0.0), T_SWITCH,
                          np.nextafter(T_SWITCH, 2.0)]])
    for seed in range(4):
        model = model_factory(seed, n)
        gen = np.random.default_rng(10 + seed)
        X = 2.0 * gen.standard_normal((40, n))
        U = 2.0 * gen.standard_normal((40, n))
        props = propagators(model, ts)
        got = log_kernel_grid(model, props, X, U)
        want = log_kernel_grid_einsum(model, props, X, U)
        scale = 1.0 + np.abs(quadratic_r(model, X))[:, None] + np.abs(want)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        if n == 1:
            assert np.array_equal(got, want)


def _far_pairs(model, seed, count):
    gen = substream(seed, 77)
    x = 2.0 * gen.standard_normal((8 * count, model.n))
    u = 2.0 * gen.standard_normal((8 * count, model.n))
    keep = np.abs(quadratic_r(model, u) - quadratic_r(model, x)) >= 4.0
    assert keep.sum() >= count
    return x[keep][:count], u[keep][:count]


GENERAL2 = ([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 2.0], [0.0, -0.5]])


@pytest.mark.parametrize("which", ["general2", "random3"])
def test_zero_counts_match_frozen_finite_difference(which, model_factory):
    model = (build_model(*GENERAL2) if which == "general2"
             else model_factory(11, 3))
    X, U = _far_pairs(model, 5, 400)
    counts, stable = count_kdot_zeros_batch(model, X, U)
    grid = np.geomspace(1e-8, 1.0, 4096)
    slope, err = fd_grid_slope(model, grid, X, U)
    rows, _, _ = _sign_changes(slope, err)
    assert np.array_equal(counts, np.bincount(rows, minlength=X.shape[0]))
    assert stable.all()
    assert counts.max() >= 1


def frozen_sign_changes(slope, floor):
    """The mask form of _sign_changes that the flip list replaced: flips
    as a (p, m) mask on the right column, and for every column the last
    nonzero column before it (-1 for none)."""
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


def test_sign_changes_match_frozen_mask_form():
    gen = np.random.default_rng(8)
    for trial in range(30):
        p, m = int(gen.integers(1, 40)), int(gen.integers(1, 60))
        slope = gen.choice([-1.0, 0.0, 1.0], size=(p, m),
                           p=[0.4, 0.2, 0.4]) * gen.uniform(0.5, 2.0, (p, m))
        floor = np.where(gen.random((p, m)) < 0.1, 1.0, 0.0)
        if trial % 3 == 0:
            # rows that end on one sign and start on the other: a flip
            # must never cross a row boundary
            slope[:, 0] = np.where(np.arange(p) % 2, 1.0, -1.0)
            slope[:, -1] = -slope[:, 0]
        rows, left, right = _sign_changes(slope, floor)
        flips, prev_last = frozen_sign_changes(slope, floor)
        want_rows, want_right = np.nonzero(flips)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(right, want_right)
        assert np.array_equal(left, prev_last[want_rows, want_right])


def frozen_count_zeros_once(model, X, U, t_lo, t_hi, n_scan):
    """_count_zeros_once as it was before the counts were taken per block:
    the whole (pairs, times) slope grid, every flip from _sign_changes, and
    every bracket refined at once; returns (counts, zeros)."""
    grid = np.geomspace(t_lo, t_hi, n_scan)
    slope, floor = logk_time_slope_grid(model, propagators(model, grid), X, U)
    rows, left, right = _sign_changes(slope, floor)
    counts = np.bincount(rows, minlength=X.shape[0])
    lo, hi = grid[left], grid[right]
    left_sign = np.sign(slope[rows, left])
    while np.max(hi - lo, initial=0.0) > 1e-10:
        mid = 0.5 * (lo + hi)
        sm, _ = logk_time_slope(model, mid, X[rows], U[rows])
        same = np.sign(sm) == left_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return counts, 0.5 * (lo + hi)


def test_flip_counts_match_sign_changes():
    gen = np.random.default_rng(21)
    for trial in range(40):
        p, m = int(gen.integers(1, 30)), int(gen.integers(2, 70))
        slope = gen.choice([-1.0, 1.0], size=(p, m)) \
            * gen.uniform(1e-3, 2.0, (p, m))
        floor = np.full((p, m), 1e-16)
        # some rows get cells within the floor, exact zeros or nans
        hit = gen.random((p, m)) < (0.02 if trial % 2 else 0.2)
        floor[hit & (gen.random((p, m)) < 0.5)] = 1.0
        slope[hit & (gen.random((p, m)) < 0.3)] = 0.0
        slope[hit & (gen.random((p, m)) < 0.1)] = np.nan
        floor[hit & (gen.random((p, m)) < 0.1)] = np.nan
        rows, _, _ = _sign_changes(slope, floor)
        got = _flip_counts(slope, floor)
        assert np.array_equal(got, np.bincount(rows, minlength=p))


@pytest.mark.filterwarnings("error")
def test_nan_slope_counts_as_no_sign():
    # a NaN between opposite signs flips as a 0 there does
    slope = np.array([[1.0, 0.0, -1.0, 2.0, 0.0, 3.0, -2.0],
                      [0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    floor = np.zeros_like(slope)
    nan = np.where(slope == 0.0, np.nan, slope)
    want = _sign_changes(slope, floor)
    got = _sign_changes(nan, floor)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(_flip_counts(nan, floor), [3, 1])
    assert np.array_equal(_flip_counts(slope, floor), [3, 1])


def _within_floor_pairs(grid, k):
    """Pairs (0, u) of a 1-d standard model whose slope is zero, to
    rounding, at the grid times k: u^2 = 1 - e^{-2t}."""
    u = np.sqrt(1.0 - np.exp(-2.0 * grid[k]))[:, None]
    return np.zeros_like(u), u


@pytest.mark.parametrize("n_scan", [4096, 10_000])
def test_zero_counts_match_frozen_sign_change_route(n_scan, std1,
                                                    monkeypatch):
    grid = np.geomspace(1e-8, 1.0, n_scan)
    X0, U0 = _within_floor_pairs(grid, np.array([5, 999, 2000, 3001]))
    slope, floor = logk_time_slope_grid(std1, propagators(std1, grid), X0, U0)
    assert (np.abs(slope) <= np.maximum(1e-13, 4.0 * floor)).any(axis=1).all()
    gen = np.random.default_rng(n_scan)
    X1, U1 = gen.normal(0.0, 2.0, (36, 1)), gen.normal(0.0, 2.0, (36, 1))
    X, U = np.vstack([X0, X1]), np.vstack([U0, U1])
    want, _ = frozen_count_zeros_once(std1, X, U, 1e-8, 1.0, n_scan)
    want2, _ = frozen_count_zeros_once(std1, X, U, 1e-8, 1.0, 2 * n_scan)
    assert want.max() >= 1
    for cells in (1 << 15, 3 * n_scan + 5):      # one and several rows
        monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", cells)
        counts, stable = count_kdot_zeros_batch(std1, X, U, n_scan=n_scan)
        assert np.array_equal(counts, want)
        assert np.array_equal(stable, want == want2)
    g2 = build_model(*GENERAL2)
    X, U = _far_pairs(g2, 3, 60)
    want, _ = frozen_count_zeros_once(g2, X, U, 1e-8, 1.0, n_scan)
    want2, _ = frozen_count_zeros_once(g2, X, U, 1e-8, 1.0, 2 * n_scan)
    counts, stable = count_kdot_zeros_batch(g2, X, U, n_scan=n_scan)
    assert np.array_equal(counts, want)
    assert np.array_equal(stable, want == want2)
    for model, x, u in [*zip([std1] * 4, X0, U0), *zip([g2] * 3, X, U)]:
        zc = count_kdot_zeros(model, x, u, n_scan=n_scan)
        count, zeros = frozen_count_zeros_once(model, x[None], u[None],
                                               1e-8, 1.0, n_scan)
        assert zc.count == count[0]
        assert np.array_equal(zc.zeros, np.sort(zeros))


# ---------------------------------------------------------------------------
# space derivative identity


def space_derivative_residual(model, t, x, u, ell, fd_step=1e-6):
    """Relative residual of d/du_ell K_t = -K_t <Qt^-1 e^{tB} (D_{-t} u - x),
    e_ell> at coordinate ell (0-based), the derivative by central
    differences and the right side from the propagator stack."""
    pr = propagators(model, np.array([float(t)]))
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    rl = (pr.Qt_inv[0] @ (pr.exp_tB[0] @ (pr.Dmt[0] @ u - x)))[ell]
    e = np.zeros(model.n)
    e[ell] = fd_step
    fd = (kernel(model, t, x, u + e) - kernel(model, t, x, u - e)) \
        / (2 * fd_step)
    k = kernel(model, t, x, u)
    return float(abs(fd + k * rl) / max(1.0, abs(k * rl)))


def test_space_derivative_residuals_small(std1, std2):
    gen = np.random.default_rng(2)
    for m in (std1, std2):
        for _ in range(10):
            t = float(np.exp(gen.uniform(np.log(0.01), np.log(5.0))))
            x = gen.standard_normal(m.n)
            u = gen.standard_normal(m.n)
            ell = int(gen.integers(m.n))
            assert space_derivative_residual(m, t, x, u, ell) < 1e-5


# ---------------------------------------------------------------------------
# critical points of t -> K_t(x, u)


def brute_zero_count(model, x, u, t_lo, t_hi, grid=20000):
    """Sign flips of the finite differences of the kernel itself."""
    ts = np.geomspace(t_lo, t_hi, grid)
    ks = np.exp(log_kernel_pairs(model, ts, x, u))
    d = np.diff(ks)
    s = np.sign(d[np.abs(d) > 1e-13])
    return int(np.sum(s[1:] * s[:-1] < 0))


def test_zero_counts_match_dense_scan(std1):
    for xv, uv in ((1.0, 2.0), (1.0, 3.0), (0.5, 0.1)):
        x, u = np.array([xv]), np.array([uv])
        zc = count_kdot_zeros(std1, x, u)
        assert zc.stable
        assert zc.count == brute_zero_count(std1, x, u, 1e-8, 1.0)


def test_monotone_pair_has_no_critical_point(std1):
    zc = count_kdot_zeros(std1, np.array([0.0]), np.array([0.0]))
    assert zc.count == 0 and zc.stable


def test_far_pair_is_monotone_on_the_unit_interval(std1):
    # the peak of t -> K_t(1, 5) sits near t = 1.57, outside (0, 1]
    zc = count_kdot_zeros(std1, np.array([1.0]), np.array([5.0]))
    assert zc.count == 0 and zc.stable
    wide = count_kdot_zeros(std1, np.array([1.0]), np.array([5.0]),
                            t_interval=(1e-8, 50.0))
    assert wide.count == 1
    assert wide.zeros[0] == pytest.approx(1.5687, abs=2e-3)


def test_interior_critical_points(std1):
    for uv, t_star in ((1.5, 0.128), (2.0, 0.448), (2.5, 0.750),
                       (3.0, 0.983)):
        zc = count_kdot_zeros(std1, np.array([1.0]), np.array([uv]))
        assert zc.count == 1, uv
        assert zc.zeros[0] == pytest.approx(t_star, abs=5e-3)


def test_zero_count_batch_matches_single(std1):
    X = np.array([[1.0], [1.0], [0.0]])
    U = np.array([[2.0], [5.0], [0.0]])
    counts, stable = count_kdot_zeros_batch(std1, X, U)
    assert list(counts) == [1, 0, 0]
    assert stable.all()


def test_zero_count_interval_validation(std1):
    with pytest.raises(NonPositiveTimeError):
        count_kdot_zeros(std1, np.array([0.0]), np.array([1.0]),
                         t_interval=(0.0, 1.0))
    with pytest.raises(NonPositiveTimeError):
        count_kdot_zeros_batch(std1, np.array([[0.0]]), np.array([[1.0]]),
                               t_interval=(0.0, 1.0))


# ---------------------------------------------------------------------------
# the total-variation/critical-value comparison


def ftc_variation_bound(model, x, u, t_interval=(1e-8, 1.0), sup_grid=1000):
    """Compare int |dK/dt| dt over the interval with twice the sum of
    kernel values at the zeros count_kdot_zeros finds and at the right
    endpoint; also (count + 2) * sup K on a log grid.

    The integral uses adaptive quadrature between the zeros; for x != u
    the kernel vanishes at t -> 0, so the lower endpoint adds nothing.
    """
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    zc = count_kdot_zeros(model, x, u, t_interval=t_interval)
    t_lo, t_hi = t_interval
    cuts = [t_lo, *[float(z) for z in zc.zeros], t_hi]
    lhs = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = scipy.integrate.quad(
            lambda t: abs(kernel_dt(model, t, x, u)[0]), a, b, limit=200)
        lhs += val
    k_at = [kernel(model, float(z), x, u) for z in zc.zeros]
    rhs = 2.0 * (sum(k_at) + kernel(model, t_hi, x, u))
    grid = np.geomspace(t_lo, t_hi, sup_grid)
    sup_k = float(np.exp(log_kernel_pairs(model, grid, x, u).max()))
    return {"lhs": lhs, "rhs": rhs, "count": zc.count, "stable": zc.stable,
            "sup_bound": 2.0 * (zc.count + 2) * sup_k}


def test_ftc_bound_for_monotone_path(std1):
    x, u = np.array([0.0]), np.array([3.0])
    rep = ftc_variation_bound(std1, x, u)
    assert rep["count"] == 0 and rep["stable"]
    # no interior critical point: the variation equals K at the endpoint
    k1 = kernel(std1, 1.0, x, u)
    assert rep["lhs"] == pytest.approx(k1, rel=1e-6)
    assert rep["rhs"] == pytest.approx(2.0 * k1, rel=1e-12)
    assert rep["lhs"] <= rep["rhs"]
    assert rep["sup_bound"] >= rep["rhs"] - 1e-12


def test_ftc_bound_with_critical_point(std1):
    x, u = np.array([1.0]), np.array([2.0])
    rep = ftc_variation_bound(std1, x, u)
    assert rep["count"] == 1
    assert rep["lhs"] <= rep["rhs"] + 1e-12
    assert rep["sup_bound"] >= rep["lhs"] - 1e-12


# ---------------------------------------------------------------------------
# rate calibration


def test_reference_rates(std1):
    assert natural_rate(std1) == pytest.approx(0.25)
    assert admissible_rate(std1, "kernel-small-t") == pytest.approx(
        0.07043293923734958, rel=1e-9)
    assert admissible_rate(std1, "dkernel-large-t") == pytest.approx(0.25)


def test_calibration_rejects_the_natural_rate(std1):
    # c = 0.25 exceeds what the kernel's quadratic form supports near t = 1
    with pytest.raises(RateTooLargeError):
        calibrate_bound(std1, "kernel-small-t", n_samples=2000, c=0.25)


def test_calibration_accepts_admissible_rate(std1):
    cal = calibrate_bound(std1, "kernel-small-t", n_samples=2000, c=0.06)
    assert cal.stable
    assert cal.exponent_rate == 0.06
    assert 1.0 <= cal.prefactor_cap < 3.0


def test_calibration_ratio_monotone_in_rate(std1):
    lo = calibrate_bound(std1, "kernel-small-t", n_samples=2000, c=0.02)
    hi = calibrate_bound(std1, "kernel-small-t", n_samples=2000, c=0.05)
    assert lo.prefactor_cap <= hi.prefactor_cap + 1e-12


@pytest.mark.parametrize("which", ["kernel-small-t", "dkernel-small-t",
                                   "dkernel-large-t", "tail-integral"])
def test_auto_calibration_is_stable(std1, which):
    cal = calibrate_bound(std1, which, n_samples=2000)
    assert cal.stable
    assert cal.exponent_rate > 0
    assert np.isfinite(cal.prefactor_cap)
    assert cal.which == which


def test_every_calibration_dumps_to_json(std1):
    for which in BOUND_NAMES:
        cal = calibrate_bound(std1, which, n_samples=2000)
        assert type(cal.stable) is bool
        assert json.loads(json.dumps(dataclasses.asdict(cal)))["which"] \
            == which


def test_calibration_validation(std1):
    with pytest.raises(ArgumentRangeError):
        calibrate_bound(std1, "kernel-small-t", n_samples=2000, c=-0.1)
    with pytest.raises(BadOrderError):
        calibrate_bound(std1, "no-such-bound", n_samples=2000)


def test_unknown_bound_name_is_rejected_before_any_work(std1, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the name check")

    for name in ("_calibration_sample", "_calibrate_tail_integral",
                 "propagators"):
        monkeypatch.setattr(kernel_mod, name, no_work)
    for bad in ("no-such-bound", "all", "Kernel-small-t"):
        with pytest.raises(BadOrderError, match="unknown bound name"):
            calibrate_bound(std1, bad, n_samples=2000, c=0.05)
        with pytest.raises(BadOrderError, match="unknown bound name"):
            admissible_rate(std1, bad)


def frozen_max_log_ratio(which, a, b, dnorm, ts, c, upto=None):
    """The per-prefix maximum that calibrate_bound evaluated three times
    per rate before the prefixes shared one pass."""
    sl = slice(0, upto)
    if which in ("kernel-small-t", "dkernel-small-t"):
        vals = a[sl] + c * b[sl]
    else:
        vals = a[sl] + c * b[sl] - np.log(dnorm[sl]
                                          + np.exp(-c * ts)[None, :])
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    per_pair = vals.max(axis=1)
    per_pair = per_pair[np.isfinite(per_pair)]
    return float(per_pair.max()) if per_pair.size else -np.inf


def _stream(a, b, dnorm, ends, rows=37, empty_blocks=False):
    """(pairs, times) pieces as calibrate_bound's block stream: (group, a,
    b, dnorm) blocks of at most `rows` pairs in pair order, group k the
    pairs ends[k]:ends[k + 1]; an empty group yields one empty block if
    empty_blocks, else none."""
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        for r in range(lo, max(hi, lo + empty_blocks), rows):
            sl = slice(r, min(r + rows, hi))
            yield k, a[sl], b[sl], None if dnorm is None else dnorm[sl]


@pytest.mark.parametrize("which", ["kernel-small-t", "dkernel-small-t",
                                   "dkernel-large-t"])
def test_prefix_maxima_bit_identical_to_separate_passes(which):
    gen = np.random.default_rng(3)
    p, m = 203, 48
    ts = np.geomspace(1.0, 50.0, m)
    hi = 2.0
    margin = 0.0 if "small" in which else 1e-12
    for trial in range(20):
        a = 40.0 * gen.standard_normal((p, m))
        b = np.abs(30.0 * gen.standard_normal((p, m)))
        dnorm = np.abs(gen.standard_normal((p, m)))
        for arr in (a, b):
            for bad in (np.nan, np.inf, -np.inf):
                arr[gen.random((p, m)) < 0.03] = bad
        a[gen.integers(p, size=5)] = -np.inf       # rows with no finite value
        a[gen.integers(p, size=2)] = np.nan
        dnorm[gen.random((p, m)) < 0.02] = 0.0
        if "small" in which:
            dnorm = None                            # the small-t forms
        if trial == 0:
            a[:60] = -np.inf                        # an empty first quarter
        if trial == 1:
            # a last cell whose ratio sets the maximum below c = 0.1 and
            # overflows above it: a cell with no finite ratio at hi stays
            a[-1, -1], b[-1, -1] = 1.7e308, 1e308
        # empty first and middle groups
        uptos = (0, p // 4, p // 4, p // 2, p - 1, None)
        ends = (0, 0, p // 4, p // 4, p // 2, p - 1, p)

        def blocks():
            return _stream(a, b, dnorm, ends, empty_blocks=trial % 2 == 0)

        # inf - inf and overflow in a + c b
        with np.errstate(invalid="ignore", over="ignore"):
            # the cells the stream keeps for the bracket [0, hi]
            _, kept, _, _ = _score_blocks(blocks(), 6, ts, 0.0, hi, margin)
            for c in (0.0, 1e-3, 0.07, 0.25, hi):
                want = [frozen_max_log_ratio(which, a, b, dnorm, ts, c, k)
                        for k in uptos]
                _, streamed = _rate_maxima(blocks(), 6, ts, c, hi, 30)
                pruned, _ = _prefix_max_log_ratios(kept, ts, c)
                assert np.array_equal(streamed, want)
                assert np.array_equal(pruned, want)
                assert all(type(v) is float for v in streamed + pruned)


def frozen_prefix_max_log_ratios(which, a, b, dnorm, ts, c, uptos):
    """_prefix_max_log_ratios as it was before the bisection pruned cells:
    one full pass over the (pairs, times) grid, then the prefix maxima of
    the per-pair suprema."""
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


def frozen_bisection(which, a, b, dnorm, ts, hi):
    """calibrate_bound's rate bisection as it was, a full pass at every
    rate; returns (rate, prefactor cap, stable)."""
    n = a.shape[0]

    def stats(cc):
        m4, m2, m1 = frozen_prefix_max_log_ratios(
            which, a, b, dnorm, ts, cc, (n // 4, n // 2, None))
        growing = (m1 > m2 + np.log(1.1)) and (m2 > m4 + np.log(1.1))
        stable = m1 <= m2 + np.log(1.1)
        return m1, stable, growing

    lo = 0.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        _, stable, growing = stats(mid)
        if stable and not growing:
            lo = mid
        else:
            hi = mid
    m1, stable, _ = stats(lo)
    return lo, float(np.exp(m1)), stable


def frozen_explicit_rate(which, a, b, dnorm, ts, c):
    """calibrate_bound at an explicit rate as it was, one full pass;
    returns (rate, prefactor cap, stable), or None where it raised
    RateTooLargeError."""
    n = a.shape[0]
    m4, m2, m1 = frozen_prefix_max_log_ratios(
        which, a, b, dnorm, ts, c, (n // 4, n // 2, None))
    stable = m1 <= m2 + np.log(1.1)
    if not stable and m2 > m4 + np.log(1.1) or not np.isfinite(m1):
        return None
    return c, float(np.exp(m1)), stable


def _capture_pieces(monkeypatch):
    """Record every block stream calibrate_bound reads, joined back into
    (pairs, times) pieces: entries ((a, b, dnorm), x, u, ts)."""
    seen = []
    real = kernel_mod._ratio_blocks

    def spy(model, which, x, u, ts, ends):
        blocks = list(real(model, which, x, u, ts, ends))
        groups = [k for k, *_ in blocks]
        rows = np.bincount(groups, [blk[1].shape[0] for blk in blocks],
                           minlength=len(ends) - 1)
        assert groups == sorted(groups)
        assert np.array_equal(rows, np.diff(ends))
        assert all(blk[1].size <= kernel_mod._BLOCK_CELLS for blk in blocks)
        pieces = tuple(None if parts[0] is None else np.concatenate(parts)
                       for parts in list(zip(*blocks))[1:])
        seen.append((pieces, x, u, ts))
        yield from blocks

    monkeypatch.setattr(kernel_mod, "_ratio_blocks", spy)
    return seen


def _term_scales(model, which, x, u, ts):
    """b and dnorm formed from the magnitudes of their terms: the scale of
    their rounding, where u - Dt x or D_{-t} u - x cancels."""
    pr = propagators(model, ts)
    if which == "dkernel-large-t":
        dv = np.einsum("mij,pj->pmi", np.abs(pr.Dmt), np.abs(u))
        v = dv + np.abs(x)[:, None, :]
        return ((v * v).sum(axis=2), np.sqrt((dv * dv).sum(axis=2)))
    w = np.abs(u)[:, None, :] + np.einsum("mij,pj->pmi", np.abs(pr.Dt),
                                          np.abs(x))
    return (w * w).sum(axis=2) / ts, None


CALIBRATION_MODELS = ["standard1", "standard2", "standard3", "general2",
                      "random2", "random3"]


@pytest.mark.parametrize("name", CALIBRATION_MODELS)
def test_pruned_bisection_matches_full_passes(name, model_factory,
                                              monkeypatch):
    model = (standard_model(int(name[-1])) if name.startswith("standard")
             else build_model(*GENERAL2) if name == "general2"
             else model_factory(17, int(name[-1])))
    seen = _capture_pieces(monkeypatch)
    with np.errstate(over="ignore"):            # exp of an infinite cap
        for n_samples in (1000, 10_000):
            for seed in (0, 7):
                for which in BOUND_NAMES[:3]:
                    cal = calibrate_bound(model, which, n_samples, seed)
                    (a, b, dnorm), x, u, ts = seen.pop()
                    # the fixed-order blocks against the einsum grid: the
                    # same bits for n <= 2, where every sum has at most two
                    # terms; for n = 3 the sums may run in another order,
                    # which b and dnorm feel relative to their terms' size
                    ref = ratio_pieces_einsum(model, which, x, u, ts)
                    scales = (np.abs(ref[0]),
                              *_term_scales(model, which, x, u, ts))
                    for got, want, scale in zip((a, b, dnorm), ref, scales):
                        if want is None:
                            assert got is None
                        elif model.n <= 2:
                            np.testing.assert_array_equal(got, want)
                        else:
                            np.testing.assert_array_equal(
                                np.isfinite(got), np.isfinite(want))
                            ok = np.isfinite(want)
                            assert np.all(np.abs(got - want)[ok]
                                          <= 1e-15 * scale[ok])
                    want = frozen_bisection(which, a, b, dnorm, ts,
                                            natural_rate(model))
                    got = (cal.exponent_rate, cal.prefactor_cap, cal.stable)
                    assert got == want, (which, n_samples, seed)


@pytest.mark.parametrize("which", ["kernel-small-t", "dkernel-small-t",
                                   "dkernel-large-t"])
def test_pruned_bisection_matches_full_passes_on_synthetic_pieces(
        which, std1, monkeypatch):
    gen = np.random.default_rng(12)
    p, m = 400, 48
    ts = (np.geomspace(1.0, 50.0, m) if which == "dkernel-large-t"
          else np.geomspace(1e-6, 1.0, m))
    rates, outcomes = set(), set()
    for trial in range(12):
        # b grows along the sample, so that a large rate makes the prefix
        # maxima climb and the bisection has a rate to find
        a = 3.0 * gen.standard_normal((p, m))
        b = np.abs(gen.standard_normal((p, m))) \
            * np.linspace(1.0, 60.0, p)[:, None]
        dnorm = np.abs(gen.standard_normal((p, m)))
        dnorm[gen.random((p, m)) < 0.05] = 0.0
        for arr in (a, b) + ((dnorm,) if trial % 3 == 2 else ()):
            for bad in (np.nan, np.inf, -np.inf):
                arr[gen.random((p, m)) < 0.01] = bad
        a[gen.integers(p, size=5)] = -np.inf       # rows with no finite value
        if trial % 4 == 0:
            a[:p // 4] = -np.inf                    # an empty first quarter
        if trial % 2:
            # a maximum that no rate moves: ties must not prune it
            r = int(gen.integers(p // 4, p))
            a[r, 7], b[r, 7], dnorm[r, 7] = 9.0 + trial, 0.0, 0.0
        pieces = (a, b, None if "small" in which else dnorm)
        monkeypatch.setattr(kernel_mod, "_ratio_blocks",
                            lambda *args: _stream(*pieces, args[-1]))
        with np.errstate(invalid="ignore", over="ignore"):
            cal = calibrate_bound(std1, which, n_samples=p)
            want = frozen_bisection(which, *pieces, ts, natural_rate(std1))
            assert (cal.exponent_rate, cal.prefactor_cap, cal.stable) == want
            rates.add(want[0])
            for c in (0.02, 0.3, 4.0):
                want = frozen_explicit_rate(which, *pieces, ts, c)
                outcomes.add(want is None)
                if want is None:
                    with pytest.raises(RateTooLargeError):
                        calibrate_bound(std1, which, n_samples=p, c=c)
                    continue
                cal = calibrate_bound(std1, which, n_samples=p, c=c)
                assert (cal.exponent_rate, cal.prefactor_cap,
                        cal.stable) == want
    assert len(rates) > 2
    assert outcomes == {True, False}


def frozen_tail_integral(model, n_samples, seed, t_max):
    """_calibrate_tail_integral as it was with a separate half-sample
    log-kernel pass."""
    gen = substream(seed, 1)
    n = model.n
    m = min(n_samples, 2000)
    x = gen.standard_normal((m, n)) * 2.0
    u = gen.standard_normal((m, n)) * 2.0
    rate = admissible_rate(model, "dkernel-large-t")

    def tv_over_e_r(grid_size, upto):
        grid = np.geomspace(1.0, t_max, grid_size)
        pr = propagators(model, grid)
        lk = log_kernel_grid(model, pr, x[:upto], u[:upto])
        k = np.exp(lk)
        return float(np.abs(np.diff(k, axis=1)).sum(axis=1).max())

    r_half = tv_over_e_r(1024, m // 2)
    r_full = tv_over_e_r(1024, m)
    r_fine = tv_over_e_r(2048, m)
    stable = (r_full <= 1.1 * r_half) and (r_fine <= 1.1 * r_full)
    mr = max(r_full, r_fine)
    return BoundCalibration(which="tail-integral", exponent_rate=rate,
                            prefactor_cap=mr, stable=stable)


@pytest.mark.parametrize("name", ["standard1", "general2"])
def test_tail_integral_unchanged_by_half_sample_reuse(name, std1):
    model = std1 if name == "standard1" else build_model(*GENERAL2)
    for n_samples, seed in ((1000, 0), (777, 4)):
        got = _calibrate_tail_integral(model, n_samples, seed)
        want = frozen_tail_integral(model, n_samples, seed, 50.0)
        assert got == want


def test_probe_modules_load_without_scipy_stats_or_integrate():
    # the package needs no scipy.stats or scipy.integrate, and imports the
    # expm fallbacks' scipy.linalg and the Gaussian chain's scipy.special
    # on first use, so the probe path never pays for them
    import os
    import subprocess
    import sys

    import oulab
    src = os.path.dirname(os.path.dirname(os.path.abspath(oulab.__file__)))
    code = ("import sys, oulab.semigroup, oulab.kernel, oulab.torus\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate',"
            " 'scipy.linalg', 'scipy.special') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _peak_mib(f, *args) -> float:
    import tracemalloc
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_block_reductions_keep_no_full_grid():
    # the zero counts and the tail integral reduce each block of whole rows
    # as it is evaluated (they peaked at 138 and 125 MiB with full grids)
    g2 = build_model(*GENERAL2)
    X, U = _far_pairs(g2, 1, 400)
    assert _peak_mib(count_kdot_zeros_batch, g2, X, U, (1e-8, 1.0),
                     4096) < 16
    assert _peak_mib(_calibrate_tail_integral, g2, 10_000, 0) < 16


@pytest.mark.parametrize("which", BOUND_NAMES[:3])
def test_streamed_calibration_keeps_no_full_grid(which):
    # the bisected calibrations score their pieces block by block and keep
    # only the cells that can still set a prefix maximum; the (pairs,
    # times) pieces and their einsum temporaries peaked at 19, 33 and 37 MiB
    with np.errstate(over="ignore"):            # exp of an infinite cap
        assert _peak_mib(calibrate_bound, build_model(*GENERAL2), which) <= 8
