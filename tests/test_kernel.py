import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.stats import multivariate_normal

from oulab import (
    admissible_rate,
    build_model,
    calibrate_bound,
    count_kdot_zeros,
    count_kdot_zeros_batch,
    local_weight,
    natural_rate,
    quadratic_r,
    standard_model,
)
from oulab.kernel import (BOUND_NAMES, T_SWITCH, BoundCalibration,
                          _calibrate_tail_integral, _flip_counts,
                          _sign_changes, _sign_tol, kdot_polynomial,
                          kernel_forms, log_kernel_grid, log_kernel_pairs,
                          logk_time_slope_grid, real_roots,
                          time_critical_cubic)
import oulab.kernel as kernel_mod
from oulab.model import commensurate_rates, propagators
from oulab.rng import substream
from oulab.semigroup import _eta_kernel_paths
from oulab.errors import (
    ArgumentRangeError,
    BadOrderError,
    NonPositiveTimeError,
    NumericalOverflowError,
    RateTooLargeError,
    SingularPropagatorError,
)
from test_bernstein import poly_counts
from reference_routes import (bound_maximisers, calibration_pairs,
                              covariance_qt, gamma_density, group_dt,
                              kernel,
                              kernel_dt_raw, log_kernel_grid_allocating,
                              log_kernel_grid_einsum,
                              log_kernel_pairs_allocating,
                              sampled_log_ratio, slope_grid_allocating,
                              poly_counts_companion, slope_lyapunov,
                              slope_zeros_bisected,
                              sympy_slope_numerator, tail_integral_mpmath,
                              tail_tv_allocating)


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


def test_kernel_rejects_nonpositive_time(std1):
    with pytest.raises(NonPositiveTimeError):
        log_kernel_pairs(std1, np.array([0.0]), np.array([0.0]),
                         np.array([0.0]))


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


def test_a_cancelled_small_time_form_is_an_error_that_names_its_time():
    # from t = 0.0234 the stiff entries of Qt^-1 and Qinf^-1 agree to every
    # digit, so A = Qt^-1 - Qinf^-1 is only semidefinite while D_t x grows
    # like e^{800 t}: log K read 32.2287109445 at t = 0.5, where scipy's
    # densities give 0.2287109445, and nan at t = 0.9
    model = build_model(np.eye(2), np.diag([-1.0, -800.0]))
    x, u = np.array([0.3, 0.2]), np.array([0.1, 0.4])
    for t in (0.5, 0.9):
        with pytest.raises(NumericalOverflowError,
                           match=rf"definite in floating point at t = {t}\b"):
            log_kernel_pairs(model, [t], x, u)
    # the first such time is the one named
    with pytest.raises(NumericalOverflowError, match=r"at t = 0.03\b"):
        kernel_forms(model, propagators(model, [0.01, 0.03, 0.5, 3.0]))
    # at t = 1 e^(tB) itself is singular, which is named first
    with pytest.raises(SingularPropagatorError, match=r"at t = 1\b"):
        log_kernel_pairs(model, [1.0], x, u)
    # below 0.0234, and above T_SWITCH, the forms build
    lk = log_kernel_pairs(model, [0.01, 3.0], x, u)
    want = [np.log(gamma_density(model, t, u - scipy.linalg.expm(
        t * model.B) @ x) / gamma_density(model, np.inf, u))
            for t in (0.01, 3.0)]
    assert lk == pytest.approx(want, rel=1e-6)


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


def slope_path(model, ts, x, u):
    """(slope, rounding floor) of d/dt log K_t(x, u) for one pair along the
    times ts, (m,) each: the one row of the grid route."""
    slope, floor = logk_time_slope_grid(
        model, propagators(model, np.atleast_1d(ts)), x, u)
    return slope[0], floor[0]


def kernel_dt(model, t, x, u):
    """(dK/dt, rounding floor) as K times the analytic log slope."""
    slope, floor = slope_path(model, float(t), x, u)
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
        got, floor = slope_path(model, ts, x, u)
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
            got, _ = slope_path(model, ts, x, u)
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
        got, floor = slope_path(model, ts, x, u)
        # the first two use the direct form, the last the resolvent form
        assert abs(got[2] - got[1]) <= 4 * (floor[1] + floor[2])
        assert abs(got[1] - got[0]) <= 4 * (floor[0] + floor[1])
        assert got[2] == pytest.approx(got[1], rel=1e-12, abs=1e-13)


def test_log_kernel_grid_and_pair_routes_agree_bit_for_bit(model_factory,
                                                           monkeypatch):
    # ragged evaluation blocks on the grid route
    monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", 77)
    for n in (1, 2, 3):
        model = model_factory(7, n)
        gen = np.random.default_rng(n)
        ts = np.concatenate([np.geomspace(1e-8, 30.0, 37), [T_SWITCH]])
        X = 2.0 * gen.standard_normal((300, n))
        U = 2.0 * gen.standard_normal((300, n))
        lk = log_kernel_grid(model, propagators(model, ts), X, U)
        tt = np.tile(ts, X.shape[0])
        XX, UU = np.repeat(X, ts.size, axis=0), np.repeat(U, ts.size, axis=0)
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


NONNORMAL3 = ([[1.0, 0.3, 0.1], [0.3, 0.5, 0.0], [0.1, 0.0, 0.8]],
              [[-1.0, 2.0, 0.3], [0.0, -0.5, 0.4], [0.2, 0.0, -0.7]])


def _bits_model(name, model_factory):
    return {"standard1": lambda: standard_model(1),
            "general2": lambda: build_model(*GENERAL2),
            "rotating2": lambda: build_model(*ROTATING2),
            "random2": lambda: model_factory(23, 2),
            "random3": lambda: model_factory(23, 3),
            "nonnormal3": lambda: build_model(*NONNORMAL3)}[name]()


@pytest.mark.parametrize("name", ["standard1", "general2", "random2",
                                  "random3", "nonnormal3"])
def test_in_place_evaluators_keep_the_allocating_bits(name, model_factory,
                                                      monkeypatch):
    # the in-place sums against frozen copies of the evaluators that
    # allocated every product and sum: on a sorted grid that straddles
    # T_SWITCH with t = 1.0 exactly (which skips the identity factors), on
    # the same times shuffled, and on blocks of one row, of a few rows
    # with a ragged last block, and of the default size
    model = _bits_model(name, model_factory)
    n = model.n
    gen = np.random.default_rng(21)
    X = 2.0 * gen.standard_normal((90, n))
    U = 2.0 * gen.standard_normal((90, n))
    X[0] = 0.0
    ts = np.concatenate([np.geomspace(1e-6, T_SWITCH, 30),
                         np.geomspace(T_SWITCH, 30.0, 20)[1:]])
    assert np.count_nonzero(ts == 1.0) == 1
    m = ts.size
    for cells in (m, 7 * m + 3, kernel_mod._BLOCK_CELLS):
        monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", cells)
        for grid in (ts, gen.permutation(ts)):
            props = propagators(model, grid)
            assert np.array_equal(log_kernel_grid(model, props, X, U),
                                  log_kernel_grid_allocating(model, props,
                                                             X, U))
            got = logk_time_slope_grid(model, props, X, U)
            want = slope_grid_allocating(model, props, X, U)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
    # one unsorted time per pair, 1.0 among them; one point at every time
    tp = 10.0 ** gen.uniform(-6.0, 1.4, X.shape[0])
    tp[5] = 1.0
    assert np.array_equal(log_kernel_pairs(model, tp, X, U),
                          log_kernel_pairs_allocating(model, tp, X, U))
    assert np.array_equal(log_kernel_pairs(model, tp, X[3], U),
                          log_kernel_pairs_allocating(model, tp, X[3], U))


@pytest.mark.parametrize("name", ["random2", "rotating2", "random3"])
def test_tail_integral_keeps_the_allocating_bits(name, model_factory,
                                                 monkeypatch):
    # the in-place total variation against the allocating one, on blocks
    # of the default size and on ragged blocks of three rows, on models
    # without a commensurate spectrum: the grid route's only users
    model = _bits_model(name, model_factory)
    assert commensurate_rates(model) is None
    n_samples, seed = 300, 3
    gen = substream(seed, 1)
    x = gen.standard_normal((n_samples, model.n)) * 2.0
    u = gen.standard_normal((n_samples, model.n)) * 2.0
    tv = tail_tv_allocating(model, np.geomspace(1.0, 50.0, 1024), x, u)
    fine = tail_tv_allocating(model, np.geomspace(1.0, 50.0, 2048), x,
                              u).max()
    for cells in (kernel_mod._BLOCK_CELLS, 3 * 2048 + 5):
        monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", cells)
        cal = _calibrate_tail_integral(model, n_samples, seed)
        assert cal.prefactor_cap == max(tv.max(), fine)
        assert cal.stable == (tv.max() <= 1.1 * tv[:n_samples // 2].max()
                              and fine <= 1.1 * tv.max())


def _far_pairs(model, seed, count):
    gen = substream(seed, 77)
    x = 2.0 * gen.standard_normal((8 * count, model.n))
    u = 2.0 * gen.standard_normal((8 * count, model.n))
    keep = np.abs(quadratic_r(model, u) - quadratic_r(model, x)) >= 4.0
    assert keep.sum() >= count
    return x[keep][:count], u[keep][:count]


GENERAL2 = ([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 2.0], [0.0, -0.5]])
# a drift with complex eigenvalues -1 +- i/2: no commensurate real
# spectrum, so every zero count on it takes the scan
ROTATING2 = ([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 0.5], [-0.5, -1.0]])


@pytest.mark.parametrize("which", ["general2", "random3"])
def test_zero_counts_match_frozen_finite_difference(which, model_factory):
    model = (build_model(*GENERAL2) if which == "general2"
             else model_factory(11, 3))
    X, U = _far_pairs(model, 5, 400)
    counts, stable = count_kdot_zeros_batch(model, X, U)
    grid = np.geomspace(1e-8, 1.0, 4096)
    slope, err = fd_grid_slope(model, grid, X, U)
    rows, _, _ = _sign_changes(slope, _sign_tol(err))
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
        rows, left, right = _sign_changes(slope, _sign_tol(floor))
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
    rows, left, right = _sign_changes(slope, _sign_tol(floor))
    counts = np.bincount(rows, minlength=X.shape[0])
    lo, hi = grid[left], grid[right]
    left_sign = np.sign(slope[rows, left])
    while np.max(hi - lo, initial=0.0) > 1e-10:
        mid = 0.5 * (lo + hi)
        # bracket k's slope at its own midpoint: the diagonal of the grid
        sm, _ = logk_time_slope_grid(model, propagators(model, mid), X[rows],
                                     U[rows])
        same = np.sign(np.diagonal(sm)) == left_sign
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
        rows, _, _ = _sign_changes(slope, _sign_tol(floor))
        got = _flip_counts(slope, _sign_tol(floor))
        assert np.array_equal(got, np.bincount(rows, minlength=p))


@pytest.mark.filterwarnings("error")
def test_nan_slope_counts_as_no_sign():
    # a NaN between opposite signs flips as a 0 there does
    slope = np.array([[1.0, 0.0, -1.0, 2.0, 0.0, 3.0, -2.0],
                      [0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    floor = np.zeros_like(slope)
    nan = np.where(slope == 0.0, np.nan, slope)
    want = _sign_changes(slope, _sign_tol(floor))
    got = _sign_changes(nan, _sign_tol(floor))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(_flip_counts(nan, _sign_tol(floor)), [3, 1])
    assert np.array_equal(_flip_counts(slope, _sign_tol(floor)), [3, 1])


def _within_floor_pairs(model, grid, k):
    """Pairs (0, u) whose slope is zero, to rounding, at the grid times k:
    at x = 0 the slope is h0 + <Q C u, C u>/2 (_slope_factors), so u is
    the multiple of e_1 that cancels h0 < 0."""
    C, _, h0, _ = kernel_mod._slope_factors(model,
                                            propagators(model, grid[k]))
    cu = C[:, 0, :]                                    # C e_1, (n, times)
    scale = np.sqrt(-2.0 * h0 / np.einsum("im,ij,jm->m", cu, model.Q, cu))
    u = np.zeros((k.size, model.n))
    u[:, 0] = scale
    return np.zeros_like(u), u


@pytest.mark.parametrize("n_scan", [4096, 10_000])
def test_zero_counts_match_frozen_sign_change_route(n_scan, monkeypatch):
    # pinned on a model without a commensurate spectrum, where the scan is
    # the route; commensurate models are compared with the scan below
    rot = build_model(*ROTATING2)
    grid = np.geomspace(1e-8, 1.0, n_scan)
    X0, U0 = _within_floor_pairs(rot, grid, np.array([5, 999, 2000, 3001]))
    slope, floor = logk_time_slope_grid(rot, propagators(rot, grid), X0, U0)
    assert (np.abs(slope) <= np.maximum(1e-13, 4.0 * floor)).any(axis=1).all()
    gen = np.random.default_rng(n_scan)
    X1, U1 = gen.normal(0.0, 2.0, (36, 2)), gen.normal(0.0, 2.0, (36, 2))
    X, U = np.vstack([X0, X1]), np.vstack([U0, U1])
    want, _ = frozen_count_zeros_once(rot, X, U, 1e-8, 1.0, n_scan)
    want2, _ = frozen_count_zeros_once(rot, X, U, 1e-8, 1.0, 2 * n_scan)
    assert want.max() >= 1
    for cells in (1 << 15, 3 * n_scan + 5):      # one and several rows
        monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", cells)
        counts, stable = count_kdot_zeros_batch(rot, X, U, n_scan=n_scan)
        assert np.array_equal(counts, want)
        assert np.array_equal(stable, want == want2)
    X, U = _far_pairs(rot, 3, 60)
    want, _ = frozen_count_zeros_once(rot, X, U, 1e-8, 1.0, n_scan)
    want2, _ = frozen_count_zeros_once(rot, X, U, 1e-8, 1.0, 2 * n_scan)
    counts, stable = count_kdot_zeros_batch(rot, X, U, n_scan=n_scan)
    assert np.array_equal(counts, want)
    assert np.array_equal(stable, want == want2)
    assert counts.max() >= 1
    for x, u in [*zip(X0, U0), *zip(X[:3], U[:3])]:
        zc = count_kdot_zeros(rot, x, u, n_scan=n_scan)
        count, zeros = frozen_count_zeros_once(rot, x[None], u[None],
                                               1e-8, 1.0, n_scan)
        assert zc.route == "scan" and zc.degree is None
        assert zc.count == count[0]
        assert np.array_equal(zc.zeros, np.sort(zeros))


# ---------------------------------------------------------------------------
# space derivative identity


def space_derivative_residual(model, t, x, u, ell, fd_step=1e-6):
    """Relative residual of d/du_ell K_t = -K_t <Qt^-1 e^{tB} (D_{-t} u - x),
    e_ell> at coordinate ell (0-based), the derivative by central
    differences and the right side from the propagator stack, with
    D_{-t} from scipy's matrix exponential (group_dt)."""
    pr = propagators(model, np.array([float(t)]))
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    v = group_dt(model, -t) @ u - x
    rl = (pr.Qt_inv[0] @ (pr.exp_tB[0] @ v))[ell]
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


def test_single_pair_count_scans_the_coarse_grid_once(monkeypatch):
    # one slope evaluation on the coarse grid gives the count and the
    # brackets, one on the doubled grid the stability; the batch route
    # on the one pair agrees.  Pinned on a model that takes the scan
    rot = build_model(*ROTATING2)
    x, u, n_scan = np.array([1.0, 0.5]), np.array([2.0, 1.0]), 512
    sizes = []
    real = kernel_mod.propagators

    def spy(model, ts):
        sizes.append(np.size(ts))
        return real(model, ts)

    monkeypatch.setattr(kernel_mod, "propagators", spy)
    zc = count_kdot_zeros(rot, x, u, n_scan=n_scan)
    assert sizes.count(n_scan) == 1 and sizes.count(2 * n_scan) == 1
    counts, stable = count_kdot_zeros_batch(rot, x[None], u[None],
                                            n_scan=n_scan)
    assert zc.count == counts[0] and zc.stable == stable[0]
    assert zc.count == zc.zeros.size == 1


def test_zero_count_interval_validation(std1):
    with pytest.raises(NonPositiveTimeError):
        count_kdot_zeros(std1, np.array([0.0]), np.array([1.0]),
                         t_interval=(0.0, 1.0))
    with pytest.raises(NonPositiveTimeError):
        count_kdot_zeros_batch(std1, np.array([[0.0]]), np.array([[1.0]]),
                               t_interval=(0.0, 1.0))


# ---------------------------------------------------------------------------
# the exact route: zero counts from the slope polynomial on commensurate
# spectra

# eigenvalues -1 and -2: b = 1, k = (1, 2)
K12 = ([[1.0, 0.2], [0.2, 0.7]], [[-1.0, 0.7], [0.0, -2.0]])
# eigenvalues -1, -2/3 and -1/3: b = 1/3, k = (3, 2, 1)
K321 = (0.1 * np.ones((3, 3)) + np.diag([1.0, 0.75, 0.5]),
        [[-1.0, 0.5, 0.3], [0.0, -2.0 / 3.0, 0.4], [0.0, 0.0, -1.0 / 3.0]])
INTERVALS = [(1e-8, 1.0), (1e-3, 5.0), (0.5, 20.0), (1.0, 50.0)]


def _named_model(name):
    if name.startswith("standard"):
        return standard_model(int(name[-1]))
    return build_model(*{"general2": GENERAL2, "k12": K12, "k321": K321,
                         "rotating2": ROTATING2}[name])


@pytest.mark.parametrize("name,b,k,degree", [
    ("standard1", 1.0, [1], 3), ("standard2", 1.0, [1, 1], 5),
    ("standard3", 1.0, [1, 1, 1], 7), ("general2", 0.5, [2, 1], 9),
    ("k12", 1.0, [1, 2], 9)])
def test_commensurate_models_take_the_polynomial(name, b, k, degree):
    # degree 4 sum k - 2n + 1, with a nonzero leading coefficient
    model = _named_model(name)
    rates = commensurate_rates(model)
    assert rates[0] == pytest.approx(b, rel=1e-14)
    assert sorted(rates[1].tolist()) == sorted(k)
    assert -rates[0] * rates[1] == pytest.approx(model.eig_vals, rel=1e-14)
    coef, mag = kdot_polynomial(model, np.ones((3, model.n)),
                                np.zeros((3, model.n)))
    assert coef.shape == mag.shape == (3, degree + 1)
    assert (coef[:, -1] != 0).all() and (mag >= np.abs(coef)).all()
    zc = count_kdot_zeros(model, np.full(model.n, 1.0),
                          np.full(model.n, 2.0))
    assert (zc.route, zc.degree, zc.stable) == ("polynomial", degree, True)


@pytest.mark.parametrize("name", ["standard1", "standard2", "standard3",
                                  "general2", "k12"])
def test_polynomial_counts_match_the_scan(name, monkeypatch):
    # 500 pairs on each of four intervals, 2,000 a model: the exact counts
    # equal the scan's, which is stable on every one of these pairs
    model = _named_model(name)
    gen = np.random.default_rng(41)
    for t_interval in INTERVALS:
        X = 2.0 * gen.standard_normal((500, model.n))
        U = 2.0 * gen.standard_normal((500, model.n))
        exact, stable = count_kdot_zeros_batch(model, X, U, t_interval)
        assert stable.all()
        with monkeypatch.context() as m:
            m.setattr(kernel_mod, "commensurate_rates", lambda model: None)
            scan, scan_stable = count_kdot_zeros_batch(model, X, U,
                                                       t_interval)
        assert scan_stable.all()
        assert np.array_equal(exact, scan), t_interval
        assert exact.max() >= 1


@pytest.mark.parametrize("B,degree", [
    ([[-1.0, 0.7], [0.0, -1.0 / 3.0]], 13),
    ([[-0.5, 0.7], [0.0, -1.0 / 3.0]], 17),
    ([[-1.0, 0.5, 0.3], [0.0, -2.0 / 3.0, 0.4], [0.0, 0.0, -1.0 / 3.0]], 19)])
def test_polynomial_counts_match_the_scan_up_to_the_cap(B, degree,
                                                        monkeypatch):
    # k = (3, 1), (3, 2) and (3, 2, 1): the largest multiples routed
    n = len(B)
    Q = 0.1 * np.ones((n, n)) + np.diag(np.linspace(1.0, 0.5, n))
    model = build_model(Q, B)
    gen = np.random.default_rng(5)
    X, U = 2.0 * gen.standard_normal((2, 200, n))
    for t_interval in INTERVALS[:2]:
        exact, _ = count_kdot_zeros_batch(model, X, U, t_interval)
        with monkeypatch.context() as m:
            m.setattr(kernel_mod, "commensurate_rates", lambda model: None)
            scan, stable = count_kdot_zeros_batch(model, X, U, t_interval)
        assert stable.all() and np.array_equal(exact, scan)
    assert count_kdot_zeros(model, X[0], U[0]).degree == degree


def test_general2_coefficients_match_sympy():
    sp = pytest.importorskip("sympy")
    half, tenth = sp.Rational(1, 2), sp.Rational(1, 10)
    Q, B = [[1, 3 * tenth], [3 * tenth, half]], [[-1, 2], [0, -half]]
    for x, u in (([3 * half, -half], [half / 2, 2]), ([0, 1], [2, -1])):
        want = np.array([float(c) for c in
                         sympy_slope_numerator(Q, B, x, u)])
        got, _ = kdot_polynomial(build_model(*GENERAL2),
                                 np.array(x, dtype=float),
                                 np.array(u, dtype=float))
        got = got[0, ::-1]
        assert got.size == want.size == 10
        # equal up to the constant det(V)^4 of the eigenvector coordinates
        assert np.abs(got / got[0] - want / want[0]).max() \
            <= 1e-12 * np.abs(want / want[0]).max()


_EIGS = [-1, (-1, 2), (-1, 3)]
_QUARTERS = st.integers(-8, 8).map(lambda k: (k, 4))


@settings(max_examples=6, deadline=None)
@given(l1=st.sampled_from(_EIGS), l2=st.sampled_from(_EIGS),
       c=_QUARTERS, q=st.tuples(st.integers(2, 8), st.integers(-3, 3),
                                st.integers(2, 8)),
       x=st.tuples(_QUARTERS, _QUARTERS), u=st.tuples(_QUARTERS, _QUARTERS))
def test_drawn_triangular_coefficients_match_sympy(l1, l2, c, q, x, u):
    # eigenvalues in {-1, -1/2, -1/3}: k up to 3, degree up to 17
    sp = pytest.importorskip("sympy")
    rat = (lambda v: sp.Rational(*v) if isinstance(v, tuple)
           else sp.Integer(v))
    l1, l2, c = rat(l1), rat(l2), rat(c)
    assume(q[0] * q[2] > q[1] ** 2)
    if l1 == l2:
        c = sp.Integer(0)              # a nonzero corner would be defective
    Q = [[sp.Rational(q[0], 4), sp.Rational(q[1], 4)],
         [sp.Rational(q[1], 4), sp.Rational(q[2], 4)]]
    B = [[l1, c], [0, l2]]
    x, u = [rat(v) for v in x], [rat(v) for v in u]
    assume(x != u)
    model = build_model(np.array(Q, dtype=float), np.array(B, dtype=float))
    assert commensurate_rates(model) is not None
    want = np.array([float(v) for v in sympy_slope_numerator(Q, B, x, u)])
    got, _ = kdot_polynomial(model, np.array(x, dtype=float),
                             np.array(u, dtype=float))
    got = got[0, ::-1]
    assert got.size == want.size
    assert np.abs(got / got[0] - want / want[0]).max() \
        <= 1e-11 * np.abs(want / want[0]).max()


@pytest.mark.parametrize("name", ["standard1", "standard2", "general2",
                                  "k12"])
def test_polynomial_zeros_match_bisection(name):
    # each zero, bisected on tau's last bit, against a bisection of the
    # slope itself in log t to 1e-13
    model = _named_model(name)
    gen = np.random.default_rng(7)
    seen = 0
    for t_interval in INTERVALS[:2]:
        for _ in range(12):
            x, u = 2.0 * gen.standard_normal((2, model.n))
            zc = count_kdot_zeros(model, x, u, t_interval)
            want = slope_zeros_bisected(model, x, u, t_interval)
            assert zc.count == zc.zeros.size == want.size
            assert zc.zeros == pytest.approx(want, rel=1e-9)
            seen += zc.count
    assert seen >= 5


def test_zeros_closer_than_a_scan_step_count_two(std1):
    # at x = -0.28 two zeros near t = 0.9097 merge as u rises to
    # 0.5565278936305966 (bisected on the count); 1e-9 below it they are
    # 1.3e-4 apart relative, a thirtieth of the 4,096-time scan's step on
    # (1e-8, 1], a factor of 1.0045
    x, u = np.array([-0.28]), np.array([0.5565278936305966 - 1e-9])
    zc = count_kdot_zeros(std1, x, u)
    assert zc.count == 2 and zc.stable
    t1, t2 = zc.zeros
    step = (1.0 / 1e-8) ** (1.0 / 4095)
    assert 1.0 < t2 / t1 < 1.0 + 0.05 * (step - 1.0)
    # the slope itself: one sign outside the pair, the other between
    ts = np.array([t1 / step, np.sqrt(t1 * t2), t2 * step])
    slope, floor = logk_time_slope_grid(std1, propagators(std1, ts), x[None],
                                        u[None])
    assert (np.abs(slope) > 4.0 * floor).all()
    assert np.sign(slope[0, 0]) == np.sign(slope[0, 2]) != np.sign(
        slope[0, 1])
    assert zc.zeros == pytest.approx(
        slope_zeros_bisected(std1, x, u, (0.9, 0.92), n_grid=1 << 16),
        rel=1e-9)


@pytest.mark.parametrize("t_star", [1e-9, 1e-12])
def test_zero_below_1e8_with_a_lowered_t_lo(t_star, std1):
    # at x = 0 the slope of standard1 vanishes where 1 - e^{-2t} = u^2
    x, u = np.array([0.0]), np.array([np.sqrt(-np.expm1(-2.0 * t_star))])
    assert count_kdot_zeros(std1, x, u).count == 0
    zc = count_kdot_zeros(std1, x, u, t_interval=(0.1 * t_star, 1.0))
    assert zc.count == 1
    assert zc.zeros[0] == pytest.approx(t_star, rel=1e-9)
    counts, _ = count_kdot_zeros_batch(std1, x[None], u[None],
                                       t_interval=(0.1 * t_star, 1.0))
    assert counts[0] == 1


def test_general2_zero_below_1e8(monkeypatch):
    # a pair (0, u) whose slope vanishes at t = 3e-9, from the slope's
    # factors there; the scan on a lowered interval agrees
    g2 = build_model(*GENERAL2)
    X, U = _within_floor_pairs(g2, np.array([3e-9]), np.array([0]))
    zc = count_kdot_zeros(g2, X[0], U[0], t_interval=(1e-9, 1e-8))
    assert zc.count == 1
    assert zc.zeros[0] == pytest.approx(3e-9, rel=1e-6)
    monkeypatch.setattr(kernel_mod, "commensurate_rates", lambda model: None)
    scan = count_kdot_zeros(g2, X[0], U[0], t_interval=(1e-9, 1e-8))
    assert scan.count == 1
    assert scan.zeros[0] == pytest.approx(zc.zeros[0], rel=1e-6)


def test_polynomial_signs_count_simple_roots_and_no_tangency():
    # (tau - 0.2)(tau - 0.3)(tau - 0.5) and (tau - 0.25)^2 (tau - 0.5),
    # lowest power first: two zeros on [0.1, 0.4], and a tangency that
    # flips no sign; it is exact in floating point, so no halving decides
    # it and its row is not stable
    assert poly_counts([-0.03, 0.31, -1.0, 1.0], 0.1, 0.4) == (2, True)
    assert poly_counts([-0.03125, 0.3125, -1.0, 1.0], 0.1, 0.4) == (0, False)
    assert poly_counts([-0.03125, 0.3125, -1.0, 1.0], 0.1, 0.6) == (1, False)


def test_merging_kernel_zeros_are_a_bracket_not_a_silent_zero(std1):
    # standard1 at x = -0.28, where two zeros merge as u rises to
    # 0.5565278936305966 (test_zeros_closer_than_a_scan_step_count_two):
    # 1e-13 below it they are within N's rounding, and the count of 0 is
    # not stable; 1e-12 below it they are 3.8e-6 apart and certified
    x = np.array([-0.28])
    zc = count_kdot_zeros(std1, x, np.array([0.5565278936305966 - 1e-13]))
    assert (zc.count, zc.stable) == (0, False)
    zc = count_kdot_zeros(std1, x, np.array([0.5565278936305966 - 1e-12]))
    assert (zc.count, zc.stable) == (2, True)


@pytest.mark.parametrize("name", ["standard1", "standard2", "standard3",
                                  "general2", "k12", "k321"])
def test_isolator_counts_match_the_companion_route(name):
    # 2,000 pairs on each of the four INTERVALS: equal counts, every
    # one certified
    model = _named_model(name)
    rates = commensurate_rates(model)
    gen = np.random.default_rng(43)
    for t_interval in INTERVALS:
        X, U = 2.0 * gen.standard_normal((2, 2000, model.n))
        counts, stable = count_kdot_zeros_batch(model, X, U, t_interval)
        coef, mag = kdot_polynomial(model, X, U)
        lo, hi = -np.expm1(-rates[0] * np.asarray(t_interval))
        assert stable.all(), t_interval
        assert np.array_equal(counts, poly_counts_companion(coef, mag, lo,
                                                            hi)), t_interval


@pytest.mark.parametrize("model,x,u,t_interval,t_star,rel", [
    (([[1.0, 0.2], [0.2, 0.7]], [[-2.0, 0.7], [0.0, -3.0]]),
     [2.3016083709249893, -3.326782903180051],
     [0.9446023965398073, 2.36540871317514], (0.5, 20.0),
     8.47510607152277, 1e-6),
    (([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 0.5], [0.0, -1.5]]),
     [-2.0989380197685366, 2.0994900508560024],
     [-1.1187433381668508, -1.3924479310635764], (1.0, 50.0),
     23.6825444951595, 2e-5)])
def test_late_zeros_on_a_slowest_rate_above_b_are_counted(model, x, u,
                                                          t_interval,
                                                          t_star, rel):
    # k = (2, 3): N vanishes at tau = 1, and these zeros lie where N is
    # within its rounding bound; with 1 - tau divided out they are
    # certified.  t_star is the sign change of a 60-digit slope
    model = build_model(*model)
    assert min(commensurate_rates(model)[1]) == 2
    zc = count_kdot_zeros(model, np.array(x), np.array(u), t_interval)
    assert (zc.count, zc.stable) == (1, True)
    assert zc.zeros[0] == pytest.approx(t_star, rel=rel)


def test_no_route_needs_eigenvalues(monkeypatch):
    # the zero counts and the kernel-bounds probe on general2 run with
    # numpy's general eigenvalue solver gone, once the model is built
    def refuse(*args, **kwargs):
        raise AssertionError("eigvals called")

    g2 = build_model(*GENERAL2)
    X, U = 2.0 * np.random.default_rng(2).standard_normal((2, 200, 2))
    want = count_kdot_zeros_batch(g2, X, U)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    got = count_kdot_zeros_batch(g2, X, U)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    report = kernel_mod.kernel_bounds_probe(g2, n_samples=400)
    assert report.pass_flags["tail-integral/finite"]


@pytest.mark.parametrize("t_interval", [(1e-8, 1.0), (1.0, 50.0)])
def test_single_pair_zeros_match_the_batch_locator(t_interval):
    # kdot_polynomial's product rounds a lone pair apart from the same pair
    # in a batch (297 of these 300 pairs get other coefficients), so
    # count_kdot_zeros and the batched routes may place a zero a few ulps
    # of tau apart, with equal counts
    g2 = build_model(*GENERAL2)
    rates = commensurate_rates(g2)
    X, U = 2.0 * np.random.default_rng(3).standard_normal((2, 300, 2))
    pair, ts, stable = kernel_mod._kdot_zeros(g2, rates, X, U, t_interval)
    counts, batch_stable = count_kdot_zeros_batch(g2, X, U, t_interval)
    assert np.array_equal(np.bincount(pair, minlength=300), counts)
    assert np.array_equal(stable, batch_stable)
    assert counts.any()
    for i in range(300):
        zc = count_kdot_zeros(g2, X[i], U[i], t_interval)
        assert (zc.count, zc.stable) == (counts[i], stable[i])
        assert zc.zeros == pytest.approx(ts[pair == i], rel=1e-10, abs=0.0)


def test_blocked_isolation_keeps_its_bits_with_a_lone_last_pair(
        monkeypatch):
    # blocks of 7 pairs over 995 pairs leave one pair last, which the
    # block before it takes: alone, its coefficients would round apart.
    # That pair has a zero at t = 3.136
    g2 = build_model(*GENERAL2)
    rates = commensurate_rates(g2)
    X, U = 2.0 * np.random.default_rng(4).standard_normal((2, 995, 2))
    X[-1], U[-1] = (1.0, 2.0), (2.0, 3.0)
    want = kernel_mod._poly_route(g2, rates, X, U, (1.0, 50.0))
    monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", 7 * 10 + 3)
    got = kernel_mod._poly_route(g2, rates, X, U, (1.0, 50.0))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_non_finite_pairs_count_no_zero():
    # as on the scan, where a NaN slope has no sign
    g2 = build_model(*GENERAL2)
    counts, stable = count_kdot_zeros_batch(
        g2, np.array([[np.nan, 0.0], [1.0, 2.0]]),
        np.array([[1.0, 1.0], [2.0, 3.0]]))
    assert counts.tolist() == [0, 1] and stable.all()


@pytest.mark.parametrize("which, x, u", [
    ("standard1", [[1e200], [1.0]], [[1.0], [2.0]]),
    ("standard2", [[1e160, 0.0]], [[1.0, 0.0]])])
def test_finite_pairs_whose_slope_polynomial_overflows_are_not_stable(
        which, x, u):
    # isolate skips a row with a non-finite coefficient, so these pairs
    # read 0 sign changes; they were reported stable.  The overflow warns
    # nothing, as RuntimeWarnings fail the suite
    counts, stable = count_kdot_zeros_batch(standard_model(int(which[-1])),
                                            np.array(x), np.array(u))
    assert counts[0] == 0 and not stable[0]
    assert stable[1:].all()


@pytest.mark.parametrize("spec", [GENERAL2, ROTATING2],
                         ids=["polynomial", "scan"])
def test_an_empty_batch_counts_nothing_on_both_routes(spec):
    counts, stable = count_kdot_zeros_batch(build_model(*spec),
                                            np.zeros((0, 2)),
                                            np.zeros((0, 2)))
    assert counts.shape == stable.shape == (0,)
    assert stable.dtype == bool


_REFUSED = {
    "complex spectrum": ROTATING2,
    "ratio 4 above the cap": ([[1.0, 0.3], [0.3, 0.5]],
                              [[-1.0, 0.5], [0.0, -0.25]]),
    "ratio not an integer": ([[1.0, 0.3], [0.3, 0.5]],
                             [[-1.0, 0.5], [0.0, -0.7]]),
    "ratio 1e-9 off an integer": ([[1.0, 0.3], [0.3, 0.5]],
                                  [[-1.0, 0.5], [0.0, -0.5 - 1e-9]]),
    "defective": ([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 1.0], [0.0, -1.0]]),
    "eigenvector condition 2e3": ([[1.0, 0.2], [0.2, 0.7]],
                                  [[-1.0, 1e3], [0.0, -2.0]]),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_refused_models_take_the_scan(case, monkeypatch):
    model = build_model(*_REFUSED[case])
    assert commensurate_rates(model) is None
    calls = []
    real = kernel_mod._scan_counts

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel_mod, "_scan_counts", spy)
    monkeypatch.setattr(kernel_mod, "kdot_polynomial", None)
    x, u = np.array([1.0, 0.5]), np.array([2.0, 1.0])
    zc = count_kdot_zeros(model, x, u, n_scan=64)
    assert (zc.route, zc.degree) == ("scan", None)
    count_kdot_zeros_batch(model, x[None], u[None], n_scan=64)
    assert len(calls) == 3


def test_unreliable_eigenvectors_take_the_scan():
    # eigenvectors that do not invert send e^(tB) to scipy's expm, and the
    # polynomial to the scan, whatever the spectrum
    g2 = build_model(*GENERAL2)
    assert commensurate_rates(dataclasses.replace(g2, eig_cond=np.inf)) is None


@pytest.mark.parametrize("name", ["general2", "rotating2"])
@pytest.mark.parametrize("t_interval,n_scan,error", [
    ((0.0, 1.0), 4096, NonPositiveTimeError),
    ((0.5, 0.5), 4096, NonPositiveTimeError),
    ((1.0, 0.5), 4096, NonPositiveTimeError),
    ((np.nan, 1.0), 4096, NonPositiveTimeError),
    ((1e-8, np.inf), 4096, NonPositiveTimeError),
    ((1e-8, 1.0), 1, ArgumentRangeError),
    ((1e-8, 1.0), 0, ArgumentRangeError)])
def test_both_routes_refuse_bad_intervals_alike(name, t_interval, n_scan,
                                                error):
    model = _named_model(name)
    x = np.ones(model.n)
    with pytest.raises(error):
        count_kdot_zeros(model, x, 2 * x, t_interval, n_scan)
    with pytest.raises(error):
        count_kdot_zeros_batch(model, x[None], 2 * x[None], t_interval,
                               n_scan)


def test_kdot_polynomial_refuses_a_model_without_commensurate_rates():
    with pytest.raises(ArgumentRangeError):
        kdot_polynomial(build_model(*ROTATING2), np.ones(2), np.zeros(2))


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

    for name in ("_log_caps", "_calibrate_tail_integral", "propagators"):
        monkeypatch.setattr(kernel_mod, name, no_work)
    for bad in ("no-such-bound", "all", "Kernel-small-t"):
        with pytest.raises(BadOrderError, match="unknown bound name"):
            calibrate_bound(std1, bad, n_samples=2000, c=0.05)
        with pytest.raises(BadOrderError, match="unknown bound name"):
            admissible_rate(std1, bad)


CALIBRATION_MODELS = ["standard1", "standard2", "standard3", "general2",
                      "random2", "random3"]


def _calibration_model(name, model_factory):
    return (standard_model(int(name[-1])) if name.startswith("standard")
            else build_model(*GENERAL2) if name == "general2"
            else model_factory(17, int(name[-1])))


def _bound_grid(which, m=48):
    """The time grid of a Gaussian bound's calibration."""
    return (np.geomspace(1.0, 50.0, m) if which == "dkernel-large-t"
            else np.geomspace(1e-6, 1.0, m))


def check_closed_form_caps(model, seed):
    """The closed-form caps of the three Gaussian bounds at their default
    rates against the package's own ratio (sampled_log_ratio): no sampled
    pair exceeds them, and at the maximisers of the closed form, derived
    anew, the ratio meets them within 2e-3 up to t = 10, with |x| up to
    1e6."""
    x, u = calibration_pairs(model, 2000, seed)
    for which in BOUND_NAMES[:3]:
        c = admissible_rate(model, which)
        ts = _bound_grid(which)
        caps = kernel_mod._log_caps(model, which, ts, c)
        assert np.isfinite(caps).all()
        sampled = sampled_log_ratio(model, which, x, u, ts, c)
        assert not np.isnan(sampled).any()
        assert np.all(sampled <= caps + 1e-9), which
        low = ts[ts <= 10.0]
        xs, us = bound_maximisers(model, which, low, c)
        m = low.size
        reach = sampled_log_ratio(model, which, xs.reshape(-1, model.n),
                                  us.reshape(-1, model.n), low, c)
        reach = reach.reshape(4, m, m)[:, np.arange(m), np.arange(m)]
        assert np.all(np.abs(reach.max(axis=0) - caps[:m]) <= 2e-3), which
    # kernel-small-t is the y = 0 value, from scipy's Qt on the grid
    ts = _bound_grid("kernel-small-t")
    logdet = np.array([np.linalg.slogdet(covariance_qt(model, t))[1]
                       for t in ts])
    want = np.exp(0.5 * (model.logdet_Qinf - logdet)
                  + 0.5 * model.n * np.log(ts)).max()
    got = calibrate_bound(model, "kernel-small-t").prefactor_cap
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", CALIBRATION_MODELS)
def test_closed_form_caps_bound_the_sampled_ratio(name, model_factory):
    check_closed_form_caps(_calibration_model(name, model_factory), seed=5)


@st.composite
def two_d_models(draw):
    """Stable 2-d models: Q with variances in [0.2, 3] and correlation up
    to 0.9; B a rotated [[-a1, e], [-w, -a2]], non-normal through e, whose
    eigenvalues have real parts in [-1.3, -0.3] (e w >= 0).  Two limits
    keep propagators' own rounding below the 1e-12 that the caps are
    checked to: e <= 1.5 keeps Qinf within a few hundred of Qt at t = 1,
    whose difference it forms there (at e = 3 and a1 = a2 = 0.25 log det
    Qt is off by 1e-12), and B's eigenvectors have a condition number of
    at most 1e3 (near-equal real eigenvalues with e or w > 0 reach 1e5
    and cost 3e-12 where e^{tB} came from them; above 16 it now comes
    from scipy)."""
    f = st.floats
    q1, q2 = draw(f(0.2, 3.0)), draw(f(0.2, 3.0))
    r = draw(f(-0.9, 0.9)) * np.sqrt(q1 * q2)
    a1, a2 = draw(f(0.3, 1.3)), draw(f(0.3, 1.3))
    e, w, th = draw(f(0.0, 1.5)), draw(f(0.0, 2.0)), draw(f(0.0, np.pi))
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    model = build_model([[q1, r], [r, q2]],
                        rot @ np.array([[-a1, e], [-w, -a2]]) @ rot.T)
    assume(np.linalg.cond(model.eig_vecs) <= 1e3)
    return model


# drawn at th = 0, e = 0, w = 2, a1 = 0.3046875 and a2 = 0.375: near-equal
# rates and a strong coupling give eigenvectors of condition number 57,
# from which e^{tB} carried 18 ulp, and the kernel-small-t cap, read from
# Qt = Qinf - e^{tB} Qinf e^{tB^T}, 1.05e-12 against 50-digit mpmath
NEAR_EQUAL_RATES = ([[2.0, 0.0], [0.0, 0.25]],
                    [[-0.3046875, 0.0], [-2.0, -0.375]])


@settings(max_examples=25, deadline=None)
@given(two_d_models(), st.integers(0, 2 ** 16))
@example(build_model(*NEAR_EQUAL_RATES), 0)
def test_closed_form_caps_bound_the_sampled_ratio_on_drawn_models(model,
                                                                  seed):
    check_closed_form_caps(model, seed)


def check_lyapunov_slope(model, seed):
    """logk_time_slope_grid against the Lyapunov form of the slope at times
    on both sides of T_SWITCH, within 16 times the slope's rounding floor.

    The floor is a first-order estimate: against 50-digit mpmath the slope
    reaches 1.35 floors on standard1 at t = 1.05 and 6.6 floors on drawn
    2-d models by t = 3, and the Lyapunov route, built from the same
    double factors, as much.  Past t = 3 non-normal models leave it by
    tens to hundreds of floors, so the check stops there; a wrong term
    would miss by many orders more."""
    ts = np.concatenate([np.geomspace(1e-4, T_SWITCH, 9),
                         np.geomspace(1.05 * T_SWITCH, 3.0, 6)])
    x, u = calibration_pairs(model, 300, seed)
    props = propagators(model, ts)
    slope, floor = logk_time_slope_grid(model, props, x, u)
    gap = np.abs(slope - slope_lyapunov(model, props, x, u))
    assert np.all(gap <= 16.0 * floor)


@pytest.mark.parametrize("name", CALIBRATION_MODELS[:4])
def test_time_slope_matches_the_lyapunov_identity(name, model_factory):
    check_lyapunov_slope(_calibration_model(name, model_factory), seed=2)


@settings(max_examples=25, deadline=None)
@given(two_d_models(), st.integers(0, 2 ** 16))
def test_time_slope_matches_the_lyapunov_identity_on_drawn_models(model,
                                                                  seed):
    check_lyapunov_slope(model, seed)


def _critical_rate(model, which):
    """The largest rate at which every calibration time keeps the bound's
    exponent negative definite: half the smallest eigenvalue of t A_t
    (small-t bounds) or of M_t, over the grid and the doubled grid."""
    ts = np.concatenate([_bound_grid(which), _bound_grid(which, 96)])
    f = kernel_forms(model, propagators(model, ts))
    if which == "dkernel-large-t":
        return 0.5 * np.linalg.eigvalsh(f.M)[:, 0].min()
    return 0.5 * (ts * np.linalg.eigvalsh(f.A)[:, 0]).min()


@pytest.mark.parametrize("which", BOUND_NAMES[:3])
def test_general2_caps_are_finite_below_the_critical_rate(which):
    g2 = build_model(*GENERAL2)
    crit = _critical_rate(g2, which)
    cals = {calibrate_bound(g2, which, seed=seed) for seed in range(5)}
    # the seed feeds only the sampled tail-integral bound
    (cal,) = cals
    assert cal.exponent_rate < crit
    assert np.isfinite(cal.prefactor_cap) and cal.stable
    assert np.isfinite(calibrate_bound(g2, which, c=0.999 * crit)
                       .prefactor_cap)
    # above the critical rate the supremum is infinite at some time
    with pytest.raises(RateTooLargeError, match="critical rate") as info:
        calibrate_bound(g2, which, c=1.001 * crit)
    assert f"{crit:.3g}" in str(info.value)


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


@pytest.mark.parametrize("name", ["random2", "rotating2"])
def test_tail_integral_unchanged_by_half_sample_reuse(name, model_factory):
    # the grid route, on models without a commensurate spectrum
    model = _bits_model(name, model_factory)
    assert commensurate_rates(model) is None
    for n_samples, seed in ((1000, 0), (777, 4)):
        got = _calibrate_tail_integral(model, n_samples, seed)
        want = frozen_tail_integral(model, n_samples, seed, 50.0)
        assert got == want


# ---------------------------------------------------------------------------
# the tail integral's exact route on commensurate spectra


def _grid_tail(model, m, x, u):
    """Per pair of x, u, the total variation of K / e^{R(x)} on an m-time
    log grid of [1, 50], and what the grid's own rounding may add to it:
    each K carries about eps (1 + |log K|) of relative error, and where K
    is flat, as it becomes at large t, those errors turn into hundreds of
    sign flips whose sizes the grid sums (on drawn models, up to 3e-11 of
    the integral on 16,384 times).  A subnormal K rounds at 2^-1074
    absolute, which no relative error carries, so each value adds that
    too.  Evaluated 40 pairs at a time."""
    props = propagators(model, np.geomspace(1.0, 50.0, m))
    tv, noise = [], []
    for lo in range(0, x.shape[0], 40):
        lk = log_kernel_grid(model, props, x[lo:lo + 40], u[lo:lo + 40])
        k = np.exp(lk)
        tv.append(np.abs(np.diff(k, axis=1)).sum(axis=1))
        noise.append((4.0 * np.finfo(float).eps * (1.0 + np.abs(lk))
                      * k + 2.0 ** -1074).sum(axis=1))
    return np.concatenate(tv), np.concatenate(noise)


def check_exact_tail_integral(model, x, u, fine=16384):
    """The exact integral bounds the total variation on 1,024, 2,048 and
    fine times from above, less 1e-12 relative and the grid's rounding,
    and meets the finest within 1e-6 relative."""
    exact = kernel_mod._tail_tv_exact(model, commensurate_rates(model), x,
                                      u)
    assert np.isfinite(exact).all()
    for m in (1024, 2048, fine):
        tv, noise = _grid_tail(model, m, x, u)
        assert np.all(exact >= tv - 1e-12 * exact - noise), m
    assert np.all(np.abs(exact - tv) <= 1e-6 * exact)


def _tail_sample(model, count, seed):
    """The first count pairs of the tail calibration's sample."""
    gen = substream(seed, 1)
    x = gen.standard_normal((count, model.n)) * 2.0
    u = gen.standard_normal((count, model.n)) * 2.0
    return x, u


@pytest.mark.parametrize("name", ["general2", "standard1", "standard2"])
def test_exact_tail_integral_bounds_the_grids(name):
    model = _named_model(name)
    check_exact_tail_integral(model, *_tail_sample(model, 300, 3))


@st.composite
def commensurate_two_d_models(draw):
    """2-d models whose eigenvalues are -k1 b and -k2 b, k one of (1, 2),
    (1, 3) and (2, 3) and b in [0.3, 1], on unit eigenvectors at least
    0.3 rad apart (condition number at most 6.6), with Q drawn as in
    two_d_models."""
    f = st.floats
    q1, q2 = draw(f(0.2, 3.0)), draw(f(0.2, 3.0))
    r = draw(f(-0.9, 0.9)) * np.sqrt(q1 * q2)
    b, k = draw(f(0.3, 1.0)), draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    th, gap = draw(f(0.0, np.pi)), draw(f(0.3, np.pi - 0.3))
    vecs = np.array([[np.cos(th), np.cos(th + gap)],
                     [np.sin(th), np.sin(th + gap)]])
    B = vecs @ np.diag([-k[0] * b, -k[1] * b]) @ np.linalg.inv(vecs)
    model = build_model([[q1, r], [r, q2]], B)
    assume(commensurate_rates(model) is not None)
    return model


@settings(max_examples=10, deadline=None)
@given(commensurate_two_d_models(), st.integers(0, 2 ** 16))
def test_exact_tail_integral_bounds_the_grids_on_drawn_models(model, seed):
    # rates up to 3 and slopes of log K near 100, where the 16,384-time
    # grid itself is off by up to 1.1e-6 (it converges to the exact value
    # at second order: 5.2e-8 on 65,536 times, 3.5e-9 on 262,144)
    gen = np.random.default_rng(seed)
    check_exact_tail_integral(
        model, *(2.0 * gen.standard_normal((2, 50, 2))), fine=65536)


def test_exact_tail_integral_matches_an_mpmath_quadrature():
    # five general2 pairs with 0, 1, 1, 1 and 2 zeros on (1, 50), two of
    # them with K below 1e-60; the quadrature is split at the zeros
    pytest.importorskip("mpmath")
    g2 = build_model(*GENERAL2)
    x, u = 2.0 * np.random.default_rng(3).standard_normal((2, 5, 2))
    exact = kernel_mod._tail_tv_exact(g2, commensurate_rates(g2), x, u)
    counts = []
    for xi, ui, value in zip(x, u, exact):
        zeros = count_kdot_zeros(g2, xi, ui, (1.0, 50.0)).zeros
        counts.append(zeros.size)
        assert value == pytest.approx(
            tail_integral_mpmath(g2, xi, ui, zeros), rel=1e-9, abs=0.0)
    assert sorted(counts) == [0, 1, 1, 1, 2]


@pytest.mark.parametrize("name", ["standard1", "standard2", "general2"])
def test_a_pair_without_zeros_gives_the_change_of_k(name):
    # K is monotone on [1, 50], so the integral is |K(50) - K(1)|, with
    # the bits of log_kernel_grid at the two ends
    model = _named_model(name)
    x, u = 2.0 * np.random.default_rng(11).standard_normal((2, 200,
                                                            model.n))
    counts, _ = count_kdot_zeros_batch(model, x, u, (1.0, 50.0))
    none = counts == 0
    assert 0 < none.sum() < none.size
    exact = kernel_mod._tail_tv_exact(model, commensurate_rates(model), x, u)
    k = np.exp(log_kernel_grid(model, propagators(model, [1.0, 50.0]),
                               x[none], u[none]))
    assert np.array_equal(exact[none], np.abs(k[:, 1] - k[:, 0]))


def test_exact_tail_integral_keeps_its_bits_on_ragged_blocks(monkeypatch):
    # isolated in one block of 1,000 pairs by default, and in blocks of 7
    # pairs, the last of them 8 long, others holding no zero at all; K at
    # the zeros in one block by default, and in blocks of 18
    g2 = build_model(*GENERAL2)
    x, u = _tail_sample(g2, 1000, 5)
    rates = commensurate_rates(g2)
    want = kernel_mod._tail_tv_exact(g2, rates, x, u)
    monkeypatch.setattr(kernel_mod, "_BLOCK_CELLS", 7 * 10 + 3)
    assert np.array_equal(kernel_mod._tail_tv_exact(g2, rates, x[:995],
                                                    u[:995]), want[:995])


@pytest.mark.parametrize("name", ["standard1", "standard2", "general2"])
def test_exact_tail_cap_and_its_stability_read_one_sample(name):
    # the cap is the largest exact integral, and stable is the half-sample
    # test alone: there is no grid to double
    model = _named_model(name)
    for n_samples, seed in ((1000, 0), (777, 4), (10_000, 2)):
        m = min(n_samples, 2000)
        tv = kernel_mod._tail_tv_exact(model, commensurate_rates(model),
                                       *_tail_sample(model, m, seed))
        cal = _calibrate_tail_integral(model, n_samples, seed)
        assert cal.prefactor_cap == tv.max()
        assert cal.stable == (tv.max() <= 1.1 * tv[:m // 2].max())
        assert cal.exponent_rate == admissible_rate(model,
                                                    "dkernel-large-t")


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
    # as it is evaluated (they peaked at 138 and 125 MiB with full grids),
    # and the in-place evaluators' larger blocks hold at most 1.5 MiB more
    # than the 3.50 and 1.05 MiB of the allocating ones on blocks of 8192
    # cells.  The zero counts are pinned on a 2-d model that takes the
    # scan; general2 takes the slope polynomial
    rot = build_model(*ROTATING2)
    X, U = _far_pairs(rot, 1, 400)
    assert _peak_mib(count_kdot_zeros_batch, rot, X, U, (1e-8, 1.0),
                     4096) <= 3.50 + 1.5
    g2 = build_model(*GENERAL2)
    assert _peak_mib(_calibrate_tail_integral, g2, 10_000, 0) <= 1.05 + 1.5


@pytest.mark.parametrize("which", BOUND_NAMES[:3])
def test_streamed_calibration_keeps_no_full_grid(which):
    # the Gaussian bounds come in closed form from per-time matrices and
    # form no (pairs, times) array; sampled, their pieces and einsum
    # temporaries peaked at 19, 33 and 37 MiB
    assert _peak_mib(calibrate_bound, build_model(*GENERAL2), which) <= 8


# ---------------------------------------------------------------------------
# the critical-time cubic of isotropic models


@pytest.mark.parametrize("n", [1, 2])
def test_critical_cubic_at_width_zero_counts_the_kernel_slope_zeros(n):
    # at width 0 and c = u the cubic is that of d/dt log K(x, u): its real
    # roots in (e^{-b}, e^{-b 1e-8}) are the zeros on [1e-8, 1] that
    # count_kdot_zeros_batch counts from its slope polynomial
    model = standard_model(n)
    X, U = _far_pairs(model, 3, 200)
    coef = time_critical_cubic(model, X, U, 0.0)
    assert coef.shape == (200, 4)
    roots = real_roots(coef)
    inside = (roots > np.exp(-1.0)) & (roots < np.exp(-1e-8))
    counts, stable = count_kdot_zeros_batch(model, X, U)
    assert stable.all()
    assert np.array_equal(inside.sum(axis=1), counts)
    assert set(counts.tolist()) > {0}


def test_critical_cubic_matches_the_closed_form_slope():
    # d/ds log H_t f(x) = P(s) / D^2 against a central difference of the
    # closed form, on a model with b = 0.7 and lam = 1.8
    model = build_model(2.52 * np.eye(2), -0.7 * np.eye(2))
    gen = np.random.default_rng(5)
    x, c, w = gen.standard_normal((6, 2)), gen.standard_normal(2), 0.6
    coef = time_critical_cubic(model, x, c, w)
    lam, kappa = 1.8, 1.8 + w * w

    def log_h(s):
        d = lam * (1 - s * s) + w * w
        z = s * x - c
        return -np.log(d) - 0.5 * np.einsum("pi,pi->p", z, z) / d

    for s in (0.05, 0.4, 0.9):
        d = kappa - lam * s * s
        slope = (log_h(s + 1e-6) - log_h(s - 1e-6)) / 2e-6
        assert np.polyval(coef.T, s) / d ** 2 == pytest.approx(slope,
                                                               rel=1e-6)


def test_critical_cubic_needs_an_isotropic_model():
    with pytest.raises(ArgumentRangeError):
        time_critical_cubic(build_model(*GENERAL2), np.zeros((1, 2)),
                            np.zeros(2), 0.5)


@pytest.mark.parametrize("degree", [3])
def test_real_roots_match_numpy_roots(degree):
    # random cubics have simple roots; a multiple root may come out as a
    # complex pair, which real_roots reports as NaN
    gen = np.random.default_rng(degree)
    coef = gen.standard_normal((400, degree + 1))
    got = real_roots(coef)
    assert got.shape == (400, degree)
    for row, roots in zip(coef, got):
        want = np.roots(row)
        want = np.sort(want[np.abs(want.imag) < 1e-9].real)
        have = np.sort(roots[~np.isnan(roots)])
        assert have == pytest.approx(want, rel=1e-6, abs=1e-9)
