import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from oulab import (
    build_model,
    gaussian_measure,
    model_from_dict,
    propagators,
    quadratic_r,
)
from oulab.geometry import group_apply
from reference_routes import covariance_qt, gamma_density, group_dt
from oulab.errors import (
    DimensionError,
    NonPositiveTimeError,
    NotSPDError,
    NotStableError,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_standard_model_invariant_covariance(std1):
    assert std1.Q == pytest.approx(np.array([[2.0]]))
    assert std1.B == pytest.approx(np.array([[-1.0]]))
    assert std1.Qinf == pytest.approx(np.array([[1.0]]))


def test_unstable_drift_rejected():
    with pytest.raises(NotStableError):
        build_model(np.eye(1), np.array([[1.0]]))
    with pytest.raises(NotStableError):
        build_model(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_bad_diffusion_rejected():
    with pytest.raises(NotSPDError):
        build_model(np.array([[-1.0]]), np.array([[-1.0]]))
    with pytest.raises(NotSPDError):
        build_model(np.array([[1.0, 2.0], [0.0, 1.0]]), -np.eye(2))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        build_model(np.eye(2), -np.eye(3))


def test_model_is_frozen(std1):
    with pytest.raises(Exception):
        std1.n = 5


def test_model_from_dict_roundtrip(std2):
    m = model_from_dict({"n": 2, "Q": std2.Q.tolist(), "B": std2.B.tolist()})
    assert m.Qinf == pytest.approx(std2.Qinf)


# ---------------------------------------------------------------------------
# the invariant covariance solves the Lyapunov integral


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 3), (3, 2)])
def test_qinf_matches_defining_integral(seed, n, model_factory):
    m = model_factory(seed, n)

    def integrand(s):
        e = scipy.linalg.expm(s * m.B)
        return (e @ m.Q @ e.T).ravel()

    val, _ = scipy.integrate.quad_vec(integrand, 0.0, 200.0)
    assert m.Qinf == pytest.approx(val.reshape(n, n), rel=1e-8, abs=1e-10)


def test_qinf_solves_lyapunov_equation(std2, model_factory):
    for m in (std2, model_factory(5, 3)):
        resid = m.B @ m.Qinf + m.Qinf @ m.B.T + m.Q
        assert np.max(np.abs(resid)) < 1e-12


# ---------------------------------------------------------------------------
# finite-time covariance


def qt(model, t: float) -> np.ndarray:
    return propagators(model, [t]).Qt[0]


def test_qt_closed_form_value(std1):
    # 1 - e^(-2 ln 2) = 3/4
    assert qt(std1, np.log(2.0))[0, 0] == pytest.approx(0.75)


def test_qt_at_infinity_is_invariant(std2):
    # Qinf - Qt = e^(-2t) Qinf for the standard model
    assert qt(std2, 40.0) == pytest.approx(std2.Qinf)


def test_qt_short_time_linearization(std2, model_factory):
    for m in (std2, model_factory(7, 2)):
        for t, tol in ((1e-3, 1e-2), (1e-4, 1e-3)):
            rel = np.max(np.abs(qt(m, t) / t - m.Q)) / np.max(np.abs(m.Q))
            assert rel < tol


def test_qt_series_branch_continuous(std2, model_factory):
    # the series branch below 1e-3 must join the direct branch smoothly
    for m in (std2, model_factory(11, 3)):
        lo = qt(m, 1e-3 * (1 - 1e-9))
        hi = qt(m, 1e-3 * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-8)


def test_qt_positive_and_monotone(model_factory):
    m = model_factory(13, 2)
    prev = np.zeros((2, 2))
    for t in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
        cur = qt(m, t)
        w = np.linalg.eigvalsh(cur - prev)
        assert w.min() > -1e-12
        prev = cur
    w = np.linalg.eigvalsh(m.Qinf - prev)
    assert w.min() > -1e-10


def test_qt_rejects_nonpositive_time(std1):
    with pytest.raises(NonPositiveTimeError):
        qt(std1, 0.0)
    with pytest.raises(NonPositiveTimeError):
        qt(std1, -1.0)


# ---------------------------------------------------------------------------
# the scaling flow, as group_apply moves points along it


def flow(model, s, x):
    """D_s applied to each row of x."""
    x = np.atleast_2d(x)
    return group_apply(model, x, np.full(x.shape[0], float(s)))


def test_flow_closed_form(std1):
    assert flow(std1, 1.0, [[1.0]])[0, 0] == pytest.approx(np.e)
    assert flow(std1, 0.0, [[0.7]]) == pytest.approx(np.array([[0.7]]))


def test_flow_group_law(model_factory):
    m = model_factory(17, 3)
    xs = np.random.default_rng(17).standard_normal((5, 3))
    for s, t in ((0.2, 0.7), (1.0, -0.4), (2.5, 2.5)):
        left = flow(m, s, flow(m, t, xs))
        assert left == pytest.approx(flow(m, s + t, xs), abs=1e-10)
        # the rows of D_s applied to the identity are the columns of D_s
        assert flow(m, s, np.eye(3)).T == pytest.approx(group_dt(m, s),
                                                        rel=1e-10)


def test_flow_inverse(model_factory):
    m = model_factory(19, 2)
    xs = np.random.default_rng(19).standard_normal((5, 2))
    assert flow(m, -1.3, flow(m, 1.3, xs)) == pytest.approx(xs, abs=1e-12)


# ---------------------------------------------------------------------------
# the quadratic level function and norms


def test_quadratic_level_values(std1):
    assert quadratic_r(std1, np.array([2.0])) == pytest.approx(2.0)
    assert quadratic_r(std1, np.array([0.0])) == pytest.approx(0.0)


def test_anisotropic_norm_and_level():
    m = build_model(np.diag([2.0, 8.0]), -np.eye(2))
    assert m.Qinf == pytest.approx(np.diag([1.0, 4.0]))
    x = np.array([0.0, 2.0])
    assert quadratic_r(m, x) == pytest.approx(0.5)
    assert quadratic_r(m, np.array([2.0, 0.0])) == pytest.approx(2.0)


def test_norm_equivalence_with_euclidean(model_factory):
    m = model_factory(23, 3)
    w = np.linalg.eigvalsh(m.Qinf)
    gen = np.random.default_rng(0)
    xs = gen.standard_normal((50, 3))
    nq = np.sqrt(2.0 * quadratic_r(m, xs))         # |Qinf^(-1/2) x|
    ne = np.linalg.norm(xs, axis=1)
    assert np.all(nq <= ne / np.sqrt(w.min()) + 1e-12)
    assert np.all(nq >= ne / np.sqrt(w.max()) - 1e-12)


def test_quadratic_r_batch_shapes(std2):
    xs = np.zeros((4, 5, 2))
    assert quadratic_r(std2, xs).shape == (4, 5)
    with pytest.raises(DimensionError):
        quadratic_r(std2, np.zeros((4, 3)))


def quadratic_r_einsum(model, x):
    """quadratic_r as it was formed before the fixed-order sum."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.einsum("...i,ij,...j->...", x, model.Qinf_inv, x)


def _layouts(x):
    """x (m, n) as contiguous, strided, Fortran-order and broadcast
    arrays; each holds the points of x in the same order once flattened
    over the leading axes, up to repeats."""
    return {"contiguous": x,
            "strided": np.repeat(x, 2, axis=0)[::2],
            "fortran": np.asfortranarray(x),
            "broadcast": np.broadcast_to(x[:, None, :], (x.shape[0], 3,
                                                         x.shape[1]))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_r_matches_the_einsum_on_batches(n, model_factory):
    # the einsum's bits depend on the batch when it holds one or two
    # points (for n = 2); from three points on they are the fixed-order sum
    gen = np.random.default_rng(30 + n)
    for seed in range(6):
        model = model_factory(seed, n)
        for m in (3, 4, 7, 64, 500):
            x = 3.0 * gen.standard_normal((m, n))
            for name, xs in _layouts(x).items():
                assert np.array_equal(quadratic_r(model, xs),
                                      quadratic_r_einsum(model, xs)), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_r_of_a_point_does_not_depend_on_its_batch(
        n, model_factory):
    gen = np.random.default_rng(40 + n)
    model = model_factory(1, n)
    x = 3.0 * gen.standard_normal((300, n))
    batch = quadratic_r(model, x)
    alone = np.array([quadratic_r(model, p) for p in x])
    pairs = quadratic_r(model, x.reshape(150, 2, n)).ravel()
    assert np.array_equal(alone, batch) and np.array_equal(pairs, batch)
    assert type(quadratic_r(model, x[0])) is np.float64


# ---------------------------------------------------------------------------
# invariant density


def test_invariant_density_at_origin(std1):
    assert gamma_density(std1, np.inf, np.array([0.0])) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi))


def test_density_is_gaussian_in_level_function(std2):
    gen = np.random.default_rng(1)
    xs = gen.standard_normal((20, 2)) * 2.0
    logd = gaussian_measure(np.zeros(2), std2.Qinf).log_density(xs)
    # log density + R(x) is the same constant at every point
    c = logd + quadratic_r(std2, xs)
    assert np.ptp(c) < 1e-12


def test_invariant_density_integrates_to_one(std1):
    val, _ = scipy.integrate.quad(
        lambda x: gamma_density(std1, np.inf, np.array([x])), -12, 12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_finite_time_density_uses_qt(std1):
    t = np.log(2.0)
    d = gamma_density(std1, t, np.array([0.0]))
    assert d == pytest.approx(1.0 / np.sqrt(2.0 * np.pi * 0.75))


# ---------------------------------------------------------------------------
# the stacked propagators agree with the single-time functions


def test_propagator_stack_consistency(model_factory):
    m = model_factory(29, 2)
    ts = np.array([1e-4, 0.01, 0.5, 1.0, 2.0, 10.0])
    pr = propagators(m, ts)
    for i, t in enumerate(ts):
        assert pr.exp_tB[i] == pytest.approx(scipy.linalg.expm(t * m.B))
        assert pr.Qt[i] == pytest.approx(covariance_qt(m, t), rel=1e-12)
        assert pr.Dt[i] == pytest.approx(group_dt(m, t), rel=1e-10)
        assert pr.Dmt[i] == pytest.approx(group_dt(m, -t), rel=1e-10)
        assert pr.Qt_inv[i] @ pr.Qt[i] == pytest.approx(np.eye(2), abs=1e-8)
        _, logdet = np.linalg.slogdet(pr.Qt[i])
        assert pr.logdet_Qt[i] == pytest.approx(logdet)


def test_propagator_quadratic_forms(model_factory):
    m = model_factory(31, 2)
    ts = np.array([0.05, 0.5, 2.0, 20.0])
    pr = propagators(m, ts)
    for i, t in enumerate(ts):
        a = pr.Qt_inv[i] - m.Qinf_inv
        assert pr.A_small[i] == pytest.approx(a, rel=1e-8, abs=1e-10)
        if t > 1.0:
            direct = pr.Dt[i].T @ a @ pr.Dt[i]
            assert pr.M_large[i] == pytest.approx(direct, rel=1e-6)


def test_propagator_large_t_form_beats_cancellation(std1):
    # at t = 40 the direct difference loses all digits; the resolvent form
    # must still produce the analytic limit Qinf^-1 / (1 - e^(-2t)) ~ 1
    pr = propagators(std1, np.array([40.0]))
    q = np.exp(-40.0)
    exact = (1.0 + q ** 2 / (1.0 - q ** 2)) / 1.0
    assert pr.M_large[0, 0, 0] == pytest.approx(exact, rel=1e-12)


def frozen_m_large(model, pr):
    """M_large as built before the resolvent term N was kept."""
    ts = pr.ts
    M = np.empty_like(pr.A_small)
    lg = ts > 1.0
    if np.any(lg):
        S = np.einsum("mji,jk,mkl->mil", pr.exp_tB[lg], model.Qinf_inv,
                      pr.exp_tB[lg])
        eye = np.eye(model.n)
        M[lg] = model.Qinf_inv[None] + np.linalg.solve(
            eye[None] - S @ model.Qinf, S)
    if np.any(~lg):
        M[~lg] = np.einsum("mji,mjk,mkl->mil", pr.Dt[~lg], pr.A_small[~lg],
                           pr.Dt[~lg])
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_propagator_n_keeps_m_large_bit_identical(n, model_factory):
    m = model_factory(40 + n, n)
    ts = np.concatenate([np.geomspace(1e-8, 60.0, 97), [1.0]])
    pr = propagators(m, ts)
    assert np.array_equal(pr.M_large, frozen_m_large(m, pr))
    assert np.array_equal(pr.N, np.swapaxes(pr.N, -1, -2))
    for i, t in enumerate(ts):
        assert pr.N[i] == pytest.approx(pr.M_large[i] - m.Qinf_inv,
                                        rel=1e-9, abs=1e-12 * (1 + 1 / t))


def test_propagator_n_holds_precision_at_large_t(std1):
    # N = e^(-2t) / (1 - e^(-2t)) for the standard model; the difference
    # M_large - Qinf^-1 keeps no digit of it at t = 30
    pr = propagators(std1, np.array([2.0, 30.0]))
    q2 = np.exp(-2.0 * pr.ts)
    assert pr.N[:, 0, 0] == pytest.approx(q2 / -np.expm1(-2.0 * pr.ts),
                                          rel=1e-14)


def test_propagators_reject_nonpositive_times(std1):
    with pytest.raises(NonPositiveTimeError):
        propagators(std1, np.array([0.5, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagators_reject_non_finite_times(std1, bad):
    # NaN fails every comparison, so a test for t <= 0 alone lets it pass
    with pytest.raises(NonPositiveTimeError):
        propagators(std1, np.array([0.5, bad, 1.0]))


def test_propagators_reject_indefinite_qt(std2, monkeypatch):
    # -I has a positive determinant, so only the eigenvalue guard sees it
    import oulab.model as model_mod
    monkeypatch.setattr(model_mod, "_qt_stack",
                        lambda model, ts, exp_tB: -np.eye(2)[None])
    with pytest.raises(NotSPDError):
        propagators(std2, np.array([0.5]))
