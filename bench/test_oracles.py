"""Tests of the benchmark's own reference routines.

Run with: python -m pytest bench
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import oracles


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 2.5, 4.0])
def test_variation_matches_brute_force_on_short_paths(rho):
    gen = np.random.default_rng(11)
    for n in range(1, 10):
        for _ in range(20):
            v = gen.standard_normal(n)
            if gen.random() < 0.3:
                v = np.round(v, 1)       # ties and flat runs
            ref = oracles.variation_itertools(v, rho)
            assert oracles.rho_variation(v, rho) == pytest.approx(ref,
                                                                  rel=1e-12)
            assert oracles.variation_subsets(v, rho) == pytest.approx(
                ref, rel=1e-12)


def test_turning_points_keep_endpoints_and_extrema():
    v = np.array([0.0, 1.0, 2.0, 2.0, 1.0, 3.0, 3.0])
    assert oracles.turning_points(v).tolist() == [0.0, 2.0, 1.0, 3.0]


def test_kernel_matches_mehler_for_the_standard_model():
    gen = np.random.default_rng(5)
    ts = 10.0 ** gen.uniform(-5, 1.3, 64)
    x = gen.standard_normal((64, 1)) * 1.5
    u = gen.standard_normal((64, 1)) * 1.5
    got = oracles.log_kernel([[2.0]], [[-1.0]], ts, x, u)
    want = oracles.mehler_log_kernel(ts, x[:, 0], u[:, 0])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_transition_covariance_matches_its_integral():
    Q = np.array([[1.0, 0.3], [0.3, 0.5]])
    B = np.array([[-1.0, 2.0], [0.0, -0.5]])
    ts = np.array([1e-6, 0.3, 1.0, 2.5])
    got = oracles.transition_covariance(Q, B, ts)
    for t, qt in zip(ts, got):
        for i in range(2):
            for j in range(2):
                ref, _ = quad(lambda s: (scipy.linalg.expm(s * B) @ Q
                                         @ scipy.linalg.expm(s * B.T))[i, j],
                              0.0, t, epsabs=1e-15, epsrel=1e-12)
                assert qt[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-18)


def test_mehler_bump_matches_kernel_quadrature():
    center, width = 0.7, 0.5
    amp = oracles.bump_amplitude(center, width)
    for t, x in [(1e-3, 0.4), (0.2, -1.1), (3.0, 2.0)]:
        ref, _ = quad(lambda u: amp
                      * math.exp(oracles.mehler_log_kernel(t, x, u))
                      * math.exp(-(u - center) ** 2 / (2 * width ** 2))
                      * math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
                      -12, 12, points=[x * math.exp(-t)], limit=200)
        assert oracles.mehler_bump(t, x, center, width) == pytest.approx(
            ref, rel=1e-8)


def test_eta_is_one_near_the_diagonal_and_zero_far_from_it():
    gen = np.random.default_rng(3)
    for Rx in gen.uniform(0, 12, 50):
        for Ru in gen.uniform(0, 16, 20):
            e = oracles.eta(Rx, Ru)
            assert -1e-15 <= e <= 1 + 1e-15
            if abs(Ru - Rx) <= 1:
                assert e == pytest.approx(1.0, abs=1e-15)
            if abs(Ru - Rx) >= 4:
                assert e == pytest.approx(0.0, abs=1e-15)
