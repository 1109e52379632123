import numpy as np
import pytest
import scipy.integrate

from oulab import gauss_hermite_rule, gaussian_measure, product_gaussian
from oulab.quadrature import DEFAULT_ORDER, hermite_tensor
from oulab.errors import BadOrderError, DimensionError
from reference_routes import adaptive_integral


def test_default_orders():
    assert DEFAULT_ORDER == {1: 64, 2: 64, 3: 32}


def test_weights_are_probabilities():
    g = gaussian_measure([0.5], [[2.0]])
    rule = gauss_hermite_rule(g)
    assert rule.weights.sum() == pytest.approx(1.0)
    assert np.all(rule.weights > 0)
    assert rule.nodes.shape == (64, 1)


def test_rule_moments_1d():
    mu, var = 0.7, 3.0
    rule = gauss_hermite_rule(gaussian_measure([mu], [[var]]))
    assert rule.integrate(lambda x: x[:, 0]) == pytest.approx(mu)
    assert rule.integrate(lambda x: (x[:, 0] - mu) ** 2) == (
        pytest.approx(var))
    assert rule.integrate(lambda x: (x[:, 0] - mu) ** 3) == (
        pytest.approx(0.0, abs=1e-10))
    assert rule.integrate(lambda x: (x[:, 0] - mu) ** 4) == (
        pytest.approx(3.0 * var ** 2))


def test_rule_moments_2d_correlated():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    mean = np.array([1.0, -2.0])
    rule = gauss_hermite_rule(gaussian_measure(mean, cov))
    for i in range(2):
        assert rule.integrate(lambda x, i=i: x[:, i]) == (
            pytest.approx(mean[i]))
    for i in range(2):
        for j in range(2):
            got = rule.integrate(
                lambda x, i=i, j=j: (x[:, i] - mean[i]) * (x[:, j] - mean[j]))
            assert got == pytest.approx(cov[i, j])


def test_rule_high_degree_polynomial_exact():
    rule = gauss_hermite_rule(gaussian_measure([0.0], [[1.0]]), order=16)
    # E z^10 = 9!! = 945; a 16-point rule is exact through degree 31
    assert rule.integrate(lambda x: x[:, 0] ** 10) == pytest.approx(945.0)


def test_rule_gaussian_integrand_near_exact():
    rule = gauss_hermite_rule(gaussian_measure([0.0], [[1.0]]))
    # int e^{-z^2/2} dN(0,1) = 1/sqrt(2)
    got = rule.integrate(lambda x: np.exp(-0.5 * x[:, 0] ** 2))
    assert got == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_bad_order_rejected():
    g = gaussian_measure([0.0], [[1.0]])
    with pytest.raises(BadOrderError):
        gauss_hermite_rule(g, order=0)
    g4 = gaussian_measure(np.zeros(4), np.eye(4))
    with pytest.raises(BadOrderError):
        gauss_hermite_rule(g4)
    with pytest.raises(BadOrderError):
        hermite_tensor(4)
    with pytest.raises(BadOrderError):
        hermite_tensor(1, order=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rule_is_the_tensor_mapped_through_the_measure(n):
    z, w = hermite_tensor(n)
    assert z.shape == (DEFAULT_ORDER[n] ** n, n) and w.shape == (z.shape[0],)
    gen = np.random.default_rng(n)
    a = gen.standard_normal((n, n))
    g = gaussian_measure(gen.standard_normal(n), a @ a.T + np.eye(n))
    rule = gauss_hermite_rule(g)
    assert np.array_equal(rule.weights, w)
    assert np.array_equal(rule.nodes, g.mean[None, :] + z @ g.sqrt_cov.T)


def test_measure_validation():
    with pytest.raises(DimensionError):
        gaussian_measure([0.0, 1.0], [[1.0]])
    with pytest.raises(DimensionError):
        gaussian_measure([0.0], [[-1.0]])


def test_measure_density_normalized():
    g = gaussian_measure([0.3], [[0.5]])
    val, _ = scipy.integrate.quad(
        lambda x: np.exp(g.log_density(np.array([[x]])))[0], -10, 10)
    assert val == pytest.approx(1.0)


def test_product_gaussian_closed_form_1d():
    a = gaussian_measure([1.0], [[2.0]])
    prec_b = np.array([[4.0]])
    mean_b = np.array([0.5])
    prod, log_mass = product_gaussian(a, prec_b, mean_b)
    # precision add: 1/2 + 4 = 9/2; mean = cov (prec_a mu_a + P mu_b)
    assert prod.cov[0, 0] == pytest.approx(2.0 / 9.0)
    assert prod.mean[0] == pytest.approx((2.0 / 9.0) * (0.5 + 2.0))
    # the mass is the integral of the extra factor against a
    ref, _ = scipy.integrate.quad(
        lambda x: np.exp(-0.5 * 4.0 * (x - 0.5) ** 2)
        * np.exp(a.log_density(np.array([[x]])))[0], -12, 12)
    assert np.exp(log_mass) == pytest.approx(ref, rel=1e-10)


def test_product_gaussian_makes_bump_integrals_exact():
    a = gaussian_measure([0.0, 0.0], np.eye(2))
    prec_b = np.diag([9.0, 9.0])
    mean_b = np.array([1.5, -0.5])
    prod, log_mass = product_gaussian(a, prec_b, mean_b)
    rule = gauss_hermite_rule(prod, order=24)
    # int P(x) exp(...) da = e^{log_mass} int P d(prod) for polynomials P
    got = np.exp(log_mass) * rule.integrate(
        lambda x: 1.0 + x[:, 0] + x[:, 0] * x[:, 1])
    ref = adaptive_integral(
        lambda x: (1.0 + x[:, 0] + x[:, 0] * x[:, 1])
        * np.exp(-0.5 * np.sum((x - mean_b) @ prec_b * (x - mean_b),
                               axis=-1)),
        a, half_width=8.0)
    assert got == pytest.approx(ref, rel=1e-8)

