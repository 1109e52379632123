"""Gaussian quadrature against anchor measures in R^n.

Every integral in the package is written as int f d(anchor) with the anchor
an explicit Gaussian; a tensor Gauss-Hermite rule mapped through the
anchor's covariance square root then integrates polynomials-times-Gaussian
factors exactly and analytic integrands to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import BadOrderError, DimensionError

# tensor rule sizes keep the node count near 64^2 regardless of dimension
DEFAULT_ORDER = {1: 64, 2: 64, 3: 32}


@dataclass(frozen=True)
class GaussianMeasure:
    """N(mean, cov) with cached square root for node mapping."""

    mean: np.ndarray
    cov: np.ndarray
    sqrt_cov: np.ndarray
    logdet_cov: float
    n: int

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x - self.mean
        sol = np.linalg.solve(self.cov, d[..., None])[..., 0]
        q = np.einsum("...i,...i->...", d, sol)
        return -0.5 * (self.n * np.log(2 * np.pi) + self.logdet_cov + q)


def gaussian_measure(mean, cov) -> GaussianMeasure:
    mean = np.asarray(mean, dtype=float).ravel()
    cov = np.asarray(cov, dtype=float)
    n = mean.size
    if cov.shape != (n, n):
        raise DimensionError(f"cov must be {n}x{n}, got {cov.shape}")
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    if np.min(w) <= 0:
        raise DimensionError("covariance must be positive definite")
    sqrt_cov = (v * np.sqrt(w)) @ v.T
    return GaussianMeasure(mean=mean, cov=cov, sqrt_cov=sqrt_cov,
                           logdet_cov=float(np.sum(np.log(w))), n=n)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability weights for one anchor Gaussian."""

    nodes: np.ndarray       # (m, n)
    weights: np.ndarray     # (m,), sum to 1


# the rules hermite_tensor has built, by (n, order)
_RULES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def hermite_tensor(n: int, order: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor probabilist Gauss-Hermite rule for N(0, I_n): nodes (q, n)
    and probability weights (q,), q = order^n.  Without an order the
    dimension's DEFAULT_ORDER is used; dimensions past it have none.  From
    order 371 hermegauss's weights underflow to 0 or turn NaN, with
    overflow warnings: an order whose weights do not sum to 1 raises
    BadOrderError.  Each rule is built once per (n, order) and handed out
    read-only."""
    if order is None:
        if n not in DEFAULT_ORDER:
            raise BadOrderError(f"no default order for dimension {n}")
        order = DEFAULT_ORDER[n]
    if order < 1:
        raise BadOrderError("order must be >= 1")
    if (n, order) not in _RULES:
        _RULES[n, order] = _hermite_tensor(n, order)
    return _RULES[n, order]


def _hermite_tensor(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """hermite_tensor's rule, built afresh."""
    with np.errstate(all="ignore"):
        x1, w1 = hermegauss(order)
    w1 = w1 / np.sqrt(2 * np.pi)            # probability weights for N(0,1)
    if not abs(w1.sum() - 1.0) <= 1e-10:    # NaN fails too
        raise BadOrderError(f"order {order} is past what hermegauss builds: "
                            "its weights do not sum to 1")
    grids = np.meshgrid(*([x1] * n), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(order ** n)
    for g in np.meshgrid(*([w1] * n), indexing="ij"):
        w = w * g.ravel()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def gauss_hermite_rule(measure: GaussianMeasure,
                       order: int | None = None) -> QuadratureRule:
    """Tensor Gauss-Hermite rule mapped onto the measure."""
    z, w = hermite_tensor(measure.n, order)
    nodes = measure.mean[None, :] + z @ measure.sqrt_cov.T
    return QuadratureRule(nodes=nodes, weights=w)


def product_gaussian(a: GaussianMeasure, prec_b: np.ndarray,
                     mean_b: np.ndarray) -> tuple[GaussianMeasure, float]:
    """Gaussian proportional to (density of a) * exp(-<P(x-m), x-m>/2).

    Returns the normalized product measure and the log of the mass
    int exp(-<P(x-m), x-m>/2) da, both in closed form.  Centering the
    quadrature on the product makes bump-type integrands exact.
    """
    prec_a = np.linalg.inv(a.cov)
    prec = prec_a + prec_b
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prec_a @ a.mean + prec_b @ mean_b)
    prod = gaussian_measure(mean, cov)
    d = a.mean - mean_b
    # mass = sqrt(det cov / det cov_a) exp(-<(cov_a + P^-1)^-1 d, d>/2),
    # with (cov_a + P^-1)^-1 = prec_a cov prec_b
    quad_term = d @ prec_a @ cov @ prec_b @ d
    log_mass = 0.5 * (prod.logdet_cov - a.logdet_cov) - 0.5 * quad_term
    return prod, float(log_mass)
