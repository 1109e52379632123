"""Independent reference routes that the tests compare the package against.

None of them is on a probe's path: each is a slower or more direct way to
the same quantity, kept here as an oracle.
"""

from itertools import combinations

import numpy as np
import scipy.integrate
import scipy.linalg

from oulab.errors import BadOrderError, EmptyPathError, TooLongError
from oulab.kernel import kernel
from oulab.model import gamma_log_density
from oulab.variation import _check_order


def variation_exhaustive_slow(values, rho: float) -> float:
    """Plain itertools enumeration; cross-check for the bitmask oracle."""
    rho = _check_order(rho)
    v = [float(x) for x in values]
    n = len(v)
    if n == 0:
        raise EmptyPathError("need a nonempty value sequence")
    if n > 12:
        raise TooLongError("slow enumeration capped at 12 points")
    best = 0.0
    for k in range(2, n + 1):
        for idx in combinations(range(n), k):
            s = sum(abs(v[b] - v[a]) ** rho for a, b in zip(idx, idx[1:]))
            best = max(best, s)
    return best ** (1.0 / rho)


def group_dt(model, t: float) -> np.ndarray:
    """Dt = Qinf e^(-tB^T) Qinf^-1 by scipy's matrix exponential."""
    e = scipy.linalg.expm(-float(t) * model.B.T)
    return model.Qinf @ e @ model.Qinf_inv


def gamma_density(model, t: float, x) -> np.ndarray:
    return np.exp(gamma_log_density(model, t, x))


def kernel_dt_raw(model, t: float, x, u, h: float) -> float:
    """Plain central difference of K itself at explicit step h, for
    convergence-order measurements."""
    kp = kernel(model, t + h, x, u)
    km = kernel(model, t - h, x, u)
    return (kp - km) / (2 * h)


def adaptive_integral(f, measure, half_width: float = 10.0) -> float:
    """scipy adaptive quadrature over mean +- half_width * sqrt(cov), for
    cross-checks of the tensor rule in dimensions 1 and 2."""
    n = measure.n
    L = measure.sqrt_cov

    if n == 1:
        def g(z):
            x = measure.mean + L[0, 0] * np.atleast_1d(z)
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * measure.density(x[None, :])[0] * L[0, 0]
        val, _ = scipy.integrate.quad(g, -half_width, half_width, limit=400)
        return float(val)
    if n == 2:
        det = abs(np.linalg.det(L))

        def g(z2, z1):
            x = measure.mean + L @ np.array([z1, z2])
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * measure.density(x[None, :])[0] * det
        val, _ = scipy.integrate.dblquad(g, -half_width, half_width,
                                         -half_width, half_width)
        return float(val)
    raise BadOrderError("adaptive cross-check supports n <= 2 only")
