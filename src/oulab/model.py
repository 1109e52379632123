"""Ornstein-Uhlenbeck model data: diffusion Q, stable drift B and the
covariances they generate.

Conventions.  The generator is (1/2)tr(Q D^2) + <Bx, D>.  The finite-time
covariance is Qt = integral_0^t e^(sB) Q e^(sB*) ds, the invariant one
solves B Qinf + Qinf B^T + Q = 0, and the group Dt = Qinf e^(-tB^T) Qinf^-1
carries the polar-type decomposition used by the ring geometry.
propagators stacks only the semigroup's matrix functions of t (e^(tB), Qt,
its inverse and log det); the kernel's forms, Dt among them, are kernel.py's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, NonPositiveTimeError, NotSPDError,
                     NotStableError, NumericalOverflowError)

_SYM_TOL = 1e-12
_LYAP_TOL = 1e-10
# below this, Qt = Qinf - e^(tB) Qinf e^(tB^T) loses digits to cancellation;
# a short exponential series is exact to machine precision instead
_QT_SERIES_T = 1e-3
_QT_SERIES_TERMS = 12
# commensurate spectra (commensurate_rates): eigenvalues -k_i b with
# integers k_i up to this cap, matched to this relative tolerance, on
# eigenvectors conditioned at most this badly, since whatever is built in
# their coordinates carries about cond^2 eps of rounding
_MAX_RATE_MULTIPLE = 3
_RATE_TOL = 1e-12
_MAX_EIGVEC_COND = 1e3
# e^(tB) comes from B's eigenvectors where their condition number is at
# most this, and from scipy's scaling and squaring elsewhere: the
# eigenvector route's error grows with it (on t <= 1, 3 ulp at 8 and 18 at
# 57), and Qt = Qinf - e^(tB) Qinf e^(tB^T) amplifies it by |Qinf| / |Qt|
_EXPM_EIG_COND = 16.0


@dataclass(frozen=True)
class OUModel:
    n: int
    Q: np.ndarray
    B: np.ndarray
    Qinf: np.ndarray
    Qinf_inv: np.ndarray
    Qinf_sqrt: np.ndarray
    logdet_Qinf: float
    spectral_abscissa: float            # max Re eig(B), < 0
    # eigendecomposition of B for batched propagators, and the condition
    # number of its eigenvectors, inf when they do not invert; expm_stack
    # and commensurate_rates compare it with their thresholds
    eig_vals: np.ndarray = field(repr=False)
    eig_vecs: np.ndarray = field(repr=False)
    eig_vecs_inv: np.ndarray = field(repr=False)
    eig_cond: float = field(repr=False)


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} has non-finite entries")
    return a


def _spd_sqrt(a: np.ndarray, name: str):
    w, v = np.linalg.eigh(a)
    if np.min(w) <= 0:
        raise NotSPDError(f"{name} is not positive definite (min eig {np.min(w):.3e})")
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T, float(np.sum(np.log(w)))


def build_model(Q, B) -> OUModel:
    """Validate (Q, B) and solve the invariant-covariance Lyapunov equation."""
    Q = _as_square(Q, "Q")
    B = _as_square(B, "B")
    n = Q.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"Q is {n}x{n} but B is {B.shape[0]}x{B.shape[0]}")
    scale = max(1.0, np.abs(Q).max())
    if np.abs(Q - Q.T).max() > _SYM_TOL * scale:
        raise NotSPDError("Q is not symmetric")
    Q = 0.5 * (Q + Q.T)
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise NotSPDError("Q is not positive definite") from None
    ew = np.linalg.eigvals(B)
    abscissa = float(np.max(ew.real))
    if abscissa >= 0:
        raise NotStableError(f"B must be stable; spectral abscissa {abscissa:.3e}")

    # Kronecker form of B X + X B^T = -Q, column-major vec
    eye = np.eye(n)
    K = np.kron(eye, B) + np.kron(B, eye)
    qinf = np.linalg.solve(K, -Q.flatten(order="F")).reshape((n, n), order="F")
    qinf = 0.5 * (qinf + qinf.T)
    resid = np.abs(B @ qinf + qinf @ B.T + Q).max()
    if resid > _LYAP_TOL * scale:
        raise NotSPDError(f"Lyapunov residual {resid:.3e} too large")
    qinf_sqrt, qinf_inv_sqrt, logdet = _spd_sqrt(qinf, "Qinf")
    qinf_inv = qinf_inv_sqrt @ qinf_inv_sqrt

    vals, vecs = np.linalg.eig(B)
    try:
        vecs_inv = np.linalg.inv(vecs)
        eig_cond = float(np.linalg.cond(vecs))
    except np.linalg.LinAlgError:
        vecs_inv = np.eye(n, dtype=complex)
        eig_cond = np.inf
    return OUModel(n=n, Q=Q, B=B, Qinf=qinf, Qinf_inv=qinf_inv,
                   Qinf_sqrt=qinf_sqrt, logdet_Qinf=logdet,
                   spectral_abscissa=abscissa, eig_vals=vals, eig_vecs=vecs,
                   eig_vecs_inv=vecs_inv, eig_cond=eig_cond)


def standard_model(n: int = 1) -> OUModel:
    """Q = 2I, B = -I; the classical kernel with Qinf = I."""
    return build_model(2.0 * np.eye(n), -np.eye(n))


def expm_stack(model: OUModel, ts: np.ndarray) -> np.ndarray:
    """e^(t B) for an array of times, (m, n, n): from B's eigenvectors
    where they are well conditioned (_EXPM_EIG_COND), else by scipy."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if model.eig_cond <= _EXPM_EIG_COND:
        phase = np.exp(ts[:, None] * model.eig_vals[None, :])
        out = np.einsum("ij,mj,jk->mik", model.eig_vecs, phase,
                        model.eig_vecs_inv)
        return np.ascontiguousarray(out.real)
    import scipy.linalg
    return scipy.linalg.expm(ts[:, None, None] * model.B)


def _qt_stack(model: OUModel, ts: np.ndarray, exp_tB: np.ndarray) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = model.Qinf[None] - np.einsum("mij,jk,mlk->mil", exp_tB, model.Qinf,
                                       exp_tB)
    small = ts < _QT_SERIES_T
    if np.any(small):
        term = model.Q.copy()
        acc = np.zeros((small.sum(), model.n, model.n))
        tp = ts[small]
        fact = 1.0
        power = tp.copy()
        for k in range(1, _QT_SERIES_TERMS + 1):
            fact *= k
            acc += (power / fact)[:, None, None] * term[None]
            power = power * tp
            term = model.B @ term + term @ model.B.T
        out[small] = acc
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@dataclass(frozen=True)
class Propagators:
    """The semigroup's matrix functions of t stacked over a time grid,
    shared across points: e^(tB), Qt, Qt^-1 and log det Qt.  Nothing here
    inverts e^(tB); the kernel's forms are kernel.kernel_forms'."""

    ts: np.ndarray
    exp_tB: np.ndarray        # e^(tB)
    Qt: np.ndarray
    Qt_inv: np.ndarray
    logdet_Qt: np.ndarray

    def __len__(self):
        return self.ts.size


def _inverse_fails(q: np.ndarray) -> bool:
    """Whether the matrix q is singular or its inverse is not finite."""
    try:
        return not np.isfinite(np.linalg.inv(q)).all()
    except np.linalg.LinAlgError:
        return True


def propagators(model: OUModel, ts) -> Propagators:
    """The Propagators on the times ts, each positive and finite.  A time
    so small that Qt is singular or its inverse overflows, as where Qt is
    subnormal, is a NumericalOverflowError naming the first such time."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not ((ts > 0) & np.isfinite(ts)).all():
        raise NonPositiveTimeError("propagator times must be positive and "
                                   "finite")
    exp_tB = expm_stack(model, ts)
    Qt = _qt_stack(model, ts, exp_tB)
    try:
        Qt_inv = np.linalg.inv(Qt)
        fails = not np.isfinite(Qt_inv).all()
    except np.linalg.LinAlgError:
        fails = True
    if fails:
        first = next(t for t, q in zip(ts, Qt) if _inverse_fails(q))
        raise NumericalOverflowError(
            f"Qt is singular or its inverse overflows at t = {float(first)}")
    Qt_inv = 0.5 * (Qt_inv + np.swapaxes(Qt_inv, -1, -2))
    logdet = np.linalg.slogdet(Qt)[1]
    if np.min(np.linalg.eigvalsh(Qt)) <= 0:
        raise NotSPDError("Qt lost positive definiteness on the grid")
    return Propagators(ts=ts, exp_tB=exp_tB, Qt=Qt, Qt_inv=Qt_inv,
                       logdet_Qt=logdet)


def isotropic_rates(model: OUModel) -> tuple[float, float] | None:
    """(b, lam) when B = -b I and Qinf = lam I exactly, else None.  On
    such models every matrix function of t is a multiple of I: e^(tB) is
    s = e^(-bt) times I and Qt is lam (1 - s^2) I."""
    b, lam = -float(model.B[0, 0]), float(model.Qinf[0, 0])
    eye = np.eye(model.n)
    if np.array_equal(model.B, -b * eye) and \
            np.array_equal(model.Qinf, lam * eye):
        return b, lam
    return None


def commensurate_rates(model: OUModel) -> tuple[float, np.ndarray] | None:
    """(b, k) when B is diagonalizable with real eigenvalues -k_i b, the
    k_i positive integers with no common factor and at most
    _MAX_RATE_MULTIPLE, k aligned with model.eig_vals; else None.

    On such models e^(tB) = V diag(s^k_i) V^-1 with s = e^(-bt), so every
    matrix function of t is a polynomial in s.  Refused: a complex
    spectrum; eigenvalue ratios that are not integers to _RATE_TOL, or
    that need a multiple above the cap; and eigenvectors that are
    conditioned worse than _MAX_EIGVEC_COND (model.eig_cond, which is
    inf when they do not invert and huge for a defective B)."""
    vals = model.eig_vals
    if np.any(np.imag(vals) != 0) or model.eig_cond > _MAX_EIGVEC_COND:
        return None
    lam = -np.real(vals)
    ratio = lam / lam.min()
    for q in range(1, _MAX_RATE_MULTIPLE + 1):
        k = np.rint(q * ratio)
        if k.max() > _MAX_RATE_MULTIPLE:
            break
        if np.all(np.abs(q * ratio - k) <= _RATE_TOL * k):
            return float(lam.sum() / k.sum()), k.astype(int)
    return None


def quadratic_r(model: OUModel, x, out=None) -> np.ndarray:
    """R(x) = <Qinf^-1 x, x> / 2, vectorized over leading axes, into out
    when given (an array of the leading shape).

    The terms (x_i Qinf^-1_ij) x_j are summed in (i, j) order, so a
    point's R has the same bits alone as in any batch, whatever the
    layout of x.
    """
    x = np.asarray(x, dtype=float)
    n = model.n
    if x.shape[-1] != n:
        raise DimensionError(f"points must have last axis {n}")
    q = model.Qinf_inv
    acc = np.multiply(x[..., 0], q[0, 0], out=out)
    acc *= x[..., 0]
    for k in range(1, n * n):
        i, j = divmod(k, n)
        acc += (x[..., i] * q[i, j]) * x[..., j]
    acc *= 0.5
    return acc


def model_from_dict(d: dict) -> OUModel:
    try:
        n = int(d["n"])
        Q = np.asarray(d["Q"], dtype=float).reshape(n, n)
        B = np.asarray(d["B"], dtype=float).reshape(n, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"bad model specification: {exc}") from None
    return build_model(Q, B)
