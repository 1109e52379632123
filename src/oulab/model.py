"""Ornstein-Uhlenbeck model data: diffusion Q, stable drift B and the
covariances they generate.

Conventions.  The generator is (1/2)tr(Q D^2) + <Bx, D>.  The finite-time
covariance is Qt = integral_0^t e^(sB) Q e^(sB*) ds, the invariant one
solves B Qinf + Qinf B^T + Q = 0, and the group Dt = Qinf e^(-tB^T) Qinf^-1
carries the polar-type decomposition used by the ring geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, NonPositiveTimeError, NotSPDError,
                     NotStableError)

_SYM_TOL = 1e-12
_LYAP_TOL = 1e-10
# below this, Qt = Qinf - e^(tB) Qinf e^(tB^T) loses digits to cancellation;
# a short exponential series is exact to machine precision instead
_QT_SERIES_T = 1e-3
_QT_SERIES_TERMS = 12
# switch between the direct small-t quadratic form and the factored large-t
# one (all factors decaying) in the Mehler kernel exponent
T_SWITCH = 1.0


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
    # eigendecomposition of B for batched propagators; eig_ok False means
    # ill-conditioned eigenvectors, fall back to scipy expm per time
    eig_vals: np.ndarray = field(repr=False)
    eig_vecs: np.ndarray = field(repr=False)
    eig_vecs_inv: np.ndarray = field(repr=False)
    eig_ok: bool = field(repr=False)


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
        eig_ok = np.linalg.cond(vecs) < 1e8
    except np.linalg.LinAlgError:
        vecs_inv = np.eye(n, dtype=complex)
        eig_ok = False
    return OUModel(n=n, Q=Q, B=B, Qinf=qinf, Qinf_inv=qinf_inv,
                   Qinf_sqrt=qinf_sqrt, logdet_Qinf=logdet,
                   spectral_abscissa=abscissa, eig_vals=vals, eig_vecs=vecs,
                   eig_vecs_inv=vecs_inv, eig_ok=eig_ok)


def standard_model(n: int = 1) -> OUModel:
    """Q = 2I, B = -I; the classical kernel with Qinf = I."""
    return build_model(2.0 * np.eye(n), -np.eye(n))


def expm_stack(model: OUModel, ts: np.ndarray) -> np.ndarray:
    """e^(t B) for an array of times, (m, n, n)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if model.eig_ok:
        phase = np.exp(ts[:, None] * model.eig_vals[None, :])
        out = np.einsum("ij,mj,jk->mik", model.eig_vecs, phase,
                        model.eig_vecs_inv)
        return np.ascontiguousarray(out.real)
    import scipy.linalg
    return np.stack([scipy.linalg.expm(t * model.B) for t in ts])


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
    """Matrix functions of t stacked over a time grid, shared across points."""

    ts: np.ndarray
    exp_tB: np.ndarray        # e^(tB)
    Qt: np.ndarray
    Qt_inv: np.ndarray
    logdet_Qt: np.ndarray
    Dt: np.ndarray            # Qinf e^(-tB^T) Qinf^-1
    Dmt: np.ndarray           # D_{-t}
    A_small: np.ndarray       # Qt^-1 - Qinf^-1, used for t <= T_SWITCH
    M_large: np.ndarray       # Dt^T A Dt in the cancellation-free form
    N: np.ndarray             # M_large - Qinf^-1, resolvent above T_SWITCH

    def __len__(self):
        return self.ts.size


def propagators(model: OUModel, ts) -> Propagators:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not ((ts > 0) & np.isfinite(ts)).all():
        raise NonPositiveTimeError("propagator times must be positive and "
                                   "finite")
    exp_tB = expm_stack(model, ts)
    Qt = _qt_stack(model, ts, exp_tB)
    Qt_inv = np.linalg.inv(Qt)
    Qt_inv = 0.5 * (Qt_inv + np.swapaxes(Qt_inv, -1, -2))
    sign, logdet = np.linalg.slogdet(Qt)
    if np.any(sign <= 0):
        raise NotSPDError("Qt lost positive definiteness on the grid")
    if np.min(np.linalg.eigvalsh(Qt)) <= 0:
        raise NotSPDError("Qt lost positive definiteness on the grid")

    # Dt has growing entries, Dmt decaying ones; e^(-tB^T) = inv(e^(tB))^T
    exp_tB_inv = np.linalg.inv(exp_tB)
    Dt = np.einsum("ij,mkj,kl->mil", model.Qinf, exp_tB_inv, model.Qinf_inv)
    Dmt = np.einsum("ij,mkj,kl->mil", model.Qinf, exp_tB, model.Qinf_inv)

    A_small = Qt_inv - model.Qinf_inv[None]
    A_small = 0.5 * (A_small + np.swapaxes(A_small, -1, -2))

    # Dt^T (Qt^-1 - Qinf^-1) Dt = Qinf^-1 + (I - S Qinf)^-1 S with
    # S = e^(tB^T) Qinf^-1 e^(tB); every factor decays, so this form holds
    # full precision where the direct difference cancels catastrophically.
    # For t <= T_SWITCH the resolvent becomes singular instead (S Qinf -> I),
    # so the direct product is used there; only the t > T_SWITCH rows are
    # ever consumed in that regime anyway.
    # N = M - Qinf^-1 is kept for the time slope, whose x-Hessian of log K
    # is -N: above T_SWITCH it is the resolvent term itself, below it the
    # difference, which is then dominated by M ~ 1/t and does not cancel.
    M = np.empty_like(A_small)
    N = np.empty_like(A_small)
    lg = ts > T_SWITCH
    if np.any(lg):
        S = np.einsum("mji,jk,mkl->mil", exp_tB[lg], model.Qinf_inv,
                      exp_tB[lg])
        eye = np.eye(model.n)
        N[lg] = np.linalg.solve(eye[None] - S @ model.Qinf, S)
        M[lg] = model.Qinf_inv[None] + N[lg]
    if np.any(~lg):
        M[~lg] = np.einsum("mji,mjk,mkl->mil", Dt[~lg], A_small[~lg],
                           Dt[~lg])
    M_large = 0.5 * (M + np.swapaxes(M, -1, -2))
    N[~lg] = M_large[~lg] - model.Qinf_inv[None]
    N = 0.5 * (N + np.swapaxes(N, -1, -2))
    return Propagators(ts=ts, exp_tB=exp_tB, Qt=Qt, Qt_inv=Qt_inv,
                       logdet_Qt=logdet, Dt=Dt, Dmt=Dmt,
                       A_small=A_small, M_large=M_large, N=N)


def quadratic_r(model: OUModel, x) -> np.ndarray:
    """R(x) = <Qinf^-1 x, x> / 2, vectorized over leading axes.

    The terms (x_i Qinf^-1_ij) x_j are summed in (i, j) order, so a
    point's R has the same bits alone as in any batch, whatever the
    layout of x.
    """
    x = np.asarray(x, dtype=float)
    n = model.n
    if x.shape[-1] != n:
        raise DimensionError(f"points must have last axis {n}")
    q = model.Qinf_inv
    acc = (x[..., 0] * q[0, 0]) * x[..., 0]
    for k in range(1, n * n):
        i, j = divmod(k, n)
        acc = acc + (x[..., i] * q[i, j]) * x[..., j]
    return 0.5 * acc


def model_from_dict(d: dict) -> OUModel:
    try:
        n = int(d["n"])
        Q = np.asarray(d["Q"], dtype=float).reshape(n, n)
        B = np.asarray(d["B"], dtype=float).reshape(n, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionError(f"bad model specification: {exc}") from None
    return build_model(Q, B)
