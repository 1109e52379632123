"""Independent reference routes that the tests compare the package against.

None of them is on a probe's path: each is a slower or more direct way to
the same quantity, kept here as an oracle.
"""

import math
from itertools import combinations

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.stats import multivariate_normal

from oulab.errors import BadOrderError, EmptyPathError, TooLongError
from oulab.geometry import local_weight
from oulab.kernel import (_by_side, _logk_factors, _slope_factors,
                          kernel_forms, log_kernel_grid, log_kernel_pairs,
                          logk_time_slope_grid)
from oulab.model import propagators, quadratic_r
from oulab.quadrature import hermite_tensor
from oulab.semigroup import _bump_stacks, _tiles, bump_semigroup_grid
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


def group_dt_stack(model, ts) -> np.ndarray:
    """group_dt at every time of ts, (m, n, n)."""
    return np.array([group_dt(model, t) for t in np.atleast_1d(ts)])


def covariance_qt(model, t: float) -> np.ndarray:
    """Qt = int_0^t e^(sB) Q e^(sB^T) ds by scipy's matrix exponential: up
    to t = 1 from Van Loan's block exponential of [[-B, Q], [0, B^T]] t,
    whose growing corner loses digits past it; above t = 1 as
    Qinf - e^(tB) Qinf e^(tB^T), which no longer cancels there."""
    n = model.n
    if t > 1.0:
        e = scipy.linalg.expm(float(t) * model.B)
        return model.Qinf - e @ model.Qinf @ e.T
    block = np.block([[-model.B, model.Q], [np.zeros((n, n)), model.B.T]])
    e = scipy.linalg.expm(float(t) * block)
    return e[n:, n:].T @ e[:n, n:]


def gamma_density(model, t: float, x) -> np.ndarray:
    """Density of the centered Gaussian gamma_t (t = inf for the invariant
    one) by scipy.stats."""
    cov = model.Qinf if t == np.inf else covariance_qt(model, t)
    return multivariate_normal.pdf(x, mean=np.zeros(model.n), cov=cov)


def kernel(model, t: float, x, u) -> float:
    """K_t(x, u) at one time, as e^{log K} from log_kernel_pairs."""
    lk = log_kernel_pairs(model, np.array([float(t)]), x, u)[0]
    return float(np.exp(lk))


def kernel_dt_raw(model, t: float, x, u, h: float) -> float:
    """Plain central difference of K itself at explicit step h, for
    convergence-order measurements."""
    kp = kernel(model, t + h, x, u)
    km = kernel(model, t - h, x, u)
    return (kp - km) / (2 * h)


def log_kernel_grid_einsum(model, props, x, u):
    """log K - R(x) on a pairs x times grid by the two einsum contractions
    the package used before its fixed-order evaluator: the direct form in
    w = u - Dt x for t <= T_SWITCH, the form in v = D_{-t} u - x above."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    f = kernel_forms(model, props)
    small = f.small
    large = ~small
    q = np.empty((x.shape[0], len(props)))
    if np.any(small):
        w = u[:, None, :] - np.einsum("mij,pj->pmi", f.Dt, x)
        q[:, small] = np.einsum("pmi,mij,pmj->pm", w, f.A, w)
    if np.any(large):
        v = np.einsum("mij,pj->pmi", f.Dmt, u) - x[:, None, :]
        q[:, large] = np.einsum("pmi,mij,pmj->pm", v, f.M[large], v)
    const = 0.5 * (model.logdet_Qinf - props.logdet_Qt)
    return -0.5 * q + const[None, :]


# Frozen copies of the kernel's fixed-order evaluators as they were before
# they accumulated in place: one new array for every product and sum.


def dot_allocating(row, vec):
    """sum_j row[j] vec[j], in j order, one new array per step."""
    acc = row[0] * vec[0]
    for j in range(1, len(vec)):
        acc = acc + row[j] * vec[j]
    return acc


def _grid_operands(x, u):
    """Pairs x, u (p, n) as (n, p, 1) operands against the times."""
    return tuple(np.atleast_2d(np.asarray(v, dtype=float)).T[:, :, None]
                 for v in (x, u))


def logk_eval_allocating(model, factors, x, u):
    """log K - R(x) from the per-time factors (P, R, G, const), for points
    x and u (n, ...) that broadcast against the times."""
    P, R, G, const = factors[:4]
    n = model.n
    y = [dot_allocating(P[i], u) - dot_allocating(R[i], x)
         for i in range(n)]
    gy = [dot_allocating(G[i], y) for i in range(n)]
    return -0.5 * dot_allocating(gy, y) + const


def slope_eval_allocating(model, factors, x, u):
    """(d/dt log K, rounding floor) from the per-time factors (C, N, h0,
    kappa), for points as in logk_eval_allocating."""
    C, N, h0, kappa = factors
    n = model.n
    g = [dot_allocating(C[i], u) - dot_allocating(N[i], x)
         for i in range(n)]
    qg = [dot_allocating(model.Q[i], g) for i in range(n)]
    bx = [dot_allocating(model.B[i], x) for i in range(n)]
    half_quad = 0.5 * dot_allocating(qg, g)
    lin = dot_allocating(bx, g)
    slope = h0 + half_quad + lin
    return slope, kappa * (np.abs(h0) + half_quad + np.abs(lin))


def log_kernel_grid_allocating(model, props, x, u):
    """log K - R(x) on the pairs x times grid in one allocating pass."""
    return logk_eval_allocating(model, _logk_factors(model, props, False),
                                *_grid_operands(x, u))


def log_kernel_pairs_allocating(model, ts, x, u):
    """log K with one time per pair in one allocating pass."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    props = propagators(model, ts)
    return (logk_eval_allocating(model, _logk_factors(model, props, False),
                                 x.T, u.T)
            + quadratic_r(model, x))


def slope_grid_allocating(model, props, x, u):
    """(slope, floor) on the pairs x times grid in one allocating pass."""
    return slope_eval_allocating(model, _slope_factors(model, props),
                                 *_grid_operands(x, u))


def tail_tv_allocating(model, grid, x, u):
    """Per pair, the total variation of K / e^{R(x)} over the grid."""
    lk = log_kernel_grid_allocating(model, propagators(model, grid), x, u)
    return np.abs(np.diff(np.exp(lk), axis=1)).sum(axis=1)


def slope_lyapunov(model, props, x, u):
    """d/dt log K for every pair of x, u (p, n) and every time of props,
    (p, m), by the form in which the Lyapunov equation has cancelled the
    x-quadratic: h0 + <Q w, w>/2 - <x, V y> with w = F y and V = Qinf^-1
    B Qinf F.  Up to T_SWITCH y = u - Dt x and F = Dt^T A.  Above it y =
    D_{-t} u - x and F = M, and the terms of <Q w, w>/2 + <y, V y> that
    the Lyapunov equation cancels once more are left out: with x = z - y,
    z = D_{-t} u, the slope is h0 + <H y, y>/2 - <z, V y>, H = N Q N -
    B^T N - N B.  The factors are the package's (kernel_forms), each read
    on its own side of T_SWITCH: the Lyapunov cancellation above it holds
    to the slope floor only with D_{-t} rounded as M and N are.  The sums
    run in extended precision, so that the route's own rounding stays
    below the package's slope floor."""
    ld = np.longdouble
    f = kernel_forms(model, props)
    small, eye = f.small, np.eye(model.n)
    Q, B = model.Q.astype(ld), model.B.astype(ld)
    x, u = np.asarray(x, dtype=ld), np.asarray(u, dtype=ld)
    Dt, Dmt = (_by_side(small, *sides).astype(ld)
               for sides in ((f.Dt, eye), (eye, f.Dmt)))
    N = f.N.astype(ld)
    F = f.M.astype(ld)
    F[small] = np.einsum("mji,mjk->mik", Dt[small], f.A.astype(ld))
    V = np.einsum("ij,jk,kl,mlp->mip", model.Qinf_inv.astype(ld), B,
                  model.Qinf.astype(ld), F)
    z = np.einsum("mij,pj->pmi", Dmt, u)
    y = np.where(small[None, :, None],
                 u[:, None, :] - np.einsum("mij,pj->pmi", Dt, x),
                 z - x[:, None, :])
    BN = np.einsum("ji,mjk->mik", B, N)
    H = np.where(small[:, None, None],
                 np.einsum("mji,jk,mkl->mil", F, Q, F),
                 np.einsum("mij,jk,mkl->mil", N, Q, N)
                 - BN - np.swapaxes(BN, 1, 2))
    lin = np.where(small[None, :, None], x[:, None, :], z)
    h0 = -0.5 * np.einsum("ij,mji->m", Q, N)
    return (h0 + 0.5 * np.einsum("pmi,mij,pmj->pm", y, H, y)
            - np.einsum("pmi,mij,pmj->pm", lin, V, y)).astype(float)


def sympy_slope_numerator(Q, B, x, u) -> list:
    """The exact coefficients, highest power first, of the polynomial N in
    tau = 1 - e^{-bt} with d/dt log K_t(x, u) = -N (b s) / (2 tau^2 d^2),
    for a 2-d upper triangular B with eigenvalues -k_1 b, -k_2 b, that are
    equal only where B is diagonal; every entry a sympy Rational.

    e^{tB} comes from its triangular closed form, Qinf from the Lyapunov
    equation solved exactly, and d = det Qt / tau^2; then N = -2 tau^2 d^2
    d/dtau log K, differentiated and cancelled by sympy."""
    import sympy as sp
    tau = sp.Symbol("tau")
    Q, B = sp.Matrix(Q), sp.Matrix(B)
    x, u = sp.Matrix(x), sp.Matrix(u)
    (l1, c), l2 = B[0, :], B[1, 1]
    b = sp.gcd(sp.Rational(l1), sp.Rational(l2))
    s1, s2 = ((1 - tau) ** int(-lam / b) for lam in (l1, l2))
    off = c * (s1 - s2) / (l1 - l2) if l1 != l2 else 0
    E = sp.Matrix([[s1, off], [0, s2]])
    q11, q12, q22 = sp.symbols("q11 q12 q22")
    qinf = sp.Matrix([[q11, q12], [q12, q22]])
    qinf = qinf.subs(sp.solve(list(B * qinf + qinf * B.T + Q),
                              [q11, q12, q22]))
    qt = (qinf - E * qinf * E.T).applyfunc(sp.expand)
    det = sp.expand(qt.det())
    d = sp.cancel(det / tau ** 2)
    v = u - E * x
    quad = sp.expand((v.T * qt.adjugate() * v)[0, 0])
    # log K = const - log(det Qt) / 2 - <Qt^-1 v, v> / 2
    slope = -sp.diff(det, tau) / (2 * det) \
        - sp.diff(quad / det, tau) / 2
    num, den = sp.fraction(sp.cancel(-2 * tau ** 2 * d ** 2 * slope))
    assert den.free_symbols == set()
    return [coef / den for coef in sp.Poly(num, tau).all_coeffs()]


def slope_zeros_bisected(model, x, u, t_interval, n_grid: int = 4096,
                         rel: float = 1e-13) -> np.ndarray:
    """The zeros of t -> d/dt log K_t(x, u) on the interval: the sign
    flips of logk_time_slope_grid on a log grid, each bisected in log t on
    the same slope until its bracket is rel wide."""
    from oulab.kernel import _sign_changes, _sign_tol
    x, u = (np.asarray(v, dtype=float).reshape(1, model.n) for v in (x, u))
    grid = np.geomspace(*t_interval, n_grid)
    slope, floor = logk_time_slope_grid(model, propagators(model, grid), x,
                                        u)
    _, left, right = _sign_changes(slope, _sign_tol(floor))
    lo, hi, left_sign = grid[left], grid[right], np.sign(slope[0, left])
    while left.size and np.max(hi / lo) > 1.0 + rel:
        mid = np.sqrt(lo * hi)
        sm, _ = logk_time_slope_grid(model, propagators(model, mid), x, u)
        same = np.sign(sm[0]) == left_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return np.sqrt(lo * hi)


def poly_counts_companion(coef, mag, lo: float, hi: float) -> np.ndarray:
    """Per row of coef (p, deg + 1, lowest power first), the sign changes
    of its polynomial on [lo, hi], decided at the ends and at the
    midpoints between consecutive real parts of its roots (batched
    companion eigenvalues) clipped to [lo, hi]; a value within 8 deg eps
    of its magnitude (mag at the point) has no sign.  The route the
    Bernstein isolator replaced: it states no bound on the roots it may
    miss, and a double root counts 0 or 2 by the sign between."""
    from oulab.kernel import _flip_counts

    def horner(coef, ts):
        acc = np.repeat(coef[:, -1:], ts.shape[1], axis=1)
        for j in range(coef.shape[1] - 2, -1, -1):
            acc *= ts
            acc += coef[:, j, None]
        return acc

    p, deg = coef.shape[0], coef.shape[1] - 1
    comp = np.zeros((p, deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -coef[:, :-1] / coef[:, -1:]
    comp[~np.isfinite(comp).all(axis=(1, 2))] = 0.0
    cuts = np.sort(np.clip(np.linalg.eigvals(comp).real, lo, hi), axis=1)
    ends = np.concatenate([np.full((p, 1), lo), cuts, np.full((p, 1), hi)],
                          axis=1)
    pts = np.concatenate([ends[:, :1], 0.5 * (ends[:, 1:] + ends[:, :-1]),
                          ends[:, -1:]], axis=1)
    tol = horner(mag, pts)
    tol *= 8 * deg * np.finfo(float).eps
    return _flip_counts(horner(coef, pts), tol)


def ratio_pieces_einsum(model, which, x, u, ts):
    """The c-independent pieces (a, b, dnorm) of a Gaussian bound's ratio
    (kernel._log_caps) on the whole (pairs, times) grid, from the package's
    log_kernel_grid and logk_time_slope_grid and einsum contractions: at
    rate c the log ratio is a + c b, less log(dnorm + e^{-ct}) for
    dkernel-large-t (dnorm None otherwise)."""
    pr = propagators(model, ts)
    lk = log_kernel_grid(model, pr, x, u)
    if which != "kernel-small-t":
        slope, _ = logk_time_slope_grid(model, pr, x, u)
        with np.errstate(divide="ignore"):
            lk = lk + np.log(np.abs(slope))             # log |dK/dt|
    if which == "dkernel-large-t":
        dv = np.einsum("mij,pj->pmi", group_dt_stack(model, -ts), u)
        b = np.einsum("pmi,pmi->pm", dv - x[:, None, :], dv - x[:, None, :])
        return lk, b, np.linalg.norm(dv, axis=2)
    w = u[:, None, :] - np.einsum("mij,pj->pmi", group_dt_stack(model, ts), x)
    b = np.einsum("pmi,pmi->pm", w, w) / ts[None, :]
    a = lk + 0.5 * model.n * np.log(ts)[None, :]
    if which == "dkernel-small-t":
        a = a - np.log(1.0 / ts[None, :] + np.linalg.norm(x, axis=1)[:, None]
                       / np.sqrt(ts)[None, :])
    return a, b, None


def sampled_log_ratio(model, which, x, u, ts, c):
    """A Gaussian bound's log ratio at rate c for every pair of x, u (p, n)
    and every time of ts, (p, m), from ratio_pieces_einsum."""
    a, b, dnorm = ratio_pieces_einsum(model, which, x, u, ts)
    vals = a + c * b
    if dnorm is not None:
        vals = vals - np.log(dnorm + np.exp(-c * ts))
    return vals


def calibration_pairs(model, n_samples: int, seed: int):
    """(x, u) pairs for the bound ratios: 2 N(0, I) pairs, and one in a
    hundred replaced by a far spike along the least-decaying direction d
    of Qinf^-1: u = +-r d with r from 5 to 30 and alternating sign, and
    x = r d / 4."""
    gen = np.random.default_rng(seed)
    x = 2.0 * gen.standard_normal((n_samples, model.n))
    u = 2.0 * gen.standard_normal((n_samples, model.n))
    d = np.linalg.eigh(model.Qinf_inv)[1][:, 0]
    spikes = max(4, n_samples // 100)
    pos = np.arange(spikes) * n_samples // spikes
    radii = np.linspace(5.0, 30.0, spikes) * (-1.0) ** np.arange(spikes)
    u[pos] = radii[:, None] * d
    x[pos] = np.abs(radii)[:, None] * d / 4.0
    return x, u


def bound_maximisers(model, which, ts, c, radius: float = 1e6):
    """Candidate maximisers (x, u), (4, m, n) each, of a Gaussian bound's
    ratio at rate c at every time of ts, from the closed form of
    kernel._log_caps derived anew.  In the bound's variable y (u - Dt x,
    or D_{-t} u - x for dkernel-large-t) the candidates are y = 0, y at
    the stationary radius of the quadratic term along the extreme
    eigenvectors of P^{-1/2} H P^{-1/2}, and y along the top singular
    direction of V P^{-1/2}.  The quadratic term peaks at |x| = 0 (small
    t) or D_{-t} u = 0 (large t), and the linear one as that norm grows:
    it is taken at radius, along -sign(alpha) V y.  Dt comes from scipy's
    matrix exponential (group_dt), A, M and N from the package."""
    f = kernel_forms(model, propagators(model, ts))
    Dt = group_dt_stack(model, ts)
    m, n = ts.size, model.n
    small = which != "dkernel-large-t"
    shift = 2.0 * c / ts if small else np.full(m, 2.0 * c)
    lam, vec = np.linalg.eigh((f.A if small else f.M)
                              - shift[:, None, None] * np.eye(n))
    root = np.einsum("mij,mj,mkj->mik", vec, lam ** -0.5, vec)
    F = np.einsum("mji,mjk->mik", Dt, f.A) if small else f.M
    V = np.einsum("ij,jk,kl,mlp->mip", model.Qinf_inv, model.B, model.Qinf,
                  F)
    H = np.einsum("mji,jk,mkl->mil", F, model.Q, F)
    if not small:
        H = H + V + np.swapaxes(V, 1, 2)
    h0 = -0.5 * np.einsum("ij,mji->m", model.Q, f.N)
    hs, es = np.linalg.eigh(np.einsum("mij,mjk,mkl->mil", root, H, root))
    zs = [np.zeros((m, n))]
    for j in (0, -1):
        s = 2.0 * np.maximum(1.0 - h0 / hs[:, j], 0.0)
        zs.append(np.sqrt(s)[:, None] * es[:, :, j])
    zs.append(np.linalg.svd(np.einsum("mij,mjk->mik", V, root))[2][:, 0, :])
    xs, us = [], []
    for k, z in enumerate(zs):
        y = np.einsum("mij,mj->mi", root, z)
        v = np.zeros((m, n))
        if k == len(zs) - 1:
            w = np.einsum("mij,mj->mi", F, y)
            vy = np.einsum("mij,mj->mi", V, y)
            alpha = h0 + 0.5 * np.einsum("mi,ij,mj->m", w, model.Q, w)
            if not small:
                alpha = alpha + np.einsum("mi,mi->m", y, vy)
            v = np.where(alpha < 0, 1.0, -1.0)[:, None] * radius * vy \
                / np.linalg.norm(vy, axis=1)[:, None]
        if small:
            xs.append(v)
            us.append(y + np.einsum("mij,mj->mi", Dt, v))
        else:
            xs.append(v - y)
            us.append(np.einsum("mij,mj->mi", Dt, v))
    return np.array(xs), np.array(us)


def adaptive_integral(f, measure, half_width: float = 10.0) -> float:
    """scipy adaptive quadrature over mean +- half_width * sqrt(cov), for
    cross-checks of the tensor rule in dimensions 1 and 2."""
    n = measure.n
    L = measure.sqrt_cov

    if n == 1:
        def g(z):
            x = measure.mean + L[0, 0] * np.atleast_1d(z)
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * np.exp(measure.log_density(x[None, :]))[0] * L[0, 0]
        val, _ = scipy.integrate.quad(g, -half_width, half_width, limit=400)
        return float(val)
    if n == 2:
        det = abs(np.linalg.det(L))

        def g(z2, z1):
            x = measure.mean + L @ np.array([z1, z2])
            fx = float(np.asarray(f(x[None, :])).reshape(-1)[0])
            return fx * np.exp(measure.log_density(x[None, :]))[0] * det
        val, _ = scipy.integrate.dblquad(g, -half_width, half_width,
                                         -half_width, half_width)
        return float(val)
    raise BadOrderError("adaptive cross-check supports n <= 2 only")


def split_blocks(model, bump, props, x, order=None):
    """The Gaussian blocks of the near/far split, built as
    local_global_grid builds them: means (p, m, n), square roots L_t of
    the covariances (m, n, n), and the tensor rule's nodes z (q, n) and
    weights (q,)."""
    n = model.n
    z, wq = hermite_tensor(n, order)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w2 = bump.width ** 2
    prec = props.Qt_inv + np.eye(n)[None] / w2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    wv, vv = np.linalg.eigh(cov)
    L = np.einsum("mij,mj,mkj->mik", vv, np.sqrt(wv), vv)
    base_mean = np.einsum("mij,j->mi", cov, bump.center / w2)
    ex = np.einsum("mij,pj->pmi", props.exp_tB, x)
    mean = np.einsum("mij,mjk,pmk->pmi", cov, props.Qt_inv, ex) \
        + base_mean[None, :, :]
    return mean, L, z, wq


def block_nodes(mean, L, z):
    """Every node mean + L_t z_k of every block, (p, m, q, n)."""
    return mean[:, :, None, :] + np.einsum("mij,qj->mqi", L, z)[None]


def bump_semigroup_grid_einsum(model, bump, props, x):
    """Closed-form H_t f over points x grid times as it ran before the
    blocked evaluator: both sums as einsum contractions over (p, m, n)
    stacks."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sinv, log_detfac = _bump_stacks(model, bump, props)
    z = np.einsum("mij,pj->pmi", props.exp_tB, x) \
        - bump.center[None, None, :]
    q = np.einsum("pmi,mij,pmj->pm", z, sinv, z)
    return bump.amplitude * np.exp(log_detfac[None, :] - 0.5 * q)


def local_global_grid_all_nodes(model, bump, props, x, order=None):
    """The near/far split with no per-block decision: every node of every
    (point, time) block goes through local_weight.  The near weight sums
    eta * w over each tile of the rule in tile order, a repeated slot of
    a short tile weighing 0.0, and then the tiles in order, one term at a
    time.  Each node's offset L_t z sums L_ij z_j over j in order, where
    block_nodes' einsum may add them in vector lanes for n >= 3."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mean, L, z, wq = split_blocks(model, bump, props, x, order)
    n = model.n
    offset = np.zeros((len(props), z.shape[0], n))
    for i in range(n):
        acc = L[:, i, 0, None] * z[None, :, 0]
        for j in range(1, n):
            acc = acc + L[:, i, j, None] * z[None, :, j]
        offset[:, :, i] = acc
    eta = local_weight(model, x[:, None, None, :], mean[:, :, None, :]
                       + offset[None])
    tiles, first, _, _ = _tiles(z)
    terms = eta[:, :, tiles] * np.where(first, wq[tiles], 0.0)
    tile_sums = [terms[:, :, t, 0] for t in range(tiles.shape[0])]
    for t, acc in enumerate(tile_sums):
        for j in range(1, tiles.shape[1]):
            acc = acc + terms[:, :, t, j]
        tile_sums[t] = acc
    w = tile_sums[0]
    for acc in tile_sums[1:]:
        w = w + acc
    mass = bump_semigroup_grid(model, bump, props, x)
    loc = mass * w
    return loc, mass - loc


def near_weights_rule_order(model, bump, props, x, order=None):
    """The near weight (p, m) as local_global_grid summed it over whole
    rows: eta * w over all nodes in the rule's order, numpy's pairwise
    sum of each contiguous row, with every node through local_weight."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mean, L, z, wq = split_blocks(model, bump, props, x, order)
    eta = local_weight(model, x[:, None, None, :], block_nodes(mean, L, z))
    return (eta * wq).sum(axis=-1)


def dp_fresh_columns(v: np.ndarray, rho: float) -> np.ndarray:
    """The quadratic prefix program over the subsequences of each row, with
    fresh temporaries for every column and increments below 1e-300 always
    flushed to zero before the rho-th power."""
    m, n = v.shape
    best = np.zeros((m, n))
    for j in range(1, n):
        d = np.abs(v[:, j, None] - v[:, :j])
        d[d < 1e-300] = 0.0
        best[:, j] = np.max(best[:, :j] + d ** rho, axis=1)
    return np.max(best, axis=1)


def turning_points_nonzero(v: np.ndarray):
    """Endpoints and turning points of every row of a (paths, length)
    array by the index route the package used before its dense pass, on
    the whole array at once: the first point of each run of equal values
    from np.nonzero, then a run start stays at a row end or where the
    sign of the step between consecutive run starts flips."""
    with np.errstate(invalid="ignore"):
        rows, cols = np.nonzero(np.diff(v, axis=1, prepend=np.nan) != 0)
        w = v[rows, cols]
        s = np.sign(np.diff(w))
    edge = rows[1:] != rows[:-1]
    keep = np.ones(w.size, dtype=bool)
    keep[1:-1] = edge[:-1] | edge[1:] | (s[:-1] != s[1:])
    return w[keep], np.bincount(rows[keep], minlength=v.shape[0])


def exceedance_sorted(values, levels) -> np.ndarray:
    """#{v > a} / values.size from one sort of the non-NaN values and a
    right-sided search, the form the probes used before the rank count."""
    v = np.asarray(values, dtype=float)
    s = np.sort(v[~np.isnan(v)])
    return (s.size - np.searchsorted(s, levels, side="right")) / v.size


def bootstrap_statistics_loop(v, alphas, idx, weighted: bool) -> np.ndarray:
    """The weak-type statistic of every resample v[idx[r]], one replicate
    at a time: sup of a lambda(a), or when weighted of a sqrt(log a)
    lambda(a) over the levels above e (0.0 if there is none)."""
    out = np.empty(len(idx))
    for r, rows in enumerate(idx):
        lam = exceedance_sorted(v[rows], alphas)
        w = alphas * lam
        if weighted:
            mask = alphas > math.e
            if not mask.any():
                out[r] = 0.0
                continue
            w = alphas[mask] * np.sqrt(np.log(alphas[mask])) * lam[mask]
        out[r] = float(w.max()) if w.size else 0.0
    return out


def tail_integral_mpmath(model, x, u, splits, dps: int = 20) -> float:
    """int_1^50 |dK/dt| dt / e^{R(x)} for one pair by mpmath's quadrature
    in dps digits, on pieces split at the given times in (1, 50) and at
    16 log-spaced ones, since K may climb by tens of orders in a piece.

    K / e^{R(x)} = (det Qinf / det Qt)^{1/2} exp(R(u) - R(x) - <Qt^-1 v,
    v>/2) with v = u - e^{tB} x, Qt = Qinf - e^{tB} Qinf e^{tB^T}, e^{tB}
    from mpmath's eigenvectors of B and Qinf solved anew from B Qinf +
    Qinf B^T = -Q.  Its time derivative differentiates this Gaussian form
    directly, with dQt/dt = e^{tB} Q e^{tB^T} and dv/dt = -B e^{tB} x:

        d/dt log K = -tr(Qt^-1 Qt')/2 - <Qt^-1 v, v'>
                     + <Qt' Qt^-1 v, Qt^-1 v>/2."""
    import mpmath as mp
    n = model.n
    with mp.workdps(dps):
        B, Q = mp.matrix(model.B.tolist()), mp.matrix(model.Q.tolist())
        lyap, rhs = mp.zeros(n * n, n * n), mp.zeros(n * n, 1)
        for i in range(n):
            for j in range(n):
                rhs[n * i + j] = -Q[i, j]
                for k in range(n):
                    lyap[n * i + j, n * k + j] += B[i, k]
                    lyap[n * i + j, n * i + k] += B[j, k]
        vec = mp.lu_solve(lyap, rhs)
        qinf = mp.matrix([[vec[n * i + j] for j in range(n)]
                          for i in range(n)])
        xv, uv = mp.matrix(list(x)), mp.matrix(list(u))
        r_diff = ((uv.T * qinf ** -1 * uv)[0]
                  - (xv.T * qinf ** -1 * xv)[0]) / 2
        lam, vecs = mp.eig(B)
        vecs_inv = vecs ** -1

        def k_dot(t):
            e = (vecs * mp.diag([mp.exp(v * t) for v in lam])
                 * vecs_inv).apply(mp.re)
            qt = qinf - e * qinf * e.T
            qt_dot = e * Q * e.T
            w = qt ** -1 * (uv - e * xv)
            k = mp.sqrt(mp.det(qinf) / mp.det(qt)) * mp.exp(
                r_diff - (w.T * (uv - e * xv))[0] / 2)
            slope = (-sum((qt ** -1 * qt_dot)[i, i] for i in range(n)) / 2
                     + (w.T * B * e * xv)[0] + (w.T * qt_dot * w)[0] / 2)
            return k * slope

        cuts = np.union1d(np.geomspace(1.0, 50.0, 17), splits)
        return float(mp.quad(lambda t: abs(k_dot(t)),
                             [mp.mpf(float(c)) for c in cuts],
                             method="gauss-legendre"))
