"""Applying the semigroup to Gaussian bumps: direct quadrature, the
local/global splitting, time-grid variation, the near-kernel sweeps, and
the weak-type Monte Carlo probes.

Quadrature strategy.  Every integral is anchored on an explicitly known
Gaussian; for Gaussian bumps the anchor is the exact product of the bump
with the relevant transition Gaussian, so node placement follows the
integrand mass at every (x, t).  Gaussian bumps also admit closed-form
semigroup values, used as the fast path for Monte Carlo probes and
cross-checked against quadrature in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (AlphaTooSmallError, ArgumentRangeError, BadOrderError,
                     DimensionError, NonPositiveTimeError)
from .geometry import (annulus_indicator, eta_plateaus, local_weight,
                       polar_decompose)
from .kernel import _dot, _on_grid, _time_last, log_kernel_grid
from .model import OUModel, Propagators, propagators, quadratic_r
from .quadrature import (gauss_hermite_rule, gaussian_measure, hermite_tensor,
                         product_gaussian)
from .rng import substream
from .variation import exceedance, variation_batch

_TINY = 1e-300


@dataclass(frozen=True)
class GaussianBump:
    """f(u) = amplitude exp(-|u - center|^2 / (2 width^2)) on R^n, for
    points u (m, n)."""

    center: np.ndarray          # (n,)
    width: float
    amplitude: float

    def __call__(self, u):
        d = np.atleast_2d(np.asarray(u, dtype=float)) - self.center
        return self.amplitude * np.exp(
            -0.5 * np.einsum("mi,mi->m", d, d) / self.width ** 2)


def _model_point(model: OUModel, v, what: str) -> np.ndarray:
    """v as one point of the model's space, or a DimensionError naming
    what it is."""
    point = np.asarray(v, dtype=float)
    if point.size != model.n:
        raise DimensionError(f"{what} needs {model.n} coordinates, "
                             f"got {point.size}")
    return point.reshape(model.n)


def gaussian_bump(model: OUModel, center, width: float) -> GaussianBump:
    """The Gaussian bump about center whose amplitude makes its
    L^1(gamma_inf) norm 1."""
    if not (math.isfinite(width) and width > 0):
        raise DimensionError("bump width must be finite and positive")
    m = _model_point(model, center, "bump centre")
    if not np.isfinite(m).all():
        raise ArgumentRangeError("bump centre must be finite")
    ginf = gaussian_measure(np.zeros(model.n), model.Qinf)
    prec = np.eye(model.n) / width ** 2
    _, log_mass = product_gaussian(ginf, prec, m)
    return GaussianBump(center=m, width=float(width),
                        amplitude=math.exp(-log_mass))


# ---------------------------------------------------------------------------
# time grids: plain increasing arrays of positive times, built by
# _geometric_times and refined only by _refine


def _geometric_times(t_min: float, t_max: float,
                     points_per_decade: int) -> np.ndarray:
    """Geometric times from t_min to t_max, at least points_per_decade a
    decade and never fewer than two."""
    if not 0 < t_min < t_max:
        raise NonPositiveTimeError("need 0 < t_min < t_max")
    decades = math.log10(t_max / t_min)
    count = max(2, int(math.ceil(decades * points_per_decade)) + 1)
    return np.geomspace(t_min, t_max, count)


def _refine(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(refined, mids): the times with the geometric midpoint of every gap
    inserted, and those midpoints.  The old times stay, at the even
    places, so any variation along the times can only grow."""
    mids = np.sqrt(ts[:-1] * ts[1:])
    refined = np.empty(2 * ts.size - 1)
    refined[0::2], refined[1::2] = ts, mids
    return refined, mids


def t_max_for_tail(model: OUModel) -> float:
    """Truncation point for [1, inf) grids, at most 50: past it the kernel
    sits within 1e-9 of its limit, since deviations decay like
    exp(2 t x abscissa)."""
    sigma = -model.spectral_abscissa
    return float(min(50.0, max(10.0, math.log(1.0 / 1e-9) / (2.0 * sigma))))


# ---------------------------------------------------------------------------
# closed-form semigroup action on Gaussian bumps


def _bump_stacks(model: OUModel, bump: GaussianBump, props: Propagators):
    w2 = bump.width ** 2
    cov = props.Qt + w2 * np.eye(model.n)[None]
    sinv = np.linalg.inv(cov)
    sign, ld = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise NonPositiveTimeError("degenerate bump covariance")
    # det(I + Qt / w2) = det(Qt + w2 I) / w2^n
    log_detfac = -0.5 * (ld - model.n * math.log(w2))
    return sinv, log_detfac


def _bump_eval(bump: GaussianBump, factors: tuple, x):
    """H_t f from the factors (E, S, log_detfac) of bump_semigroup_grid,
    for points x (n, ...) whose shape broadcasts against the times."""
    E, S, log_detfac = factors
    n = bump.center.size
    z = [_dot(E[i], x) - bump.center[i] for i in range(n)]
    ij = [(i, j) for i in range(n) for j in range(n)]
    q = _dot([z[i] * S[i, j] for i, j in ij], [z[j] for _, j in ij])
    return bump.amplitude * np.exp(log_detfac - 0.5 * q)


def bump_semigroup_grid(model: OUModel, bump: GaussianBump,
                        props: Propagators, x, out=None) -> np.ndarray:
    """Closed-form H_t f for a Gaussian bump, over points x grid times, (p, m).

    The semigroup of a Gaussian is the Gaussian of the broadened
    covariance: H_t f(x) = A det(I + Qt/w^2)^{-1/2}
    exp(-<S z, z>/2), S = (Qt + w^2 I)^{-1}, z = e^{tB} x - center.

    Every sum runs in a fixed order (kernel._dot): z_i sums E_ij x_j
    (E = e^{tB}) over j in order and then subtracts c_i, and <S z, z>
    sums (z_i S_ij) z_j over (i, j) in row-major order.  The two einsum
    contractions over (p, m, n) stacks that this replaces summed <S z, z>
    in that order too, and z_i as well for n <= 2, so their bits are
    kept there.  For n >= 3 numpy's einsum adds the products of z_i in
    interleaved vector lanes, (E_i0 x_0 + E_i2 x_2) + E_i1 x_1 on a
    two-lane build, and for n = 2 it summed <S z, z> of a grid of one
    time and at most two points in another order than on larger grids;
    there the values move in the last bits, and they no longer depend on
    the build or on the size of the grid.

    The factors are laid out time last (one contiguous row over the times
    per matrix entry), and kernel._on_grid fills the grid in blocks of
    whole rows of about kernel._BLOCK_CELLS cells: every temporary stays
    in cache, no (p, m, n) stack is built, and the bits do not depend on
    the blocks.  The values land in the rows of out, a (p, m) array or
    view such as a strided column view, when given.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sinv, log_detfac = _bump_stacks(model, bump, props)
    if out is None:
        out = np.empty((x.shape[0], props.ts.size))
    factors = (_time_last(props.exp_tB), _time_last(sinv), log_detfac)
    for rows, val in _on_grid(partial(_bump_eval, bump, factors),
                              props.ts.size, x):
        out[rows] = val
    return out


# ---------------------------------------------------------------------------
# quadrature application


def apply_semigroup(model: OUModel, f: GaussianBump, x, t: float,
                    form: str = "kernel", order: int | None = None) -> float:
    """H_t f(x) by quadrature.

    kernel form integrates K_t(x, u) f(u) against gamma_inf, evaluating
    the kernel through its quadratic form; the transition form integrates
    f(e^{tB} x - y) against gamma_t.  Each is anchored on the exact product
    of its Gaussian with the bump, so node placement follows the integrand
    mass, and the density ratio to the anchor is what the rule averages.
    The two routes share no kernel formula.
    """
    if t <= 0:
        raise NonPositiveTimeError("semigroup time must be positive")
    x = _model_point(model, x, "point x")
    if form not in ("kernel", "kolmogorov"):
        raise BadOrderError(f"unknown form {form!r}")
    n = model.n
    prec = np.eye(n) / f.width ** 2
    props = propagators(model, np.array([float(t)]))
    ex = props.exp_tB[0] @ x
    if form == "kolmogorov":
        gt = gaussian_measure(np.zeros(n), props.Qt[0])
        anchor, _ = product_gaussian(gt, prec, ex - f.center)
        rule = gauss_hermite_rule(anchor, order)
        nodes = rule.nodes
        ratio = np.exp(gt.log_density(nodes) - anchor.log_density(nodes))
        return float(rule.weights @ (f(ex - nodes) * ratio))
    mu_t = gaussian_measure(ex, props.Qt[0])
    anchor, _ = product_gaussian(mu_t, prec, f.center)
    rule = gauss_hermite_rule(anchor, order)
    nodes = rule.nodes
    lk = log_kernel_grid(model, props, np.broadcast_to(x, nodes.shape),
                         nodes)[:, 0] + quadratic_r(model, x)
    ginf = gaussian_measure(np.zeros(n), model.Qinf)
    log_ratio = lk + ginf.log_density(nodes) - anchor.log_density(nodes)
    return float((rule.weights * f(nodes) * np.exp(log_ratio)).sum())


# undecided near/far blocks are expanded about this many nodes at a time
_SPLIT_NODES = 1 << 17
# consecutive nodes per axis in a tile of the tensor rule
_TILE = 8
# relative rounding margin on sqrt(2 R) of a block's nodes, per unit of
# the condition number of Qinf, and the absolute one
_BLOCK_MARGIN_REL = 1e-10
_BLOCK_MARGIN_ABS = 1e-12


def local_global_grid(model: OUModel, bump: GaussianBump,
                      props: Propagators, x, order: int | None = None,
                      out=None):
    """(near, far) parts of H_t f over points x grid, (p, m) each, for a
    Gaussian bump.

    For each t the integrand K_t(x,u) f(u) gamma_inf(u) is exactly
    mass(x,t) times a Gaussian in u, with mass the closed-form semigroup
    value; the split weight is then averaged under that Gaussian by a
    Gauss-Hermite rule, so the only quadrature error comes from the smooth
    cutoff itself.

    Each (point, time) block is decided before its nodes are expanded.
    The nodes are mean + L_t z_k, so in the norm |v|_R = sqrt(2 R(v)) a
    node lies within |Qinf^-1/2 L_t|_2 |z_k - z_c| of the centre
    mean + L_t z_c.  _node_r_range turns a centre c and radius r into
    [max(s - r, 0), s + r], s = |c|_R, widened by
    1e-10 kappa(Qinf) (s + r) + 1e-12, far more than the few n^2 eps kappa
    by which the rounding of the nodes and of R can move a node's computed
    R, and eta_plateaus tells where eta is the same constant over the
    whole range.  A block is bounded with z_c = 0.  Such a block's near
    weight is wq.sum() or 0.0: the weights times 1.0 are the weights
    themselves, and summing them alone is the same contiguous pairwise
    reduction as a row of eta * wq, so the bits match the expanded sum.

    The other blocks are split into tiles of _TILE consecutive nodes per
    axis (the last one shorter where the order is no multiple of _TILE),
    each bounded about the centre z_c of its nodes' box with radius
    max_k |z_k - z_c|.  At the default orders, and at orders 12 and 13, a
    tile's radius is at least 9 % of its block's, so |mean|_R is at most a
    dozen times the tile's s + r, and the same margin still dwarfs the
    rounding of the nodes.  A decided tile's eta is written as 1.0 or 0.0,
    and only the open tiles' nodes reach local_weight.  The row of eta is
    put back in the rule's node order before (eta * wq).sum(), so the near
    weight keeps its bits.  Undecided blocks are expanded in chunks of
    about _SPLIT_NODES nodes.

    The mass is evaluated last, into out when given (a (p, m) array or
    view), and the parts are formed in place: near = mass w in the array
    of near weights w, then far = mass - near in the mass's array.  So
    with out, far lands in out, and no (p, m) array but the weights is
    held beside it.
    """
    n = model.n
    z, wq = hermite_tensor(n, order)                         # (q, n), (q,)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w2 = bump.width ** 2
    m_ctr = bump.center
    # product covariance (Qt^-1 + I/w2)^-1 and its square root, per time
    prec = props.Qt_inv + np.eye(n)[None] / w2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    wv, vv = np.linalg.eigh(cov)
    if np.min(wv) <= 0:
        raise NonPositiveTimeError("degenerate product covariance")
    L = np.einsum("mij,mj,mkj->mik", vv, np.sqrt(wv), vv)
    base_mean = np.einsum("mij,j->mi", cov, m_ctr / w2)      # (mt, n)
    mean = _product_means(props, cov, x) + base_mean[None, :, :]
    rx = quadratic_r(model, x)
    spread = _spread(model, L)                               # (mt,)
    kappa = np.linalg.cond(model.Qinf)
    ru_lo, ru_hi = _node_r_range(
        model, mean, spread * np.sqrt(np.max(np.einsum("qi,qi->q", z, z))),
        kappa)
    one, zero = eta_plateaus(rx[:, None], ru_lo, ru_hi)
    loc = one * wq.sum()
    pi, ti = np.nonzero(~(one | zero))
    tiles, pos, zc, z_rad = _tiles(z)
    tile_r = spread[:, None] * z_rad                         # (mt, T)
    Lzc = np.einsum("mij,tj->mti", L, zc)                    # (mt, T, n)
    n_t, k = tiles.shape
    # L_t z for the nodes of tile i at time t in row t * n_t + i
    Lz = np.einsum("mij,qj->mqi", L, z[tiles.ravel()]).reshape(-1, k, n)
    step = max(1, _SPLIT_NODES // wq.size)
    for lo in range(0, pi.size, step):
        bp, bt = pi[lo:lo + step], ti[lo:lo + step]
        mb = mean[bp, bt]                                    # (nb, n)
        t_one, t_zero = eta_plateaus(rx[bp, None], *_node_r_range(
            model, mb[:, None, :] + Lzc[bt], tile_r[bt], kappa))
        eta = np.repeat(t_one.astype(float), k)              # tile order
        op = np.flatnonzero(~(t_one | t_zero))               # open tiles
        ob = op // n_t
        eta.reshape(-1, k)[op] = local_weight(
            model, x[bp[ob]][:, None, :],
            mb[ob][:, None, :] + Lz[bt[ob] * n_t + op % n_t])
        # take, unlike eta[:, pos], keeps the rows contiguous, and so the
        # pairwise reduction of every row
        eta = np.take(eta.reshape(bp.size, -1), pos, axis=1)
        eta *= wq
        loc[bp, bt] = eta.sum(axis=-1)
    mass = bump_semigroup_grid(model, bump, props, x, out=out)
    loc *= mass
    return loc, np.subtract(mass, loc, out=mass)


def _product_means(props: Propagators, cov: np.ndarray,
                   xs: np.ndarray) -> np.ndarray:
    """cov_t Qt^-1 e^{tB} x per (point, time), (p, mt, n)."""
    ex = np.einsum("mij,pj->pmi", props.exp_tB, xs)
    return np.einsum("mij,mjk,pmk->pmi", cov, props.Qt_inv, ex)


def _tiles(z: np.ndarray):
    """The tensor rule's nodes z (q, n) in tiles of _TILE consecutive
    nodes per axis.  Returns tiles (T, _TILE^n), each tile's node indices
    (a short last tile along an axis repeats its last node); pos (q,),
    each node's place in tiles.ravel(); and the centre (T, n) of each
    tile's bounding box with the largest distance (T,) of its nodes from
    it."""
    q, n = z.shape
    order = round(q ** (1.0 / n))
    per_axis = -(-order // _TILE)
    ax = np.minimum(np.arange(per_axis)[:, None] * _TILE
                    + np.arange(_TILE)[None, :], order - 1)
    # axes (tile_1, .., tile_n, node_1, .., node_n), rule index row-major
    tiles = np.zeros((1,) * (2 * n), dtype=int)
    for d in range(n):
        shape = [1] * (2 * n)
        shape[d], shape[n + d] = per_axis, _TILE
        tiles = tiles * order + ax.reshape(shape)
    tiles = tiles.reshape(per_axis ** n, _TILE ** n)
    pos = np.empty(q, dtype=int)
    pos[tiles.ravel()] = np.arange(tiles.size)
    zt = z[tiles]
    centre = 0.5 * (zt.min(axis=1) + zt.max(axis=1))
    off = zt - centre[:, None, :]
    return tiles, pos, centre, np.sqrt(np.max(
        np.einsum("tki,tki->tk", off, off), axis=1))


def _spread(model: OUModel, L: np.ndarray) -> np.ndarray:
    """|Qinf^-1/2 L_t|_2 per time, the top of L_t^T Qinf^-1 L_t."""
    g = np.einsum("mji,jk,mkl->mil", L, model.Qinf_inv, L)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[:, -1], 0.0))


def _node_r_range(model: OUModel, centre: np.ndarray, radius,
                  kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on R over every point within radius of centre in
    the norm sqrt(2 R), with the rounding margin of local_global_grid;
    kappa is the condition number of Qinf."""
    s = np.sqrt(2.0 * quadratic_r(model, centre))
    margin = _BLOCK_MARGIN_REL * kappa * (s + radius) + _BLOCK_MARGIN_ABS
    lo = np.maximum(s - radius - margin, 0.0)
    hi = s + radius + margin
    return 0.5 * lo * lo, 0.5 * hi * hi


# ---------------------------------------------------------------------------
# variation along time grids


def _part_values(model: OUModel, f: GaussianBump, ts: np.ndarray, x,
                 part: str, order: int | None = None,
                 out=None) -> np.ndarray:
    """Semigroup path values (p, m) at the times ts for the requested part
    of the split: the closed form for the full path, the near/far split of
    local_global_grid otherwise.  Every time is evaluated on its own, so
    the values at a time do not depend on the other times.  The values
    land in out, a (p, m) array or view, when given."""
    if part not in ("full", "local", "global"):
        raise BadOrderError(f"unknown part {part!r}")
    props = propagators(model, ts)
    if part == "full":
        return bump_semigroup_grid(model, f, props, x, out=out)
    loc, glob = local_global_grid(model, f, props, x, order=order, out=out)
    if part == "global":
        return glob
    if out is None:
        return loc
    out[...] = loc
    return out


def variation_batch_paths(model: OUModel, f: GaussianBump, x, rho: float,
                          ts: np.ndarray, part: str = "full",
                          tol: float = 1e-3, max_refine: int = 3,
                          order: int | None = None):
    """Batched variation over many starting points along the times ts;
    refinement is applied to the whole batch until the largest relative
    increment drops below tol.

    Each round refines the times by _refine, which keeps the old times;
    so only its midpoints are evaluated.  The refined grid of values is
    allocated once per round: the known columns are copied into its even
    places and the midpoints are evaluated straight into its odd places,
    so no other array of a round's width is built.  Returns (values,
    converged_flag, grid_size)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vals = _part_values(model, f, ts, x, part, order)
    # the convergence test is relative to the path scale, so a flat path
    # (variation at rounding level) converges instead of chasing noise
    floor = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    prev = variation_batch(vals, rho)
    for _ in range(max_refine):
        ts, mids = _refine(ts)
        vals, old = np.empty((x.shape[0], ts.size)), vals
        vals[:, 0::2] = old
        del old     # only the refined paths stay alive from here
        _part_values(model, f, mids, x, part, order, out=vals[:, 1::2])
        cur = variation_batch(vals, rho)
        rel = float(np.max(np.abs(cur - prev) /
                           np.maximum(np.abs(cur), floor)))
        prev = cur
        if rel < tol:
            return prev, True, ts.size
    return prev, False, ts.size


# ---------------------------------------------------------------------------
# singular-kernel statistics for the near part


def _eta_kernel_paths(model: OUModel, props: Propagators, x: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """(pairs, m) values of eta(x, u) K_t(x, u) exp(-R(x)); without the
    invariant prefactor far points stay in floating range."""
    eta = np.asarray(local_weight(model, x, u))
    return eta[:, None] * np.exp(log_kernel_grid(model, props, x, u))


def _pair_cloud(model: OUModel, radii: np.ndarray, n_dirs: int, seed: int):
    """Base points near the bulk of gamma_inf and offsets of prescribed
    Euclidean length, one block of directions per radius."""
    n = model.n
    total = radii.size * n_dirs
    rng_x = substream(seed, 1).standard_normal((total, n))
    dirs = substream(seed, 2).standard_normal((total, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = 0.8 * rng_x
    r = np.repeat(radii, n_dirs)
    return x, x + r[:, None] * dirs, r


def cz_size_sweep(model: OUModel, rho: float, n_dirs: int = 8,
                  seed: int = 0) -> tuple:
    """Sweep of |x-u|^n times the near-part variation norm over pair
    separations; bounded profiles back the size half of the kernel
    estimates.

    The fine pass extends the base pass: the time grid is refined (nested,
    so each path's variation can only grow) and the direction count is
    doubled keeping the original pairs.  Small drift therefore certifies
    that the per-radius maximum has saturated in both grid and sample.
    Returns the radii and the per-radius maxima of both passes."""
    radii = np.geomspace(1e-3, 0.4, 16)
    ts = _geometric_times(1e-8, 1.0, 48)
    x, u, r = _pair_cloud(model, radii, 2 * n_dirs, seed)

    def stat(times: np.ndarray, sub) -> np.ndarray:
        paths = _eta_kernel_paths(model, propagators(model, times),
                                  x[sub], u[sub])
        v = variation_batch(paths, rho)
        return (v * r[sub] ** model.n).reshape(radii.size, -1).max(axis=1)

    cols = np.arange(r.size).reshape(radii.size, 2 * n_dirs)
    return (radii, stat(ts, cols[:, :n_dirs].ravel()),
            stat(_refine(ts)[0], slice(None)))


def cz_smoothness_sweep(model: OUModel, rho: float, n_triples: int = 64,
                        seed: int = 0) -> tuple:
    """Sweep of |x-u|^{n+1} / |u-u2| times the variation norm of the
    difference path over triples with |x-u| > 2 |u-u2|.  Returns the
    separations |x-u| and the statistic on the time grid and on its
    refinement."""
    ts = _geometric_times(1e-8, 1.0, 96)
    n = model.n
    r = np.geomspace(2e-3, 0.4, n_triples)
    dirs = substream(seed, 3).standard_normal((n_triples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs2 = substream(seed, 4).standard_normal((n_triples, n))
    dirs2 /= np.linalg.norm(dirs2, axis=1, keepdims=True)
    x = 0.8 * substream(seed, 5).standard_normal((n_triples, n))
    u = x + r[:, None] * dirs
    u2 = u + 0.25 * r[:, None] * dirs2

    def stat(times: np.ndarray) -> np.ndarray:
        props = propagators(model, times)
        pa = _eta_kernel_paths(model, props, x, u)
        pb = _eta_kernel_paths(model, props, x, u2)
        v = variation_batch(pa - pb, rho)
        sep = np.linalg.norm(u - u2, axis=1)
        return v * r ** (n + 1) / sep

    return r, stat(ts), stat(_refine(ts)[0])


def cz_probe(model: OUModel, rho: float, n_dirs: int = 8,
             n_triples: int = 64, seed: int = 0) -> "ProbeReport":
    """Both near-kernel sweeps in one report: each profile on the refined
    grid, its maximum, and its drift, the largest relative move of a
    profile point under the refinement.  A sweep is stable when its drift
    is at most 10 percent."""
    from .report import ProbeReport
    stats, tables, flags = {}, {}, {}
    for name, (radii, base, fine) in (
            ("size", cz_size_sweep(model, rho, n_dirs=n_dirs, seed=seed)),
            ("smooth", cz_smoothness_sweep(model, rho, n_triples=n_triples,
                                           seed=seed))):
        drift = float(np.max(np.abs(fine - base) / np.maximum(base, _TINY)))
        stats[f"{name}_max"], stats[f"{name}_drift"] = float(fine.max()), drift
        tables[f"cz_{name}"] = [{"radius": float(r), "stat": float(v)}
                                for r, v in zip(radii, fine)]
        flags[f"{name}_stable"] = bool(drift <= 0.10)
    return ProbeReport(
        name="cz-sweeps",
        claim=("|x-u|^n times the near-part variation kernel norm and "
               "|x-u|^{n+1}/|u-u'| times the difference norm stay bounded "
               "and grid-stable over separations"),
        inputs={"rho": rho, "n_dirs": n_dirs, "n_triples": n_triples},
        statistics=stats, tables=tables, pass_flags=flags, seed=seed)


# ---------------------------------------------------------------------------
# Monte Carlo probes


# the part of the near/far split that each regime probes
_REGIMES = {"full": "full", "large-t": "full", "global-small-t": "global",
            "local-small-t": "local"}


def _regime_times(model: OUModel, regime: str,
                  points_per_decade: int) -> np.ndarray:
    tmax = t_max_for_tail(model)
    if regime == "large-t":
        return _geometric_times(1.0, tmax, points_per_decade)
    if regime in ("global-small-t", "local-small-t"):
        return _geometric_times(1e-6, 1.0, points_per_decade)
    return _geometric_times(1e-6, tmax, points_per_decade)


def _sup_weighted_tail(alphas: np.ndarray, lam: np.ndarray,
                       weighted: bool) -> np.ndarray:
    """sup over the levels (the last axis of lam) of a lambda(a), or when
    weighted of a sqrt(log a) lambda(a) over the levels above e; 0.0 where
    no level counts."""
    if weighted:
        mask = alphas > math.e
        w = alphas[mask] * np.sqrt(np.log(alphas[mask])) * lam[..., mask]
    else:
        w = alphas * lam
    return w.max(axis=-1) if w.shape[-1] else np.zeros(w.shape[:-1])


def weak_type_probe(model: OUModel, rho: float, regime: str = "full",
                    width: float = 0.5, center=None,
                    sample_size: int = 2000, seed: int = 0,
                    n_alphas: int = 48, points_per_decade: int = 16,
                    max_refine: int = 3) -> "ProbeReport":
    """Monte Carlo estimate of sup_a a * measure{ v_rho(t -> H_t f) > a }
    against the invariant measure, per time regime.

    The distribution-function curve should stay bounded by a multiple of
    the L^1 norm of f; over the tail regime the same holds with an extra
    sqrt(log a) factor.  Partial regimes probe the near and far parts of
    the kernel split separately on times up to one.  The curve is
    variation.exceedance at geometric levels; when the variation has not
    converged after max_refine refinements, every pass flag is False.
    The 200 bootstrap resamples of the interval read one rank count:
    exceedance ranks the sample once and counts every resample's ranks in
    one pass, with no loop over the resamples.
    """
    from .report import ProbeReport
    if regime not in _REGIMES:
        raise BadOrderError(f"unknown regime {regime!r}")
    if rho < 2:
        raise BadOrderError("variation exponent below two is not handled")
    if regime in ("full", "local-small-t") and rho <= 2:
        raise BadOrderError(f"regime {regime!r} needs rho > 2")
    if sample_size < 1000:
        raise DimensionError("weak-type probe needs >= 1000 sample points")
    part = _REGIMES[regime]
    n = model.n
    if center is None:
        center = substream(seed, 100).standard_normal(n) @ model.Qinf_sqrt.T
    f = gaussian_bump(model, center, width)
    ts = _regime_times(model, regime, points_per_decade)
    xs = substream(seed, 200).standard_normal((sample_size, n)) \
        @ model.Qinf_sqrt.T
    v, converged, grid_size = variation_batch_paths(
        model, f, xs, rho, ts, part=part, max_refine=max_refine)
    vpos = v[v > 0]
    lo = float(np.quantile(vpos, 0.5)) if vpos.size else 1e-10
    hi = max(float(v.max()) * 1.05, lo * 10.0)
    alphas = np.geomspace(max(lo, 1e-12), hi, n_alphas)
    lam = exceedance(v, alphas)
    weighted = regime == "large-t"
    stat = float(_sup_weighted_tail(alphas, lam, weighted))
    half = sample_size // 2
    stat_half = float(_sup_weighted_tail(
        alphas, exceedance(v[:half], alphas), weighted))
    growth = stat / max(stat_half, _TINY)

    reps = 200
    idx = substream(seed, 300).integers(0, sample_size,
                                        size=(reps, sample_size))
    stats_b = _sup_weighted_tail(alphas, exceedance(v, alphas, idx),
                                 weighted)
    ci_lo, ci_hi = np.percentile(stats_b, [2.5, 97.5])

    rows = [{"alpha": float(a), "lambda": float(l),
             "alpha_lambda": float(a * l)}
            for a, l in zip(alphas, lam)]
    label = "a*sqrt(log a)*lambda(a)" if weighted else "a*lambda(a)"
    return ProbeReport(
        name=f"weak-type-{regime}",
        claim=(f"sup over a of {label} for the {part} part of the "
               f"{rho}-variation of t -> H_t f stays bounded by a fixed "
               "multiple of the L1 mass of f"),
        inputs={"rho": rho, "regime": regime, "width": width,
                "center": np.asarray(center).tolist(),
                "sample_size": sample_size, "n_alphas": n_alphas,
                "points_per_decade": points_per_decade,
                "time_grid_size": grid_size},
        statistics={"statistic": stat, "half_sample_statistic": stat_half,
                    "growth": float(growth),
                    "variation_unconverged": not converged,
                    "v_max": float(v.max()), "v_mean": float(v.mean()),
                    "l1_mass": 1.0},
        tables={"alpha_lambda": rows},
        # a variation that has not converged cannot pass
        pass_flags={"finite": converged and bool(np.isfinite(stat)),
                    "stable": converged and bool(growth <= 1.1)},
        ci={"statistic": [float(ci_lo), float(ci_hi)]},
        seed=seed)


def annulus_superlevel_probe(model: OUModel, alphas, delta_rate: float,
                             width: float = 0.5, center=None,
                             sample_size: int = 4000,
                             seed: int = 0) -> "ProbeReport":
    """Measure of the superlevel set, inside the matching annulus, of the
    amplified Gaussian average

        g(x) = e^{R(x)} int exp(-delta_rate |x~ - u~|^2) f(u) dgamma_inf(u),

    where x~, u~ project x and u along the flow onto the level set
    R = log(alpha).  The product alpha sqrt(log alpha) measure{g > alpha}
    should stay bounded, uniformly in alpha, by the L1 mass of f.
    """
    from .report import ProbeReport
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    for a in alphas:
        if a <= 2.0:
            raise AlphaTooSmallError("levels must exceed 2")
    n = model.n
    if center is None:
        center = substream(seed, 100).standard_normal(n) @ model.Qinf_sqrt.T
    f = gaussian_bump(model, center, width)
    ginf = gaussian_measure(np.zeros(n), model.Qinf)
    prec = np.eye(n) / width ** 2
    # f dgamma_inf is the anchor, as int f dgamma_inf = 1
    anchor, _ = product_gaussian(ginf, prec, f.center)
    rule = gauss_hermite_rule(anchor)
    xs = substream(seed, 200).standard_normal((sample_size, n)) \
        @ model.Qinf_sqrt.T
    half = sample_size // 2
    rows = []
    worst = worst_half = 0.0
    for a in alphas:
        # g on the annulus points of the whole sample; the half sample's
        # count reads the first half of them
        inside = np.flatnonzero(annulus_indicator(model, a, xs))
        exceeded = exceeded_half = 0
        if inside.size:
            beta = math.log(a)
            u_proj = polar_decompose(model, rule.nodes, beta)[1]
            x_in = xs[inside]
            x_proj = polar_decompose(model, x_in, beta)[1]
            d2 = np.sum((x_proj[:, None, :] - u_proj[None, :, :]) ** 2,
                        axis=2)
            above = np.exp(quadratic_r(model, x_in)) * \
                (np.exp(-delta_rate * d2) @ rule.weights) > a
            exceeded = int(np.sum(above))
            exceeded_half = int(np.sum(above[inside < half]))
        measure = exceeded / sample_size
        statv = a * math.sqrt(math.log(a)) * measure
        worst = max(worst, statv)
        worst_half = max(worst_half,
                         a * math.sqrt(math.log(a)) * exceeded_half / half)
        rows.append({"alpha": a, "measure": measure, "statistic": statv,
                     "points_in_annulus": int(inside.size)})
    growth = worst / max(worst_half, _TINY) if worst > 0 else 1.0
    stats = {"statistic": worst, "half_sample_statistic": worst_half,
             "growth": float(growth), "l1_mass": 1.0}
    return ProbeReport(
        name="annulus-superlevel",
        claim=("alpha sqrt(log alpha) times the invariant measure of the "
               "superlevel set {g > alpha} inside the annulus "
               "{log(alpha)/2 <= R <= 2 log(alpha)} stays bounded by a "
               "fixed multiple of the L1 mass of f"),
        inputs={"alphas": alphas, "delta_rate": delta_rate, "width": width,
                "center": np.asarray(center).tolist(),
                "sample_size": sample_size},
        statistics=stats,
        tables={"superlevel": rows},
        pass_flags={"finite": bool(np.isfinite(worst)),
                    "stable": bool(growth <= 1.25 or worst == 0.0)},
        seed=seed)
