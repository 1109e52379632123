"""Applying the semigroup to Gaussian bumps: direct quadrature, the
local/global splitting, time-grid variation, the near-kernel sweeps, and
the weak-type Monte Carlo probes.

Quadrature strategy.  Every integral is anchored on an explicitly known
Gaussian; for Gaussian bumps the anchor is the exact product of the bump
with the relevant transition Gaussian, so node placement follows the
integrand mass at every (x, t).  Gaussian bumps also admit closed-form
semigroup values, used as the fast path for Monte Carlo probes and
cross-checked against quadrature in the test suite.  The near/far split
(local_global_grid) averages the cutoff eta under that product Gaussian
by a tensor Gauss-Hermite rule cut into tiles of consecutive nodes.  It
streams over blocks of whole rows of points, decides each (point, time)
block and then each tile from a bound on R over its nodes, expands only
the open tiles, in slices under one node budget (_NODE_BUDGET), and sums
the weights tile by tile in one fixed order, so the result has the same
bits however the blocks, tiles and slices fall.  The outer tiles, whose
weights are below 2^-53 of the rule's, are left out by a rounding
certificate: each adds some eta * w in [0, w], and rounding is monotone,
so where the fixed-order sums with such a tile at 0 and at w agree, they
are the sum; only where they differ (or are NaN) is the tile decided and
expanded after all.

Critical times.  On models with B = -b I and Qinf = lam I (all the
standard models; model.isotropic_rates), d/ds log H_t f(x) = P(s) / D^2
for s = e^{-bt}, with P a cubic (kernel.time_critical_cubic), so a bump
path turns at most three times.  variation_batch_paths then evaluates the
full path only at the two ends of its time grid and in windows of four
columns about the real roots of P (_critical_rounds), with the factors of
the whole grid, so every value it reads is a value of the whole-grid row,
bit for bit.  Its variation never exceeds the whole grid's and equals it
wherever the computed whole-grid row is monotone between the roots; it
falls short only by turns that rounding makes where the path sits within
rounding error of a saturated limit.  Every other model and the near and
far parts evaluate the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AlphaTooSmallError, ArgumentRangeError, BadOrderError,
                     DimensionError, NonPositiveTimeError,
                     NumericalOverflowError)
from .geometry import (annulus_indicator, eta_plateaus, local_weight,
                       ordered_sum, plateau_table, polar_decompose,
                       tile_sums)
from .kernel import (_dot, _row_blocks, _time_last, log_kernel_grid,
                     real_roots, time_critical_cubic)
from .model import (OUModel, Propagators, isotropic_rates, propagators,
                    quadratic_r)
from .quadrature import (gauss_hermite_rule, gaussian_measure, hermite_tensor,
                         product_gaussian)
from .rng import substream
from .variation import exceedance, variation_batch

_TINY = 1e-300
# pair-time cells per block of bump_semigroup_grid: its temporaries of
# 8192 doubles, 64 KiB, stay under glibc's default 128 KiB mmap threshold
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class GaussianBump:
    """f(u) = amplitude exp(-|u - center|^2 / (2 width^2)) on R^n, for
    points u (m, n)."""

    center: np.ndarray          # (n,)
    width: float
    amplitude: float

    def __call__(self, u):
        return self.at_offsets(
            np.atleast_2d(np.asarray(u, dtype=float)) - self.center)

    def at_offsets(self, d):
        """f at the points center + d, for offsets d (m, n)."""
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
    L^1(gamma_inf) norm 1.  A width whose square overflows or underflows
    (falls below the smallest normal float, so that 1 / width^2 can
    overflow), or a centre so far out that the amplitude e^{-log mass}
    overflows, is a NumericalOverflowError."""
    if not (math.isfinite(width) and width > 0):
        raise DimensionError("bump width must be finite and positive")
    m = _model_point(model, center, "bump centre")
    if not np.isfinite(m).all():
        raise ArgumentRangeError("bump centre must be finite")
    try:
        w2 = float(width) ** 2
    except OverflowError:
        raise NumericalOverflowError(
            f"bump width {width:g} is too large: its square overflows"
        ) from None
    if w2 < np.finfo(float).tiny:
        raise NumericalOverflowError(
            f"bump width {width:g} is too small: its square underflows")
    prec = np.eye(model.n) / w2
    ginf = gaussian_measure(np.zeros(model.n), model.Qinf)
    _, log_mass = product_gaussian(ginf, prec, m)
    try:
        amplitude = math.exp(-log_mass)
    except OverflowError:
        raise NumericalOverflowError(
            f"bump centre {m.tolist()} is too far out: its amplitude "
            f"e^{-log_mass:.6g} overflows") from None
    return GaussianBump(center=m, width=float(width), amplitude=amplitude)


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
    per matrix entry), and kernel._row_blocks fills the grid in blocks of
    whole rows of about _BLOCK_CELLS cells: every temporary stays
    in cache, no (p, m, n) stack is built, and the bits do not depend on
    the blocks.  The values land in the rows of out, a (p, m) array or
    view such as a strided column view, when given.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sinv, log_detfac = _bump_stacks(model, bump, props)
    if out is None:
        out = np.empty((x.shape[0], props.ts.size))
    factors = (_time_last(props.exp_tB), _time_last(sinv), log_detfac)
    for rows, xb in _row_blocks(props.ts.size, x, cells=_BLOCK_CELLS):
        out[rows] = _bump_eval(bump, factors, xb)
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

    In the transition form the anchor is centred near ex - c, and a node
    y = mean + S z (S the anchor's covariance root) lies at
    ex - y - c = cov Qt^-1 (ex - c) - S z from the bump centre.  That
    offset and the anchor's density at the node are formed from z, not
    from the node, so that they keep their digits at any width: below
    about 1e-16 |ex - c| the node itself no longer resolves the bump.
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
        z, weights = hermite_tensor(n, order)
        step = z @ anchor.sqrt_cov.T                    # S z
        offset = anchor.cov @ props.Qt_inv[0] @ (ex - f.center)
        log_anchor = -0.5 * (n * np.log(2 * np.pi) + anchor.logdet_cov
                             + np.einsum("qi,qi->q", z, z))
        ratio = np.exp(gt.log_density(anchor.mean + step) - log_anchor)
        return float(weights @ (f.at_offsets(offset - step) * ratio))
    mu_t = gaussian_measure(ex, props.Qt[0])
    anchor, _ = product_gaussian(mu_t, prec, f.center)
    rule = gauss_hermite_rule(anchor, order)
    nodes = rule.nodes
    lk = log_kernel_grid(model, props, np.broadcast_to(x, nodes.shape),
                         nodes)[:, 0] + quadratic_r(model, x)
    ginf = gaussian_measure(np.zeros(n), model.Qinf)
    log_ratio = lk + ginf.log_density(nodes) - anchor.log_density(nodes)
    return float((rule.weights * f(nodes) * np.exp(log_ratio)).sum())


# the near/far split bounds about this many tiles of a row block at once,
# and expands at most this many nodes of its open tiles at once
_NODE_BUDGET = 1 << 15
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

    The rule's nodes are split into tiles of _TILE consecutive nodes per
    axis (the last one shorter where the order is no multiple of _TILE;
    its repeated slots weigh 0.0), and every weight is summed in one fixed
    order: each tile's nodes in tile order, then the tiles in order, each
    term added to the running sum in turn (geometry.ordered_sum).  So a
    block's near weight is the sum over its tiles of the tile's eta * w,
    and it has the same bits however the tiles were decided.

    The points are taken in blocks of whole rows, as many as keep the
    block's core tile bounds (below) within _NODE_BUDGET (one row at
    least).  The means of a row block's (point, time) blocks, their
    decisions and their tiles are formed per row block, so no (points,
    times) array is held but the near weights and the mass.  Each block
    is decided before its nodes are expanded.
    The nodes are mean + L_t z_k, so in the norm |v|_R = sqrt(2 R(v)) a
    node lies within |Qinf^-1/2 L_t|_2 |z_k - z_c| of the centre
    mean + L_t z_c.  _node_r_range turns a centre c and radius r into
    [max(s - r, 0), s + r], s = |c|_R, widened by
    1e-10 kappa(Qinf) (s + r) + 1e-12, far more than the few n^2 eps kappa
    by which the rounding of the nodes and of R can move a node's computed
    R, and eta_plateaus tells where eta is the same constant over the
    whole range.

    Rounding certificate.  A tile is negligible when its weight is below
    2^-53 of the rule's (at the default orders the outer two of eight in
    1-d, and 32 of 64 in 2-d); the others are the core.  eta is in
    [0, 1] and rounding is monotone, so a negligible tile's sum of
    eta * w lies in [0, tile weight] however its nodes fall (wherever R
    is a number there: the block's mean and L_t finite, and no overflow).
    With every other tile's sum fixed, the block's fixed-order sum then
    lies between the sums S_lo and S_hi taken with each negligible tile
    at 0 and at its weight; where S_lo == S_hi, that is the block's near
    weight, exactly.  NaN fails the test, since NaN != NaN.  Adding +0.0
    moves no sum of terms >= 0, so S_lo skips the negligible tiles.
    - A block is bounded with z_c = 0 and the radius of the core nodes.
      Where every core node has eta 1 it takes the sum of all tile
      weights: the rule's core weights alone add up to that sum (one
      check per rule; where it fails, as at the default 3-d order, no
      tile counts as negligible).  Where every core node has eta 0, and
      no tile is negligible, it takes 0.0.
    - The core tiles of the other blocks are bounded about the centre
      z_c of their nodes' box with radius max_k |z_k - z_c|.  At the
      default orders, and at orders 12 and 13, a tile's radius is at
      least 9 % of its block's, so |mean|_R is at most a dozen times the
      tile's s + r, and the same margin still dwarfs the rounding of the
      nodes.  A tile decided 1 adds its tile weight, one decided 0 adds
      nothing, and only the open tiles are expanded (geometry.tile_sums,
      in slices of at most _NODE_BUDGET nodes), with eta read from each
      point's table of ring plateaus (geometry.plateau_table).
    - Only a block whose S_lo and S_hi differ decides and expands its
      negligible tiles the same way, and sums all its tiles again.

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
    spread = _spread(model, L)                               # (mt,)
    kappa = np.linalg.cond(model.Qinf)
    tiles, first, zc, z_rad = _tiles(z)
    n_t, k = tiles.shape
    zt = np.moveaxis(z[tiles], (0, 2), (2, 0)).copy()        # (n, k, T)
    wt = np.where(first, wq[tiles], 0.0).T.copy()            # (k, T)
    tile_w = ordered_sum(wt)
    w_all, small, core_z = _core_tiles(z, tiles, tile_w)
    core, negl = np.flatnonzero(~small), np.flatnonzero(small)
    core_r = spread * core_z
    tile_r = spread[:, None] * z_rad                         # (mt, T)
    Lzc = np.einsum("mij,tj->mti", L, zc)                    # (mt, T, n)
    mt = props.ts.size
    loc = np.empty((x.shape[0], mt))
    table = plateau_table(quadratic_r(model, x))
    rows = max(1, _NODE_BUDGET // (core.size * mt))
    per_slice = max(1, _NODE_BUDGET // k)

    def fill(blocks, ts):
        """Each tile's sum of eta * w, (blocks, tiles), for the tiles ts
        of some open blocks = (point, mean, time index) each."""
        pts, mb, bt = blocks
        one, zero = eta_plateaus(table[0][pts, None], *_node_r_range(
            model, mb[:, None, :] + Lzc[:, ts][bt], tile_r[:, ts][bt],
            kappa))
        vals = one * tile_w[ts]
        ob, ot = np.nonzero(~(one | zero))
        vals[ob, ot] = tile_sums(model, table, (pts, mb, L[bt]), zt, wt,
                                 ts[ot], ob, per_slice)
        return vals

    for lo in range(0, x.shape[0], rows):
        mean = _product_means(props, cov, x[lo:lo + rows]) \
            + base_mean[None, :, :]
        one, zero = eta_plateaus(table[0][lo:lo + rows, None],
                                 *_node_r_range(model, mean, core_r, kappa))
        block = loc[lo:lo + rows]
        np.multiply(one, w_all, out=block)
        op = np.flatnonzero(~(one | zero & (negl.size == 0)))
        bp, bt = np.divmod(op, mt)
        blocks = (lo + bp, mean.reshape(-1, n)[op], bt)
        vals = fill(blocks, core)                            # (nb, core)
        near = ordered_sum(vals.T)                           # S_lo
        col = dict(zip(core, vals.T))
        fail = np.flatnonzero(near != ordered_sum(
            [col.get(t, w) for t, w in enumerate(tile_w)], np.empty(op.size)))
        if fail.size:
            full = np.empty((n_t, fail.size))
            full[core] = vals[fail].T
            full[negl] = fill(tuple(a[fail] for a in blocks), negl).T
            near[fail] = ordered_sum(full)
        block.reshape(-1)[op] = near
    mass = bump_semigroup_grid(model, bump, props, x, out=out)
    loc *= mass
    return loc, np.subtract(mass, loc, out=mass)


def _core_tiles(z: np.ndarray, tiles: np.ndarray, tile_w: np.ndarray):
    """The rule's weight (its tiles' weights tile_w summed in order), the
    mask of its negligible tiles, those that weigh below 2^-53 of it, and
    the largest |z| over the nodes of the other tiles.  No tile counts as
    negligible where the others' weights, in order, do not sum to the
    rule's weight."""
    w_all = ordered_sum(tile_w)
    small = tile_w < 2.0 ** -53 * w_all
    if ordered_sum(tile_w[~small]) != w_all:
        small[:] = False
    zz = np.einsum("qi,qi->q", z, z)
    return w_all, small, np.sqrt(np.max(zz[tiles[~small]]))


def _product_means(props: Propagators, cov: np.ndarray,
                   xs: np.ndarray) -> np.ndarray:
    """cov_t Qt^-1 e^{tB} x per (point, time), (p, mt, n)."""
    ex = np.einsum("mij,pj->pmi", props.exp_tB, xs)
    return np.einsum("mij,mjk,pmk->pmi", cov, props.Qt_inv, ex)


def _tiles(z: np.ndarray):
    """The tensor rule's nodes z (q, n) in tiles of _TILE consecutive
    nodes per axis.  Returns tiles (T, _TILE^n), each tile's node indices
    (a short last tile along an axis repeats its last node); first
    (T, _TILE^n), True on the one slot of every node that is no repeat;
    and the centre (T, n) of each tile's bounding box with the largest
    distance (T,) of its nodes from it."""
    q, n = z.shape
    order = round(q ** (1.0 / n))
    per_axis = -(-order // _TILE)
    at = np.arange(per_axis)[:, None] * _TILE + np.arange(_TILE)[None, :]
    ax = np.minimum(at, order - 1)
    # axes (tile_1, .., tile_n, node_1, .., node_n), rule index row-major
    tiles = np.zeros((1,) * (2 * n), dtype=int)
    first = np.ones((1,) * (2 * n), dtype=bool)
    for d in range(n):
        shape = [1] * (2 * n)
        shape[d], shape[n + d] = per_axis, _TILE
        tiles = tiles * order + ax.reshape(shape)
        first = first & (at < order).reshape(shape)
    tiles = tiles.reshape(per_axis ** n, _TILE ** n)
    first = first.reshape(tiles.shape)
    zt = z[tiles]
    centre = 0.5 * (zt.min(axis=1) + zt.max(axis=1))
    off = zt - centre[:, None, :]
    return tiles, first, centre, np.sqrt(np.max(
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


def _grid_rounds(model: OUModel, f: GaussianBump, x: np.ndarray, rho: float,
                 ts: np.ndarray, part: str, order: int | None,
                 max_refine: int):
    """The rounds of variation_batch_paths on whole grids: per round, the
    grid size, each row's variation, and (first round only, else None)
    the largest |value|.

    Each round refines the times by _refine, which keeps the old times;
    so only its midpoints are evaluated.  The refined grid of values is
    allocated once per round: the known columns are copied into its even
    places and the midpoints are evaluated straight into its odd places,
    so no other array of a round's width is built."""
    vals = _part_values(model, f, ts, x, part, order)
    yield ts.size, variation_batch(vals, rho), float(np.max(np.abs(vals)))
    for _ in range(max_refine):
        ts, mids = _refine(ts)
        vals, old = np.empty((x.shape[0], ts.size)), vals
        vals[:, 0::2] = old
        del old     # only the refined paths stay alive from here
        _part_values(model, f, mids, x, part, order, out=vals[:, 1::2])
        yield ts.size, variation_batch(vals, rho), None


# a window of grid columns about a root: the two that bracket it and one
# more on each side, so the first column at or after the root less two
_WINDOW = 4


def _critical_windows(model: OUModel, f: GaussianBump, x: np.ndarray,
                      ts: np.ndarray, b: float) -> np.ndarray:
    """The first column of each row's window of _WINDOW columns about each
    root of P in the grid's interval, (roots, rows) in increasing order,
    and ts.size where a row has fewer roots.

    d/ds log H_t f(x) = P(s) / D^2 with s = e^{-bt}
    (kernel.time_critical_cubic), so a path turns only at the roots of P.
    A near-double root can round to a complex pair, which real_roots
    reports as NaN; such a pair puts a window at its real part, where the
    two real roots it stands for lie close together."""
    coef = time_critical_cubic(model, x, f.center, f.width)
    roots = real_roots(coef)
    pair = np.isnan(roots[:, 1])
    # the three roots sum to -coef_1 / coef_0
    roots[pair, 1] = -0.5 * (coef[pair, 1] / coef[pair, 0] + roots[pair, 0])
    with np.errstate(invalid="ignore"):
        inside = ((roots > math.exp(-b * ts[-1])) &
                  (roots < math.exp(-b * ts[0])))
    t_roots = np.sort(np.where(inside, -np.log(np.where(inside, roots, 1.0))
                               / b, np.inf), axis=1)
    t_roots = np.ascontiguousarray(
        t_roots[:, :np.max(inside.sum(axis=1), initial=0)].T)
    found = np.isfinite(t_roots)
    starts = np.full(t_roots.shape, ts.size)
    starts[found] = np.maximum(np.searchsorted(ts, t_roots[found]) - 2, 0)
    return starts


def _critical_rounds(model: OUModel, f: GaussianBump, x: np.ndarray,
                     rho: float, ts: np.ndarray, b: float, max_refine: int):
    """The rounds of variation_batch_paths for part "full" on a model with
    B = -b I and Qinf = lam I, in the form _grid_rounds yields them, from a
    few candidate columns of each row.

    The roots are taken once, on the last grid that a round can reach
    (_critical_windows); the propagators too, since each time's factors
    do not depend on the other times.  The grids are nested: round k's
    grid is every step-th column of the last one, step =
    2^(max_refine - k).  A round evaluates, per row, its two end columns
    and, for each window [l, r] of the last grid, its columns
    floor(l / step) .. ceil(r / step), gathering the factors at those
    times, so every value has the bits of the whole-grid row.  A running
    maximum puts the columns in time order; a column may repeat, and
    variation._turning_points collapses a repeat to the same kept value.

    The candidate row is thus a subsequence of the whole-grid row: its
    variation never exceeds the whole grid's, and equals it wherever the
    computed whole-grid row is monotone between the windows.  It falls
    short only by turns that rounding makes where the path sits within
    rounding error of a saturated limit."""
    p = x.shape[0]
    grids = [ts]
    for _ in range(max_refine):
        grids.append(_refine(grids[-1])[0])
    starts = _critical_windows(model, f, x, grids[-1], b)
    props = propagators(model, grids[-1])
    sinv, log_detfac = _bump_stacks(model, f, props)
    E, S = _time_last(props.exp_tB), _time_last(sinv)
    xt = x.T[:, :, None]
    for k, grid in enumerate(grids):
        step, m = 1 << (max_refine - k), grid.size
        first = starts // step
        width = np.max(-(-(starts + _WINDOW - 1) // step) - first,
                       initial=0) + 1
        cols = np.concatenate([
            np.zeros((1, p), dtype=np.intp),
            (first[:, None] + np.arange(width)[:, None]).reshape(-1, p),
            np.full((1, p), m - 1, dtype=np.intp)])
        # the windows of missing roots fall on the last column, and the
        # running maximum merges windows that overlap
        np.minimum(cols, m - 1, out=cols)
        np.maximum.accumulate(cols, axis=0, out=cols)
        idx = np.ascontiguousarray(cols.T) * step
        vals = _bump_eval(f, (E[:, :, idx], S[:, :, idx], log_detfac[idx]),
                          xt)
        yield (m, variation_batch(vals, rho),
               float(np.max(np.abs(vals))) if k == 0 else None)


def variation_batch_paths(model: OUModel, f: GaussianBump, x, rho: float,
                          ts: np.ndarray, part: str = "full",
                          tol: float = 1e-3, max_refine: int = 3,
                          order: int | None = None):
    """Batched variation over many starting points along the times ts;
    refinement is applied to the whole batch until the largest relative
    increment drops below tol.  Returns (values, converged_flag,
    grid_size).

    Two routes refine the same grids and run the same convergence test.
    On models with B = -b I and Qinf = lam I (model.isotropic_rates), part
    "full" takes the critical-time route, _critical_rounds.  A path turns
    only at roots of the cubic P in s = e^{-bt}
    (kernel.time_critical_cubic), so each round evaluates a row at the two
    ends of its grid and at the columns j - 2 .. j + 1 about each real
    root t* of P in (t_(j-1), t_j], with the factors of the whole grid.
    Those values are a subsequence of the whole-grid row, with the same
    bits, so the variation never exceeds the whole grid's, and equals it
    wherever the computed whole-grid row is monotone between the roots.
    It falls short only by turns that rounding makes where the path sits
    within rounding error of a saturated limit, by a few eps max|H|
    m^(1/rho) on a grid of m times, so the flag and the grid size differ
    only where such a shortfall moves a relative increment across tol.
    Every other model, and the parts "local" and "global", take
    _grid_rounds, which evaluates the whole refined grid."""
    if max_refine < 0:
        raise ArgumentRangeError(
            f"the refinement count must be >= 0, got {max_refine}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rates = isotropic_rates(model) if part == "full" else None
    if rates is None:
        rounds = _grid_rounds(model, f, x, rho, ts, part, order, max_refine)
    else:
        rounds = _critical_rounds(model, f, x, rho, ts, rates[0],
                                  max_refine)
    size, prev, top = next(rounds)
    # the convergence test is relative to the path scale, so a flat path
    # (variation at rounding level) converges instead of chasing noise
    floor = 1e-9 * max(1.0, top)
    for size, cur, _ in rounds:
        rel = float(np.max(np.abs(cur - prev) /
                           np.maximum(np.abs(cur), floor)))
        prev = cur
        if rel < tol:
            return prev, True, size
    return prev, False, size


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
    if n_dirs < 1 or n_triples < 1:
        raise ArgumentRangeError(
            f"the sweeps need at least one direction and one triple, got "
            f"{n_dirs} and {n_triples}")
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
    if n_alphas < 2:
        raise ArgumentRangeError(
            f"the weak-type curve needs at least 2 levels, got {n_alphas}")
    if points_per_decade < 1:
        raise ArgumentRangeError(
            f"the time grid needs at least 1 point a decade, got "
            f"{points_per_decade}")
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
    should stay bounded, uniformly in alpha, by the L1 mass of f.  The
    half sample needs sample_size >= 2.
    """
    from .report import ProbeReport
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    if not alphas or not all(map(math.isfinite, alphas)):
        raise ArgumentRangeError(f"need at least one level, each finite, "
                                 f"got {alphas}")
    for a in alphas:
        if a <= 2.0:
            raise AlphaTooSmallError("levels must exceed 2")
    if sample_size < 2:
        raise ArgumentRangeError(f"the probe needs at least 2 samples, got "
                                 f"{sample_size}")
    if not (math.isfinite(delta_rate) and delta_rate > 0):
        raise ArgumentRangeError(
            f"the averaging rate must be finite and positive, got "
            f"{delta_rate:g}")
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
