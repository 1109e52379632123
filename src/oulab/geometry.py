"""Gaussian geometry: ring partitions of unity graded by R(x), matching
plateau cutoffs, a local/global splitting function, and the polar-type
decomposition x = D_{-s} z with R(z) prescribed.

The rings are level sets of R rather than Euclidean annuli, so they are
adapted to the invariant measure in any dimension and for any admissible
(Q, B) pair.
"""

from __future__ import annotations

import numpy as np

from .errors import (AlphaTooSmallError, BracketFailError, DimensionError,
                     ZeroPointError)
from .model import OUModel, expm_stack, quadratic_r

# polar_decompose gives up once a flow-time bracket passes this size
_S_MAX = 1e3


def smooth_step(s) -> np.ndarray:
    """C^inf monotone ramp: 0 for s <= 0, 1 for s >= 1, NaN for NaN.

    The two exponentials are evaluated only on the open ramp 0 < s < 1;
    outside it the ramp is written as the exact constant.
    """
    s = np.asarray(s, dtype=float)
    out = np.array(s >= 1, dtype=float)
    out[np.isnan(s)] = np.nan
    ramp = np.flatnonzero((s > 0) & (s < 1))
    out.ravel()[ramp] = _ramp(s.ravel()[ramp])
    return out if out.shape else float(out)


def _ramp(r: np.ndarray) -> np.ndarray:
    """The ramp's formula e^(-1/r) / (e^(-1/r) + e^(-1/(1 - r))), the one
    place it is written.  It is exactly 0.0 for r <= 0 (the first
    exponential underflows, the second is at least e^-1) and NaN for NaN,
    so callers whose r lie below 1 may skip smooth_step's masks."""
    with np.errstate(divide="ignore", over="ignore"):
        a = np.exp(-1.0 / np.maximum(r, 1e-300))
        b = np.exp(-1.0 / np.maximum(1 - r, 1e-300))
    return a / (a + b)


def eta_plateaus(Rx, Ru_lo, Ru_hi) -> tuple[np.ndarray, np.ndarray]:
    """Masks (one, zero) over the broadcast shape, True where the integer
    tests below show local_weight to be exactly 1, or exactly 0, for every
    u with Ru_lo <= R(u) <= Ru_hi; Rx is R(x).

    At u only the rings b - 1 and b carry weight, b = max(floor(R(u)), 1),
    with profiles 1 - a and a that sum to exactly 1 in floating point too.
    Ring j's plateau rt_j is exactly 1 on {j - 1 <= R <= j + 3} (on
    {R <= j + 3} for j <= 2) and exactly 0 off {j - 2 < R < j + 4}
    (off {R < j + 4} for j <= 2).  So with d = R(x) - b, eta is exactly

      1  where -1 <= d <= 2, or d <= 2 and b <= 2 (both plateaus are 1),
      0  where d >= 4, or d <= -3 and b >= 4 (both plateaus are 0),

    which covers |R(u) - R(x)| <= 1, and >= 4 where R(u) >= 1.  Over a
    range of R(u), b runs from b_lo to b_hi and the computed d = R(x) - b
    decreases with b, because rounding is monotone.  The set of b where
    eta is 1 is an interval, so eta is 1 on the whole range exactly where
    it is 1 at both ends; it is 0 on the whole range where d is past 4
    already at b_hi, or below -3 already at b_lo with b_lo >= 4.  With
    Ru_lo = Ru_hi these are the pointwise tests; NaN decides nothing.
    """
    b_lo = np.maximum(np.floor(Ru_lo), 1.0)
    d_hi = Rx - b_lo
    if Ru_hi is Ru_lo:
        # the pointwise call from local_weight: on every node of a block,
        # a second floor and difference would only repeat the first
        b_hi, d_lo = b_lo, d_hi
    else:
        b_hi = np.maximum(np.floor(Ru_hi), 1.0)
        d_lo = Rx - b_hi
    one = (d_hi < 2.0) & ((d_lo > -1.0) | (b_hi <= 2.0))
    zero = (d_lo > 4.0) | ((d_hi < -3.0) & (b_lo >= 4.0))
    return one, zero


def local_weight(model: OUModel, x, u) -> np.ndarray:
    """eta(x, u) = sum_j rt_j(x) r_j(u): 1 near the diagonal R(u) ~ R(x),
    0 once |R(u) - R(x)| >= 4.  Shapes of x and u must broadcast in the
    leading axes.

    r_j is ring j of the partition of unity sum_j r_j = 1 graded by R:
    r_j = psi(R - j) - psi(R - j - 1) for j >= 1 with psi the smooth step,
    and r_0 = 1 - psi(R - 1), which absorbs the telescoped tail below
    level 2.  Ring j is supported on {j <= R <= j + 2} ({R <= 2} for
    j = 0), so at u only the rings b - 1 and b carry weight,
    b = max(floor(R(u)), 1).

    The ring sum is evaluated only where eta_plateaus leaves eta open (and
    where R is NaN); elsewhere eta is written as its constant.  No margin
    is needed: rounding is monotone and the bounds and ring offsets are
    small integers, so a computed d strictly past a bound means the exact
    d is too, and every profile argument R - j + c then rounds to the same
    side of 0 and 1 as its exact value.

    On the open pairs the two u-side weights share one ramp.  For an
    integer j <= R < 2^53, R - j is exact, and so is
    (R - (b - 1)) - 1.0 = R - b; with a = psi(R - b) this makes
    r_b = a - psi(R - b - 1) = a - 0.0 and r_(b-1) = 1.0 - a, the j = 0
    form included (R < 1 gives a = 0 on both sides).  The x-side
    plateaus depend on R(x) and the ring alone, so they are read from a
    table of each x's rings (plateau_table, eta_at).  The two products
    are added in ring order, so eta is bit-identical to the ring sum
    evaluated everywhere with ten ramps per pair (below R = 2^53, where
    every integer j <= R is a float).
    """
    Rx = np.asarray(quadratic_r(model, x))
    Ru = np.asarray(quadratic_r(model, u))
    out = np.empty(np.broadcast_shapes(Rx.shape, Ru.shape))
    rows = np.arange(Rx.size).reshape(Rx.shape)
    eta_at(plateau_table(Rx), np.broadcast_to(rows, out.shape).ravel(),
           np.broadcast_to(Ru, out.shape).reshape(1, -1), out.reshape(1, -1))
    return out if out.shape else float(out)


# an open pair reads the plateaus of rings floor(R(x)) + _PLATEAU_LO on,
# _PLATEAU_COLS of them
_PLATEAU_LO, _PLATEAU_COLS = -6, 12


def plateau_table(Rx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x side of eta for the points whose R is Rx (any shape), in
    their flat order: (Rx flat (p,), base (p,), table (p, 12)), with
    table[i, c] = rt_j(Rx[i]) for ring j = base[i] + c, an integer, and
    base = floor(R(x)) - 6.

    A pair that eta_plateaus leaves open has -3 <= d <= 4, d = R(x) - b
    as computed (d > 4 is 0, and d < -3 with b <= 3 would need
    R(x) < 0).  d is within 2^-50 of exact, so the rings b - 1 and b lie
    in floor(R(x)) - 5 ... floor(R(x)) + 4, inside the table.  Where
    floor(R(x)) is no int64 (NaN, inf, from 2^63 on) base is -6; every
    plateau of such an R(x) is NaN, or 0 for any ring j that local_weight
    can form there."""
    Rx = np.asarray(Rx, dtype=float).ravel()
    fl = np.floor(Rx)
    base = np.where(fl < 2.0 ** 63, fl, 0.0).astype(np.intp) + _PLATEAU_LO
    j = base[:, None] + np.arange(_PLATEAU_COLS)
    return Rx, base, _ring_plateau_idx(Rx[:, None], j)


def eta_at(table, rows, Ru, out: np.ndarray) -> np.ndarray:
    """eta into out (k, m), C-contiguous, for the pairs of R(u) values Ru
    (k, m) with the points of rows (m,), one per column, indices into
    table (a plateau_table).  The bits of local_weight.

    Each pair goes through eta_plateaus; only the open ones take a ramp,
    and their two x-side plateaus are read from the table at the rings
    b - 1 and b (clipped to the table, which matters only where b or
    R(x) is no number or past 2^63).  b = max(int(R(u)), 1) is the ring
    sum's max(floor(R(u)), 1) for every R(u): the casts differ only on
    negative non-integers, where both give 1, and floor leaves NaN, inf
    and every float past 2^52 as they are."""
    Rx, base, plateaus = table
    near, far = eta_plateaus(Rx[rows], Ru, Ru)
    np.copyto(out, near)
    band = np.flatnonzero(~(near | far))
    ru = Ru.ravel()[band]
    row = rows[band % rows.size]
    b = np.maximum(ru.astype(np.intp), 1)
    a = _ramp(ru - b)
    lo = np.clip(b - base[row], 1, _PLATEAU_COLS - 1)
    lo += row * _PLATEAU_COLS - 1                # ring b - 1; b is next
    flat = plateaus.ravel()
    out.ravel()[band] = flat[lo] * (1.0 - a) + flat[1:][lo] * a
    return out


def tile_sums(model: OUModel, table, blocks, z: np.ndarray, w: np.ndarray,
              ot: np.ndarray, ob: np.ndarray, per_slice: int) -> np.ndarray:
    """The sums of eta * w over tiles of a tensor rule placed on Gaussian
    blocks: tile ot[i] on block ob[i], (s,) each.  blocks = (rows, mean,
    L) gives each block's point as its row of table (a plateau_table),
    its mean (nb, n) and its square root L (nb, n, n); z (n, k, T) holds
    the rule nodes of every tile, one (k, T) array per axis, and w (k, T)
    their weights.

    A tile's nodes are mean + L z, each coordinate summing L_ij z_j over j
    in order, as kernel._dot does, and then adding the mean (one
    addition, which commutes).  eta comes from eta_at, and a tile's
    terms eta * w are added in node order (ordered_sum), so its sum has
    the same bits in any slice.  The tiles go in slices of at most
    per_slice, through one workspace: rule nodes, nodes, weights, R and
    eta, node-major so that the sums run over contiguous rows."""
    rows, mean, L = blocks
    n, k = z.shape[:2]
    out = np.empty(ot.size)
    # freed with each call, the workspace also lifts glibc's mmap and trim
    # thresholds to its size after the first one, so the slices' other
    # temporaries stay on the heap rather than going back to the OS and
    # faulting in again (on 2-d models, 2 MB a slice)
    ws = np.empty((2 * n + 3, min(per_slice, ot.size) * k))
    for lo in range(0, ot.size, per_slice):
        t, b = ot[lo:lo + per_slice], ob[lo:lo + per_slice]
        zs, nodes = (ws[i:i + n, :t.size * k].reshape(n, k, t.size)
                     for i in (0, n))
        w_s, r, eta = (ws[i, :t.size * k].reshape(k, t.size)
                       for i in range(2 * n, 2 * n + 3))
        for j in range(n):
            np.take(z[j], t, axis=1, out=zs[j], mode="clip")
        Lb, mb = L[b], mean[b]
        for i in range(n):
            np.multiply(Lb[:, i, 0], zs[0], out=nodes[i])
            for j in range(1, n):
                nodes[i] += np.multiply(Lb[:, i, j], zs[j], out=w_s)
            nodes[i] += mb[:, i]
        quadratic_r(model, np.moveaxis(nodes, 0, -1), out=r)
        eta_at(table, rows[b], r, eta)
        eta *= np.take(w, t, axis=1, out=w_s, mode="clip")
        ordered_sum(eta, out[lo:lo + per_slice])
    return out


def ordered_sum(terms, out=None) -> np.ndarray:
    """terms[0] + terms[1] + ... added first to last, into out when
    given: terms are arrays of one shape, or scalars, that broadcast (the
    rows of a 2-d array, say), and without out the first is an array.
    The bits of np.cumsum along the terms, where np.sum may pair them."""
    if out is None:
        out = np.array(terms[0], dtype=float)
    else:
        out[...] = terms[0]
    for term in terms[1:]:
        out += term
    return out


def _ring_plateau_idx(R, j):
    """Widened cutoff equal to 1 on ring j's support.

    rt_j = psi(R - j + 2) - psi(R - j - 3), equal to 1 on
    {j - 1 <= R <= j + 3} and supported on {j - 2 <= R <= j + 4}; for
    j <= 2 the lower cutoff is dropped so the plateau covers everything
    below.
    """
    lo = np.where(j >= 3, smooth_step(R - j + 2.0), 1.0)
    return lo - smooth_step(R - j - 3.0)


def group_apply(model: OUModel, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """D_{s_i} x_i = Qinf e^{-s_i B^T} Qinf^-1 x_i for the rows x_i of x
    and the flow times s_i of s, one per row, with e^{-s_i B} from the
    package's one matrix exponential, model.expm_stack."""
    w = np.atleast_2d(np.asarray(x, dtype=float)) @ model.Qinf_inv.T
    e = expm_stack(model, -np.asarray(s, dtype=float))
    return np.einsum("mj,mjk->mk", w, e) @ model.Qinf.T


def polar_decompose(model: OUModel, x,
                    beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Write x = D_s z with R(z) = beta; returns (s, z).

    sigma -> R(D_sigma x) is strictly increasing (its derivative is the
    Lyapunov form <Q e^{-sigma B^T} Qinf^-1 x, e^{-sigma B^T} Qinf^-1 x>/2,
    positive for x != 0), so solving R(D_sigma x) = beta by bisection on an
    expanding bracket is safe; then s = -sigma and z = D_sigma x.
    Vectorized over rows of x.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != model.n:
        raise DimensionError(f"points must have last axis {model.n}")
    if beta <= 0:
        raise AlphaTooSmallError("target level beta must be positive")
    if np.any(quadratic_r(model, x) <= 0):
        raise ZeroPointError("cannot decompose the origin")

    m = x.shape[0]

    def r_orbit(sig):
        return np.asarray(quadratic_r(model, group_apply(model, x, sig)))

    def bracket(side):
        """Bracket end on the given side of the level set: start at sigma =
        side and double every row whose R(D_sigma x) has not crossed beta."""
        end = np.full(m, side)
        for _ in range(60):
            r = r_orbit(end)
            bad = r <= beta if side > 0 else r >= beta
            if not np.any(bad):
                return end
            end[bad] *= 2.0
            if np.any(np.abs(end) > _S_MAX):
                break
        raise BracketFailError("orbit does not reach the level set")

    lo, hi = bracket(-1.0), bracket(1.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        take = r_orbit(mid) < beta
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    sigma = 0.5 * (lo + hi)
    return -sigma, group_apply(model, x, sigma)


def annulus_indicator(model: OUModel, alpha: float, x) -> np.ndarray:
    """Membership in the shell C_alpha = {log(a)/2 <= R <= 2 log(a)},
    the region where the weak-type superlevel sets can live."""
    if alpha <= 2.0:
        raise AlphaTooSmallError("annulus needs alpha > 2")
    tau = np.log(alpha)
    R = quadratic_r(model, x)
    out = (R >= 0.5 * tau) & (R <= 2.0 * tau)
    return out if np.ndim(out) else bool(out)
