"""Sign changes of many real polynomials on one interval, from their
coefficients alone: Descartes' rule in the Bernstein basis, with no root
and no eigenvalue computed.

On [lo, hi] with 0 <= lo < hi, write a polynomial N of degree d in the
Bernstein basis, N(lo + (hi - lo) s) = sum_i b_i C(d, i) s^i (1 - s)^(d -
i).  The sign changes V of b_0 .. b_d bound the roots inside and have
their parity, so V = 0 means none and V = 1 one; b_0 and b_d are the
values at the ends.  De Casteljau's halving never raises V and ends with
V <= 1 about simple roots (the Descartes method: Collins and Akritas
1976, Rouillier and Zimmermann 2004).

The Taylor shift by lo, the scaling and the change of basis have
nonnegative entries, and de Casteljau takes convex combinations, so the
same transforms carry the magnitudes of the coefficients' terms to a
bound on the rounding of each b_i.  A b_i within its bound has no sign,
and its part of the interval is halved further; a part that stays
undecided, as about a double root, is reported as such.

kernel imports this module only where it counts zeros, so the semigroup
and the probes that count none never load it.
"""

from __future__ import annotations

import math

import numpy as np

# halvings after which a part still undecided is left as a bracket: roots
# closer than about 1e-7 of the interval share values within rounding
# some 25 halvings down
_DEPTH = 40


def _de_casteljau(b: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """The Bernstein coefficients (..., d + 1) of b on the two parts of
    its interval split at the fraction r: convex combinations of b."""
    left, right = np.empty_like(b), np.empty_like(b)
    left[..., 0], right[..., -1] = b[..., 0], b[..., -1]
    for j in range(1, b.shape[-1]):
        b = (1.0 - r) * b[..., :-1] + r * b[..., 1:]
        left[..., j], right[..., -1 - j] = b[..., 0], b[..., -1]
    return left, right


def _certain_sign(b: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The sign of b where |b| exceeds its rounding bound, else 0."""
    return np.where(np.abs(b) > bound, np.sign(b), 0.0)


def isolate(coef: np.ndarray, mag: np.ndarray, lo: float, hi: float
            ) -> tuple:
    """Brackets of the sign changes of each row's polynomial on [lo, hi],
    0 <= lo < hi, from its coefficients and the sums of their terms in
    absolute value (p, d + 1), lowest power first.

    A b_i within (8 + 2k) d eps of its magnitude, at halving depth k, has
    no sign: 8 d eps for the coefficients and the conversion, 2 d eps for
    each de Casteljau.  A part is halved until all its signs are certain
    with V <= 1, at 7/16 where the midpoint has no sign.  Each point's
    sign is fixed when it is made.  A part undecided after _DEPTH
    halvings, or with no sign at all, holds as many roots as its ends
    say, mod 2, and leaves its row not stable.  A row with a non-finite
    coefficient counts no root.

    Returns (rows, left, right, left_sign, stable): for each sign change
    between neighbouring points of certain sign, in row order, its row,
    points and sign at the left point; and per row whether every part
    was decided."""
    p, deg = coef.shape[0], coef.shape[1] - 1
    unit, width = deg * np.finfo(float).eps, hi - lo
    comb = np.array([[math.comb(j, k) for k in range(deg + 1)]
                     for j in range(deg + 1)], dtype=float)
    k, j = np.indices(comb.shape)
    shift = comb.T * lo ** np.maximum(j - k, 0) * width ** k
    row = np.flatnonzero(np.isfinite(coef).all(axis=1))
    # per part: coefficients and magnitudes (2, parts, d + 1), the left end
    # and width, and the signs at both ends
    b = np.stack([coef[row], mag[row]]) @ ((comb / comb[-1]) @ shift).T
    a, w = np.full(row.size, lo), np.full(row.size, width)
    ends = _certain_sign(b[0][:, ::deg], 8 * unit * b[1][:, ::deg])
    points = [(row, a, ends[:, 0]), (row, np.full(row.size, hi), ends[:, 1])]
    stable = np.ones(p, dtype=bool)
    for depth in range(_DEPTH + 1):
        signs = _certain_sign(b[0], (8 + 2 * depth) * unit * b[1])
        signs[:, ::deg] = ends
        undecided = ((signs == 0).any(axis=1)
                     | (np.count_nonzero(np.diff(signs), axis=1) > 1))
        split = undecided & (signs != 0).any(axis=1)
        if depth == _DEPTH:
            split[:] = False
        stable[row[undecided & ~split]] = False
        if not split.any():
            break
        row, a, w, b, ends = row[split], a[split], w[split], b[:, split], \
            ends[split]
        bound = (8 + 2 * (depth + 1)) * unit
        half = b @ (comb[-1] / 2.0 ** deg)
        r = np.where(np.abs(half[0]) > bound * half[1], 0.5, 0.4375)
        left, right = _de_casteljau(b, r[:, None])
        at = _certain_sign(left[0, :, -1], bound * left[1, :, -1])
        points.append((row, a + r * w, at))
        row, a, w = (np.concatenate(v) for v in
                     ((row, row), (a, a + r * w), (r * w, (1.0 - r) * w)))
        b = np.concatenate([left, right], axis=1)
        ends = np.concatenate([np.stack([ends[:, 0], at], axis=1),
                               np.stack([at, ends[:, 1]], axis=1)])
    rows, at, sign = (np.concatenate(v) for v in zip(*points))
    keep = np.lexsort((at, rows))
    keep = keep[sign[keep] != 0]
    rows, at, sign = rows[keep], at[keep], sign[keep]
    flip = (rows[1:] == rows[:-1]) & (sign[1:] != sign[:-1])
    return (rows[1:][flip], at[:-1][flip], at[1:][flip], sign[:-1][flip],
            stable)


def bisect_brackets(coef: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    left_sign: np.ndarray) -> np.ndarray:
    """The sign change in each bracket [lo, hi] of isolate, on whose left
    end that row of coef (lowest power first) has the sign left_sign,
    bisected on its polynomial by Horner's rule, all at once, to the last
    bit."""
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        val = coef[:, -1]
        for c in coef[:, -2::-1].T:
            val = val * mid + c
        same = np.sign(val) == left_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid
