"""Counter-based random streams.

Each sample point gets its own Philox stream keyed by (seed, index), so
probe results do not depend on evaluation order or chunking.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64-10 multipliers and Weyl key increments (Random123)
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
# numerator width of the dyadic points; keeps the window shifts of the
# averaging operators inside int64 range
BITS = 60


def substream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.uint64, b: np.ndarray):
    """High and low 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    ll, lh = a_lo * b_lo, a_lo * b_hi
    hl, hh = a_hi * b_lo, a_hi * b_hi
    mid = (ll >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = hh + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _first_words(seed: int, count: int) -> np.ndarray:
    """First uint64 of each stream substream(seed, i), i < count: Philox
    4x64-10 of counter (1, 0, 0, 0) under key (seed, i), word 0."""
    c0 = np.ones(count, dtype=np.uint64)
    c1 = np.zeros(count, dtype=np.uint64)
    c2 = np.zeros(count, dtype=np.uint64)
    c3 = np.zeros(count, dtype=np.uint64)
    k0 = np.uint64(seed & _MASK64)
    k1 = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def dyadic_points(seed: int, count: int) -> np.ndarray:
    """Random dyadic rationals k/2^60 in (0,1), returned as int64 numerators.

    Point i is the first draw integers(0, 2^60) of substream(seed, i),
    redrawn while it is 0.  A 60-bit draw is the stream's first word
    shifted right by 4, so all points come from one vectorized Philox
    pass; only the points whose first draw is 0 walk their stream.
    """
    out = (_first_words(seed, count)
           >> np.uint64(64 - BITS)).astype(np.int64)
    for i in np.flatnonzero(out == 0):
        gen = substream(seed, int(i))
        v = 0
        while v == 0:  # avoid the single boundary point 0
            v = int(gen.integers(0, 1 << BITS))
        out[i] = v
    return out
