import numpy as np
import pytest

from oulab import rng
from oulab.rng import dyadic_points, substream


def per_point_dyadic(seed, count):
    """dyadic_points as it ran before the vectorized pass: one Generator
    per point, redrawing while the draw is 0."""
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        gen = substream(seed, i)
        v = 0
        while v == 0:
            v = int(gen.integers(0, 1 << 60))
        out[i] = v
    return out


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1])
def test_dyadic_points_match_per_point_generators(seed):
    got = dyadic_points(seed, 20_000)
    assert got.dtype == np.int64
    assert np.array_equal(got, per_point_dyadic(seed, 20_000))


def test_dyadic_points_edge_counts():
    assert dyadic_points(3, 0).shape == (0,)
    assert np.array_equal(dyadic_points(3, 1), per_point_dyadic(3, 1))


def test_zero_first_word_walks_its_stream(monkeypatch):
    words = rng._first_words
    zeroed = [3, 17]

    def with_zeros(seed, count):
        out = words(seed, count)
        # a word below 2^4 is a 60-bit draw of 0
        out[zeroed] = np.uint64(5)
        return out

    walked = []

    def counting_substream(seed, index):
        walked.append(index)
        return substream(seed, index)

    monkeypatch.setattr(rng, "_first_words", with_zeros)
    monkeypatch.setattr(rng, "substream", counting_substream)
    got = dyadic_points(9, 40)
    assert walked == zeroed
    # the real streams draw nonzero first, so the walk returns that draw
    assert np.array_equal(got, per_point_dyadic(9, 40))


def test_substream_unchanged():
    gen = substream(7, 3)
    ref = np.random.Generator(np.random.Philox(
        key=np.array([7, 3], dtype=np.uint64)))
    assert np.array_equal(gen.integers(0, 1 << 62, 16),
                          ref.integers(0, 1 << 62, 16))
    # negative and oversized seeds and indices wrap to 64 bits
    a = substream(-1, 2 ** 64 + 4).random(8)
    b = substream(2 ** 64 - 1, 4).random(8)
    assert np.array_equal(a, b)
