import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oulab import (
    variation_batch,
    variation_exhaustive,
    variation_values,
)
from oulab import variation
from oulab.rng import substream
from oulab.variation import _candidates, _dp, _turning_points
from oulab.errors import (
    BadOrderError,
    EmptyPathError,
    TooLongError,
)
from reference_routes import (dp_fresh_columns, exceedance_sorted,
                              turning_points_nonzero,
                              variation_exhaustive_slow)


# ---------------------------------------------------------------------------
# exact values


def test_single_point_is_zero():
    assert variation_values(np.array([5.0]), 2.0) == 0.0


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
def test_two_points_is_increment(rho):
    assert variation_values(np.array([1.0, -2.5]), rho) == pytest.approx(3.5)


def test_zigzag_rho1_sums_all_jumps():
    vals = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    assert variation_values(vals, 1.0) == pytest.approx(4.0)


def test_zigzag_rho2_takes_root_of_square_sum():
    vals = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    assert variation_values(vals, 2.0) == pytest.approx(2.0)


def test_updownup_rho2_exact():
    # jumps 3, -2, 3: all three survive, (9 + 4 + 9)^(1/2)
    vals = np.array([0.0, 3.0, 1.0, 4.0])
    assert variation_values(vals, 2.0) == pytest.approx(np.sqrt(22.0))


@pytest.mark.parametrize("rho", [1.0, 2.0, 4.0])
def test_monotone_path_gives_span(rho):
    vals = np.array([0.3, 0.9, 2.2, 2.2, 5.0])
    assert variation_values(vals, rho) == pytest.approx(4.7)


def test_discrete_variation_sign_flip():
    assert variation_values(np.array([1.0, -1.0]), 2.0) == pytest.approx(2.0)


def test_discrete_variation_l2_bound_flag():
    # each entry enters at most two increments, so v(2) <= 2 * l2-norm
    gen = np.random.default_rng(8)
    for _ in range(20):
        vals = gen.standard_normal(int(gen.integers(1, 30)))
        cap = 2.0 * float(np.linalg.norm(vals))
        assert variation_values(vals, 2.0) <= cap * (1 + 1e-12)


# ---------------------------------------------------------------------------
# dynamic program vs exhaustive search


@pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
def test_dp_matches_exhaustive_on_random_paths(rho):
    gen = np.random.default_rng(42)
    for _ in range(40):
        n = int(gen.integers(2, 15))
        vals = gen.standard_normal(n) * gen.uniform(0.1, 10.0)
        fast = variation_values(vals, rho)
        slow = variation_exhaustive(vals, rho)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_exhaustive_agrees_with_slow_reference():
    gen = np.random.default_rng(7)
    for _ in range(10):
        vals = gen.standard_normal(int(gen.integers(2, 11)))
        assert variation_exhaustive(vals, 2.0) == pytest.approx(
            variation_exhaustive_slow(vals, 2.0), rel=1e-12)


def test_exhaustive_rejects_long_paths():
    with pytest.raises(TooLongError):
        variation_exhaustive(np.zeros(21), 2.0)


# ---------------------------------------------------------------------------
# structural properties


def test_seminorm_scaling_and_translation():
    gen = np.random.default_rng(3)
    vals = gen.standard_normal(12)
    v = variation_values(vals, 2.0)
    assert variation_values(3.5 * vals, 2.0) == pytest.approx(3.5 * v)
    assert variation_values(vals + 17.0, 2.0) == pytest.approx(v)
    assert variation_values(-vals, 2.0) == pytest.approx(v)


def test_subadditive_in_values():
    gen = np.random.default_rng(11)
    for _ in range(20):
        a = gen.standard_normal(10)
        b = gen.standard_normal(10)
        va = variation_values(a, 2.0)
        vb = variation_values(b, 2.0)
        assert variation_values(a + b, 2.0) <= va + vb + 1e-12


def test_monotone_under_subsampling():
    gen = np.random.default_rng(5)
    for _ in range(20):
        vals = gen.standard_normal(14)
        keep = np.sort(gen.choice(14, size=8, replace=False))
        sub = variation_values(vals[keep], 2.0)
        assert sub <= variation_values(vals, 2.0) + 1e-12


def test_decreasing_in_rho():
    gen = np.random.default_rng(9)
    vals = gen.standard_normal(12)
    v = [variation_values(vals, r) for r in (1.0, 1.5, 2.0, 3.0, 6.0)]
    assert all(v[i] >= v[i + 1] - 1e-12 for i in range(len(v) - 1))


def test_variation_properties_report():
    # monotone in rho, and sub- and superadditive across a shared point
    gen = np.random.default_rng(15)
    v = gen.standard_normal(12)
    full1, full2 = variation_values(v, 1.0), variation_values(v, 2.0)
    left, right = variation_values(v[:7], 1.0), variation_values(v[6:], 1.0)
    assert full1 >= full2 - 1e-12
    # the halves at rho = 1 recombine both ways around the shared point
    assert left + right == pytest.approx(full1)
    assert max(left, right) <= full1 + 1e-12
    for rho in (1.5, 2.0, 3.0):
        lo, hi = variation_values(v[:7], rho), variation_values(v[6:], rho)
        whole = variation_values(v, rho)
        assert whole >= (lo ** rho + hi ** rho) ** (1 / rho) * (1 - 1e-12)
        assert whole <= (lo + hi) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# validation


def test_values_reject_malformed_inputs():
    with pytest.raises(EmptyPathError):
        variation_values(np.array([]), 2.0)
    with pytest.raises(EmptyPathError):
        variation_values(np.zeros((2, 3)), 2.0)
    with pytest.raises(EmptyPathError):
        variation_batch(np.zeros(4), 2.0)
    with pytest.raises(EmptyPathError):
        variation_batch(np.zeros((3, 0)), 2.0)
    with pytest.raises(EmptyPathError):
        variation_exhaustive(np.array([]), 2.0)


def test_order_below_one_rejected():
    with pytest.raises(BadOrderError):
        variation_values(np.array([1.0, 2.0]), 0.5)


def test_variation_batch_matches_rowwise():
    gen = np.random.default_rng(33)
    rows = gen.standard_normal((6, 11))
    batch = variation_batch(rows, 2.0)
    for i in range(rows.shape[0]):
        assert batch[i] == pytest.approx(variation_values(rows[i], 2.0))


# ---------------------------------------------------------------------------
# turning-point compression against the full quadratic program


def quadratic_dp_reference(values, rho):
    """The program over every sample point, as it ran before compression."""
    v = np.asarray(values, dtype=float)
    return dp_fresh_columns(v, rho) ** (1.0 / rho)


# 1.078 still keeps 1e-300 ** rho as a denormal, 1.08 no longer does
@pytest.mark.parametrize("rho", [1.0, 1.05, 1.078, 1.08, 1.5, 2.0, 2.5, 3.0,
                                 7.0])
def test_dp_buffer_and_skipped_flush_keep_the_bits(rho):
    gen = np.random.default_rng(int(rho * 1000))
    walk = np.cumsum(gen.standard_normal((5, 60)), axis=1)
    # steps of 1e-302 sit below the flush threshold, on their own and
    # between ordinary values
    tiny = np.cumsum(gen.choice([-1e-302, 2e-302, 3e-302], (4, 30)), axis=1)
    mixed = tiny.copy()
    mixed[:, ::4] = walk[:4, :30:4]
    near = 1e-299 * gen.standard_normal((3, 25))
    for rows in (walk, tiny, mixed, near, walk[:1, :1]):
        assert np.array_equal(_dp(rows, rho), dp_fresh_columns(rows, rho))
    nan_rows = walk[:3, :12].copy()
    nan_rows[1, 4] = np.nan
    assert np.array_equal(_dp(nan_rows, rho), dp_fresh_columns(nan_rows, rho),
                          equal_nan=True)


def _cloud_row(gen, kind, n):
    if kind == 0:       # plateaus
        return np.round(gen.standard_normal(n), 1)
    if kind == 1:       # jitter at the last bits of 1.0
        return 1.0 + 1e-15 * gen.integers(-3, 4, n)
    if kind == 2:       # values next to the flush threshold
        return 1e-299 * gen.standard_normal(n)
    if kind == 3:       # increments from 1e-18 to 1e2
        steps = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-18, 2, n)
        return np.cumsum(steps)
    # smooth bump in t, like a semigroup path, with a plateau of zeros
    t = np.geomspace(1e-6, 40.0, n)
    row = gen.uniform(0.1, 2.0) * np.exp(-(np.log(t) - gen.uniform(-8, 3)) ** 2)
    row[: gen.integers(0, n)] *= 0.0 if gen.random() < 0.3 else 1.0
    return row


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_batch_bit_identical_to_quadratic_program(rho):
    gen = np.random.default_rng(int(rho * 10))
    for _ in range(150):
        n = int(gen.integers(1, 40))
        rows = [_cloud_row(gen, int(gen.integers(0, 5)), n)
                for _ in range(int(gen.integers(1, 8)))]
        vals = np.array(rows)
        assert np.array_equal(variation_batch(vals, rho),
                              quadratic_dp_reference(vals, rho))


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_values_bit_identical_to_quadratic_program_on_long_rows(rho):
    gen = np.random.default_rng(3)
    walk = np.cumsum(gen.standard_normal(600))
    t = np.linspace(0.0, 6.0, 600)
    smooth = np.sin(t) * np.exp(-t)
    for row in (walk, smooth):
        assert np.array_equal(variation_batch(row[None], rho),
                              quadratic_dp_reference(row[None], rho))


_values = st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, -1.0])),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_values, st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
def test_dp_matches_exhaustive_property(vals, rho):
    vals = np.array(vals)
    fast = variation_values(vals, rho)
    slow = variation_exhaustive(vals, rho)
    assert fast == pytest.approx(slow, rel=1e-14, abs=1e-300)


def test_turning_points_keep_ends_and_extrema():
    row = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 1.0, 1.0, 0.0, 5.0])
    kept, counts = _turning_points(np.stack([row, -row, np.full(9, 4.0)]))
    assert counts.tolist() == [4, 4, 1]
    assert kept.tolist() == [0.0, 3.0, 0.0, 5.0, 0.0, -3.0, 0.0, -5.0, 4.0]


def _same_kept(got, want):
    """Kept values (NaN equal to NaN, and the sign of every zero) and
    counts agree bit for bit."""
    (kept, counts), (ref, ref_counts) = got, want
    assert np.array_equal(kept, ref, equal_nan=True)
    assert np.array_equal(np.signbit(kept), np.signbit(ref))
    assert np.array_equal(counts, ref_counts)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 5e-324, np.nan, np.inf,
            -np.inf]


@st.composite
def _row_batches(draw):
    """A (rows, length) batch of length 1 to 11: small integers with ties,
    or a mix of signed zeros, NaN, infinities and tiny values."""
    m = draw(st.integers(1, 11))
    p = draw(st.integers(1, 8))
    elem = draw(st.sampled_from([
        st.integers(-2, 2).map(float), st.sampled_from(_SPECIAL),
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL))]))
    return np.array(draw(st.lists(st.lists(elem, min_size=m, max_size=m),
                                  min_size=p, max_size=p)))


@settings(max_examples=400, deadline=None)
@given(_row_batches())
def test_dense_turning_points_match_the_index_route(v):
    _same_kept(_turning_points(v), turning_points_nonzero(v))


@settings(max_examples=100, deadline=None)
@given(_row_batches(), st.integers(1, 24))
def test_dense_turning_points_across_blocks(v, block):
    # blocks of a few values, so that one batch spans many of them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variation, "_BLOCK", block)
        _same_kept(_turning_points(v), turning_points_nonzero(v))


def test_dense_turning_points_on_full_size_blocks():
    gen = np.random.default_rng(4)
    for m in (1, 2, 3, 40):
        # about 3.7 blocks of _BLOCK values, with ties and flat runs
        v = gen.integers(0, 3, (int(3.7 * variation._BLOCK) // m, m))
        v = v.astype(float)
        v[::7] = np.repeat(v[::7, :1], m, axis=1)
        _same_kept(_turning_points(v), turning_points_nonzero(v))


def _weak_full_paths(seed):
    """The arrays a full-regime weak-type probe on standard1 hands to
    variation_batch on the whole-grid route, one per time grid it refines
    to."""
    from oulab import semigroup, standard_model
    seen = []

    def keep(values, rho):
        seen.append(np.array(values))
        return variation_batch(values, rho)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "variation_batch", keep)
        # standard1 would take the critical-time route
        mp.setattr(semigroup, "isotropic_rates", lambda model: None)
        semigroup.weak_type_probe(standard_model(1), 2.5, seed=seed)
    return seen


def test_batch_bit_identical_to_the_index_route_on_probe_paths_and_walks():
    rows = _weak_full_paths(0) + [walk[None] for walk in _walks()]
    assert [r.shape[1] for r in rows[:-3]] == [114, 227, 453]
    for v in rows:
        _same_kept(_turning_points(v), turning_points_nonzero(v))
        want = variation_batch(v, 2.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variation, "_turning_points", turning_points_nonzero)
            assert np.array_equal(variation_batch(v, 2.5), want)


@pytest.mark.parametrize("rho", [1.0, 2.0, 2.5])
def test_edge_rows(rho):
    assert variation_batch(np.array([[3.0], [-1.0]]), rho).tolist() == [0.0, 0.0]
    two = variation_batch(np.array([[1.0, -2.5], [4.0, 4.0]]), rho)
    assert two[0] == pytest.approx(3.5) and two[1] == 0.0
    assert variation_values(np.full(50, 0.7), rho) == 0.0
    up = np.cumsum(np.linspace(0.1, 1.0, 30))
    rows = np.stack([up, up[::-1]])
    got = variation_batch(rows, rho)
    assert got == pytest.approx([up[-1] - up[0]] * 2, rel=1e-14)
    if rho > 1:
        # at rho = 1 the run's sum of steps ties with its span, and the two
        # round differently; above it the span wins by a clear margin
        assert np.array_equal(got, quadratic_dp_reference(rows, rho))


def test_nan_and_empty_batches_behave_as_before():
    rows = np.array([[1.0, np.nan, 2.0], [1.0, 2.0, 3.0]])
    got = variation_batch(rows, 2.0)
    assert np.isnan(got[0]) and got[1] == pytest.approx(2.0)
    assert variation_batch(np.zeros((0, 4)), 2.0).shape == (0,)


# ---------------------------------------------------------------------------
# the sparse program on rows that keep more than 512 points


def _walks(count=3, steps=6000):
    # the benchmark's rough-paths walks for seed 0
    return np.array([np.cumsum(substream(0, 500 + k).standard_normal(steps))
                     for k in range(count)])


def _kept_reference(row, rho):
    """The quadratic program over the row's kept points."""
    kept, _ = _turning_points(row[None])
    return quadratic_dp_reference(kept[None], rho)


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.5])
def test_sparse_route_keeps_the_bits_on_long_walks(rho):
    walks = _walks()
    assert _turning_points(walks)[1].min() > 512
    assert np.array_equal(variation_batch(walks, rho),
                          quadratic_dp_reference(walks, rho))


@pytest.mark.parametrize("rho", [1.0, 1.05, 1.078, 1.08, 1.5, 2.0, 2.5, 3.0,
                                 7.0])
def test_sparse_route_keeps_the_bits_on_long_cloud_rows(rho):
    # smooth rows (kind 4) keep a few points and stay on the full program;
    # the other kinds keep about 300 to 1,300 points and cross the
    # 512-point line on both sides
    gen = np.random.default_rng(int(rho * 1000) + 1)
    for kind in range(5):
        for _ in range(2):
            row = _cloud_row(gen, kind, int(gen.integers(600, 2001)))
            assert np.array_equal(variation_batch(row[None], rho),
                                  _kept_reference(row, rho))
            if rho >= 1.5:
                assert np.array_equal(variation_batch(row[None], rho),
                                      quadratic_dp_reference(row[None], rho))


@pytest.mark.parametrize("rho", [2.0, 2.5])
def test_sparse_route_in_a_batch_of_long_and_short_rows(rho):
    gen = np.random.default_rng(17)
    n = 1500
    long_walk = np.cumsum(gen.standard_normal(n))
    half_walk = np.concatenate([long_walk[:800],
                                np.full(n - 800, long_walk[799])])
    short = np.cumsum(gen.standard_normal(n)) * (np.arange(n) % 300 < 4)
    smooth = np.sin(np.linspace(0.0, 9.0, n))
    rows = np.stack([long_walk, smooth, half_walk, short, np.full(n, 2.0),
                     _cloud_row(gen, 0, n)])
    counts = _turning_points(rows)[1]
    assert (counts > 512).any() and (counts <= 512).any()
    assert np.array_equal(variation_batch(rows, rho),
                          quadratic_dp_reference(rows, rho))


def test_long_rows_with_nan_or_inf_stay_on_the_full_program(monkeypatch):
    gen = np.random.default_rng(23)
    rows = np.cumsum(gen.standard_normal((5, 1500)), axis=1)
    rows[0, 700] = np.nan
    rows[1, 10] = rows[1, 900] = np.inf        # inf - inf is NaN
    rows[2, 5] = -np.inf
    rows[3, 1499] = np.nan
    widths = []
    full = variation._dp

    def counted(v, rho):
        widths.append(v.shape[1])
        return full(v, rho)

    monkeypatch.setattr(variation, "_dp", counted)
    with np.errstate(invalid="ignore"):
        got = variation_batch(rows, 2.0)
        ref = quadratic_dp_reference(rows, 2.0)
    assert np.isnan(got[[0, 1, 3]]).all()
    assert np.array_equal(got, ref, equal_nan=True)
    # the four non-finite rows ran on the full program, the finite one not
    assert len(widths) == 1 and widths[0] > 512
    widths.clear()
    variation_batch(rows[4:], 2.0)
    assert widths == []


def test_trending_rows_with_quadratic_candidates_take_the_full_program(
        monkeypatch):
    # on a rising sawtooth every point is kept, and at each peak every
    # earlier valley is a candidate: about m^2 / 8 of them; a walk with
    # drift has linearly many strict suffix minima
    t = np.arange(6000.0)
    rows = np.stack([t + 3.0 * (-1.0) ** t,
                     np.cumsum(substream(0, 600).standard_normal(6000) + 0.5)])
    counts = _turning_points(rows)[1]
    assert counts.min() > 512
    for r in range(2):
        row = _turning_points(rows[r:r + 1])[0].tolist()
        assert _candidates(row, variation._SPARSE_PER_POINT * len(row)) is None
    widths = []
    full = variation._dp

    def counted(v, rho):
        widths.append(v.shape)
        return full(v, rho)

    monkeypatch.setattr(variation, "_dp", counted)
    for rho in (1.5, 2.0):
        for r in range(2):
            widths.clear()
            assert np.array_equal(variation_batch(rows[r:r + 1], rho),
                                  quadratic_dp_reference(rows[r:r + 1], rho))
            assert widths == [(1, counts[r])]


def test_walk_candidates_are_below_a_hundredth_of_the_cells():
    kept, counts = _turning_points(_walks(1))
    m = int(counts[0])
    cand, ends = _candidates(kept.tolist(), variation._SPARSE_PER_POINT * m)
    assert len(ends) == m + 1 and ends[-1] == len(cand)
    assert len(cand) < m * (m - 1) / 2 / 100
    # every column keeps its left neighbour, and only earlier points
    for k in range(1, m):
        stretch = cand[ends[k]:ends[k + 1]]
        assert k - 1 in stretch and max(stretch) < k


# ---------------------------------------------------------------------------
# variation against the derivative integral


def derivative_bound_check(fn, dfn, interval, rho, grid_size=512):
    """Sampled v(rho) against the integral of |derivative| over the
    interval; for C^1 paths the variation never exceeds the integral."""
    from scipy.integrate import quad
    a, b = float(interval[0]), float(interval[1])
    vals = np.array([fn(t) for t in np.linspace(a, b, grid_size)])
    total, _ = quad(lambda t: abs(dfn(t)), a, b, limit=400)
    return variation_values(vals, rho), total


def test_derivative_bound_identity_path():
    v, integral = derivative_bound_check(
        lambda t: t, lambda t: np.ones_like(t), (0.0, 1.0), 1.0)
    assert v == pytest.approx(1.0)
    assert integral == pytest.approx(1.0)


def test_derivative_bound_sine_rho1():
    two_pi = 2.0 * np.pi
    v, integral = derivative_bound_check(
        lambda t: np.sin(two_pi * t),
        lambda t: two_pi * np.cos(two_pi * t),
        (0.0, 1.0), 1.0)
    assert integral == pytest.approx(4.0, rel=1e-6)
    assert v <= integral + 1e-12
    assert v == pytest.approx(4.0, rel=1e-3)


def test_derivative_bound_sine_rho2():
    two_pi = 2.0 * np.pi
    v, integral = derivative_bound_check(
        lambda t: np.sin(two_pi * t),
        lambda t: two_pi * np.cos(two_pi * t),
        (0.0, 1.0), 2.0)
    # best partition keeps the three extreme swings: 1, 2, 1
    assert v == pytest.approx(np.sqrt(6.0), rel=1e-3)
    assert v <= integral + 1e-12


# ---------------------------------------------------------------------------
# the empirical distribution function


def _broadcast_exceedance(values, levels):
    """The broadcast form the probes used: the mean of v > a per level."""
    return (values[None, :] > levels[:, None]).mean(axis=1)


def test_exceedance_matches_the_broadcast_form_on_ties_and_sample_levels():
    gen = np.random.default_rng(5)
    v = np.round(gen.standard_normal(997), 1)          # many ties
    levels = np.concatenate([np.unique(v), np.linspace(-3, 3, 41),
                             v[:7], [v.min() - 1.0, v.max(), v.max() + 1.0,
                                     -np.inf, np.inf]])
    got = variation.exceedance(v, levels)
    assert np.array_equal(got, _broadcast_exceedance(v, levels))
    assert got[-5] == 1.0 and got[-4] == got[-3] == got[-1] == 0.0
    assert got[-2] == 1.0


def test_exceedance_nan_values_exceed_no_level():
    v = np.array([0.5, np.nan, 1.5, 0.5, np.nan, -2.0, np.inf])
    levels = np.array([-np.inf, -2.0, 0.0, 0.5, 1.0, 1.5, 10.0, np.inf])
    got = variation.exceedance(v, levels)
    assert np.array_equal(got, _broadcast_exceedance(v, levels))
    # the NaN entries count in the size but never above a level
    assert got[0] == 5 / 7
    assert np.array_equal(variation.exceedance(np.full(4, np.nan), levels),
                          np.zeros(levels.size))


def test_exceedance_on_a_half_sample_and_bootstrap_rows():
    gen = np.random.default_rng(9)
    v = gen.lognormal(size=2001)
    before = v.copy()
    levels = np.geomspace(np.quantile(v, 0.5), v.max() * 1.05, 48)
    for sample in (v, v[:1000], v[gen.integers(0, v.size, v.size)]):
        assert np.array_equal(variation.exceedance(sample, levels),
                              _broadcast_exceedance(sample, levels))
    assert np.array_equal(v, before)    # the sample is not sorted in place


def test_exceedance_on_unsorted_and_repeated_levels():
    gen = np.random.default_rng(12)
    v = np.round(gen.standard_normal(501), 1)
    v[::17] = np.nan
    levels = np.concatenate([v[:40], [0.0, -0.0, 0.0, np.inf, -np.inf]])
    levels = levels[~np.isnan(levels)][gen.permutation(42)]
    got = variation.exceedance(v, levels)
    assert np.array_equal(got, _broadcast_exceedance(v, levels))
    assert np.array_equal(got, exceedance_sorted(v, levels))
    idx = gen.integers(0, v.size, (9, v.size))
    rows = variation.exceedance(v, levels, idx)
    assert rows.shape == (9, levels.size)
    for r in range(9):
        assert np.array_equal(rows[r], _broadcast_exceedance(v[idx[r]], levels))


def test_exceedance_of_an_all_nan_sample_and_its_resamples():
    v = np.full(6, np.nan)
    levels = np.array([3.0, -np.inf, 0.0, 3.0])
    assert np.array_equal(variation.exceedance(v, levels), np.zeros(4))
    idx = np.zeros((3, 6), dtype=np.intp)
    assert np.array_equal(variation.exceedance(v, levels, idx),
                          np.zeros((3, 4)))


_samples = st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.sampled_from([np.nan, np.inf, -np.inf, -0.0])),
                    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_samples, _samples, st.integers(0, 2 ** 32 - 1))
def test_exceedance_matches_the_sorted_route_property(vals, levels, seed):
    v, levels = np.array(vals), np.array(levels)
    assert np.array_equal(variation.exceedance(v, levels),
                          exceedance_sorted(v, levels))
    idx = np.random.default_rng(seed).integers(0, v.size, (4, v.size))
    rows = variation.exceedance(v, levels, idx)
    for r in range(4):
        assert np.array_equal(rows[r], exceedance_sorted(v[idx[r]], levels))
