import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oulab import (apply_semigroup, build_model, gaussian_bump, local_weight,
                   propagators, quadratic_r, standard_model, variation_batch,
                   weak_type_probe)
from oulab.errors import ArgumentRangeError, BadOrderError, DimensionError
from oulab.kernel import _BLOCK_CELLS
from oulab.geometry import eta_plateaus
from oulab.quadrature import hermite_tensor
from oulab.variation import exceedance
from oulab import semigroup
from oulab.semigroup import (_geometric_times, _node_r_range, _part_values,
                             _refine, _spread, _sup_weighted_tail, _tiles,
                             bump_semigroup_grid, local_global_grid,
                             variation_batch_paths)
from conftest import random_stable_model
from reference_routes import (block_nodes, bootstrap_statistics_loop,
                              bump_semigroup_grid_einsum,
                              local_global_grid_all_nodes, split_blocks)


def full_reevaluation(model, f, x, rho, ts, part, tol, max_refine, order):
    """variation_batch_paths as it ran before midpoint reuse: every
    refinement evaluates the whole refined grid again.  The refined grid
    is the sorted union of the times and their geometric midpoints, built
    here without _refine."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vals = _part_values(model, f, ts, x, part, order)
    floor = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    prev = variation_batch(vals, rho)
    for _ in range(max_refine):
        ts = np.sort(np.concatenate([ts, np.sqrt(ts[:-1] * ts[1:])]))
        cur = variation_batch(_part_values(model, f, ts, x, part, order), rho)
        rel = float(np.max(np.abs(cur - prev) /
                           np.maximum(np.abs(cur), floor)))
        prev = cur
        if rel < tol:
            return prev, True, ts.size
    return prev, False, ts.size


def interleaved_grids(model, f, x, ts, part, rounds, order):
    """The grids of variation_batch_paths as they were built before the
    in-place grid: each round's midpoints evaluated into an array of their
    own, then interleaved with the known columns in a fresh array."""
    grids = [_part_values(model, f, ts, x, part, order)]
    for _ in range(rounds):
        ts, mids = _refine(ts)
        new = _part_values(model, f, mids, x, part, order)
        grid = np.empty((x.shape[0], ts.size))
        grid[:, 0::2], grid[:, 1::2] = grids[-1], new
        grids.append(grid)
    return grids


def _case(name, model_factory=None):
    if name == "standard1":
        model = standard_model(1)
    else:
        model = model_factory(4, 2)
    gen = np.random.default_rng(17)
    xs = gen.standard_normal((12, model.n)) @ model.Qinf_sqrt.T
    f = gaussian_bump(model, 0.5 * np.ones(model.n), 0.5)
    return model, f, xs


@pytest.mark.parametrize("name", ["standard1", "random2"])
@pytest.mark.parametrize("part", ["full", "local", "global"])
def test_midpoint_reuse_matches_full_reevaluation(name, part, model_factory):
    model, f, xs = _case(name, model_factory)
    ts = _geometric_times(1e-3, 1.0, 4)
    # a tolerance no path meets, so every refinement round runs
    for tol in (0.0, 1e-3):
        got = variation_batch_paths(model, f, xs, 2.5, ts, part=part,
                                    tol=tol, max_refine=3, order=12)
        ref = full_reevaluation(model, f, xs, 2.5, ts, part, tol, 3, 12)
        assert got[1:] == ref[1:]
        assert np.array_equal(got[0], ref[0])


@pytest.mark.parametrize("part", ["full", "local"])
def test_midpoint_reuse_from_a_two_point_grid(part):
    # the first refinement has a single midpoint
    model, f, xs = _case("standard1")
    ts = np.array([0.05, 0.8])
    got = variation_batch_paths(model, f, xs, 2.0, ts, part=part,
                                tol=0.0, max_refine=4, order=12)
    ref = full_reevaluation(model, f, xs, 2.0, ts, part, 0.0, 4, 12)
    assert got[1:] == ref[1:] == (False, 17)
    assert np.array_equal(got[0], ref[0])


@pytest.mark.parametrize("name", ["standard1", "random2"])
@pytest.mark.parametrize("part", ["full", "local", "global"])
def test_in_place_grid_matches_evaluate_then_interleave(name, part,
                                                        model_factory,
                                                        monkeypatch):
    # every grid the DP sees, not only the variation, keeps its bits
    model, f, xs = _case(name, model_factory)
    ts = _geometric_times(1e-3, 1.0, 4)
    seen = []

    def record(values, rho):
        seen.append(values.copy())
        return variation_batch(values, rho)

    monkeypatch.setattr(semigroup, "variation_batch", record)
    # tol = 0 runs every round
    variation_batch_paths(model, f, xs, 2.5, ts, part=part, tol=0.0,
                          max_refine=3, order=12)
    grids = interleaved_grids(model, f, xs, ts, part, 3, 12)
    assert len(seen) == len(grids) == 4
    assert all(np.array_equal(a, b) for a, b in zip(seen, grids))


def test_refine_keeps_the_old_times_and_puts_midpoints_between():
    ts = _geometric_times(1e-6, 40.0, 16)
    for _ in range(3):
        refined, mids = _refine(ts)
        assert refined.size == 2 * ts.size - 1
        assert np.array_equal(refined[0::2], ts)
        assert np.array_equal(refined[1::2], mids)
        assert np.all(ts[:-1] < mids) and np.all(mids < ts[1:])
        ts = refined
    assert math.isclose(ts[0], 1e-6) and math.isclose(ts[-1], 40.0)


@pytest.mark.parametrize("t_min,t_max,per_decade,count", [
    (1e-6, 40.0, 16, 123), (1e-8, 1.0, 48, 385), (1e-8, 1.0, 96, 769),
    (1.0, 10.0, 16, 17), (1e-3, 1.0, 4, 13), (0.5, 0.6, 1, 2)])
def test_geometric_times_follow_the_count_formula(t_min, t_max, per_decade,
                                                  count):
    # count = max(2, ceil(decades * per_decade) + 1)
    assert count == max(
        2, math.ceil(math.log10(t_max / t_min) * per_decade) + 1)
    assert np.array_equal(_geometric_times(t_min, t_max, per_decade),
                          np.geomspace(t_min, t_max, count))


# ---------------------------------------------------------------------------
# the three routes to H_t f agree


@pytest.mark.parametrize("t", [1e-4, 1e-3, 0.1, 1.0, 5.0, 30.0])
def test_closed_kernel_and_transition_forms_agree(t, model_factory):
    gen = np.random.default_rng(int(1e4 * t))
    for n in (1, 2, 3):
        random_model = model_factory(5, n)
        cases = ((standard_model(n), np.zeros(n), np.full(n, 0.4)),
                 (random_model, 0.5 * gen.standard_normal(n),
                  gen.standard_normal(n) @ random_model.Qinf_sqrt.T))
        for model, center, x in cases:
            f = gaussian_bump(model, center, 0.5)
            closed = bump_semigroup_grid(
                model, f, propagators(model, np.array([t])), x)[0, 0]
            for form in ("kernel", "kolmogorov"):
                got = apply_semigroup(model, f, x, t, form=form)
                assert got == pytest.approx(closed, rel=1e-12), (n, form)


# ---------------------------------------------------------------------------
# the blocked closed form keeps the bits of the einsum route


@st.composite
def _bump_grid_cases(draw):
    """(model, bump, props, x, out view or None, the array it views) for
    one of the block layouts of bump_semigroup_grid: rows no multiple of a
    block's rows, a single time, rows longer than a block, or out as a
    strided column view."""
    n = draw(st.integers(1, 3))
    model = random_stable_model(draw(st.integers(0, 10 ** 6)), n)
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = gaussian_bump(model, gen.standard_normal(n),
                      draw(st.floats(0.1, 2.0)))
    layout = draw(st.sampled_from(["ragged", "one time", "long rows",
                                   "strided out"]))
    if layout == "one time":
        m = 1
        p = draw(st.integers(1, 2 * _BLOCK_CELLS + 3))
    elif layout == "long rows":
        m = draw(st.integers(_BLOCK_CELLS + 1, _BLOCK_CELLS + 300))
        p = draw(st.integers(1, 3))
    else:
        m = draw(st.integers(2, 700))
        per_block = _BLOCK_CELLS // m
        p = per_block * draw(st.integers(1, 3)) + draw(
            st.integers(1, max(1, per_block - 1)))
    ts = np.sort(10.0 ** gen.uniform(-6.0, 1.6, m))
    x = 1.5 * gen.standard_normal((p, n)) @ model.Qinf_sqrt.T
    if layout != "strided out":
        return model, f, propagators(model, ts), x, None, None
    whole = np.full((p, 2 * m + 1), -7.0)
    return model, f, propagators(model, ts), x, whole[:, 1::2], whole


@settings(max_examples=60, deadline=None)
@given(_bump_grid_cases())
def test_bump_grid_keeps_the_bits_of_the_einsum_route(case):
    model, f, props, x, out, whole = case
    got = bump_semigroup_grid(model, f, props, x, out=out)
    # for n = 2 numpy's einsum sums <S z, z> of a grid of one time and at
    # most two points in another order than that of any larger grid, so its
    # bits for a cell hang on the size of the grid; the reference is taken
    # on the rows three times over, in the order of the larger grids
    ref = bump_semigroup_grid_einsum(model, f, props,
                                     np.vstack([x] * 3))[:len(x)]
    if out is not None:
        assert got is out and np.all(whole[:, 0::2] == -7.0)
    if model.n <= 2:
        assert np.array_equal(got, ref)
    else:
        # numpy's einsum sums the three products of z_i in two interleaved
        # partial sums, (T0 + T2) + T1, and so rounds apart from the fixed
        # j order wherever e^{tB} has off-diagonal entries
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-300)
    # one row at a time is one block per row: the bits ignore the blocks
    rows = np.vstack([bump_semigroup_grid(model, f, props, xi[None])
                      for xi in x[:4]])
    assert np.array_equal(rows, got[:4])


@pytest.mark.parametrize("spec", ["standard1", "standard2", "standard3",
                                  "general2"])
def test_bump_grid_of_the_reported_models_keeps_the_einsum_bits(spec):
    # standard3 has a diagonal drift, so its off-diagonal sums add zeros
    model = build_model(*GENERAL2) if spec == "general2" \
        else standard_model(int(spec[-1]))
    gen = np.random.default_rng(3)
    f = gaussian_bump(model, gen.standard_normal(model.n), 0.5)
    props = propagators(model, _geometric_times(1e-6, 40.0, 16))
    x = gen.standard_normal((500, model.n)) @ model.Qinf_sqrt.T
    assert np.array_equal(bump_semigroup_grid(model, f, props, x),
                          bump_semigroup_grid_einsum(model, f, props, x))


def _traced_peak_mib(f, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _weak_full_inputs(seed=0):
    """The bump, sample and starting times of a standard1 full probe."""
    model = standard_model(1)
    f = gaussian_bump(model, semigroup.substream(seed, 100).standard_normal(1)
                      @ model.Qinf_sqrt.T, 0.5)
    xs = semigroup.substream(seed, 200).standard_normal((2000, 1)) \
        @ model.Qinf_sqrt.T
    return model, f, xs, semigroup._regime_times(model, "full", 16)


def test_bump_grid_keeps_no_stack_beside_its_result():
    # the einsum route peaked at 27.7 MiB for this 6.9 MiB result
    model, f, xs, ts = _weak_full_inputs()
    props = propagators(model, _refine(_refine(ts)[0])[0])
    assert props.ts.size == 453
    result = xs.shape[0] * props.ts.size * 8 / 2 ** 20
    peak = _traced_peak_mib(bump_semigroup_grid, model, f, props, xs)
    assert peak <= result + 1.0


def test_full_refinement_peak_stays_small():
    # the refined grid is the only array of a round's width (about 17 MiB
    # at its peak with an interleaved copy and an einsum route)
    model, f, xs, ts = _weak_full_inputs()
    peak = _traced_peak_mib(variation_batch_paths, model, f, xs, 2.5, ts,
                            part="full")
    assert peak <= 12.0


@pytest.mark.parametrize("name", ["standard1", "standard2", "random1",
                                  "random2"])
def test_near_and_far_parts_add_to_the_closed_form(name, model_factory):
    n = int(name[-1])
    model = standard_model(n) if name.startswith("standard") \
        else model_factory(3, n)
    f = gaussian_bump(model, np.full(n, 0.6), 0.5)
    props = propagators(model, np.geomspace(1e-5, 1.0, 17))
    xs = 2.5 * np.random.default_rng(n).standard_normal((24, n)) \
        @ model.Qinf_sqrt.T
    near, far = local_global_grid(model, f, props, xs)
    whole = bump_semigroup_grid(model, f, props, xs)
    assert near + far == pytest.approx(whole, rel=1e-12, abs=1e-300)
    assert np.all(near >= 0) and np.all(far >= -1e-15 * whole)
    # both parts carry weight somewhere
    assert near.max() > 1e-4 * whole.max() and far.max() > 1e-4 * whole.max()


# ---------------------------------------------------------------------------
# blocks decided before their nodes are expanded


def _block_range(model, mean, L, z):
    """The R range local_global_grid gives each (point, time) block: about
    its mean, with radius |Qinf^-1/2 L_t|_2 max_k |z_k|."""
    zmax = np.sqrt(np.max(np.einsum("qi,qi->q", z, z)))
    return _node_r_range(model, mean, _spread(model, L) * zmax,
                         np.linalg.cond(model.Qinf))


def _split_case(name, model_factory):
    n = int(name[-1])
    model = standard_model(n) if name.startswith("standard") \
        else model_factory(6, n)
    f = gaussian_bump(model, np.full(n, 0.4), 0.5)
    props = propagators(model, np.geomspace(1e-6, 1.0, 13 if n == 1 else 7))
    xs = 1.5 * np.random.default_rng(n).standard_normal(
        (24 if n == 1 else 4, n)) @ model.Qinf_sqrt.T
    return model, f, props, xs, 16 if n == 3 else None


@pytest.mark.parametrize("name", ["standard1", "standard2", "random1",
                                  "random2", "random3"])
def test_block_decision_matches_every_node(name, model_factory):
    model, f, props, xs, order = _split_case(name, model_factory)
    near, far = local_global_grid(model, f, props, xs, order=order)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs,
                                                    order=order)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)
    # some blocks are decided whole and some are expanded
    mean, L, z, _ = split_blocks(model, f, props, xs, order)
    one, zero = eta_plateaus(quadratic_r(model, xs)[:, None],
                             *_block_range(model, mean, L, z))
    assert 0 < np.count_nonzero(one | zero) < one.size


def test_block_decision_at_every_threshold():
    # a narrow bump pulls the blocks off R(x), inward for the centre 0 and
    # outward for 4, so their R ranges straddle each test of eta_plateaus
    model = standard_model(1)
    props = propagators(model, np.geomspace(1e-4, 1e-2, 9))
    xs = np.linspace(0.3, 4.2, 40)[:, None]
    rx = quadratic_r(model, xs)[:, None]
    straddled = set()
    for c in (0.0, 4.0):
        f = gaussian_bump(model, [c], 0.05)
        near, far = local_global_grid(model, f, props, xs)
        ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs)
        assert np.array_equal(near, ref_near)
        assert np.array_equal(far, ref_far)
        b = np.maximum(np.floor(quadratic_r(
            model, block_nodes(*split_blocks(model, f, props, xs)[:3]))), 1.0)
        b_lo, b_hi = b.min(axis=-1), b.max(axis=-1)
        for d in (-3, -1, 2, 4):
            if np.any((rx - b_hi < d) & (rx - b_lo > d)):
                straddled.add(("d", d))
        if np.any((b_lo <= 2) & (b_hi > 2)):
            straddled.add(("b", 2))
        if np.any((b_lo < 4) & (b_hi >= 4)):
            straddled.add(("b", 4))
    assert straddled == {("d", -3), ("d", -1), ("d", 2), ("d", 4),
                         ("b", 2), ("b", 4)}


@pytest.mark.parametrize("name", ["standard1", "random1", "random2",
                                  "random3"])
def test_block_range_holds_every_node(name, model_factory):
    # in 1-d the extreme nodes sit on the bound itself, where rounding
    # alone can carry them past it; the margin keeps them inside
    model, f, props, xs, order = _split_case(name, model_factory)
    mean, L, z, _ = split_blocks(model, f, props, xs, order)
    lo, hi = _block_range(model, mean, L, z)
    r = quadratic_r(model, block_nodes(mean, L, z))
    assert np.all(r >= lo[..., None]) and np.all(r <= hi[..., None])


GENERAL2 = ([[1.0, 0.3], [0.3, 0.5]], [[-1.0, 2.0], [0.0, -0.5]])


def _tile_case(name, model_factory, order):
    if name == "general2":
        model = build_model(*GENERAL2)
    elif name.startswith("standard"):
        model = standard_model(int(name[-1]))
    else:
        model = model_factory(7, int(name[-1]))
    n = model.n
    f = gaussian_bump(model, np.full(n, 0.4), 0.5)
    props = propagators(model, np.geomspace(1e-5, 1.0, 9 if n < 3 else 3))
    xs = 1.5 * np.random.default_rng(n).standard_normal(
        (12 if n < 3 else 2, n)) @ model.Qinf_sqrt.T
    return model, f, props, xs, order


def _tile_ranges(model, mean, L, z):
    """The R range local_global_grid gives every tile of every block,
    (p, m, T) each, with the tiles."""
    tiles, _, zc, z_rad = _tiles(z)
    centre = mean[:, :, None, :] + np.einsum("mij,tj->mti", L, zc)[None]
    return tiles, _node_r_range(model, centre,
                                _spread(model, L)[:, None] * z_rad,
                                np.linalg.cond(model.Qinf))


_TILE_CASES = [("standard1", 12), ("standard1", 13), ("standard1", None),
               ("standard2", 12), ("standard2", 13), ("general2", None),
               ("random1", 13), ("random2", 12), ("random3", 12),
               ("random3", None)]


@pytest.mark.parametrize("name,order", _TILE_CASES)
def test_tile_range_holds_every_node(name, order, model_factory):
    model, f, props, xs, order = _tile_case(name, model_factory, order)
    mean, L, z, _ = split_blocks(model, f, props, xs, order)
    tiles, (lo, hi) = _tile_ranges(model, mean, L, z)
    r = quadratic_r(model, block_nodes(mean, L, z))[:, :, tiles]
    assert np.all(r >= lo[..., None]) and np.all(r <= hi[..., None])
    # every node sits in a tile, and a short tile only repeats its own
    assert np.array_equal(np.unique(tiles), np.arange(z.shape[0]))


@pytest.mark.parametrize("name,order", _TILE_CASES)
def test_tile_decision_matches_every_node(name, order, model_factory):
    model, f, props, xs, order = _tile_case(name, model_factory, order)
    near, far = local_global_grid(model, f, props, xs, order=order)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs,
                                                    order=order)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)


def test_tiles_are_consecutive_nodes_per_axis():
    # order 13 in 2-d: tiles of 8 x 8, 8 x 5, 5 x 8 and 5 x 5 nodes
    z, _ = hermite_tensor(2, 13)
    tiles, pos, _, _ = _tiles(z)
    assert tiles.shape == (4, 64)
    assert np.array_equal(tiles.ravel()[pos], np.arange(169))
    rows, cols = np.divmod(tiles, 13)
    sizes = [np.unique(t).size for t in tiles]
    assert sizes == [64, 40, 40, 25]
    assert np.array_equal(np.unique(rows[0]), np.arange(8))
    assert np.array_equal(np.unique(cols[3]), np.arange(8, 13))


def test_undecided_block_with_every_tile_decided(monkeypatch):
    # in 2-d the block's R range reaches s + r, r from the corner node, in
    # the direction of the mean, where the nodes reach only about s + r /
    # sqrt(2); a level just past the nodes there leaves the block open
    # while every tile keeps clear of it
    import oulab.semigroup as sg
    model = standard_model(2)
    f = gaussian_bump(model, np.zeros(2), 0.5)
    props = propagators(model, np.geomspace(1e-4, 1e-2, 8))
    xs = np.stack([np.linspace(1.5, 4.0, 50), np.zeros(50)], axis=-1)
    mean, L, z, _ = split_blocks(model, f, props, xs, 12)
    rx = quadratic_r(model, xs)[:, None]
    b_one, b_zero = eta_plateaus(rx, *_block_range(model, mean, L, z))
    _, (lo, hi) = _tile_ranges(model, mean, L, z)
    t_one, t_zero = eta_plateaus(rx[..., None], lo, hi)
    found = ~(b_one | b_zero) & np.all(t_one | t_zero, axis=-1)
    assert np.any(found)
    p, t = np.argwhere(found)[0]
    seen = []

    def spy(model, x, u):
        seen.append(u.shape[0] * u.shape[1])
        return local_weight(model, x, u)

    monkeypatch.setattr(sg, "local_weight", spy)
    one_t = propagators(model, props.ts[t:t + 1])
    near, far = local_global_grid(model, f, one_t, xs[p], order=12)
    assert sum(seen) == 0
    ref_near, ref_far = local_global_grid_all_nodes(model, f, one_t, xs[p],
                                                    order=12)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)


def test_no_default_order_past_three_dimensions():
    # a default rule would need 32^4 nodes per (point, time) block
    with pytest.raises(BadOrderError):
        weak_type_probe(standard_model(4), 2.5, regime="local-small-t",
                        sample_size=1000)
    with pytest.raises(BadOrderError):
        apply_semigroup(standard_model(4), gaussian_bump(
            standard_model(4), np.zeros(4), 0.5), np.zeros(4), 1.0)


@pytest.mark.parametrize("center,width,error", [
    ([np.nan], 0.5, ArgumentRangeError), ([np.inf], 0.5, ArgumentRangeError),
    ([0.3], np.nan, DimensionError), ([0.3], np.inf, DimensionError),
    ([0.3], 0.0, DimensionError), ([0.3], -0.5, DimensionError)])
def test_a_bump_needs_a_finite_centre_and_a_finite_positive_width(
        center, width, error):
    with pytest.raises(error):
        gaussian_bump(standard_model(1), center, width)


def test_a_centre_of_the_wrong_length_is_a_dimension_error():
    with pytest.raises(DimensionError):
        weak_type_probe(standard_model(2), 2.5, center=[0.3],
                        sample_size=1000)
    with pytest.raises(DimensionError):
        gaussian_bump(standard_model(2), np.zeros(3), 0.5)
    f = gaussian_bump(standard_model(2), np.zeros(2), 0.5)
    with pytest.raises(DimensionError):
        apply_semigroup(standard_model(2), f, [0.3], 0.5)


# ---------------------------------------------------------------------------
# refinement and reruns


@pytest.mark.parametrize("part", ["full", "local", "global"])
def test_variation_never_decreases_under_nested_refinement(part):
    model, f, xs = _case("standard1")
    ts = _geometric_times(1e-4, 1.0, 4)
    prev = None
    for rounds in range(4):
        # tol = 0 runs every round, so this is the grid refined `rounds` times
        v, _, size = variation_batch_paths(model, f, xs, 2.5, ts, part=part,
                                           tol=0.0, max_refine=rounds,
                                           order=12)
        assert size == (ts.size - 1) * 2 ** rounds + 1
        if prev is not None:
            assert np.all(v >= prev)
        prev = v


def test_weak_type_probe_reruns_byte_identical():
    def run():
        return weak_type_probe(standard_model(1), 2.5, sample_size=1000,
                               n_alphas=12, points_per_decade=4,
                               max_refine=1, seed=3).to_json()
    assert run() == run()


def test_unconverged_probe_decides_its_own_failing_verdict():
    # no refinement round, so the variation cannot be shown to converge
    rep = weak_type_probe(standard_model(1), 2.5, sample_size=1000,
                          n_alphas=12, points_per_decade=4, max_refine=0,
                          seed=3)
    assert rep.statistics["variation_unconverged"] is True
    assert rep.pass_flags and not any(rep.pass_flags.values())
    assert rep.overall_pass() is False
    assert rep.to_dict()["pass_flags"] == rep.pass_flags


# ---------------------------------------------------------------------------
# the bootstrap statistic


@pytest.mark.parametrize("regime, seed", [("large-t", 7), ("full", 1)])
def test_bootstrap_statistics_match_a_loop_over_replicates(regime, seed,
                                                            monkeypatch):
    """The rank-counted statistics of all 200 resamples equal those of a
    loop that resamples the values and counts each replicate on its own,
    weighted for large-t and unweighted for full."""
    calls = []

    def record(alphas, lam, weighted):
        out = _sup_weighted_tail(alphas, lam, weighted)
        calls.append((alphas, lam, weighted, out))
        return out

    def record_exceedance(values, levels, resamples=None):
        if resamples is not None:
            calls.append((values, resamples))
        return exceedance(values, levels, resamples)

    monkeypatch.setattr(semigroup, "_sup_weighted_tail", record)
    monkeypatch.setattr(semigroup, "exceedance", record_exceedance)
    rep = weak_type_probe(standard_model(1), 2.5, regime=regime,
                          sample_size=1000, seed=seed)
    (v, idx), (alphas, lam, weighted, stats) = calls[-2:]
    assert weighted == (regime == "large-t")
    assert lam.shape == stats.shape + alphas.shape == (200, 48)
    assert np.array_equal(stats,
                          bootstrap_statistics_loop(v, alphas, idx, weighted))
    assert rep.ci["statistic"] == np.percentile(stats, [2.5, 97.5]).tolist()


def test_weighted_statistic_without_a_level_above_e_is_zero():
    gen = np.random.default_rng(2)
    v = gen.lognormal(size=300)
    idx = gen.integers(0, v.size, (5, v.size))
    alphas = np.geomspace(0.1, math.e, 12)          # none lies above e
    lam = exceedance(v, alphas, idx)
    assert np.array_equal(_sup_weighted_tail(alphas, lam, True), np.zeros(5))
    assert _sup_weighted_tail(alphas, lam[0], True) == 0.0
    assert np.array_equal(bootstrap_statistics_loop(v, alphas, idx, True),
                          np.zeros(5))
    # unweighted, every level counts
    assert np.array_equal(_sup_weighted_tail(alphas, lam, False),
                          bootstrap_statistics_loop(v, alphas, idx, False))
