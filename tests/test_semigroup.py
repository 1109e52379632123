import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oulab import (annulus_superlevel_probe, apply_semigroup, build_model,
                   cz_probe, gaussian_bump, propagators,
                   quadratic_r, standard_model, variation_batch,
                   weak_type_probe)
from oulab.errors import (ArgumentRangeError, BadOrderError,
                          DimensionError, NumericalOverflowError)
from oulab.kernel import real_roots, time_critical_cubic
from oulab.model import isotropic_rates
from oulab.semigroup import _BLOCK_CELLS
from oulab import geometry
from oulab.geometry import eta_at, eta_plateaus, tile_sums
from oulab.quadrature import hermite_tensor
from oulab.rng import substream
from oulab.variation import _turning_points, exceedance
from oulab import semigroup
from oulab.semigroup import (_core_tiles, _geometric_times, _node_r_range,
                             _part_values, _refine, _spread,
                             _sup_weighted_tail, _tiles, bump_semigroup_grid,
                             local_global_grid, variation_batch_paths)
from conftest import random_stable_model
from reference_routes import (block_nodes, bootstrap_statistics_loop,
                              bump_semigroup_grid_einsum,
                              local_global_grid_all_nodes,
                              near_weights_rule_order, split_blocks)


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
    # every grid the DP sees, not only the variation, keeps its bits; on
    # standard1 the full part takes the critical-time route, whose rows of
    # candidate columns keep exactly the turning points of the whole grid
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
    if name == "standard1" and part == "full":
        for cand, grid in zip(seen, grids):
            assert cand.shape[0] == grid.shape[0]
            assert cand.shape[1] < grid.shape[1]
            got, want = _turning_points(cand), _turning_points(grid)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    else:
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
# the critical-time route of isotropic models


def _critical_point(model, c, width, s_star):
    """A point x = a u, u = c / |c| (or e_1), whose path has d/ds log H = 0
    at s = s_star, or None: P(s_star) = 0 is a quadratic in a."""
    lam = isotropic_rates(model)[1]
    n, kappa = model.n, lam + width ** 2
    u = c / np.linalg.norm(c) if np.any(c) else np.eye(n)[0]
    g = float(c @ u)
    quad = [-kappa * s_star, g * (lam * s_star ** 2 + kappa),
            s_star * (n * lam * (kappa - lam * s_star ** 2) - lam * (c @ c))]
    a = np.roots(quad)
    a = a[np.abs(a.imag) == 0].real
    return a[0] * u if a.size else None


def _tangent_pair(model, width, s_star):
    """(x, c) whose P has a double root at s_star, or None: P is then
    -n lam^2 (s - s_star)^2 (s - r), which fixes r, <c, x> and
    kappa |x|^2 + lam |c|^2 = A."""
    lam = isotropic_rates(model)[1]
    n, kappa = model.n, lam + width ** 2
    sig = lam * s_star ** 2
    r = 2 * kappa * s_star / (sig - kappa)
    cx = n * lam * (2 * s_star + r)
    big_a = n * lam * (kappa + lam * (s_star ** 2 + 2 * s_star * r))
    disc = big_a ** 2 - 4 * kappa * lam * cx ** 2
    if big_a <= 0 or disc < 0:
        return None
    if n == 1:
        x2 = (big_a + math.sqrt(disc)) / (2 * kappa)
        x = math.sqrt(x2)
        return np.array([x]), np.array([cx / x])
    xx = big_a / (2 * kappa)
    x = math.sqrt(xx) * np.eye(n)[0]
    c = cx / math.sqrt(xx) * np.eye(n)[0] + \
        math.sqrt(max(big_a / (2 * lam) - cx ** 2 / xx, 0.0)) * np.eye(n)[1]
    return x, c


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), b=st.floats(0.2, 4.0), q=st.floats(0.1, 6.0),
       width=st.floats(0.05, 2.0), regime=st.sampled_from(["full", "large-t"]),
       case=st.sampled_from(["random", "x = 0", "c = 0", "near t_min",
                             "near t_max", "tangent"]),
       where=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 20))
def test_critical_route_matches_the_grid_route(n, b, q, width, regime, case,
                                               where, seed):
    model = build_model(q * np.eye(n), -b * np.eye(n))
    assert isotropic_rates(model) is not None
    gen = np.random.default_rng(seed)
    c = 0.0 * gen.standard_normal(n) if case == "c = 0" \
        else gen.standard_normal(n) @ model.Qinf_sqrt.T
    xs = gen.standard_normal((24, n)) @ model.Qinf_sqrt.T
    ts = semigroup._regime_times(model, regime, 4)
    fine = _refine(_refine(_refine(ts)[0])[0])[0]
    t_star = {"near t_min": math.sqrt(fine[0] * fine[1]),
              "near t_max": math.sqrt(fine[-2] * fine[-1])}.get(
        case, ts[0] * (ts[-1] / ts[0]) ** where)
    s_star = math.exp(-b * t_star)
    if case == "x = 0":
        xs[0] = 0.0
    elif case == "tangent":
        pair = _tangent_pair(model, width, s_star)
        if pair is not None:
            xs[0], c = pair
    elif case != "random":
        x = _critical_point(model, c, width, s_star)
        if x is not None:
            xs[0] = x
    f = gaussian_bump(model, c, width)
    for tol in (1e-3, 0.0):
        got = variation_batch_paths(model, f, xs, 2.5, ts, tol=tol,
                                    max_refine=3)
        ref = full_reevaluation(model, f, xs, 2.5, ts, "full", tol, 3, None)
        assert got[1:] == ref[1:]
        # the candidate row is a subsequence of the whole-grid row, and
        # falls short of it only by turns that rounding makes
        grid = ts
        while grid.size < ref[2]:
            grid = _refine(grid)[0]
        top = np.max(np.abs(bump_semigroup_grid(
            model, f, propagators(model, grid), xs)), axis=1)
        assert np.all(got[0] <= ref[0])
        eps = np.finfo(float).eps
        assert np.all(ref[0] - got[0] <= 64 * eps * top * ref[2] ** (1 / 2.5))


def test_a_double_root_that_rounds_complex_keeps_its_window():
    # P has a double root at s_star; where it comes out as a complex pair,
    # the window sits at the pair's real part, s_star to rounding
    model = build_model(np.eye(1), -0.5 * np.eye(1))
    ts = _geometric_times(1e-6, 10.0, 16)
    seen = 0
    for s_star in np.linspace(0.05, 0.95, 19):
        pair = _tangent_pair(model, 0.5, s_star)
        if pair is None:
            continue
        x, c = pair
        f = gaussian_bump(model, c, 0.5)
        coef = time_critical_cubic(model, x[None], c, 0.5)
        if not np.isnan(real_roots(coef)[0, 1]):
            continue
        seen += 1
        starts = semigroup._critical_windows(model, f, x[None], ts, 0.5)
        t_star = -math.log(s_star) / 0.5
        assert np.searchsorted(ts, t_star) - 2 in starts[:, 0]
    assert seen >= 3


@pytest.mark.parametrize("regime", ["full", "large-t"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_critical_route_keeps_the_bits_of_the_default_probes(n, regime):
    model, f, xs, ts = _weak_full_inputs(n=n, regime=regime)
    got = variation_batch_paths(model, f, xs, 2.5, ts)
    ref = full_reevaluation(model, f, xs, 2.5, ts, "full", 1e-3, 3, None)
    assert got[1:] == ref[1:]
    assert np.array_equal(got[0], ref[0])


def _anisotropic():
    return build_model(np.diag([1.0, 3.0]), -0.8 * np.eye(2))


@pytest.mark.parametrize("name, part", [
    ("general2", "full"), ("random2", "full"), ("anisotropic", "full"),
    ("standard1", "local"), ("standard1", "global")])
def test_other_models_and_parts_keep_the_grid_route(name, part,
                                                    model_factory,
                                                    monkeypatch):
    model = {"general2": lambda: build_model([[1.0, 0.3], [0.3, 0.5]],
                                             [[-1.0, 2.0], [0.0, -0.5]]),
             "random2": lambda: model_factory(4, 2),
             "anisotropic": _anisotropic,
             "standard1": lambda: standard_model(1)}[name]()
    assert (isotropic_rates(model) is None) == (name != "standard1")

    def refuse(*args):
        raise AssertionError("took the critical-time route")

    monkeypatch.setattr(semigroup, "_critical_rounds", refuse)
    gen = np.random.default_rng(2)
    xs = gen.standard_normal((12, model.n)) @ model.Qinf_sqrt.T
    f = gaussian_bump(model, 0.5 * np.ones(model.n), 0.5)
    ts = _geometric_times(1e-3, 1.0, 4)
    got = variation_batch_paths(model, f, xs, 2.5, ts, part=part, tol=0.0,
                                max_refine=2, order=12)
    ref = full_reevaluation(model, f, xs, 2.5, ts, part, 0.0, 2, 12)
    assert got[1:] == ref[1:]
    assert np.array_equal(got[0], ref[0])


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


def _weak_full_inputs(seed=0, n=1, regime="full"):
    """The bump, sample and starting times of a default weak-type probe of
    the full part on standard_n."""
    model = standard_model(n)
    f = gaussian_bump(model, semigroup.substream(seed, 100).standard_normal(n)
                      @ model.Qinf_sqrt.T, 0.5)
    xs = semigroup.substream(seed, 200).standard_normal((2000, n)) \
        @ model.Qinf_sqrt.T
    return model, f, xs, semigroup._regime_times(model, regime, 16)


def test_bump_grid_keeps_no_stack_beside_its_result():
    # the einsum route peaked at 27.7 MiB for this 6.9 MiB result
    model, f, xs, ts = _weak_full_inputs()
    props = propagators(model, _refine(_refine(ts)[0])[0])
    assert props.ts.size == 453
    result = xs.shape[0] * props.ts.size * 8 / 2 ** 20
    peak = _traced_peak_mib(bump_semigroup_grid, model, f, props, xs)
    assert peak <= result + 1.0


def test_full_refinement_peak_stays_small():
    # on standard1 the full part evaluates only candidate columns (10.4 MiB
    # at its peak on the whole refined grid, about 17 MiB with an
    # interleaved copy and an einsum route)
    model, f, xs, ts = _weak_full_inputs()
    peak = _traced_peak_mib(variation_batch_paths, model, f, xs, 2.5, ts,
                            part="full")
    assert peak <= 4.0


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
    tiles, first, _, _ = _tiles(z)
    assert tiles.shape == first.shape == (4, 64)
    # the first slots hold every node once, the others repeat a node
    # of their own tile
    assert np.array_equal(np.sort(tiles[first]), np.arange(169))
    rows, cols = np.divmod(tiles, 13)
    sizes = [np.unique(t).size for t in tiles]
    assert sizes == [64, 40, 40, 25] == first.sum(axis=1).tolist()
    assert np.array_equal(np.unique(rows[0]), np.arange(8))
    assert np.array_equal(np.unique(cols[3]), np.arange(8, 13))


def test_undecided_block_with_every_tile_decided(monkeypatch):
    # in 2-d the block's R range reaches s + r, r from the corner node, in
    # the direction of the mean, where the nodes reach only about s + r /
    # sqrt(2); a level just past the nodes there leaves the block open
    # while every tile keeps clear of it
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

    def spy(table, rows, ru, out):
        seen.append(ru.size)
        return eta_at(table, rows, ru, out)

    monkeypatch.setattr(geometry, "eta_at", spy)
    one_t = propagators(model, props.ts[t:t + 1])
    near, far = local_global_grid(model, f, one_t, xs[p], order=12)
    assert sum(seen) == 0
    ref_near, ref_far = local_global_grid_all_nodes(model, f, one_t, xs[p],
                                                    order=12)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)


@pytest.mark.parametrize("name,order", [("standard1", None),
                                        ("standard2", 12),
                                        ("general2", None)])
def test_row_blocks_and_slices_do_not_move_the_split(name, order,
                                                     model_factory,
                                                     monkeypatch):
    # a budget of a few tiles puts row-block boundaries inside the points
    # and splits the open tiles of one block over several slices
    model, f, props, xs, order = _tile_case(name, model_factory, order)
    near, far = local_global_grid(model, f, props, xs, order=order)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs,
                                                    order=order)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)
    tiles, _, (_, small, _) = _rule_tiles(model.n, order)
    k = tiles.shape[1]
    budget = 3 * k
    core = np.count_nonzero(~small)
    assert max(1, budget // (core * props.ts.size)) < xs.shape[0]
    seen = []

    def spy(table, rows, ru, out):
        seen.append(ru.shape[1])
        return eta_at(table, rows, ru, out)

    monkeypatch.setattr(semigroup, "_NODE_BUDGET", budget)
    monkeypatch.setattr(geometry, "eta_at", spy)
    small_near, small_far = local_global_grid(model, f, props, xs,
                                              order=order)
    assert np.array_equal(small_near, near)
    assert np.array_equal(small_far, far)
    # some block had more open tiles than a slice holds
    mean, L, z, _ = split_blocks(model, f, props, xs, order)
    rx = quadratic_r(model, xs)
    b_one, b_zero = eta_plateaus(rx[:, None],
                                 *_block_range(model, mean, L, z))
    _, (lo, hi) = _tile_ranges(model, mean, L, z)
    t_one, t_zero = eta_plateaus(rx[:, None, None], lo, hi)
    open_tiles = np.sum(~(t_one | t_zero), axis=-1)[~(b_one | b_zero)]
    assert open_tiles.max() > 3 and max(seen) == 3


@pytest.mark.parametrize("points,times", [(1, 9), (12, 1), (1, 1)])
def test_one_point_or_one_time(points, times):
    model = standard_model(1)
    f = gaussian_bump(model, [0.4], 0.5)
    props = propagators(model, np.geomspace(1e-3, 0.5, 9)[-times:])
    xs = np.linspace(-2.5, 2.5, 12)[:points, None]
    near, far = local_global_grid(model, f, props, xs)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs)
    assert near.shape == (points, times)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)


def _rule_tiles(n, order=None):
    """The tiles of the tensor rule, their weights summed in tile order,
    and local_global_grid's split of them (_core_tiles)."""
    z, wq = hermite_tensor(n, order)
    tiles, first, _, _ = _tiles(z)
    tile_w = np.cumsum(np.where(first, wq[tiles], 0.0), axis=1)[:, -1]
    return tiles, tile_w, _core_tiles(z, tiles, tile_w)


@pytest.mark.parametrize("n,negligible,core_z", [
    (1, [0, 7], 9.850338457882150), (2, 32, 11.651081920120960),
    (3, 0, 17.454608081121101)])
def test_negligible_tiles_at_the_default_orders(n, negligible, core_z):
    # the outer tiles of the 1-d and 2-d rules weigh below 2^-53 of the
    # rule and their weights vanish in its sum; the 3-d rule's 8 lightest
    # tiles still move it, so none of them counts as negligible
    tiles, tile_w, (w_all, small, got_z) = _rule_tiles(n)
    assert w_all == np.cumsum(tile_w)[-1]
    if isinstance(negligible, list):
        assert np.flatnonzero(small).tolist() == negligible
    else:
        assert np.count_nonzero(small) == negligible
    assert np.all(tile_w[small] < 2.0 ** -53 * w_all)
    assert got_z == pytest.approx(core_z, rel=1e-12)
    light = tile_w < 2.0 ** -53 * w_all
    assert n != 3 or (light.sum() == 8 and
                      np.cumsum(np.where(light, 0.0, tile_w))[-1] != w_all)


@pytest.mark.parametrize("name", ["standard1", "standard2", "general2",
                                  "random1", "random2"])
def test_core_range_holds_every_core_node(name, model_factory):
    # blocks are decided on the radius of the core nodes alone; in 1-d
    # the extreme core nodes sit on the bound itself
    model, f, props, xs, _ = _tile_case(name, model_factory, None)
    mean, L, z, _ = split_blocks(model, f, props, xs)
    tiles, _, (_, small, core_z) = _rule_tiles(model.n)
    assert small.any()
    lo, hi = _node_r_range(model, mean, _spread(model, L) * core_z,
                           np.linalg.cond(model.Qinf))
    r = quadratic_r(model, block_nodes(mean, L, z))[:, :, tiles[~small]]
    lo, hi = lo[..., None, None], hi[..., None, None]
    assert np.all(r >= lo) and np.all(r <= hi)


@pytest.mark.parametrize("n,width", [(1, 0.055), (2, 0.05)])
def test_failed_certificate_expands_the_negligible_tiles(n, width,
                                                         monkeypatch):
    # a narrow bump at distance 2.5 keeps every core node below R = 5,
    # where eta(x, .) is 0 for R(x) near 8.5, while the outermost nodes
    # reach past it; the core sums are 0, the bounds 0 and the negligible
    # weights differ, and the near weight comes from the negligible tiles
    model = standard_model(n)
    centre = np.zeros(n)
    centre[0] = 2.5
    xs = np.zeros((3, n))
    xs[:, 0] = [4.0, 4.12, 4.2]
    f = gaussian_bump(model, centre, width)
    props = propagators(model, np.array([0.3, 0.5, 1.0]))
    expanded = []

    def spy(model, table, blocks, z, w, ot, ob, per_slice):
        expanded.extend(ot.tolist())
        return tile_sums(model, table, blocks, z, w, ot, ob, per_slice)

    monkeypatch.setattr(semigroup, "tile_sums", spy)
    near, far = local_global_grid(model, f, props, xs)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)
    _, tile_w, (_, small, _) = _rule_tiles(n)
    assert np.any(small[expanded])
    w = near / bump_semigroup_grid(model, f, props, xs)
    assert np.all((w > 0.0) & (w < tile_w[small].sum()))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["standard1", "standard2", "general2"]),
       centre=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       width=st.floats(0.02, 2.0),
       x=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       log_t=st.floats(-6.0, 0.5))
def test_split_matches_every_node_on_drawn_blocks(name, centre, width, x,
                                                  log_t):
    # a point and two neighbours of it, at t and two neighbouring times:
    # blocks decided whole, tiles decided and certificates checked, all
    # with the bits of every node through eta
    model = build_model(*GENERAL2) if name == "general2" \
        else standard_model(int(name[-1]))
    n = model.n
    f = gaussian_bump(model, np.array(centre[:n]), width)
    xs = np.array(x[:n]) * np.array([[1.0], [0.9], [1.1]])
    props = propagators(model, 10.0 ** (log_t + np.array([-0.5, 0.0, 0.5])))
    near, far = local_global_grid(model, f, props, xs)
    ref_near, ref_far = local_global_grid_all_nodes(model, f, props, xs)
    assert np.array_equal(near, ref_near) and np.array_equal(far, ref_far)


@pytest.mark.parametrize("name", ["standard1", "standard2", "general2"])
def test_tile_sums_stay_within_rounding_of_the_row_sum(name, model_factory):
    # the near weight sums eta * w tile by tile; the split summed whole
    # rows in the rule's order with numpy's pairwise sum, and the two
    # orders differ by a few eps of the sum of the terms, eta * w >= 0
    model, f, props, xs, order = _tile_case(name, model_factory, None)
    near, _ = local_global_grid(model, f, props, xs)
    mass = bump_semigroup_grid(model, f, props, xs)
    old = mass * near_weights_rule_order(model, f, props, xs)
    eps = np.finfo(float).eps
    assert np.all(np.abs(near - old) <= 16 * eps * old)
    assert np.any(near != old)


def test_split_peak_stays_small():
    # one call on the last round of a standard1 local probe, 1,000 points
    # and 192 midpoints; with the means, block ranges and decisions of
    # every (point, time) block held at once it peaked 8.3 MiB above its
    # two 1.5 MiB outputs
    model = standard_model(1)
    f = gaussian_bump(model, semigroup.substream(0, 100).standard_normal(1)
                      @ model.Qinf_sqrt.T, 0.5)
    xs = semigroup.substream(0, 200).standard_normal((1000, 1)) \
        @ model.Qinf_sqrt.T
    ts = semigroup._regime_times(model, "local-small-t", 16)
    mids = _refine(_refine(ts)[0])[1]
    props = propagators(model, mids)
    assert mids.size == 192
    outputs = 2 * xs.shape[0] * mids.size * 8 / 2 ** 20
    peak = _traced_peak_mib(local_global_grid, model, f, props, xs)
    assert peak <= outputs + 2.0


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


@pytest.mark.parametrize("center,width,named", [
    ([45.0], 0.5, "bump centre [45.0]"), ([0.3], 1e200, "bump width 1e+200"),
    ([0.3], 1e160, "bump width 1e+160"),
    # a NumPy float's square overflows to inf with a warning, not an error
    ([0.3], np.float64(1e200), "bump width 1e+200"),
    # the square is subnormal, and 1 / width^2 overflows
    ([0.3], 1e-160, "bump width 1e-160"),
    ([0.3], np.float64(1e-170), "bump width 1e-170")])
def test_an_overflowing_bump_names_its_centre_or_width(center, width, named):
    with pytest.raises(NumericalOverflowError, match=re.escape(named)):
        gaussian_bump(standard_model(1), center, width)


def test_a_bump_at_centre_42_keeps_its_amplitude_bits():
    # e^{-log mass} is still finite here, and keeps these bits
    f = gaussian_bump(standard_model(1), [42.0], 0.5)
    assert f.amplitude == float.fromhex("0x1.177a11e0ed02ep+1019")


def test_a_negative_refinement_count_is_refused_on_both_routes():
    ts = _geometric_times(1e-4, 1.0, 4)
    for name in ("standard1", "general2"):
        model = standard_model(1) if name == "standard1" \
            else build_model(*GENERAL2)
        f = gaussian_bump(model, np.full(model.n, 0.3), 0.5)
        xs = np.full((3, model.n), 0.5)
        with pytest.raises(ArgumentRangeError):
            variation_batch_paths(model, f, xs, 2.5, ts, max_refine=-1)


@pytest.mark.parametrize("kwargs", [{"n_dirs": 0}, {"n_triples": 0},
                                    {"n_dirs": -3}])
def test_cz_probe_refuses_empty_sweeps(kwargs):
    with pytest.raises(ArgumentRangeError):
        cz_probe(standard_model(1), 2.5, **kwargs)


@pytest.mark.parametrize("n_alphas", [0, 1, -2])
def test_weak_type_probe_refuses_fewer_than_two_levels(n_alphas):
    with pytest.raises(ArgumentRangeError):
        weak_type_probe(standard_model(1), 2.5, sample_size=1000,
                        n_alphas=n_alphas)


@pytest.mark.parametrize("delta", [-1.0, 0.0, np.inf, np.nan])
def test_superlevel_probe_refuses_a_non_positive_rate(delta):
    with pytest.raises(ArgumentRangeError):
        annulus_superlevel_probe(standard_model(1), [4.0], delta)


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


def test_bootstrap_interval_reads_the_resamples_of_its_substream(
        monkeypatch):
    """The 200 statistics whose percentiles make the interval equal, bit
    for bit, those of a plain-numpy recomputation from the indices that
    substream(seed, 300) draws: the interval is pinned to its resamples,
    not only to the rank count's arithmetic."""
    seed = 0
    full, read = [], []
    real_percentile = np.percentile

    def record_exceedance(values, levels, resamples=None):
        if resamples is None:
            full.append((values, levels))
        return exceedance(values, levels, resamples)

    def record_percentile(a, q, *args, **kwargs):
        read.append(np.array(a, copy=True))
        return real_percentile(a, q, *args, **kwargs)

    monkeypatch.setattr(semigroup, "exceedance", record_exceedance)
    monkeypatch.setattr(semigroup.np, "percentile", record_percentile)
    weak_type_probe(standard_model(1), 2.5, sample_size=1000, seed=seed)
    (v, alphas), (stats,) = full[0], read
    idx = substream(seed, 300).integers(0, 1000, size=(200, 1000))
    want = np.array([np.max(alphas * (v[rows, None] > alphas).mean(axis=0))
                     for rows in idx])
    assert np.array_equal(stats, want)


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
