import math

import numpy as np
import pytest

from oulab import (TimeGrid, apply_semigroup, bump_semigroup_value,
                   gaussian_bump, propagators, standard_model,
                   variation_batch, weak_type_probe)
from oulab.errors import BadOrderError
from oulab.semigroup import (_interleave, _part_values, bump_semigroup_grid,
                             local_global_grid, variation_batch_paths)


def full_reevaluation(model, f, x, rho, grid, part, tol, max_refine, order):
    """variation_batch_paths as it ran before midpoint reuse: every
    refinement evaluates the whole refined grid again."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    g = grid
    vals = _part_values(model, f, g.points, x, part, order)
    floor = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    prev = variation_batch(vals, rho)
    for _ in range(max_refine):
        g = g.refine()
        cur = variation_batch(_part_values(model, f, g.points, x, part, order),
                              rho)
        rel = float(np.max(np.abs(cur - prev) /
                           np.maximum(np.abs(cur), floor)))
        prev = cur
        if rel < tol:
            return prev, True, len(g)
    return prev, False, len(g)


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
    grid = TimeGrid.geometric(1e-3, 1.0, 4)
    # a tolerance no path meets, so every refinement round runs
    for tol in (0.0, 1e-3):
        got = variation_batch_paths(model, f, xs, 2.5, grid, part=part,
                                    tol=tol, max_refine=3, order=12)
        ref = full_reevaluation(model, f, xs, 2.5, grid, part, tol, 3, 12)
        assert got[1:] == ref[1:]
        assert np.array_equal(got[0], ref[0])


@pytest.mark.parametrize("part", ["full", "local"])
def test_midpoint_reuse_from_a_two_point_grid(part):
    # the first refinement has a single midpoint, which TimeGrid refuses
    model, f, xs = _case("standard1")
    grid = TimeGrid(np.array([0.05, 0.8]))
    got = variation_batch_paths(model, f, xs, 2.0, grid, part=part,
                                tol=0.0, max_refine=4, order=12)
    ref = full_reevaluation(model, f, xs, 2.0, grid, part, 0.0, 4, 12)
    assert got[1:] == ref[1:] == (False, 17)
    assert np.array_equal(got[0], ref[0])


def test_midpoints_match_the_refined_grid():
    grid = TimeGrid.geometric(1e-6, 40.0, 16)
    ts = grid.points
    for _ in range(3):
        merged = _interleave(ts, np.sqrt(ts[:-1] * ts[1:]))
        grid = grid.refine()
        assert np.array_equal(merged, grid.points)
        ts = merged
    assert math.isclose(ts[0], 1e-6) and math.isclose(ts[-1], 40.0)


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
            closed = bump_semigroup_value(model, f, t, x)
            for form in ("kernel", "kolmogorov"):
                got = apply_semigroup(model, f, x, t, form=form)
                assert got == pytest.approx(closed, rel=1e-12), (n, form)


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


def test_no_default_order_past_three_dimensions():
    # a default rule would need 32^4 nodes per (point, time) block
    with pytest.raises(BadOrderError):
        weak_type_probe(standard_model(4), 2.5, regime="local-small-t",
                        sample_size=1000)
    with pytest.raises(BadOrderError):
        apply_semigroup(standard_model(4), gaussian_bump(
            standard_model(4), np.zeros(4), 0.5), np.zeros(4), 1.0)
