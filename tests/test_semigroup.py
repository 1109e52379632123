import math

import numpy as np
import pytest

from oulab import TimeGrid, gaussian_bump, standard_model, variation_batch
from oulab.semigroup import _interleave, _part_values, variation_batch_paths


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
