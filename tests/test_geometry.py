import numpy as np
import pytest
import scipy.integrate
from scipy.stats import chi2

from oulab import (
    annulus_indicator,
    build_model,
    local_weight,
    polar_decompose,
    quadratic_r,
    smooth_step,
    standard_model,
)
from oulab import geometry
from oulab.geometry import _ring_plateau_idx, eta_plateaus, group_apply
from oulab.errors import (
    AlphaTooSmallError,
    ZeroPointError,
)
from oulab.rng import substream
from reference_routes import gamma_density


# ---------------------------------------------------------------------------
# the smooth ramp


def test_smooth_step_is_exact_outside_the_ramp():
    s = np.array([-3.0, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 7.0])
    out = smooth_step(s)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0
    assert out[3] == 1.0 and out[4] == 1.0 and out[5] == 1.0


def test_smooth_step_monotone_and_symmetric():
    s = np.linspace(-0.5, 1.5, 401)
    out = smooth_step(s)
    assert np.all(np.diff(out) >= 0)
    assert smooth_step(0.5) == pytest.approx(0.5)
    assert np.allclose(smooth_step(s) + smooth_step(1.0 - s), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# ring partition of unity: the ring weights through the frozen index form
# below, the plateaus through the one local_weight uses


def ring_weight(model, j, x):
    return _full_ring_weight_idx(quadratic_r(model, x), j)


def ring_plateau(model, j, x):
    return _ring_plateau_idx(quadratic_r(model, x), j)


def test_rings_sum_to_one_everywhere(std2):
    gen = np.random.default_rng(0)
    xs = gen.standard_normal((200, 2)) * 3.0
    jmax = int(np.ceil(quadratic_r(std2, xs).max())) + 2
    total = sum(ring_weight(std2, j, xs) for j in range(jmax + 1))
    assert np.allclose(total, 1.0, atol=1e-14)


def test_ring_support_is_exact(std1):
    # r_j vanishes identically outside {j <= R <= j + 2}
    x_low = np.array([[np.sqrt(2.0 * 2.9)]])     # R = 2.9 < 3
    x_high = np.array([[np.sqrt(2.0 * 5.1)]])    # R = 5.1 > 5
    assert ring_weight(std1, 3, x_low)[0] == 0.0
    assert ring_weight(std1, 3, x_high)[0] == 0.0
    x_in = np.array([[np.sqrt(2.0 * 4.0)]])      # R = 4 inside (3, 5)
    assert ring_weight(std1, 3, x_in)[0] > 0.0


def test_base_ring_absorbs_the_origin(std1):
    xs = np.array([[0.0], [0.5], [1.0]])
    w = ring_weight(std1, 0, xs)
    assert w[0] == 1.0                 # R = 0
    assert w[1] == 1.0                 # R = 0.125 < 1
    assert 0.0 < w[2] <= 1.0           # R = 0.5


def test_at_most_two_rings_overlap(std2):
    gen = np.random.default_rng(1)
    xs = gen.standard_normal((100, 2)) * 3.0
    jmax = int(np.ceil(quadratic_r(std2, xs).max())) + 2
    stacked = np.stack([ring_weight(std2, j, xs) for j in range(jmax + 1)])
    assert int((stacked > 0).sum(axis=0).max()) <= 2


def test_plateau_is_one_on_ring_support(std2):
    gen = np.random.default_rng(2)
    xs = gen.standard_normal((200, 2)) * 3.0
    for j in (0, 1, 3, 6):
        r = ring_weight(std2, j, xs)
        rt = ring_plateau(std2, j, xs)
        live = r > 0
        assert np.all(rt[live] == 1.0)
        assert np.all((rt >= 0) & (rt <= 1))


# ---------------------------------------------------------------------------
# shell widths


def ring_euclidean_width(model, j, direction):
    """Width of the shell {j <= R <= j+1} along the ray through direction,
    from polar_decompose's level-set crossings; the flow of B = -I is
    radial, so the crossings stay on the ray."""
    d = np.asarray(direction, dtype=float).reshape(1, model.n)
    radii = [0.0 if b == 0 else
             float(np.linalg.norm(polar_decompose(model, d, float(b))[1]))
             for b in (j, j + 1)]
    return radii[1] - radii[0]


def test_shell_width_standard_model(std1):
    # {1 <= R <= 2} along the axis: sqrt(4) - sqrt(2)
    w = ring_euclidean_width(std1, 1, np.array([1.0]))
    assert w == pytest.approx(2.0 - np.sqrt(2.0))
    # the direction vector's length must not matter
    assert ring_euclidean_width(std1, 1, np.array([2.0])) == pytest.approx(w)


def test_shell_width_anisotropic():
    m = build_model(np.diag([2.0, 8.0]), -np.eye(2))
    w = ring_euclidean_width(m, 0, np.array([0.0, 1.0]))
    assert w == pytest.approx(2.0 * np.sqrt(2.0))
    assert ring_euclidean_width(m, 0, np.array([1.0, 0.0])) == (
        pytest.approx(np.sqrt(2.0)))


def test_shell_widths_shrink(std1):
    ws = [ring_euclidean_width(std1, j, np.array([1.0])) for j in range(8)]
    assert all(ws[i] > ws[i + 1] for i in range(7))


# ---------------------------------------------------------------------------
# the local/global splitting weight


def test_local_weight_is_one_on_the_diagonal(std2):
    gen = np.random.default_rng(3)
    xs = gen.standard_normal((50, 2)) * 2.5
    eta = local_weight(std2, xs, xs)
    assert np.all(eta == 1.0)


def test_local_weight_vanishes_far_off_diagonal(std1):
    x = np.array([[1.0]])                        # R = 0.5
    u = np.array([[4.0]])                        # R = 8
    assert local_weight(std1, x, u)[0] == 0.0
    assert local_weight(std1, u, x)[0] == 0.0


def test_local_weight_range_and_broadcast(std2):
    gen = np.random.default_rng(4)
    x = gen.standard_normal((40, 2))
    u = x + gen.standard_normal((40, 2)) * 1.5
    eta = local_weight(std2, x, u)
    assert np.all((eta >= 0.0) & (eta <= 1.0))
    one = local_weight(std2, x[0], u[0])
    assert eta[0] == pytest.approx(one)


# ---------------------------------------------------------------------------
# the band-restricted cutoff against the full ring sum
#
# Frozen copies of smooth_step and local_weight as they evaluated the ring
# sum at every pair.  The production versions write the exact constants
# outside the transition band and must agree with these bit for bit.


def _full_smooth_step(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.maximum(1 - s, 1e-300)), 0.0)
        out = a / (a + b)
    return out if out.shape else float(out)


def _full_ring_weight_idx(R, j):
    w = _full_smooth_step(R - j) - _full_smooth_step(R - j - 1.0)
    return np.where(j == 0, 1.0 - _full_smooth_step(R - 1.0), w)


def _full_ring_plateau_idx(R, j):
    lo = np.where(j >= 3, _full_smooth_step(R - j + 2.0), 1.0)
    return lo - _full_smooth_step(R - j - 3.0)


def full_local_weight(model, x, u):
    return full_eta_from_r(np.asarray(quadratic_r(model, x)),
                           np.asarray(quadratic_r(model, u)))


def full_eta_from_r(Rx, Ru, out=None):
    base = np.maximum(np.floor(Ru).astype(int), 1)
    eta = np.zeros(np.broadcast_shapes(Ru.shape, Rx.shape))
    for off in (-1, 0):
        j = np.maximum(base + off, 0)
        eta = eta + _full_ring_plateau_idx(Rx, j) * _full_ring_weight_idx(
            Ru, j)
    if out is not None:
        out[...] = eta
        return out
    return eta if eta.shape else float(eta)


def _cloud(seed, n, pairs=20_000):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((pairs, n)) * 3.0
    u = x + gen.standard_normal((pairs, n)) * 1.5
    return x, u


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_weight_bit_identical_on_random_clouds(n):
    m = standard_model(n)
    x, u = _cloud(10 + n, n)
    eta = local_weight(m, x, u)
    assert np.array_equal(eta, full_local_weight(m, x, u))
    # the cloud reaches both constant regions and the band
    assert np.any(eta == 0.0) and np.any(eta == 1.0)
    assert np.any((eta > 0.0) & (eta < 1.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_weight_bit_identical_on_random_models(model_factory, seed, n):
    m = model_factory(seed, n)
    x, u = _cloud(100 + seed, n, pairs=5_000)
    assert np.array_equal(local_weight(m, x, u), full_local_weight(m, x, u))


def test_local_weight_bit_identical_at_band_edges(std1):
    # R = x^2 / 2 is exact on the half-integers, so every pair of these
    # points (and of their one-ulp neighbours) lands at or next to the
    # band edges |dR| in {0.5, 1, 4, 4.5}, at integer R and at R = 0; a
    # point at infinity adds the pairs whose R difference is infinite or NaN
    base = np.arange(17) / 2.0
    pts = np.concatenate([base, np.nextafter(base, np.inf),
                          np.nextafter(base, -np.inf)])[:, None]
    R = quadratic_r(std1, pts)
    gaps = np.abs(R[:, None] - R[None, :])
    for edge in (0.5, 1.0, 4.0, 4.5):
        assert np.any(gaps == edge)
    assert np.any(R == 0.0) and np.any((R == np.floor(R)) & (R > 0))
    pts = np.concatenate([pts, [[np.inf]]])
    x, u = pts[:, None, :], pts[None, :, :]
    with np.errstate(invalid="ignore"):
        ref = full_local_weight(std1, x, u)
        assert np.array_equal(local_weight(std1, x, u), ref, equal_nan=True)


def _on_level(model, gen, levels):
    """Points in random directions with R on the given levels, each then
    nudged by a few ulps."""
    v = gen.standard_normal((levels.size, model.n))
    pts = v * np.sqrt(levels / quadratic_r(model, v))[:, None]
    return pts + gen.integers(-4, 5, pts.shape) * np.spacing(pts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_weight_bit_identical_next_to_the_thresholds(model_factory, n):
    # R(x) on the integers and R(u) at R(x) + {-4, -1, 1, 4} or on an
    # integer, so R(x) - floor(R(u)) and |R(u) - R(x)| fall on and around
    # every edge of the constant regions
    m = model_factory(n, n)
    gen = np.random.default_rng(20 + n)
    rx = gen.integers(0, 30, 20_000).astype(float)
    ru = np.where(gen.random(rx.size) < 0.5,
                  rx + gen.choice([-4.0, -1.0, 1.0, 4.0], rx.size),
                  gen.integers(0, 34, rx.size))
    x = _on_level(m, gen, rx)
    u = _on_level(m, gen, np.maximum(ru, 1e-3))
    Rx, Ru = quadratic_r(m, x), quadratic_r(m, u)
    d = Rx - np.maximum(np.floor(Ru), 1.0)
    for edge in (-3.0, -1.0, 2.0, 4.0):
        assert np.any(d == edge)
    assert np.any(np.abs(Ru - Rx) == 1.0)
    assert np.array_equal(local_weight(m, x, u), full_local_weight(m, x, u))


def test_eta_at_equals_the_ring_sum_at_every_threshold():
    # the fused kernel on a (k, m) layout, one point per column: R(x) on
    # integers and quarter-integers, and R(u) on, just below and inside
    # the rings b where R(x) - b is -3, -1, 2 or 4, so every pair sits on
    # or next to an edge of eta_plateaus and reads the table at the edge
    rx = np.concatenate([np.arange(0.0, 25.0), np.arange(0.25, 25.0, 1.0)])
    rows = np.arange(rx.size)[::-1]
    lv = rx[rows]
    ru = []
    for d in (-3.0, -1.0, 2.0, 4.0):
        b = np.floor(lv) - d
        ru += [b, np.nextafter(b, -np.inf), b + 0.5,
               np.nextafter(b + 1.0, -np.inf)]
    ru = np.maximum(np.array(ru), 0.0)
    out = np.empty(ru.shape)
    geometry.eta_at(geometry.plateau_table(rx), rows, ru, out)
    assert np.array_equal(out, full_eta_from_r(lv[None, :], ru))
    d = lv - np.maximum(np.floor(ru), 1.0)
    for edge in (-3.0, -1.0, 2.0, 4.0):
        assert np.any(d == edge)
    assert np.any((out > 0.0) & (out < 1.0))
    assert np.any(out == 0.0) and np.any(out == 1.0)


def _ring_levels(case):
    """Levels of R(u) around the places where the single ramp of
    local_weight meets the six of the ring sum, and whether the computed
    R(u) must hit each level and its two neighbours exactly."""
    if case == "below-one":
        return np.linspace(0.0, 0.99, 23), False
    if case == "integers":
        return np.repeat(np.arange(1.0, 5.0), 150), True
    # floats past 2^52 are integers and half-integers; up to 2^53 every
    # integer j <= R is still exact (the levels keep clear of both ends by
    # more than the ulp nudges of _on_level move R there)
    return 2.0 ** 52 + np.concatenate([np.arange(32.0, 40.0, 0.5),
                                       2.0 ** 52 - np.arange(64.0, 72.0)]), \
        False


@pytest.mark.parametrize("case", ["below-one", "integers", "huge"])
def test_local_weight_single_ramp_bit_identical(std2, case):
    gen = np.random.default_rng(len(case))
    levels, exact = _ring_levels(case)
    u = _on_level(std2, gen, levels)
    Ru = quadratic_r(std2, u)
    if exact:
        for k in range(1, 5):
            for r in (np.nextafter(k, -np.inf), float(k),
                      np.nextafter(k, np.inf)):
                assert np.any(Ru == r), (k, r)
    offsets = np.arange(-5.0, 5.25, 0.25)
    x = _on_level(std2, gen, np.maximum(
        np.unique(levels)[:, None] + offsets[None, :], 1e-3).ravel())
    x, u = x[:, None, :], u[None, :, :]
    eta = local_weight(std2, x, u)
    assert np.array_equal(eta, full_local_weight(std2, x, u))
    # the ramp is open on some pairs, and the u = 0 end is reached
    one, zero = eta_plateaus(quadratic_r(std2, x), Ru, Ru)
    assert np.any(~(one | zero))
    assert case != "below-one" or np.any(Ru < 1e-3)
    assert case != "huge" or (Ru.min() >= 2.0 ** 52 and
                              quadratic_r(std2, x).max() < 2.0 ** 53)


def test_local_weight_bit_identical_for_scalar_pairs(std2):
    x, u = _cloud(7, 2, pairs=200)
    for xi, ui in zip(x, u):
        got, ref = local_weight(std2, xi, ui), full_local_weight(std2, xi, ui)
        assert type(got) is float and got == ref


def test_eta_plateaus_over_a_range_agree_with_its_points():
    # each range [lo, hi] of R(u) is represented by its ends and the
    # integers inside it, which take every value of b = max(floor(R), 1)
    rx = np.arange(0.0, 13.0, 0.25)[:, None, None]
    lo = np.arange(0.0, 12.0, 0.5)[None, :, None]
    hi = lo + np.arange(0.0, 6.5, 0.5)[None, None, :]
    one, zero = eta_plateaus(rx, lo, hi)
    all_one = np.ones(one.shape, dtype=bool)
    all_zero = np.ones(one.shape, dtype=bool)
    for r in [lo, hi] + [np.float64(k) for k in range(19)]:
        inside = (lo <= r) & (r <= hi)
        r_one, r_zero = eta_plateaus(rx, r, r)
        all_one &= r_one | ~inside
        all_zero &= r_zero | ~inside
    # exact for 1, and never claims a 0 that a point of the range denies
    assert np.array_equal(one, all_one)
    assert not np.any(zero & ~all_zero)
    assert one.any() and zero.any() and (~one & ~zero).any()


_RAMP_EDGES = [0.0, 1.0, 5e-324, 1.0 - 1e-16, np.inf, -np.inf, np.nan,
               -0.0, 0.5, 1e-301, -5e-324, 1.0 + 2.3e-16]


def test_smooth_step_bit_identical_on_edge_values():
    s = np.array(_RAMP_EDGES)
    for shaped in (s, s.reshape(3, 4), s.reshape(2, 3, 2)):
        assert np.array_equal(smooth_step(shaped), _full_smooth_step(shaped),
                              equal_nan=True)
    for v in _RAMP_EDGES:
        got, ref = smooth_step(v), _full_smooth_step(v)
        assert type(got) is float
        assert got == ref or (np.isnan(got) and np.isnan(ref))


def test_smooth_step_bit_identical_on_random_values():
    s = np.random.default_rng(5).uniform(-0.5, 1.5, (300, 7))
    assert np.array_equal(smooth_step(s), _full_smooth_step(s))


@pytest.mark.parametrize("model_name", ["standard1", "random2"])
def test_local_global_grid_unchanged_by_band_restriction(
        monkeypatch, model_factory, model_name):
    import oulab.semigroup as sg
    from oulab.model import propagators
    m = standard_model(1) if model_name == "standard1" else model_factory(1, 2)
    bump = sg.gaussian_bump(m, np.full(m.n, 0.8), 0.5)
    props = propagators(m, np.geomspace(1e-3, 1.0, 24))
    x = np.random.default_rng(8).standard_normal((9, m.n)) * 1.5
    loc, glob = sg.local_global_grid(m, bump, props, x)
    monkeypatch.setattr(geometry, "eta_at", lambda table, rows, ru, out:
                        full_eta_from_r(table[0][rows], ru, out))
    ref_loc, ref_glob = sg.local_global_grid(m, bump, props, x)
    assert np.array_equal(loc, ref_loc) and np.array_equal(glob, ref_glob)
    # the points see both sides of the cutoff
    assert np.any(loc > 1e-3 * loc.max()) and np.any(glob > 1e-3 * loc.max())


def eta_gradient_bound(model, seed=0, samples=4096, fd_step=1e-6,
                       spread=4.0):
    """Empirical sup of (|grad_x eta| + |grad_u eta|) / (1 + |x|) over a
    wide Gaussian cloud, gradients by central differences.

    Finite because each ring profile composes a fixed smooth step with R,
    |grad R(x)| grows linearly, and only two rings overlap any point.
    """
    gen = substream(seed, 0)
    n = model.n
    # cover the transition bands |R(u) - R(x)| near 1 and 4 out to |x| ~ 3*spread
    x = gen.standard_normal((samples, n)) * spread
    u = x + gen.standard_normal((samples, n)) * 1.5
    gx = np.zeros(samples)
    gu = np.zeros(samples)
    for i in range(n):
        e = np.zeros(n)
        e[i] = fd_step
        du = local_weight(model, x, u + e) - local_weight(model, x, u - e)
        dx = local_weight(model, x + e, u) - local_weight(model, x - e, u)
        gu += (du / (2 * fd_step)) ** 2
        gx += (dx / (2 * fd_step)) ** 2
    stat = (np.sqrt(gx) + np.sqrt(gu)) / (1.0 + np.linalg.norm(x, axis=1))
    return float(stat.max())


def ring_gradient_bound(model, j_max=12, seed=0, samples=2048, fd_step=1e-6):
    """Empirical constant C with |grad r_j(x)| <= C (1 + |x|) and the same
    for the plateaus, maximized over rings up to j_max."""
    gen = substream(seed, 1)
    n = model.n
    x = gen.standard_normal((samples, n)) * 4.0
    denom = 1.0 + np.linalg.norm(x, axis=1)
    best = 0.0
    for j in range(j_max + 1):
        for fn in (ring_weight, ring_plateau):
            g = np.zeros(samples)
            for i in range(n):
                e = np.zeros(n)
                e[i] = fd_step
                d = fn(model, j, x + e) - fn(model, j, x - e)
                g += (d / (2 * fd_step)) ** 2
            best = max(best, float((np.sqrt(g) / denom).max()))
    return best


def test_split_gradient_bounds_are_moderate(std1, std2):
    assert eta_gradient_bound(std1, samples=2048) < 20.0
    assert eta_gradient_bound(std2, samples=2048) < 20.0
    assert ring_gradient_bound(std1, samples=1024) < 10.0
    assert ring_gradient_bound(std2, samples=1024) < 10.0


# ---------------------------------------------------------------------------
# invariant masses


def level_set_mass(model, tau):
    """gamma_inf({R >= tau}) = P(chi2_n >= 2 tau), exact."""
    return 1.0 if tau <= 0 else float(chi2.sf(2.0 * tau, model.n))


def ring_masses(model, j_max):
    """Invariant-measure mass of each ring, by 1-d quadrature in R: 2R(x)
    is chi-square with n degrees of freedom under the invariant measure."""
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        lo, hi = (0.0, 2.0) if j == 0 else (float(j), j + 2.0)

        def f(r, jj=j):
            w = float(_full_ring_weight_idx(r, jj))
            return w * chi2.pdf(2 * r, model.n) * 2

        out[j], _ = scipy.integrate.quad(f, lo, hi, limit=200)
    return out


def test_ring_masses_partition_the_mass(std1, std2):
    # rings j <= 10 cover everything except a sliver of the band
    # 11 <= R <= 12, so the deficit sits between the two level tails
    for m in (std1, std2):
        rm = ring_masses(m, 10)
        assert np.all(rm >= 0)
        deficit = 1.0 - rm.sum()
        assert level_set_mass(m, 12.0) - 1e-9 <= deficit
        assert deficit <= level_set_mass(m, 11.0) + 1e-9


def test_ring_masses_bounded_by_level_tails(std1):
    rm = ring_masses(std1, 8)
    for j in range(1, 9):
        assert rm[j] <= level_set_mass(std1, float(j)) + 1e-12


def test_level_set_mass_closed_form(std1):
    # the chi-square tail against the invariant density integrated over
    # {R >= 2}, that is |x| >= 2 on the standard line
    def dens(x):
        return gamma_density(std1, np.inf, np.array([x]))

    tail, _ = scipy.integrate.quad(dens, 2.0, np.inf)
    assert quadratic_r(std1, np.array([2.0])) == 2.0
    assert level_set_mass(std1, 2.0) == pytest.approx(2.0 * tail, rel=1e-9)
    assert level_set_mass(std1, -1.0) == 1.0


# ---------------------------------------------------------------------------
# polar decomposition along the flow


def test_polar_fixed_point(std1):
    s, z = polar_decompose(std1, np.array([[2.0]]), beta=2.0)
    assert s[0] == pytest.approx(0.0, abs=1e-12)
    assert z[0, 0] == pytest.approx(2.0)


def test_polar_known_shift(std1):
    s, z = polar_decompose(std1, np.array([[2.0 * np.e]]), beta=2.0)
    assert s[0] == pytest.approx(1.0, abs=1e-10)
    assert z[0, 0] == pytest.approx(2.0, abs=1e-10)


def test_polar_roundtrip_random(std2, model_factory):
    for m in (std2, model_factory(37, 2)):
        gen = np.random.default_rng(5)
        xs = gen.standard_normal((20, 2)) * 3.0 + 0.1
        beta = 1.7
        s, z = polar_decompose(m, xs, beta)
        assert quadratic_r(m, z) == pytest.approx(
            np.full(20, beta), abs=1e-9)
        back = group_apply(m, z, s)
        assert back == pytest.approx(xs, abs=1e-8)


def test_polar_rejects_origin_and_bad_level(std1):
    with pytest.raises(ZeroPointError):
        polar_decompose(std1, np.zeros((1, 1)), beta=1.0)
    with pytest.raises(AlphaTooSmallError):
        polar_decompose(std1, np.ones((1, 1)), beta=0.0)


# ---------------------------------------------------------------------------
# the weak-type annulus


def annulus_mass(model, alpha):
    """gamma_inf(C_alpha) on the standard line: the invariant density
    integrated against annulus_indicator, with quadrature breakpoints at
    the shell's edges |x| = sqrt(tau), 2 sqrt(tau)."""
    tau = np.log(alpha)
    lo, hi = np.sqrt(tau), 2.0 * np.sqrt(tau)

    def f(x):
        pt = np.array([x])
        return float(annulus_indicator(model, alpha, pt)) * float(
            gamma_density(model, np.inf, pt))

    val, _ = scipy.integrate.quad(f, -12.0, 12.0, points=[-hi, -lo, lo, hi],
                                  limit=200, epsabs=1e-14, epsrel=1e-12)
    return val


def test_annulus_boundary_membership(std1):
    alpha = float(np.exp(2.0))                   # tau = 2, shell 1 <= R <= 4
    assert annulus_indicator(std1, alpha, np.array([np.sqrt(2.0)]))
    assert annulus_indicator(std1, alpha, np.array([np.sqrt(7.8)]))
    assert not annulus_indicator(std1, alpha, np.array([0.5]))
    assert not annulus_indicator(std1, alpha, np.array([3.1]))


def test_annulus_rejects_small_levels(std1):
    with pytest.raises(AlphaTooSmallError):
        annulus_indicator(std1, 2.0, np.array([1.0]))
    with pytest.raises(AlphaTooSmallError):
        annulus_indicator(std1, 1.5, np.array([1.0]))


def test_annulus_mass_decays(std1):
    masses = [annulus_mass(std1, a) for a in (3.0, 10.0, 100.0, 1e4)]
    assert all(m > 0 for m in masses)
    assert all(masses[i] > masses[i + 1] for i in range(3))
    # the shell mass is dominated by its inner boundary tail
    for a, m in zip((3.0, 10.0, 100.0, 1e4), masses):
        assert m <= level_set_mass(std1, 0.5 * np.log(a))


def test_annulus_mass_against_direct_integral(std1):
    alpha = 10.0
    tau = np.log(alpha)
    lo, hi = np.sqrt(tau), 2.0 * np.sqrt(tau)

    def dens(x):
        return gamma_density(std1, np.inf, np.array([x]))

    val, _ = scipy.integrate.quad(dens, lo, hi)
    val2, _ = scipy.integrate.quad(dens, -hi, -lo)
    assert annulus_mass(std1, alpha) == pytest.approx(val + val2, rel=1e-9)
