import numpy as np
import pytest
from numpy.polynomial import polynomial

from oulab.bernstein import bisect_brackets, isolate


def poly_counts(coef, lo, hi):
    """(count, stable) of isolate on one polynomial, lowest power first,
    on [lo, hi], with the coefficients' own sizes as their magnitudes."""
    coef = np.asarray(coef, dtype=float)[None]
    rows, _, _, _, stable = isolate(coef, np.abs(coef), lo, hi)
    return rows.size, bool(stable[0])


def test_a_close_pair_counts_two():
    # ((tau - 0.25)^2 - 1e-6)(tau - 0.5) has zeros at 0.249 and 0.251
    coef = [-0.03125 + 5e-7, 0.3125 - 1e-6, -1.0, 1.0]
    assert poly_counts(coef, 0.1, 0.45) == (2, True)


@pytest.mark.parametrize("split", [1e-12, 1e-9])
def test_a_split_double_root_is_a_bracket_not_a_silent_zero(split):
    # a double root at 0.25 split by 1e-12 or 1e-9: the polynomial between
    # its two roots is below its rounding, so no count is certified; the
    # bracket keeps the parity, 0 on [0.1, 0.45] and 1 with 0.5 inside
    coef = polynomial.polyfromroots([0.25 - split / 2, 0.25 + split / 2,
                                     0.5])
    assert poly_counts(coef, 0.1, 0.45) == (0, False)
    assert poly_counts(coef, 0.1, 0.6) == (1, False)


def test_a_root_on_the_midpoint_is_split_off_at_seven_sixteenths():
    # roots at the midpoint 0.5 of [0, 1] and at 0.75: the split at 0.5
    # has no sign, so that part is split at 7/16, and both are certified
    coef = np.array([[-0.375, 1.25, -1.0]])
    rows, left, right, _, stable = isolate(coef, np.abs(coef), 0.0, 1.0)
    assert rows.tolist() == [0, 0] and stable.all()
    assert (left < [0.5, 0.75]).all() and ([0.5, 0.75] < right).all()


def test_non_finite_rows_count_nothing_and_stay_stable():
    coef = np.array([[np.nan, 1.0, 1.0], [-0.375, 1.25, -1.0]])
    rows, _, _, _, stable = isolate(coef, np.abs(coef), 0.0, 1.0)
    assert rows.tolist() == [1, 1] and stable.all()


def test_drawn_roots_are_counted_and_bisected_to_their_last_bits():
    # 500 cubics and quintics with simple roots drawn on [-0.5, 1.5], at
    # least 1e-3 apart and from 0 and 1: the count on [0, 1] is the number
    # of roots inside, and each is bisected to within the root's own
    # condition, 8 d eps sum |c_j r^j| / |N'(r)|, and an ulp
    gen = np.random.default_rng(3)
    for deg in (3, 5):
        roots = np.sort(gen.uniform(-0.5, 1.5, (500, deg)), axis=1)
        keep = (np.diff(roots, axis=1) > 1e-3).all(axis=1) & (
            np.abs(roots[:, :, None] - [0.0, 1.0]) > 1e-3).all(axis=(1, 2))
        roots = roots[keep]
        coef = np.array([polynomial.polyfromroots(r) for r in roots])
        rows, lo, hi, left_sign, stable = isolate(coef, np.abs(coef), 0.0,
                                                  1.0)
        inside = (roots > 0) & (roots < 1)
        assert stable.all()
        assert np.array_equal(np.bincount(rows, minlength=len(roots)),
                              inside.sum(axis=1))
        got = bisect_brackets(coef[rows], lo, hi, left_sign)
        want = roots[inside]
        cond = np.array([
            polynomial.polyval(r, np.abs(c))
            / abs(polynomial.polyval(r, polynomial.polyder(c)))
            for r, c in zip(want, coef[rows])])
        eps = np.finfo(float).eps
        assert (np.abs(got - want) <= 8 * deg * eps * cond + eps).all()
