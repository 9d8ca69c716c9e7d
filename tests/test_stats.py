import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammaspacings import (
    DegenerateSampleError,
    dixon_dk,
    z_k,
    z_k_telescoped,
)
from gammaspacings.stats import REDUCTIONS


def test_sample_data_validation():
    rule = r"data must be a finite 1-D array of length >= 2"
    with pytest.raises(ValueError, match=rule):
        z_k(np.array([1.0]), 1)
    with pytest.raises(ValueError, match=rule):
        z_k(np.array([1.0, np.inf]), 1)
    with pytest.raises(ValueError, match=rule):
        z_k(np.ones((2, 2)), 1)
    assert z_k(np.array([3.0, 1.0]), 1) == 1.0


def test_z_k_hand_value():
    # numerator 1*Y_3 = 2; denominator 2*1 + 1*2 = 4
    assert z_k([1.0, 2.0, 4.0], 1) == 0.5
    assert z_k(np.array([4.0, 1.0, 2.0]), 1) == 0.5


def test_z_k_full_range_is_exactly_one():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 20):
        data = rng.gamma(2.0, 1.0, n)
        assert z_k(data, n - 1) == 1.0


def test_z_k_never_exceeds_one_at_large_shape():
    # each numerator term X_(i) - X_(n-k) rounds to at most the matching
    # denominator term X_(i) - X_(1), and both sums run in index order
    xs = np.sort(np.random.default_rng(41).gamma(1000.0, size=(1000, 12)), axis=1)
    for k in range(1, 12):
        assert REDUCTIONS["zk"](xs, k).max() <= 1.0
    assert np.all(REDUCTIONS["zk"](xs, 11) == 1.0)
    assert all(z_k(row, 11) == 1.0 for row in xs[:50])


def test_z_k_bounds_and_monotonicity_in_k():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        data = rng.gamma(1.5, 2.0, n)
        vals = [z_k(data, k) for k in range(1, n)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_z_k_degenerate_and_k_validation():
    with pytest.raises(DegenerateSampleError):
        z_k([2.0, 2.0, 2.0], 1)
    with pytest.raises(ValueError):
        z_k([1.0, 2.0, 3.0], 0)
    with pytest.raises(ValueError):
        z_k([1.0, 2.0, 3.0], 3)
    with pytest.raises(TypeError):
        z_k([1.0, 2.0, 3.0], 1.5)
    with pytest.raises(TypeError):
        z_k([1.0, 2.0, 3.0], True)
    assert z_k([1.0, 2.0, 4.0], np.int64(1)) == z_k([1.0, 2.0, 4.0], 1)


def test_z_k_scale_invariance():
    rng = np.random.default_rng(23)
    data = rng.gamma(2.0, 1.0, 12)
    base = z_k(data, 3)
    # powers of two rescale mantissas exactly: bitwise equality
    for a in (2.0, 0.5, 1024.0, 2.0**-20):
        assert z_k(a * data, 3) == base
    # arbitrary positive scales agree to roundoff
    for a in (np.pi, 0.1234, 987.65):
        assert abs(z_k(a * data, 3) - base) < 1e-12


def test_z_k_near_overflow_matches_the_rescaled_sample():
    # the weighted spacings of these data overflow to inf without the
    # row rescaling; a power of two scales every entry exactly
    data = np.array([1e308, 1.7e308, 1e300, 3e307])
    small = data * 2.0**-1000
    for k in (1, 2):
        assert z_k(data, k) == z_k(small, k)
        assert abs(z_k_telescoped(data, k) - z_k_telescoped(small, k)) < 1e-15
        assert 0.0 < z_k(data, k) < 1.0
    assert z_k([1e308, 1.7e308, 1e-300], 1) == 7.0 / 27.0
    # rows in range are left as they are, next to a rescaled row
    xs = np.sort(np.vstack([data, [1.0, 2.0, 4.0, 7.0]]), axis=1)
    assert list(REDUCTIONS["zk"](xs, 1)) == [z_k(small, 1), z_k([1.0, 2.0, 4.0, 7.0], 1)]


def test_z_k_telescoped_hand_values():
    assert z_k_telescoped([1.0, 2.0, 4.0], 1) == 0.5
    assert z_k_telescoped([0.0, 1.0], 1) == 1.0


def test_z_k_identity_random_samples():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, n))
        m = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        data = rng.gamma(m, 1.0, n)
        assert abs(z_k(data, k) - z_k_telescoped(data, k)) < 1e-12


def test_z_k_telescoped_degenerate():
    with pytest.raises(DegenerateSampleError):
        z_k_telescoped([1.0, 1.0], 1)


def test_dixon_dk_hand_values():
    assert_allclose(dixon_dk([1.0, 2.0, 4.0, 10.0], 1), 6.0 / 9.0, rtol=1e-15)
    assert dixon_dk([0.0, 5.0], 1) == 1.0


def test_dixon_dk_location_scale_invariance():
    rng = np.random.default_rng(31)
    data = rng.gamma(2.0, 1.0, 9)
    base = dixon_dk(data, 2)
    # pure power-of-two rescaling is exact in floating point
    for a in (2.0, 0.25, 512.0):
        assert dixon_dk(a * data, 2) == base
    # general affine maps agree to roundoff
    for a, b in ((3.7, 11.1), (0.02, -4.5), (np.pi, np.e)):
        assert abs(dixon_dk(a * data + b, 2) - base) < 1e-12


def test_dixon_dk_near_overflow_matches_the_rescaled_sample():
    # the range of these data overflows to inf without the row rescaling
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dixon_dk([-1.7e308, 0.0, 1.7e308], 1) == 0.5
        data = np.array([-1e308, 1.7e308, 3e307, -2e300])
        for k in (1, 2, 3):
            assert dixon_dk(data, k) == dixon_dk(data * 2.0**-1000, k)
        # rows in range are left as they are, next to a rescaled row
        xs = np.sort(np.vstack([data, [1.0, 2.0, 4.0, 7.0]]), axis=1)
        assert list(REDUCTIONS["dk"](xs, 1)) == [dixon_dk(data, 1), 3.0 / 6.0]


def test_dixon_dk_errors():
    with pytest.raises(DegenerateSampleError):
        dixon_dk([3.0, 3.0], 1)
    with pytest.raises(ValueError):
        dixon_dk([1.0, 2.0], 2)


def test_statistics_accept_unordered_input():
    data = [4.0, 1.0, 2.0, 10.0]
    assert dixon_dk(data, 1) == dixon_dk(sorted(data), 1)
    assert z_k(data, 2) == z_k(sorted(data, reverse=True), 2)


def test_row_reductions_match_per_sample_statistics():
    rng = np.random.default_rng(77)
    for n, k in ((2, 1), (5, 2), (12, 3)):
        xs = np.sort(rng.gamma(2.0, size=(50, n)), axis=1)
        zk = REDUCTIONS["zk"](xs, k)
        dk = REDUCTIONS["dk"](xs, k)
        assert zk.shape == dk.shape == (50,)
        for row, z, d in zip(xs, zk, dk):
            assert z == z_k(row, k) and d == dixon_dk(row, k)
            assert abs(z - z_k_telescoped(row, k)) < 1e-12
            assert d == (row[-1] - row[-1 - k]) / (row[-1] - row[0])
    with pytest.raises(DegenerateSampleError):
        REDUCTIONS["zk"](np.array([[1.0, 2.0], [3.0, 3.0]]), 1)


def _exact_z_k(row, k):
    """z_k of the float data ``row`` in exact rational arithmetic."""
    x = sorted(map(Fraction, row))
    n = len(x)
    return sum(x[i] - x[n - 1 - k] for i in range(n - k, n)) / sum(v - x[0] for v in x)


@pytest.mark.parametrize("m, n, k", [(1000.0, 10, 1), (1000.0, 10, 3), (1e6, 50, 2),
                                     (2.0, 200, 1), (2.0, 200, 3)])
def test_z_k_matches_an_exact_rational_oracle(m, n, k):
    # at large m the draws sit close together, where a sum of order
    # statistics minus n X_(1) would cancel (z_k_telescoped loses digits
    # here); shifted sums keep every term nonnegative.  The rounding errors
    # of a sequential sum grow like sqrt(n), so the 4 eps that holds up
    # to n = 50 doubles at n = 200.
    rows = np.random.default_rng(29).gamma(m, size=(20, n))
    engine = REDUCTIONS["zk"](np.sort(rows, axis=1), k)
    bound = 4 * max(1.0, math.sqrt(n / 50)) * np.finfo(float).eps
    for row, value in zip(rows, engine):
        exact = _exact_z_k(row, k)
        assert z_k(row, k) == value
        assert abs(Fraction(value) - exact) <= bound * exact


def _left_to_right(xs, lo):
    """``sum_{i > lo} (xs[:, i] - xs[:, lo])``, one column at a time."""
    total = xs[:, lo + 1] - xs[:, lo]
    for i in range(lo + 2, xs.shape[1]):
        total = total + (xs[:, i] - xs[:, lo])
    return total


def test_z_k_rows_do_not_depend_on_the_block():
    # blocks of at most 7 rows are accumulated row by row, larger ones are
    # reduced in tiles (70 rows at n = 2000 make two); every path must give
    # the plain left-to-right sums
    rng = np.random.default_rng(53)
    for n, rows in ((3, 30), (10, 30), (50, 30), (2000, 70)):
        xs = np.sort(rng.gamma(2.0, size=(rows, n)), axis=1)
        for k in (1, n // 2, n - 1):
            loop = _left_to_right(xs, n - 1 - k) / _left_to_right(xs, 0)
            whole = REDUCTIONS["zk"](xs, k)
            sevens = np.concatenate([REDUCTIONS["zk"](xs[i : i + 7], k)
                                     for i in range(0, len(xs), 7)])
            single = np.array([REDUCTIONS["zk"](row[np.newaxis], k)[0] for row in xs])
            assert loop.tobytes() == whole.tobytes() == sevens.tobytes() == single.tobytes()
            fortran = np.asfortranarray(xs)
            assert REDUCTIONS["zk"](fortran, k).tobytes() == loop.tobytes()
            assert np.array_equal(fortran, xs)


def _zk_weighted_spacings(xs, k):
    """Reference: z_k as weighted spacings ``(n-j+1) Y_j`` summed by numpy."""
    n = xs.shape[1]
    weighted = np.arange(n - 1, 0, -1, dtype=float) * np.diff(xs, axis=1)
    return weighted[:, n - 1 - k :].sum(axis=1) / weighted.sum(axis=1)


@pytest.mark.parametrize("n", [3, 10, 50, 200])
def test_z_k_agrees_with_the_weighted_spacing_form(n):
    xs = np.sort(np.random.default_rng(n).gamma(2.0, size=(4096, n)), axis=1)
    for k in sorted({1, 2, n // 2, n - 2} - {0}):
        ours, ref = REDUCTIONS["zk"](xs, k), _zk_weighted_spacings(xs, k)
        # first-order rounding bounds of the two forms, added: sequential
        # sums of n-1 and k terms and one division, against spacings,
        # weights and pairwise sums
        bound = (n + k + 2 * math.log2(n) + 5) * np.finfo(float).eps / 2
        assert np.all(np.abs(ours - ref) <= bound * ours)
