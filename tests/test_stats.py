import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammaspacings import (
    DegenerateSampleError,
    SampleData,
    StatisticConfig,
    dixon_dk,
    dixon_dk_refuted,
    spacings_from_sample,
    z_k,
    z_k_telescoped,
)
from gammaspacings.stats import REDUCTIONS


def test_sample_data_validation():
    with pytest.raises(ValueError):
        SampleData(np.array([1.0]))
    with pytest.raises(ValueError):
        SampleData(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SampleData(np.ones((2, 2)))
    data = SampleData(np.array([3.0, 1.0]))
    assert data.n == 2


def test_statistic_config_validation():
    assert StatisticConfig(3).k == 3
    with pytest.raises(ValueError):
        StatisticConfig(0)
    with pytest.raises(TypeError):
        StatisticConfig(1.5)


def test_spacings_from_sample():
    assert list(spacings_from_sample([1.0, 2.0, 4.0])) == [1.0, 2.0]
    assert list(spacings_from_sample([4.0, 1.0, 2.0])) == [1.0, 2.0]
    assert list(spacings_from_sample([5.0, 5.0])) == [0.0]
    out = spacings_from_sample(SampleData(np.array([2.0, 0.5, 9.0])))
    assert np.all(out >= 0) and out.sum() == 8.5


def test_z_k_hand_value():
    # numerator 1*Y_3 = 2; denominator 2*1 + 1*2 = 4
    assert z_k([1.0, 2.0, 4.0], 1) == 0.5
    assert z_k(SampleData(np.array([1.0, 2.0, 4.0])), StatisticConfig(1)) == 0.5


def test_z_k_full_range_is_exactly_one():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 20):
        data = rng.gamma(2.0, 1.0, n)
        assert z_k(data, n - 1) == 1.0


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


def test_dixon_dk_refuted_hand_values_and_location_dependence():
    assert dixon_dk_refuted([1.0, 2.0, 4.0, 10.0], 1) == 0.6
    assert dixon_dk_refuted([0.0, 5.0], 1) == 1.0
    # shifting by +10 changes the refuted ratio but not the corrected one
    shifted = [11.0, 12.0, 14.0, 20.0]
    assert dixon_dk_refuted(shifted, 1) == 0.3
    assert_allclose(dixon_dk(shifted, 1), dixon_dk([1.0, 2.0, 4.0, 10.0], 1), rtol=1e-15)


def test_dixon_dk_refuted_zero_maximum():
    with pytest.raises(ValueError):
        dixon_dk_refuted([-3.0, -1.0, 0.0], 1)


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
