import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammaspacings import (
    GammaParams,
    RngStream,
    ecdf,
    gamma_cdf,
    gamma_sample,
    histogram,
    ks_pvalue,
    ks_statistic,
    ks_test,
)

KS_P_AT_LAMBDA_1358 = 0.0500267973344470  # frozen series value at lam = 1.358


def test_ecdf_values():
    sample = np.array([1.0, 2.0, 3.0])
    assert ecdf(sample, 2.0) == pytest.approx(2.0 / 3.0)
    assert ecdf(sample, 0.5) == 0.0
    assert ecdf(sample, 3.0) == 1.0
    assert_allclose(ecdf(sample, np.array([1.5, 2.5])), [1 / 3, 2 / 3])


def test_ecdf_validation():
    with pytest.raises(ValueError):
        ecdf(np.array([]), 1.0)
    with pytest.raises(ValueError):
        ecdf(np.array([2.0, 1.0]), 1.0)


def test_ks_statistic_single_point():
    assert ks_statistic(np.array([1.0]), lambda x: np.full_like(x, 0.5)) == 0.5


def test_ks_statistic_degenerate_cdf():
    assert ks_statistic(np.array([1.0, 2.0]), lambda x: np.zeros_like(x)) == 1.0


def test_ks_statistic_self_draw_bound():
    p = GammaParams(2.0, 1.0)
    sample = np.sort(gamma_sample(RngStream(7, 0), p, 10**4))
    d = ks_statistic(sample, lambda x: gamma_cdf(x, p))
    assert d < 1.95 / math.sqrt(10**4)


def test_ks_statistic_accepts_scalar_cdf():
    sample = np.array([0.2, 0.4, 0.9])
    vec = ks_statistic(sample, lambda x: np.clip(x, 0, 1))
    scal = ks_statistic(sample, lambda x: min(max(float(x), 0.0), 1.0))
    assert vec == scal


def test_ks_statistic_rejects_bad_cdf_values():
    with pytest.raises(ValueError):
        ks_statistic(np.array([1.0, 2.0]), lambda x: x)  # exceeds 1


def test_ks_pvalue_pinned_points():
    assert ks_pvalue(0.0, 100) == 1.0
    n = 100
    corr = math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)
    assert abs(ks_pvalue(1.358 / corr, n) - KS_P_AT_LAMBDA_1358) < 1e-9
    assert ks_pvalue(5.0 / corr, n) < 1e-10


def test_ks_pvalue_tiny_statistic_is_one():
    # lam ~ 1e-6 needs far more series terms than a truncated sum takes
    assert ks_pvalue(1e-6, 1) == pytest.approx(1.0, abs=1e-12)
    assert ks_pvalue(1e-4, 10) == pytest.approx(1.0, abs=1e-12)


def test_ks_pvalue_monotone_in_d():
    ps = [ks_pvalue(d, 500) for d in np.linspace(0.01, 0.2, 30)]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    assert all(0.0 < p <= 1.0 for p in ps)


def test_ks_pvalue_validation():
    with pytest.raises(ValueError):
        ks_pvalue(-0.1, 10)
    with pytest.raises(ValueError):
        ks_pvalue(1.1, 10)
    with pytest.raises(ValueError):
        ks_pvalue(0.1, 0)
    with pytest.raises(TypeError):
        ks_pvalue(0.1, 10.5)


def test_ks_test_composes():
    p = GammaParams(1.0, 1.0)
    sample = np.sort(gamma_sample(RngStream(12, 0), p, 2000))
    res = ks_test(sample, lambda x: gamma_cdf(x, p))
    assert res.sample_size == 2000
    assert res.statistic == ks_statistic(sample, lambda x: gamma_cdf(x, p))
    assert res.p_value == ks_pvalue(res.statistic, 2000)


def test_ks_selftest_calibration():
    # p-values of samples drawn from their own cdf are ~uniform:
    # rejection rate at 0.05 stays within 3 SE over 500 repetitions
    hits = 0
    for r in range(500):
        gen = RngStream(1234, r).generator()
        u = np.sort(gen.random(500))
        if ks_test(u, lambda x: np.clip(x, 0.0, 1.0)).p_value < 0.05:
            hits += 1
    frac = hits / 500
    assert abs(frac - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 500)


def test_histogram_unit_example():
    h = histogram([0.5, 1.5], 2, range=(0.0, 2.0))
    assert_allclose(h.densities, [0.5, 0.5])
    assert h.count == 2
    assert_allclose(h.bin_edges, [0.0, 1.0, 2.0])


def test_histogram_single_occupied_bin():
    h = histogram([1.1, 1.2, 1.15], 4, range=(1.0, 2.0))
    width = 0.25
    assert h.densities[0] == pytest.approx(1.0 / width)
    assert np.all(h.densities[1:] == 0.0)


def test_histogram_area_is_one():
    gen = RngStream(8, 0).generator()
    xs = gen.gamma(2.0, 1.0, 5000)
    h = histogram(xs, 37)
    assert abs(np.sum(h.densities * np.diff(h.bin_edges)) - 1.0) < 1e-12
    assert h.count == 5000


def test_histogram_out_of_range_dropped():
    h = histogram([0.5, 1.5, 99.0], 2, range=(0.0, 2.0))
    assert h.count == 2
    assert abs(np.sum(h.densities * np.diff(h.bin_edges)) - 1.0) < 1e-12
    empty = histogram([5.0, 6.0], 2, range=(0.0, 1.0))
    assert empty.count == 0
    assert np.all(empty.densities == 0.0)


def test_histogram_matches_exponential_density():
    gen = RngStream(31415, 0).generator()
    xs = gen.exponential(1.0, 10**4)
    h = histogram(xs, 50, range=(0.0, 10.0))
    mids = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
    assert np.max(np.abs(h.densities - np.exp(-mids))) < 0.05


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram([], 3)
    with pytest.raises(ValueError):
        histogram([1.0], 0)
    with pytest.raises(ValueError):
        histogram([1.0], 3, range=(2.0, 2.0))
    with pytest.raises(ValueError):
        histogram([1.0, np.nan], 3)
