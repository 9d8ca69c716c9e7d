import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from gammaspacings import (
    EmpiricalSample,
    GammaParams,
    RngStream,
    SimulationConfig,
    SpacingIndex,
    dixon_dk,
    gamma_cdf,
    gamma_pdf,
    gamma_quantile,
    histogram,
    ks_test,
    spacing_law,
    spacing_pdf_numeric,
    z_k,
)

# high-precision reference values (40-digit mpmath, frozen)
PDF_2_3_HALF = 0.2930502222197468846994  # 16 e^{-4}
CDF_1_2_1 = 0.2642411176571153568089  # 1 - 2 e^{-1}


def test_gamma_params_validation():
    with pytest.raises(ValueError):
        GammaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaParams(1.0, -2.0)
    with pytest.raises(ValueError):
        GammaParams(math.nan, 1.0)
    with pytest.raises(TypeError):
        GammaParams("1", 1.0)
    with pytest.raises(TypeError):
        GammaParams(True, 1.0)
    p = GammaParams(2, 1)
    assert p.m == 2.0 and p.sigma == 1.0
    # numpy real scalars are real numbers, stored as float
    for m, sigma in [(np.int64(2), np.float32(2.5)), (np.float32(2.5), np.int64(3))]:
        p = GammaParams(m, sigma)
        assert (p.m, p.sigma) == (float(m), float(sigma)) and type(p.m) is float
    cfg = SimulationConfig(n=3, m=np.int64(2), reps=10, seed=0)
    assert cfg.m == 2.0 and type(cfg.m) is float
    assert spacing_law(2, 2, np.int64(3)).route == "exact"


def test_gamma_pdf_pinned_values():
    assert_allclose(gamma_pdf(1.0, GammaParams(1.0, 1.0)), math.exp(-1.0), rtol=1e-14)
    assert gamma_pdf(0.0, GammaParams(2.0, 1.0)) == 0.0
    assert_allclose(gamma_pdf(2.0, GammaParams(3.0, 0.5)), PDF_2_3_HALF, rtol=1e-13)


def test_gamma_pdf_left_of_support_and_at_zero():
    p = GammaParams(3.0, 1.0)
    assert gamma_pdf(-1.0, p) == 0.0
    assert list(gamma_pdf(np.array([-2.0, -1e-12]), p)) == [0.0, 0.0]
    # right-continuous limit at 0: 0 above shape 1, 1/sigma at shape 1,
    # unbounded below shape 1
    assert gamma_pdf(0.0, GammaParams(1.0, 2.0)) == 0.5
    assert gamma_pdf(0.0, GammaParams(0.5, 1.0)) == math.inf


def test_gamma_pdf_integrates_to_one():
    for m in (0.5, 1.0, 2.0, 3.0, 8.0):
        for sigma in (0.5, 1.0, 2.0):
            p = GammaParams(m, sigma)
            upper = float(gamma_quantile(1.0 - 1e-12, p))
            total, _ = quad(lambda x: gamma_pdf(x, p), 0.0, upper,
                            epsabs=1e-10, epsrel=0.0, limit=400)
            assert abs(total - 1.0) < 1e-8, (m, sigma, total)


def test_gamma_cdf_pinned_values():
    assert gamma_cdf(0.0, GammaParams(3.0, 2.0)) == 0.0
    assert gamma_cdf(-5.0, GammaParams(3.0, 2.0)) == 0.0
    assert_allclose(gamma_cdf(math.log(2.0), GammaParams(1.0, 1.0)), 0.5, atol=1e-14)
    assert_allclose(gamma_cdf(1.0, GammaParams(2.0, 1.0)), CDF_1_2_1, atol=1e-13)


def test_gamma_cdf_monotone_and_limits():
    p = GammaParams(2.5, 1.3)
    xs = np.linspace(0.0, 40.0, 300)
    fs = gamma_cdf(xs, p)
    assert np.all(np.diff(fs) >= 0)
    assert fs[-1] > 1.0 - 1e-9
    assert np.all((fs >= 0) & (fs <= 1))


def test_gamma_cdf_scale_equivariance_bitwise():
    m = 2.7
    xs = np.linspace(0.1, 30.0, 50)
    for sigma in (0.5, 3.0, 7.0):
        lhs = gamma_cdf(xs, GammaParams(m, sigma))
        rhs = gamma_cdf(xs / sigma, GammaParams(m, 1.0))
        assert np.array_equal(lhs, rhs)


def test_gamma_quantile_roundtrip():
    p = GammaParams(2.0, 3.0)
    qs = np.array([0.0, 0.1, 0.5, 0.9, 0.999])
    xs = gamma_quantile(qs, p)
    assert xs[0] == 0.0
    assert_allclose(gamma_cdf(xs[1:], p), qs[1:], atol=1e-12)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            gamma_quantile(bad, p)


def test_rngstream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(TypeError):
        RngStream(1.5, 0)
    with pytest.raises(TypeError):
        RngStream(True, 0)
    with pytest.raises(ValueError):
        RngStream(np.int64(-1), 0)
    # numpy integers are integers: stored as int, same stream bit for bit
    stream = RngStream(np.int64(3), np.int64(7))
    assert type(stream.seed) is int and type(stream.stream_index) is int
    assert stream == RngStream(3, 7)
    assert np.array_equal(stream.generator().gamma(2.5, size=64),
                          RngStream(3, 7).generator().gamma(2.5, size=64))


def test_gamma_sample_deterministic_per_stream():
    a = RngStream(42, 7).generator().gamma(3.0, 1.0, 1000)
    b = RngStream(42, 7).generator().gamma(3.0, 1.0, 1000)
    c = RngStream(42, 8).generator().gamma(3.0, 1.0, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0)


def test_stream_is_the_spawned_child_of_the_seed():
    # block b's stream is numpy's b-th child of the seed, drawn by SFC64
    for seed, b in [(0, 0), (42, 7), (2**64 - 1, 3), (2**32, 0)]:
        child = np.random.SeedSequence(seed).spawn(b + 1)[b]
        expected = np.random.SFC64(child).random_raw(16)
        got = RngStream(seed, b).generator().bit_generator.random_raw(16)
        assert np.array_equal(got, expected), (seed, b)
    # keying by the entropy list [seed, b] would give these two one state
    assert not np.array_equal(RngStream(2**32, 0).generator().random(16),
                              RngStream(0, 1).generator().random(16))


def test_gamma_sample_mean_matches_law():
    draws = RngStream(100, 0).generator().gamma(3.0, 1.0, 10**5)
    assert abs(draws.mean() - 3.0) < 3.0 * math.sqrt(3.0 / 10**5)


def test_gamma_sample_ks_self_consistency():
    p = GammaParams(1.0, 1.0)
    draws = np.sort(RngStream(99, 0).generator().gamma(p.m, p.sigma, 10**4))
    result = ks_test(draws, lambda x: gamma_cdf(x, p))
    assert result.p_value > 0.01


# every sample-taking entry point: (call, argument name, least length)
SAMPLE_ENTRY_POINTS = {
    "z_k": (lambda v: z_k(v, 1), "data", 2),
    "dixon_dk": (lambda v: dixon_dk(v, 1), "data", 2),
    "ks_test": (lambda v: ks_test(v, lambda x: np.clip(x, 0.0, 1.0)), "sample", 1),
    "histogram": (lambda v: histogram(v, 3), "sample", 1),
    "EmpiricalSample": (lambda v: EmpiricalSample(
        values=v, config=SimulationConfig(n=2, m=1.0, reps=3, seed=1), statistic_name="y2"),
        "values", 1),
    "spacing_pdf_numeric": (lambda v: spacing_pdf_numeric(SpacingIndex(3, 2), GammaParams(2.0), v),
                            "y", 0),
}


@pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
def test_every_sample_check_is_the_one_finite_1d_rule(entry):
    call, name, low = SAMPLE_ENTRY_POINTS[entry]
    message = f"{name} must be a finite 1-D array of length >= {low}"
    bad = [np.append(np.arange(1.0, low + 1), np.nan), np.ones((2, 2))]
    if low > 0:
        bad.append(np.arange(1.0, low))  # one entry too short
    for values in bad:
        with pytest.raises(ValueError) as info:
            call(values)
        assert str(info.value) == message
