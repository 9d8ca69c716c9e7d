import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammaspacings import (
    ConfigMismatchError,
    DegenerateDrawError,
    EmpiricalSample,
    SimulationConfig,
    SlippageAlternative,
    claimed_cdf_yj,
    critical_value,
    ks_test,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
)
from gammaspacings.montecarlo import BLOCK


def toy_sample(values, reps=None, name="zk"):
    values = np.asarray(values, dtype=float)
    cfg = SimulationConfig(n=2, m=1.0, reps=reps or values.size, seed=1, k=1)
    return EmpiricalSample(values=values, config=cfg, statistic_name=name)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=1, m=1.0, reps=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, m=0.0, reps=10, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, m=1.0, reps=0, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, m=1.0, reps=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, m=1.0, reps=10, seed=2**64)
    with pytest.raises(ValueError):
        SimulationConfig(n=5, m=1.0, reps=10, seed=0, k=5)
    with pytest.raises(TypeError):
        SimulationConfig(n=2, m=1.0, reps=10.5, seed=0)
    cfg = SimulationConfig(n=5, m=2, reps=10, seed=3, k=4)
    assert cfg.m == 2.0 and cfg.k == 4


def test_empirical_sample_validation():
    cfg = SimulationConfig(n=2, m=1.0, reps=3, seed=1)
    with pytest.raises(ValueError):
        EmpiricalSample(values=np.array([1.0, 2.0]), config=cfg, statistic_name="y2")
    with pytest.raises(ValueError):
        EmpiricalSample(values=np.array([2.0, 1.0, 3.0]), config=cfg,
                        statistic_name="y2")
    with pytest.raises(ValueError):
        EmpiricalSample(values=np.array([1.0, 2.0, np.inf]), config=cfg,
                        statistic_name="y2")
    unsorted = EmpiricalSample(values=np.array([2.0, 1.0, 3.0]), config=cfg,
                               statistic_name="y2", sorted=False)
    assert not unsorted.sorted


def test_simulate_spacing_basic_contract():
    cfg = SimulationConfig(n=4, m=2.0, reps=500, seed=11)
    sample = simulate_spacing(cfg, 3)
    assert sample.values.size == 500
    assert np.all(np.diff(sample.values) >= 0)
    assert np.all(sample.values > 0)
    assert sample.statistic_name == "y3"
    with pytest.raises(ValueError):
        simulate_spacing(cfg, 5)
    with pytest.raises(ValueError):
        simulate_spacing(cfg, 1)


def test_simulate_spacing_deterministic_and_worker_invariant():
    cfg = SimulationConfig(n=3, m=1.5, reps=400, seed=42)
    base = simulate_spacing(cfg, 2)
    again = simulate_spacing(cfg, 2)
    threaded = simulate_spacing(cfg, 2, workers=4)
    assert np.array_equal(base.values, again.values)
    assert np.array_equal(base.values, threaded.values)
    other = simulate_spacing(SimulationConfig(n=3, m=1.5, reps=400, seed=43), 2)
    assert not np.array_equal(base.values, other.values)


def test_simulate_spacing_m1_matches_exponential_law():
    cfg = SimulationConfig(n=2, m=1.0, reps=10**4, seed=42)
    sample = simulate_spacing(cfg, 2)
    res = ks_test(sample.values, lambda g: claimed_cdf_yj(2, 2, 1.0, g))
    assert res.p_value > 0.01


def test_simulate_spacing_mixture_mean():
    # mean of the two-observation spacing at m=2 is 0.5*1 + 0.5*2
    cfg = SimulationConfig(n=2, m=2.0, reps=10**5, seed=55)
    sample = simulate_spacing(cfg, 2)
    se = math.sqrt(1.75 / 10**5)
    assert abs(sample.values.mean() - 1.5) < 3 * se


def test_simulate_statistic_ranges():
    zk = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=1000, seed=3, k=4), "zk")
    assert np.all((zk.values > 0) & (zk.values <= 1))
    assert np.all(zk.values == 1.0)  # k = n-1 collapses to 1 exactly
    dk = simulate_statistic(SimulationConfig(n=4, m=2.0, reps=1000, seed=4, k=1), "dk")
    assert np.all((dk.values >= 0) & (dk.values <= 1))


def test_simulate_statistic_requires_k_and_known_name():
    cfg = SimulationConfig(n=5, m=1.0, reps=10, seed=0)
    with pytest.raises(ValueError):
        simulate_statistic(cfg, "zk")
    with pytest.raises(ValueError):
        simulate_statistic(SimulationConfig(n=5, m=1.0, reps=10, seed=0, k=1), "tk")


def test_simulate_statistic_scale_free_in_sigma():
    a = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=2000, seed=7, k=2), "zk")
    b = simulate_statistic(
        SimulationConfig(n=5, m=1.0, reps=2000, seed=7, sigma=7.0, k=2), "zk"
    )
    assert np.array_equal(a.values, b.values)


def test_simulate_statistic_two_seed_mean_consistency():
    r = 10**4
    a = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=r, seed=313, k=1), "zk")
    b = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=r, seed=717, k=1), "zk")
    bound = 3 * math.sqrt(a.values.var() / r + b.values.var() / r)
    assert abs(a.values.mean() - b.values.mean()) < bound


def test_simulate_statistic_worker_invariant():
    cfg = SimulationConfig(n=6, m=2.0, reps=600, seed=12, k=2)
    assert np.array_equal(
        simulate_statistic(cfg, "dk").values,
        simulate_statistic(cfg, "dk", workers=3).values,
    )


def test_block_addressing_extends_without_changing_earlier_blocks():
    # block b depends only on (seed, b), so adding a partial block keeps
    # every value of the full blocks before it
    for which in ("zk", "dk"):
        small = simulate_statistic(
            SimulationConfig(n=4, m=2.0, reps=BLOCK, seed=31, k=1), which)
        large = simulate_statistic(
            SimulationConfig(n=4, m=2.0, reps=BLOCK + 5, seed=31, k=1), which)
        assert not Counter(small.values.tolist()) - Counter(large.values.tolist())


def test_degenerate_draws_are_bounded():
    # Gamma(1e-7) variates underflow to 0, so nearly every row is
    # degenerate; the redraws must give up with a typed error, quickly
    cfg = SimulationConfig(n=5, m=1e-7, reps=100, seed=1, k=1)
    start = time.perf_counter()
    with pytest.raises(DegenerateDrawError):
        simulate_statistic(cfg, "zk")
    assert time.perf_counter() - start < 1.0


def test_critical_value_index_convention():
    sample = toy_sample(np.arange(1, 11) / 10.0)
    assert critical_value(sample, 0.1) == 0.9
    assert critical_value(sample, 0.999) == 0.1  # alpha -> 1 gives first value
    assert critical_value(sample, 0.05) == 1.0
    with pytest.raises(ValueError):
        critical_value(sample, 0.0)
    with pytest.raises(ValueError):
        critical_value(sample, 1.0)


def test_critical_value_requires_finalized_sample():
    cfg = SimulationConfig(n=2, m=1.0, reps=3, seed=1, k=1)
    raw = EmpiricalSample(values=np.array([3.0, 1.0, 2.0]), config=cfg,
                          statistic_name="zk", sorted=False)
    with pytest.raises(ValueError):
        critical_value(raw, 0.1)


def test_critical_value_two_seed_stability():
    r = 10**5
    a = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=r, seed=101, k=1), "zk")
    b = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=r, seed=404, k=1), "zk")
    for alpha in (0.01, 0.05, 0.1):
        assert abs(critical_value(a, alpha) - critical_value(b, alpha)) < 0.01


def test_p_value_counting():
    sample = toy_sample(np.arange(1, 11) / 10.0)
    assert p_value(sample, 0.05) == 1.0  # below minimum
    assert p_value(sample, 2.0) == 1.0 / 11.0  # above maximum
    assert p_value(sample, 0.85) == 3.0 / 11.0
    assert p_value(sample, 0.9) == 3.0 / 11.0  # ties count as >=
    odd = toy_sample(np.linspace(0.0, 1.0, 101))
    med = float(np.median(odd.values))
    assert abs(p_value(odd, med) - 0.5) < 0.011


def test_p_value_of_critical_value_bound():
    # tie-free continuous null: p(crit(alpha)) <= alpha + 2/(1+R)
    sample = simulate_statistic(
        SimulationConfig(n=5, m=1.0, reps=4000, seed=2, k=1), "zk"
    )
    for alpha in (0.01, 0.05, 0.1):
        p = p_value(sample, critical_value(sample, alpha))
        assert p <= alpha + 2.0 / (1 + 4000)


def test_slippage_alternative_validation():
    alt = SlippageAlternative(1.0, 2)
    assert alt.b == 1.0 and alt.contaminated_count == 2
    with pytest.raises(ValueError):
        SlippageAlternative(0.99, 1)
    with pytest.raises(ValueError):
        SlippageAlternative(2.0, 0)
    with pytest.raises(TypeError):
        SlippageAlternative(2.0, 1.5)


def test_simulate_power_null_recovery():
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1), "zk")
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=22, k=1),
        SlippageAlternative(1.0 + 1e-9, 1),
        0.05,
        null,
    )
    assert abs(est - 0.05) < 3 * math.sqrt(0.05 * 0.95 / 10**4)


def test_simulate_power_extreme_slippage():
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1), "zk")
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=22, k=1),
        SlippageAlternative(1000.0, 1),
        0.05,
        null,
    )
    assert est > 0.9


def test_simulate_power_dominates_alpha_half():
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1), "zk")
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=22, k=1),
        SlippageAlternative(2.0, 1),
        0.5,
        null,
    )
    assert est >= 0.5


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(1e-4, 0.6), seed=st.integers(0, 2**32), reps=st.integers(1, 300),
       which=st.sampled_from(["zk", "dk"]))
def test_simulate_power_rejects_iff_p_at_most_alpha(alpha, seed, reps, which):
    # at b = 1 the sweep redraws exactly the statistic sample of its config
    null = simulate_statistic(SimulationConfig(n=6, m=2.0, reps=200, seed=1, k=2), which)
    cfg = SimulationConfig(n=6, m=2.0, reps=reps, seed=seed, k=2)
    drawn = simulate_statistic(cfg, which).values
    expected = np.mean([p_value(null, v) <= alpha for v in drawn])
    assert simulate_power(cfg, SlippageAlternative(1.0, 2), alpha, null) == expected


def test_simulate_power_config_mismatches():
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=200, seed=1, k=1), "zk")
    good = SimulationConfig(n=5, m=1.0, reps=200, seed=2, k=1)
    with pytest.raises(ConfigMismatchError):
        simulate_power(good, SlippageAlternative(2.0, 2), 0.05, null)
    with pytest.raises(ConfigMismatchError):
        simulate_power(SimulationConfig(n=6, m=1.0, reps=200, seed=2, k=1),
                       SlippageAlternative(2.0, 1), 0.05, null)
    spacing_null = simulate_spacing(SimulationConfig(n=5, m=1.0, reps=200, seed=1), 2)
    with pytest.raises(ConfigMismatchError):
        simulate_power(good, SlippageAlternative(2.0, 1), 0.05, spacing_null)


def test_simulate_power_worker_invariant():
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=500, seed=1, k=1), "zk")
    cfg = SimulationConfig(n=5, m=1.0, reps=500, seed=2, k=1)
    alt = SlippageAlternative(2.0, 1)
    assert simulate_power(cfg, alt, 0.05, null) == simulate_power(
        cfg, alt, 0.05, null, workers=4
    )
