import math
import time
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gammaspacings import (
    DegenerateDrawError,
    EmpiricalSample,
    RngStream,
    SimulationConfig,
    critical_value,
    ks_test,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
    spacing_law,
)
from gammaspacings import montecarlo
from gammaspacings.montecarlo import BLOCK, _simulate
from gammaspacings.stats import REDUCTIONS


def toy_sample(values, reps=None, name="zk"):
    values = np.asarray(values, dtype=float)
    cfg = SimulationConfig(n=3, m=1.0, reps=reps or values.size, seed=1, k=1)
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
    for k in (0, 4):  # at k = n-1 both statistics are identically 1
        with pytest.raises(ValueError, match=r"1 <= k <= n-2 = 3 \(at k = n-1"):
            SimulationConfig(n=5, m=1.0, reps=10, seed=0, k=k)
    with pytest.raises(TypeError):
        SimulationConfig(n=2, m=1.0, reps=10.5, seed=0)
    cfg = SimulationConfig(n=5, m=2, reps=10, seed=3, k=3)
    assert cfg.m == 2.0 and cfg.k == 3


def test_simulation_config_is_keyword_only_and_records_its_fields_in_order():
    cfg = SimulationConfig(k=1, seed=3, reps=10, sigma=2.0, m=1.5, n=4)
    assert list(asdict(cfg)) == ["n", "m", "sigma", "reps", "seed", "k"]
    assert asdict(cfg) == {"n": 4, "m": 1.5, "sigma": 2.0, "reps": 10, "seed": 3, "k": 1}
    with pytest.raises(TypeError):
        SimulationConfig(4, 1.5, 10, 3)  # n, m, reps, seed by position


def test_empirical_sample_validation():
    cfg = SimulationConfig(n=2, m=1.0, reps=3, seed=1)
    with pytest.raises(ValueError):
        EmpiricalSample(values=np.array([1.0, 2.0]), config=cfg, statistic_name="y2")
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalSample(values=np.array([2.0, 1.0, 3.0]), config=cfg,
                        statistic_name="y2")
    with pytest.raises(ValueError, match=r"values must be a finite 1-D array of length >= 1"):
        EmpiricalSample(values=np.array([1.0, 2.0, np.inf]), config=cfg,
                        statistic_name="y2")


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
    assert np.array_equal(base.values, simulate_spacing(cfg, 2, workers=np.int64(4)).values)
    for workers, error in ((True, TypeError), (0, ValueError)):
        with pytest.raises(error, match="workers must be"):
            simulate_spacing(cfg, 2, workers=workers)
    other = simulate_spacing(SimulationConfig(n=3, m=1.5, reps=400, seed=43), 2)
    assert not np.array_equal(base.values, other.values)


def test_simulate_spacing_m1_matches_exponential_law():
    cfg = SimulationConfig(n=2, m=1.0, reps=10**4, seed=42)
    sample = simulate_spacing(cfg, 2)
    res = ks_test(sample.values, spacing_law(2, 2, 1.0, "claimed").cdf)
    assert res.p_value > 0.01


def test_simulate_spacing_mixture_mean():
    # mean of the two-observation spacing at m=2 is 0.5*1 + 0.5*2
    cfg = SimulationConfig(n=2, m=2.0, reps=10**5, seed=55)
    sample = simulate_spacing(cfg, 2)
    se = math.sqrt(1.75 / 10**5)
    assert abs(sample.values.mean() - 1.5) < 3 * se


def test_simulate_statistic_ranges():
    zk = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=1000, seed=3, k=3), "zk")
    assert np.all((zk.values > 0) & (zk.values <= 1))
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


# Literal values of the block stream (sfc64-block-4096/v3): sorted
# samples and replication order at the first and last replication of
# block 0, the first of block 1 and the last overall.  A change to a
# draw changes the stream contract and STREAM_LAYOUT with it; the zk
# values also carry the rounding of the reduction's summation order.
PINNED_INDICES = [0, BLOCK - 1, BLOCK, -1]
PINNED_SORTED = {
    "zk": [0.00075518586779744, 0.8781785209194612, 0.8786678940951331,
           0.940395122414053],
    "dk": [0.0019272442971241162, 0.9569206871374514, 0.9597902544619825,
           0.9717929880025069],
    "y3": [2.2030797372618593e-05, 5.034916053091115, 5.640055717546698,
           7.020264517488628],
}
PINNED_IN_ORDER = {
    "zk": [0.5978586414201086, 0.3992436177656311, 0.48054816884484863,
           0.29980860418510963],
    "dk": [0.8289998257334521, 0.639971636384266, 0.7183365468762155,
           0.547409087358422],
    "y3": [0.2528990678053641, 0.3184718782555107, 2.393729084685646,
           0.3345701033601225],
}


def test_block_stream_values_are_pinned():
    stat_cfg = SimulationConfig(n=6, m=2.5, reps=BLOCK + 5, seed=11, k=2)
    spacing_cfg = SimulationConfig(n=5, m=0.7, sigma=3.0, reps=BLOCK + 5, seed=12)
    samples = {which: simulate_statistic(stat_cfg, which) for which in ("zk", "dk")}
    samples["y3"] = simulate_spacing(spacing_cfg, 3)
    in_order = {which: _simulate(stat_cfg, lambda xs, f=REDUCTIONS[which]: f(xs, 2),
                                 np.ones(6), 1)[0] for which in ("zk", "dk")}
    in_order["y3"] = _simulate(spacing_cfg, lambda xs: xs[:, 2] - xs[:, 1],
                               np.full(5, 3.0), 1)[0]
    for name, sample in samples.items():
        assert sample.values[PINNED_INDICES].tolist() == PINNED_SORTED[name], name
        assert in_order[name][PINNED_INDICES].tolist() == PINNED_IN_ORDER[name], name


def test_degenerate_draws_are_bounded():
    # Gamma(1e-7) variates underflow to 0, so nearly every row is
    # degenerate; the redraws must give up with a typed error, quickly
    cfg = SimulationConfig(n=5, m=1e-7, reps=100, seed=1, k=1)
    start = time.perf_counter()
    with pytest.raises(DegenerateDrawError):
        simulate_statistic(cfg, "zk")
    assert time.perf_counter() - start < 1.0


def test_spacing_runs_keep_their_degenerate_rows():
    # at m = 0.001 about a quarter of the pairs draw two zeros; their
    # spacing of 0 is a value of the law, so no row is redrawn
    cfg = SimulationConfig(n=2, m=0.001, reps=BLOCK + 5, seed=4)
    raw = np.concatenate([
        np.diff(np.sort(RngStream(cfg.seed, b).generator().gamma(cfg.m, size=(rows, 2))))
        for b, rows in enumerate((BLOCK, 5))]).ravel()
    assert np.count_nonzero(raw == 0.0) > BLOCK // 10
    assert np.array_equal(simulate_spacing(cfg, 2).values, np.sort(raw))


def test_critical_value_index_convention():
    # the ceil((1 - alpha)(R + 1))-th smallest of R = 10 values
    sample = toy_sample(np.arange(1, 11) / 10.0)
    assert critical_value(sample, 0.1) == 1.0  # p = 1/11 <= 0.1 only above the max
    assert critical_value(sample, 0.999) == 0.1  # alpha -> 1 gives first value
    assert critical_value(sample, 0.05) == math.inf  # below 1/11 nothing rejects
    with pytest.raises(ValueError):
        critical_value(sample, 0.0)
    with pytest.raises(ValueError):
        critical_value(sample, 1.0)


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


def test_simulate_power_null_recovery():
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1),
        "zk",
        [1.0 + 1e-9],
        0.05,
    )[0]
    assert abs(est - 0.05) < 3 * math.sqrt(0.05 * 0.95 / 10**4)


def test_simulate_power_extreme_slippage():
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1),
        "zk",
        [1000.0],
        0.05,
    )[0]
    assert est > 0.9


def test_simulate_power_dominates_alpha_half():
    est = simulate_power(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=21, k=1),
        "zk",
        [2.0],
        0.5,
    )[0]
    assert est >= 0.5


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(1e-4, 0.6), seed=st.integers(0, 2**32), reps=st.integers(1, 300),
       which=st.sampled_from(["zk", "dk"]))
@example(alpha=0.1, seed=2**64 - 1, reps=300, which="dk")  # the sweep seed wraps to 0
def test_simulate_power_rejects_iff_p_at_most_alpha(alpha, seed, reps, which):
    # the null is the statistic sample of the config, the sweep that of seed + 1
    cfg = SimulationConfig(n=6, m=2.0, reps=reps, seed=seed, k=2)
    null = simulate_statistic(cfg, which)
    drawn = simulate_statistic(replace(cfg, seed=(seed + 1) % 2**64), which).values
    expected = np.mean([p_value(null, v) <= alpha for v in drawn])
    assert expected == np.mean(drawn > critical_value(null, alpha))
    assert simulate_power(cfg, which, [1.0], alpha) == [expected]


def test_simulate_power_checks_inputs_before_the_null(monkeypatch):
    def no_null(*args, **kwargs):
        raise AssertionError("null simulated before the inputs were checked")

    monkeypatch.setattr(montecarlo, "simulate_statistic", no_null)
    cfg = SimulationConfig(n=5, m=1.0, reps=200, seed=1, k=1)
    with pytest.raises(ValueError, match="slippage factors must be a non-empty list"):
        simulate_power(cfg, "zk", [math.nan], 0.05)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        simulate_power(cfg, "zk", [2.0], 1.0)


def test_simulate_power_worker_invariant():
    cfg = SimulationConfig(n=5, m=1.0, reps=500, seed=1, k=1)
    assert simulate_power(cfg, "zk", [2.0], 0.05) == simulate_power(
        cfg, "zk", [2.0], 0.05, workers=4
    )


@settings(max_examples=25, deadline=None)
@given(bs=st.lists(st.sampled_from([1.0, 1.0 + 1e-9, 1.5, 2.0, 4.0, 1e3]),
                   min_size=1, max_size=4),
       seed=st.integers(0, 2**32), reps=st.integers(1, BLOCK + 50),
       m=st.sampled_from([2.0, 0.7]), which=st.sampled_from(["zk", "dk"]))
def test_power_sweep_row_equals_its_one_alternative_run(bs, seed, reps, m, which):
    cfg = SimulationConfig(n=3, m=m, reps=reps, seed=seed, k=1)
    sweep = simulate_power(cfg, which, bs, 0.05)
    assert sweep == [simulate_power(cfg, which, [b], 0.05)[0] for b in bs]


@pytest.mark.parametrize("m", [0.002, 1e31])
def test_each_scale_replays_the_blocks_redraws(m):
    # m = 0.002: about 1 % of rows draw three zeros; m = 1e31: about a
    # fifth of rows draw three equal values, which a factor above 1 would
    # pull apart.  A block redraws its degenerate rows once, at unit scale,
    # so every scale sees the rows a run with that scale alone sees.  The
    # reduction returns a view of the reused buffer.
    cfg = SimulationConfig(n=3, m=m, reps=BLOCK + 5, seed=3)
    scales = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1e3]])
    stacked = _simulate(cfg, lambda xs: xs[:, -1], scales, 2)
    for i, scale in enumerate(scales):
        alone = _simulate(cfg, lambda xs: xs[:, -1], scale, 1)[0]
        assert np.array_equal(stacked[i], alone), i


def test_power_sweep_worker_invariant():
    cfg = SimulationConfig(n=6, m=2.0, reps=2 * BLOCK + 7, seed=1, k=2)
    bs = [1.0, 1.5, 3.0]
    sweep = simulate_power(cfg, "dk", bs, 0.05)
    assert sweep == simulate_power(cfg, "dk", bs, 0.05, workers=4)
    assert sweep[0] < sweep[1] < sweep[2]


def test_slippage_alternative_validation():
    # A slippage factor is finite and >= 1; 1 itself is the null.
    cfg = SimulationConfig(n=5, m=1.0, reps=200, seed=1, k=1)
    assert len(simulate_power(cfg, "zk", [1.0], 0.05)) == 1
    for b in (0.99, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slippage factors must be a non-empty list"):
            simulate_power(cfg, "zk", [b], 0.05)


def test_power_sweep_checks_every_alternative():
    cfg = SimulationConfig(n=5, m=1.0, reps=200, seed=1, k=1)
    for bs in ([], [0.99, 2.0], [2.0, math.nan], [2.0, 3.0, math.inf], [[2.0, 3.0]]):
        with pytest.raises(ValueError, match="slippage factors must be a non-empty list"):
            simulate_power(cfg, "zk", bs, 0.05)
