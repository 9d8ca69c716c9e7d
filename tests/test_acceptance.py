"""Acceptance gate: one test per criterion, named so the ``pytest -v``
report reads as a pass/fail line for each.

Every stochastic check runs under a frozen seed recorded next to the
assertion, with the Monte Carlo margin it was chosen to clear.
"""

import json
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from scipy.integrate import quad

from gammaspacings import (
    GammaParams,
    SimulationConfig,
    SpacingIndex,
    critical_value,
    dixon_dk,
    gamma_quantile,
    ks_test,
    simulate_spacing,
    simulate_statistic,
    spacing_law,
    spacing_pdf_numeric,
    y2_mixture,
    y2_pdf_exact,
    z_k,
    z_k_telescoped,
)
from gammaspacings.cli import main


def test_criterion_1_seeded_reproduction_of_spacing_law():
    # R = 1e4, n = 2, m in {1, 3, 8}: the simulated second spacing is
    # KS-consistent with the true law for every m, and with the claimed
    # Gamma(m, 1) law only at m = 1.
    start = time.perf_counter()
    for m in (1, 3, 8):
        cfg = SimulationConfig(n=2, m=float(m), reps=10**4, seed=2024)
        sample = simulate_spacing(cfg, 2)
        truth = ks_test(sample.values, spacing_law(2, 2, m).cdf)
        claim = ks_test(sample.values, spacing_law(2, 2, m, "claimed").cdf)
        assert truth.p_value > 0.01, f"m={m}: true law rejected, p={truth.p_value}"
        if m == 1:
            assert claim.p_value > 0.01
        else:
            assert claim.p_value < 1e-6, f"m={m}: claim survived, p={claim.p_value}"
    assert time.perf_counter() - start < 10.0


def test_criterion_2_m2_closed_form_on_grid():
    grid = np.linspace(0.0, 20.0, 1000)
    reference = 0.5 * (np.exp(-grid) + grid * np.exp(-grid))
    values = y2_pdf_exact(2, grid)
    assert np.max(np.abs(values - reference)) <= 1e-14


def test_criterion_3_quadrature_matches_closed_form():
    start = time.perf_counter()
    idx = SpacingIndex(n=2, j=2)
    for m in (1, 2, 3, 8):
        params = GammaParams(float(m), 1.0)
        ymax = float(gamma_quantile(0.999, params)) + 2.0
        grid = np.linspace(0.0, ymax, 41)
        numeric = np.array(
            [spacing_pdf_numeric(idx, params, float(y), 1e-9) for y in grid]
        )
        exact = y2_pdf_exact(m, grid)
        sup = float(np.max(np.abs(numeric - exact)))
        assert sup < 1e-6, f"m={m}: sup distance {sup}"
    assert time.perf_counter() - start < 30.0


def test_criterion_4_normalization_and_weight_sums():
    for m in range(1, 11):
        integral, _ = quad(lambda y: y2_pdf_exact(m, y), 0.0, np.inf, limit=200)
        assert abs(integral - 1.0) <= 1e-8, f"m={m}: integral {integral}"
    for m in range(1, 51):
        total = float(np.sum(y2_mixture(m).weights))
        assert abs(total - 1.0) <= 1e-12, f"m={m}: weight sum {total}"


def test_criterion_5_mixture_equivalence():
    grid = np.linspace(0.0, 30.0, 301)
    for m in range(1, 11):
        direct = y2_pdf_exact(m, grid)
        mixed = y2_mixture(m).pdf(grid)
        assert np.max(np.abs(direct - mixed)) <= 1e-12, f"m={m}"


def test_criterion_6_claim_holds_in_exponential_case():
    # m = 1 is the one shape where the claimed law is the true law.
    for n in (3, 4, 5):
        for j in range(2, n + 1):
            idx = SpacingIndex(n, j)
            claimed_law = spacing_law(n, j, 1.0, "claimed")
            params = GammaParams(1.0, 1.0)
            scale = 1.0 / (n - j + 1)
            grid = np.linspace(0.0, 8.0 * scale, 21)
            numeric = np.array(
                [spacing_pdf_numeric(idx, params, float(y), 1e-9) for y in grid]
            )
            claimed = claimed_law.pdf(grid)
            assert np.max(np.abs(numeric - claimed)) < 1e-6, f"n={n}, j={j}"
            cfg = SimulationConfig(n=n, m=1.0, reps=10**4, seed=42)
            sample = simulate_spacing(cfg, j)
            res = ks_test(sample.values, claimed_law.cdf)
            assert res.p_value > 0.01, f"n={n}, j={j}: p={res.p_value}"


def test_criterion_7_statistic_identities():
    rng = np.random.default_rng(20240817)
    shapes = np.array([0.5, 1.0, 2.0, 5.0])
    for _ in range(10**4):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, n))
        m = float(rng.choice(shapes))
        xs = rng.gamma(shape=m, scale=1.0, size=n)
        assert abs(z_k(xs, k) - z_k_telescoped(xs, k)) < 1e-12
        assert z_k(2.0 * xs, k) == z_k(xs, k)  # power-of-two scaling is exact
        assert dixon_dk(0.5 * xs, k) == dixon_dk(xs, k)
        assert abs(dixon_dk(3.0 + 1.7 * xs, k) - dixon_dk(xs, k)) < 1e-12
        assert z_k(xs, n - 1) == 1.0


def test_criterion_8_test_size_is_calibrated():
    start = time.perf_counter()
    null = simulate_statistic(
        SimulationConfig(n=5, m=1.0, reps=10**5, seed=101, k=1), "zk"
    )
    crit = critical_value(null, 0.05)
    fresh = simulate_statistic(
        SimulationConfig(n=5, m=1.0, reps=10**4, seed=202, k=1), "zk"
    )
    size = float(np.mean(fresh.values > crit))
    assert abs(size - 0.05) <= 0.0065, f"empirical size {size}"
    assert time.perf_counter() - start < 60.0


def _run_all_simulation_subcommands(runner, workers):
    Path("obs.txt").write_text("1.1\n0.9\n1.0\n1.2\n50.0\n")
    w = str(workers)
    commands = [
        ["simulate", "--n", "2", "--m", "2", "--j", "2", "--reps", "400",
         "--seed", "5", "--workers", w, "--bins", "8"],
        ["simulate", "--n", "5", "--m", "1", "--stat", "zk", "--k", "1",
         "--reps", "400", "--seed", "6", "--workers", w, "--format", "json",
         "--output", "statsim"],
        ["validate", "--m", "1,2", "--reps", "400", "--seed", "7",
         "--workers", w],
        ["critical-values", "--n", "5", "--m", "1", "--k", "1", "--reps", "400",
         "--seed", "8", "--workers", w],
        ["test", "obs.txt", "--k", "1", "--m", "1", "--reps", "400",
         "--seed", "9", "--workers", w, "--output", "report"],
        ["power", "--n", "5", "--m", "1", "--k", "1", "--b", "1,3",
         "--reps", "400", "--seed", "10", "--workers", w],
    ]
    for args in commands:
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code in (0, 1), f"{args}: {result.output}"
    outputs = {}
    for path in sorted(Path(".").iterdir()):
        if path.name == "obs.txt":
            continue
        if path.name.endswith(".manifest.json"):
            blob = json.loads(path.read_text())
            del blob["timestamp"]
            outputs[path.name] = json.dumps(blob, sort_keys=True)
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


def test_criterion_9_byte_determinism_across_runs_and_workers():
    runner = CliRunner()
    runs = []
    for workers in (1, 1, 4):
        with runner.isolated_filesystem():
            runs.append(_run_all_simulation_subcommands(runner, workers))
    serial_a, serial_b, threaded = runs
    assert set(serial_a) == set(serial_b) == set(threaded)
    assert len([name for name in serial_a if name.endswith(".manifest.json")]) == 6
    for name in serial_a:
        assert serial_a[name] == serial_b[name], f"{name} differs across reruns"
        assert serial_a[name] == threaded[name], f"{name} differs with workers=4"
