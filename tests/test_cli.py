import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gammaspacings import (
    SimulationConfig,
    critical_value,
    density_curve,
    histogram,
    ks_test,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
    spacing_law,
)
from gammaspacings import cli, spacings
from gammaspacings.cli import main
from gammaspacings.gamma import GammaParams, gamma_quantile
from gammaspacings.montecarlo import STREAM_LAYOUT
from gammaspacings.spacings import CDF_NODES, QuadratureError
from gammaspacings.stats import REDUCTIONS


@pytest.fixture()
def runner():
    return CliRunner()


def read_curve(path):
    ys, fs = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line == "y,f":
            continue
        a, b = line.split(",")
        ys.append(float(a))
        fs.append(float(b))
    return np.array(ys), np.array(fs)


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_version_flag(runner):
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert "gammaspacings" in result.output


def test_density_default_writes_true_and_claimed(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, ["density", "--m", "2", "--points", "51"])
        assert result.exit_code == 0
        y_e, f_e = read_curve("density_exact.csv")
        y_c, f_c = read_curve("density_claimed.csv")
        assert np.array_equal(y_e, y_c)
        assert y_e[0] == 0.0
        assert f_e[0] == 0.5  # true m=2 density is positive at the origin
        assert f_c[0] == 0.0  # claimed Gamma(2, 1/2) density vanishes there
        manifest = json.loads(Path("density.manifest.json").read_text())
        assert manifest["subcommand"] == "density"
        assert manifest["parameters"]["m"] == 2.0
        assert "timestamp" in manifest and "version" in manifest
        assert manifest["stream_layout"] == STREAM_LAYOUT


def test_density_m1_routes_agree(runner):
    with runner.isolated_filesystem():
        invoke(runner, ["density", "--m", "1", "--points", "41"])
        _, f_e = read_curve("density_exact.csv")
        _, f_c = read_curve("density_claimed.csv")
        assert np.max(np.abs(f_e - f_c)) < 1e-12


def test_density_exact_rejects_noninteger_shape(runner):
    result = runner.invoke(main, ["density", "--m", "2.5", "--which", "exact"])
    assert result.exit_code == 2


def test_density_above_the_exact_bound_takes_the_numeric_route(runner):
    # above EXACT_MAX_M = 1075 the exact mixture's smallest weight can underflow to 0
    for m in ("1076", "1077"):
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["density", "--m", m, "--points", "5"])
            assert result.exit_code == 0, result.output
            assert sorted(p.name for p in Path(".").iterdir()) == [
                "density.manifest.json", "density_claimed.csv", "density_numeric.csv"]
            result = runner.invoke(main, ["density", "--m", m, "--which", "exact"])
            assert result.exit_code == 2
            assert "the exact route needs m <= 1075" in result.output


def test_density_usage_validation(runner):
    assert runner.invoke(main, ["density", "--m", "0"]).exit_code == 2
    assert runner.invoke(main, ["density", "--m", "2", "--j", "3"]).exit_code == 2
    assert runner.invoke(main, ["density", "--m", "2", "--points", "1"]).exit_code == 2
    assert runner.invoke(main, ["density", "--m", "2", "--ymax", "-1"]).exit_code == 2


@pytest.mark.parametrize("tol", ["0", "1", "nan", "-1e-9"])
def test_density_bad_tol_writes_nothing(runner, tol):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["density", "--m", "2.5", "--n", "3", "--j", "2",
                                      "--which", "numeric", "--tol", tol])
        assert result.exit_code == 2
        assert "tol" in result.output
        assert list(Path(".").iterdir()) == []


def test_density_below_half_shape(runner):
    # f_Y(0) is infinite at m <= 1/2; the grid starts half a step in
    with runner.isolated_filesystem():
        result = invoke(runner, ["density", "--m", "0.5", "--n", "3", "--j", "2",
                                 "--points", "21"])
        assert result.exit_code == 0
        ys, fs = read_curve("density_numeric.csv")
        y_c, _ = read_curve("density_claimed.csv")
        assert np.array_equal(ys, y_c)
        assert ys[0] == ys[1] / 2.0
        assert np.all(np.isfinite(fs)) and np.all(np.diff(fs) < 0)


@pytest.mark.parametrize("m, bound", [(0.05, 0.01), (0.3, 0.03), (0.7, 0.01)])
def test_density_normalization_error_below_unit_shape(runner, m, bound):
    # most of the mass can lie below the first grid point (92 % at
    # m = 0.05), so the check compares with the law's cdf over the grid
    with runner.isolated_filesystem():
        invoke(runner, ["density", "--m", str(m), "--n", "3", "--j", "2",
                        "--format", "json"])
        for route in ("numeric", "claimed"):
            blob = json.loads(Path(f"density_{route}.json").read_text())
            assert blob["normalization_error"] < bound, (route, blob["normalization_error"])


def test_density_of_a_mid_rank_at_large_n_exits_zero(runner):
    # the coefficient n!/((j-2)!(n-j)!) used to overflow a float: an
    # OverflowError, exit 1, the code that means "discordant".  Five points
    # on the default [0, 11.8] cannot resolve a law of scale 1/376, so the
    # mass is checked on a grid that does
    with runner.isolated_filesystem():
        args = ["density", "--m", "2", "--n", "1200", "--j", "600", "--format", "json"]
        assert runner.invoke(main, args + ["--points", "5"]).exit_code == 0
        assert runner.invoke(main, args + ["--ymax", "0.06", "--points", "2001"]).exit_code == 0
        blob = json.loads(Path("density_numeric.json").read_text())
        assert blob["normalization_error"] < 1e-4
        assert blob["f"][0] == pytest.approx(376.24, rel=1e-4)


def test_density_numeric_route_matches_claimed_at_m1(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, [
            "density", "--m", "1", "--n", "3", "--j", "2", "--which", "numeric",
            "--points", "9", "--ymax", "4", "--tol", "1e-9",
        ])
        assert result.exit_code == 0
        ys, fs = read_curve("density_numeric.csv")
        expected = spacing_law(3, 2, 1.0, "claimed").pdf(ys)
        assert np.max(np.abs(fs - expected)) < 1e-6


def test_density_json_format(runner):
    with runner.isolated_filesystem():
        invoke(runner, ["density", "--m", "2", "--which", "exact",
                        "--points", "21", "--format", "json"])
        blob = json.loads(Path("density_exact.json").read_text())
        assert set(blob) == {"y", "f", "normalization_error", "meta"}
        assert blob["meta"]["curve"] == "exact"
        assert len(blob["y"]) == len(blob["f"]) == 21


def test_simulate_spacing_reruns_byte_identical(runner):
    args = ["simulate", "--n", "2", "--m", "2", "--j", "2",
            "--reps", "500", "--seed", "9"]
    with runner.isolated_filesystem():
        invoke(runner, args + ["--output", "a"])
        invoke(runner, args + ["--output", "b"])
        invoke(runner, args + ["--output", "c", "--workers", "4"])
        a = Path("a.csv").read_bytes()
        assert a == Path("b.csv").read_bytes()
        assert a == Path("c.csv").read_bytes()
        man_a = json.loads(Path("a.manifest.json").read_text())
        man_b = json.loads(Path("b.manifest.json").read_text())
        del man_a["timestamp"], man_b["timestamp"]
        man_a["parameters"].pop("output")
        man_b["parameters"].pop("output")
        assert man_a == man_b


def test_simulate_statistic_with_histogram(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, [
            "simulate", "--n", "5", "--m", "1", "--stat", "zk", "--k", "2",
            "--reps", "400", "--seed", "3", "--bins", "10",
        ])
        assert result.exit_code == 0
        text = Path("simulate.csv").read_text()
        assert "# statistic: zk" in text
        values = [float(v) for v in text.split("value\n", 1)[1].split()]
        assert len(values) == 400
        assert all(0 < v <= 1 for v in values)
        hist_lines = Path("simulate_hist.csv").read_text().splitlines()
        header_at = next(i for i, ln in enumerate(hist_lines)
                         if not ln.startswith("#"))
        assert hist_lines[header_at] == "bin_lo,bin_hi,density"
        assert len(hist_lines) - header_at - 1 == 10


def test_simulate_json_format(runner):
    with runner.isolated_filesystem():
        invoke(runner, ["simulate", "--n", "3", "--m", "1.5", "--j", "2",
                        "--reps", "50", "--seed", "4", "--format", "json"])
        blob = json.loads(Path("simulate.json").read_text())
        assert blob["statistic"] == "y2"
        assert blob["config"]["reps"] == 50
        assert len(blob["values"]) == 50


def test_simulate_bad_bins_writes_nothing(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["simulate", "--n", "3", "--m", "1", "--j", "2",
                                      "--reps", "10", "--seed", "0", "--bins", "0"])
        assert result.exit_code == 2
        assert list(Path(".").iterdir()) == []


def test_simulate_underflowing_shape_exits_two(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["simulate", "--n", "5", "--m", "1e-7", "--stat",
                                      "zk", "--k", "1", "--reps", "100", "--seed", "1"])
        assert result.exit_code == 2
        assert "degenerate" in result.output
        assert list(Path(".").iterdir()) == []


def test_simulate_spacing_at_an_underflowing_shape_keeps_zero_spacings(runner):
    # most Gamma(1e-5) pairs underflow to two zeros: a spacing of 0, kept
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["simulate", "--n", "2", "--m", "1e-5", "--j", "2",
                                      "--reps", "1000", "--seed", "1"])
        assert result.exit_code == 0, result.output
        lines = Path("simulate.csv").read_text().splitlines()
        values = np.array([float(x) for x in lines[lines.index("value") + 1:]])
        assert values.shape == (1000,)
        assert np.all(np.isfinite(values) & (values >= 0.0))


def test_simulate_huge_shape_names_equal_draws(runner):
    # at huge m the n draws of a row agree to the last ulp; they do not
    # underflow
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["simulate", "--n", "5", "--m", "1e300", "--stat",
                                      "zk", "--k", "1", "--reps", "10", "--seed", "1"])
        assert result.exit_code == 2
        assert "degenerate" in result.output and "came out equal" in result.output
        assert "underflow" not in result.output


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "2", "--m", "2", "--j", "2", "--sigma", "1e308"],
    ["power", "--n", "5", "--m", "50", "--k", "1", "--b", "1e307"],
], ids=lambda args: args[0])
def test_overflowing_draws_exit_two(runner, command):
    with runner.isolated_filesystem():
        result = runner.invoke(main, command + ["--reps", "10", "--seed", "1"])
        assert result.exit_code == 2
        assert "overflow to inf" in result.output
        assert "Traceback" not in result.output
        assert list(Path(".").iterdir()) == []


_STATISTIC_RUNS = {  # id: (n, arguments besides --k)
    "simulate": (4, ["simulate", "--n", "4", "--m", "1", "--stat", "zk"]),
    "simulate-n2": (2, ["simulate", "--n", "2", "--m", "1", "--stat", "dk"]),
    "critical-values": (4, ["critical-values", "--n", "4", "--m", "1"]),
    "test": (4, ["test", "data.txt", "--m", "1"]),
    "power": (4, ["power", "--n", "4", "--m", "1", "--b", "1,2"]),
}


@pytest.mark.parametrize(
    "n, command, k",
    [pytest.param(n, args, n - 1, id=name) for name, (n, args) in _STATISTIC_RUNS.items()]
    + [pytest.param(n, args, 0, id=f"{name}-k0") for name, (n, args) in _STATISTIC_RUNS.items()])
def test_statistic_runs_reject_k_of_n_minus_one(runner, n, command, k):
    # at k = n-1 both statistics are identically 1: no run can reject.
    # SimulationConfig rejects it, and k = 0, with its own message.
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.0\n2.0\n3.0\n9.0\n")
        result = runner.invoke(main, command + ["--k", str(k), "--reps", "10", "--seed", "1"])
        assert result.exit_code == 2
        assert f"Error: k must satisfy 1 <= k <= n-2 = {n - 2} " in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in Path(".").iterdir()) == ["data.txt"]


def test_commands_import_no_scipy_beyond_special(tmp_path):
    # scipy.special is the only scipy module the package imports:
    # integrate and interpolate (and the optimize, linalg and sparse
    # modules they pull in) stay unloaded through numeric runs too
    script = """
import json, sys
import gammaspacings.cli as cli
for args in (["density", "--m", "2.5", "--n", "4", "--j", "3", "--which", "numeric"],
             ["validate", "--m", "2.5", "--n", "4", "--j", "3", "--reps", "2000",
              "--seed", "1"]):
    cli.main.main(args=args, standalone_mode=False)
banned = ("integrate", "interpolate", "optimize", "linalg", "sparse")
print(json.dumps([name for name in sys.modules if name.startswith("scipy.")
                  and name.split(".")[1] in banned]))
print("scipy.special" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    *_, loaded, special = done.stdout.splitlines()
    assert json.loads(loaded) == []
    assert special == "True"
    assert (tmp_path / "density_numeric.csv").exists() and (tmp_path / "validate.json").exists()


def test_simulate_usage_errors(runner):
    base = ["simulate", "--n", "3", "--m", "1", "--reps", "10", "--seed", "0"]
    assert runner.invoke(main, base).exit_code == 2  # neither --j nor --stat
    assert runner.invoke(main, base + ["--j", "2", "--stat", "zk", "--k", "1"]).exit_code == 2
    assert runner.invoke(main, base + ["--stat", "zk"]).exit_code == 2  # no --k
    assert runner.invoke(main, base + ["--j", "2", "--k", "1"]).exit_code == 2
    assert runner.invoke(main, base + ["--j", "4"]).exit_code == 2  # j > n
    assert runner.invoke(main, base + ["--stat", "zk", "--k", "3"]).exit_code == 2


def test_validate_rejects_claim_only_beyond_unit_shape(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, ["validate", "--m", "1,3", "--reps", "2000",
                                 "--seed", "2024"])
        assert result.exit_code == 0
        report = json.loads(Path("validate.json").read_text())
        by_m = {row["m"]: row for row in report["rows"]}
        assert by_m[1.0]["truth_route"] == "exact"
        assert by_m[1.0]["claimed_rejected"] is False
        assert by_m[3.0]["claimed_rejected"] is True
        assert by_m[1.0]["truth_p"] > 0.05
        assert by_m[3.0]["truth_p"] > 0.05
        assert by_m[3.0]["claimed_p"] < 1e-6
        assert "claim rejected" in result.output
        assert "claim consistent" in result.output


def test_validate_numeric_route_below_unit_shape(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, ["validate", "--m", "0.5,0.3", "--n", "3", "--j", "2",
                                 "--reps", "20000", "--seed", "1"])
        assert result.exit_code == 0
        rows = json.loads(Path("validate.json").read_text())["rows"]
        assert [row["m"] for row in rows] == [0.5, 0.3]
        for row in rows:
            assert row["truth_route"] == "numeric"
            assert row["truth_p"] >= 1e-3
            assert row["claimed_p"] < 1e-6


def test_validate_keeps_the_exponential_law_at_large_n(runner):
    # the numeric law used to read 0 here, so the true law was rejected
    # (truth_p 0) while the claimed law, exact at m = 1, passed
    with runner.isolated_filesystem():
        result = invoke(runner, ["validate", "--m", "1", "--n", "1100", "--j", "2",
                                 "--reps", "2000", "--seed", "1"])
        assert result.exit_code == 0
        row = json.loads(Path("validate.json").read_text())["rows"][0]
        assert row["truth_route"] == "numeric"
        assert row["truth_p"] >= 0.01


def test_validate_below_the_measured_shapes_exits_two(runner):
    # at m = 0.001 the numeric cdf of Y_2 does not converge; the run must
    # say so and write no file, not pass an unchecked reference on
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["validate", "--m", "0.001", "--n", "2", "--j", "2",
                                      "--reps", "2000", "--seed", "1"])
        assert result.exit_code == 2
        assert "did not converge" in result.output
        assert "Traceback" not in result.output
        assert list(Path(".").iterdir()) == []


def test_validate_on_an_all_zero_sample_exits_two(runner):
    # Gamma(0.001) draws underflow, so every simulated Y_2 is 0; the KS
    # test must not reject the true law on them (it read truth_p 0, exit 0)
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["validate", "--m", "0.001", "--n", "100", "--j", "2",
                                      "--reps", "2000", "--seed", "1"])
        assert result.exit_code == 2
        assert "Error: every simulated Y_2 is 0 at m=0.001, n=100" in result.output
        assert "Traceback" not in result.output and "truth" not in result.output
        assert list(Path(".").iterdir()) == []
        # simulate keeps the same zero spacings
        result = runner.invoke(main, ["simulate", "--m", "0.001", "--n", "100", "--j", "2",
                                      "--reps", "2000", "--seed", "1", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(Path("simulate.json").read_text())["values"] == [0.0] * 2000


# (--m, n, j): the numeric route, the exact route, a shape below 1 whose
# smallest spacings fall below the cdf table's first interior node, and two shapes
VALIDATE_CASES = {
    "numeric": ("2.5", 4, 3),
    "exact": ("3", 2, 2),
    "below-unit-shape": ("0.5", 3, 2),
    "two-shapes": ("2.5,1", 4, 3),
}


@functools.cache
def _serial_validate(m_list, n, j, reps, seed, alpha=0.05):
    """validate's rows from library calls, one stage after another."""
    rows = []
    for m in map(float, m_list.split(",")):
        values = simulate_spacing(SimulationConfig(n=n, m=m, reps=reps, seed=seed), j).values
        truth = spacing_law(n, j, m)
        ks_truth = ks_test(values, truth.cdf)
        ks_claim = ks_test(values, spacing_law(n, j, m, "claimed").cdf)
        rows.append({"m": m, "truth_route": truth.route,
                     "truth_d": ks_truth.statistic, "truth_p": ks_truth.p_value,
                     "claimed_d": ks_claim.statistic, "claimed_p": ks_claim.p_value,
                     "claimed_rejected": ks_claim.p_value < alpha})
    return rows


def test_validate_below_unit_shape_case_reaches_below_the_first_table_node():
    # that case's smallest values take the direct quadrature, not the table
    m_list, n, j = VALIDATE_CASES["below-unit-shape"]
    m = float(m_list)
    first = 2.0 * float(gamma_quantile(1.0 - 1e-8, GammaParams(m, 1.0))) / (CDF_NODES - 1) ** 3
    values = simulate_spacing(SimulationConfig(n=n, m=m, reps=10000, seed=3), j).values
    assert np.count_nonzero((values > 0.0) & (values < first)) >= 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_file_is_the_serial_library_result(runner, case, workers):
    # the table build and the claimed-law KS run on a side thread; the
    # file must hold what the stages give one after another, byte for byte
    m_list, n, j = VALIDATE_CASES[case]
    rows = _serial_validate(m_list, n, j, 10000, 3)
    params = {"m": m_list, "n": n, "j": j, "reps": 10000, "seed": 3, "alpha": 0.05,
              "output": "validate"}
    with runner.isolated_filesystem():
        result = invoke(runner, ["validate", "--m", m_list, "--n", str(n), "--j", str(j),
                                 "--reps", "10000", "--seed", "3", "--workers", str(workers)])
        assert result.exit_code == 0
        text = Path("validate.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert [list(row) for row in doc["rows"]] == [list(row) for row in rows]
    assert doc["rows"] == rows
    assert text == json.dumps({"subcommand": "validate", "parameters": params, "rows": rows},
                              indent=2) + "\n"


def test_validate_raises_the_all_zero_sample_before_a_failed_table(runner, monkeypatch):
    # the table's failure on the side thread must not overtake the
    # sample's, which a serial run meets first
    built = []

    def fail(*args, **kwargs):
        built.append(args)
        raise QuadratureError("the table build failed")

    monkeypatch.setattr(spacings, "spacing_cdf_numeric", fail)
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["validate", "--m", "0.001", "--n", "100", "--j", "2",
                                      "--reps", "2000", "--seed", "1"])
        assert result.exit_code == 2
        assert "Error: every simulated Y_2 is 0 at m=0.001, n=100" in result.output
        assert "table build failed" not in result.output and "Traceback" not in result.output
        assert list(Path(".").iterdir()) == []
    assert built  # the table was built, and failed


def test_validate_usage_validation(runner):
    assert runner.invoke(main, ["validate", "--m", "1,x", "--seed", "0"]).exit_code == 2
    assert runner.invoke(main, ["validate", "--alpha", "1.5", "--seed", "0"]).exit_code == 2


def test_critical_values_table(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, [
            "critical-values", "--n", "5", "--m", "1", "--k", "1",
            "--alpha", "0.01,0.05,0.1", "--reps", "2000", "--seed", "11",
        ])
        assert result.exit_code == 0
        lines = [ln for ln in Path("critical_values.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "alpha,critical_value"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert [a for a, _ in rows] == [0.01, 0.05, 0.1]
        crits = [c for _, c in rows]
        assert crits[0] >= crits[1] >= crits[2]  # upper tail shrinks with alpha
        assert all(0 < c <= 1 for c in crits)


def test_critical_values_below_the_smallest_p_value_are_infinite(runner):
    # with 10 null values no p-value is below 1/11, so at 0.01 and 0.05 no
    # statistic can exceed the critical value
    args = ["critical-values", "--n", "5", "--m", "1", "--k", "1", "--reps", "10",
            "--seed", "3", "--alpha", "0.01,0.05,0.1"]
    expected = [math.inf, math.inf, 0.5462768461123512]
    with runner.isolated_filesystem():
        assert invoke(runner, args).exit_code == 0
        rows = [ln.split(",") for ln in Path("critical_values.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert [float(c) for _, c in rows] == expected
        assert invoke(runner, args + ["--format", "json"]).exit_code == 0
        text = Path("critical_values.json").read_text()
        assert text.count("Infinity") == 2
        assert [row["critical_value"] for row in json.loads(text)["rows"]] == expected


def test_discordancy_test_flags_planted_outlier(runner):
    with runner.isolated_filesystem():
        Path("data.txt").write_text(
            "# five observations\n1.1\n0.9\n1.0\n\n1.2\n50.0\n"
        )
        result = runner.invoke(main, [
            "test", "data.txt", "--k", "1", "--m", "1",
            "--reps", "2000", "--seed", "7", "--output", "report",
        ])
        assert result.exit_code == 1
        report = json.loads(Path("report.json").read_text())
        assert report["decision"] == "discordant"
        assert report["statistic"] > report["critical_value"]
        assert report["p_value"] < 0.05
        assert report["config"]["n"] == 5
        assert Path("report.manifest.json").exists()


def test_discordancy_test_clean_sample_exits_zero(runner):
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.1\n0.9\n1.0\n1.2\n1.3\n")
        result = runner.invoke(main, [
            "test", "data.txt", "--k", "1", "--m", "1",
            "--reps", "2000", "--seed", "7",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["decision"] == "not discordant"


def _data_with_z1(t):
    """Five observations whose z_1 is ``t``: 1, 2, 3, 4 and a top value
    whose gap g gives z_1 = g / (9 + g)."""
    return "1\n2\n3\n4\n" + repr(4.0 + 9.0 * t / (1.0 - t)) + "\n"


def test_discordancy_decision_agrees_with_its_critical_value(runner):
    # an observation between the 95th and 96th of 100 null values has the
    # add-one p-value 6/101 > 0.05, and it stays below the reported 0.05
    # critical value, the 96th value
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=100, seed=7, k=1), "zk")
    observed = float(null.values[94:96].mean())
    with runner.isolated_filesystem():
        Path("data.txt").write_text(_data_with_z1(observed))
        result = runner.invoke(main, ["test", "data.txt", "--k", "1", "--m", "1",
                                      "--reps", "100", "--seed", "7"])
        report = json.loads(result.output)
        assert report["statistic"] < report["critical_value"] == null.values[95]
        assert report["p_value"] == 6 / 101
        assert report["decision"] == "not discordant" and result.exit_code == 0


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.01, 0.99), alpha=st.floats(0.005, 0.5), seed=st.integers(0, 2**32))
def test_discordancy_decision_holds_iff_p_at_most_alpha(t, alpha, seed):
    with CliRunner().isolated_filesystem():
        Path("data.txt").write_text(_data_with_z1(t))
        result = CliRunner().invoke(main, ["test", "data.txt", "--k", "1", "--m", "1",
                                           "--alpha", repr(alpha), "--reps", "60",
                                           "--seed", str(seed)])
        report = json.loads(result.output)
        discordant = report["p_value"] <= alpha
        assert (report["statistic"] > report["critical_value"]) == discordant
        assert report["decision"] == ("discordant" if discordant else "not discordant")
        assert result.exit_code == int(discordant)


def test_discordancy_test_error_paths(runner):
    with runner.isolated_filesystem():
        Path("flat.txt").write_text("5.0\n5.0\n5.0\n")
        base = ["--m", "1", "--reps", "100", "--seed", "1"]
        result = runner.invoke(main, ["test", "flat.txt", "--k", "1"] + base)
        assert result.exit_code == 2  # degenerate sample
        result = runner.invoke(main, ["test", "flat.txt", "--k", "3"] + base)
        assert result.exit_code == 2  # k = n
        Path("bad.txt").write_text("1.0\ntwo\n3.0\n")
        result = runner.invoke(main, ["test", "bad.txt", "--k", "1"] + base)
        assert result.exit_code == 2  # parse error
        result = runner.invoke(main, ["test", "missing.txt", "--k", "1"] + base)
        assert result.exit_code == 2  # no such file
        Path("short.txt").write_text("1.0\n")
        result = runner.invoke(main, ["test", "short.txt", "--k", "1"] + base)
        assert result.exit_code == 2  # not enough observations


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_discordancy_test_rejects_non_finite_data(runner, bad):
    with runner.isolated_filesystem():
        Path("data.txt").write_text(f"1.0\n2.0\n{bad}\n3.0\n")
        result = runner.invoke(main, ["test", "data.txt", "--k", "1", "--m", "1",
                                      "--reps", "100", "--seed", "1"])
        assert result.exit_code == 2
        assert "data.txt:3:" in result.output


def test_discordancy_test_unreadable_datafile_exits_two(runner, monkeypatch):
    base = ["--k", "1", "--m", "2", "--reps", "100", "--seed", "1"]
    with runner.isolated_filesystem():
        Path("data.txt").write_bytes(b"1\n2\n3\n4\n5\n6\n\xff")
        result = runner.invoke(main, ["test", "data.txt"] + base)
        assert result.exit_code == 2, result.output
        assert "cannot read data.txt" in result.output and "decode" in result.output

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", refuse)
        result = runner.invoke(main, ["test", "data.txt"] + base)
        assert result.exit_code == 2, result.output
        assert "cannot read data.txt: Permission denied" in result.output


_NUMERIC_LINE = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "# note", " 2.5 ", "1e308", "1.7e308", "5e-324", "0", "-0.0",
                     "1_000", "\t7\t", "0x10", "1e400"]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=64),
                      st.lists(_NUMERIC_LINE, max_size=10).map(
                          lambda lines: "\n".join(lines).encode())),
       k=st.integers(1, 3), stat=st.sampled_from(["zk", "dk"]))
def test_discordancy_test_survives_any_datafile(data, k, stat):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("data.txt").write_bytes(data)
        result = runner.invoke(main, ["test", "data.txt", "--k", str(k), "--m", "2",
                                      "--stat", stat, "--reps", "30", "--seed", "1"])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        data, result.exception)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    if result.exit_code != 2:
        decision = json.loads(result.stdout)["decision"]
        assert decision == ("discordant" if result.exit_code == 1 else "not discordant")


def test_discordancy_test_rejects_values_outside_gamma_support(runner):
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1\n-2\n0\n3\n9\n")
        result = runner.invoke(main, ["test", "data.txt", "--k", "1", "--m", "1",
                                      "--reps", "100", "--seed", "1"])
        assert result.exit_code == 2
        assert "data.txt:2:" in result.output and "x > 0" in result.output


def test_power_sweep_null_row_near_alpha(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, [
            "power", "--n", "5", "--m", "1", "--k", "1", "--b", "1,8",
            "--alpha", "0.05", "--reps", "2000", "--seed", "21",
        ])
        assert result.exit_code == 0
        lines = [ln for ln in Path("power.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "b,power,se"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0][0] == 1.0 and rows[1][0] == 8.0
        assert abs(rows[0][1] - 0.05) < 3 * (0.05 * 0.95 / 2000) ** 0.5
        assert rows[1][1] > rows[0][1]


def test_power_rejects_contraction(runner):
    with runner.isolated_filesystem():
        for b in ["0.5", "nan", "inf", "1,-inf"]:
            result = runner.invoke(main, ["power", "--n", "5", "--m", "1", "--k", "1",
                                          "--b", b, "--seed", "1"])
            assert result.exit_code == 2, b
            assert "slippage factors must be a non-empty list of finite values >= 1" in (
                result.output)
            assert list(Path(".").iterdir()) == []


def test_discordancy_test_near_overflow_matches_rescaled_data(runner):
    # the weighted spacings of the first file overflow without the row
    # rescaling, which used to report z_1 = 0 and p = 1
    with runner.isolated_filesystem():
        Path("big.txt").write_text("1e308\n1.7e308\n1e-300\n")
        Path("small.txt").write_text(f"{1e308 * 2.0**-1000!r}\n{1.7e308 * 2.0**-1000!r}\n"
                                     "1e-300\n")
        reports = []
        for name in ("big.txt", "small.txt"):
            result = runner.invoke(main, ["test", name, "--k", "1", "--m", "1",
                                          "--reps", "300", "--seed", "5"])
            assert result.exit_code == 0
            reports.append(json.loads(result.output))
        assert reports[0] == reports[1]
        assert reports[0]["statistic"] == 7.0 / 27.0 and reports[0]["p_value"] < 1.0


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(1.0, 2.0**64), min_size=3, max_size=8),
       stat=st.sampled_from(["zk", "dk"]), data=st.data())
def test_discordancy_test_is_invariant_under_power_of_two_scaling(values, stat, data):
    # from just above the subnormal range (every spacing stays normal) up
    # to the largest power that keeps the maximum finite, which covers
    # the band where the statistics rescale rows near overflow
    e_lo = -961 - math.frexp(min(values))[1]
    e_hi = 1024 - math.frexp(max(values))[1]
    assert math.ldexp(min(values), e_lo) >= np.finfo(float).tiny * 2.0**60
    assert math.isfinite(math.ldexp(max(values), e_hi))
    e = data.draw(st.one_of(st.sampled_from([e_lo, e_hi]), st.integers(e_lo, e_hi)))
    k = data.draw(st.integers(1, len(values) - 2))
    runner = CliRunner()
    results = []
    with runner.isolated_filesystem():
        for scale in (0, e):
            Path("data.txt").write_text("".join(f"{math.ldexp(v, scale)!r}\n" for v in values))
            result = runner.invoke(main, ["test", "data.txt", "--k", str(k), "--m", "2",
                                          "--stat", stat, "--reps", "60", "--seed", "3"])
            assert result.exit_code in (0, 1, 2), result.output
            results.append((result.exit_code, result.output))
    assert results[0] == results[1]


C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _run_cli(cwd, args, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "gammaspacings.cli", *args], cwd=cwd,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src, **env})


def test_discordancy_test_reads_a_utf8_datafile_in_the_c_locale(tmp_path):
    (tmp_path / "cafe.txt").write_bytes("# café\n1.0\n2.0\n3.5\n9.0\n".encode())
    args = ["test", "cafe.txt", "--k", "1", "--m", "2", "--reps", "200", "--seed", "1"]
    utf8 = _run_cli(tmp_path, args, PYTHONUTF8="1")
    c = _run_cli(tmp_path, args, **C_LOCALE)
    assert utf8.returncode in (0, 1), utf8.stderr
    assert (c.returncode, c.stdout, c.stderr) == (utf8.returncode, utf8.stdout, b"")


def test_density_output_stem_in_the_c_locale_writes_the_utf8_locale_files(tmp_path):
    # the C locale decodes the stem's UTF-8 bytes to lone surrogates; its
    # text in CSV comments and JSON fields comes from those bytes, so both
    # locales write the same files, but for the manifest's timestamp
    written = {}
    for locale, env in (("c", C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        (tmp_path / locale).mkdir()
        for fmt in ("csv", "json"):
            done = _run_cli(tmp_path / locale, ["density", "--m", "2", "--points", "5",
                                                "--format", fmt, "--output", f"café-{fmt}"],
                            **env)
            assert done.returncode == 0, done.stderr
            assert done.stdout == "".join(f"wrote café-{fmt}{end}\n" for end in (
                f"_exact.{fmt}", f"_claimed.{fmt}", ".manifest.json")).encode()
        written[locale] = {path.name: [line for line in path.read_bytes().splitlines()
                                       if b'"timestamp"' not in line]
                           for path in (tmp_path / locale).iterdir()}
    assert written["c"] == written["utf8"]
    assert sorted(written["c"]) == sorted(f"café-{fmt}{end}" for fmt in ("csv", "json")
                                          for end in ("_exact." + fmt, "_claimed." + fmt,
                                                      ".manifest.json"))
    assert "# output: café-csv".encode() in written["c"]["café-csv_exact.csv"]
    for name, key in (("café-json_exact.json", "meta"), ("café-json.manifest.json", "parameters")):
        doc = json.loads((tmp_path / "c" / name).read_text(encoding="utf-8"))
        assert doc[key]["output"] == "café-json"


def test_output_stem_with_an_undecodable_byte_exits_two(tmp_path):
    # the stem is checked before any work: no result table, no file
    for command in (["density", "--m", "2", "--points", "5"],
                    ["validate", "--m", "2", "--reps", "200", "--seed", "1"]):
        done = _run_cli(tmp_path, [*command, "--output", b"x\xff"], PYTHONUTF8="1")
        assert done.returncode == 2
        assert done.stderr.startswith(b"Error: cannot write x") and b"Traceback" not in done.stderr
        assert done.stdout == b""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["density", "--m", "2"],
    ["test", "data.txt", "--k", "1", "--m", "1", "--reps", "100", "--seed", "1"],
], ids=lambda args: args[0])
def test_write_failure_exits_two(runner, command):
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.1\n0.9\n1.0\n1.2\n50.0\n")
        result = runner.invoke(main, command + ["--output", "nodir/x"])
        assert result.exit_code == 2
        assert "cannot write nodir/x" in result.output


def test_a_directory_in_the_way_leaves_the_whole_file_set_as_it_was(runner):
    # x_claimed.csv is a directory: the run exits 2 before the first file
    # is renamed into place, so x_exact.csv is neither written nor replaced
    args = ["density", "--m", "2", "--points", "5", "--output", "x"]
    with runner.isolated_filesystem():
        Path("x_claimed.csv").mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Error: cannot write x_claimed.csv: Is a directory" in result.output
        assert "wrote" not in result.output
        assert [p.name for p in Path(".").rglob("*")] == ["x_claimed.csv"]
        Path("x_exact.csv").write_bytes(b"y,f\n0.0,0.5\n")
        assert runner.invoke(main, args).exit_code == 2
        assert Path("x_exact.csv").read_bytes() == b"y,f\n0.0,0.5\n"
        assert sorted(p.name for p in Path(".").rglob("*")) == ["x_claimed.csv", "x_exact.csv"]


def test_write_goes_through_a_symlink(tmp_path):
    # the temporary file replaces the symlink's target, not the symlink
    (tmp_path / "data").mkdir()
    link = tmp_path / "x.json"
    link.symlink_to(tmp_path / "data" / "x.json")
    cli._write(cli._File(link, doc={"a": 1}))
    assert link.is_symlink()
    assert (tmp_path / "data" / "x.json").read_text() == '{\n  "a": 1\n}\n'
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "x.json", "x.json"]


@pytest.mark.parametrize("rows", [1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK + 1])
@pytest.mark.parametrize("two_columns", [False, True], ids=["one-column", "two-columns"])
def test_csv_writer_blocks_render_every_row(tmp_path, rows, two_columns):
    # rows straddling the CHUNK boundaries, against a one-piece reference
    values = np.random.default_rng(rows).gamma(0.5, size=rows) * np.logspace(-300, 300, rows)
    columns = {"v": values}
    if two_columns:
        columns["w"] = (-values / 3).tolist()  # a list column, as ``power`` passes
    comments = {"statistic": "dk", "reps": rows}
    path = tmp_path / "out.csv"
    cli._write(cli._File(path, "csv", comments=comments, columns=columns))
    body = ["# statistic: dk", f"# reps: {rows}", ",".join(columns)] + [
        ",".join(repr(float(v)) for v in row) for row in zip(*columns.values())]
    assert path.read_bytes() == ("\n".join(body) + "\n").encode()


def _write_peak_mb(path, **kwargs):
    tracemalloc.start()
    try:
        cli._write(cli._File(path, **kwargs))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    # one whole-text rendering of these 2e5 rows peaks at about 22 MB
    values = np.sort(np.random.default_rng(5).random(200_000))
    csv_peak = _write_peak_mb(tmp_path / "x.csv", fmt="csv", comments={"a": 1},
                              columns={"value": values})
    json_peak = _write_peak_mb(tmp_path / "x.json", doc={"values": values})
    assert csv_peak < 2.0, f"CSV writer peaked at {csv_peak:.2f} MB"
    # the rest is the ``tolist()`` of the array that ``json`` encodes
    assert json_peak < 12.0, f"JSON writer peaked at {json_peak:.2f} MB"
    assert json.loads((tmp_path / "x.json").read_text())["values"] == values.tolist()


def test_csv_columns_of_unequal_length_raise(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=r"CSV columns differ in length: \{'a': 3, 'b': 2\}"):
        cli._write(cli._File(path, "csv", comments={}, columns={"a": [1.0, 2.0, 3.0],
                                                                "b": [1.0, 2.0]}))
    assert list(tmp_path.iterdir()) == []


def _rows_unlike_repr(*columns):
    # (rendered row, repr's row) wherever they differ; short to report on failure
    text = cli._csv_rows([np.asarray(col, dtype=float) for col in columns]).tobytes().decode()
    rows = [",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)]
    assert text.count("\n") == len(rows)
    return [(got, want) for got, want in zip(text.splitlines(keepends=True), rows) if got != want]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(1e-4, 2.0**53, exclude_max=True), min_size=1, max_size=40))
def test_csv_cells_are_repr_of_any_finite_float(values):
    assert _rows_unlike_repr(values) == []


def test_csv_cells_are_repr_at_the_rounding_edges():
    ties = 8 + np.arange(1, 2**16) / 2**16  # every 17th digit a 5: ties at 16 digits
    decades = [np.nextafter(10.0**e, side) for e in range(-6, 18) for side in (0, np.inf)]
    edges = [*(2.0**k for k in range(-20, 60)), *(10.0**e for e in range(-6, 18)),
             2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 5e-324, 2.2250738585072014e-308,
             0.0, math.inf, math.nan, 0.1, 0.3, 1 / 3, 123456.0, 1e15 + 0.5]
    values = np.concatenate([ties, decades, edges])
    values = np.concatenate([values, -values])
    assert _rows_unlike_repr(values) == []
    columns = (values, values[::-1] / 3, np.round(values * 1e3) / 7)
    assert _rows_unlike_repr(*columns) == []


def test_csv_renderer_calls_repr_only_outside_its_range(monkeypatch):
    called = []
    monkeypatch.setattr(cli, "repr", lambda v: called.append(v) or repr(v), raising=False)
    sample = np.random.default_rng(1).gamma(2.0, size=cli.CHUNK)
    assert _rows_unlike_repr(sample) == [] and called == []
    outside = [0.0, -0.0, math.inf, math.nan, 5e-324, 2.0, 1e16, 1e-5, -1e300]
    assert _rows_unlike_repr(outside + [1.5]) == []
    assert list(map(repr, called)) == list(map(repr, outside))


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "3", "--m", "1", "--j", "2"],
    ["validate", "--m", "2"],
    ["critical-values", "--n", "5", "--m", "1", "--k", "1"],
    ["test", "data.txt", "--k", "1", "--m", "1"],
    ["power", "--n", "5", "--m", "1", "--k", "1"],
], ids=lambda args: args[0])
def test_workers_below_one_exits_two(runner, command):
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.1\n0.9\n1.0\n1.2\n50.0\n")
        result = runner.invoke(main, command + ["--reps", "10", "--seed", "1",
                                                "--workers", "0"])
        assert result.exit_code == 2
        assert "Error: workers must be >= 1, got 0" in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in Path(".").iterdir()) == ["data.txt"]


@pytest.mark.parametrize("command, message", [
    (["density", "--m", "2", "--j", "3"], "j must satisfy 2 <= j <= n, got j=3, n=2"),
    (["simulate", "--n", "3", "--m", "2", "--j", "4", "--seed", "1"],
     "j must satisfy 2 <= j <= n, got j=4, n=3"),
    (["validate", "--n", "2", "--j", "3", "--seed", "1"],
     "j must satisfy 2 <= j <= n, got j=3, n=2"),
    (["critical-values", "--n", "5", "--m", "1", "--k", "1", "--alpha", "0.05,nan",
      "--seed", "1"], "alpha must be in (0, 1), got nan"),
    (["critical-values", "--n", "5", "--m", "1", "--k", "1", "--alpha", "1.5",
      "--seed", "1"], "alpha must be in (0, 1), got 1.5"),
    (["test", "data.txt", "--k", "1", "--m", "1", "--alpha", "nan", "--seed", "1"],
     "alpha must be in (0, 1), got nan"),
    *[(["power", "--n", "5", "--m", "1", "--k", "1", "--b", b, "--seed", "1"],
       f"slippage factors must be a non-empty list of finite values >= 1, got {shown}")
      for b, shown in [("0.5", "[0.5]"), ("nan", "[nan]"), ("inf", "[inf]"),
                       ("1,-inf", "[1.0, -inf]")]],
    (["power", "--n", "5", "--m", "1", "--k", "1", "--alpha", "0", "--seed", "1"],
     "alpha must be in (0, 1), got 0.0"),
    (["simulate", "--n", "3", "--m", "1", "--j", "2", "--bins", "0", "--seed", "1"],
     "bins must be >= 1, got 0"),
    (["validate", "--m", "2", "--alpha", "nan", "--seed", "1"],
     "alpha must be in (0, 1), got nan"),
], ids=["density-j", "simulate-j", "validate-j", "critical-values-alpha-nan",
        "critical-values-alpha-1.5", "test-alpha-nan", "power-b-0.5", "power-b-nan",
        "power-b-inf", "power-b-minus-inf", "power-alpha-0", "simulate-bins-0",
        "validate-alpha-nan"])
def test_rejected_input_exits_two_with_the_library_message(runner, command, message):
    # the library checks these inputs; the CLI's one error path maps the
    # ValueError to exit 2, and no file is written before it
    reps = [] if command[0] == "density" else ["--reps", "50"]
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.1\n0.9\n1.0\n1.2\n50.0\n")
        result = runner.invoke(main, command + reps)
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert sorted(p.name for p in Path(".").iterdir()) == ["data.txt"]


# Each ``_<command>_expected(fmt)`` recomputes a run in process and returns
# its manifest parameters and ``{file name: (comments, columns, json doc)}``.
def _stream_config(n, m, reps, seed, k=None, sigma=1.0):
    return {"n": n, "m": m, "sigma": sigma, "reps": reps, "seed": seed, "k": k}


def _density_expected(fmt):
    params = {"m": 2.5, "n": 3, "j": 2, "which": "all", "ymax": 4.0, "points": 5,
              "tol": 1e-9, "format": fmt, "output": "density"}
    files = {}
    for route in ("auto", "claimed"):
        law = spacing_law(3, 2, 2.5, route)
        curve = density_curve(law, 4.0, 5)
        meta = {**params, "curve": law.route}
        files[f"density_{law.route}.{fmt}"] = (
            {**meta, "normalization_error": curve.normalization_error},
            {"y": curve.grid, "f": curve.values},
            {"meta": meta, "y": curve.grid, "f": curve.values,
             "normalization_error": curve.normalization_error})
    return params, files


def _simulate_expected(fmt, j):
    if j is None:
        cfg = SimulationConfig(n=5, m=1.5, reps=60, seed=3, k=2)
        sample = simulate_statistic(cfg, "dk")
    else:
        cfg = SimulationConfig(n=4, m=0.7, reps=60, seed=6, sigma=2.0)
        sample = simulate_spacing(cfg, j)
    hist = histogram(sample.values, 4)
    config = _stream_config(cfg.n, cfg.m, cfg.reps, cfg.seed, cfg.k, cfg.sigma)
    params = {"n": cfg.n, "m": cfg.m, "sigma": cfg.sigma, "j": j,
              "stat": None if j else "dk", "k": cfg.k, "reps": 60, "seed": cfg.seed,
              "bins": 4, "format": fmt, "output": "simulate"}
    name = sample.statistic_name
    hist_meta = {"statistic": name, "n": cfg.n, "m": cfg.m, "sigma": cfg.sigma,
                 "reps": 60, "seed": cfg.seed, "bins": 4}
    return params, {
        f"simulate.{fmt}": (
            {"statistic": name, **config}, {"value": sample.values},
            {"statistic": name, "config": config, "values": sample.values}),
        f"simulate_hist.{fmt}": (
            hist_meta, {"bin_lo": hist.bin_edges[:-1], "bin_hi": hist.bin_edges[1:],
                        "density": hist.densities},
            {"statistic": name, "bin_edges": hist.bin_edges,
             "densities": hist.densities, "count": 60}),
    }


def _validate_expected(fmt):
    rows = []
    for m in (1.0, 2.5):
        sample = simulate_spacing(SimulationConfig(n=3, m=m, reps=300, seed=2), 3)
        truth, claim = spacing_law(3, 3, m), spacing_law(3, 3, m, "claimed")
        ks_truth, ks_claim = ks_test(sample.values, truth.cdf), ks_test(sample.values, claim.cdf)
        rows.append({"m": m, "truth_route": truth.route, "truth_d": ks_truth.statistic,
                     "truth_p": ks_truth.p_value, "claimed_d": ks_claim.statistic,
                     "claimed_p": ks_claim.p_value,
                     "claimed_rejected": bool(ks_claim.p_value < 0.05)})
    params = {"m": "1,2.5", "n": 3, "j": 3, "reps": 300, "seed": 2, "alpha": 0.05,
              "output": "validate"}
    return params, {"validate.json": (
        None, None, {"subcommand": "validate", "parameters": params, "rows": rows})}


def _critical_values_expected(fmt):
    sample = simulate_statistic(SimulationConfig(n=6, m=2.0, reps=300, seed=3, k=2), "zk")
    alphas = [0.01, 0.05, 0.1]
    crits = [critical_value(sample, a) for a in alphas]
    params = {"n": 6, "m": 2.0, "k": 2, "stat": "zk", "alpha": "0.01,0.05,0.1",
              "reps": 300, "seed": 3, "format": fmt, "output": "critical_values"}
    return params, {f"critical_values.{fmt}": (
        {"stat": "zk", "n": 6, "m": 2.0, "k": 2, "reps": 300, "seed": 3},
        {"alpha": alphas, "critical_value": crits},
        {"statistic": "zk", "config": _stream_config(6, 2.0, 300, 3, 2),
         "rows": [{"alpha": a, "critical_value": c} for a, c in zip(alphas, crits)]})}


def _power_expected(fmt):
    bs = [1.0, 3.0]
    powers = simulate_power(SimulationConfig(n=6, m=2.0, reps=300, seed=4, k=1), "zk", bs,
                            0.05)
    ses = [(p * (1.0 - p) / 300) ** 0.5 for p in powers]
    params = {"n": 6, "m": 2.0, "k": 1, "b": "1,3", "stat": "zk", "alpha": 0.05,
              "reps": 300, "seed": 4, "format": fmt, "output": "power"}
    return params, {f"power.{fmt}": (
        {"stat": "zk", "n": 6, "m": 2.0, "k": 1, "alpha": 0.05, "reps": 300, "seed": 4},
        {"b": bs, "power": powers, "se": ses},
        {"statistic": "zk", "config": _stream_config(6, 2.0, 300, 4, 1), "alpha": 0.05,
         "rows": [{"b": b, "power": p, "se": s} for b, p, s in zip(bs, powers, ses)]})}


def _test_expected(fmt):
    values = [1.1, 0.9, 1.0, 1.2, 50.0]
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=300, seed=7, k=1), "zk")
    observed = float(REDUCTIONS["zk"](np.sort(values)[np.newaxis], 1)[0])
    crit = critical_value(null, 0.05)
    config = {"stat": "zk", "n": 5, "m": 1.0, "k": 1, "reps": 300, "seed": 7}
    report = {"statistic": observed, "p_value": p_value(null, observed),
              "critical_value": crit, "alpha": 0.05,
              "decision": "discordant" if observed > crit else "not discordant",
              "config": config}
    params = {**config, "alpha": 0.05, "datafile": "data.txt", "output": "report"}
    return params, {"report.json": (None, None, report)}


_BOTH_FORMATS = [
    ("density", ["density", "--m", "2.5", "--n", "3", "--j", "2", "--ymax", "4",
                 "--points", "5"], _density_expected),
    ("simulate-stat", ["simulate", "--n", "5", "--m", "1.5", "--stat", "dk", "--k", "2",
                       "--reps", "60", "--seed", "3", "--bins", "4"],
     functools.partial(_simulate_expected, j=None)),
    ("simulate-spacing", ["simulate", "--n", "4", "--m", "0.7", "--j", "3", "--sigma", "2",
                          "--reps", "60", "--seed", "6", "--bins", "4"],
     functools.partial(_simulate_expected, j=3)),
    ("critical-values", ["critical-values", "--n", "6", "--m", "2", "--k", "2",
                         "--reps", "300", "--seed", "3"], _critical_values_expected),
    ("power", ["power", "--n", "6", "--m", "2", "--k", "1", "--b", "1,3",
               "--reps", "300", "--seed", "4"], _power_expected),
]
FORMAT_CASES = [
    pytest.param(args + ["--format", fmt], fmt, expected, id=f"{name}-{fmt}")
    for name, args, expected in _BOTH_FORMATS for fmt in ("csv", "json")
] + [
    pytest.param(["validate", "--m", "1,2.5", "--n", "3", "--j", "3", "--reps", "300",
                  "--seed", "2"], "json", _validate_expected, id="validate-json"),
    pytest.param(["test", "data.txt", "--k", "1", "--m", "1", "--reps", "300",
                  "--seed", "7", "--output", "report"], "json", _test_expected,
                 id="test-json"),
]


@pytest.mark.parametrize("args", [args for _, args, _ in _BOTH_FORMATS] + [
    ["validate", "--m", "1,2.5", "--n", "3", "--j", "3", "--reps", "300", "--seed", "2"],
], ids=[name for name, _, _ in _BOTH_FORMATS] + ["validate"])
def test_run_record_ignores_option_order_and_worker_count(runner, args):
    """The options typed in reverse order, with ``--workers 2`` where the
    command has it, give the same files, manifest text but ``timestamp``
    included: the record lists the declared options, not the typed ones."""
    command, pairs = args[0], list(zip(args[1::2], args[2::2]))
    workers = [] if command == "density" else ["--workers", "2"]
    reordered = [command, *workers, *[word for pair in pairs[::-1] for word in pair]]
    texts = []
    for argv in (args, reordered):
        with runner.isolated_filesystem():
            assert runner.invoke(main, argv).exit_code == 0
            texts.append({path.name: [line for line in path.read_text().splitlines()
                                      if '"timestamp"' not in line]
                          for path in Path(".").iterdir()})
    assert texts[0] == texts[1]


def _exact(value):
    """``value`` with arrays as lists, as parsed JSON holds them."""
    if isinstance(value, dict):
        return {key: _exact(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("args, fmt, expected", FORMAT_CASES)
def test_output_files_pin_format_and_round_trip(runner, args, fmt, expected):
    """Every file a command writes, in each ``--format``: the exact
    comment lines and CSV header, the JSON key order, and the values
    round-tripped exactly against the same computation in process."""
    command = args[0]
    params, files = expected(fmt)
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.1\n0.9\n1.0\n1.2\n50.0\n")
        result = runner.invoke(main, args)
        assert result.exit_code == (1 if command == "test" else 0), result.output
        stem = params["output"]
        written = sorted(files) + [f"{stem}.manifest.json"]
        assert sorted(p.name for p in Path(".").iterdir()) == sorted(written + ["data.txt"])
        for name, (comments, columns, doc) in files.items():
            text = Path(name).read_text()
            assert text.endswith("\n") and not text.endswith("\n\n")
            if name.endswith(".csv"):
                lines = text.splitlines()
                head = [f"# {key}: {value}" for key, value in comments.items()]
                assert lines[:len(head) + 1] == head + [",".join(columns)]
                body = [ln.split(",") for ln in lines[len(head) + 1:]]
                for i, values in enumerate(columns.values()):
                    assert [float(row[i]) for row in body] == np.asarray(values).tolist()
            else:
                blob = json.loads(text)
                assert list(blob) == list(doc)
                assert blob == _exact(doc)
        manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
        assert list(manifest) == ["subcommand", "parameters", "version",
                                  "stream_layout", "timestamp"]
        assert manifest["subcommand"] == command
        assert manifest["parameters"] == params
        assert manifest["stream_layout"] == STREAM_LAYOUT
        if command == "test":
            assert result.output == Path("report.json").read_text() + "".join(
                f"wrote {name}\n" for name in written)
