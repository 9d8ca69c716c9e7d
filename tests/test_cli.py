import functools
import json
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
    SlippageAlternative,
    claimed_pdf_yj,
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
from gammaspacings import cli
from gammaspacings.cli import main
from gammaspacings.montecarlo import STREAM_LAYOUT
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


def test_density_numeric_route_matches_claimed_at_m1(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, [
            "density", "--m", "1", "--n", "3", "--j", "2", "--which", "numeric",
            "--points", "9", "--ymax", "4", "--tol", "1e-9",
        ])
        assert result.exit_code == 0
        ys, fs = read_curve("density_numeric.csv")
        expected = claimed_pdf_yj(3, 2, 1.0, ys)
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


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "4", "--m", "1", "--stat", "zk", "--k", "3"],
    ["simulate", "--n", "2", "--m", "1", "--stat", "dk", "--k", "1"],
    ["critical-values", "--n", "4", "--m", "1", "--k", "3"],
    ["test", "data.txt", "--k", "3", "--m", "1"],
    ["power", "--n", "4", "--m", "1", "--k", "3", "--b", "1,2"],
], ids=["simulate", "simulate-n2", "critical-values", "test", "power"])
def test_statistic_runs_reject_k_of_n_minus_one(runner, command):
    # at k = n-1 both statistics are identically 1: no run can reject
    with runner.isolated_filesystem():
        Path("data.txt").write_text("1.0\n2.0\n3.0\n9.0\n")
        result = runner.invoke(main, command + ["--reps", "10", "--seed", "1"])
        assert result.exit_code == 2
        assert "k <= n-2" in result.output
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


def test_discordancy_decision_follows_the_p_value(runner):
    # an observation between the 95th and 96th of 100 null values exceeds
    # the 0.05 critical value, but its add-one p-value is 6/101 > 0.05
    null = simulate_statistic(SimulationConfig(n=5, m=1.0, reps=100, seed=7, k=1), "zk")
    observed = float(null.values[94:96].mean())
    with runner.isolated_filesystem():
        Path("data.txt").write_text(_data_with_z1(observed))
        result = runner.invoke(main, ["test", "data.txt", "--k", "1", "--m", "1",
                                      "--reps", "100", "--seed", "7"])
        report = json.loads(result.output)
        assert report["statistic"] > report["critical_value"] == null.values[94]
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
            assert "--b values must be finite and >= 1" in result.output
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
    cli._write(path, "csv", comments=comments, columns=columns)
    body = ["# statistic: dk", f"# reps: {rows}", ",".join(columns)] + [
        ",".join(repr(float(v)) for v in row) for row in zip(*columns.values())]
    assert path.read_bytes() == ("\n".join(body) + "\n").encode()


def _write_peak_mb(path, **kwargs):
    tracemalloc.start()
    try:
        cli._write(path, **kwargs)
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
        assert "--workers" in result.output
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
            meta, {"y": curve.grid, "f": curve.values},
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
    null = simulate_statistic(SimulationConfig(n=6, m=2.0, reps=300, seed=4, k=1), "zk")
    bs, powers = [1.0, 3.0], []
    for i, b in enumerate(bs):
        cfg = SimulationConfig(n=6, m=2.0, reps=300, seed=5 + i, k=1)
        powers.append(simulate_power(cfg, SlippageAlternative(b, 1), 0.05, null))
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
