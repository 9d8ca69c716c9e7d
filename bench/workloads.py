"""The benchmark's workloads: CLI arguments, work units and output checks.

Each workload is one ``gammaspacings`` subcommand at a fixed reference
size.  Together they separate the two hot paths (the per-replication
Monte Carlo loop and pointwise adaptive quadrature) and the output
layer, so an optimisation of one can be measured on a workload that
runs it and shown not to move one that bypasses it.

The checks hold for any random-stream layout: they test laws and
invariants of the outputs, never particular simulated values, so a
change of the stream contract is not counted as a failure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALPHA = 0.05  # the CLI's default --alpha, used by power and validate
# Level at which the true law must survive the KS test.  At ALPHA a
# correct program would fail one seed in twenty; at 1e-4 the check still
# catches a reference cdf that is off by about 1e-2.
TRUTH_ALPHA = 1e-4
DENSITY_TOL = 1e-9  # the CLI's default --tol of density
ORACLE_POINTS = 4
ORACLE_DIGITS = 30


@dataclass(frozen=True)
class Workload:
    """One benchmarked CLI invocation.

    ``size`` is the workload's size knob (``--reps`` or ``--points``);
    one work unit is ``unit_size`` of it, so ``work_per_s`` reads in
    ``unit`` per second.  ``data_files`` must come out byte-identical
    in every invocation of a run, which uses one CLI seed throughout.
    """

    name: str
    why: str
    size: int
    unit_size: float
    unit: str
    build: Callable[[int, int], list]
    check: Callable[[Path, int, int, dict], list]
    data_files: tuple

    def argv(self, cli_seed: int) -> list:
        return [str(a) for a in self.build(self.size, cli_seed)]

    @property
    def work_units(self) -> float:
        return self.size / self.unit_size


def cli_seed(workload: str, seed: int) -> int:
    """The CLI's ``--seed``, derived from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2**32)


def read_csv(path: Path) -> dict:
    """Columns of a CSV written by the CLI (``#`` comment lines skipped)."""
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    columns = [[] for _ in header]
    for line in lines[1:]:
        for column, cell in zip(columns, line.split(",")):
            column.append(float(cell))
    return dict(zip(header, columns))


def _manifest_problems(outdir: Path, stem: str) -> list:
    path = outdir / f"{stem}.manifest.json"
    if not path.is_file():
        return [f"missing {path.name}"]
    try:
        json.loads(path.read_text())
    except ValueError as exc:
        return [f"{path.name} is not JSON: {exc}"]
    return []


def _checked(outdir: Path, stem: str, inspect) -> list:
    """Manifest check plus ``inspect()``, with unreadable outputs
    reported as problems instead of raised."""
    problems = _manifest_problems(outdir, stem)
    try:
        problems += inspect()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def check_power(outdir, reps, seed, cache):
    def inspect():
        table = read_csv(outdir / "power.csv")
        b, power = table["b"], table["power"]
        if b != [1.0, 2.0, 4.0]:
            return [f"b column is {b}"]
        problems = []
        if not power[0] < power[1] < power[2]:
            problems.append(f"power does not rise with b: {power}")
        # The b = 1 rate compares a fresh sample with a critical value
        # estimated from another sample of the same size, so its standard
        # error is that of a difference of two binomial proportions.
        se = math.sqrt(2.0 * ALPHA * (1.0 - ALPHA) / reps)
        if abs(power[0] - ALPHA) > 4.0 * se:
            problems.append(f"power at b=1 is {power[0]}, more than 4 SE ({se:.5f}) "
                            f"from alpha={ALPHA}")
        return problems

    return _checked(outdir, "power", inspect)


def check_sample(outdir, reps, seed, cache):
    def inspect():
        values = read_csv(outdir / "simulate.csv")["value"]
        problems = []
        if len(values) != reps:
            problems.append(f"{len(values)} values for reps={reps}")
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append("sample is not sorted")
        if values and not (0.0 <= values[0] and values[-1] <= 1.0):
            problems.append(f"d_k outside [0, 1]: [{values[0]}, {values[-1]}]")
        hist = read_csv(outdir / "simulate_hist.csv")
        area = sum(d * (hi - lo) for lo, hi, d in
                   zip(hist["bin_lo"], hist["bin_hi"], hist["density"]))
        if abs(area - 1.0) > 1e-9:
            problems.append(f"histogram area is {area!r}")
        return problems

    return _checked(outdir, "simulate", inspect)


def spacing_density_oracle(n: int, j: int, m: float, y: float) -> float:
    """Density of the spacing ``X_(j) - X_(j-1)`` of ``n`` iid
    ``Gamma(m, 1)`` draws at ``y``, by mpmath quadrature at 30 digits.

    Independent of the package: it integrates the joint density of two
    consecutive order statistics with mpmath's own incomplete gamma.
    """
    import mpmath as mp

    with mp.workdps(ORACLE_DIGITS):
        m, y = mp.mpf(m), mp.mpf(y)
        r, c = j - 2, n - j
        coef = mp.factorial(n) / (mp.factorial(r) * mp.factorial(c))

        def pdf(x):
            return mp.exp((m - 1) * mp.log(x) - x - mp.loggamma(m)) if x > 0 else mp.mpf(0)

        def integrand(x):
            value = pdf(x) * pdf(x + y)
            if r:
                value *= mp.gammainc(m, 0, x, regularized=True) ** r
            if c:
                value *= mp.gammainc(m, x + y, mp.inf, regularized=True) ** c
            return value

        return float(coef * mp.quad(integrand, [0, 1, 5, 20, mp.inf]))


DENSITY_CASE = {"m": 2.5, "n": 4, "j": 3}


def check_density(outdir, points, seed, cache):
    def inspect():
        curve = read_csv(outdir / "density_numeric.csv")
        ys, fs = curve["y"], curve["f"]
        problems = []
        if len(ys) != points:
            return [f"{len(ys)} density points for --points {points}"]
        if not all(math.isfinite(f) and f >= 0.0 for f in fs):
            problems.append("density values must be finite and >= 0")
        claimed = read_csv(outdir / "density_claimed.csv")
        if claimed["y"] != ys:
            problems.append("claimed and numeric curves use different grids")
        # Probes sit in the first quarter of the grid, where the density
        # carries its mass; an absolute error of 1e-8 is invisible in
        # the far tail, where the density itself is below that.
        rng = random.Random(seed)
        for i in sorted(rng.sample(range(points // 4), ORACLE_POINTS)):
            if ys[i] not in cache:
                cache[ys[i]] = spacing_density_oracle(y=ys[i], **DENSITY_CASE)
            error = abs(fs[i] - cache[ys[i]])
            if error > 10 * DENSITY_TOL:
                problems.append(f"f({ys[i]}) = {fs[i]!r}, oracle {cache[ys[i]]!r}, "
                                f"error {error:.3g} > 10 * tol")
        return problems

    return _checked(outdir, "density", inspect)


def check_validate(outdir, reps, seed, cache):
    def inspect():
        report = json.loads((outdir / "validate.json").read_text())
        rows = report["rows"]
        if len(rows) != 1 or rows[0]["m"] != DENSITY_CASE["m"]:
            return [f"expected one row for m={DENSITY_CASE['m']}, got {rows}"]
        row = rows[0]
        problems = []
        if not row["truth_p"] >= TRUTH_ALPHA:
            problems.append(f"true law rejected: p = {row['truth_p']!r} < {TRUTH_ALPHA}")
        if not (row["claimed_rejected"] and row["claimed_p"] < ALPHA):
            problems.append(f"claimed law not rejected: p = {row['claimed_p']!r}")
        return problems

    return _checked(outdir, "validate", inspect)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="discordancy_power",
        why="Monte Carlo hot loop on the 2-thread pool (null plus three slippage "
            "sweeps of z_k) with no quadrature and about 200 B of output",
        size=25_000, unit_size=25_000, unit="1e5 replications",
        build=lambda reps, seed: [
            "power", "--n", 10, "--m", 2, "--k", 1, "--stat", "zk", "--b", "1,2,4",
            "--reps", reps, "--workers", 2, "--seed", seed],
        check=check_power,
        data_files=("power.csv",),
    ),
    Workload(
        name="sample_write",
        why="single-threaded Monte Carlo of d_k that writes the whole sorted "
            "sample (about 1.9 MB CSV) and a histogram: the only visible output cost",
        size=100_000, unit_size=100_000, unit="1e5 replications",
        build=lambda reps, seed: [
            "simulate", "--n", 10, "--m", 2, "--stat", "dk", "--k", 2,
            "--reps", reps, "--bins", 50, "--seed", seed],
        check=check_sample,
        data_files=("simulate.csv", "simulate_hist.csv"),
    ),
    Workload(
        name="density_numeric",
        why="pointwise adaptive quadrature of the true spacing law on a "
            "2001-point grid and no Monte Carlo, checked against an mpmath oracle",
        size=2001, unit_size=2001, unit="2001 density points",
        build=lambda points, seed: [
            "density", "--m", DENSITY_CASE["m"], "--n", DENSITY_CASE["n"],
            "--j", DENSITY_CASE["j"], "--which", "all", "--points", points],
        check=check_density,
        data_files=("density_numeric.csv", "density_claimed.csv"),
    ),
    Workload(
        name="validate_numeric",
        why="the paper's refutation: 5e4 simulated spacings, a 2049-point "
            "quadrature reference cdf and two KS tests feed one result",
        size=50_000, unit_size=50_000, unit="5e4 replications",
        build=lambda reps, seed: [
            "validate", "--m", DENSITY_CASE["m"], "--n", DENSITY_CASE["n"],
            "--j", DENSITY_CASE["j"], "--reps", reps, "--seed", seed],
        check=check_validate,
        data_files=("validate.json",),
    ),
)}
