"""Command-line interface.

Subcommands: ``density`` (tabulate spacing densities), ``simulate``
(empirical null samples), ``validate`` (KS check of the claimed spacing
law against the true one), ``critical-values``, ``test`` (discordancy
decision on a data file) and ``power`` (slippage power sweep).

Exit status: 0 on success ("not discordant" for ``test``); 1 when
``test`` finds the sample discordant; 2 on usage, parse, IO or numeric
errors.  All simulation commands require ``--seed``; data files written
with the same parameters and seed are byte-identical (timestamps live
only in the ``<output>.manifest.json`` sidecar).

Every file, manifests included, is rendered and written by ``_write``:
each command only assembles its comment dict, columns and JSON document.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .gamma import GammaParams, gamma_quantile
from .gof import histogram, ks_test
from .montecarlo import (
    STREAM_LAYOUT,
    DegenerateDrawError,
    NonFiniteDrawError,
    SimulationConfig,
    SlippageAlternative,
    critical_value,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
)
from .spacings import QuadratureError, density_curve, spacing_law
from .stats import REDUCTIONS, DegenerateSampleError


class CliError(click.ClickException):
    """Runtime failure (IO, parsing, numerics); exits with status 2."""

    exit_code = 2


CHUNK = 4096  # CSV rows rendered per write


def _write(path, fmt="json", doc=None, comments=None, columns=None):
    """Render one output file straight into ``path`` and echo its name.

    ``csv``: ``# key: value`` lines from ``comments``, a header of the
    ``columns`` names, then the rows, floats as shortest round-trip
    ``repr``, rendered and written ``CHUNK`` rows at a time.  ``json``:
    ``doc`` indented by 2, numpy arrays as lists, written by
    ``json.dump`` piece by piece as it is encoded.  Neither format holds
    the whole text in memory, so the writer's memory does not grow with
    the row count.  A failed open or write raises ``CliError`` (exit 2)
    naming the path.
    """
    try:
        with open(path, "w") as out:
            if fmt == "csv":
                out.writelines(f"# {key}: {value}\n" for key, value in comments.items())
                out.write(",".join(columns) + "\n")
                cols = [np.asarray(col, dtype=float) for col in columns.values()]
                for lo in range(0, min(map(len, cols)), CHUNK):
                    cells = [map(repr, col[lo:lo + CHUNK].tolist()) for col in cols]
                    out.write("\n".join(map(",".join, zip(*cells))) + "\n")
            else:
                json.dump(doc, out, indent=2, default=np.ndarray.tolist)
                out.write("\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")
    click.echo(f"wrote {path}")


def _write_manifest(stem, subcommand, parameters):
    _write(f"{stem}.manifest.json", doc={
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "stream_layout": STREAM_LAYOUT,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def _parse_float_list(text, flag):
    out = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise click.UsageError(f"{flag} expects comma-separated numbers, got {piece!r}")
    if not out:
        raise click.UsageError(f"{flag} must list at least one value")
    return out


def _check_stat_k(k, n):
    """Statistic runs need ``1 <= k <= n-2``: at ``k = n-1`` both z_k and
    d_k are identically 1, so the test could never reject."""
    if not 1 <= k <= n - 2:
        raise click.UsageError(f"--k must satisfy 1 <= k <= n-2 = {n - 2} for a statistic "
                               f"run (at k = n-1 the statistic is identically 1), got {k}")


def _config(**kwargs):
    try:
        return SimulationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DegenerateDrawError, DegenerateSampleError, NonFiniteDrawError,
                QuadratureError) as exc:
            raise CliError(str(exc))


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="gammaspacings")
def main():
    """Spacing laws of Gamma order statistics and discordancy tests."""


@main.command()
@click.option("--m", type=float, required=True, help="Gamma shape parameter.")
@click.option("--n", type=int, default=2, show_default=True, help="Sample size.")
@click.option("--j", type=int, default=2, show_default=True,
              help="Spacing index: Y_j = X_(j) - X_(j-1).")
@click.option("--which", type=click.Choice(["exact", "claimed", "numeric", "all"]),
              default="all", show_default=True,
              help="Curve(s) to tabulate. 'all' = the true density (exact "
                   "when n=j=2 and m is an integer >= 1, else numeric) plus "
                   "the claimed Gamma(m, 1/(n-j+1)) law.")
@click.option("--ymax", type=float, default=None,
              help="Grid endpoint [default: 0.9999 quantile of Gamma(m, 1)].")
@click.option("--points", type=int, default=201, show_default=True,
              help="Grid size.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Quadrature tolerance for the numeric route.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(), default="density", show_default=True,
              help="Output stem; one file per curve plus a manifest.")
def density(m, n, j, which, ymax, points, tol, fmt, output):
    """Tabulate spacing density curves on a uniform grid."""
    try:
        laws = [spacing_law(n, j, m, route, tol)
                for route in (["auto", "claimed"] if which == "all" else [which])]
        if ymax is None:
            ymax = math.ceil(float(gamma_quantile(0.9999, GammaParams(m, 1.0))) * 10) / 10
        curves = [density_curve(law, ymax, points) for law in laws]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    params = {"m": m, "n": n, "j": j, "which": which, "ymax": ymax,
              "points": points, "tol": tol, "format": fmt, "output": output}
    for law, curve in zip(laws, curves):
        meta = {**params, "curve": law.route}
        _write(f"{output}_{law.route}.{fmt}", fmt,
               doc={"meta": meta, "y": curve.grid, "f": curve.values,
                    "normalization_error": curve.normalization_error},
               comments=meta, columns={"y": curve.grid, "f": curve.values})
    _write_manifest(output, "density", params)


@main.command()
@click.option("--n", type=int, required=True, help="Sample size per replication.")
@click.option("--m", type=float, required=True, help="Gamma shape parameter.")
@click.option("--sigma", type=float, default=1.0, show_default=True,
              help="Gamma scale (spacing runs; statistics are scale-free).")
@click.option("--j", type=int, default=None,
              help="Simulate the spacing Y_j (mutually exclusive with --stat).")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default=None,
              help="Simulate a discordancy statistic (requires --k).")
@click.option("--k", type=int, default=None, help="Number of suspected outliers.")
@click.option("--reps", type=int, default=10000, show_default=True,
              help="Monte Carlo replications.")
@click.option("--seed", type=int, required=True, help="RNG seed (required).")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads; results are identical for any count.")
@click.option("--bins", type=int, default=None,
              help="Also write an area-normalized histogram with this many bins.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(), default="simulate", show_default=True)
def simulate(n, m, sigma, j, stat, k, reps, seed, workers, bins, fmt, output):
    """Simulate an empirical null sample of a spacing or a statistic."""
    if (j is None) == (stat is None):
        raise click.UsageError("exactly one of --j or --stat is required")
    if stat is not None and k is None:
        raise click.UsageError("--stat requires --k")
    if j is not None and k is not None:
        raise click.UsageError("--k applies only to --stat runs")
    if j is not None and not 2 <= j <= n:
        raise click.UsageError(f"--j must satisfy 2 <= j <= n, got j={j}, n={n}")
    if bins is not None and bins < 1:
        raise click.UsageError(f"--bins must be >= 1, got {bins}")
    if stat is not None:
        _check_stat_k(k, n)
    cfg = _config(n=n, m=m, sigma=sigma, reps=reps, seed=seed, k=k)
    if j is not None:
        sample = simulate_spacing(cfg, j, workers=workers)
    else:
        sample = simulate_statistic(cfg, stat, workers=workers)
    params = {"n": n, "m": m, "sigma": sigma, "j": j, "stat": stat, "k": k,
              "reps": reps, "seed": seed, "bins": bins, "format": fmt,
              "output": output}
    name, config = sample.statistic_name, sample.config.as_dict()
    _write(f"{output}.{fmt}", fmt,
           doc={"statistic": name, "config": config, "values": sample.values},
           comments={"statistic": name, **config}, columns={"value": sample.values})
    if bins is not None:
        hist = histogram(sample.values, bins)
        edges = hist.bin_edges
        _write(f"{output}_hist.{fmt}", fmt,
               doc={"statistic": name, "bin_edges": edges,
                    "densities": hist.densities, "count": hist.count},
               comments={"statistic": name, **{key: params[key] for key in
                         ("n", "m", "sigma", "reps", "seed", "bins")}},
               columns={"bin_lo": edges[:-1], "bin_hi": edges[1:],
                        "density": hist.densities})
    _write_manifest(output, "simulate", params)


@main.command()
@click.option("--m", "m_list", type=str, default="1,3,8", show_default=True,
              help="Comma-separated shape parameters to check.")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--j", type=int, default=2, show_default=True)
@click.option("--reps", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--alpha", type=float, default=0.05, show_default=True,
              help="KS rejection level.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--output", type=click.Path(), default="validate", show_default=True)
def validate(m_list, n, j, reps, seed, alpha, workers, output):
    """KS-test simulated spacings against the true and the claimed law.

    For each shape, Y_j spacings are simulated under Gamma(m, 1) and
    tested against (a) the true spacing law (exact closed form when
    n = j = 2 and m is an integer, quadrature otherwise) and (b) the
    claimed Gamma(m, 1/(n-j+1)) law.  The claim should survive only at
    m = 1.
    """
    shapes = _parse_float_list(m_list, "--m")
    if not 0.0 < alpha < 1.0:
        raise click.UsageError(f"--alpha must be in (0, 1), got {alpha}")
    if not 2 <= j <= n:
        raise click.UsageError(f"--j must satisfy 2 <= j <= n, got j={j}, n={n}")
    rows = []
    for m in shapes:
        cfg = _config(n=n, m=m, reps=reps, seed=seed)
        truth, claim = spacing_law(n, j, m), spacing_law(n, j, m, "claimed")
        sample = simulate_spacing(cfg, j, workers=workers)
        ks_truth = ks_test(sample.values, truth.cdf)
        ks_claim = ks_test(sample.values, claim.cdf)
        rows.append({
            "m": m,
            "truth_route": truth.route,
            "truth_d": ks_truth.statistic,
            "truth_p": ks_truth.p_value,
            "claimed_d": ks_claim.statistic,
            "claimed_p": ks_claim.p_value,
            "claimed_rejected": bool(ks_claim.p_value < alpha),
        })
    click.echo(f"{'m':>8}  {'truth':>8}  {'truth_d':>10}  {'truth_p':>10}  "
               f"{'claimed_d':>10}  {'claimed_p':>10}  verdict")
    for row in rows:
        verdict = "claim rejected" if row["claimed_rejected"] else "claim consistent"
        click.echo(
            f"{row['m']:>8g}  {row['truth_route']:>8}  {row['truth_d']:>10.5f}  "
            f"{row['truth_p']:>10.4g}  {row['claimed_d']:>10.5f}  "
            f"{row['claimed_p']:>10.4g}  {verdict}"
        )
    params = {"m": m_list, "n": n, "j": j, "reps": reps, "seed": seed,
              "alpha": alpha, "output": output}
    _write(f"{output}.json", doc={"subcommand": "validate", "parameters": params,
                                  "rows": rows})
    _write_manifest(output, "validate", params)


@main.command("critical-values")
@click.option("--n", type=int, required=True)
@click.option("--m", type=float, required=True)
@click.option("--k", type=int, required=True)
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk",
              show_default=True)
@click.option("--alpha", "alpha_list", type=str, default="0.01,0.05,0.1",
              show_default=True, help="Comma-separated levels.")
@click.option("--reps", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(), default="critical_values",
              show_default=True)
def critical_values(n, m, k, stat, alpha_list, reps, seed, workers, fmt, output):
    """Tabulate empirical critical values of a statistic's null."""
    alphas = _parse_float_list(alpha_list, "--alpha")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise click.UsageError(f"--alpha values must be in (0, 1), got {a}")
    _check_stat_k(k, n)
    cfg = _config(n=n, m=m, reps=reps, seed=seed, k=k)
    sample = simulate_statistic(cfg, stat, workers=workers)
    crits = [critical_value(sample, a) for a in alphas]
    params = {"n": n, "m": m, "k": k, "stat": stat, "alpha": alpha_list,
              "reps": reps, "seed": seed, "format": fmt, "output": output}
    _write(f"{output}.{fmt}", fmt,
           doc={"statistic": stat, "config": sample.config.as_dict(),
                "rows": [{"alpha": a, "critical_value": v} for a, v in zip(alphas, crits)]},
           comments={key: params[key] for key in ("stat", "n", "m", "k", "reps", "seed")},
           columns={"alpha": alphas, "critical_value": crits})
    for a, v in zip(alphas, crits):
        click.echo(f"alpha={a:g}  critical_value={v!r}")
    _write_manifest(output, "critical-values", params)


@main.command()
@click.argument("datafile", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, required=True, help="Number of suspected outliers.")
@click.option("--m", type=float, required=True, help="Null Gamma shape.")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk",
              show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--reps", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--output", type=click.Path(), default=None,
              help="Also write the JSON report (plus manifest) to this stem.")
@click.pass_context
def test(ctx, datafile, k, m, stat, alpha, reps, seed, workers, output):
    """Discordancy test for the k largest values of a data file.

    DATAFILE holds one observation per line, finite and > 0 as the
    Gamma null requires (blank lines and '#' comments are skipped).
    The sample is discordant when the add-one p-value is at most alpha
    (Phipson & Smyth 2010); the reported critical value is the null's
    1 - alpha quantile.  Exits 1 when the sample is discordant, 0 when
    it is not, 2 on errors.
    """
    if not 0.0 < alpha < 1.0:
        raise click.UsageError(f"--alpha must be in (0, 1), got {alpha}")
    values = []
    for lineno, raw in enumerate(Path(datafile).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise CliError(f"{datafile}:{lineno}: not a number: {line!r}")
        if not math.isfinite(value):
            raise CliError(f"{datafile}:{lineno}: not a finite number: {line!r}")
        if value <= 0.0:
            raise CliError(f"{datafile}:{lineno}: {line!r} is outside the support "
                           "x > 0 of the Gamma null")
        values.append(value)
    if len(values) < 2:
        raise CliError(f"{datafile}: need at least 2 observations, got {len(values)}")
    n = len(values)
    _check_stat_k(k, n)
    cfg = _config(n=n, m=m, reps=reps, seed=seed, k=k)
    observed = float(REDUCTIONS[stat](np.sort(values)[np.newaxis], k)[0])
    null = simulate_statistic(cfg, stat, workers=workers)
    crit = critical_value(null, alpha)
    pval = p_value(null, observed)
    discordant = pval <= alpha
    report = {
        "statistic": observed,
        "p_value": pval,
        "critical_value": crit,
        "alpha": alpha,
        "decision": "discordant" if discordant else "not discordant",
        "config": {"stat": stat, "n": n, "m": m, "k": k, "reps": reps, "seed": seed},
    }
    click.echo(json.dumps(report, indent=2))
    if output is not None:
        _write(f"{output}.json", doc=report)
        _write_manifest(output, "test", {**report["config"], "alpha": alpha,
                                         "datafile": str(datafile),
                                         "output": output})
    ctx.exit(1 if discordant else 0)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=float, required=True)
@click.option("--k", type=int, required=True,
              help="Contaminated count; must match the statistic's k.")
@click.option("--b", "b_list", type=str, default="1,1.5,2,3", show_default=True,
              help="Comma-separated slippage factors, each >= 1.")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk",
              show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--reps", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, required=True,
              help="Null-sample seed; sweep row i uses seed+1+i.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(), default="power", show_default=True)
def power(n, m, k, b_list, stat, alpha, reps, seed, workers, fmt, output):
    """Estimate rejection rates under scale slippage of the top k values."""
    bs = _parse_float_list(b_list, "--b")
    for b in bs:
        if not (math.isfinite(b) and b >= 1.0):
            raise click.UsageError(f"--b values must be finite and >= 1, got {b}")
    if not 0.0 < alpha < 1.0:
        raise click.UsageError(f"--alpha must be in (0, 1), got {alpha}")
    _check_stat_k(k, n)
    null_cfg = _config(n=n, m=m, reps=reps, seed=seed, k=k)
    null = simulate_statistic(null_cfg, stat, workers=workers)
    powers = []
    for i, b in enumerate(bs):
        alt_seed = (seed + 1 + i) % 2**64
        alt_cfg = _config(n=n, m=m, reps=reps, seed=alt_seed, k=k)
        powers.append(simulate_power(alt_cfg, SlippageAlternative(b, k), alpha, null,
                                     workers=workers))
    ses = [math.sqrt(p * (1.0 - p) / reps) for p in powers]
    params = {"n": n, "m": m, "k": k, "b": b_list, "stat": stat, "alpha": alpha,
              "reps": reps, "seed": seed, "format": fmt, "output": output}
    rows = list(zip(bs, powers, ses))
    _write(f"{output}.{fmt}", fmt,
           doc={"statistic": stat, "config": null.config.as_dict(), "alpha": alpha,
                "rows": [{"b": b, "power": p, "se": s} for b, p, s in rows]},
           comments={key: params[key] for key in ("stat", "n", "m", "k", "alpha",
                                                   "reps", "seed")},
           columns={"b": bs, "power": powers, "se": ses})
    for b, p, s in rows:
        click.echo(f"b={b:g}  power={p:.4f}  se={s:.4f}")
    _write_manifest(output, "power", params)


if __name__ == "__main__":
    main()
