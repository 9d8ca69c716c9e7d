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

Each input is checked once, before the first file is written: the
library raises ``ValueError`` for what it uses (``--workers`` and
``--bins`` included), ``validate --alpha`` goes through the library's
one (0, 1) check, and ``_Group.invoke`` turns these and the numeric
failures into ``Error: <message>``, exit 2.  The CLI itself checks only
option syntax, the ``--j``/``--stat``/``--k`` combination and DATAFILE.

Every file, manifests included, is rendered and written by ``_write``,
in one call per command, so a run leaves all of its files or none:
each command only assembles its comment dict, columns and JSON document.
A manifest's ``parameters`` are the declared parameters (``_params``), so
typed order cannot change them; ``--workers`` changes no file and no record.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import __version__
from .gamma import GammaParams, _level, gamma_quantile
from .gof import histogram, ks_test
from .montecarlo import (
    STREAM_LAYOUT,
    DegenerateDrawError,
    NonFiniteDrawError,
    SimulationConfig,
    critical_value,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
)
from .spacings import EXACT_MAX_M, QuadratureError, density_curve, spacing_law
from .stats import REDUCTIONS


class CliError(click.ClickException):
    """A rejected input or a runtime failure (IO, parsing, numerics); exit 2."""

    exit_code = 2


CHUNK = 4096  # CSV rows rendered per write
_workers = click.option("--workers", type=int, default=1,
                        help="Worker threads; results are identical for any count.")


class _File(NamedTuple):
    """One output file of a command: CSV from ``comments`` and ``columns``,
    or JSON from ``doc``, as ``fmt`` says."""

    path: str
    fmt: str = "json"
    doc: object = None
    comments: dict = None
    columns: dict = None


def _write(*files):
    """Write a command's whole file set, or none of it, and echo the names.

    ``csv``: ``# key: value`` lines from ``comments``, a header of the
    ``columns`` names, then the rows, floats as shortest round-trip
    ``repr``, rendered and written ``CHUNK`` rows at a time.  ``json``:
    ``doc`` indented by 2, numpy arrays as lists, written by
    ``json.dump`` piece by piece as it is encoded.  Neither format holds
    the whole text in memory, so the writer's memory does not grow with
    the row count.  Files are UTF-8 in any locale.  Every file is
    rendered to a sibling temporary name first; only when all of them
    are, and no target is a directory, are they renamed onto their paths
    (or the files symlinks there name).  A failed open or write, text
    UTF-8 cannot encode (a lone surrogate from an undecodable argument
    byte) or a directory in the way leaves every path as it was and
    raises ``CliError`` (exit 2) naming the path.
    """
    staged = []  # (path, target, temporary name) of each file opened so far
    try:
        for path, fmt, doc, comments, columns in files:
            target = os.path.realpath(path)
            tmp = f"{target}.{os.getpid()}.tmp"
            staged.append((path, target, tmp))
            with open(tmp, "w", encoding="utf-8") as out:
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
        for path, target, _ in staged:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, target, tmp in staged:
            os.replace(tmp, target)
    except (OSError, UnicodeEncodeError) as exc:
        raise CliError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}")
    finally:
        for _, _, tmp in staged:
            with contextlib.suppress(OSError):  # gone already after the replace
                os.remove(tmp)
    for file in files:
        click.echo(f"wrote {file.path}")


def _params(**resolved):
    """The running command's parameters by long flag (``--format`` -> ``format``)
    in declaration order, ``resolved`` for values it computes, no ``--workers``."""
    ctx = click.get_current_context()
    params = {}
    for option in ctx.command.params:
        flag = option.opts[0].removeprefix("--")
        if flag != "workers":
            params[flag] = resolved.get(flag, ctx.params[option.name])
    return params


def _manifest(stem, parameters):
    return _File(f"{stem}.manifest.json", doc={
        "subcommand": click.get_current_context().command.name,
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


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, DegenerateDrawError, NonFiniteDrawError,
                QuadratureError) as exc:
            raise CliError(str(exc))


@click.group(cls=_Group, context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="gammaspacings")
def main():
    """Spacing laws of Gamma order statistics and discordancy tests."""


@main.command()
@click.option("--m", type=float, required=True, help="Gamma shape parameter.")
@click.option("--n", type=int, default=2, help="Sample size.")
@click.option("--j", type=int, default=2, help="Spacing index: Y_j = X_(j) - X_(j-1).")
@click.option("--which", type=click.Choice(["exact", "claimed", "numeric", "all"]),
              default="all",
              help="Curve(s) to tabulate. 'all' = the true density (exact "
                   f"when n=j=2 and m is an integer from 1 to {EXACT_MAX_M}, "
                   "else numeric) plus the claimed Gamma(m, 1/(n-j+1)) law.")
@click.option("--ymax", type=float, default=None,
              help="Grid endpoint [default: 0.9999 quantile of Gamma(m, 1)].")
@click.option("--points", type=int, default=201, help="Grid size.")
@click.option("--tol", type=float, default=1e-9,
              help="Quadrature tolerance for the numeric route.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default="density",
              help="Output stem; one file per curve plus a manifest.")
def density(m, n, j, which, ymax, points, tol, fmt, output):
    """Tabulate spacing density curves on a uniform grid."""
    laws = [spacing_law(n, j, m, route, tol)
            for route in (["auto", "claimed"] if which == "all" else [which])]
    if ymax is None:
        ymax = math.ceil(float(gamma_quantile(0.9999, GammaParams(m, 1.0))) * 10) / 10
    curves = [density_curve(law, ymax, points) for law in laws]
    params = _params(ymax=ymax)
    files = []
    for law, curve in zip(laws, curves):
        meta = {**params, "curve": law.route}
        columns = {"y": curve.grid, "f": curve.values}
        error = {"normalization_error": curve.normalization_error}
        files.append(_File(f"{output}_{law.route}.{fmt}", fmt,
                           doc={"meta": meta, **columns, **error},
                           comments={**meta, **error}, columns=columns))
    _write(*files, _manifest(output, params))


@main.command()
@click.option("--n", type=int, required=True, help="Sample size per replication.")
@click.option("--m", type=float, required=True, help="Gamma shape parameter.")
@click.option("--sigma", type=float, default=1.0,
              help="Gamma scale (spacing runs; statistics are scale-free).")
@click.option("--j", type=int, default=None,
              help="Simulate the spacing Y_j (mutually exclusive with --stat).")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default=None,
              help="Simulate a discordancy statistic (requires --k).")
@click.option("--k", type=int, default=None, help="Number of suspected outliers.")
@click.option("--reps", type=int, default=10000, help="Monte Carlo replications.")
@click.option("--seed", type=int, required=True, help="RNG seed (required).")
@_workers
@click.option("--bins", type=int, default=None,
              help="Also write an area-normalized histogram with this many bins.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default="simulate")
def simulate(n, m, sigma, j, stat, k, reps, seed, workers, bins, fmt, output):
    """Simulate an empirical null sample of a spacing or a statistic."""
    if (j is None) == (stat is None):
        raise click.UsageError("exactly one of --j or --stat is required")
    if stat is not None and k is None:
        raise click.UsageError("--stat requires --k")
    if j is not None and k is not None:
        raise click.UsageError("--k applies only to --stat runs")
    cfg = SimulationConfig(n=n, m=m, sigma=sigma, reps=reps, seed=seed, k=k)
    if j is not None:
        sample = simulate_spacing(cfg, j, workers=workers)
    else:
        sample = simulate_statistic(cfg, stat, workers=workers)
    params = _params()
    name, config = sample.statistic_name, asdict(sample.config)
    files = [_File(f"{output}.{fmt}", fmt,
                   doc={"statistic": name, "config": config, "values": sample.values},
                   comments={"statistic": name, **config}, columns={"value": sample.values})]
    if bins is not None:
        hist = histogram(sample.values, bins)
        edges = hist.bin_edges
        files.append(_File(f"{output}_hist.{fmt}", fmt,
                           doc={"statistic": name, "bin_edges": edges,
                                "densities": hist.densities, "count": hist.count},
                           comments={"statistic": name, **{key: params[key] for key in
                                     ("n", "m", "sigma", "reps", "seed", "bins")}},
                           columns={"bin_lo": edges[:-1], "bin_hi": edges[1:],
                                    "density": hist.densities}))
    _write(*files, _manifest(output, params))


@main.command()
@click.option("--m", "m_list", type=str, default="1,3,8",
              help="Comma-separated shape parameters to check.")
@click.option("--n", type=int, default=2)
@click.option("--j", type=int, default=2)
@click.option("--reps", type=int, default=10000)
@click.option("--seed", type=int, required=True)
@click.option("--alpha", type=float, default=0.05, help="KS rejection level.")
@_workers
@click.option("--output", type=click.Path(), default="validate")
def validate(m_list, n, j, reps, seed, alpha, workers, output):
    """KS-test simulated spacings against the true and the claimed law.

    For each shape, Y_j spacings are simulated under Gamma(m, 1) and
    tested against (a) the true spacing law (exact closed form when
    n = j = 2 and m is an integer, quadrature otherwise) and (b) the
    claimed Gamma(m, 1/(n-j+1)) law.  The claim should survive only at
    m = 1.
    """
    shapes = _parse_float_list(m_list, "--m")
    alpha = _level("alpha", alpha)  # the library never sees it
    rows = []
    for m in shapes:
        cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed)
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
    params = _params()
    _write(_File(f"{output}.json", doc={"subcommand": "validate", "parameters": params,
                                        "rows": rows}),
           _manifest(output, params))


@main.command("critical-values")
@click.option("--n", type=int, required=True)
@click.option("--m", type=float, required=True)
@click.option("--k", type=int, required=True)
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk")
@click.option("--alpha", "alpha_list", type=str, default="0.01,0.05,0.1",
              help="Comma-separated levels.")
@click.option("--reps", type=int, default=10000)
@click.option("--seed", type=int, required=True)
@_workers
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default="critical_values")
def critical_values(n, m, k, stat, alpha_list, reps, seed, workers, fmt, output):
    """Tabulate the critical values test and power decide by: a statistic is
    rejected iff it exceeds one (inf where alpha < 1/(1 + reps))."""
    alphas = _parse_float_list(alpha_list, "--alpha")
    cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed, k=k)
    sample = simulate_statistic(cfg, stat, workers=workers)
    crits = [critical_value(sample, a) for a in alphas]
    params = _params()
    for a, v in zip(alphas, crits):
        click.echo(f"alpha={a:g}  critical_value={v!r}")
    _write(_File(f"{output}.{fmt}", fmt,
                 doc={"statistic": stat, "config": asdict(sample.config),
                      "rows": [{"alpha": a, "critical_value": v}
                               for a, v in zip(alphas, crits)]},
                 comments={key: params[key] for key in ("stat", "n", "m", "k", "reps", "seed")},
                 columns={"alpha": alphas, "critical_value": crits}),
           _manifest(output, params))


@main.command()
@click.argument("datafile", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, required=True, help="Number of suspected outliers.")
@click.option("--m", type=float, required=True, help="Null Gamma shape.")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk")
@click.option("--alpha", type=float, default=0.05)
@click.option("--reps", type=int, default=10000)
@click.option("--seed", type=int, required=True)
@_workers
@click.option("--output", type=click.Path(), default=None,
              help="Also write the JSON report (plus manifest) to this stem.")
@click.pass_context
def test(ctx, datafile, k, m, stat, alpha, reps, seed, workers, output):
    """Discordancy test for the k largest values of a data file.

    DATAFILE is UTF-8 text with one observation per line, finite and > 0
    as the Gamma null requires (blank lines and '#' comments are skipped).
    The sample is discordant when the add-one p-value is at most alpha
    (Phipson & Smyth 2010), that is when the statistic exceeds the
    reported critical value (inf when alpha < 1/(1 + reps)).  Exits 1
    when the sample is discordant, 0 when it is not, 2 on errors.
    """
    try:
        text = Path(datafile).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {datafile}: {getattr(exc, 'strerror', None) or exc}")
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed, k=k)
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
        _write(_File(f"{output}.json", doc=report), _manifest(output, {**_params(), "n": n}))
    ctx.exit(1 if discordant else 0)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=float, required=True)
@click.option("--k", type=int, required=True,
              help="Contaminated count; must match the statistic's k.")
@click.option("--b", "b_list", type=str, default="1,1.5,2,3",
              help="Comma-separated slippage factors, each >= 1.")
@click.option("--stat", type=click.Choice(list(REDUCTIONS)), default="zk")
@click.option("--alpha", type=float, default=0.05)
@click.option("--reps", type=int, default=10000)
@click.option("--seed", type=int, required=True,
              help="RNG seed: null from seed, every sweep row from seed+1.")
@_workers
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default="power")
def power(n, m, k, b_list, stat, alpha, reps, seed, workers, fmt, output):
    """Estimate rejection rates under scale slippage of the top k values."""
    bs = _parse_float_list(b_list, "--b")
    cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed, k=k)
    powers = simulate_power(cfg, stat, bs, alpha, workers=workers)
    ses = [math.sqrt(p * (1.0 - p) / reps) for p in powers]
    params = _params()
    rows = list(zip(bs, powers, ses))
    for b, p, s in rows:
        click.echo(f"b={b:g}  power={p:.4f}  se={s:.4f}")
    _write(_File(f"{output}.{fmt}", fmt,
                 doc={"statistic": stat, "config": asdict(cfg), "alpha": alpha,
                      "rows": [{"b": b, "power": p, "se": s} for b, p, s in rows]},
                 comments={key: params[key] for key in ("stat", "n", "m", "k", "alpha",
                                                         "reps", "seed")},
                 columns={"b": bs, "power": powers, "se": ses}),
           _manifest(output, params))


if __name__ == "__main__":
    main()
