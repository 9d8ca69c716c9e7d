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
from concurrent.futures import ThreadPoolExecutor
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
                        help="Monte Carlo block threads; results are identical for any "
                             "count.  validate builds its reference cdf table on one "
                             "more thread, outside this count.")

_CELL = 24  # bytes of the longest float repr, "-1.2345678901234567e-100"
_FRACTION = (1 << 52) - 1  # the stored mantissa bits of a float64
_BITS = 50  # remainders are counted in units of 2^-50 (the shift g below is <= 47)
_POW5 = np.array([5**i for i in range(22)], dtype=np.uint64)  # s = 16 - e10 <= 21


def _quads():
    """Each of 0000 to 9999 as four ASCII digits in a uint32, then each
    again with its trailing zeros as NUL bytes (1200 as "12")."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(-1, 4)
    trailing = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([quads, quads * ~trailing]).view(np.uint32).ravel()


_QUADS = _quads()


def _half_even(q, t, unit):
    """q plus the remainder t (in ``unit`` steps) rounded half to even."""
    return q + (2 * t + (q & 1) > unit)


def _scaled(a):
    """``a 10^s`` in exact integers, for positive normal float64s ``a``
    and ``s = 16 - e10``, where ``e10 = floor(log10 a)`` but for rounding
    next to a power of ten: ``(e10, q, r, ulp)``.

    ``q`` is the floor, 17 digits long when ``e10`` is right; ``r`` the
    remainder in units of ``2^-_BITS``, and ``ulp`` the spacing of
    floats at ``a``, scaled alike, less 1 where the mantissa is odd.
    ``a 10^s = m 5^s / 2^g`` for the 53-bit mantissa ``m``; two uint64
    limbs hold the product ``m 5^s`` exactly.
    """
    bits = a.view(np.uint64)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    s = 16 - e10
    g = 1075 - (bits >> 52).astype(np.int64) - s
    lift = np.maximum(1 - g, 0).astype(np.uint64)  # keeps g >= 1 up to 2^53
    g = g.astype(np.uint64) + lift
    m = (bits & _FRACTION | 1 << 52) << lift
    p = _POW5[s]
    m1, m0, p1, p0 = m >> 32, m & 0xFFFFFFFF, p >> 32, p & 0xFFFFFFFF
    mid = m1 * p0 + m0 * p1
    lo = m0 * p0
    low = lo + (mid << 32)
    q = (m1 * p1 + (mid >> 32) + (low < lo)) << (64 - g) | low >> g
    r = low << (64 - g) >> (64 - _BITS)
    return e10, q, r, (p << (lift + _BITS - g)) - (bits & 1)


def _shortest(a):
    """``repr``'s digits of positive normal float64s that are not powers of two.

    Returns ``(c, e10, ok)``: the digits of the 17-digit integer ``c``
    without its trailing zeros are those of ``repr(a)``, with ``a``
    (rounded) in ``[10^e10, 10^(e10+1))``.  ``ok`` is False where log10
    put ``a`` in the wrong decade.

    The candidates are ``a`` rounded half to even to 15, 16 and 17
    significant digits.  One round-trips when it lies within half an ulp
    of ``a``, the ends included when the mantissa is even; the shortest
    one that does is the shortest round-trip string (Adams 2018, Ryu),
    which ``repr`` prints (Gay 1990).  17 digits always round-trip.  A
    double has 15 exact digits, so a shorter string that round-trips is
    the 15-digit one with trailing zeros.  The rounding interval is
    symmetric off powers of two, so the nearest candidate of a length
    round-trips whenever any of that length does.  Every decision is an
    exact integer comparison.
    """
    e10, q, r, ulp = _scaled(a)
    q16, q15 = q // 10, q // 100
    t16 = (q - q16 * 10 << _BITS) + r
    t15 = (q - q15 * 100 << _BITS) + r
    fits15 = 2 * np.minimum(t15, (100 << _BITS) - t15) <= ulp
    fits16 = 2 * np.minimum(t16, (10 << _BITS) - t16) <= ulp
    c = np.where(fits15, 100 * _half_even(q15, t15, 100 << _BITS),
                 np.where(fits16, 10 * _half_even(q16, t16, 10 << _BITS),
                          _half_even(q, r, 1 << _BITS)))
    carry = c == 10**17  # rounded up to the next decade
    c[carry] = 10**16
    return c.astype(np.int64), e10 + carry, (q >= 10**16) & (q < 10**17)


def _digits(c):
    """The 17 ASCII digits of each ``c``, trailing zeros as NUL: (n, 17) uint8."""
    quads = np.empty((len(c), 5), np.uint32)
    tail = np.full(len(c), 10000)  # the NUL-tailed table while all lower digits are 0
    for i in range(4, 0, -1):
        q = c // 10000
        v, c = c - q * 10000, q
        quads[:, i] = np.take(_QUADS, v + tail)
        tail *= v == 0
    quads[:, 0] = np.take(_QUADS, c)
    return quads.view(np.uint8)[:, 3:]


def _place(cell, digits, e10):
    """Lay out positional reprs of one decade: ``digits`` into the rows of ``cell``."""
    if e10 >= 0:
        cell[:, :e10 + 1] = np.maximum(digits[:, :e10 + 1], ord("0"))
        cell[:, e10 + 1] = ord(".")
        cell[:, e10 + 2] = np.maximum(digits[:, e10 + 1], ord("0"))
        cell[:, e10 + 3:18] = digits[:, e10 + 2:]
    else:
        cell[:, :1 - e10] = ord("0")
        cell[:, 1] = ord(".")
        cell[:, 1 - e10:18 - e10] = digits
    return cell


def _render(block, x):
    """Write ``repr`` of each float64 of ``x`` into the rows of ``block``:
    a sign byte, then up to ``_CELL`` bytes, NUL where there is none.

    ``_shortest`` finds the digits where ``repr`` is positional, for
    ``1e-4 <= |x| < 2^53``, but at powers of two; rows are then laid out
    by decade, the largest group over every row and the others over
    their own.  ``repr`` renders the rest: 0, -0, non-finite values,
    subnormals, powers of two, other magnitudes and the values next to a
    power of ten that log10 puts in the wrong decade.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 2.0**53) & (a.view(np.uint64) & _FRACTION != 0)
    c, e10, ok = _shortest(np.where(fast, a, 1.5))
    fast &= ok
    block[:, 0] = (np.signbit(x) & fast) * ord("-")
    cell, digits = block[:, 1:], _digits(c)
    group = np.where(fast, e10 + 4, 20)  # decades 1e-4 to 1e15, then repr's rows
    sizes = np.bincount(group, minlength=21)[:20]
    for i, k in enumerate(np.argsort(-sizes, kind="stable")[:np.count_nonzero(sizes)]):
        if i == 0:
            _place(cell, digits, k - 4)
        else:
            rows = np.flatnonzero(group == k)
            cell[rows] = _place(np.zeros((len(rows), _CELL), np.uint8), digits[rows], k - 4)
    rows = np.flatnonzero(group == 20)
    if len(rows):
        text = list(map(repr, x[rows].tolist()))
        cell[rows] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)


def _csv_rows(cols):
    """The CSV rows of equal-length float64 columns as ASCII bytes (a
    uint8 array): ``repr`` of each value, cells joined by ``,``, rows
    ended by a newline."""
    width = _CELL + 2  # a sign byte, the cell, a separator
    text = np.zeros((len(cols[0]), len(cols) * width), np.uint8)
    for i, col in enumerate(cols):
        _render(text[:, i * width:(i + 1) * width - 1], col)
    text[:, width - 1::width] = ord(",")
    text[:, -1] = ord("\n")
    flat = text.ravel()
    return np.compress(flat != 0, flat)


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
    ``columns`` names, then the rows, ``CHUNK`` at a time, each block
    rendered by ``_csv_rows`` in one vectorised pass, byte-identical to
    ``repr`` (the shortest round-trip form); columns of unequal length
    raise ``ValueError``.  ``json``:
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
            if fmt == "csv":
                cols = [np.asarray(col, dtype=float) for col in columns.values()]
                if len({len(col) for col in cols}) > 1:
                    raise ValueError(f"{path}: CSV columns differ in length: "
                                     f"{dict(zip(columns, map(len, cols)))}")
                with open(tmp, "wb") as out:
                    out.write("".join([*(f"# {key}: {value}\n" for key, value in comments.items()),
                                       ",".join(columns) + "\n"]).encode())
                    for lo in range(0, len(cols[0]), CHUNK):
                        out.write(_csv_rows([col[lo:lo + CHUNK] for col in cols]))
            else:
                with open(tmp, "w", encoding="utf-8") as out:
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
        click.echo(b"wrote " + os.fsencode(file.path))  # the argv bytes in any locale


def _params(**resolved):
    """The running command's parameters by long flag (``--format`` -> ``format``)
    in declaration order, ``resolved`` for values it computes, no ``--workers``.

    The ``--output`` stem is the text of its argv bytes read as UTF-8: a
    locale that is not UTF-8 (C, POSIX) decodes ``café`` to lone
    surrogates, which a UTF-8 file cannot hold, from the UTF-8 locale's
    bytes, so both locales write the same text.  A stem whose bytes are
    not UTF-8 raises ``CliError`` (exit 2): each command calls this
    before its work, so such a run computes and prints nothing.
    """
    ctx = click.get_current_context()
    params = {}
    for option in ctx.command.params:
        flag = option.opts[0].removeprefix("--")
        if flag != "workers":
            params[flag] = resolved.get(flag, ctx.params[option.name])
    stem = params.get("output")
    if stem is not None:
        try:
            params["output"] = os.fsencode(stem).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"cannot write {stem}: its name is not UTF-8 ({exc.reason})")
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
    params = _params(ymax=ymax)
    curves = [density_curve(law, ymax, points) for law in laws]
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
    params = _params()
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

    Stages that share no input overlap on one side thread, which is
    extra to the --workers block threads: it builds the true law's
    reference cdf table while the sample is drawn, then runs the
    claimed-law KS test while the main thread runs the true-law one.
    Each stage computes what it would alone, and a failure is raised in
    the order a serial run meets it: the sample, then the table, then
    the true-law and the claimed-law tests.
    """
    params = _params()
    shapes = _parse_float_list(m_list, "--m")
    alpha = _level("alpha", alpha)  # the library never sees it
    rows = []
    with ThreadPoolExecutor(max_workers=1) as side:
        for m in shapes:
            cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed)
            truth, claim = spacing_law(n, j, m), spacing_law(n, j, m, "claimed")
            table = side.submit(truth.cdf, 0.0)  # the law keeps the table it builds
            sample = simulate_spacing(cfg, j, workers=workers)
            if not sample.values.any():
                raise ValueError(f"every simulated Y_{j} is 0 at m={m:g}, n={n}: the Gamma "
                                 "draws underflow, so a KS test cannot judge a law on them")
            table.result()
            claimed = side.submit(ks_test, sample.values, claim.cdf)
            ks_truth = ks_test(sample.values, truth.cdf)
            ks_claim = claimed.result()
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
    params = _params()
    alphas = _parse_float_list(alpha_list, "--alpha")
    cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed, k=k)
    sample = simulate_statistic(cfg, stat, workers=workers)
    crits = [critical_value(sample, a) for a in alphas]
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
    params = {**_params(), "n": n}
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
        _write(_File(f"{output}.json", doc=report), _manifest(output, params))
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
    params = _params()
    bs = _parse_float_list(b_list, "--b")
    cfg = SimulationConfig(n=n, m=m, reps=reps, seed=seed, k=k)
    powers = simulate_power(cfg, stat, bs, alpha, workers=workers)
    ses = [math.sqrt(p * (1.0 - p) / reps) for p in powers]
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
