"""Seeded Monte Carlo for spacing laws and discordancy statistics.

Replications are drawn in blocks of ``BLOCK``: block ``b`` holds
replications ``[b * BLOCK, (b + 1) * BLOCK)`` and draws them, row by
row, from the SFC64 stream ``RngStream(seed, b)``.  A run is
therefore reproducible bit for bit regardless of execution order or
the number of workers, and any block can be regenerated in isolation.
A power sweep simulates its own null from ``seed`` and its sweep from
``seed + 1`` (mod 2**64).  It takes plain slippage factors ``b >= 1``,
which scale the top ``config.k`` draws; it draws each block once and
evaluates every factor on those draws (common random numbers), so each
factor's rate is the one a run with that factor alone gives.
``STREAM_LAYOUT`` names this layout; it changes whenever the mapping
from seed to a block's draws does.  Statistic runs redraw a block's
degenerate rows (all n draws equal, where z_k and d_k are undefined)
once, at unit scale and before any factor applies; spacing runs keep
every row, since a spacing of 0 is a valid value.

Conventions: p-values use add-one counting
``(1 + #{values >= observed}) / (1 + R)``, so they are never zero, and a
test or power replication rejects iff its p-value is at most ``alpha``.
``critical_value`` is the one rank rule behind that decision: the value
a statistic must exceed for its p-value to be at most ``alpha``, the
``ceil((1 - alpha) * (R + 1))``-th smallest of R values, or ``inf``
where ``alpha < 1 / (1 + R)``.
Statistic nulls are simulated at unit scale: both statistics are scale
invariant, which is what makes the stored ``sigma`` metadata only.

An ``EmpiricalSample`` holds the sorted values and their config (it
rejects unsorted values, so ``critical_value`` and ``p_value`` read
ranks off it directly); the CLI's one writer
renders it as CSV or JSON.  Each input is checked once, by the function
that uses it, and a rejected one raises ``ValueError`` (CLI exit 2);
integers (``n``, ``reps``, ``k``, ``workers``) and levels (``alpha``)
go through ``gamma``'s one integer and one (0, 1) check, and ``seed``
through ``RngStream``.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gamma import GammaParams, RngStream, _finite_1d, _integer, _level
from .spacings import SpacingIndex
from .stats import REDUCTIONS

__all__ = [
    "DegenerateDrawError",
    "NonFiniteDrawError",
    "SimulationConfig",
    "EmpiricalSample",
    "simulate_spacing",
    "simulate_statistic",
    "critical_value",
    "p_value",
    "simulate_power",
]

BLOCK = 4096
STREAM_LAYOUT = f"sfc64-block-{BLOCK}/v3"
# Rounds of unit-scale redraws per block in statistic runs.  A row stays
# degenerate after r rounds with probability p**r, so only a shape at
# which nearly every row's draws come out equal reaches this cap: tiny
# m, where they underflow to 0, or huge m, where their spread is below
# one ulp.
MAX_REDRAW_ROUNDS = 100


class DegenerateDrawError(RuntimeError):
    """Redraws did not produce a sample with two distinct values."""


class NonFiniteDrawError(RuntimeError):
    """A scaled draw overflowed to a non-finite value."""


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Parameters of a Monte Carlo run, given by keyword; ``dataclasses.asdict``
    gives them in the order a run records them.

    ``k`` is required only for statistic simulations, and there it must
    satisfy ``1 <= k <= n-2``: at ``k = n-1`` both z_k and d_k are
    identically 1, so no test could reject.  ``sigma`` scales spacing
    draws; statistic nulls are scale-free and carry it as metadata only.
    """

    n: int
    m: float
    sigma: float = 1.0
    reps: int
    seed: int
    k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n, 2))
        object.__setattr__(self, "reps", _integer("reps", self.reps, 1))
        object.__setattr__(self, "seed", RngStream(self.seed).seed)  # validates it
        params = GammaParams(self.m, self.sigma)  # validates both
        object.__setattr__(self, "m", params.m)
        object.__setattr__(self, "sigma", params.sigma)
        if self.k is not None:
            k = _integer("k", self.k)
            if not 1 <= k <= self.n - 2:
                raise ValueError(
                    f"k must satisfy 1 <= k <= n-2 = {self.n - 2} (at k = n-1 z_k "
                    f"and d_k are identically 1), got {k}"
                )
            object.__setattr__(self, "k", k)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """Sorted Monte Carlo sample of one scalar quantity, with the config
    that drew it; unsorted values are rejected."""

    values: np.ndarray
    config: SimulationConfig
    statistic_name: str

    def __post_init__(self):
        values = _finite_1d("values", self.values)
        if values.size != self.config.reps:
            raise ValueError(f"got {values.size} values for reps={self.config.reps}")
        if np.any(np.diff(values) < 0):
            raise ValueError("values must be sorted ascending")
        object.__setattr__(self, "values", values)


def _equal_rows(draws: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``draws`` whose values are all equal."""
    rows = np.flatnonzero(draws[:, 0] == draws[:, 1])  # few pass: check only them
    return rows[(draws[rows] == draws[rows, :1]).all(axis=1)]


def _simulate(config: SimulationConfig, reduce, scales, workers,
              redraw=True) -> np.ndarray:
    """``reduce``'s value per scale and replication: shape ``(len(scales), reps)``.

    Block ``b`` draws a unit-scale ``(rows, n)`` array from
    ``RngStream(seed, b)`` once.  With ``redraw``, its degenerate rows
    (all n values equal) are then redrawn from the block's generator, in
    row order, before any scale is applied.  For each row ``scale`` of
    ``scales`` it multiplies column ``i`` by ``scale[i]`` into one reused
    buffer, sorts that buffer's rows in place and maps the buffer to
    ``reduce(xs)``.  Every scale thus sees the same rows, so each scale's
    values are bit for bit those of a run with that scale alone.  A
    scaled draw that overflows raises ``NonFiniteDrawError``.  A block
    depends only on ``(seed, b)``, so neither the worker count nor the
    schedule can change the result.
    """
    n, reps = config.n, config.reps
    scales = np.atleast_2d(np.asarray(scales, dtype=float))

    def block(b):
        gen = RngStream(config.seed, b).generator()
        rows = min(BLOCK, reps - b * BLOCK)
        unit = gen.gamma(config.m, size=(rows, n))
        if redraw:
            bad = _equal_rows(unit)
            for _ in range(MAX_REDRAW_ROUNDS):
                if bad.size == 0:
                    break
                redrawn = gen.gamma(config.m, size=(bad.size, n))
                unit[bad] = redrawn
                bad = bad[_equal_rows(redrawn)]
            if bad.size:
                raise DegenerateDrawError(
                    f"{bad.size} of {rows} rows in block {b} stayed degenerate "
                    f"after {MAX_REDRAW_ROUNDS} redraws: all {n} Gamma(m={config.m}) "
                    "draws of each came out equal")
        xs, out = np.empty_like(unit), None
        for i, scale in enumerate(scales):
            with np.errstate(over="ignore"):
                np.multiply(unit, scale, out=xs)
            xs.sort(axis=1)
            if not np.isfinite(xs[:, -1]).all():  # a row's inf or nan sorts last
                raise NonFiniteDrawError(
                    f"Gamma(m={config.m}) draws times the scale (largest "
                    f"{scale.max():g}) overflow to inf; use a smaller scale")
            values = reduce(xs)  # may be a view of xs: copy it out now
            if out is None:
                out = np.empty((len(scales), rows), dtype=values.dtype)
            out[i] = values
        return out

    with ThreadPoolExecutor(max_workers=_integer("workers", workers, 1)) as pool:
        return np.concatenate(list(pool.map(block, range(-(-reps // BLOCK)))), axis=1)


def simulate_spacing(config: SimulationConfig, j, workers=1) -> EmpiricalSample:
    """Empirical null of the spacing ``Y_j`` under ``Gamma(m, sigma)``.

    Each replication sorts ``n`` draws and records ``X_(j) - X_(j-1)``.
    Every row is kept, a spacing of 0 between equal draws included (at
    tiny m, draws that underflow to 0).  Returns the sorted sample.
    """
    j = SpacingIndex(config.n, j).j
    values = _simulate(
        config,
        lambda xs: xs[:, j - 1] - xs[:, j - 2],
        np.full(config.n, config.sigma),
        workers,
        redraw=False,
    )[0]
    return EmpiricalSample(values=np.sort(values), config=config,
                           statistic_name=f"y{j}")


def simulate_statistic(config: SimulationConfig, which, workers=1) -> EmpiricalSample:
    """Empirical null of a discordancy statistic (``"zk"`` or ``"dk"``).

    Draws are taken at unit scale (the statistics are scale invariant),
    so samples for different ``sigma`` are bitwise identical.  Requires
    ``config.k``.  Degenerate rows (all n draws equal, where the
    statistic is undefined) are redrawn from the block's stream, once
    per block and in row order; ``DegenerateDrawError`` is raised when
    they persist, which happens only at shapes where nearly all n
    variates come out equal (underflow to 0 at tiny m, spread below one
    ulp at huge m).
    """
    if which not in REDUCTIONS:
        raise ValueError(f"which must be one of {sorted(REDUCTIONS)}, got {which!r}")
    if config.k is None:
        raise ValueError("config.k is required for statistic simulation")
    stat = REDUCTIONS[which]
    values = _simulate(config, lambda xs: stat(xs, config.k), np.ones(config.n), workers)[0]
    return EmpiricalSample(values=np.sort(values), config=config, statistic_name=which)


def critical_value(sample: EmpiricalSample, alpha) -> float:
    """The value a statistic must exceed for ``p_value <= alpha``.

    ``allowed``, the number of counts ``#{values >= v}`` (from 0) whose
    add-one p-value is at most ``alpha``, is found by bisection on that
    same expression, so the two cannot disagree.  The result is the
    ``ceil((1 - alpha) * (R + 1))``-th smallest of the R values (1-based;
    the Monte Carlo test rank, Davison & Hinkley 1997, section 4.2), or
    ``inf`` when ``alpha < 1 / (1 + R)``, where no p-value is that small.
    """
    alpha = _level("alpha", alpha)
    reps = sample.values.size
    allowed = bisect.bisect_right(range(reps + 1), alpha,
                                  key=lambda count: _add_one_p(count, reps))
    return float(sample.values[reps - allowed]) if allowed else math.inf


def p_value(sample: EmpiricalSample, observed) -> float:
    """Add-one Monte Carlo p-value of ``observed`` against the null.

        (1 + #{values >= observed}) / (1 + R)

    Always in ``(0, 1]``; never 0, so it is safe to compare to any
    level.
    """
    observed = float(observed)
    if not math.isfinite(observed):
        raise ValueError(f"observed must be finite, got {observed!r}")
    reps = sample.values.size
    count_ge = reps - int(np.searchsorted(sample.values, observed, side="left"))
    return _add_one_p(count_ge, reps)


def _add_one_p(count_ge, reps) -> float:
    return (1 + count_ge) / (1 + reps)


def simulate_power(config: SimulationConfig, which, bs, alpha, workers=1) -> list[float]:
    """Rejection rate of the statistic ``which`` (``"zk"`` or ``"dk"``)
    under each scale-slippage factor in ``bs``.

    The null is ``simulate_statistic(config, which, workers)``; the sweep
    draws from ``config`` with seed ``(config.seed + 1) % 2**64``.  Under
    slippage factor ``b >= 1`` the top ``config.k`` of the ``n`` draws
    come from ``Gamma(m, b * sigma)``; ``b == 1`` recovers the null.
    Each replication draws ``n`` unit-scale variates once; for each
    factor it multiplies the last ``config.k`` of them by ``b`` and
    rejects when the statistic exceeds the null's ``critical_value``,
    that is when its add-one p-value is at most ``alpha`` (Phipson &
    Smyth 2010), the decision ``test`` makes.
    The factors thus share their draws (common random numbers): each
    rate keeps its own binomial law, and rate ``i`` is bit for bit that
    of a call with ``[bs[i]]`` alone, while differences between rates
    vary less than with independent draws.  Each block is reduced to
    rejection flags, so no per-replication statistic is kept.

    Raises
    ------
    ValueError
        If ``bs`` is empty or a factor is not finite and ``>= 1``, or
        ``alpha`` is outside ``(0, 1)`` (both checked before the null is
        simulated), or ``simulate_statistic`` rejects ``config`` or
        ``which``.
    """
    bs = np.asarray(bs, dtype=float)
    if bs.ndim != 1 or bs.size == 0 or not np.all(np.isfinite(bs) & (bs >= 1.0)):
        raise ValueError("slippage factors must be a non-empty list of finite "
                         f"values >= 1, got {bs.tolist()}")
    alpha = _level("alpha", alpha)
    threshold = critical_value(simulate_statistic(config, which, workers), alpha)
    scales = np.ones((bs.size, config.n))
    scales[:, config.n - config.k :] = bs[:, np.newaxis]
    stat = REDUCTIONS[which]
    flags = _simulate(replace(config, seed=(config.seed + 1) % 2**64),
                      lambda xs: stat(xs, config.k) > threshold, scales, workers)
    return flags.mean(axis=1).tolist()
