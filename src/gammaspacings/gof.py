"""Goodness-of-fit instruments: ECDF, Kolmogorov-Smirnov, histograms.

The KS test here is one-sample against a fully specified continuous
cdf, with the asymptotic Kolmogorov p-value (small-sample correction
folded into the argument).  The reference cdf of a spacing law comes
from ``spacings.spacing_law``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "KsResult",
    "Histogram",
    "ecdf",
    "ks_statistic",
    "ks_pvalue",
    "ks_test",
    "histogram",
]


@dataclass(frozen=True)
class KsResult:
    """KS statistic, its asymptotic p-value and the sample size."""

    statistic: float
    p_value: float
    sample_size: int


@dataclass(frozen=True, eq=False)
class Histogram:
    """Area-normalized histogram: ``sum(densities * widths) == 1``."""

    bin_edges: np.ndarray
    densities: np.ndarray
    count: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if edges.ndim != 1 or dens.ndim != 1 or edges.size != dens.size + 1:
            raise ValueError("need len(bin_edges) == len(densities) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite and >= 0")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "count", int(self.count))


def _sorted_sample(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample must be finite")
    if np.any(np.diff(arr) < 0):
        raise ValueError("sample must be sorted ascending")
    return arr


def ecdf(sample, x):
    """Empirical cdf of a sorted ``sample`` evaluated at ``x``.

    Right-continuous step function: ``#{s_i <= x} / N``.
    """
    arr = _sorted_sample(sample)
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    out = np.searchsorted(arr, np.atleast_1d(xq), side="right") / arr.size
    return float(out[0]) if scalar else out


def ks_statistic(sample, cdf) -> float:
    """One-sample KS distance between a sorted sample and ``cdf``.

        D = max_i max(i/N - F(x_(i)), F(x_(i)) - (i-1)/N)

    ``cdf`` is called once with the whole sample array (or per point if
    it only handles scalars) and must return values in ``[0, 1]``.
    """
    arr = _sorted_sample(sample)
    try:
        f = np.asarray(cdf(arr), dtype=float)
        if f.shape != arr.shape:
            raise TypeError
    except TypeError:
        f = np.array([float(cdf(v)) for v in arr])
    if np.any(f < 0) or np.any(f > 1) or not np.all(np.isfinite(f)):
        raise ValueError("cdf values must lie in [0, 1]")
    n = arr.size
    i = np.arange(1, n + 1)
    d = np.maximum(i / n - f, f - (i - 1) / n).max()
    return float(max(d, 0.0))


def ks_pvalue(statistic, sample_size) -> float:
    """Asymptotic p-value of the KS statistic.

    Evaluates the Kolmogorov survival function
    (``scipy.special.kolmogorov``) at the corrected argument

        lam = (sqrt(N) + 0.12 + 0.11 / sqrt(N)) * D,

    which keeps the asymptotic formula accurate down to moderate N.
    ``statistic == 0`` gives 1; the result lies in ``(0, 1]`` up to
    underflow of the tail itself.
    """
    d = float(statistic)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"statistic must be in [0, 1], got {d!r}")
    if isinstance(sample_size, bool) or not isinstance(sample_size, numbers.Integral):
        raise TypeError(f"sample_size must be an integer, got {sample_size!r}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if d == 0.0:
        return 1.0
    sqrt_n = math.sqrt(sample_size)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return float(special.kolmogorov(lam))


def ks_test(sample, cdf) -> KsResult:
    """KS statistic and p-value in one call."""
    arr = _sorted_sample(sample)
    d = ks_statistic(arr, cdf)
    return KsResult(statistic=d, p_value=ks_pvalue(d, arr.size), sample_size=arr.size)


def histogram(sample, bins, range=None) -> Histogram:
    """Area-normalized histogram of ``sample``.

    Parameters
    ----------
    sample : array_like
        Nonempty, finite values (any order).
    bins : int
        Number of bins, >= 1.
    range : (float, float), optional
        Outer edges; defaults to the sample min/max.  Must satisfy
        ``lo < hi``.  Values outside are dropped from the density
        normalization.

    Returns
    -------
    Histogram
        ``densities`` integrate to 1 over the binned range whenever any
        observation falls inside it.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample must be finite")
    if isinstance(bins, bool) or not isinstance(bins, numbers.Integral):
        raise TypeError(f"bins must be an integer, got {bins!r}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if range is not None:
        lo, hi = float(range[0]), float(range[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range must satisfy lo < hi, got {range!r}")
        range = (lo, hi)
    counts, edges = np.histogram(arr, bins=int(bins), range=range)
    inside = int(counts.sum())
    widths = np.diff(edges)
    if inside > 0:
        densities = counts / (inside * widths)
    else:
        densities = np.zeros_like(widths)
    return Histogram(bin_edges=edges, densities=densities, count=inside)

