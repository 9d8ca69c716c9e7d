"""Goodness-of-fit instruments: Kolmogorov-Smirnov and histograms.

The KS test here is one-sample against a fully specified continuous
cdf, with the asymptotic Kolmogorov p-value (small-sample correction
folded into the argument).  The cdf is called once on the whole sorted
sample and must return one value per point; the reference cdf of a
spacing law comes from ``spacings.spacing_law``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gamma import _finite_1d, _integer

__all__ = [
    "KsResult",
    "Histogram",
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
    """Area-normalized histogram of ``count >= 1`` values:
    ``sum(densities * widths)`` is 1 within 1e-9, or ``ValueError``."""

    bin_edges: np.ndarray
    densities: np.ndarray
    count: int

    def __post_init__(self):
        edges = _finite_1d("bin_edges", self.bin_edges, 2)
        dens = _finite_1d("densities", self.densities)
        if edges.size != dens.size + 1:
            raise ValueError("need len(bin_edges) == len(densities) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("densities must be >= 0")
        with np.errstate(over="ignore"):  # an area of inf is rejected below
            area = float(np.sum(dens * np.diff(edges)))
        if not abs(area - 1.0) <= 1e-9:
            raise ValueError(f"densities must integrate to 1 within 1e-9, got {area!r}")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "count", _integer("count", self.count, 1))


def ks_statistic(sample, cdf) -> float:
    """One-sample KS distance between a sorted sample and ``cdf``.

        D = max_i max(i/N - F(x_(i)), F(x_(i)) - (i-1)/N)

    ``cdf`` is called once with the whole sample array and must return
    one value in ``[0, 1]`` per sample point.
    """
    arr = _finite_1d("sample", sample)
    if np.any(np.diff(arr) < 0):
        raise ValueError("sample must be sorted ascending")
    f = np.asarray(cdf(arr), dtype=float)
    if f.shape != arr.shape:
        raise ValueError(f"cdf returned shape {f.shape} for a sample of shape {arr.shape}")
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
    sample_size = _integer("sample_size", sample_size, 1)
    if d == 0.0:
        return 1.0
    sqrt_n = math.sqrt(sample_size)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return float(special.kolmogorov(lam))


def ks_test(sample, cdf) -> KsResult:
    """KS statistic and p-value in one call."""
    d = ks_statistic(sample, cdf)  # checks that the sample is 1-D
    size = len(sample)
    return KsResult(statistic=d, p_value=ks_pvalue(d, size), sample_size=size)


def histogram(sample, bins) -> Histogram:
    """Area-normalized histogram of ``sample`` over its min/max.

    Parameters
    ----------
    sample : array_like
        Nonempty, finite values (any order).
    bins : int
        Number of bins, >= 1.

    Returns
    -------
    Histogram
        Every value is binned, so ``densities`` integrate to 1.
    """
    arr = _finite_1d("sample", sample)
    counts, edges = np.histogram(arr, bins=_integer("bins", bins, 1))
    return Histogram(bin_edges=edges, densities=counts / (arr.size * np.diff(edges)),
                     count=arr.size)
