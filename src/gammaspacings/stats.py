"""Sample statistics for judging upper outliers via spacings.

``z_k`` is the weighted-spacing ratio: the share of the weighted total
``sum_j (n-j+1) Y_j`` carried by the top ``k`` spacings.  ``dixon_dk``
is the classical gap ratio ``(X_(n) - X_(n-k)) / (X_(n) - X_(1))``;
``dixon_dk_refuted`` is the variant normalized by ``X_(n)`` alone,
kept only to demonstrate that it is not location invariant.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "SampleData",
    "StatisticConfig",
    "spacings_from_sample",
    "z_k",
    "z_k_telescoped",
    "dixon_dk",
    "dixon_dk_refuted",
]


class DegenerateSampleError(ValueError):
    """The statistic's denominator is zero (all observations equal)."""


@dataclass(frozen=True, eq=False)
class SampleData:
    """Validated observation vector: 1-D, finite, length >= 2."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got ndim={values.ndim}")
        if values.size < 2:
            raise ValueError(f"need at least 2 observations, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class StatisticConfig:
    """Number of suspected upper outliers, ``k >= 1``."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise TypeError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


def _sorted_values(data) -> np.ndarray:
    if not isinstance(data, SampleData):
        data = SampleData(np.asarray(data))
    return np.sort(data.values)


def _check_k(k, n, upper) -> int:
    if isinstance(k, StatisticConfig):
        k = k.k
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= upper:
        raise ValueError(f"k must satisfy 1 <= k <= {upper} for n={n}, got {k}")
    return int(k)


def spacings_from_sample(data) -> np.ndarray:
    """Consecutive spacings ``Y_j = X_(j) - X_(j-1)``, ``j = 2..n``.

    Returns an array of length ``n - 1``; entries are >= 0 and sum to
    the sample range.
    """
    return np.diff(_sorted_values(data))


def _in_range(xs: np.ndarray) -> np.ndarray:
    """``xs`` with every row whose largest magnitude exceeds
    ``finfo.max / n^2`` divided by a power of two, so that weighted
    spacing sums and ranges cannot overflow; the ratio statistics are
    scale-free and other rows are returned untouched."""
    n = xs.shape[1]
    peak = np.maximum(abs(xs[:, 0]), abs(xs[:, -1]))
    big = peak > np.finfo(float).max / n**2
    if np.any(big):
        xs = xs.copy()
        xs[big] = np.ldexp(xs[big], -np.frexp(peak[big])[1][:, None])
    return xs


def _zk_sorted(xs: np.ndarray, k: int) -> np.ndarray:
    # rows of xs are sorted samples; weights n-j+1 for j = 2..n, i.e.
    # n-1 down to 1
    xs = _in_range(xs)
    n = xs.shape[1]
    weighted = np.arange(n - 1, 0, -1, dtype=float) * np.diff(xs, axis=1)
    denom = weighted.sum(axis=1)
    if np.any(denom == 0.0):
        raise DegenerateSampleError("all observations are equal; z_k is undefined")
    return weighted[:, n - 1 - k :].sum(axis=1) / denom


def z_k(data, k) -> float:
    """Weighted-spacing ratio for the top ``k`` spacings.

        z_k = sum_{j=n-k+1}^{n} (n-j+1) Y_j / sum_{j=2}^{n} (n-j+1) Y_j

    Lies in ``[0, 1]``; equals 1 exactly when ``k = n - 1``; invariant
    under rescaling of the sample (rows near overflow are rescaled by a
    power of two first).  Requires ``1 <= k <= n - 1``.
    """
    xs = _sorted_values(data)
    return float(_zk_sorted(xs[np.newaxis], _check_k(k, xs.size, xs.size - 1))[0])


def z_k_telescoped(data, k) -> float:
    """``z_k`` via the telescoped identity, for cross-checking.

    Abel summation collapses the weighted spacing sums to order
    statistics alone:

        z_k = (sum_{i=n-k+1}^{n} X_(i) - k X_(n-k))
              / (sum_i X_i - n X_(1))

    Agrees with ``z_k`` up to floating-point roundoff.
    """
    xs = _in_range(_sorted_values(data)[np.newaxis])[0]
    n = xs.size
    k = _check_k(k, n, n - 1)
    denom = xs.sum() - n * xs[0]
    if denom == 0.0:
        raise DegenerateSampleError("all observations are equal; z_k is undefined")
    num = xs[n - k :].sum() - k * xs[n - 1 - k]
    return float(num / denom)


def _dk_sorted(xs: np.ndarray, k: int) -> np.ndarray:
    # rows near overflow are rescaled, so a range of both signs is finite
    xs = _in_range(xs)
    rng = xs[:, -1] - xs[:, 0]
    if np.any(rng == 0.0):
        raise DegenerateSampleError("all observations are equal; D_k is undefined")
    return (xs[:, -1] - xs[:, -1 - k]) / rng


# Name -> row-wise reduction ``(rows, n) sorted -> (rows,)``, shared by
# z_k, dixon_dk, the Monte Carlo engine and the CLI.
REDUCTIONS = {"zk": _zk_sorted, "dk": _dk_sorted}


def dixon_dk(data, k) -> float:
    """Gap ratio ``(X_(n) - X_(n-k)) / (X_(n) - X_(1))``.

    Lies in ``[0, 1]``; invariant under shift and positive rescaling
    (rows near overflow are rescaled by a power of two first).  Requires
    ``1 <= k <= n - 1``.
    """
    xs = _sorted_values(data)
    return float(_dk_sorted(xs[np.newaxis], _check_k(k, xs.size, xs.size - 1))[0])


def dixon_dk_refuted(data, k) -> float:
    """Gap ratio normalized by the maximum: ``(X_(n) - X_(n-k)) / X_(n)``.

    Not location invariant (shifting the sample changes it), which is
    why it is unsuitable as a discordancy statistic; provided for
    comparison only.  Errors when ``X_(n) == 0``.
    """
    xs = _sorted_values(data)
    k = _check_k(k, xs.size, xs.size - 1)
    if xs[-1] == 0.0:
        raise ValueError("maximum observation is zero; refuted ratio is undefined")
    return float((xs[-1] - xs[-1 - k]) / xs[-1])
