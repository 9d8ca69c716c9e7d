"""Sample statistics for judging upper outliers via spacings.

``z_k`` is the weighted-spacing ratio: the share of the weighted total
``sum_j (n-j+1) Y_j`` carried by the top ``k`` spacings.  ``dixon_dk``
is the classical gap ratio ``(X_(n) - X_(n-k)) / (X_(n) - X_(1))``.
Each takes a 1-D array of at least two finite observations, in any
order (checked by ``gamma``'s one sample rule, which ``gof`` and
``montecarlo`` share), and an integer ``k``; ``REDUCTIONS`` holds the
row-wise forms that the Monte Carlo engine and the CLI share, and a
row's value does not depend on the block it is reduced in.
"""

from __future__ import annotations

import numpy as np

from .gamma import _finite_1d, _integer

__all__ = [
    "DegenerateSampleError",
    "z_k",
    "z_k_telescoped",
    "dixon_dk",
]


class DegenerateSampleError(ValueError):
    """The statistic's denominator is zero (all observations equal)."""


def _sorted_values(data) -> np.ndarray:
    """``data`` sorted, after ``gamma``'s sample check (1-D, finite,
    length >= 2)."""
    return np.sort(_finite_1d("data", data, 2))


def _check_k(k, n, upper) -> int:
    k = _integer("k", k)
    if not 1 <= k <= upper:
        raise ValueError(f"k must satisfy 1 <= k <= {upper} for n={n}, got {k}")
    return k


def _in_range(xs: np.ndarray) -> np.ndarray:
    """``xs`` with every row whose largest magnitude exceeds
    ``finfo.max / n^2`` divided by a power of two, so that shifted
    sums and ranges cannot overflow; the ratio statistics are
    scale-free and other rows are returned untouched."""
    n = xs.shape[1]
    peak = np.maximum(abs(xs[:, 0]), abs(xs[:, -1]))
    big = peak > np.finfo(float).max / n**2
    if np.any(big):
        xs = xs.copy()
        xs[big] = np.ldexp(xs[big], -np.frexp(peak[big])[1][:, None])
    return xs


def _shifted_sum(xs: np.ndarray, lo: int) -> np.ndarray:
    """Per sorted row, ``sum_{i > lo} (xs[:, i] - xs[:, lo])``.

    Every term is nonnegative and rounded once, and the terms are added
    strictly left to right, so a row's value is the same whatever the
    number of rows, the SIMD width or the numpy version.  Up to 7 rows
    are accumulated along each row.  More rows are cut into tiles of
    about ``2**16`` values (at least 8 rows), so that a large block's
    transposed copy stays in cache; each tile is copied into a C-ordered
    ``(terms, rows)`` array, shifted in place and reduced over its first
    axis, which numpy adds in index order (pairwise summation is for
    the contiguous axis only, which is why a single row takes the first
    path).
    """
    rows, n = xs.shape
    if rows < 8:
        return np.add.accumulate(xs[:, lo + 1 :] - xs[:, lo : lo + 1], axis=1)[:, -1]
    out = np.empty(rows)
    tiles = max(1, rows // max(8, 2**16 // n))
    for i in range(tiles):
        r = slice(rows * i // tiles, rows * (i + 1) // tiles)
        terms = xs.T[lo:, r].copy()  # C order, never a view of xs
        terms[1:] -= terms[0]
        np.add.reduce(terms[1:], axis=0, out=out[r])
    return out


def _zk_sorted(xs: np.ndarray, k: int) -> np.ndarray:
    # sum_j (n-j+1) Y_j = sum_{i>=2} (X_(i) - X_(1)), and its top k terms
    # sum to sum_{i>n-k} (X_(i) - X_(n-k))
    xs = _in_range(xs)
    n = xs.shape[1]
    denom = _shifted_sum(xs, 0)
    if np.any(denom == 0.0):
        raise DegenerateSampleError("all observations are equal; z_k is undefined")
    return _shifted_sum(xs, n - 1 - k) / denom


def z_k(data, k) -> float:
    """Weighted-spacing ratio for the top ``k`` spacings.

        z_k = sum_{j=n-k+1}^{n} (n-j+1) Y_j / sum_{j=2}^{n} (n-j+1) Y_j

    computed as ``sum_{i>n-k} (X_(i) - X_(n-k)) / sum_{i>=2} (X_(i) - X_(1))``.
    Lies in ``[0, 1]``; equals 1 exactly when ``k = n - 1``; equals the
    Monte Carlo engine's value for the same sorted row bit for bit;
    invariant under rescaling of the sample (rows near overflow are
    rescaled by a power of two first).  Requires ``1 <= k <= n - 1``.
    """
    xs = _sorted_values(data)
    return float(_zk_sorted(xs[np.newaxis], _check_k(k, xs.size, xs.size - 1))[0])


def z_k_telescoped(data, k) -> float:
    """``z_k`` via the telescoped identity, for cross-checking.

    Abel summation collapses the weighted spacing sums to order
    statistics alone:

        z_k = (sum_{i=n-k+1}^{n} X_(i) - k X_(n-k))
              / (sum_i X_i - n X_(1))

    Its sums cancel when the sample's spread is small against its
    level (large Gamma shapes), where it loses digits that ``z_k``
    keeps; at moderate shapes the two agree to roundoff.
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

