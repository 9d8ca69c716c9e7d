"""Order-statistic spacing laws for Gamma samples.

``spacing_law(n, j, m)`` resolves the law of ``Y_j = X_(j) - X_(j-1)``
to one of three routes, each with a pdf and a cdf:

* ``exact``: ``y2_pdf_exact`` / ``y2_mixture``, the closed form for two
  observations with integer shape ``m``, a mixture of ``Gamma(i+1, 1)``.
* ``numeric``: ``spacing_pdf_numeric`` / ``spacing_cdf_numeric``, one
  adaptive vector quadrature each for a whole array of ``y``, for any
  ``n``, any pair of order-statistic ranks and any real shape ``m > 0``.
  The quadrature (a globally adaptive Gauss-Kronrod 21 rule) and the
  cdf's monotone cubic interpolant are small numpy functions here, so
  ``scipy.special`` is the only scipy module the package imports.
* ``claimed``: ``claimed_pdf_yj``, the conjectured law
  ``Gamma(m, sigma/(n-j+1))``.  It is exact when ``m == 1`` and wrong
  otherwise; it is provided so the discrepancy can be measured.

``density_curve`` tabulates a law as a ``DensityCurve``, which holds
arrays only: the CLI's one writer renders it as CSV or JSON.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .gamma import GammaParams, gamma_cdf, gamma_pdf, gamma_quantile, _as_float_array, _maybe_scalar

__all__ = [
    "SpacingIndex",
    "DensityCurve",
    "MixtureDecomposition",
    "QuadratureError",
    "SpacingLaw",
    "spacing_law",
    "y2_pdf_exact",
    "y2_cdf_exact",
    "y2_mixture",
    "spacing_pdf_numeric",
    "spacing_cdf_numeric",
    "claimed_pdf_yj",
    "claimed_cdf_yj",
    "density_curve",
]

LN2 = math.log(2.0)

# Cap on adaptive subdivisions before quadrature is declared failed.
# Converging grids use 2-24 intervals at tol >= 1e-11; y = 0 at
# 0.6 <= m < 1 needs up to about 110.
SUBDIVISION_LIMIT = 128

# Interpolation nodes of the numeric route's cdf in ``spacing_law``.
CDF_NODES = 257

# QUADPACK's qk21 on [-1, 1]: the Kronrod nodes from 1 down to 0 (the rest
# mirror them), their weights, and the Gauss weights of the odd nodes.
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_GK21_X = np.array(_XK + tuple(-x for x in _XK[-2::-1]))
_GK21_WK, _GK21_WG = np.array(_WK + _WK[-2::-1]), np.array(_WG + _WG[::-1])
_STOPS = ("", "Target precision not reached.",
          "Target precision could not be reached due to rounding error.",
          "Non-finite values encountered.")


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class SpacingIndex:
    """Ranks of a (possibly non-consecutive) spacing ``X_(s) - X_(r)``.

    Requires ``1 <= r < s <= n``.  The consecutive spacing
    ``Y_j = X_(j) - X_(j-1)`` is ``SpacingIndex.consecutive(n, j)``.
    """

    n: int
    s: int
    r: int

    def __post_init__(self):
        for name in ("n", "s", "r"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 1 <= self.r < self.s <= self.n:
            raise ValueError(
                f"ranks must satisfy 1 <= r < s <= n, got r={self.r}, s={self.s}, n={self.n}"
            )

    @classmethod
    def consecutive(cls, n: int, j: int) -> "SpacingIndex":
        """Index of ``Y_j = X_(j) - X_(j-1)`` for ``2 <= j <= n``."""
        if isinstance(j, bool) or not isinstance(j, numbers.Integral):
            raise TypeError(f"j must be an integer, got {j!r}")
        if not 2 <= j <= n:
            raise ValueError(f"j must satisfy 2 <= j <= n, got j={j}, n={n}")
        return cls(n=n, s=int(j), r=int(j) - 1)


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Density values tabulated on a strictly increasing grid.

    ``normalization_error`` is ``|trapezoid(values, grid) - 1|``, a
    cheap self-check that the tabulated mass is close to one.
    """

    grid: np.ndarray
    values: np.ndarray
    normalization_error: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        if grid.size < 2:
            raise ValueError("curve needs at least 2 grid points")
        if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be finite and strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("density values must be finite and >= 0")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "normalization_error", float(self.normalization_error))


@dataclass(frozen=True, eq=False)
class SpacingLaw:
    """Pdf and cdf of a spacing law (built by ``spacing_law``), the route
    that computes them (``exact``, ``numeric`` or ``claimed``) and the
    Gamma shape ``m``.  ``pdf`` and ``cdf`` take a float or a 1-D array.
    """

    route: str
    m: float
    pdf: Callable
    cdf: Callable


@dataclass(frozen=True, eq=False)
class MixtureDecomposition:
    """Finite Gamma mixture: ``sum_i weights[i] * Gamma(shapes[i], 1)``."""

    weights: np.ndarray
    shapes: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        shapes = np.asarray(self.shapes, dtype=int)
        if weights.ndim != 1 or shapes.ndim != 1 or weights.shape != shapes.shape:
            raise ValueError("weights and shapes must be 1-D arrays of equal length")
        if weights.size == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and > 0")
        if np.any(shapes < 1):
            raise ValueError("component shapes must be >= 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shapes", shapes)

    def pdf(self, y):
        """Mixture density at ``y``."""
        arr, scalar = _as_float_array(y)
        out = np.zeros_like(arr)
        for w, a in zip(self.weights, self.shapes):
            out += w * gamma_pdf(arr, GammaParams(float(a), 1.0))
        return _maybe_scalar(out, scalar)

    def cdf(self, y):
        """Mixture cumulative distribution at ``y``, clamped to ``[0, 1]``
        (the weighted sum of component cdfs rounds past 1 in the tail)."""
        arr, scalar = _as_float_array(y)
        out = np.zeros_like(arr)
        for w, a in zip(self.weights, self.shapes):
            out += w * gamma_cdf(arr, GammaParams(float(a), 1.0))
        return _maybe_scalar(np.clip(out, 0.0, 1.0), scalar)


def _as_shape_int(m) -> int:
    """Integer shape parameter; rejects non-integral and m < 1."""
    if isinstance(m, bool):
        raise TypeError(f"m must be an integer, got {m!r}")
    if isinstance(m, numbers.Integral):
        mi = int(m)
    elif isinstance(m, float) and m.is_integer():
        mi = int(m)
    else:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if mi < 1:
        raise ValueError(f"m must be >= 1, got {mi}")
    return mi


def _log_binom(n, k):
    return special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)


def _y2_log_coeffs(m: int) -> np.ndarray:
    # log of C(m-1, i) * G(2m - i - 1) / (G(m)^2 * 2^(2(m-1) - i)), i = 0..m-1
    i = np.arange(m, dtype=float)
    return (
        _log_binom(m - 1.0, i)
        + special.gammaln(2.0 * m - i - 1.0)
        - 2.0 * special.gammaln(float(m))
        - (2.0 * (m - 1) - i) * LN2
    )


def y2_pdf_exact(m, y):
    """Exact spacing density for two iid ``Gamma(m, 1)`` observations.

    For integer ``m >= 1`` the spacing ``Y = X_(2) - X_(1)`` has density

        exp(-y) * sum_{i=0}^{m-1} C(m-1, i) G(2m-i-1) y^i
                  / (G(m)^2 * 2^(2(m-1)-i)),   y >= 0.

    Terms are evaluated in log space and accumulated with compensated
    summation, so the result stays accurate for large ``m`` where the
    raw coefficients overflow.

    Parameters
    ----------
    m : int
        Integer shape, at least 1.  Non-integer shapes have no closed
        form here; use ``spacing_pdf_numeric``.
    y : float or array_like

    Returns
    -------
    float or ndarray
        Zero for ``y < 0``.
    """
    mi = _as_shape_int(m)
    arr, scalar = _as_float_array(y)
    logc = _y2_log_coeffs(mi)
    out = np.zeros_like(arr)
    at_zero = arr == 0
    if np.any(at_zero):
        # only the i = 0 term survives at y = 0
        out[at_zero] = math.exp(logc[0])
    pos = arr > 0
    if np.any(pos):
        yp = arr[pos]
        ly = np.log(yp)
        total = np.zeros_like(yp)
        comp = np.zeros_like(yp)
        for i in range(mi):
            term = np.exp(logc[i] + i * ly - yp)
            t = total + term
            comp += np.where(
                np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total
            )
            total = t
        out[pos] = total + comp
    return _maybe_scalar(out, scalar)


def y2_mixture(m) -> MixtureDecomposition:
    """Mixture form of the exact two-observation spacing law.

    ``Y ~ sum_i w_i Gamma(i+1, 1)`` with

        w_i = C(m-1, i) G(2m-i-1) i! / (G(m)^2 * 2^(2(m-1)-i)),

    ``i = 0..m-1``.  The weights are positive and sum to 1; the mixture
    density coincides pointwise with ``y2_pdf_exact``.
    """
    mi = _as_shape_int(m)
    i = np.arange(mi, dtype=float)
    weights = np.exp(_y2_log_coeffs(mi) + special.gammaln(i + 1.0))
    return MixtureDecomposition(weights=weights, shapes=np.arange(1, mi + 1))


def y2_cdf_exact(m, y):
    """Exact cdf of the two-observation spacing: ``sum_i w_i P(i+1, y)``."""
    return y2_mixture(m).cdf(y)


def claimed_pdf_yj(n, j, m, y, sigma=1.0):
    """Density of the conjectured spacing law ``Gamma(m, sigma/(n-j+1))``.

    This is the claim under test, not a true spacing law: it matches the
    quadrature route exactly when ``m == 1`` and disagrees for every
    other shape.
    """
    idx = SpacingIndex.consecutive(n, j)
    params = GammaParams(float(m), float(sigma) / (idx.n - idx.s + 1))
    return gamma_pdf(y, params)


def claimed_cdf_yj(n, j, m, y, sigma=1.0):
    """Cdf companion of ``claimed_pdf_yj``."""
    idx = SpacingIndex.consecutive(n, j)
    params = GammaParams(float(m), float(sigma) / (idx.n - idx.s + 1))
    return gamma_cdf(y, params)


def _checked(y, tol):
    """``(y as a 1-D float array, y was a scalar)``; ValueError unless
    every entry is finite and ``0 < tol < 1``."""
    if not 0 < float(tol) < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    arr, scalar = _as_float_array(y)
    if arr.ndim != 1:
        raise ValueError(f"y must be a float or a 1-D array, got shape {arr.shape}")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"y must be finite, got {bad[0]!r}")
    return arr, scalar


def _gk21(fn, a, b):
    """QUADPACK's ``qk21`` on every interval ``[a[i], b[i]]``, with one call
    of ``fn`` on all their nodes (one row of values per node).

    Returns the integrals ``(len(a), cols)`` and, per interval, the
    max-norm error estimate ``dabs min(1, (200 err / dabs)^1.5)``, at
    least the rounding estimate ``50 eps h int |f|``, and that rounding
    estimate.  The sums run node by node in ``quad_vec``'s order.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    f = fn((c + h * _GK21_X[:, None]).ravel()).reshape(21, a.size, -1)
    s_k = s_abs = s_g = s_dabs = 0.0
    for v, fi in zip(_GK21_WK, f):
        s_k, s_abs = s_k + v * fi, s_abs + v * abs(fi)
    for w, fi in zip(_GK21_WG, f[1::2]):
        s_g = s_g + w * fi
    for v, fi in zip(_GK21_WK, f):
        s_dabs = s_dabs + v * abs(fi - s_k / 2.0)
    h = h[:, None]
    err = np.max(abs((s_k - s_g) * h), axis=1)
    dabs = np.max(abs(s_dabs * h), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = dabs * np.minimum(1.0, (200 * err / dabs) ** 1.5)
    err = np.where((dabs != 0) & (err != 0), scaled, err)
    rounding = np.max(abs(50 * np.finfo(float).eps * h * s_abs), axis=1)
    err = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
    return h * s_k, err, rounding


def _adaptive_gk21(fn, a, b, tol):
    """Globally adaptive GK21 of a vector integrand over ``[a, b]``.

    ``scipy.integrate.quad_vec``'s rules (``norm="max"``, ``epsrel=0``),
    so the same intervals come out.  Each round bisects the intervals of
    largest error until their error sum exceeds ``global_err - tol/8``,
    with one ``fn`` call for all their nodes, and never past
    ``SUBDIVISION_LIMIT`` intervals (``quad_vec`` can overshoot it by a
    round).  Returns ``(integral, global_err + rounding, status,
    intervals)``; status 0 is converged (``global_err < tol/8``), 2 a
    stop on ``global_err`` below the summed rounding estimate, 3 a
    non-finite estimate and 1 ``SUBDIVISION_LIMIT``.
    """
    ig, err, rnd = _gk21(fn, np.array([a]), np.array([b]))
    total, total_err, rounding, parts = ig[0], err[0], rnd[0], [ig[0]]
    heap, status = [(-err[0], a, b, 0)], 1
    while status == 1 and len(heap) < SUBDIVISION_LIMIT:
        # each bisection adds one interval: stop at SUBDIVISION_LIMIT
        todo, err_sum, cap = [], 0.0, min(128, SUBDIVISION_LIMIT - len(heap))
        while heap and len(todo) < cap and not (todo and err_sum > total_err - tol / 8):
            todo.append(heapq.heappop(heap))
            err_sum -= todo[-1][0]
        neg_err, lo, hi, old = zip(*todo)
        lo, hi, k = np.array(lo), np.array(hi), len(todo)
        ends = np.concatenate([lo, 0.5 * (lo + hi), hi])
        ig, err, rnd = _gk21(fn, ends[:-k], ends[k:])
        for i in range(k):
            total = total + (ig[i] + ig[k + i] - parts[old[i]])
            total_err += err[i] + err[k + i] + neg_err[i]
            rounding += rnd[i] + rnd[k + i]
        for q in range(2 * k):
            heapq.heappush(heap, (-err[q], ends[q], ends[q + k], len(parts)))
            parts.append(ig[q])
        status = (0 if total_err < tol / 8 else 2 if total_err < rounding
                  else 1 if np.isfinite(total_err) and np.isfinite(rounding) else 3)
    return total, total_err + rounding, status, len(heap)


def _integrate_over_x(params: GammaParams, integrand, tol, past=0.0):
    """``int_0^U integrand(x, f(x)) dx``, ``U = sigma Q(1 - 1e-14) + past``.

    ``integrand`` maps a 1-D array of ``x`` and the matching weights to
    one row of values per ``x``; all columns are integrated on one
    adaptive GK21 subdivision (``_adaptive_gk21``) until the error
    estimate of the largest entry is below ``tol / 8``.  A stop on
    rounding error counts as converged if that estimate, rounding
    included, is still within ``tol``.  For ``m < 1`` the density ``f``
    is singular at 0, so the integral runs over ``u = (x/sigma)**m`` and
    passes the bounded weight ``f(x) dx / du = exp(-x/sigma) / G(m+1)``
    in place of ``f(x)``.
    """
    m, sigma = params.m, params.sigma
    upper = sigma * float(gamma_quantile(1.0 - 1e-14, GammaParams(m, 1.0))) + past
    if m >= 1.0:
        def fn(x):
            return integrand(x, gamma_pdf(x, params))
    else:
        lgm1 = math.lgamma(m + 1.0)

        def fn(u):
            t = u ** (1.0 / m)
            return integrand(sigma * t, np.exp(-t - lgm1))

        upper = (upper / sigma) ** m
    value, err, status, intervals = _adaptive_gk21(fn, 0.0, upper, tol)
    if status != 0 and not (status == 2 and err <= tol):
        raise QuadratureError(
            f"quadrature on [0, {upper:g}] did not converge to {tol:g} in "
            f"{intervals} intervals (limit {SUBDIVISION_LIMIT}): {_STOPS[status]}"
        )
    return value


def spacing_pdf_numeric(idx: SpacingIndex, params: GammaParams, y, tol=1e-9):
    """Spacing density ``f_{X_(s)-X_(r)}(y)`` by adaptive quadrature.

    Integrates

        n! / ((r-1)! (s-r-1)! (n-s)!) *
        F(x)^(r-1) f(x) [F(x+y) - F(x)]^(s-r-1) f(x+y) [1 - F(x+y)]^(n-s)

    over ``x in (0, U)`` with ``U = sigma * Q(1 - 1e-14) + max(y)``,
    where ``f``/``F``/``Q`` are the ``Gamma(m, sigma)`` density, cdf and
    quantile (for ``m < 1`` in the variable ``u = (x/sigma)**m``).  All
    entries of ``y`` share one adaptive subdivision of that range.
    Works for any real shape ``m > 0`` and any rank pair, except at
    ``y = 0`` for ``m <= 1/2``, where the density is infinite; at
    ``y = 0`` for ``1/2 < m`` below about 0.6 the singular integrand
    needs more than ``SUBDIVISION_LIMIT`` intervals (QuadratureError).

    Parameters
    ----------
    idx : SpacingIndex
    params : GammaParams
    y : float or 1-D array_like
        Points of evaluation; the density is 0 for ``y < 0``.  A float
        returns a float, an array an array of the same length.
    tol : float
        Absolute error budget, a bound on the largest error over ``y``.

    Raises
    ------
    ValueError
        If an entry of ``y`` is not finite or ``tol`` is not in (0, 1).
    QuadratureError
        If the adaptive scheme cannot certify the tolerance.
    """
    arr, scalar = _checked(y, tol)
    out = np.zeros_like(arr)
    live = arr >= 0
    if np.any(live):
        ys = arr[live]
        n, s, r = idx.n, idx.s, idx.r
        coef = float(math.factorial(n) // (math.factorial(r - 1) * math.factorial(s - r - 1)
                                           * math.factorial(n - s)))
        a_exp, b_exp, c_exp = r - 1, s - r - 1, n - s
        m, sigma = params.m, params.sigma

        def integrand(x, w):
            x = x[:, None]
            t = x + ys
            val = w[:, None] * gamma_pdf(t, params)
            if a_exp:
                val *= special.gammainc(m, x / sigma) ** a_exp
            if b_exp:
                mid = special.gammainc(m, t / sigma) - special.gammainc(m, x / sigma)
                val *= np.maximum(mid, 0.0) ** b_exp
            if c_exp:
                val *= special.gammaincc(m, t / sigma) ** c_exp
            return val

        value = _integrate_over_x(params, integrand, tol / coef, past=ys.max())
        out[live] = np.maximum(0.0, coef * value)
    return _maybe_scalar(out, scalar)


def spacing_cdf_numeric(idx: SpacingIndex, params: GammaParams, y, tol=1e-9):
    """Spacing cdf ``P(X_(s) - X_(r) <= y)`` by one adaptive quadrature.

    The joint density of ``(X_(r), X_(s))`` integrates over the upper
    rank to an incomplete beta function (David & Nagaraja, *Order
    Statistics*, 2.2).  With ``b = s-r-1``, ``c = n-s``, ``S = 1 - F``:

        P(Y <= y) = n! / ((r-1)! (n-r)!) *
            int F(x)^(r-1) f(x) S(x)^(b+c+1) I_z(b+1, c+1) dx,

    ``1 - z = S(x+y) / S(x)``.  ``I_z = betaincc(c+1, b+1, S(x+y)/S(x))``
    does not cancel at large ``x``.  ``x`` runs over ``(0, U)``,
    ``U = sigma * Q(1 - 1e-14)``, as in ``spacing_pdf_numeric``: ``y``
    may be a float or a 1-D array, all entries share one adaptive
    subdivision, and ``tol`` bounds the largest error over ``y``.  The
    result is 0 for ``y <= 0`` and clamped to ``[0, 1]``.
    """
    arr, scalar = _checked(y, tol)
    out = np.zeros_like(arr)
    live = arr > 0
    if np.any(live):
        ys = arr[live]
        n, s, r = idx.n, idx.s, idx.r
        scale = float(math.factorial(n) // (math.factorial(r - 1) * math.factorial(n - r)))
        m, sigma = params.m, params.sigma

        def integrand(x, w):
            x = x[:, None]
            sx = special.gammaincc(m, x / sigma)
            # a row where S(x) underflows to 0 is 0 through sx ** (n - r)
            ratio = special.gammaincc(m, (x + ys) / sigma) / np.where(sx > 0.0, sx, 1.0)
            val = w[:, None] * sx ** (n - r) * special.betaincc(n - s + 1, s - r, ratio)
            if r > 1:
                val *= special.gammainc(m, x / sigma) ** (r - 1)
            return val

        value = _integrate_over_x(params, integrand, tol / scale)
        out[live] = np.clip(scale * value, 0.0, 1.0)
    return _maybe_scalar(out, scalar)


def _monotone_cubic(x, y):
    """Monotone piecewise cubic Hermite interpolant through ``(x, y)``.

    Interior slopes are Fritsch & Butland's weighted harmonic means of
    the neighbouring secants, 0 where a secant is 0 or the secants change
    sign; end slopes are the shape-preserving three-point estimates.
    These are the slopes of scipy's ``PchipInterpolator``.  The returned
    function takes points in ``[x[0], x[-1]]``; needs ``len(x) >= 3``.
    """
    h, d = np.diff(x), np.diff(y) / np.diff(x)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(d[1:]) != np.sign(d[:-1])) | (d[1:] == 0) | (d[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / d[:-1] + w2 / d[1:]) / (w1 + w2))

    def end(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0) else e

    slope = np.concatenate([[end(h[0], h[1], d[0], d[1])], np.where(flat, 0.0, inner),
                            [end(h[-1], h[-2], d[-1], d[-2])]])
    t = (slope[:-1] + slope[1:] - 2 * d) / h
    a2, a3 = (d - slope[:-1]) / h - t, t / h  # coefficients of s^2 and s^3

    def evaluate(v):
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, x.size - 2)
        s = v - x[i]
        s2 = s * s
        return y[i] + slope[i] * s + a2[i] * s2 + a3[i] * (s2 * s)

    return evaluate


def spacing_law(n, j, m, route="auto", tol=1e-9) -> SpacingLaw:
    """Law of ``Y_j = X_(j) - X_(j-1)`` for ``n`` iid ``Gamma(m, 1)`` draws.

    ``route="auto"`` is ``exact`` when ``n = j = 2`` and ``m`` is an
    integer ``>= 1``, else ``numeric``, whose quadrature tolerance is
    ``tol`` and whose cdf, built on first call, is a monotone cubic
    (``_monotone_cubic``) through ``spacing_cdf_numeric`` at ``CDF_NODES``
    nodes ``ymax t^3`` (``t`` uniform on [0, 1], ``ymax = 2 Q(1 - 1e-8)``),
    constant outside
    ``[0, ymax]``.  Raises ValueError for an unknown route, ``exact``
    outside its domain, bad ``n``, ``j``, ``m``, or ``tol`` not in (0, 1).
    """
    idx = SpacingIndex.consecutive(n, j)
    params = GammaParams(m, 1.0)
    m = params.m
    _checked(0.0, tol)  # reject a bad tol before any quadrature runs
    exact_ok = idx.n == idx.s == 2 and m.is_integer()  # m > 0, so m >= 1
    if route == "auto":
        route = "exact" if exact_ok else "numeric"
    if route == "exact":
        if not exact_ok:
            raise ValueError("the exact route needs integer m >= 1 and n = j = 2; "
                             "use the numeric route for this configuration")
        return SpacingLaw(route, m, lambda y: y2_pdf_exact(m, y),
                          lambda y: y2_cdf_exact(m, y))
    if route == "claimed":
        return SpacingLaw(route, m, lambda y: claimed_pdf_yj(n, j, m, y),
                          lambda y: claimed_cdf_yj(n, j, m, y))
    if route != "numeric":
        raise ValueError(f"route must be auto, exact, numeric or claimed, got {route!r}")

    @functools.cache
    def interpolant():
        ymax = 2.0 * float(gamma_quantile(1.0 - 1e-8, params))
        nodes = ymax * np.linspace(0.0, 1.0, CDF_NODES) ** 3
        values = spacing_cdf_numeric(idx, params, nodes, tol)
        return ymax, _monotone_cubic(nodes, np.maximum.accumulate(values))

    def cdf(y):
        ymax, interp = interpolant()
        arr, scalar = _as_float_array(y)
        out = np.clip(interp(np.clip(arr, 0.0, ymax)), 0.0, 1.0)
        # where the cdf is flat, rounding in the cubic wiggles by an ulp;
        # a running maximum in y keeps the returned values monotone
        order = np.argsort(arr, kind="stable")
        out[order] = np.maximum.accumulate(out[order])
        return _maybe_scalar(out, scalar)

    return SpacingLaw(route, m, lambda y: spacing_pdf_numeric(idx, params, y, tol), cdf)


def density_curve(law, y_max, points) -> DensityCurve:
    """Tabulate a density on a uniform grid ``[0, y_max]``.

    Parameters
    ----------
    law : SpacingLaw or callable
        Its ``pdf`` (or the callable itself) maps a grid to values >= 0.
        At ``law.m < 1`` (unbounded at 0) the grid starts half a step in.
    y_max : float
        Right endpoint, > 0.
    points : int
        Grid size, at least 2.

    Returns
    -------
    DensityCurve
        With ``normalization_error = |trapezoid(values) - 1|``.
    """
    y_max = float(y_max)
    if not math.isfinite(y_max) or y_max <= 0:
        raise ValueError(f"y_max must be finite and > 0, got {y_max!r}")
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise TypeError(f"points must be an integer, got {points!r}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    is_law = isinstance(law, SpacingLaw)
    grid = np.linspace(0.0, y_max, int(points))
    if is_law and law.m < 1:
        grid[0] = grid[1] / 2.0
    values = np.asarray((law.pdf if is_law else law)(grid), dtype=float)
    if values.shape != grid.shape:
        raise ValueError("pdf callable must return one value per grid point")
    err = abs(float(np.trapezoid(values, grid)) - 1.0)
    return DensityCurve(grid=grid, values=values, normalization_error=err)
