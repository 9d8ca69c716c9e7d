"""Consecutive spacing laws of Gamma samples.

``spacing_law(n, j, m)`` is the one way to the law of
``Y_j = X_(j) - X_(j-1)``.  It resolves one of three routes, each with a
pdf and a cdf:

* ``exact``: ``y2_pdf_exact`` / ``y2_mixture``, the closed form for two
  observations with integer shape ``1 <= m <= EXACT_MAX_M`` (1075), a
  mixture of ``Gamma(i+1, 1)``.  One check, ``_exact_m``, holds that
  domain for both functions and for ``spacing_law``, and raises before
  any array is built.
* ``numeric``: ``spacing_pdf_numeric`` / ``spacing_cdf_numeric``, one
  adaptive vector quadrature each for a whole array of ``y``, for any
  ``n``, any ``j`` and real shapes ``m >= 0.03``.  Smaller shapes were
  measured only at ``j = 2``: the cdf raises ``QuadratureError`` at
  ``n = 2`` for ``m <= 0.005``, at ``n`` = 10 to 1000 for ``m = 0.01``
  and at ``n`` = 10000 and 20000 for ``m = 0.02``.  Both are one integral
  against the law of ``X_(j-1)`` (``_integrate_over_x``), evaluated in
  log space and started at breakpoints from that law, so neither a
  large coefficient nor mass crowded near 0 at large ``n`` is lost.  The
  quadrature (a globally adaptive Gauss-Kronrod 21 rule) and the cdf's
  monotone cubic interpolant are small numpy functions here, so
  ``scipy.special`` is the only scipy module the package imports.
* ``claimed``: the conjectured law ``Gamma(m, 1/(n-j+1))``.  It is exact
  when ``m == 1`` and wrong otherwise; it is provided so the discrepancy
  can be measured.

``density_curve`` tabulates a law as a ``DensityCurve``, which holds
arrays only: the CLI's one writer renders it as CSV or JSON.

Every pdf and cdf here takes its points ``y`` by ``gamma``'s one point
rule, ``_pointwise``: a float or a finite 1-D array, else
``ValueError``; the value is 0 below 0, and each pdf and cdf takes its
formula's value at 0.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .gamma import (GammaParams, _finite_1d, _integer, _level, _pointwise, gamma_cdf,
                    gamma_pdf, gamma_quantile)

__all__ = [
    "SpacingIndex",
    "DensityCurve",
    "MixtureDecomposition",
    "QuadratureError",
    "SpacingLaw",
    "spacing_law",
    "y2_pdf_exact",
    "y2_mixture",
    "spacing_pdf_numeric",
    "spacing_cdf_numeric",
    "density_curve",
]

LN2 = math.log(2.0)

# Cap on adaptive subdivisions before quadrature is declared failed.
# Converging grids use 9-19 intervals at tol >= 1e-11 (8 start at the
# breakpoints); y = 0 at 0.6 <= m < 1 needs up to about 110.
SUBDIVISION_LIMIT = 128

# Levels of ``Beta(j-1, n-j+2)``, the law of ``F(X_(j-1))``, whose
# quantiles start the numeric routes' subdivision (``_integrate_over_x``).
# The tail levels matter: at n = 5000, j = 2, m = 1 the last 1e-3 of that
# law's mass in one wide interval was invisible to GK21 (error 8.6e-4).
BREAK_LEVELS = (1e-12, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-12)

# Intervals whose GK21 nodes go to the integrand in one call.  Two keep
# its temporaries at the size of one bisection, (42, len(y)), however
# many intervals a round or the breakpoints start.
_GK21_GROUP = 2

# Interpolation nodes of the numeric route's cdf in ``spacing_law``.
CDF_NODES = 257

# Largest shape of the exact route.  The smallest weight of ``y2_mixture``
# is exactly 2^-(m-1): at 1075 it is 2^-1074, the smallest subnormal; at
# 1076 it would round to it or to 0 depending on the last ulp of gammaln.
EXACT_MAX_M = 1075

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
    """The consecutive spacing ``Y_j = X_(j) - X_(j-1)`` of ``n``
    observations; requires ``2 <= j <= n``."""

    n: int
    j: int

    def __post_init__(self):
        for name in ("n", "j"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 2 <= self.j <= self.n:
            raise ValueError(f"j must satisfy 2 <= j <= n, got j={self.j}, n={self.n}")


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Density values tabulated on a strictly increasing grid.

    ``normalization_error`` compares the trapezoid mass of ``values``
    with the mass the curve should carry (see ``density_curve``), a
    cheap self-check of the tabulated values.
    """

    grid: np.ndarray
    values: np.ndarray
    normalization_error: float

    def __post_init__(self):
        grid, values = _finite_1d("grid", self.grid, 2), _finite_1d("values", self.values, 2)
        if grid.shape != values.shape:
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be >= 0")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "normalization_error", float(self.normalization_error))


@dataclass(frozen=True, eq=False)
class SpacingLaw:
    """Pdf and cdf of a spacing law (built by ``spacing_law``), the route
    that computes them (``exact``, ``numeric`` or ``claimed``) and the
    Gamma shape ``m``.  ``pdf`` and ``cdf`` take ``y`` by the point rule
    (``_pointwise``): a float or a finite 1-D array, else ``ValueError``;
    a float gives a float, an array an array of the same length.  Both
    are 0 below 0 and take their formula's value at 0.
    """

    route: str
    m: float
    pdf: Callable
    cdf: Callable


@dataclass(frozen=True, eq=False)
class MixtureDecomposition:
    """Finite Gamma mixture: ``sum_i weights[i] * Gamma(shapes[i], 1)``,
    with weights > 0 and integer shapes >= 1."""

    weights: np.ndarray
    shapes: np.ndarray

    def __post_init__(self):
        weights, shapes = _finite_1d("weights", self.weights), _finite_1d("shapes", self.shapes)
        if weights.shape != shapes.shape:
            raise ValueError("weights and shapes must have equal length")
        if np.any(weights <= 0):
            raise ValueError("weights must be > 0")
        if not np.all((shapes >= 1) & (shapes <= 2**53) & (shapes % 1 == 0)):
            raise ValueError("component shapes must be integers from 1 to 2**53")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shapes", shapes.astype(int))

    def pdf(self, y):
        """Mixture density at ``y``."""
        return _pointwise(y, lambda y: self._sum(gamma_pdf, y))

    def cdf(self, y):
        """Mixture cumulative distribution at ``y``, clamped to ``[0, 1]``
        (the weighted sum of component cdfs rounds past 1 in the tail)."""
        return _pointwise(y, lambda y: np.clip(self._sum(gamma_cdf, y), 0.0, 1.0))

    def _sum(self, fn, y):
        out = np.zeros_like(y)
        for w, a in zip(self.weights, self.shapes):
            out += w * fn(y, GammaParams(float(a), 1.0))
        return out


def _exact_m(m, n=2, j=2) -> int:
    """``m`` as an ``int`` inside the exact route's domain: ``n = j = 2``
    and an integer shape ``1 <= m <= EXACT_MAX_M``.  ``GammaParams``'
    rule first (TypeError or ValueError), then ValueError, before any
    array is built."""
    m = GammaParams(m).m
    if not (n == j == 2 and m.is_integer()):
        raise ValueError("the exact route needs integer m >= 1 and n = j = 2; "
                         "use the numeric route for this configuration")
    if m > EXACT_MAX_M:
        raise ValueError(f"the exact route needs m <= {EXACT_MAX_M}, where its "
                         "mixture weights are positive in float64; use the numeric "
                         "route for this configuration")
    return int(m)


def _y2_log_coeffs(m: int) -> np.ndarray:
    # log of C(m-1, i) * G(2m - i - 1) / (G(m)^2 * 2^(2(m-1) - i)), i = 0..m-1
    i = np.arange(m, dtype=float)
    return (
        special.gammaln(float(m)) - special.gammaln(i + 1.0) - special.gammaln(m - i)
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
        Integer shape from 1 to ``EXACT_MAX_M`` (ValueError outside).
        Non-integer shapes have no closed form here; use
        ``spacing_pdf_numeric``.
    y : float or 1-D array_like

    Returns
    -------
    float or ndarray
        Zero for ``y < 0``.
    """
    mi = _exact_m(m)
    logc = _y2_log_coeffs(mi)

    def pdf(y):
        with np.errstate(divide="ignore"):  # log 0 = -inf: y^i is 0 at y = 0 for i > 0
            ly = np.log(y)
        total = np.zeros_like(y)
        comp = np.zeros_like(y)
        for i in range(mi):
            # the i = 0 term has no y^i factor (0 log 0 is nan)
            term = np.exp(logc[i] + i * ly - y if i else logc[0] - y)
            t = total + term
            comp += np.where(
                np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total
            )
            total = t
        return total + comp

    return _pointwise(y, pdf)


def y2_mixture(m) -> MixtureDecomposition:
    """Mixture form of the exact two-observation spacing law.

    ``Y ~ sum_i w_i Gamma(i+1, 1)`` with

        w_i = C(m-1, i) G(2m-i-1) i! / (G(m)^2 * 2^(2(m-1)-i)),

    ``i = 0..m-1`` and integer ``1 <= m <= EXACT_MAX_M``.  The weights
    are positive and sum to 1; the mixture density coincides pointwise
    with ``y2_pdf_exact``.
    """
    mi = _exact_m(m)
    i = np.arange(mi, dtype=float)
    weights = np.exp(_y2_log_coeffs(mi) + special.gammaln(i + 1.0))
    return MixtureDecomposition(weights=weights, shapes=np.arange(1, mi + 1))


def _gk21(fn, a, b):
    """QUADPACK's ``qk21`` on every interval ``[a[i], b[i]]``, with one call
    of ``fn`` per ``_GK21_GROUP`` intervals on all their nodes (one row of
    values per node), so the integrand's temporaries keep that size.

    Returns the integrals ``(len(a), cols)`` and, per interval, the
    max-norm error estimate ``dabs min(1, (200 err / dabs)^1.5)``, at
    least the rounding estimate ``50 eps h int |f|``, and that rounding
    estimate.  The sums run node by node in ``quad_vec``'s order, each
    interval on its own, so the grouping does not change a bit.
    """
    groups = [_qk21(fn, a[i:i + _GK21_GROUP], b[i:i + _GK21_GROUP])
              for i in range(0, a.size, _GK21_GROUP)]
    return tuple(np.concatenate(parts) for parts in zip(*groups))


def _qk21(fn, a, b):
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


def _adaptive_gk21(fn, points, tol):
    """Globally adaptive GK21 of a vector integrand over
    ``[points[0], points[-1]]``, starting from the intervals between
    consecutive ``points`` (increasing).

    ``scipy.integrate.quad_vec``'s rules (``norm="max"``, ``epsrel=0``,
    the inner points as ``points=``), so the same intervals come out: the
    starting intervals are evaluated in one pass, and convergence is
    tested only after a bisection round.  Each round bisects the
    intervals of largest error until their error sum exceeds
    ``global_err - tol/8``, and never past ``SUBDIVISION_LIMIT``
    intervals (``quad_vec`` can overshoot it by a round).  Returns
    ``(integral, global_err + rounding, status, intervals)``; status 0 is
    converged (``global_err < tol/8``), 2 a stop on ``global_err`` below
    the summed rounding estimate, 3 a non-finite estimate and 1
    ``SUBDIVISION_LIMIT``.
    """
    parts, err, rnd = _gk21(fn, points[:-1], points[1:])
    parts = list(parts)
    total, total_err, rounding = parts[0], err[0], rnd[0]
    for q in range(1, len(parts)):
        total, total_err, rounding = total + parts[q], total_err + err[q], rounding + rnd[q]
    heap = [(-e, lo, hi, q) for q, (e, lo, hi) in enumerate(zip(err, points[:-1], points[1:]))]
    heapq.heapify(heap)
    status = 1
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


def _integrate_over_x(idx: SpacingIndex, params: GammaParams, integrand, tol):
    """``n int_0^U C(n-1, j-2) F(x)^(j-2) f(x) h(x) dx``, ``U = sigma Q(1 - 1e-14)``.

    ``n C(n-1, j-2) F(x)^(j-2) f(x) S(x)^c``, ``c = n-j+1``, is the
    density of ``X_(j-1)``, and given ``X_(j-1) = x``, ``P(Y_j > y) =
    (S(x+y)/S(x))^c`` (the Markov property of order statistics; David &
    Nagaraja, *Order Statistics*, 2.2).  So both numeric routes are this
    one integral, each with its own factor in ``y``: the cdf's ``h`` is
    ``S(x)^c - S(x+y)^c``, the pdf's its y-derivative ``c f(x+y)
    S(x+y)^(c-1)``.  ``integrand`` maps a 1-D array of ``t = x/sigma``
    and the log of the matching weights ``C(n-1, j-2) F(x)^(j-2) f(x)
    dx/du`` to one row of ``weight * h`` per ``t``.  All columns are
    integrated on one adaptive GK21 subdivision (``_adaptive_gk21``)
    until the error estimate of the largest entry is below ``tol / (8
    n)``.  A stop on rounding error counts as converged if that
    estimate, rounding included, is still within ``tol / n``.

    The variable is ``u = t^a``, ``a = min(m, 1)``, whose weight stays
    bounded where ``f`` is singular at 0 (``m < 1``).  The subdivision
    starts at the breakpoints ``t = Q(v)``, with ``v`` the
    ``BREAK_LEVELS`` quantiles of ``Beta(j-1, n-j+2)``, the law of
    ``F(X_(j-1))`` (David & Nagaraja, 2.1): between them lies the mass of
    ``X_(j-1)``, which a single starting interval can miss at large
    ``n``.  ``log C(n-1, j-2)`` is an exact sum of the logs of ``k =
    min(j-2, n-j+1)`` ratios.
    """
    n, j, m = idx.n, idx.j, params.m
    a, k = min(m, 1.0), min(j - 2, n - j + 1)
    levels = special.betaincinv(j - 1, n - j + 2, BREAK_LEVELS)
    ends = special.gammaincinv(m, np.append(levels, 1.0 - 1e-14)) ** a
    upper = ends[-1]
    log_coef = math.fsum(np.log(np.arange(n - k, n) / np.arange(1, k + 1)))
    log_norm = math.lgamma(m) + math.log(a)

    def fn(u):
        t = u ** (1.0 / a)
        log_w = (m / a - 1.0) * np.log(u) - t - log_norm + log_coef
        if j > 2:
            log_w = log_w + (j - 2) * np.log(special.gammainc(m, t))
        return integrand(t, log_w)

    inner = np.unique(ends[(ends > 0.0) & (ends < upper)])
    with np.errstate(divide="ignore"):  # log 0 = -inf where F or S underflows
        value, err, status, intervals = _adaptive_gk21(
            fn, np.concatenate([[0.0], inner, [upper]]), tol / n)
    if status != 0 and not (status == 2 and err <= tol / n):
        raise QuadratureError(
            f"quadrature on [0, {upper:g}] did not converge to {tol / n:g} in "
            f"{intervals} intervals (limit {SUBDIVISION_LIMIT}): {_STOPS[status]}"
        )
    return n * value


def spacing_pdf_numeric(idx: SpacingIndex, params: GammaParams, y, tol=1e-9):
    """Density of the spacing ``Y_j = X_(j) - X_(j-1)`` by adaptive quadrature.

    With ``S = 1 - F`` and ``c = n-j+1``, the y-derivative of the cdf
    integral of ``spacing_cdf_numeric``:

        n! / ((j-2)! (n-j)!) *
            int F(x)^(j-2) f(x) f(x+y) S(x+y)^(n-j) dx,

    where ``f``/``F`` are the ``Gamma(m, sigma)`` density and cdf.  Its
    factor in ``y`` for ``_integrate_over_x``, which holds the range,
    the variable and the weight in ``x``, is ``c f(x+y) S(x+y)^(c-1)``;
    the product is one ``exp`` of its log, so neither the coefficient
    overflows nor the powers of ``F`` and ``S`` underflow at large ``n``.
    All entries of ``y`` share one adaptive subdivision.  Works for
    shapes ``m >= 0.03`` (below, see the module docstring), any ``n``
    and any ``j``, except at ``y = 0``
    for ``m <= 1/2``, where the density is infinite; at ``y = 0`` for
    ``1/2 < m`` below about 0.6 the singular integrand needs more than
    ``SUBDIVISION_LIMIT`` intervals (QuadratureError).

    Parameters
    ----------
    idx : SpacingIndex
    params : GammaParams
    y : float or 1-D array_like
        Points of evaluation; the density is 0 for ``y < 0``.  A float
        returns a float, an array an array of the same length.
    tol : float
        Absolute error budget, a bound on the largest error over ``y``
        on the quadrature's own estimate.

    Raises
    ------
    ValueError
        If ``y`` is not a float or a finite 1-D array, or ``tol`` is not in (0, 1).
    QuadratureError
        If the adaptive scheme cannot certify the tolerance.
    """
    _level("tol", tol)
    m, sigma, c = params.m, params.sigma, idx.n - idx.j + 1
    log_c = math.log(c) - math.lgamma(m) - math.log(sigma)

    def pdf(y):
        z = y / sigma

        def integrand(t, log_w):
            s = t[:, None] + z
            log_f = (log_w + log_c)[:, None] - s + (m - 1.0) * np.log(s)
            if c > 1:
                log_f += (c - 1) * np.log(special.gammaincc(m, s))
            return np.exp(log_f)

        return np.maximum(0.0, _integrate_over_x(idx, params, integrand, tol))

    return _pointwise(y, pdf)


def spacing_cdf_numeric(idx: SpacingIndex, params: GammaParams, y, tol=1e-9):
    """Cdf ``P(Y_j <= y)`` of the spacing ``Y_j = X_(j) - X_(j-1)`` by one
    adaptive quadrature.

    The joint density of ``(X_(j-1), X_(j))`` integrates over the upper
    rank in closed form (David & Nagaraja, *Order Statistics*, 2.2).
    With ``S = 1 - F`` and ``c = n-j+1``:

        P(Y_j <= y) = n! / ((j-2)! c!) *
            int F(x)^(j-2) f(x) [S(x)^c - S(x+y)^c] dx.

    The bracket, the factor in ``y`` of ``_integrate_over_x``, is
    ``S(x)^c * -expm1(c (log S(x+y) - log S(x)))``, which does not
    cancel at small ``y`` or at large ``x``.  ``y`` may be a float or a
    1-D array, all entries share one adaptive subdivision, and ``tol``
    bounds the largest error over ``y``.  The result is 0 for ``y < 0``,
    the formula's exact 0 at ``y = 0``, and clamped to ``[0, 1]``.
    """
    _level("tol", tol)
    m, c = params.m, idx.n - idx.j + 1

    def cdf(y):
        z = y / params.sigma

        def integrand(t, log_w):
            log_st = np.log(special.gammaincc(m, t))
            # log S(x+y)/S(x) <= 0, but it rounds above 0 at y of an ulp
            log_ratio = np.log(special.gammaincc(m, t[:, None] + z)) - log_st[:, None]
            return np.exp(log_w + c * log_st)[:, None] * -np.expm1(c * np.minimum(log_ratio, 0.0))

        return np.clip(_integrate_over_x(idx, params, integrand, tol), 0.0, 1.0)

    return _pointwise(y, cdf)


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
    integer from 1 to ``EXACT_MAX_M``, else ``numeric``, whose quadrature
    tolerance is ``tol`` and whose cdf, built on first call, is a
    monotone cubic (``_monotone_cubic``) through ``spacing_cdf_numeric``
    at ``CDF_NODES`` nodes ``ymax t^3`` (``t`` uniform on [0, 1],
    ``ymax = 2 Q(1 - 1e-8)``), constant outside ``[0, ymax]``, except
    inside ``(0, nodes[1])``, whose points take one direct
    ``spacing_cdf_numeric`` call: near 0 the cubic can miss mass (at
    n = j = 2, m = 0.01 the law puts 0.70 below 1e-8, the cubic 0.0065).
    Returned values are monotone in ``y``.  Raises ValueError for an
    unknown route, ``exact`` outside its domain, bad ``n``, ``j``, ``m``,
    or ``tol`` not in (0, 1).  The first cdf call raises QuadratureError
    unless the table's last value, at ``ymax``, is within ``tol`` of 1.
    """
    idx = SpacingIndex(n, j)
    params = GammaParams(m, 1.0)
    m = params.m
    _level("tol", tol)  # reject a bad tol before any quadrature runs
    if route in ("auto", "exact"):
        try:
            _exact_m(m, idx.n, idx.j)
        except ValueError:
            if route == "exact":
                raise
            route = "numeric"
        else:
            return SpacingLaw("exact", m, lambda y: y2_pdf_exact(m, y), y2_mixture(m).cdf)
    if route == "claimed":
        claimed = GammaParams(m, 1 / (idx.n - idx.j + 1))
        return SpacingLaw(route, m, lambda y: gamma_pdf(y, claimed),
                          lambda y: gamma_cdf(y, claimed))
    if route != "numeric":
        raise ValueError(f"route must be auto, exact, numeric or claimed, got {route!r}")

    @functools.cache
    def interpolant():
        ymax = 2.0 * float(gamma_quantile(1.0 - 1e-8, params))
        nodes = ymax * np.linspace(0.0, 1.0, CDF_NODES) ** 3
        values = np.maximum.accumulate(spacing_cdf_numeric(idx, params, nodes, tol))
        if values[-1] < 1.0 - tol:  # mass the quadrature missed, or ymax too small
            raise QuadratureError(f"the numeric cdf reaches {values[-1]:.6g} at ymax = "
                                  f"{ymax:g}, not 1 within {tol:g}")
        return ymax, nodes[1], _monotone_cubic(nodes, values)

    def on_support(y):
        ymax, first, interp = interpolant()
        out = np.clip(interp(np.minimum(y, ymax)), 0.0, 1.0)
        low = (0 < y) & (y < first)  # the table is exact at its node 0
        if np.any(low):
            out[low] = spacing_cdf_numeric(idx, params, y[low], tol)
        # where the cdf is flat, rounding in the cubic wiggles by an ulp;
        # a running maximum in y keeps the returned values monotone
        order = np.argsort(y, kind="stable")
        out[order] = np.maximum.accumulate(out[order])
        return out

    return SpacingLaw(route, m, lambda y: spacing_pdf_numeric(idx, params, y, tol),
                      lambda y: _pointwise(y, on_support))


def density_curve(law: SpacingLaw, y_max, points) -> DensityCurve:
    """Tabulate a spacing law's density on a uniform grid ``[0, y_max]``.

    Parameters
    ----------
    law : SpacingLaw
        From ``spacing_law``; its ``pdf`` is evaluated on the grid.  At
        ``law.m < 1`` (unbounded at 0) the grid starts half a step in.
    y_max : float
        Right endpoint, > 0.
    points : int
        Grid size, at least 2.

    Returns
    -------
    DensityCurve
        With ``normalization_error = |trapezoid(values) - 1|``, or at
        ``law.m < 1`` ``|trapezoid(values) - (F(y_max) - F(y_0))|`` with
        ``F = law.cdf``: there most of the mass can lie below the first
        grid point ``y_0`` (92 % at m = 0.05, n = 3, j = 2), so a mass
        of one would flag a correct curve.
    """
    y_max = float(y_max)
    if not math.isfinite(y_max) or y_max <= 0:
        raise ValueError(f"y_max must be finite and > 0, got {y_max!r}")
    grid = np.linspace(0.0, y_max, _integer("points", points, 2))
    if law.m < 1:
        grid[0] = grid[1] / 2.0
    values = law.pdf(grid)
    mass = 1.0 if law.m >= 1 else float(law.cdf(grid[-1]) - law.cdf(grid[0]))
    err = abs(float(np.trapezoid(values, grid)) - mass)
    return DensityCurve(grid=grid, values=values, normalization_error=err)
