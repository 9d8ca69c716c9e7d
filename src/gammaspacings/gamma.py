"""Gamma distribution primitives and reproducible variate generation.

Shape/scale convention throughout: ``Gamma(m, sigma)`` has density
``x**(m-1) * exp(-x/sigma) / (Gamma(m) * sigma**m)`` on ``x > 0``,
mean ``m*sigma`` and variance ``m*sigma**2``.

Every pdf and cdf of the package, here and in ``spacings``, takes its
points by one rule, ``_pointwise``: a float or a finite 1-D array (a
float gives a float, an array an array of the same length), else
``ValueError``; the value is 0 below 0, and each pdf and cdf takes its
formula's value at 0.

Random streams are SFC64 generators keyed by the pair
``(seed, stream_index)`` through numpy's child-stream seeding: the same
pair always yields the same stream, independent of how many other
streams were created before it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GammaParams",
    "RngStream",
    "gamma_pdf",
    "gamma_cdf",
    "gamma_quantile",
]


def _integer(name, value, low=None) -> int:
    """``value`` as an ``int``: any integer, numpy's included, but not a
    ``bool``; ``ValueError`` below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _level(name, value) -> float:
    """``value`` as a float strictly inside (0, 1); ``ValueError`` otherwise,
    nan included."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def _finite_1d(name, values, low=1) -> np.ndarray:
    """``values`` as a 1-D float array of at least ``low`` entries, all
    finite; ``ValueError`` otherwise."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < low or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite 1-D array of length >= {low}")
    return arr


@dataclass(frozen=True)
class GammaParams:
    """Shape ``m`` and scale ``sigma`` of a Gamma distribution.

    Both must be real numbers (numpy's included, ``bool`` not), finite
    and strictly positive.
    """

    m: float
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("m", "sigma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: ``(seed, stream_index)`` -> SFC64 state.

    The state comes from ``SeedSequence(seed, spawn_key=(stream_index,))``,
    the child ``SeedSequence(seed).spawn(stream_index + 1)[stream_index]``.
    The index goes into the spawn key, not into the entropy list:
    ``SeedSequence([seed, stream_index])`` gives ``(2**32, 0)`` and
    ``(0, 1)`` the same state.  SFC64 carries a 64-bit counter, so two
    distinct seeded states cannot run into each other within 2**64
    outputs.

    Two streams with the same pair produce bitwise-identical output no
    matter when or where they are instantiated.  The Monte Carlo engine
    gives each block of replications its own stream
    (``RngStream(seed, b)`` for block ``b``), which is what makes runs
    reproducible under any execution order.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            value = _integer(name, getattr(self, name))
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.SFC64(seq))


def _pointwise(y, fn):
    """The point rule: ``fn`` of the points of ``y`` that are >= 0, 0 at the
    others, so a pdf or cdf takes its formula's value at 0.  ``y`` is a
    float (gives a float) or a finite 1-D array (``_finite_1d``, empty
    allowed), else ``ValueError``."""
    scalar = np.ndim(y) == 0
    arr = _finite_1d("y", [y] if scalar else y, 0)
    live = arr >= 0
    out = np.zeros_like(arr)
    if live.any():
        out[live] = fn(arr[live])
    return float(out[0]) if scalar else out


def gamma_pdf(x, params: GammaParams):
    """Density of ``Gamma(m, sigma)`` at ``x``.

    Zero for ``x < 0``.  At ``x == 0`` the right-continuous limit of the
    formula is used: ``0`` for ``m > 1``, ``1/sigma`` for ``m == 1`` and
    ``+inf`` for ``m < 1``.

    Parameters
    ----------
    x : float or 1-D array_like
    params : GammaParams

    Returns
    -------
    float or ndarray
    """
    m, sigma = params.m, params.sigma

    def pdf(x):
        u = x / sigma
        with np.errstate(divide="ignore"):  # log 0 = -inf gives the limit at 0
            power = (m - 1.0) * np.log(u) if m != 1.0 else 0.0  # 0 log 0 is nan
        return np.exp(power - u - special.gammaln(m)) / sigma

    return _pointwise(x, pdf)


def gamma_cdf(x, params: GammaParams):
    """Cumulative distribution of ``Gamma(m, sigma)`` at ``x``.

    Regularized lower incomplete gamma ``P(m, x/sigma)``; zero for
    ``x <= 0``, strictly increasing on ``x > 0`` with limit 1.
    """
    return _pointwise(x, lambda x: special.gammainc(params.m, x / params.sigma))


def gamma_quantile(q, params: GammaParams):
    """Quantile function: the ``x`` with ``gamma_cdf(x, params) == q``.

    Parameters
    ----------
    q : float or array_like
        Probabilities in ``[0, 1)``; 0 maps to 0.

    Raises
    ------
    ValueError
        If any ``q`` lies outside ``[0, 1)``.
    """
    arr = np.asarray(q, dtype=float)
    if not np.all((arr >= 0) & (arr < 1)):  # nan fails both
        raise ValueError("gamma_quantile requires 0 <= q < 1")
    out = special.gammaincinv(params.m, arr) * params.sigma
    return float(out) if arr.ndim == 0 else out
