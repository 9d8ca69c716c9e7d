"""Gamma distribution primitives and reproducible variate generation.

Shape/scale convention throughout: ``Gamma(m, sigma)`` has density
``x**(m-1) * exp(-x/sigma) / (Gamma(m) * sigma**m)`` on ``x > 0``,
mean ``m*sigma`` and variance ``m*sigma**2``.

Random streams are counter-based (Philox) and keyed by the pair
``(seed, stream_index)``: the same pair always yields the same stream,
independent of how many other streams were created before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GammaParams",
    "RngStream",
    "log_gamma",
    "gamma_pdf",
    "gamma_cdf",
    "gamma_sf",
    "gamma_quantile",
    "gamma_sample",
]


@dataclass(frozen=True)
class GammaParams:
    """Shape ``m`` and scale ``sigma`` of a Gamma distribution.

    Both must be finite and strictly positive.
    """

    m: float
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("m", "sigma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: ``(seed, stream_index)`` -> Philox key.

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Stream with the same seed and a different index."""
        return RngStream(self.seed, index)


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _maybe_scalar(arr, scalar):
    return float(arr[0]) if scalar else arr


def log_gamma(x):
    """Natural log of the Gamma function, ``ln G(x)`` for ``x > 0``.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or ndarray

    Raises
    ------
    ValueError
        If any argument is not strictly positive (or not finite).
    """
    arr, scalar = _as_float_array(x)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("log_gamma requires finite x > 0")
    return _maybe_scalar(special.gammaln(arr), scalar)


def gamma_pdf(x, params: GammaParams):
    """Density of ``Gamma(m, sigma)`` at ``x``.

    Zero for ``x < 0``.  At ``x == 0`` the right-continuous limit of the
    formula is used: ``0`` for ``m > 1``, ``1/sigma`` for ``m == 1`` and
    ``+inf`` for ``m < 1``.

    Parameters
    ----------
    x : float or array_like
    params : GammaParams

    Returns
    -------
    float or ndarray
    """
    m, sigma = params.m, params.sigma
    arr, scalar = _as_float_array(x)
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        u = arr[pos] / sigma
        out[pos] = np.exp((m - 1.0) * np.log(u) - u - special.gammaln(m)) / sigma
    at_zero = arr == 0
    if np.any(at_zero):
        if m == 1.0:
            out[at_zero] = 1.0 / sigma
        elif m < 1.0:
            out[at_zero] = np.inf
    return _maybe_scalar(out, scalar)


def gamma_cdf(x, params: GammaParams):
    """Cumulative distribution of ``Gamma(m, sigma)`` at ``x``.

    Regularized lower incomplete gamma ``P(m, x/sigma)``; zero for
    ``x <= 0``, strictly increasing on ``x > 0`` with limit 1.
    """
    arr, scalar = _as_float_array(x)
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        out[pos] = special.gammainc(params.m, arr[pos] / params.sigma)
    return _maybe_scalar(out, scalar)


def gamma_sf(x, params: GammaParams):
    """Survival function ``1 - cdf``, computed without cancellation.

    Uses the regularized upper incomplete gamma ``Q(m, x/sigma)``, so it
    stays accurate deep in the right tail where ``1 - cdf`` would lose
    all precision.
    """
    arr, scalar = _as_float_array(x)
    out = np.ones_like(arr)
    pos = arr > 0
    if np.any(pos):
        out[pos] = special.gammaincc(params.m, arr[pos] / params.sigma)
    return _maybe_scalar(out, scalar)


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
    arr, scalar = _as_float_array(q)
    if np.any(arr < 0) or np.any(arr >= 1) or not np.all(np.isfinite(arr)):
        raise ValueError("gamma_quantile requires 0 <= q < 1")
    out = special.gammaincinv(params.m, arr) * params.sigma
    return _maybe_scalar(np.atleast_1d(out), scalar)


def gamma_sample(stream: RngStream, params: GammaParams, count: int) -> np.ndarray:
    """Draw ``count`` iid ``Gamma(m, sigma)`` variates from ``stream``.

    The draw depends only on ``(stream.seed, stream.stream_index,
    params, count)``: re-running with the same inputs reproduces the
    same array bit for bit.

    Parameters
    ----------
    stream : RngStream
    params : GammaParams
    count : int
        Number of variates, at least 1.

    Returns
    -------
    ndarray
        Shape ``(count,)``, all values strictly positive.
    """
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    gen = stream.generator()
    return gen.gamma(shape=params.m, scale=params.sigma, size=count)
