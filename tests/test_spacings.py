import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from gammaspacings import spacings
from gammaspacings import (
    DensityCurve,
    GammaParams,
    QuadratureError,
    SpacingIndex,
    claimed_cdf_yj,
    claimed_pdf_yj,
    density_curve,
    gamma_quantile,
    ks_test,
    spacing_cdf_numeric,
    spacing_law,
    spacing_pdf_numeric,
    y2_cdf_exact,
    y2_mixture,
    y2_pdf_exact,
)

# frozen 40-digit mpmath oracles for the quadrature route
QUAD_N3_TOP_M25_Y1 = 0.3536706315720858013343  # n=3, s=3, r=2, m=2.5, y=1
QUAD_N4_S4_R2_M2_Y15 = 0.3417030705572010440414  # non-consecutive spacing
Y2_M3_Y1 = 0.3218945110250120314176  # y2_pdf_exact(3, 1) = 7/8 e^{-1}


def test_spacing_index_validation():
    idx = SpacingIndex(n=5, s=4, r=2)
    assert (idx.n, idx.s, idx.r) == (5, 4, 2)
    with pytest.raises(ValueError):
        SpacingIndex(n=5, s=2, r=2)
    with pytest.raises(ValueError):
        SpacingIndex(n=5, s=6, r=1)
    with pytest.raises(ValueError):
        SpacingIndex(n=1, s=1, r=1)
    with pytest.raises(TypeError):
        SpacingIndex(n=5, s=2.5, r=1)


def test_spacing_index_consecutive():
    assert SpacingIndex.consecutive(4, 3) == SpacingIndex(n=4, s=3, r=2)
    with pytest.raises(ValueError):
        SpacingIndex.consecutive(4, 1)
    with pytest.raises(ValueError):
        SpacingIndex.consecutive(4, 5)


def test_y2_pdf_exact_m1_is_unit_exponential():
    ys = np.linspace(0.0, 15.0, 200)
    assert_allclose(y2_pdf_exact(1, ys), np.exp(-ys), rtol=1e-14)
    assert y2_pdf_exact(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_y2_pdf_exact_m2_closed_form():
    ys = np.linspace(0.0, 20.0, 500)
    expected = 0.5 * (np.exp(-ys) + ys * np.exp(-ys))
    assert np.max(np.abs(y2_pdf_exact(2, ys) - expected)) < 1e-14
    assert y2_pdf_exact(2, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert y2_pdf_exact(2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_y2_pdf_exact_m3_pinned():
    assert_allclose(y2_pdf_exact(3, 1.0), Y2_M3_Y1, rtol=1e-13)


def test_y2_pdf_exact_negative_and_zero():
    assert y2_pdf_exact(3, -0.5) == 0.0
    assert list(y2_pdf_exact(2, np.array([-1.0, 0.0]))) == [0.0, 0.5]


def test_y2_pdf_exact_domain_errors():
    for bad in (0, -2, 2.5, math.nan):
        with pytest.raises(ValueError):
            y2_pdf_exact(bad, 1.0)
    with pytest.raises(TypeError):
        y2_pdf_exact(True, 1.0)


def test_y2_pdf_exact_large_shape_no_overflow():
    # raw coefficients overflow well before m = 80; log-space keeps this finite
    val = y2_pdf_exact(80, 80.0)
    assert np.isfinite(val) and val > 0
    total, _ = quad(lambda y: y2_pdf_exact(80, y), 0.0, 300.0,
                    epsabs=1e-10, epsrel=0.0, limit=400)
    assert abs(total - 1.0) < 1e-8


def test_y2_pdf_exact_normalizes_for_m_1_to_10():
    for m in range(1, 11):
        upper = float(gamma_quantile(1.0 - 1e-13, GammaParams(float(m), 1.0))) * 2.0
        total, _ = quad(lambda y: y2_pdf_exact(m, y), 0.0, upper,
                        epsabs=1e-10, epsrel=0.0, limit=400)
        assert abs(total - 1.0) < 1e-8, m


def test_y2_mixture_pinned_weights():
    mix1 = y2_mixture(1)
    assert_allclose(mix1.weights, [1.0], atol=1e-15)
    assert list(mix1.shapes) == [1]
    mix2 = y2_mixture(2)
    assert_allclose(mix2.weights, [0.5, 0.5], atol=1e-15)
    assert list(mix2.shapes) == [1, 2]
    mix3 = y2_mixture(3)
    assert_allclose(mix3.weights, [0.375, 0.375, 0.25], atol=1e-14)


def test_y2_mixture_weights_sum_to_one_up_to_m50():
    for m in range(1, 51):
        assert abs(y2_mixture(m).weights.sum() - 1.0) < 1e-12, m


def test_y2_mixture_pdf_matches_exact():
    ys = np.linspace(0.0, 25.0, 400)
    for m in range(1, 11):
        assert np.max(np.abs(y2_mixture(m).pdf(ys) - y2_pdf_exact(m, ys))) < 1e-12, m


def test_y2_cdf_exact_closed_forms():
    ys = np.linspace(0.0, 10.0, 50)
    assert_allclose(y2_cdf_exact(1, ys), 1.0 - np.exp(-ys), atol=1e-14)
    m2 = 0.5 * (1.0 - np.exp(-ys)) + 0.5 * (1.0 - np.exp(-ys) * (1.0 + ys))
    assert_allclose(y2_cdf_exact(2, ys), m2, atol=1e-14)


@pytest.mark.parametrize("m", [3, 50])
def test_y2_cdf_exact_stays_a_probability_in_the_far_tail(m):
    # the weighted sum of component cdfs rounds to 1 + 2e-16 (m = 3) and
    # 1 + 1.2e-14 (m = 50) beyond y = 42 and y = 86
    ys = np.linspace(0.0, 200.0, 4001)
    values = y2_cdf_exact(m, ys)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values[-1] == 1.0
    assert ks_test(ys, lambda g: y2_cdf_exact(m, g)).statistic > 0.0


def test_spacing_pdf_numeric_exponential_cases():
    # n=2 spacing of two unit exponentials is Exp(1)
    idx = SpacingIndex(n=2, s=2, r=1)
    val = spacing_pdf_numeric(idx, GammaParams(1.0, 1.0), 1.0)
    assert abs(val - math.exp(-1.0)) < 1e-9
    # top spacing of 3 unit exponentials is Exp(1)
    idx3 = SpacingIndex(n=3, s=3, r=2)
    val3 = spacing_pdf_numeric(idx3, GammaParams(1.0, 1.0), 0.5)
    assert abs(val3 - math.exp(-0.5)) < 1e-9


def test_spacing_pdf_numeric_matches_exact_m2():
    idx = SpacingIndex(n=2, s=2, r=1)
    val = spacing_pdf_numeric(idx, GammaParams(2.0, 1.0), 1.0)
    assert abs(val - y2_pdf_exact(2, 1.0)) < 1e-6


def test_spacing_pdf_numeric_noninteger_shape_pinned():
    idx = SpacingIndex(n=3, s=3, r=2)
    val = spacing_pdf_numeric(idx, GammaParams(2.5, 1.0), 1.0)
    assert abs(val - QUAD_N3_TOP_M25_Y1) < 1e-9


def test_spacing_pdf_numeric_nonconsecutive_pinned():
    idx = SpacingIndex(n=4, s=4, r=2)
    val = spacing_pdf_numeric(idx, GammaParams(2.0, 1.0), 1.5)
    assert abs(val - QUAD_N4_S4_R2_M2_Y15) < 1e-9


def test_spacing_pdf_numeric_negative_y_and_validation():
    idx = SpacingIndex(n=3, s=3, r=2)
    assert spacing_pdf_numeric(idx, GammaParams(2.0), -0.1) == 0.0
    with pytest.raises(ValueError):
        spacing_pdf_numeric(idx, GammaParams(2.0), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        spacing_pdf_numeric(idx, GammaParams(2.0), math.inf)


def test_spacing_pdf_numeric_scale_property():
    idx = SpacingIndex(n=4, s=3, r=2)
    for sigma in (0.5, 2.0):
        for y in (0.3, 1.0, 2.5):
            scaled = spacing_pdf_numeric(idx, GammaParams(1.7, sigma), y)
            unit = spacing_pdf_numeric(idx, GammaParams(1.7, 1.0), y / sigma)
            assert abs(scaled - unit / sigma) < 1e-8


def test_spacing_pdf_numeric_m1_reduces_to_claimed():
    # claim Y_j ~ Gamma(1, 1/(n-j+1)) is exact for exponential samples
    ys = np.linspace(0.05, 4.0, 12)
    for n in (3, 6):
        for j in (2, n):
            idx = SpacingIndex.consecutive(n, j)
            numeric = [spacing_pdf_numeric(idx, GammaParams(1.0), float(y)) for y in ys]
            claimed = claimed_pdf_yj(n, j, 1.0, ys)
            assert np.max(np.abs(np.array(numeric) - claimed)) < 1e-6, (n, j)


def test_spacing_pdf_numeric_reports_nonconvergence():
    # at m <= 0.5 the y=0 integrand ~ x^(2m-2) is non-integrable; the
    # budgeted quadrature must fail loudly rather than return a number
    idx = SpacingIndex(n=2, s=2, r=1)
    with pytest.raises(QuadratureError, match=r"on \[0, .*\] did not converge to 5e-10"):
        spacing_pdf_numeric(idx, GammaParams(0.4, 1.0), 0.0)


def test_spacing_cdf_numeric_values():
    idx = SpacingIndex(n=2, s=2, r=1)
    assert spacing_cdf_numeric(idx, GammaParams(1.0), 0.0) == 0.0
    assert abs(spacing_cdf_numeric(idx, GammaParams(1.0), math.log(2.0)) - 0.5) < 1e-8
    assert abs(spacing_cdf_numeric(idx, GammaParams(3.0), 40.0) - 1.0) < 1e-6


def test_spacing_cdf_numeric_monotone_and_matches_exact():
    idx = SpacingIndex(n=2, s=2, r=1)
    ys = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [spacing_cdf_numeric(idx, GammaParams(2.0), y, tol=1e-8) for y in ys]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for y, v in zip(ys, vals):
        assert abs(v - y2_cdf_exact(2, y)) < 1e-7


def test_claimed_pdf_yj_values():
    assert_allclose(claimed_pdf_yj(2, 2, 1.0, 1.0), math.exp(-1.0), rtol=1e-14)
    # Exp(rate 2) density at 0 for the second spacing of three
    assert claimed_pdf_yj(3, 2, 1.0, 0.0) == 2.0
    # m=2: claimed and true agree at y=1 yet differ at 0
    assert_allclose(claimed_pdf_yj(2, 2, 2.0, 1.0), math.exp(-1.0), rtol=1e-14)
    assert claimed_pdf_yj(2, 2, 2.0, 0.0) == 0.0
    assert y2_pdf_exact(2, 0.0) == 0.5


def test_claimed_cdf_yj_exponential():
    ys = np.linspace(0.0, 3.0, 40)
    assert_allclose(claimed_cdf_yj(3, 2, 1.0, ys), 1.0 - np.exp(-2.0 * ys), atol=1e-14)


def test_claimed_yj_validation():
    with pytest.raises(ValueError):
        claimed_pdf_yj(3, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        claimed_pdf_yj(3, 4, 1.0, 0.5)


def test_density_curve_normalization_and_endpoints():
    curve = density_curve(lambda g: y2_pdf_exact(1, g), 10.0, 101)
    assert curve.normalization_error < 1e-3
    exact2 = density_curve(lambda g: y2_pdf_exact(2, g), 8.0, 200)
    assert exact2.values[0] == 0.5
    claimed2 = density_curve(lambda g: claimed_pdf_yj(2, 2, 2.0, g), 8.0, 200)
    assert claimed2.values[0] == 0.0


def test_density_curve_validation():
    with pytest.raises(ValueError):
        density_curve(lambda g: np.ones_like(g), 0.0, 10)
    with pytest.raises(ValueError):
        density_curve(lambda g: np.ones_like(g), 5.0, 1)
    with pytest.raises(ValueError):
        density_curve(lambda g: np.ones(3), 5.0, 10)
    with pytest.raises(ValueError):
        density_curve(lambda g: -np.ones_like(g), 5.0, 10)


def test_density_curve_type_invariants():
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0, 0.0, 1.0]), values=np.zeros(3),
                     normalization_error=0.0)
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0]), values=np.array([1.0]),
                     normalization_error=0.0)


def test_quadrature_route_agrees_with_exact_on_grid():
    # module-level slice of the oracle-equivalence property (full sweep
    # in the acceptance suite)
    idx = SpacingIndex(n=2, s=2, r=1)
    ys = np.linspace(0.0, 12.0, 25)
    for m in (1, 3):
        numeric = np.array(
            [spacing_pdf_numeric(idx, GammaParams(float(m), 1.0), float(y)) for y in ys]
        )
        assert np.max(np.abs(numeric - y2_pdf_exact(m, ys))) < 1e-6, m


def mpmath_spacing_law(idx, m, y, cdf):
    """Density (``cdf=False``) or cdf of ``X_(s) - X_(r)`` at ``y`` for
    unit-scale Gamma(m) samples, by 30-digit mpmath quadrature.

    Independent of the package's routes: it uses mpmath's incomplete
    gamma, and the cdf's inner integral is expanded binomially,
    ``[S(x) - S(x+t)]^b = sum_k C(b, k) S(x)^(b-k) (-S(x+t))^k``, which
    integrates in closed form, instead of the incomplete beta.  The outer
    integral runs over ``u = x^m`` (``f(x) dx = exp(-x) du / G(m+1)``),
    where mpmath stays accurate for ``m < 1``; it stops at ``x = 40``,
    beyond which less than 1e-13 of the mass lies for these shapes.
    """
    with mp.workdps(30):
        m, y = mp.mpf(m), mp.mpf(y)
        a, b, c = idx.r - 1, idx.s - idx.r - 1, idx.n - idx.s
        coef = mp.factorial(idx.n) / (mp.factorial(a) * mp.factorial(b) * mp.factorial(c))
        lgm = mp.loggamma(m)

        def F(x):
            return mp.gammainc(m, 0, x, regularized=True)

        def inner(x):
            if cdf:
                sx, sxy = 1 - F(x), 1 - F(x + y)
                return mp.fsum(mp.binomial(b, k) * (-1) ** k * sx ** (b - k)
                               * (sx ** (k + c + 1) - sxy ** (k + c + 1)) / (k + c + 1)
                               for k in range(b + 1))
            pdf_xy = mp.exp((m - 1) * mp.log(x + y) - (x + y) - lgm)
            return (F(x + y) - F(x)) ** b * pdf_xy * (1 - F(x + y)) ** c

        def integrand(u):
            x = u ** (1 / m)
            return F(x) ** a * mp.exp(-x - lgm) / m * inner(x)

        return float(coef * mp.quad(integrand, [t ** m for t in (0, 2, 40)]))


ORACLE_CASES = [SpacingIndex.consecutive(3, 2), SpacingIndex.consecutive(4, 3),
                SpacingIndex(5, 4, 2)]


@pytest.mark.parametrize("m", [0.3, 0.5, 2.5])
@pytest.mark.parametrize("idx", ORACLE_CASES, ids=lambda i: f"n{i.n}s{i.s}r{i.r}")
def test_numeric_routes_match_mpmath_oracle(idx, m):
    params = GammaParams(m)
    pdf = spacing_pdf_numeric(idx, params, 0.4)
    cdf = spacing_cdf_numeric(idx, params, 0.4)
    assert abs(pdf - mpmath_spacing_law(idx, m, 0.4, cdf=False)) < 1e-8
    assert abs(cdf - mpmath_spacing_law(idx, m, 0.4, cdf=True)) < 1e-10


def test_spacing_pdf_numeric_below_unit_shape_in_the_tail():
    # integrated in x instead of u = x^m, this point of the density --m 0.5
    # grid fails with "probably divergent"
    idx, y = SpacingIndex.consecutive(3, 2), 6.9015
    pdf = spacing_pdf_numeric(idx, GammaParams(0.5), y)
    assert abs(pdf - mpmath_spacing_law(idx, 0.5, y, cdf=False)) < 1e-8


def quad_spacing_law(idx, m, y, cdf):
    """Density (``cdf=False``) or cdf of ``X_(s) - X_(r)`` at one ``y`` for
    unit-scale Gamma(m) samples: the integrand of ``spacing_pdf_numeric``
    or ``spacing_cdf_numeric``, integrated pointwise by scalar
    ``scipy.integrate.quad`` over ``x`` (over ``u = x^m`` for ``m < 1``) to
    an absolute 1e-12.
    """
    n, s, r = idx.n, idx.s, idx.r
    a, b, c = r - 1, s - r - 1, n - s

    def F(x):
        return special.gammainc(m, x)

    def S(x):
        return special.gammaincc(m, x)

    def f(x):
        return math.exp((m - 1) * math.log(x) - x - math.lgamma(m))

    def inner(x):
        if cdf:
            coef = math.factorial(n) / (math.factorial(a) * math.factorial(n - r))
            return coef * F(x) ** a * S(x) ** (n - r) * special.betaincc(c + 1, b + 1, S(x + y) / S(x))
        coef = math.factorial(n) / (math.factorial(a) * math.factorial(b) * math.factorial(c))
        return coef * F(x) ** a * (F(x + y) - F(x)) ** b * f(x + y) * S(x + y) ** c

    upper = float(gamma_quantile(1.0 - 1e-14, GammaParams(m))) + (0.0 if cdf else y)
    if m >= 1:
        value = quad(lambda x: f(x) * inner(x), 0.0, upper, epsabs=1e-12, epsrel=0.0, limit=200)
    else:
        def in_u(u):
            x = u ** (1.0 / m)
            return math.exp(-x - math.lgamma(m + 1.0)) * inner(x)
        value = quad(in_u, 0.0, upper**m, epsabs=1e-12, epsrel=0.0, limit=200)
    return value[0]


ARRAY_CASES = [(SpacingIndex.consecutive(4, 3), 2.5), (SpacingIndex.consecutive(3, 2), 0.5),
               (SpacingIndex.consecutive(5, 4), 0.3), (SpacingIndex(4, 4, 2), 2.0)]


@pytest.mark.parametrize("idx, m", ARRAY_CASES, ids=lambda v: (
    f"n{v.n}s{v.s}r{v.r}" if isinstance(v, SpacingIndex) else f"m{v}"))
def test_numeric_routes_on_arrays_match_pointwise_quad(idx, m):
    # one shared subdivision for the whole array must keep every entry
    # within tol of its own pointwise quadrature
    tol, params = 1e-9, GammaParams(m)
    ys = np.array([0.01, 0.05, 0.2, 0.4, 0.8, 1.5, 3.0, 6.0, 12.0])
    pdf = spacing_pdf_numeric(idx, params, ys, tol)
    cdf = spacing_cdf_numeric(idx, params, ys, tol)
    for y, p, c in zip(ys, pdf, cdf):
        assert abs(p - quad_spacing_law(idx, m, y, cdf=False)) < tol, y
        assert abs(c - quad_spacing_law(idx, m, y, cdf=True)) < tol, y


def test_spacing_law_pdf_at_a_tolerance_near_rounding_level():
    # the GK21 integrator ends this grid on its rounding-error stop with an error
    # estimate inside tol, which counts as converged
    law = spacing_law(3, 2, 0.5, tol=1e-12)
    curve = density_curve(law, 2.0 * float(gamma_quantile(1.0 - 1e-8, GammaParams(0.5))), 2001)
    coarse = spacing_pdf_numeric(SpacingIndex.consecutive(3, 2), GammaParams(0.5), curve.grid)
    assert np.max(np.abs(curve.values - coarse)) < 1e-9


def test_numeric_routes_return_a_float_for_a_scalar_and_zero_below_the_support():
    idx, params = SpacingIndex.consecutive(4, 3), GammaParams(2.5)
    for fn in (spacing_pdf_numeric, spacing_cdf_numeric):
        assert type(fn(idx, params, 1.0)) is float
        assert type(fn(idx, params, -1.0)) is float
        assert fn(idx, params, np.array([1.0])).shape == (1,)
        assert fn(idx, params, np.array([])).shape == (0,)
    pdf = spacing_pdf_numeric(idx, params, [-2.0, -1e-12, 0.5, -3.0])
    assert list(pdf[[0, 1, 3]]) == [0.0, 0.0, 0.0] and pdf[2] > 0
    cdf = spacing_cdf_numeric(idx, params, [-1.0, 0.0, 0.5])
    assert list(cdf[:2]) == [0.0, 0.0] and 0 < cdf[2] < 1


def test_numeric_routes_reject_bad_input_before_any_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(spacings, "_adaptive_gk21", no_quadrature)
    idx, params = SpacingIndex.consecutive(4, 3), GammaParams(2.5)
    for fn in (spacing_pdf_numeric, spacing_cdf_numeric):
        for bad in ([1.0, math.nan], [math.inf, 1.0], [-math.inf], math.nan):
            with pytest.raises(ValueError, match="finite"):
                fn(idx, params, bad)
        for tol in (0.0, 1.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="tol"):
                fn(idx, params, [0.5, 1.0], tol)
        with pytest.raises(ValueError, match="1-D"):
            fn(idx, params, np.ones((2, 2)))


@pytest.mark.parametrize("m, bound", [(0.3, 1e-3), (0.5, 1e-5), (2.5, 1e-5)])
def test_spacing_law_cdf_interpolates_pointwise_cdf(m, bound):
    law = spacing_law(3, 2, m)
    assert law.route == "numeric" and law.m == m
    idx, params = SpacingIndex.consecutive(3, 2), GammaParams(m)
    ys = np.geomspace(1e-6, 20.0, 60)
    pointwise = np.array([spacing_cdf_numeric(idx, params, y) for y in ys])
    assert np.max(np.abs(law.cdf(ys) - pointwise)) < bound
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(0.0) == 0.0
    assert 1.0 - 1e-9 < law.cdf(1e6) <= 1.0


@pytest.mark.parametrize("m", [0.3, 0.5, 2.5])
def test_monotone_cubic_matches_scipy_pchip_on_the_reference_cdf(m):
    # the 257-node reference cdf of spacing_law, flat at 1 over its top
    # nodes; law.cdf also clips y outside [0, ymax] to the end values
    idx, params = SpacingIndex.consecutive(3, 2), GammaParams(m)
    ymax = 2.0 * float(gamma_quantile(1.0 - 1e-8, params))
    nodes = ymax * np.linspace(0.0, 1.0, spacings.CDF_NODES) ** 3
    values = np.maximum.accumulate(spacing_cdf_numeric(idx, params, nodes))
    assert np.sum(np.diff(values) == 0) > 0
    ys = np.concatenate([nodes, np.linspace(0.0, ymax, 5001), np.geomspace(1e-9, ymax, 500)])
    oracle = PchipInterpolator(nodes, values)
    assert np.max(np.abs(spacings._monotone_cubic(nodes, values)(ys) - oracle(ys))) <= 1e-14
    outside = np.array([-5.0, -1e-300, ymax * (1 + 1e-12), 2 * ymax, 1e6])
    law_cdf = spacing_law(3, 2, m).cdf(np.concatenate([ys, outside]))
    expected = np.clip(oracle(np.clip(np.concatenate([ys, outside]), 0.0, ymax)), 0.0, 1.0)
    assert np.max(np.abs(law_cdf - expected)) <= 1e-14


def test_monotone_cubic_matches_scipy_pchip_with_flat_runs_and_uneven_steps():
    x = np.array([0.0, 0.3, 0.35, 1.0, 1.2, 2.5, 2.6, 4.0, 7.0])
    y = np.array([0.0, 0.2, 0.2, 0.2, 0.5, 0.9, 0.9, 0.95, 1.0])
    ys = np.linspace(0.0, 7.0, 2001)
    fit = spacings._monotone_cubic(x, y)(ys)
    assert np.max(np.abs(fit - PchipInterpolator(x, y)(ys))) <= 1e-14
    assert np.all(np.diff(fit) >= -1e-15)
    assert np.all(fit[(ys >= 0.3) & (ys <= 1.0)] == 0.2)  # flat run stays flat


@pytest.mark.parametrize("idx, m", ARRAY_CASES, ids=lambda v: (
    f"n{v.n}s{v.s}r{v.r}" if isinstance(v, SpacingIndex) else f"m{v}"))
def test_adaptive_gk21_follows_quad_vec(idx, m, monkeypatch):
    # the same subdivision as scipy's quad_vec (GK21, max norm): equal
    # interval counts, values equal to rounding
    seen = {}

    def record(fn, a, b, tol):
        seen["fn"], seen["args"] = fn, (a, b, tol)
        seen["ours"] = adaptive(fn, a, b, tol)
        return seen["ours"]

    adaptive = spacings._adaptive_gk21
    monkeypatch.setattr(spacings, "_adaptive_gk21", record)
    ys = np.linspace(0.01, 12.0, 301)
    spacing_pdf_numeric(idx, GammaParams(m), ys)
    fn, (a, b, tol) = seen["fn"], seen["args"]
    value, err, status, intervals = seen["ours"]
    ref, ref_err, info = integrate.quad_vec(
        lambda x: fn(np.array([x]))[0], a, b, epsabs=tol, epsrel=0.0, norm="max",
        limit=spacings.SUBDIVISION_LIMIT, full_output=True)
    assert (status, intervals) == (info.status, len(info.intervals))
    assert np.max(np.abs(value - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))
    assert abs(err - ref_err) <= 1e-12 * ref_err


def test_adaptive_gk21_stops_at_the_subdivision_limit():
    # a divergent integral (f_Y(0) is infinite at m < 1/2): no round may
    # bisect past the limit, so the run ends with exactly that many
    limit = spacings.SUBDIVISION_LIMIT
    with pytest.raises(QuadratureError, match=rf"in {limit} intervals \(limit {limit}\)"):
        spacing_pdf_numeric(SpacingIndex(2, 2, 1), GammaParams(0.4), 0.0)


def test_spacing_law_resolves_routes():
    assert spacing_law(2, 2, 3).route == "exact"
    assert spacing_law(2, 2, 2.5).route == "numeric"
    assert spacing_law(3, 2, 3.0).route == "numeric"
    assert spacing_law(3, 2, 3.0, "claimed").route == "claimed"
    exact = spacing_law(2, 2, 3.0)
    ys = np.linspace(0.0, 6.0, 7)
    assert np.array_equal(exact.pdf(ys), y2_pdf_exact(3, ys))
    assert np.array_equal(exact.cdf(ys), y2_cdf_exact(3, ys))
    claimed = spacing_law(4, 3, 2.5, "claimed")
    assert np.array_equal(claimed.pdf(ys), claimed_pdf_yj(4, 3, 2.5, ys))
    assert np.array_equal(claimed.cdf(ys), claimed_cdf_yj(4, 3, 2.5, ys))
    numeric = spacing_law(4, 3, 2.5)
    assert numeric.pdf(1.0) == spacing_pdf_numeric(SpacingIndex(4, 3, 2), GammaParams(2.5), 1.0)
    assert numeric.pdf(np.array([1.0])).shape == (1,)
    for args in [(3, 2, 3.0, "exact"), (2, 2, 2.5, "exact"), (2, 2, 0.5, "exact"),
                 (3, 2, 1.0, "exponential"), (3, 4, 1.0), (3, 2, 0.0), (3, 2, math.nan)]:
        with pytest.raises(ValueError):
            spacing_law(*args)
    for tol in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            spacing_law(3, 2, 2.5, tol=tol)


def test_density_curve_of_law_starts_half_a_step_in_below_unit_shape():
    below = density_curve(spacing_law(3, 2, 0.7, "claimed"), 4.0, 5)
    assert list(below.grid) == [0.5, 1.0, 2.0, 3.0, 4.0]
    assert below.values[0] == claimed_pdf_yj(3, 2, 0.7, 0.5)
    unit = density_curve(spacing_law(3, 2, 1.0, "claimed"), 4.0, 5)
    assert list(unit.grid) == [0.0, 1.0, 2.0, 3.0, 4.0]


@st.composite
def spacing_cases(draw):
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n - 1))
    s = draw(st.integers(r + 1, n))
    return SpacingIndex(n, s, r), draw(st.floats(0.3, 10.0))


@settings(max_examples=25, deadline=None)
@given(spacing_cases(), st.lists(st.floats(0.0, 30.0), min_size=2, max_size=6))
def test_spacing_cdf_numeric_is_a_distribution_function(case, ys):
    # monotone up to the absolute error budget tol of each value
    idx, m = case
    params = GammaParams(m)
    values = [spacing_cdf_numeric(idx, params, y, tol=1e-9) for y in sorted(ys)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    # Y <= X_(n), so P(Y <= q) >= P(X_(n) <= q) = 1 - 1e-12
    q = float(gamma_quantile((1.0 - 1e-12) ** (1.0 / idx.n), params))
    assert spacing_cdf_numeric(idx, params, q) >= 1.0 - 1e-6


@settings(max_examples=4, deadline=None)
@given(spacing_cases(), st.lists(st.floats(-1.0, 60.0), min_size=2, max_size=200))
def test_spacing_law_cdf_is_monotone_on_arrays(case, ys):
    # the dense grid reaches the tail, where the cdf is flat to an ulp
    (idx, m), ys = case, np.concatenate([ys, np.linspace(-1.0, 60.0, 4001)])
    values = spacing_law(idx.n, idx.s, m, "numeric").cdf(ys)  # the law of Y_s
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values[np.argsort(ys)]) >= 0.0)
