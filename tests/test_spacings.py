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
    MixtureDecomposition,
    QuadratureError,
    SpacingIndex,
    density_curve,
    gamma_cdf,
    gamma_pdf,
    gamma_quantile,
    ks_test,
    spacing_cdf_numeric,
    spacing_law,
    spacing_pdf_numeric,
    y2_mixture,
    y2_pdf_exact,
)

# frozen 40-digit mpmath oracles for the quadrature route
QUAD_N3_TOP_M25_Y1 = 0.3536706315720858013343  # n=3, j=3, m=2.5, y=1
Y2_M3_Y1 = 0.3218945110250120314176  # y2_pdf_exact(3, 1) = 7/8 e^{-1}


def test_spacing_index_validation():
    idx = SpacingIndex(n=5, j=np.int64(4))
    assert (idx.n, idx.j) == (5, 4) and type(idx.j) is int
    with pytest.raises(ValueError, match=r"2 <= j <= n, got j=2, n=1"):
        SpacingIndex(n=1, j=2)
    with pytest.raises(TypeError):
        SpacingIndex(n=5, j=2.5)
    with pytest.raises(TypeError):
        SpacingIndex(n=5.0, j=2)
    with pytest.raises(TypeError):
        SpacingIndex(n=5, j=True)


def test_spacing_index_consecutive():
    # the index of Y_j = X_(j) - X_(j-1), for 2 <= j <= n only
    assert SpacingIndex(4, 3) == SpacingIndex(n=4, j=3)
    with pytest.raises(ValueError, match=r"got j=1, n=4"):
        SpacingIndex(4, 1)
    with pytest.raises(ValueError, match=r"got j=5, n=4"):
        SpacingIndex(4, 5)


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


@pytest.mark.parametrize("shapes", [[1.5, 2.7], [1.0, 2.0 + 1e-9], [0.0, 1.0], [1.0, 2.0**60]])
def test_mixture_rejects_shapes_that_are_not_integers_from_one(shapes):
    with pytest.raises(ValueError, match="component shapes must be integers"):
        MixtureDecomposition(weights=[0.5, 0.5], shapes=shapes)


@pytest.mark.parametrize("weights, shapes, message", [
    ([0.5, math.nan], [1, 2], "^weights must be a finite 1-D array"),
    ([[1.0]], [1], "^weights must be a finite 1-D array"),
    ([], [], "^weights must be a finite 1-D array of length >= 1"),
    ([1.0], [math.inf], "^shapes must be a finite 1-D array"),
    ([0.5, 0.5], [1], "equal length"),
    ([1.5, -0.5], [1, 2], "weights must be > 0"),
])
def test_mixture_rejects_bad_arrays(weights, shapes, message):
    with pytest.raises(ValueError, match=message):
        MixtureDecomposition(weights=weights, shapes=shapes)


def test_mixture_keeps_integer_shapes_given_as_floats():
    mix = MixtureDecomposition(weights=[0.5, 0.5], shapes=[1.0, 2.0])
    assert mix.shapes.dtype.kind == "i" and list(mix.shapes) == [1, 2]
    assert mix.cdf(1.0) == y2_mixture(2).cdf(1.0)


def test_y2_mixture_weights_sum_to_one_up_to_m50():
    for m in range(1, 51):
        assert abs(y2_mixture(m).weights.sum() - 1.0) < 1e-12, m


def test_y2_mixture_pdf_matches_exact():
    ys = np.linspace(0.0, 25.0, 400)
    for m in range(1, 11):
        assert np.max(np.abs(y2_mixture(m).pdf(ys) - y2_pdf_exact(m, ys))) < 1e-12, m


def test_y2_cdf_exact_closed_forms():
    ys = np.linspace(0.0, 10.0, 50)
    assert_allclose(spacing_law(2, 2, 1).cdf(ys), 1.0 - np.exp(-ys), atol=1e-14)
    m2 = 0.5 * (1.0 - np.exp(-ys)) + 0.5 * (1.0 - np.exp(-ys) * (1.0 + ys))
    assert_allclose(spacing_law(2, 2, 2).cdf(ys), m2, atol=1e-14)


@pytest.mark.parametrize("m", [3, 50])
def test_y2_cdf_exact_stays_a_probability_in_the_far_tail(m):
    # the weighted sum of component cdfs rounds to 1 + 2e-16 (m = 3) and
    # 1 + 1.2e-14 (m = 50) beyond y = 42 and y = 86
    ys = np.linspace(0.0, 200.0, 4001)
    cdf = spacing_law(2, 2, m).cdf
    values = cdf(ys)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values[-1] == 1.0
    assert ks_test(ys, cdf).statistic > 0.0


def test_spacing_pdf_numeric_exponential_cases():
    # n=2 spacing of two unit exponentials is Exp(1)
    idx = SpacingIndex(n=2, j=2)
    val = spacing_pdf_numeric(idx, GammaParams(1.0, 1.0), 1.0)
    assert abs(val - math.exp(-1.0)) < 1e-9
    # top spacing of 3 unit exponentials is Exp(1)
    idx3 = SpacingIndex(n=3, j=3)
    val3 = spacing_pdf_numeric(idx3, GammaParams(1.0, 1.0), 0.5)
    assert abs(val3 - math.exp(-0.5)) < 1e-9


def test_spacing_pdf_numeric_matches_exact_m2():
    idx = SpacingIndex(n=2, j=2)
    val = spacing_pdf_numeric(idx, GammaParams(2.0, 1.0), 1.0)
    assert abs(val - y2_pdf_exact(2, 1.0)) < 1e-6


def test_spacing_pdf_numeric_noninteger_shape_pinned():
    idx = SpacingIndex(n=3, j=3)
    val = spacing_pdf_numeric(idx, GammaParams(2.5, 1.0), 1.0)
    assert abs(val - QUAD_N3_TOP_M25_Y1) < 1e-9


def test_spacing_pdf_numeric_negative_y_and_validation():
    idx = SpacingIndex(n=3, j=3)
    assert spacing_pdf_numeric(idx, GammaParams(2.0), -0.1) == 0.0
    with pytest.raises(ValueError):
        spacing_pdf_numeric(idx, GammaParams(2.0), 1.0, tol=0.0)
    with pytest.raises(ValueError, match=r"y must be a finite 1-D array of length >= 0"):
        spacing_pdf_numeric(idx, GammaParams(2.0), math.inf)


def test_spacing_pdf_numeric_scale_property():
    idx = SpacingIndex(n=4, j=3)
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
            idx = SpacingIndex(n, j)
            numeric = [spacing_pdf_numeric(idx, GammaParams(1.0), float(y)) for y in ys]
            claimed = spacing_law(n, j, 1.0, "claimed").pdf(ys)
            assert np.max(np.abs(np.array(numeric) - claimed)) < 1e-6, (n, j)


def test_spacing_pdf_numeric_reports_nonconvergence():
    # at m <= 0.5 the y=0 integrand ~ x^(2m-2) is non-integrable; the
    # budgeted quadrature must fail loudly rather than return a number
    idx = SpacingIndex(n=2, j=2)
    with pytest.raises(QuadratureError, match=r"on \[0, .*\] did not converge to 5e-10"):
        spacing_pdf_numeric(idx, GammaParams(0.4, 1.0), 0.0)


def test_spacing_cdf_numeric_values():
    idx = SpacingIndex(n=2, j=2)
    assert spacing_cdf_numeric(idx, GammaParams(1.0), 0.0) == 0.0
    assert abs(spacing_cdf_numeric(idx, GammaParams(1.0), math.log(2.0)) - 0.5) < 1e-8
    assert abs(spacing_cdf_numeric(idx, GammaParams(3.0), 40.0) - 1.0) < 1e-6


def test_spacing_cdf_numeric_monotone_and_matches_exact():
    idx = SpacingIndex(n=2, j=2)
    ys = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [spacing_cdf_numeric(idx, GammaParams(2.0), y, tol=1e-8) for y in ys]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for y, v in zip(ys, vals):
        assert abs(v - spacing_law(2, 2, 2).cdf(y)) < 1e-7


def test_spacing_cdf_numeric_at_an_ulp_above_zero():
    # S(x+y)/S(x) rounds above 1 at y ~ 1e-15; the integrand must stay finite
    idx = SpacingIndex(n=2, j=2)
    for y in (1.850641891615713e-15, 1e-12):
        v = spacing_cdf_numeric(idx, GammaParams(4.0), y, tol=1e-9)
        assert 0.0 <= v <= 1e-9


def test_claimed_pdf_yj_values():
    assert_allclose(spacing_law(2, 2, 1.0, "claimed").pdf(1.0), math.exp(-1.0), rtol=1e-14)
    # Exp(rate 2) density at 0 for the second spacing of three
    assert spacing_law(3, 2, 1.0, "claimed").pdf(0.0) == 2.0
    # m=2: claimed and true agree at y=1 yet differ at 0
    claimed = spacing_law(2, 2, 2.0, "claimed")
    assert_allclose(claimed.pdf(1.0), math.exp(-1.0), rtol=1e-14)
    assert claimed.pdf(0.0) == 0.0
    assert y2_pdf_exact(2, 0.0) == 0.5


def test_claimed_cdf_yj_exponential():
    ys = np.linspace(0.0, 3.0, 40)
    assert_allclose(spacing_law(3, 2, 1.0, "claimed").cdf(ys), 1.0 - np.exp(-2.0 * ys),
                    atol=1e-14)


def test_claimed_yj_validation():
    with pytest.raises(ValueError):
        spacing_law(3, 1, 1.0, "claimed")
    with pytest.raises(ValueError):
        spacing_law(3, 4, 1.0, "claimed")


def test_density_curve_normalization_and_endpoints():
    curve = density_curve(spacing_law(2, 2, 1), 10.0, 101)
    assert curve.normalization_error < 1e-3
    exact2 = density_curve(spacing_law(2, 2, 2), 8.0, 200)
    assert exact2.values[0] == 0.5
    claimed2 = density_curve(spacing_law(2, 2, 2, "claimed"), 8.0, 200)
    assert claimed2.values[0] == 0.0


def test_density_curve_validation():
    law = spacing_law(2, 2, 1)
    with pytest.raises(ValueError):
        density_curve(law, 0.0, 10)
    with pytest.raises(ValueError):
        density_curve(law, 5.0, 1)
    with pytest.raises(TypeError):
        density_curve(law, 5.0, True)
    assert np.array_equal(density_curve(law, 5.0, np.int64(10)).values,
                          density_curve(law, 5.0, 10).values)
    grid = np.linspace(0.0, 5.0, 10)
    with pytest.raises(ValueError):
        DensityCurve(grid=grid, values=np.ones(3), normalization_error=0.0)
    with pytest.raises(ValueError):
        DensityCurve(grid=grid, values=-np.ones_like(grid), normalization_error=0.0)


def test_density_curve_type_invariants():
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0, 0.0, 1.0]), values=np.zeros(3),
                     normalization_error=0.0)
    with pytest.raises(ValueError):
        DensityCurve(grid=np.array([0.0]), values=np.array([1.0]),
                     normalization_error=0.0)


@pytest.mark.parametrize("grid, values, message", [
    ([0.0, math.nan], [1.0, 1.0], "^grid must be a finite 1-D array of length >= 2"),
    ([0.0, math.inf], [1.0, 1.0], "^grid must be a finite 1-D array"),
    ([[0.0, 1.0]], [[1.0, 1.0]], "^grid must be a finite 1-D array"),
    ([0.0, 1.0], [1.0, math.inf], "^values must be a finite 1-D array"),
    ([0.0, 1.0], [1.0, math.nan], "^values must be a finite 1-D array"),
    ([0.0, 1.0, 2.0], [1.0, 1.0], "equal length"),
    ([1.0, 0.0], [1.0, 1.0], "strictly increasing"),
    ([0.0, 1.0], [1.0, -1e-300], ">= 0"),
])
def test_density_curve_rejects_bad_arrays(grid, values, message):
    with pytest.raises(ValueError, match=message):
        DensityCurve(grid=grid, values=values, normalization_error=0.0)


def test_quadrature_route_agrees_with_exact_on_grid():
    # module-level slice of the oracle-equivalence property (full sweep
    # in the acceptance suite)
    idx = SpacingIndex(n=2, j=2)
    ys = np.linspace(0.0, 12.0, 25)
    for m in (1, 3):
        numeric = np.array(
            [spacing_pdf_numeric(idx, GammaParams(float(m), 1.0), float(y)) for y in ys]
        )
        assert np.max(np.abs(numeric - y2_pdf_exact(m, ys))) < 1e-6, m


def mpmath_spacing_law(idx, m, y, cdf):
    """Density (``cdf=False``) or cdf of ``Y_j = X_(j) - X_(j-1)`` at ``y``
    for unit-scale Gamma(m) samples, by 30-digit mpmath quadrature.

    Independent of the package's routes: it uses mpmath's incomplete
    gamma, and the cdf's inner integral over ``X_(j)``,
    ``int_x^(x+y) f(t) S(t)^c dt = (S(x)^(c+1) - S(x+y)^(c+1)) / (c+1)``,
    is taken in closed form instead of as an incomplete beta.  The outer
    integral runs over ``u = x^m`` (``f(x) dx = exp(-x) du / G(m+1)``),
    where mpmath stays accurate for ``m < 1``; it stops at ``x = 40``,
    beyond which less than 1e-13 of the mass lies for these shapes.
    """
    with mp.workdps(30):
        m, y = mp.mpf(m), mp.mpf(y)
        a, c = idx.j - 2, idx.n - idx.j
        coef = mp.factorial(idx.n) / (mp.factorial(a) * mp.factorial(c))
        lgm = mp.loggamma(m)

        def F(x):
            return mp.gammainc(m, 0, x, regularized=True)

        def inner(x):
            if cdf:
                return ((1 - F(x)) ** (c + 1) - (1 - F(x + y)) ** (c + 1)) / (c + 1)
            pdf_xy = mp.exp((m - 1) * mp.log(x + y) - (x + y) - lgm)
            return pdf_xy * (1 - F(x + y)) ** c

        def integrand(u):
            x = u ** (1 / m)
            return F(x) ** a * mp.exp(-x - lgm) / m * inner(x)

        return float(coef * mp.quad(integrand, [t ** m for t in (0, 2, 40)]))


def case_id(value):
    """``n<n>s<j>r<j-1>``, the ranks ``s = j`` and ``r = j-1`` of ``Y_j =
    X_(s) - X_(r)``, for an index; ``m<m>`` for a shape."""
    if isinstance(value, SpacingIndex):
        return f"n{value.n}s{value.j}r{value.j - 1}"
    return f"m{value}"


ORACLE_CASES = [SpacingIndex(3, 2), SpacingIndex(4, 3), SpacingIndex(5, 4)]


@pytest.mark.parametrize("m", [0.3, 0.5, 2.5])
@pytest.mark.parametrize("idx", ORACLE_CASES, ids=case_id)
def test_numeric_routes_match_mpmath_oracle(idx, m):
    params = GammaParams(m)
    pdf = spacing_pdf_numeric(idx, params, 0.4)
    cdf = spacing_cdf_numeric(idx, params, 0.4)
    assert abs(pdf - mpmath_spacing_law(idx, m, 0.4, cdf=False)) < 1e-8
    assert abs(cdf - mpmath_spacing_law(idx, m, 0.4, cdf=True)) < 1e-10


def test_spacing_pdf_numeric_below_unit_shape_in_the_tail():
    # integrated in x instead of u = x^m, this point of the density --m 0.5
    # grid fails with "probably divergent"
    idx, y = SpacingIndex(3, 2), 6.9015
    pdf = spacing_pdf_numeric(idx, GammaParams(0.5), y)
    assert abs(pdf - mpmath_spacing_law(idx, 0.5, y, cdf=False)) < 1e-8


def quad_spacing_law(idx, m, y, cdf):
    """Density (``cdf=False``) or cdf of ``Y_j = X_(j) - X_(j-1)`` at one
    ``y`` for unit-scale Gamma(m) samples: the integrand of
    ``spacing_pdf_numeric`` or ``spacing_cdf_numeric``, integrated
    pointwise by scalar ``scipy.integrate.quad`` over ``x`` (over
    ``u = x^m`` for ``m < 1``) to an absolute 1e-12.
    """
    n, j = idx.n, idx.j
    a, c = j - 2, n - j

    def F(x):
        return special.gammainc(m, x)

    def S(x):
        return special.gammaincc(m, x)

    def f(x):
        return math.exp((m - 1) * math.log(x) - x - math.lgamma(m))

    def inner(x):
        if cdf:
            coef = math.factorial(n) / (math.factorial(a) * math.factorial(c + 1))
            return coef * F(x) ** a * S(x) ** (c + 1) * special.betaincc(c + 1, 1, S(x + y) / S(x))
        coef = math.factorial(n) / (math.factorial(a) * math.factorial(c))
        return coef * F(x) ** a * f(x + y) * S(x + y) ** c

    upper = float(gamma_quantile(1.0 - 1e-14, GammaParams(m))) + (0.0 if cdf else y)
    if m >= 1:
        value = quad(lambda x: f(x) * inner(x), 0.0, upper, epsabs=1e-12, epsrel=0.0, limit=200)
    else:
        def in_u(u):
            x = u ** (1.0 / m)
            return math.exp(-x - math.lgamma(m + 1.0)) * inner(x)
        value = quad(in_u, 0.0, upper**m, epsabs=1e-12, epsrel=0.0, limit=200)
    return value[0]


ARRAY_CASES = [(SpacingIndex(4, 3), 2.5), (SpacingIndex(3, 2), 0.5),
               (SpacingIndex(5, 4), 0.3), (SpacingIndex(4, 4), 2.0)]


@pytest.mark.parametrize("idx, m", ARRAY_CASES, ids=case_id)
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
    coarse = spacing_pdf_numeric(SpacingIndex(3, 2), GammaParams(0.5), curve.grid)
    assert np.max(np.abs(curve.values - coarse)) < 1e-9


def test_numeric_routes_return_a_float_for_a_scalar_and_zero_below_the_support():
    idx, params = SpacingIndex(4, 3), GammaParams(2.5)
    for fn in (spacing_pdf_numeric, spacing_cdf_numeric):
        assert type(fn(idx, params, 1.0)) is float
        assert type(fn(idx, params, -1.0)) is float
        assert fn(idx, params, np.array([1.0])).shape == (1,)
        assert fn(idx, params, np.array([])).shape == (0,)
    pdf = spacing_pdf_numeric(idx, params, [-2.0, -1e-12, 0.5, -3.0])
    assert list(pdf[[0, 1, 3]]) == [0.0, 0.0, 0.0] and pdf[2] > 0
    cdf = spacing_cdf_numeric(idx, params, [-1.0, 0.0, 0.5])
    assert list(cdf[:2]) == [0.0, 0.0] and 0 < cdf[2] < 1


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature ran")


def test_numeric_routes_reject_bad_input_before_any_quadrature(monkeypatch):
    # bad points: test_every_pdf_and_cdf_follows_the_point_rule
    monkeypatch.setattr(spacings, "_adaptive_gk21", _no_quadrature)
    idx, params = SpacingIndex(4, 3), GammaParams(2.5)
    for fn in (spacing_pdf_numeric, spacing_cdf_numeric):
        for tol in (0.0, 1.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="tol"):
                fn(idx, params, [0.5, 1.0], tol)


_NUMERIC_LAW = spacing_law(4, 3, 2.5)
_EXACT_LAW, _CLAIMED_LAW = spacing_law(2, 2, 3), spacing_law(4, 3, 2.5, "claimed")

# every pdf and cdf: one point rule (gamma._pointwise) for all of them
POINT_RULE_ENTRY_POINTS = {
    "gamma_pdf": lambda y: gamma_pdf(y, GammaParams(2.5, 0.5)),
    "gamma_cdf": lambda y: gamma_cdf(y, GammaParams(2.5, 0.5)),
    "MixtureDecomposition.pdf": y2_mixture(3).pdf,
    "MixtureDecomposition.cdf": y2_mixture(3).cdf,
    "y2_pdf_exact": lambda y: y2_pdf_exact(3, y),
    "spacing_pdf_numeric": lambda y: spacing_pdf_numeric(SpacingIndex(4, 3), GammaParams(2.5), y),
    "spacing_cdf_numeric": lambda y: spacing_cdf_numeric(SpacingIndex(4, 3), GammaParams(2.5), y),
    "numeric law pdf": _NUMERIC_LAW.pdf,
    "numeric law cdf": _NUMERIC_LAW.cdf,
    "exact law pdf": _EXACT_LAW.pdf,
    "exact law cdf": _EXACT_LAW.cdf,
    "claimed law pdf": _CLAIMED_LAW.pdf,
    "claimed law cdf": _CLAIMED_LAW.cdf,
}


@pytest.mark.parametrize("entry", POINT_RULE_ENTRY_POINTS)
def test_every_pdf_and_cdf_follows_the_point_rule(entry, monkeypatch):
    fn = POINT_RULE_ENTRY_POINTS[entry]
    value = fn(0.5)
    assert type(value) is float and 0.0 < value < 1.0
    assert fn(-1.0) == 0.0 and type(fn(-1.0)) is float
    assert list(fn(np.array([-1e300, 0.5, -2.0, -1e-300]))) == [0.0, value, 0.0, 0.0]
    assert fn(0.0) >= 0.0  # also builds the numeric law's cdf table
    empty = fn([])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # a bad y raises, and (the numeric law's table aside) runs no quadrature
    monkeypatch.setattr(spacings, "_adaptive_gk21", _no_quadrature)
    for bad in (math.nan, math.inf, -math.inf, [0.5, math.nan], [-math.inf, 1.0],
                np.ones((2, 2)), np.ones((1, 1)), [[0.5]]):
        with pytest.raises(ValueError, match=r"^y must be a finite 1-D array of length >= 0$"):
            fn(bad)


def test_numeric_cdf_builds_its_table_at_zero(monkeypatch):
    # validate builds the table on its side thread by calling cdf(0.0),
    # where no point is > 0
    calls = []
    real = spacings.spacing_cdf_numeric

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(spacings, "spacing_cdf_numeric", counted)
    law = spacing_law(4, 3, 2.5)
    assert law.cdf(0.0) == 0.0
    assert len(calls) == 1 and len(calls[0]) == spacings.CDF_NODES
    assert 0.0 < law.cdf(1.0) < 1.0
    assert len(calls) == 1


# every cdf: its formula at y = 0, which is exactly +0.0
ZERO_CDFS = {
    "gamma_cdf": POINT_RULE_ENTRY_POINTS["gamma_cdf"],
    "MixtureDecomposition.cdf": POINT_RULE_ENTRY_POINTS["MixtureDecomposition.cdf"],
    "spacing_cdf_numeric": POINT_RULE_ENTRY_POINTS["spacing_cdf_numeric"],
    "spacing_cdf_numeric, m < 1": lambda y: spacing_cdf_numeric(SpacingIndex(3, 2),
                                                                GammaParams(0.3), y),
    "exact law cdf": _EXACT_LAW.cdf,
    "claimed law cdf": _CLAIMED_LAW.cdf,
    "numeric law cdf": _NUMERIC_LAW.cdf,
}


@pytest.mark.parametrize("entry", ZERO_CDFS)
def test_every_cdf_is_plus_zero_at_zero(entry):
    fn = ZERO_CDFS[entry]
    for y in (0.0, -0.0):
        value = fn(y)
        assert value == 0.0 and not np.signbit(value)
        values = fn(np.array([y, 1e-300, 1.0]))
        assert values[0] == 0.0 and not np.signbit(values[0])
        assert 0.0 <= values[1] <= values[2] < 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.ones((2, 2)), -1.0,
                                 [-2.0, -1e-300]])
def test_numeric_cdf_builds_no_table_for_points_off_the_support(bad, monkeypatch):
    # a bad y raises, and a y below 0 is 0, before any quadrature
    calls = []
    real = spacings.spacing_cdf_numeric

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(spacings, "spacing_cdf_numeric", counted)
    law = spacing_law(4, 3, 2.5)
    if np.all(np.isfinite(bad)) and np.ndim(bad) < 2:
        assert np.all(law.cdf(bad) == 0.0)
    else:
        with pytest.raises(ValueError, match="^y must be a finite 1-D array"):
            law.cdf(bad)
    assert calls == []


def test_numeric_cdf_table_error_at_validates_shape():
    # 7 evenly spaced probes inside each node interval, since the midpoints
    # alone read 4.3e-8 here and the dense probe 8.5e-7; 1e-6 is the gate
    # of the table's rewrite
    idx, params = SpacingIndex(4, 3), GammaParams(2.5)
    ymax = 2.0 * float(gamma_quantile(1.0 - 1e-8, params))
    nodes = ymax * np.linspace(0.0, 1.0, spacings.CDF_NODES) ** 3
    ys = (nodes[:-1, None] + np.diff(nodes)[:, None] * np.arange(1, 8) / 8).ravel()
    gap = np.max(np.abs(spacing_law(4, 3, 2.5).cdf(ys) - spacing_cdf_numeric(idx, params, ys)))
    assert gap <= 1e-6


@pytest.mark.parametrize("p, m, limit", [(0.5, 2.5, 0.1084), (0.5, 0.5, 0.2700),
                                         (0.25, 5.0, 0.1939)])
def test_numeric_cdf_tends_to_the_large_n_exponential_at_rate_one_over_n(p, m, limit):
    # (n-j+1) Y_j -> Exp(h(xi_p)) for (j-1)/n = p, with xi_p = Q(p) and
    # h = f/S the Gamma(m) hazard (Pyke 1965); the gap to
    # 1 - exp(-(n-j+1) h y) shrinks exactly like C/n, C > 0
    xi = float(gamma_quantile(p, GammaParams(m)))
    h = float(gamma_pdf(xi, GammaParams(m))) / (1.0 - float(gamma_cdf(xi, GammaParams(m))))
    scaled = []
    for n in (2000, 20000):
        j = round(p * n) + 1
        c = n - j + 1
        ys = np.linspace(0.0, 10.0, 201)[1:] / (c * h)
        cdf = spacing_cdf_numeric(SpacingIndex(n, j), GammaParams(m), ys)
        scaled.append(n * np.max(np.abs(cdf + np.expm1(-c * h * ys))))
    assert scaled[1] == pytest.approx(scaled[0], rel=0.01)
    assert scaled[0] == pytest.approx(limit, abs=1e-3)


@pytest.mark.parametrize("m, bound", [(0.3, 1e-3), (0.5, 1e-5), (2.5, 1e-5)])
def test_spacing_law_cdf_interpolates_pointwise_cdf(m, bound):
    law = spacing_law(3, 2, m)
    assert law.route == "numeric" and law.m == m
    idx, params = SpacingIndex(3, 2), GammaParams(m)
    ys = np.geomspace(1e-6, 20.0, 60)
    pointwise = np.array([spacing_cdf_numeric(idx, params, y) for y in ys])
    assert np.max(np.abs(law.cdf(ys) - pointwise)) < bound
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(0.0) == 0.0
    assert 1.0 - 1e-9 < law.cdf(1e6) <= 1.0


@pytest.mark.parametrize("m, mass", [(0.01, 0.69), (0.05, 0.16)])
def test_spacing_law_cdf_keeps_the_mass_near_zero_at_small_shape(m, mass):
    # most of the mass lies below the cubic's first interior node
    # (about 1.4e-6 here); there the cdf is the quadrature itself
    law = spacing_law(2, 2, m)
    assert law.route == "numeric"
    idx, params = SpacingIndex(2, 2), GammaParams(m)
    ys = np.geomspace(1e-16, 1e-6, 11)
    pointwise = np.array([spacing_cdf_numeric(idx, params, y) for y in ys])
    assert np.max(np.abs(law.cdf(ys) - pointwise)) < 1e-8
    assert law.cdf(1e-8) > mass  # the cubic alone gives 0.0065 and 0.0020
    values = law.cdf(np.concatenate([ys, [1e-5, 1e-3, 1.0]]))
    assert np.all(np.diff(values) >= 0.0)


@pytest.mark.parametrize("m", [0.3, 0.5, 2.5])
def test_monotone_cubic_matches_scipy_pchip_on_the_reference_cdf(m):
    # the 257-node reference cdf of spacing_law, flat at 1 over its top
    # nodes; law.cdf also clips y outside [0, ymax] to the end values,
    # and below the first interior node it is the quadrature itself
    idx, params = SpacingIndex(3, 2), GammaParams(m)
    ymax = 2.0 * float(gamma_quantile(1.0 - 1e-8, params))
    nodes = ymax * np.linspace(0.0, 1.0, spacings.CDF_NODES) ** 3
    values = np.maximum.accumulate(spacing_cdf_numeric(idx, params, nodes))
    assert np.sum(np.diff(values) == 0) > 0
    ys = np.concatenate([nodes, np.linspace(0.0, ymax, 5001), np.geomspace(1e-9, ymax, 500)])
    oracle = PchipInterpolator(nodes, values)
    assert np.max(np.abs(spacings._monotone_cubic(nodes, values)(ys) - oracle(ys))) <= 1e-14
    ys = np.concatenate([ys, [-5.0, -1e-300, ymax * (1 + 1e-12), 2 * ymax, 1e6]])
    law_cdf = spacing_law(3, 2, m).cdf(ys)
    low = (ys > 0.0) & (ys < nodes[1])
    expected = np.clip(oracle(np.clip(ys[~low], 0.0, ymax)), 0.0, 1.0)
    assert np.max(np.abs(law_cdf[~low] - expected)) <= 1e-14
    assert np.max(np.abs(law_cdf[low] - spacing_cdf_numeric(idx, params, ys[low]))) <= 1e-14


def test_monotone_cubic_matches_scipy_pchip_with_flat_runs_and_uneven_steps():
    x = np.array([0.0, 0.3, 0.35, 1.0, 1.2, 2.5, 2.6, 4.0, 7.0])
    y = np.array([0.0, 0.2, 0.2, 0.2, 0.5, 0.9, 0.9, 0.95, 1.0])
    ys = np.linspace(0.0, 7.0, 2001)
    fit = spacings._monotone_cubic(x, y)(ys)
    assert np.max(np.abs(fit - PchipInterpolator(x, y)(ys))) <= 1e-14
    assert np.all(np.diff(fit) >= -1e-15)
    assert np.all(fit[(ys >= 0.3) & (ys <= 1.0)] == 0.2)  # flat run stays flat


@pytest.mark.parametrize("idx, m", ARRAY_CASES, ids=case_id)
def test_adaptive_gk21_follows_quad_vec(idx, m, monkeypatch):
    # the same subdivision as scipy's quad_vec (GK21, max norm, the same
    # breakpoints): equal interval counts, values equal to rounding
    seen = {}

    def record(fn, points, tol):
        seen["fn"], seen["args"] = fn, (points, tol)
        seen["ours"] = adaptive(fn, points, tol)
        return seen["ours"]

    adaptive = spacings._adaptive_gk21
    monkeypatch.setattr(spacings, "_adaptive_gk21", record)
    ys = np.linspace(0.01, 12.0, 301)
    spacing_pdf_numeric(idx, GammaParams(m), ys)
    fn, (points, tol) = seen["fn"], seen["args"]
    value, err, status, intervals = seen["ours"]
    ref, ref_err, info = integrate.quad_vec(
        lambda x: fn(np.array([x]))[0], points[0], points[-1], epsabs=tol, epsrel=0.0,
        norm="max", limit=spacings.SUBDIVISION_LIMIT, points=points[1:-1], full_output=True)
    assert (status, intervals) == (info.status, len(info.intervals))
    assert np.max(np.abs(value - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))
    assert abs(err - ref_err) <= 1e-12 * ref_err


@pytest.mark.parametrize("group", [1, 2 * spacings.SUBDIVISION_LIMIT])
def test_grouped_integrand_calls_give_the_same_bits(group, monkeypatch):
    # one integrand call per interval, or one for every interval of a pass
    # (a round bisects at most SUBDIVISION_LIMIT), against the default
    cases = [(SpacingIndex(4, 3), 2.5), (SpacingIndex(5, 4), 0.3), (SpacingIndex(1200, 600), 2.0)]
    ys = np.linspace(0.0, 3.0, 301)
    routes = (spacing_pdf_numeric, spacing_cdf_numeric)
    default = [fn(idx, GammaParams(m), ys / idx.n) for idx, m in cases for fn in routes]
    monkeypatch.setattr(spacings, "_GK21_GROUP", group)
    grouped = [fn(idx, GammaParams(m), ys / idx.n) for idx, m in cases for fn in routes]
    assert all(np.array_equal(a, b) for a, b in zip(default, grouped))


LARGE_N_CASES = [(n, j) for n in (1030, 5000, 20000) for j in (2, 3, n // 2)]


@pytest.mark.parametrize("n, j", LARGE_N_CASES)
def test_numeric_routes_give_the_exponential_law_at_large_n(n, j):
    # at m = 1, Y_j ~ Exp(n-j+1).  From a single starting interval every
    # GK21 node missed the mass of X_(j-1) near 0, so the routes returned
    # 0, and the mid-rank coefficient overflowed a float.  The pdf bound
    # is relative, since values near n exceed 1e-9.  log C(n-1, j-2) is
    # an exact sum; what rounding remains, about 1e-12, comes from the
    # (c-1) log S(t) term
    rate = n - j + 1
    idx, params = SpacingIndex(n, j), GammaParams(1.0)
    ys = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0]) / rate
    pdf = spacing_pdf_numeric(idx, params, ys)
    cdf = spacing_cdf_numeric(idx, params, ys)
    assert np.max(np.abs(pdf / (rate * np.exp(-rate * ys)) - 1.0)) < 5e-12
    assert np.max(np.abs(cdf + np.expm1(-rate * ys))) < 5e-12


@pytest.mark.parametrize("m", [2.5, 0.3])
def test_numeric_routes_integrate_over_one_range(m, monkeypatch):
    # the mass of the integrand in x lies where the law of X_(j-1) puts
    # it, whatever y is: the pdf near 0, the pdf far in the tail and the
    # cdf start from the same points
    seen = []

    def record(fn, points, tol):
        seen.append(points)
        return adaptive(fn, points, tol)

    adaptive = spacings._adaptive_gk21
    monkeypatch.setattr(spacings, "_adaptive_gk21", record)
    idx, params = SpacingIndex(5, 4), GammaParams(m)
    spacing_pdf_numeric(idx, params, np.linspace(0.01, 0.1, 10))
    spacing_pdf_numeric(idx, params, np.linspace(0.01, 50.0, 10))
    spacing_cdf_numeric(idx, params, np.linspace(0.01, 50.0, 10))
    assert len(seen) == 3
    assert np.array_equal(seen[0], seen[1]) and np.array_equal(seen[0], seen[2])


def test_benchmark_quadratures_keep_their_interval_count(monkeypatch):
    # the density workload's 2001-point pdf and the validate workload's
    # cdf table each take 10 GK21 intervals in 2 passes; a timing bound
    # of a quarter, on a noisy host, would not see a few more
    passes = []

    def count(fn, a, b):
        passes.append(a.size)
        return gk21(fn, a, b)

    gk21 = spacings._gk21
    monkeypatch.setattr(spacings, "_gk21", count)
    idx, params = SpacingIndex(4, 3), GammaParams(2.5)
    ymax = math.ceil(float(gamma_quantile(0.9999, params)) * 10) / 10
    spacing_pdf_numeric(idx, params, np.linspace(0.0, ymax, 2001))
    assert len(passes) <= 2 and sum(passes) <= 10, passes
    passes.clear()
    spacing_law(4, 3, 2.5).cdf(1.0)  # builds the CDF_NODES table
    assert len(passes) <= 2 and sum(passes) <= 10, passes


def test_spacing_law_cdf_raises_when_its_table_misses_mass(monkeypatch):
    # a quadrature that sees no mass gives a table that never reaches 1
    monkeypatch.setattr(spacings, "_adaptive_gk21", lambda fn, points, tol: (0.0, 0.0, 0, 1))
    law = spacing_law(4, 3, 2.5)
    with pytest.raises(QuadratureError, match=r"numeric cdf reaches 0 at ymax = .*, not 1"):
        law.cdf(1.0)


def test_spacing_law_cdf_at_large_n_reaches_one_and_follows_the_exponential_law():
    # the table's own interpolation error at this scale is about 5e-4
    rate = 1029
    law = spacing_law(1030, 2, 1.0)
    assert law.route == "numeric"
    ys = np.geomspace(1e-6, 20.0, 400) / rate
    assert np.max(np.abs(law.cdf(ys) + np.expm1(-rate * ys))) < 1e-3
    assert 1.0 - 1e-9 <= law.cdf(1e6) <= 1.0


def test_spacing_pdf_numeric_converges_at_tol_1e_13():
    # density's default grid at m = 2.5, which from a single starting
    # interval stopped on the summed rounding estimate (QuadratureError)
    idx, params, tol = SpacingIndex(4, 3), GammaParams(2.5), 1e-13
    ymax = math.ceil(float(gamma_quantile(0.9999, params)) * 10) / 10
    ys = np.linspace(0.0, ymax, 2001)
    pdf = spacing_pdf_numeric(idx, params, ys, tol)
    for i in (1, 100, 200, 300, 400, 500):
        assert abs(pdf[i] - mpmath_spacing_law(idx, 2.5, ys[i], cdf=False)) < tol, ys[i]


def test_adaptive_gk21_stops_at_the_subdivision_limit():
    # a divergent integral (f_Y(0) is infinite at m < 1/2): no round may
    # bisect past the limit, so the run ends with exactly that many
    limit = spacings.SUBDIVISION_LIMIT
    with pytest.raises(QuadratureError, match=rf"in {limit} intervals \(limit {limit}\)"):
        spacing_pdf_numeric(SpacingIndex(2, 2), GammaParams(0.4), 0.0)


def test_spacing_law_resolves_routes():
    assert spacing_law(2, 2, 3).route == "exact"
    assert spacing_law(2, 2, 2.5).route == "numeric"
    assert spacing_law(3, 2, 3.0).route == "numeric"
    assert spacing_law(3, 2, 3.0, "claimed").route == "claimed"
    exact = spacing_law(2, 2, 3.0)
    ys = np.linspace(0.0, 6.0, 7)
    assert np.array_equal(exact.pdf(ys), y2_pdf_exact(3, ys))
    assert np.array_equal(exact.cdf(ys), y2_mixture(3).cdf(ys))
    claimed = spacing_law(4, 3, 2.5, "claimed")
    assert np.array_equal(claimed.pdf(ys), gamma_pdf(ys, GammaParams(2.5, 0.5)))
    assert np.array_equal(claimed.cdf(ys), gamma_cdf(ys, GammaParams(2.5, 0.5)))
    numeric = spacing_law(4, 3, 2.5)
    assert numeric.pdf(1.0) == spacing_pdf_numeric(SpacingIndex(4, 3), GammaParams(2.5), 1.0)
    assert numeric.pdf(np.array([1.0])).shape == (1,)
    for args in [(3, 2, 3.0, "exact"), (2, 2, 2.5, "exact"), (2, 2, 0.5, "exact"),
                 (3, 2, 1.0, "exponential"), (3, 4, 1.0), (3, 2, 0.0), (3, 2, math.nan)]:
        with pytest.raises(ValueError):
            spacing_law(*args)
    for tol in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            spacing_law(3, 2, 2.5, tol=tol)
    # the exact domain ends where y2_mixture's smallest weight, exactly
    # 2^-(m-1), is still the smallest subnormal rather than a value that
    # rounds to it
    top = spacings.EXACT_MAX_M
    assert spacing_law(2, 2, top).route == "exact"
    assert y2_mixture(top).weights.min() == 2.0 ** -(top - 1)
    # above it both exact functions refuse before building arrays:
    # np.arange(10**9) alone would take 8 GB
    for m in (top + 1, 10**9, 1e300):
        assert spacing_law(2, 2, m).route == "numeric"
        for exact in (y2_mixture, lambda m: y2_pdf_exact(m, 1.0)):
            with pytest.raises(ValueError, match=f"the exact route needs m <= {top}"):
                exact(m)
    with pytest.raises(ValueError, match=f"m <= {top}"):
        spacing_law(2, 2, top + 1, "exact")


def test_density_curve_of_law_starts_half_a_step_in_below_unit_shape():
    below = density_curve(spacing_law(3, 2, 0.7, "claimed"), 4.0, 5)
    assert list(below.grid) == [0.5, 1.0, 2.0, 3.0, 4.0]
    assert below.values[0] == gamma_pdf(0.5, GammaParams(0.7, 0.5))
    unit = density_curve(spacing_law(3, 2, 1.0, "claimed"), 4.0, 5)
    assert list(unit.grid) == [0.0, 1.0, 2.0, 3.0, 4.0]


@st.composite
def spacing_cases(draw):
    n = draw(st.integers(2, 6))
    return SpacingIndex(n, draw(st.integers(2, n))), draw(st.floats(0.3, 10.0))


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
    values = spacing_law(idx.n, idx.j, m, "numeric").cdf(ys)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values[np.argsort(ys)]) >= 0.0)
