"""Spacing laws of Gamma order statistics and discordancy tests.

The widely cited claim that the j-th spacing of a Gamma(m, sigma)
sample is itself Gamma(m, sigma/(n-j+1)) holds only for m = 1.  This
package provides the true spacing laws (an exact closed form and
mixture decomposition for two observations, adaptive quadrature in
general), the claimed law for comparison, scale-free discordancy
statistics for upper outliers, and seeded Monte Carlo machinery for
critical values, p-values and power under scale slippage.
"""

from .gamma import (
    GammaParams,
    RngStream,
    gamma_cdf,
    gamma_pdf,
    gamma_quantile,
    gamma_sample,
    gamma_sf,
    log_gamma,
)
from .gof import (
    Histogram,
    KsResult,
    MonotoneCdf,
    ecdf,
    histogram,
    ks_pvalue,
    ks_statistic,
    ks_test,
)
from .montecarlo import (
    ConfigMismatchError,
    DegenerateDrawError,
    EmpiricalSample,
    SimulationConfig,
    SlippageAlternative,
    critical_value,
    p_value,
    simulate_power,
    simulate_spacing,
    simulate_statistic,
)
from .spacings import (
    DensityCurve,
    MixtureDecomposition,
    QuadratureError,
    SpacingIndex,
    claimed_cdf_yj,
    claimed_pdf_yj,
    density_curve,
    spacing_cdf_numeric,
    spacing_pdf_numeric,
    y2_cdf_exact,
    y2_mixture,
    y2_pdf_exact,
)
from .stats import (
    DegenerateSampleError,
    SampleData,
    StatisticConfig,
    dixon_dk,
    dixon_dk_refuted,
    spacings_from_sample,
    z_k,
    z_k_telescoped,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GammaParams",
    "RngStream",
    "log_gamma",
    "gamma_pdf",
    "gamma_cdf",
    "gamma_sf",
    "gamma_quantile",
    "gamma_sample",
    "SpacingIndex",
    "DensityCurve",
    "MixtureDecomposition",
    "QuadratureError",
    "y2_pdf_exact",
    "y2_cdf_exact",
    "y2_mixture",
    "spacing_pdf_numeric",
    "spacing_cdf_numeric",
    "claimed_pdf_yj",
    "claimed_cdf_yj",
    "density_curve",
    "DegenerateSampleError",
    "SampleData",
    "StatisticConfig",
    "spacings_from_sample",
    "z_k",
    "z_k_telescoped",
    "dixon_dk",
    "dixon_dk_refuted",
    "ConfigMismatchError",
    "DegenerateDrawError",
    "SimulationConfig",
    "EmpiricalSample",
    "SlippageAlternative",
    "simulate_spacing",
    "simulate_statistic",
    "critical_value",
    "p_value",
    "simulate_power",
    "KsResult",
    "Histogram",
    "MonotoneCdf",
    "ecdf",
    "ks_statistic",
    "ks_pvalue",
    "ks_test",
    "histogram",
]
