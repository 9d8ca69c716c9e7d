"""Spacing laws of Gamma order statistics and discordancy tests.

The widely cited claim that the j-th spacing of a Gamma(m, sigma)
sample is itself Gamma(m, sigma/(n-j+1)) holds only for m = 1.  This
package provides the true spacing laws (``spacing_law``: an exact
closed form for two observations, adaptive quadrature in general), the
claimed law for comparison, scale-free discordancy statistics for upper
outliers, and seeded Monte Carlo machinery for critical values, p-values
and power under scale slippage.
"""

from . import gamma, gof, montecarlo, spacings, stats
from .gamma import *  # noqa: F403
from .gof import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .spacings import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

# The public names are the ones each module lists in its own ``__all__``.
__all__ = ["__version__", *gamma.__all__, *spacings.__all__, *stats.__all__,
           *montecarlo.__all__, *gof.__all__]
