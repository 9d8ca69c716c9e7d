"""Walk through an upper-outlier discordancy test on Gamma data.

The statistic z_k weighs the top k spacings against all spacings; its
null distribution has no usable closed form, so critical values come
from seeded simulation.  A planted outlier (one observation scaled way
up) is flagged; the same data without the outlier is not.
"""

import numpy as np

from gammaspacings import (
    RngStream,
    SimulationConfig,
    critical_value,
    p_value,
    simulate_statistic,
    z_k,
)

SEED = 8675309
N, M, K, ALPHA = 8, 2.0, 1, 0.05


def decide(label, data, null):
    observed = z_k(data, K)
    crit = critical_value(null, ALPHA)
    pval = p_value(null, observed)
    verdict = "DISCORDANT" if pval <= ALPHA else "not discordant"
    print(f"  {label}")
    print(f"    z_{K} = {observed:.4f}   critical = {crit:.4f}   "
          f"p = {pval:.4f}   -> {verdict}")


def main():
    print(f"Null: {N} i.i.d. Gamma({M:g}, sigma) observations, "
          f"alpha = {ALPHA}, seed {SEED}")
    null = simulate_statistic(
        SimulationConfig(n=N, m=M, reps=10**4, seed=SEED, k=K), "zk"
    )
    clean = RngStream(SEED, 12345).generator().gamma(M, 1.0, N)
    contaminated = clean.copy()
    contaminated[np.argmax(contaminated)] *= 6.0

    print(f"\nClean draw: {np.round(np.sort(clean), 3)}")
    decide("clean sample", clean, null)
    print(f"\nSame draw with its largest value scaled by 6:")
    decide("contaminated sample", contaminated, null)
    print("\nThe CLI equivalent reads observations from a file:")
    print("  gammaspacings test data.txt --k 1 --m 2 --seed 8675309")


if __name__ == "__main__":
    main()
