"""Settle the question by simulation: draw pairs from Gamma(m, 1),
collect the spacing Y_2 = X_(2) - X_(1), and KS-test the sample against
both candidate laws.

With 10^4 replications the assumed Gamma(m, 1) law is rejected beyond
doubt at m = 3 and m = 8 while the mixture law fits comfortably; at
m = 1 the two laws are the same distribution and both fit.
"""

import numpy as np

from gammaspacings import SimulationConfig, ks_test, simulate_spacing, spacing_law

SEED = 2024
REPS = 10**4


def main():
    print(f"KS tests of {REPS} simulated spacings per shape (seed {SEED})\n")
    print(f"{'m':>3}  {'mean':>7}  {'true D':>8}  {'true p':>9}  "
          f"{'assumed D':>9}  {'assumed p':>9}  verdict")
    for m in (1, 3, 8):
        cfg = SimulationConfig(n=2, m=float(m), reps=REPS, seed=SEED)
        sample = simulate_spacing(cfg, 2)
        truth = ks_test(sample.values, spacing_law(2, 2, m).cdf)
        claim = ks_test(sample.values, spacing_law(2, 2, m, "claimed").cdf)
        verdict = "assumed law rejected" if claim.p_value < 0.01 else "both fit"
        print(f"{m:>3}  {np.mean(sample.values):>7.4f}  {truth.statistic:>8.5f}  "
              f"{truth.p_value:>9.3g}  {claim.statistic:>9.5f}  "
              f"{claim.p_value:>9.3g}  {verdict}")
    print("\nThe same table is available from the command line:")
    print("  gammaspacings validate --m 1,3,8 --reps 10000 --seed 2024")


if __name__ == "__main__":
    main()
