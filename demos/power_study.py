"""Estimate the power of the z_k and Dixon d_k discordancy tests under
scale slippage: k of the n observations come from Gamma(m, b) instead
of Gamma(m, 1).

At b = 1 the rejection rate should sit at the nominal level; it climbs
toward 1 as the contamination grows.  Each statistic's sweep is one
``simulate_power`` call: it simulates the statistic's null from SEED,
then scales the top ``config.k`` draws of SEED + 1 by the plain factors
b, so the z_k and d_k columns are paired on the same samples and every
row on the same draws.
"""

from gammaspacings import SimulationConfig, simulate_power

SEED = 1789
N, M, K, ALPHA, REPS = 5, 1.0, 1, 0.05, 10**4


def main():
    print(f"Power under scale slippage of the top {K} of {N} observations")
    print(f"(Gamma({M:g}, 1) null, alpha = {ALPHA}, {REPS} replications, "
          f"seed {SEED})\n")
    bs = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
    cfg = SimulationConfig(n=N, m=M, reps=REPS, seed=SEED, k=K)
    zk, dk = (simulate_power(cfg, name, bs, ALPHA) for name in ("zk", "dk"))
    print(f"{'b':>6}  {'power zk':>9}  {'power dk':>9}")
    for b, p_zk, p_dk in zip(bs, zk, dk):
        print(f"{b:>6.1f}  {p_zk:>9.4f}  {p_dk:>9.4f}")
    print("\nCLI equivalent:")
    print("  gammaspacings power --n 5 --m 1 --k 1 --b 1,1.5,2,3,5,10 --seed 1789")


if __name__ == "__main__":
    main()
