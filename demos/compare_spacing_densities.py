"""Tabulate the true density of the spacing Y_2 = X_(2) - X_(1) for two
Gamma(m, 1) observations next to the Gamma(m, 1) density that is often
assumed for it.

The two curves coincide at m = 1 (the exponential case) and nowhere
else; the clearest symptom is the value at the origin, where the true
density starts at a positive level while the assumed one starts at 0
for every m > 1.
"""

import numpy as np

from gammaspacings import spacing_law, y2_mixture


def describe(m):
    mix = y2_mixture(m)
    weights = ", ".join(f"{w:.4f}" for w in mix.weights)
    print(f"\nm = {m}")
    print(f"  true law = mixture of Gamma(i+1, 1), i = 0..{m - 1}")
    print(f"  weights  = [{weights}]")

    true, assumed = spacing_law(2, 2, m).pdf, spacing_law(2, 2, m, "claimed").pdf
    grid = np.linspace(0.0, 12.0, 241)
    gap = np.abs(true(grid) - assumed(grid))
    at = grid[np.argmax(gap)]
    print(f"  true density at 0      = {true(0.0):.6f}")
    print(f"  assumed density at 0   = {assumed(0.0):.6f}")
    print(f"  sup |true - assumed|   = {gap.max():.6f} (at y = {at:.3f})")

    print(f"  {'y':>6}  {'true':>10}  {'assumed':>10}")
    for y in (0.0, 0.5, 1.0, 2.0, 4.0):
        print(f"  {y:>6.2f}  {true(y):>10.6f}  {assumed(y):>10.6f}")


def main():
    print("True vs assumed density of the spacing Y_2, n = 2 draws from Gamma(m, 1)")
    for m in (1, 3, 8):
        describe(m)
    print("\nOnly m = 1 shows agreement; the sup distance grows with m.")


if __name__ == "__main__":
    main()
