"""How budget and prefetch lead time shape the optimal tile selection.

Two experiments on a six-level 4K ladder with the large-screen utility:

  1. grow the per-chunk byte budget and watch the optimizer climb the
     ladder with diminishing returns;
  2. grow the prefetch lead time, which widens the viewing-direction
     distribution, and watch the optimal value fall while a uniform
     (prediction-free) baseline stays flat.
"""

import numpy as np

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
    solve_dp,
    uniform,
    wrapped_gaussian,
)

LADDER = QualityLadder((144.0, 268.0, 625.0, 1124.0, 2217.0, 4198.0))
UTILITY = UtilityModel("large_screen")
GRID = DirectionGrid(6)


def levels_str(selection):
    return " ".join(str(l) for l in selection.levels)


def capacity_sweep():
    print("== capacity sweep, 20 s lead time, sigma = 25 * sqrt(T) ==")
    probs = wrapped_gaussian(25.0 * np.sqrt(20.0), GRID)
    print(f"tile probabilities: {np.array2string(probs, precision=3)}")
    print(f"{'capacity':>9}  {'levels':<12} {'value':>8}  gain")
    capacities = (1250, 2500, 5000, 10000, 20000)
    # one DP pass at the top budget holds the optimum for every smaller one
    report = solve_dp(Instance(GRID, LADDER, UTILITY, probs, max(capacities), beta=0.0), capacities)
    previous = None
    for capacity, selection in zip(capacities, report.selections):
        gain = "" if previous is None else f"+{selection.value - previous:.4f}"
        print(f"{capacity:>9}  {levels_str(selection):<12} {selection.value:>8.4f}  {gain}")
        previous = selection.value
    print("each doubling buys less than the one before it\n")


def lag_sweep():
    print("== lead-time sweep at a fixed 5000-unit budget ==")
    print(f"{'T (s)':>6}  {'sigma':>6}  {'predicted':>9}  {'uniform':>8}")
    for lag in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        sigma = 25.0 * np.sqrt(lag)
        predicted = solve_dp(Instance(GRID, LADDER, UTILITY,
                                      wrapped_gaussian(sigma, GRID), 5000, beta=0.0))
        flat = solve_dp(Instance(GRID, LADDER, UTILITY, uniform(GRID), 5000, beta=0.0))
        print(f"{lag:>6.1f}  {sigma:>6.1f}  {predicted.value:>9.4f}  {flat.value:>8.4f}")
    print("prediction quality decays with lead time; without prediction there is "
          "nothing to decay")


if __name__ == "__main__":
    capacity_sweep()
    lag_sweep()
