"""Booking bytes early, upgrading tiles late.

A chunk is booked in three passes as playback approaches.  Early passes see
a wide viewing-direction distribution and spread cheap levels around the
circle; later passes see a sharper one and concentrate upgrades near the
predicted direction.  With layered (SVC) pricing an upgrade costs only the
rate difference, so early caution is cheap; with full re-downloads every
change of mind repurchases the tile.
"""

import numpy as np

from prefetch360 import (
    DirectionGrid,
    Instance,
    PrefetchPass,
    PrefetchPlan,
    QualityLadder,
    SizeModel,
    UtilityModel,
    run_plan,
    solve_dp,
    wrapped_gaussian,
)

LADDER = QualityLadder((144.0, 268.0, 625.0, 1124.0, 2217.0, 4198.0))
UTILITY = UtilityModel("large_screen")
GRID = DirectionGrid(6)

# lead time, byte budget for the pass, prediction spread at that lead
PASSES = ((20.0, 2000, 25.0 * np.sqrt(20.0)),
          (5.0, 1500, 25.0 * np.sqrt(5.0)),
          (1.0, 1500, 25.0))


def build_plan():
    return PrefetchPlan(tuple(
        PrefetchPass(lead, budget, wrapped_gaussian(sigma, GRID))
        for lead, budget, sigma in PASSES))


def show_trajectory(label, size_model):
    print(f"== {label} ==")
    print(f"{'lead (s)':>8}  {'budget':>6}  {'levels':<12} {'value':>7}")
    plan = build_plan()
    results = run_plan(plan, LADDER, UTILITY, beta=0.0, size_model=size_model)
    for booking, r in zip(plan.passes, results):
        levels = " ".join(str(int(x)) for x in r.state.levels)
        print(f"{booking.lead_time_s:>8.1f}  {booking.budget:>6}  {levels:<12} {r.value:>7.4f}")
    return results[-1]


def main():
    layered = show_trajectory("layered pricing (svc_ideal)", SizeModel("svc_ideal"))
    print()
    redownload = show_trajectory("full re-download pricing", SizeModel("redownload"))
    print()

    total = sum(budget for _, budget, _ in PASSES)
    final_probs = wrapped_gaussian(PASSES[-1][2], GRID)
    oneshot = solve_dp(Instance(GRID, LADDER, UTILITY, final_probs, total, beta=0.0))
    print(f"one shot of {total} units under the final (sharpest) probabilities: "
          f"{oneshot.value:.4f}")
    print(f"layered bookings reach {layered.value:.4f} "
          f"({oneshot.value - layered.value:.4f} is the price of committing early)")
    print(f"re-download bookings reach {redownload.value:.4f} "
          f"(changes of mind repurchase whole tiles)")


if __name__ == "__main__":
    main()
