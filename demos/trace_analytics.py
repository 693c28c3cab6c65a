"""From recorded head motion to a data-driven prefetch decision.

Generates a small synthetic viewing cohort, round-trips it through the CSV
trace format, summarizes how heads actually move, and finally feeds the
measured yaw-change distribution back into the optimizer to compare
data-driven tile probabilities against a uniform fallback.
"""

import tempfile
from pathlib import Path

import numpy as np

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
    discretize,
    empirical_yaw_change,
    explore_then_fixate_trace,
    parse_trace,
    pairwise_angular_difference,
    random_walk_trace,
    solve_dp,
    uniform,
    velocity_prediction_error,
    write_trace,
    yaw_change_cdf,
)

LADDER = QualityLadder((144.0, 268.0, 625.0, 1124.0, 2217.0, 4198.0))
GRID = DirectionGrid(6)


def build_cohort(tmp_dir):
    """Write a mixed cohort of walkers and explorers, then parse it back."""
    paths = []
    for i in range(8):
        rng = np.random.default_rng(100 + i)
        if i % 2:
            trace = random_walk_trace(90.0, 30.0, step_sigma_deg=1.5, rng=rng,
                                      video_id="cityscape", user_id=f"u{i}")
        else:
            trace = explore_then_fixate_trace(90.0, 30.0, rng=rng,
                                              video_id="cityscape", user_id=f"u{i}")
        path = Path(tmp_dir) / f"viewer_{i}.csv"
        write_trace(trace, path)
        paths.append(path)
    return [parse_trace(p) for p in paths]


def motion_summary(traces):
    print(f"== cohort of {len(traces)} viewers, 90 s each ==")
    for lag in (1.0, 2.0, 5.0):
        stats = yaw_change_cdf(traces, lag).describe()
        print(f"yaw change over {lag:.0f} s: median {stats['median']:+.1f} deg, "
              f"central 98% within [{stats['p01']:+.1f}, {stats['p99']:+.1f}] deg")
    times, mean_diff = pairwise_angular_difference(traces, time_step_s=1.0)
    print(f"viewers start {mean_diff[0]:.0f} deg apart on average, "
          f"drift to {mean_diff[-1]:.0f} deg by t = {times[-1]:.0f} s")
    error = velocity_prediction_error(traces, lag_s=1.0, vel_threshold_dps=5.0)
    print(f"velocity sign mispredicts the next second {100 * error:.1f}% of the time\n")


def data_driven_solve(traces):
    print("== empirical tile probabilities vs uniform fallback ==")
    print(f"{'T (s)':>6}  {'empirical':>9}  {'uniform':>8}")
    utility = UtilityModel("large_screen")
    for lag in (1.0, 2.0, 5.0):
        probs = discretize(empirical_yaw_change(traces, lag), GRID)
        informed = solve_dp(Instance(GRID, LADDER, utility, probs, 5000, beta=0.1))
        fallback = solve_dp(Instance(GRID, LADDER, utility, uniform(GRID), 5000, beta=0.1))
        print(f"{lag:>6.1f}  {informed.value:>9.4f}  {fallback.value:>8.4f}")
    print("measured motion concentrates mass near the current direction, so the "
          "optimizer buys quality where the head will actually be")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp_dir:
        cohort = build_cohort(tmp_dir)
    motion_summary(cohort)
    data_driven_solve(cohort)
