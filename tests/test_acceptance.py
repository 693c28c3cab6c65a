"""Acceptance gate: one test per shipped guarantee.

Each test prints one PASS/FAIL line with the measured numbers; run
`pytest tests/test_acceptance.py -v -s` to see them.  Tolerances are pinned
here and nowhere else.
"""

import time
from itertools import permutations

import numpy as np

from prefetch360 import (
    DirectionGrid,
    Instance,
    PrefetchPass,
    PrefetchPlan,
    QualityLadder,
    UtilityModel,
    brute_force,
    build_utility_table,
    circular_smooth,
    eval_objective,
    linear_rotation_trace,
    pairwise_angular_difference,
    random_walk_trace,
    rebase_yaw,
    run_plan,
    selection_size,
    solve_dp,
    solve_mckp,
    uniform,
    uniform_random_trace,
    velocity_prediction_error,
    wrapped_gaussian,
)
from prefetch360.config import build_probs

from conftest import SIX_LEVEL_RATES, TOY_PROBS

# Reference six-level selections at C = 5000, given as level multisets
# because the published tile order is unknown.
REFERENCE_MULTISETS = {
    "2217+4x625+268": (5, 3, 3, 3, 3, 2),
    "2x1124+4x625": (4, 4, 3, 3, 3, 3),
    "3x1124+2x625+268": (4, 4, 4, 3, 3, 2),
}
REFERENCE_SPENDS = {"2217+4x625+268": 4985, "2x1124+4x625": 4748,
                    "3x1124+2x625+268": 4890}
# Objective values reported alongside the first two selections; the head
# traces behind them are unavailable, so these serve as a negative control.
REFERENCE_VALUES = {"2217+4x625+268": 0.837, "2x1124+4x625": 0.737}


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def seeded_instance(rng, beta=None):
    """One random instance from the acceptance distribution."""
    n_tiles = int(rng.integers(2, 7))
    n_levels = int(rng.integers(1, 4))
    rates = np.sort(rng.choice(np.arange(10, 501), size=n_levels, replace=False)).astype(float)
    ladder = QualityLadder(tuple(rates), stall_penalty=float(rng.choice([0.1, 1.0, 100.0])))
    kind = str(rng.choice(["linear", "sqrt", "log", "large_screen"]))
    utility = UtilityModel(kind, theta_kbps=5.0) if kind == "large_screen" else UtilityModel(kind)
    probs = rng.dirichlet(np.ones(n_tiles))
    drawn_beta = float(rng.choice([0.0, 0.25, 0.5]))
    capacity = int(rng.integers(0, 1501))
    return Instance(DirectionGrid(n_tiles), ladder, utility, probs / probs.sum(),
                    capacity, drawn_beta if beta is None else beta)


def test_c01_dp_matches_brute_force_on_500_instances():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        inst = seeded_instance(rng)
        worst = max(worst, abs(solve_dp(inst).value - brute_force(inst).value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    assert report(1, "dp matches brute force", ok,
                  f"500 instances, max gap {worst:.2e}, {elapsed:.2f} s")


def test_c02_knapsack_reduction_is_exact_at_beta_zero():
    rng = np.random.default_rng(20260820)
    mismatches = sum(solve_mckp(inst).value != solve_dp(inst).value
                     for inst in (seeded_instance(rng, beta=0.0) for _ in range(200)))
    assert report(2, "mckp reduction exact at beta 0", mismatches == 0,
                  f"{200 - mismatches}/200 bitwise equal")


def test_c03_reference_selections_feasible_but_values_unreproducible(ladder6, grid6):
    rng = np.random.default_rng(7)
    probe = [uniform(grid6).probs, wrapped_gaussian(111.803, grid6).probs,
             wrapped_gaussian(30.0, grid6).probs]
    probe += [rng.dirichlet(np.ones(6)) for _ in range(5)]

    linear = UtilityModel("linear")
    spends = {name: selection_size(levels, Instance(grid6, ladder6, linear, probe[0], 5000, 0.0))
              for name, levels in REFERENCE_MULTISETS.items()}
    feasible = spends == REFERENCE_SPENDS

    arrangements = {name: set(permutations(levels))
                    for name, levels in REFERENCE_MULTISETS.items()}
    slack = np.inf
    for probs in probe:
        for beta in (0.0, 0.25, 0.5):
            inst = Instance(grid6, ladder6, linear, probs, 5000, beta)
            best = solve_dp(inst).value
            for arrs in arrangements.values():
                slack = min(slack, best - max(eval_objective(a, inst) for a in arrs))
    dominated = slack >= -1e-9

    # negative control: no scanned setup regenerates the quoted objectives
    closest = dict.fromkeys(REFERENCE_VALUES, np.inf)
    for kind in ("linear", "sqrt", "log", "large_screen"):
        utility = UtilityModel(kind)
        for probs in probe[:3]:
            for beta in (0.0, 0.1, 0.25, 0.5):
                inst = Instance(grid6, ladder6, utility, probs, 5000, beta)
                for name, target in REFERENCE_VALUES.items():
                    achieved = max(eval_objective(a, inst) for a in arrangements[name])
                    closest[name] = min(closest[name], abs(achieved - target))
    unreproducible = all(gap > 1e-3 for gap in closest.values())

    ok = feasible and dominated and unreproducible
    gaps = ", ".join(f"{name} off by >= {gap:.4f}" for name, gap in closest.items())
    assert report(3, "reference selections feasible, values unreproducible", ok,
                  f"dominance slack >= {slack:.2e}; {gaps}")


def test_c04_large_screen_utility_closed_form(ladder6):
    model = UtilityModel("large_screen")
    table = build_utility_table(ladder6, model)
    raw_top, raw_268, norm_268 = model.raw(4198.0), model.raw(268.0), table[2]
    ok = (abs(raw_top - 9.5236) <= 1e-3 and abs(raw_268 - 2.5373) <= 1e-3
          and abs(norm_268 - 0.2664) <= 1e-3)
    assert report(4, "large-screen utility closed form", ok,
                  f"raw {raw_top:.4f}/{raw_268:.4f}, normalized {norm_268:.4f}")


def test_c05_capacity_monotone_with_diminishing_returns(ladder6, grid6):
    probs = wrapped_gaussian(25.0 * np.sqrt(20.0), grid6)
    utility = UtilityModel("large_screen")
    values = np.array([solve_dp(Instance(grid6, ladder6, utility, probs, cap, 0.0)).value
                       for cap in (1250, 2500, 5000, 10000, 20000)])
    gains = np.diff(values)
    anchored = np.allclose(values, [0.0225, 0.4524, 0.7760, 0.9015, 0.9813], atol=1e-3)
    ok = bool(np.all(gains >= 0.0) and np.all(np.diff(gains) <= 0.0) and anchored)
    assert report(5, "capacity monotone, diminishing returns", ok,
                  "values " + "/".join(f"{v:.4f}" for v in values))


def test_c06_convolution_family_values_nonincreasing_in_lag(ladder6, grid6):
    vectors = [wrapped_gaussian(20.0, grid6)]
    kernel = wrapped_gaussian(15.0, grid6).probs
    for _ in range(5):
        vectors.append(circular_smooth(vectors[-1], kernel))
    utility = UtilityModel("linear")
    min_drop = np.inf
    ok = True
    for cap in (1250, 2500, 5000):
        values = np.array([solve_dp(Instance(grid6, ladder6, utility, p, cap, 0.0)).value
                           for p in vectors])
        ok = ok and bool(np.all(np.diff(values) <= 0.0))
        min_drop = min(min_drop, float(-np.diff(values).max()))
    assert report(6, "convolution family nonincreasing in lag", ok,
                  f"6 smoothing steps x 3 capacities, min drop {min_drop:.2e}")


def test_c07_uniform_family_flat_in_lag(ladder6, grid6):
    utility = UtilityModel("linear")
    spread = 0.0
    for cap in (1250, 5000):
        values = [solve_dp(Instance(grid6, ladder6, utility,
                                    build_probs({"family": "uniform", "lag_s": t}, grid6),
                                    cap, 0.25)).value
                  for t in (1.0, 2.0, 5.0, 10.0, 20.0)]
        spread = max(spread, max(values) - min(values))
    assert report(7, "uniform family flat in lag", spread <= 1e-12,
                  f"max spread {spread:.2e} over 5 lags x 2 capacities")


def test_c08_stall_penalty_irrelevant_once_every_tile_affordable(grid6):
    floor_cost = 6 * 144  # every tile at level 1
    disagreements = 0
    for kind in ("linear", "sqrt", "log", "large_screen"):
        utility = UtilityModel(kind)
        for probs in (uniform(grid6), wrapped_gaussian(111.803, grid6)):
            for cap in (5000, 10000, 25188):
                assert cap >= floor_cost
                reports = [solve_dp(Instance(grid6, QualityLadder(SIX_LEVEL_RATES, stall_penalty=f),
                                             utility, probs, cap, 0.1))
                           for f in (0.1, 1.0, 100.0)]
                if (len({r.value for r in reports}) != 1
                        or len({r.selection.levels for r in reports}) != 1):
                    disagreements += 1
    assert report(8, "stall penalty irrelevant at high capacity", disagreements == 0,
                  f"{disagreements} disagreements over 24 settings x 3 penalties")


def test_c09_trace_analytics_oracles():
    rng = np.random.default_rng(99)
    viewers = [uniform_random_trace(120.0, 10.0, rng, video_id="v0", user_id=f"u{i}")
               for i in range(6)]
    times, mean_diff = pairwise_angular_difference(viewers, 0.1)
    samples = times.size * 15  # 6 viewers -> 15 pairs per time point
    mean = float(np.mean(mean_diff))

    spin = linear_rotation_trace(10.0, 60.0, 100.0)
    vel_error = velocity_prediction_error([spin], 1.0, 5.0)

    stable = 0
    for i in range(100):
        walk = random_walk_trace(20.0, 20.0, rng=np.random.default_rng(1000 + i))
        once = rebase_yaw(walk)
        stable += np.array_equal(once.yaw, rebase_yaw(once).yaw)

    ok = samples >= 10_000 and abs(mean - 90.0) <= 2.0 and vel_error == 0.0 and stable == 100
    assert report(9, "trace analytics oracles", ok,
                  f"pairwise mean {mean:.2f} deg on {samples} samples, "
                  f"velocity error {vel_error}, rebase stable {stable}/100")


def test_c10_layered_passes_match_single_shot_and_never_downgrade(toy_ladder):
    probs = np.array(TOY_PROBS)
    linear = UtilityModel("linear")
    plan = PrefetchPlan((PrefetchPass(20.0, 100, probs), PrefetchPass(5.0, 200, probs)))
    results = run_plan(plan, toy_ladder, linear, beta=0.0)
    states = [tuple(int(x) for x in r.state.levels) for r in results]
    single = solve_dp(Instance(DirectionGrid(3), toy_ladder, linear, probs, 300, 0.0))
    exact = results[-1].value == single.value and states == [(1, 0, 0), (2, 1, 0)]

    downgrades = 0
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        n_tiles = int(rng.integers(2, 6))
        n_levels = int(rng.integers(1, 4))
        rates = np.sort(rng.choice(np.arange(20, 400), size=n_levels, replace=False)).astype(float)
        leads = np.sort(rng.uniform(1.0, 60.0, size=int(rng.integers(1, 5))))[::-1]
        passes = []
        for lead in leads:
            p = rng.dirichlet(np.ones(n_tiles))
            passes.append(PrefetchPass(float(lead), int(rng.integers(0, 801)), p / p.sum()))
        trajectory = run_plan(PrefetchPlan(tuple(passes)), QualityLadder(tuple(rates)),
                              linear, beta=float(rng.choice([0.0, 0.25])))
        levels = np.array([r.state.levels for r in trajectory])
        downgrades += int(np.any(np.diff(levels, axis=0) < 0))
    ok = exact and downgrades == 0
    assert report(10, "layered passes consistent", ok,
                  f"two-pass == one-shot {exact}, downgrades {downgrades}/100 plans")


def test_c11_solve_time_scales_linearly_in_capacity(grid6):
    ladder = QualityLadder((400.0, 900.0, 1600.0))
    probs = wrapped_gaussian(60.0, grid6)
    utility = UtilityModel("sqrt")
    medians = []
    for cap in (25000, 50000, 100000):
        inst = Instance(grid6, ladder, utility, probs, cap, 0.1)
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            solve_dp(inst)
            runs.append(time.perf_counter() - start)
        medians.append(float(np.median(runs)))
    ratios = (medians[1] / medians[0], medians[2] / medians[1])
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    assert report(11, "solve time linear in capacity", ok,
                  f"doubling ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
