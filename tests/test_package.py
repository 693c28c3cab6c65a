"""The package's public names, as ``from prefetch360 import *`` binds them."""

import prefetch360

PUBLIC = [
    "CATEGORIES", "Cdf", "DirectionGrid", "HeadTrace", "Heatmap", "Instance", "PassResult",
    "PrefetchPass", "PrefetchPlan", "QualityLadder", "Selection", "SizeModel", "SolveReport",
    "SolveStats", "TileState", "UtilityModel", "angle_utilization_cdf", "brute_force",
    "build_utility_table", "circ_diff_deg", "circ_dist_deg", "circular_smooth", "constant_trace",
    "discretize", "empirical_yaw_change", "eval_objective", "explore_then_fixate_trace",
    "heatmap", "linear_rotation_trace", "origin_conditioned_change",
    "pairwise_angular_difference", "parse_trace", "phase_split_cdf", "point_mass",
    "random_walk_trace", "run_plan", "selection_size", "sinusoid_trace", "solve_dp",
    "solve_mckp", "uniform", "uniform_random_trace", "upgrade_sizes",
    "velocity_prediction_error", "wrap_deg", "wrapped_gaussian", "write_trace",
    "yaw_change_cdf",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 48
    assert sorted(prefetch360.__all__) == PUBLIC
    assert all(hasattr(prefetch360, name) for name in PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from prefetch360 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(prefetch360, name) for name in PUBLIC)
