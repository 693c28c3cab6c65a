"""Tile-quality prefetch optimization for 360-degree video.

The toolkit splits into five layers: a data model for planning slots
(ladders, utilities, tile grids), viewing-direction probability builders,
an exact optimizer for the per-slot selection problem, a layered prefetch
scheduler that refines bookings as probabilities sharpen, and analytics
over recorded head-motion traces.
"""

from .angles import circ_diff_deg, circ_dist_deg, wrap_deg
from .model import (
    DirectionGrid,
    Instance,
    QualityLadder,
    Selection,
    UtilityModel,
    build_utility_table,
    eval_objective,
    selection_size,
)
from .optimizer import (
    SolveReport,
    SolveStats,
    brute_force,
    solve_dp,
    solve_mckp,
)
from .scheduler import (
    PassResult,
    PrefetchPass,
    PrefetchPlan,
    SizeModel,
    TileState,
    refine,
    run_plan,
    upgrade_sizes,
)
from .synth import (
    constant_trace,
    explore_then_fixate_trace,
    linear_rotation_trace,
    random_walk_trace,
    sinusoid_trace,
    uniform_random_trace,
)
from .traces import (
    CATEGORIES,
    Cdf,
    HeadTrace,
    Heatmap,
    angle_utilization_cdf,
    heatmap,
    origin_conditioned_change,
    pairwise_angular_difference,
    parse_trace,
    phase_split_cdf,
    rebase_yaw,
    resample,
    velocity_prediction_error,
    write_trace,
    yaw_at,
    yaw_change_cdf,
    yaw_changes,
)
from .viewprob import (
    AngularDensity,
    ProbVector,
    circular_smooth,
    discretize,
    empirical_yaw_change,
    point_mass,
    uniform,
    wrapped_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "AngularDensity",
    "CATEGORIES",
    "Cdf",
    "DirectionGrid",
    "HeadTrace",
    "Heatmap",
    "Instance",
    "PassResult",
    "PrefetchPass",
    "PrefetchPlan",
    "ProbVector",
    "QualityLadder",
    "Selection",
    "SizeModel",
    "SolveReport",
    "SolveStats",
    "TileState",
    "UtilityModel",
    "angle_utilization_cdf",
    "brute_force",
    "build_utility_table",
    "circ_diff_deg",
    "circ_dist_deg",
    "circular_smooth",
    "constant_trace",
    "discretize",
    "empirical_yaw_change",
    "eval_objective",
    "explore_then_fixate_trace",
    "heatmap",
    "linear_rotation_trace",
    "origin_conditioned_change",
    "pairwise_angular_difference",
    "parse_trace",
    "phase_split_cdf",
    "point_mass",
    "random_walk_trace",
    "rebase_yaw",
    "refine",
    "resample",
    "run_plan",
    "selection_size",
    "sinusoid_trace",
    "solve_dp",
    "solve_mckp",
    "uniform",
    "uniform_random_trace",
    "upgrade_sizes",
    "velocity_prediction_error",
    "wrap_deg",
    "wrapped_gaussian",
    "write_trace",
    "yaw_at",
    "yaw_change_cdf",
    "yaw_changes",
]
