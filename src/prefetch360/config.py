"""JSON config parsing for the command-line tools.

Instance configs use flat keys (rates, delta, f, beta, N, capacity) plus a
``utility`` block with kind-specific parameters and a ``probs`` block naming
a probability family.  Sweep and schedule configs reuse the same vocabulary.
A list knob, such as a sweep's ``N`` or analyze's ``metrics``, takes one value
or a non-empty list, and ``_each`` is its only reader.
Errors raise ValueError naming the offending key: a reader refuses without a
prefix, and the caller that knows the block's key names it once, so ``lag_s: ...``
reads ``probs: lag_s: ...``, ``passes[i].probs: lag_s: ...`` or ``family: lag_s: ...``.
"""

import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .model import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
    _as_nonneg_ints,
    _as_prob_array,
    _check_beta,
    build_utility_table,
)
from .optimizer import _check_dp_bytes
from .scheduler import PrefetchPass, PrefetchPlan, SizeModel
from .synth import COHORT, EXPLORE_SPLIT_S, _sample_count
from .traces import CATEGORIES, GRID_LIMIT, _json_object, parse_trace
from .viewprob import (
    circular_smooth,
    discretize,
    empirical_yaw_change,
    point_mass,
    uniform,
    wrapped_gaussian,
)

__all__ = [
    "load_json",
    "load_traces",
    "parse_ladder",
    "parse_utility",
    "build_probs",
    "parse_instance",
    "parse_schedule",
    "parse_sweep",
    "parse_gen",
    "parse_analyze",
    "parse_oracle",
]


# smoothing steps of the convolved family, one per sweep lag; far past any lag grid in use
MAX_STEPS = 1000

# random instances one oracle batch may check; 1,000 take under 2 s
ORACLE_BATCH_LIMIT = 10**5


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    return _json_object(path)


@contextmanager
def _named(key: str):
    """Name the block a refusal raised inside this context belongs to."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValueError(f"missing required key {key!r}")
    return cfg[key]


def _number(cfg: dict, key: str, default=None):
    if default is not None and key not in cfg:
        return default
    value = _require(cfg, key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{key}: expected a number")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{key}: number out of range")
    # a float, so no JSON integer past int64 reaches numpy arithmetic
    return float(value)


def _int(cfg: dict, key: str, default=None):
    if default is not None and key not in cfg:
        return default
    value = _require(cfg, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key}: expected an integer")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name}: expected an object")
    return value


def _names(cfg: dict, key: str, known, noun: str) -> list:
    """A list knob of known names, each listed once; every known name by default."""
    names = _each(cfg, key, _require, list(known))
    for name in names:
        # an unhashable name, such as a list, cannot be looked up
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"{key}: unknown {noun} {name!r}")
    _listed_once(key, names, repr, noun)
    return names


def _each(cfg: dict, key: str, check, default=None) -> list:
    """A list knob, one value or a non-empty list, each element read by ``check``."""
    values = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(values, list):
        return [check({key: values}, key)]
    if not values:
        raise ValueError(f"{key}: expected a non-empty list")
    return [check({f"{key}[{i}]": v}, f"{key}[{i}]") for i, v in enumerate(values)]


def _fmt(x) -> str:
    """A number as a CSV row prints it, to six decimals."""
    return f"{float(x):.6f}"


def _lag_label(lag) -> str:
    """A lag as analyze's ``lag_s=`` group labels print it."""
    return f"{lag:g}"


def _listed_once(key: str, values, fmt, noun: str) -> None:
    """Refuse two values of a list knob that ``fmt`` prints alike."""
    labels = [fmt(v) for v in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"{key}: {noun} {label} is listed twice")


def _grid(cfg: dict, key: str) -> DirectionGrid:
    """The tile grid of an integer tile count; a refused count names its key."""
    n_tiles = _int(cfg, key)
    with _named(key):
        return DirectionGrid(n_tiles)


def parse_ladder(cfg: dict) -> QualityLadder:
    if not isinstance(_require(cfg, "rates"), list):
        raise ValueError("rates: expected a non-empty list")
    return QualityLadder(tuple(_each(cfg, "rates", _number)),
                         chunk_s=_number(cfg, "delta", 1.0),
                         stall_penalty=_number(cfg, "f", 1.0))


def parse_utility(cfg: dict, ladder: QualityLadder) -> UtilityModel:
    """The ``utility`` block, checked with its normalized table on ``ladder``."""
    block = _object(cfg.get("utility", {"kind": "linear"}), "utility")
    kind = block.get("kind", "linear")
    with _named("utility"):
        model = UtilityModel(kind,
                             a=_number(block, "a", 2.0),
                             b=_number(block, "b", 10.0),
                             theta_kbps=_number(block, "theta", 200.0))
        build_utility_table(ladder, model)
    return model


def _check_category(category) -> None:
    """Refuse a trace category other than None or one of ``CATEGORIES``."""
    if category is not None and category not in CATEGORIES:
        raise ValueError(f"unknown trace category {category!r}")


def load_traces(traces_dir, category: str | None = None) -> list:
    """Parse every *.csv trace under a directory, optionally one category.

    A config parses each category it names once, through one ``_cohort``.
    """
    if traces_dir is None:
        raise ValueError("this config needs head traces; pass --traces DIR")
    root = Path(traces_dir)
    if not root.is_dir():
        raise ValueError(f"trace directory not found: {root}")
    _check_category(category)
    traces = [parse_trace(p) for p in sorted(root.glob("*.csv"))]
    if category is not None:
        traces = [tr for tr in traces if tr.category == category]
    if not traces:
        raise ValueError(f"no traces found in {root}" + (f" for category {category!r}" if category else ""))
    return traces


def _cohort(traces_dir):
    """cohort(category): ``load_traces(traces_dir, category)``, parsed once per category."""
    loaded = {}

    def cohort(category):
        _check_category(category)
        if category not in loaded:
            loaded[category] = load_traces(traces_dir, category)
        return loaded[category]
    return cohort


def build_probs(spec: dict, grid: DirectionGrid, cohort=None) -> np.ndarray:
    """A probability vector from a ``probs`` block; its refusals leave the block unnamed.

    The empirical family reads ``cohort(category)``; without one it asks for --traces.
    """
    family = spec.get("family")
    lag = _number(spec, "lag_s", 0.0)
    # inf is the lifetime distribution of the empirical family
    if not lag >= 0:
        raise ValueError("lag_s: must be nonnegative")
    if family == "uniform":
        return uniform(grid)
    if family == "point_mass":
        return point_mass(_number(spec, "angle_deg", 0.0), grid)
    if family == "wrapped_gaussian":
        return wrapped_gaussian(_number(spec, "sigma_deg"), grid)
    if family == "wrapped_gaussian_sqrt":
        sigma0 = _number(spec, "sigma0_deg", 25.0)
        if lag <= 0:
            raise ValueError("wrapped_gaussian_sqrt needs lag_s > 0")
        # Python floats overflow to inf without a warning; wrapped_gaussian refuses it
        return wrapped_gaussian(sigma0 * math.sqrt(lag), grid)
    if family == "explicit":
        if not isinstance(_require(spec, "values"), list):
            raise ValueError("values: expected a list")
        return _as_prob_array(_each(spec, "values", _number), grid.n_tiles)
    if family == "convolved":
        return _convolved(spec, grid, _int(spec, "steps", 1))[-1]
    if family == "empirical":
        if lag <= 0:
            raise ValueError("empirical family needs lag_s > 0")
        traces = (cohort or _cohort(None))(spec.get("category"))
        masses = empirical_yaw_change(traces, lag, _number(spec, "stride_s", 0.1))
        return discretize(masses, grid)
    raise ValueError(f"unknown family {family!r}")


def _convolved(spec: dict, grid: DirectionGrid, steps: int) -> list:
    """The convolved family after 0..steps smoothings, each from the one before."""
    if not 0 <= steps <= MAX_STEPS:
        raise ValueError(f"steps: must be nonnegative and at most {MAX_STEPS}")
    vectors = [wrapped_gaussian(_number(spec, "base_sigma_deg", 15.0), grid)]
    kernel = wrapped_gaussian(_number(spec, "kernel_sigma_deg", 15.0), grid)
    for _ in range(steps):
        vectors.append(circular_smooth(vectors[-1], kernel))
    return vectors


def parse_instance(cfg: dict, traces_dir=None) -> Instance:
    ladder = parse_ladder(cfg)
    utility = parse_utility(cfg, ladder)
    grid = _grid(cfg, "N")
    capacity, beta = _int(cfg, "capacity"), _number(cfg, "beta", 0.0)
    # every scalar, and the DP table they size, is checked before a trace is parsed
    _check_beta(beta)
    _check_dp_bytes(ladder.n_levels + 1, grid.n_tiles, int(_as_nonneg_ints(capacity, "capacity")))
    block = _object(_require(cfg, "probs"), "probs")
    with _named("probs"):
        probs = build_probs(block, grid, _cohort(traces_dir))
    return Instance(grid, ladder, utility, probs, capacity, beta)


def parse_schedule(cfg: dict, traces_dir=None):
    """Check a whole schedule config, before any solve.

    Returns (plan, ladder, utility, beta, size_model).  The scalars, the lead
    order and the DP tables at the largest budget are checked on a
    plan of flat vectors before any pass's own vector is built on the grid.
    """
    ladder = parse_ladder(cfg)
    utility = parse_utility(cfg, ladder)
    grid = _grid(cfg, "N")
    beta = _number(cfg, "beta", 0.0)
    sm_block = _object(cfg.get("size_model", {}), "size_model")
    with _named("size_model"):
        size_model = SizeModel(sm_block.get("mode", "svc_ideal"),
                               _number(sm_block, "overhead", 0.0))
    raw_passes = _require(cfg, "passes")
    if not isinstance(raw_passes, list) or not raw_passes:
        raise ValueError("passes: expected a non-empty list")
    flat = np.full(grid.n_tiles, 1.0 / grid.n_tiles)
    passes = []
    for i, block in enumerate(raw_passes):
        _object(block, f"passes[{i}]")
        with _named(f"passes[{i}]"):
            lead, probs = _number(block, "lead_s"), _require(block, "probs")
            passes.append(PrefetchPass(lead, _int(block, "budget"), flat))
        _object(probs, f"passes[{i}].probs")
    _check_beta(beta)
    PrefetchPlan(tuple(passes))
    _check_dp_bytes(ladder.n_levels + 1, grid.n_tiles, max(p.budget for p in passes))
    cohort = _cohort(traces_dir)
    for i, block in enumerate(raw_passes):
        with _named(f"passes[{i}].probs"):
            passes[i] = replace(passes[i], probs=build_probs(
                {"lag_s": passes[i].lead_time_s, **block["probs"]}, grid, cohort))
    return PrefetchPlan(tuple(passes)), ladder, utility, beta, size_model


def parse_sweep(cfg: dict, traces_dir=None):
    """Check a whole sweep config and build every instance, before any solve.

    Returns (label, capacities, groups): one ``((utility label, N, f, beta, lag),
    instance)`` group per point of the cross product of the list knobs, in that
    loop order, each instance at the largest capacity.  Lag index i builds the
    family with ``lag_s = lags[i]`` and ``steps = i``, so each convolved vector
    is the one before smoothed once more.  Every list knob is read by ``_each``,
    so each takes one value or a non-empty list.
    """
    family = cfg.get("family", {"kind": "uniform"})
    if not isinstance(family, dict) or "kind" not in family:
        raise ValueError("family: expected an object with a 'kind'")
    label = family["kind"]
    if label == "empirical" and family.get("category") is not None:
        label = f"empirical:{family['category']}"
    lags = _each(cfg, "lags", _number)
    if not all(t > 0 for t in lags):
        raise ValueError("lags: must be positive")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError("lags: must be strictly increasing")
    caps = _each(cfg, "capacity", _int)
    betas = _each(cfg, "beta", _number, 0.0)
    fs = _each(cfg, "f", _number, 1.0)
    blocks = _each(cfg, "utility", _require, {"kind": "linear"})
    grids = _each(cfg, "N", _grid)
    caps = _as_nonneg_ints(caps, "capacity", ndim=1).tolist()
    for beta in betas:
        _check_beta(beta)
    # rows of two values with one printed form would be told apart by no column
    for key, values in (("f", fs), ("beta", betas), ("lags", lags)):
        _listed_once(key, values, _fmt, "value")
    ladders = [(f, parse_ladder({**cfg, "f": f})) for f in fs]
    # f changes only entry 0 of a utility table, so one ladder checks every table
    models = [parse_utility({"utility": block}, ladders[0][1]) for block in blocks]
    utilities = [(m.kind if m.kind not in [k.kind for k in models[:i]] else f"{m.kind}#{i}", m)
                 for i, m in enumerate(models)]
    for grid in grids:
        _check_dp_bytes(ladders[0][1].n_levels + 1, grid.n_tiles, max(caps))
    # every grid and DP table size is checked before the first vector, so a refused
    # sweep parses no trace
    spec = {**family, "family": family["kind"]}
    cohort = _cohort(traces_dir)
    with _named("family"):
        if family["kind"] == "convolved":
            vectors = [_convolved(spec, grid, len(lags) - 1) for grid in grids]
        else:
            vectors = [[build_probs({**spec, "lag_s": lag}, grid, cohort) for lag in lags]
                       for grid in grids]
    groups = [((ulabel, grid.n_tiles, f, beta, lag),
               Instance(grid, ladder, utility, probs, max(caps), beta))
              for grid, grid_vectors in zip(grids, vectors)
              for f, ladder in ladders
              for ulabel, utility in utilities
              for beta in betas
              for lag, probs in zip(lags, grid_vectors)]
    return label, caps, groups


def parse_gen(cfg: dict) -> dict:
    """Normalize a gen-traces config, refusing any cohort a generator would refuse."""
    kinds = _names(cfg, "kinds", COHORT, "generator")
    count = _int(cfg, "count_per_kind", 2)
    if count < 1:
        raise ValueError("count_per_kind: must be at least 1")
    duration = _number(cfg, "duration_s", 60.0)
    rate = _number(cfg, "rate_hz", 50.0)
    with _named("duration_s and rate_hz"):
        samples = _sample_count(duration, rate)
    if "explore" in kinds and not duration > EXPLORE_SPLIT_S:
        raise ValueError(f"duration_s: the explore kind needs more than {EXPLORE_SPLIT_S:g} s")
    if count * len(kinds) * samples > GRID_LIMIT:
        raise ValueError(f"count_per_kind: {count} per kind x {len(kinds)} kinds x {samples} "
                          f"samples is more than {GRID_LIMIT} samples in all")
    return {"kinds": kinds, "count": count, "duration_s": duration, "rate_hz": rate}


def parse_oracle(cfg: dict) -> int | None:
    """The instance count of an oracle ``batch`` block, or None for a one-instance config."""
    if "batch" not in cfg:
        return None
    batch = _object(cfg["batch"], "batch")
    count = _int({"batch.count": batch.get("count", 100)}, "batch.count")
    if not 1 <= count <= ORACLE_BATCH_LIMIT:
        raise ValueError(f"batch.count: expected a positive integer of at most "
                          f"{ORACLE_BATCH_LIMIT}")
    return count


def parse_analyze(cfg: dict) -> dict:
    known = ("utilization", "heatmap", "pairwise", "yaw_change",
             "velocity_error", "origin_sectors", "phase_split")
    metrics = _names(cfg, "metrics", known, "metric")
    lags = _each(cfg, "lags", _number, [1.0])
    if not all(t > 0 for t in lags):
        raise ValueError("lags: must be positive")
    # rows of two lags with one label would interleave under it
    _listed_once("lags", lags, _lag_label, "lag")
    out = {
        "metrics": metrics,
        "lags": lags,
        "stride_s": _number(cfg, "stride_s", 0.1),
        "vel_threshold_dps": _number(cfg, "vel_threshold_dps", 5.0),
        "safety_angle_deg": _number(cfg, "safety_angle_deg", 0.0),
        "sector_deg": _number(cfg, "sector_deg", 60.0),
        "split_s": _number(cfg, "split_s", 20.0),
        "yaw_bin_deg": _number(cfg, "yaw_bin_deg", 10.0),
        "pitch_bin_deg": _number(cfg, "pitch_bin_deg", 10.0),
        "pairwise_step_s": _number(cfg, "pairwise_step_s", 0.5),
        "category": cfg.get("category"),
    }
    with _named("category"):
        _check_category(out["category"])
    return out
