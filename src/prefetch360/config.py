"""JSON config parsing for the command-line tools.

Instance configs use flat keys (rates, delta, f, beta, N, capacity) plus a
``utility`` block with kind-specific parameters and a ``probs`` block naming
a probability family.  Sweep and schedule configs reuse the same vocabulary.
Errors raise ConfigError with the offending key in the message.
"""

import json
import sys
from pathlib import Path

import numpy as np

from .model import DirectionGrid, Instance, QualityLadder, UtilityModel
from .scheduler import PrefetchPass, PrefetchPlan, SizeModel, _check_lead_time
from .traces import CATEGORIES, parse_trace
from .viewprob import (
    ProbVector,
    circular_smooth,
    discretize,
    empirical_yaw_change,
    point_mass,
    uniform,
    wrapped_gaussian,
)

__all__ = [
    "ConfigError",
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
]


# smoothing steps of the convolved family, one per sweep lag; far past any lag grid in use
MAX_STEPS = 1000


class ConfigError(ValueError):
    """A config file failed validation."""


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return loaded


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _number(cfg: dict, key: str, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = cfg[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{key}: number out of range")
    # a float, so no JSON integer past int64 reaches numpy arithmetic
    return float(value)


def _int(cfg: dict, key: str, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected an integer")
    return value


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _each(cfg: dict, key: str, check, default=None) -> list:
    """A scalar-or-list knob as a list, each element checked by ``_int`` or ``_number``."""
    values = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(values, list):
        return [check({key: values}, key)]
    return [check({f"{key}[{i}]": v}, f"{key}[{i}]") for i, v in enumerate(values)]


def parse_ladder(cfg: dict) -> QualityLadder:
    rates = _require(cfg, "rates")
    if not isinstance(rates, list) or not rates:
        raise ConfigError("rates: expected a non-empty list")
    try:
        return QualityLadder(tuple(_each(cfg, "rates", _number)),
                             chunk_s=_number(cfg, "delta", 1.0),
                             stall_penalty=_number(cfg, "f", 1.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_utility(cfg: dict) -> UtilityModel:
    block = cfg.get("utility", {"kind": "linear"})
    if not isinstance(block, dict):
        raise ConfigError("utility: expected an object")
    kind = block.get("kind", "linear")
    try:
        return UtilityModel(kind,
                            a=_number(block, "a", 2.0),
                            b=_number(block, "b", 10.0),
                            theta_kbps=_number(block, "theta", 200.0))
    except ValueError as exc:
        raise ConfigError(f"utility: {exc}") from None


def load_traces(traces_dir, category: str | None = None) -> list:
    """Parse every *.csv trace under a directory, optionally one category."""
    if traces_dir is None:
        raise ConfigError("this config needs head traces; pass --traces DIR")
    root = Path(traces_dir)
    if not root.is_dir():
        raise ConfigError(f"trace directory not found: {root}")
    if category is not None and category not in CATEGORIES:
        raise ConfigError(f"unknown trace category {category!r}")
    traces = [parse_trace(p) for p in sorted(root.glob("*.csv"))]
    if category is not None:
        traces = [tr for tr in traces if tr.category == category]
    if not traces:
        raise ConfigError(f"no traces found in {root}" + (f" for category {category!r}" if category else ""))
    return traces


def build_probs(spec: dict, grid: DirectionGrid, traces_dir=None) -> ProbVector:
    """Build a probability vector from a ``probs`` config block."""
    if not isinstance(spec, dict):
        raise ConfigError("probs: expected an object")
    family = spec.get("family")
    lag = _number(spec, "lag_s", 0.0)
    # inf is the lifetime distribution of the empirical family
    if not lag >= 0:
        raise ConfigError("probs.lag_s: must be nonnegative")
    if family == "uniform":
        return uniform(grid)
    if family == "point_mass":
        return point_mass(_number(spec, "angle_deg", 0.0), grid)
    if family == "wrapped_gaussian":
        return wrapped_gaussian(_number(spec, "sigma_deg"), grid)
    if family == "wrapped_gaussian_sqrt":
        sigma0 = _number(spec, "sigma0_deg", 25.0)
        if lag <= 0:
            raise ConfigError("probs: wrapped_gaussian_sqrt needs lag_s > 0")
        return wrapped_gaussian(sigma0 * np.sqrt(lag), grid)
    if family == "explicit":
        values = _require(spec, "values")
        if not isinstance(values, list):
            raise ConfigError("probs.values: expected a list")
        try:
            return ProbVector(np.asarray(values, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"probs: {exc}") from None
    if family == "convolved":
        steps = _int(spec, "steps", 1)
        if not 0 <= steps <= MAX_STEPS:
            raise ConfigError(f"probs.steps: must be nonnegative and at most {MAX_STEPS}")
        base = wrapped_gaussian(_number(spec, "base_sigma_deg", 15.0), grid)
        kernel = wrapped_gaussian(_number(spec, "kernel_sigma_deg", 15.0), grid).probs
        out = base
        for _ in range(steps):
            out = circular_smooth(out, kernel)
        return out
    if family == "empirical":
        if lag <= 0:
            raise ConfigError("probs: empirical family needs lag_s > 0")
        traces = load_traces(traces_dir, spec.get("category"))
        density = empirical_yaw_change(traces, lag, _number(spec, "stride_s", 0.1))
        return discretize(density, grid)
    raise ConfigError(f"probs: unknown family {family!r}")


def parse_instance(cfg: dict, traces_dir=None) -> Instance:
    ladder = parse_ladder(cfg)
    utility = parse_utility(cfg)
    grid = DirectionGrid(_int(cfg, "N"))
    probs = build_probs(_require(cfg, "probs"), grid, traces_dir)
    try:
        return Instance(grid, ladder, utility, probs,
                        capacity=_int(cfg, "capacity"),
                        beta=_number(cfg, "beta", 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_schedule(cfg: dict, traces_dir=None):
    """Returns (plan, ladder, utility, beta, size_model)."""
    ladder = parse_ladder(cfg)
    utility = parse_utility(cfg)
    grid = DirectionGrid(_int(cfg, "N"))
    beta = _number(cfg, "beta", 0.0)
    sm_block = cfg.get("size_model", {})
    if not isinstance(sm_block, dict):
        raise ConfigError("size_model: expected an object")
    try:
        size_model = SizeModel(sm_block.get("mode", "svc_ideal"),
                               _number(sm_block, "overhead", 0.0))
    except ValueError as exc:
        raise ConfigError(f"size_model: {exc}") from None
    raw_passes = _require(cfg, "passes")
    if not isinstance(raw_passes, list) or not raw_passes:
        raise ConfigError("passes: expected a non-empty list")
    passes = []
    for i, block in enumerate(raw_passes):
        if not isinstance(block, dict):
            raise ConfigError(f"passes[{i}]: expected an object")
        lead = _number(block, "lead_s")
        try:
            _check_lead_time(lead)
        except ValueError as exc:
            raise ConfigError(f"passes[{i}]: {exc}") from None
        probs_spec = _require(block, "probs")
        if not isinstance(probs_spec, dict):
            raise ConfigError(f"passes[{i}].probs: expected an object")
        probs = build_probs({"lag_s": lead, **probs_spec}, grid, traces_dir)
        try:
            passes.append(PrefetchPass(lead, _int(block, "budget"), probs))
        except ValueError as exc:
            raise ConfigError(f"passes[{i}]: {exc}") from None
    try:
        plan = PrefetchPlan(tuple(passes))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return plan, ladder, utility, beta, size_model


def parse_sweep(cfg: dict) -> dict:
    """Normalize a sweep config; scalar knobs become one-element lists."""
    out = {
        "rates": _require(cfg, "rates"),
        "delta": _number(cfg, "delta", 1.0),
        "capacities": _each(cfg, "capacity", _int),
        "betas": [float(b) for b in _each(cfg, "beta", _number, 0.0)],
        "penalties": [float(f) for f in _each(cfg, "f", _number, 1.0)],
        "tile_counts": _each(cfg, "N", _int),
        "utilities": _as_list(cfg.get("utility", {"kind": "linear"})),
        "lags": [float(t) for t in _each(cfg, "lags", _number)],
        "family": cfg.get("family", {"kind": "uniform"}),
    }
    if not isinstance(out["family"], dict) or "kind" not in out["family"]:
        raise ConfigError("family: expected an object with a 'kind'")
    if not all(t > 0 for t in out["lags"]):
        raise ConfigError("lags: must be positive")
    if any(b <= a for a, b in zip(out["lags"], out["lags"][1:])):
        raise ConfigError("lags: must be strictly increasing")
    return out


def parse_gen(cfg: dict) -> dict:
    kinds = _as_list(cfg.get("kinds", ["constant", "rotation", "sinusoid", "uniform", "walk", "explore"]))
    known = ("constant", "rotation", "sinusoid", "uniform", "walk", "explore")
    for kind in kinds:
        if kind not in known:
            raise ConfigError(f"kinds: unknown generator {kind!r}")
    count = _int(cfg, "count_per_kind", 2)
    if count < 1:
        raise ConfigError("count_per_kind: must be at least 1")
    duration = _number(cfg, "duration_s", 60.0)
    rate = _number(cfg, "rate_hz", 50.0)
    if duration <= 0 or rate <= 0:
        raise ConfigError("duration_s and rate_hz must be positive")
    return {"kinds": kinds, "count": count, "duration_s": duration, "rate_hz": rate}


def parse_analyze(cfg: dict) -> dict:
    known = ("utilization", "heatmap", "pairwise", "yaw_change",
             "velocity_error", "origin_sectors", "phase_split")
    metrics = _as_list(cfg.get("metrics", list(known)))
    for metric in metrics:
        if metric not in known:
            raise ConfigError(f"metrics: unknown metric {metric!r}")
    lags = [float(t) for t in _each(cfg, "lags", _number, [1.0])]
    if not all(t > 0 for t in lags):
        raise ConfigError("lags: must be positive")
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
    if out["category"] is not None and out["category"] not in CATEGORIES:
        raise ConfigError(f"category: unknown category {out['category']!r}")
    return out
