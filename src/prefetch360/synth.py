"""Synthetic head-motion generators for exercising the analytics.

Every generator returns a HeadTrace sampled at a uniform rate with pitch and
roll held at zero; the interesting structure lives in yaw.  Velocities are
analytic where the motion has a closed form and central finite differences
otherwise.
"""

import numpy as np

from .angles import wrap_deg
from .traces import GRID_LIMIT, HeadTrace, _finite_diff

__all__ = [
    "constant_trace",
    "linear_rotation_trace",
    "sinusoid_trace",
    "uniform_random_trace",
    "random_walk_trace",
    "explore_then_fixate_trace",
]


def _grid(duration_s: float, rate_hz: float) -> np.ndarray:
    if not (duration_s > 0 and rate_hz > 0):
        raise ValueError("duration and rate must be positive")
    # bounded as a float, which may be inf, before it becomes a sample count
    if not duration_s * rate_hz < GRID_LIMIT:
        raise ValueError(f"duration times rate must stay below {GRID_LIMIT} samples per trace")
    return np.arange(int(round(duration_s * rate_hz)) + 1) / rate_hz


def _assemble(t, yaw, yaw_vel, video_id, user_id, category) -> HeadTrace:
    zeros = np.zeros_like(t)
    return HeadTrace(t, wrap_deg(yaw), zeros, zeros, yaw_vel, zeros, zeros,
                     video_id=video_id, user_id=user_id, category=category)


def constant_trace(yaw_deg: float = 0.0, duration_s: float = 60.0, rate_hz: float = 100.0,
                   video_id: str = "synthetic-constant", user_id: str = "u0") -> HeadTrace:
    """Viewer staring at a fixed yaw."""
    t = _grid(duration_s, rate_hz)
    return _assemble(t, np.full_like(t, yaw_deg), np.zeros_like(t),
                     video_id, user_id, "static_focus")


def linear_rotation_trace(rate_dps: float = 10.0, duration_s: float = 60.0, rate_hz: float = 100.0,
                          video_id: str = "synthetic-rotation", user_id: str = "u0") -> HeadTrace:
    """Constant-velocity rotation; yaw wraps around the circle."""
    t = _grid(duration_s, rate_hz)
    return _assemble(t, rate_dps * t, np.full_like(t, rate_dps),
                     video_id, user_id, "rides")


def sinusoid_trace(amplitude_deg: float = 60.0, period_s: float = 10.0,
                   duration_s: float = 60.0, rate_hz: float = 100.0,
                   video_id: str = "synthetic-sinusoid", user_id: str = "u0") -> HeadTrace:
    """Yaw oscillating as amplitude * sin(2 pi t / period)."""
    if not (0 < amplitude_deg < 180):
        raise ValueError("amplitude must lie in (0, 180)")
    t = _grid(duration_s, rate_hz)
    omega = 2.0 * np.pi / period_s
    return _assemble(t, amplitude_deg * np.sin(omega * t),
                     amplitude_deg * omega * np.cos(omega * t),
                     video_id, user_id, "moving_focus")


def uniform_random_trace(duration_s: float = 60.0, rate_hz: float = 100.0,
                         rng: np.random.Generator | None = None,
                         video_id: str = "synthetic-uniform", user_id: str = "u0") -> HeadTrace:
    """Independent uniform yaw per sample, covering the whole circle."""
    rng = rng or np.random.default_rng()
    t = _grid(duration_s, rate_hz)
    yaw = rng.uniform(-180.0, 180.0, size=t.size)
    return _assemble(t, yaw, _finite_diff(t, yaw, circular=True),
                     video_id, user_id, "exploration")


def random_walk_trace(duration_s: float = 60.0, rate_hz: float = 100.0,
                      step_sigma_deg: float = 2.0, bound_deg: float = 150.0,
                      rng: np.random.Generator | None = None,
                      video_id: str = "synthetic-walk", user_id: str = "u0") -> HeadTrace:
    """Gaussian random walk in yaw, reflected at +-bound_deg."""
    if not 0 < bound_deg <= 180:
        raise ValueError("bound must lie in (0, 180]")
    rng = rng or np.random.default_rng()
    t = _grid(duration_s, rate_hz)
    steps = rng.normal(0.0, step_sigma_deg, size=t.size)
    steps[0] = 0.0
    yaw = np.cumsum(steps)
    # reflect the unbounded walk into [-bound, bound]
    period = 4.0 * bound_deg
    folded = np.mod(yaw + bound_deg, period)
    yaw = np.where(folded <= 2.0 * bound_deg, folded - bound_deg, 3.0 * bound_deg - folded)
    return _assemble(t, yaw, _finite_diff(t, yaw, circular=True),
                     video_id, user_id, "exploration")


def explore_then_fixate_trace(duration_s: float = 60.0, rate_hz: float = 100.0,
                              split_s: float = 20.0, step_sigma_deg: float = 2.0,
                              rng: np.random.Generator | None = None,
                              video_id: str = "synthetic-explore", user_id: str = "u0") -> HeadTrace:
    """Random walk until split_s, then a hard fixation on the last direction."""
    if not 0 < split_s < duration_s:
        raise ValueError("split must fall inside the trace")
    walk = random_walk_trace(duration_s, rate_hz, step_sigma_deg, rng=rng,
                             video_id=video_id, user_id=user_id)
    yaw = walk.yaw.copy()
    frozen = walk.t - walk.t[0] >= split_s
    yaw[frozen] = yaw[np.argmax(frozen)]
    return _assemble(walk.t, yaw, _finite_diff(walk.t, yaw, circular=True),
                     video_id, user_id, "static_focus")
