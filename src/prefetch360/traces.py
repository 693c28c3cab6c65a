"""Head-orientation traces and the analytics computed from them.

A trace is a time series of yaw/pitch/roll samples (degrees, plus angular
velocities in degrees per second) for one viewer watching one video.  Traces
are stored as a CSV with columns

    t_s,yaw_deg,pitch_deg,roll_deg,yaw_dps,pitch_dps,roll_dps

plus an optional JSON sidecar carrying ``video_id``, ``user_id`` and a
``category`` tag.  Yaw is measured against the video's 0 line; analytics that
talk about "angles relative to the start" expect traces rebased so the first
yaw sample is 0.

The metrics here all reduce to pooled sample sets summarized as empirical
CDFs: how much of the angle range viewers use, how far yaw drifts over a
lookahead window, how those drifts interact with instantaneous velocity, and
how behavior differs between an exploration phase and steady viewing.
"""

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .angles import circ_diff_deg, circ_dist_deg, interp_angle_deg, unwrap_deg, wrap_deg

__all__ = [
    "CATEGORIES",
    "HeadTrace",
    "Cdf",
    "Heatmap",
    "parse_trace",
    "write_trace",
    "rebase_yaw",
    "resample",
    "yaw_at",
    "yaw_changes",
    "angle_utilization_cdf",
    "heatmap",
    "pairwise_angular_difference",
    "yaw_change_cdf",
    "velocity_prediction_error",
    "origin_conditioned_change",
    "phase_split_cdf",
]

CATEGORIES = ("rides", "exploration", "moving_focus", "static_focus", "misc")

TRACE_COLUMNS = ("t_s", "yaw_deg", "pitch_deg", "roll_deg", "yaw_dps", "pitch_dps", "roll_dps")

_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class HeadTrace:
    """One viewer's orientation samples for one video.

    Timestamps are strictly increasing seconds; at least two samples.  Yaw
    and roll live in [-180, 180), pitch in [-90, 90].  Velocities are signed
    degrees per second (positive yaw velocity turns toward increasing yaw).
    """

    t: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    roll: np.ndarray
    yaw_vel: np.ndarray
    pitch_vel: np.ndarray
    roll_vel: np.ndarray
    video_id: str = ""
    user_id: str = ""
    category: str = "misc"

    def __post_init__(self):
        arrays = {}
        for name in ("t", "yaw", "pitch", "roll", "yaw_vel", "pitch_vel", "roll_vel"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
            arrays[name] = arr
        n = arrays["t"].size
        if n < 2:
            raise ValueError("a trace needs at least two samples")
        if any(a.size != n for a in arrays.values()):
            raise ValueError("all trace columns must have equal length")
        if np.any(np.diff(arrays["t"]) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        for name in ("yaw", "roll"):
            if np.any(arrays[name] < -180.0) or np.any(arrays[name] >= 180.0):
                raise ValueError(f"{name} must lie in [-180, 180)")
        if np.any(np.abs(arrays["pitch"]) > 90.0):
            raise ValueError("pitch must lie in [-90, 90]")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def duration_s(self) -> float:
        return float(self.t[-1] - self.t[0])


def _finite_diff(t: np.ndarray, signal: np.ndarray, circular: bool) -> np.ndarray:
    values = unwrap_deg(signal) if circular else signal
    return np.gradient(values, t)


def parse_trace(csv_path, sidecar_path=None, rebase: bool = True) -> HeadTrace:
    """Load a trace from CSV plus optional JSON sidecar.

    Velocity columns may be omitted; missing ones are reconstructed by
    central finite differences (circular-unwrapped for yaw and roll).  By
    default the yaw track is rebased so playback starts at 0 degrees, which
    is the convention every analytic here assumes.
    """
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{csv_path}: empty trace file") from None
        header = [h.strip() for h in header]
        unknown = set(header) - set(TRACE_COLUMNS)
        if unknown:
            raise ValueError(f"{csv_path}: unknown columns {sorted(unknown)}")
        missing = set(TRACE_COLUMNS[:4]) - set(header)
        if missing:
            raise ValueError(f"{csv_path}: missing columns {sorted(missing)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{csv_path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise ValueError(f"{csv_path}:{lineno}: non-numeric field") from None
    if len(rows) < 2:
        raise ValueError(f"{csv_path}: a trace needs at least two samples")
    data = dict(zip(header, np.asarray(rows, dtype=float).T))

    t = data["t_s"]
    yaw = wrap_deg(data["yaw_deg"])
    pitch = data["pitch_deg"]
    roll = wrap_deg(data["roll_deg"])
    yaw_vel = data.get("yaw_dps")
    pitch_vel = data.get("pitch_dps")
    roll_vel = data.get("roll_dps")
    if yaw_vel is None:
        yaw_vel = _finite_diff(t, yaw, circular=True)
    if pitch_vel is None:
        pitch_vel = _finite_diff(t, pitch, circular=False)
    if roll_vel is None:
        roll_vel = _finite_diff(t, roll, circular=True)

    meta = {"video_id": csv_path.stem, "user_id": "", "category": "misc"}
    sidecar = Path(sidecar_path) if sidecar_path is not None else csv_path.with_suffix(".json")
    if sidecar.exists():
        loaded = json.loads(sidecar.read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"{sidecar}: sidecar must hold a JSON object")
        meta.update({k: loaded[k] for k in ("video_id", "user_id", "category") if k in loaded})

    trace = HeadTrace(t, yaw, pitch, roll, yaw_vel, pitch_vel, roll_vel,
                      video_id=str(meta["video_id"]), user_id=str(meta["user_id"]),
                      category=str(meta["category"]))
    return rebase_yaw(trace) if rebase else trace


def write_trace(trace: HeadTrace, csv_path, sidecar_path=None) -> None:
    """Write a trace as CSV (6 decimal places) plus its JSON sidecar."""
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        columns = (trace.t, trace.yaw, trace.pitch, trace.roll,
                   trace.yaw_vel, trace.pitch_vel, trace.roll_vel)
        for row in zip(*columns):
            writer.writerow([f"{x:.6f}" for x in row])
    sidecar = Path(sidecar_path) if sidecar_path is not None else csv_path.with_suffix(".json")
    meta = {"video_id": trace.video_id, "user_id": trace.user_id, "category": trace.category}
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def rebase_yaw(trace: HeadTrace) -> HeadTrace:
    """Shift yaw so the trace starts at 0 degrees.  Idempotent."""
    return replace(trace, yaw=wrap_deg(trace.yaw - trace.yaw[0]))


def resample(trace: HeadTrace, rate_hz: float) -> HeadTrace:
    """Resample to a uniform rate, keeping both endpoints.

    Yaw and roll are interpolated along the shorter circular arc, so a step
    from 170 to -170 passes through +-180 rather than sweeping through 0.
    Pitch and velocities are interpolated linearly.
    """
    if not rate_hz > 0:
        raise ValueError("resample rate must be positive")
    t0, t1 = float(trace.t[0]), float(trace.t[-1])
    count = int(np.floor((t1 - t0) * rate_hz + _EPS)) + 1
    times = t0 + np.arange(count) / rate_hz
    if t1 - times[-1] > _EPS:
        times = np.append(times, t1)
    return replace(
        trace,
        t=times,
        yaw=interp_angle_deg(times, trace.t, trace.yaw),
        pitch=np.interp(times, trace.t, trace.pitch),
        roll=interp_angle_deg(times, trace.t, trace.roll),
        yaw_vel=np.interp(times, trace.t, trace.yaw_vel),
        pitch_vel=np.interp(times, trace.t, trace.pitch_vel),
        roll_vel=np.interp(times, trace.t, trace.roll_vel),
    )


def yaw_at(trace: HeadTrace, times) -> np.ndarray:
    """Yaw at arbitrary times inside the trace, shorter-arc interpolated."""
    return interp_angle_deg(times, trace.t, trace.yaw)


def _stride_grid(trace: HeadTrace, lag_s: float, stride_s: float) -> np.ndarray:
    if not stride_s > 0:
        raise ValueError("stride must be positive")
    horizon = trace.duration_s - lag_s
    if horizon < -_EPS:
        return np.empty(0)
    count = int(np.floor(horizon / stride_s + _EPS)) + 1
    return trace.t[0] + np.arange(max(count, 0)) * stride_s


def _windows(trace: HeadTrace, lag_s: float, stride_s: float):
    """Lookahead windows on the stride grid: (starts, origin_yaw, change).

    ``origin_yaw`` is the yaw at each start time and ``change`` the signed
    circular yaw change over the following lag_s, both as ``yaw_at`` reads
    them, from a single unwrap of the yaw track.
    """
    starts = _stride_grid(trace, lag_s, stride_s)
    lifted = unwrap_deg(trace.yaw)
    origin = wrap_deg(np.interp(starts, trace.t, lifted))
    change = circ_diff_deg(wrap_deg(np.interp(starts + lag_s, trace.t, lifted)), origin)
    return starts, origin, change


def yaw_changes(trace: HeadTrace, lag_s: float, stride_s: float = 0.1) -> np.ndarray:
    """Signed circular yaw changes over a lookahead of lag_s.

    Samples start times every stride_s from the beginning of the trace, as
    long as the whole lookahead window fits.  Results lie in [-180, 180).
    """
    if not (np.isfinite(lag_s) and lag_s > 0):
        raise ValueError("lag must be positive and finite")
    return _windows(trace, lag_s, stride_s)[2]


def _require_traces(traces) -> list:
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    return traces


def _pooled_changes(traces, lag_s: float, stride_s: float) -> np.ndarray:
    traces = _require_traces(traces)
    shortest = min(tr.duration_s for tr in traces)
    if not lag_s < shortest:
        raise ValueError("lag must be shorter than every trace")
    return np.concatenate([yaw_changes(tr, lag_s, stride_s) for tr in traces])


@dataclass(frozen=True, eq=False)
class Cdf:
    """Empirical distribution of a pooled sample set.

    ``fraction_below``/``fraction_above`` are strict, so together with
    ``mass_at`` they partition the sample mass at any point.  ``quantile(p)``
    returns the smallest sample whose CDF reaches p; quantile(0) is the
    minimum and quantile(1) the maximum.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.values, dtype=float).ravel())
        if arr.size == 0:
            raise ValueError("a CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("CDF samples must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile level must lie in [0, 1]")
        idx = max(int(np.ceil(p * self.n)) - 1, 0)
        return float(self.values[min(idx, self.n - 1)])

    def fraction_below(self, x: float) -> float:
        return float(np.searchsorted(self.values, x, side="left")) / self.n

    def fraction_above(self, x: float) -> float:
        return 1.0 - float(np.searchsorted(self.values, x, side="right")) / self.n

    def mass_at(self, x: float) -> float:
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return float(hi - lo) / self.n

    def describe(self) -> dict:
        """Summary statistics used by report emitters."""
        return {
            "n": self.n,
            "min": float(self.values[0]),
            "p01": self.quantile(0.01),
            "p25": self.quantile(0.25),
            "median": self.quantile(0.5),
            "p75": self.quantile(0.75),
            "p99": self.quantile(0.99),
            "max": float(self.values[-1]),
            "mean": float(self.values.mean()),
        }


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Joint yaw/pitch occupancy histogram; frequencies sum to 1."""

    yaw_edges: np.ndarray
    pitch_edges: np.ndarray
    freq: np.ndarray


def angle_utilization_cdf(traces, axis: str = "yaw") -> Cdf:
    """CDF of raw orientation samples pooled over traces, one axis."""
    traces = _require_traces(traces)
    if axis not in ("yaw", "pitch", "roll"):
        raise ValueError(f"unknown axis {axis!r}")
    return Cdf(np.concatenate([getattr(tr, axis) for tr in traces]))


def heatmap(traces, yaw_bin_deg: float = 10.0, pitch_bin_deg: float = 10.0) -> Heatmap:
    """Yaw/pitch occupancy frequencies on a regular grid.

    Bin widths must divide 360 (yaw) and 180 (pitch) evenly.
    """
    traces = _require_traces(traces)
    for span, width, name in ((360.0, yaw_bin_deg, "yaw"), (180.0, pitch_bin_deg, "pitch")):
        if not width > 0 or abs(span / width - round(span / width)) > _EPS:
            raise ValueError(f"{name} bin width must divide {span:.0f} evenly")
    yaw_edges = np.linspace(-180.0, 180.0, int(round(360.0 / yaw_bin_deg)) + 1)
    pitch_edges = np.linspace(-90.0, 90.0, int(round(180.0 / pitch_bin_deg)) + 1)
    yaw_all = np.concatenate([tr.yaw for tr in traces])
    pitch_all = np.concatenate([tr.pitch for tr in traces])
    counts, _, _ = np.histogram2d(yaw_all, pitch_all, bins=(yaw_edges, pitch_edges))
    return Heatmap(yaw_edges, pitch_edges, counts / counts.sum())


def pairwise_angular_difference(traces, time_step_s: float = 0.1):
    """Mean angular distance between viewers of the same video over time.

    For each video the trace pairs are compared at a shared time grid; the
    per-video means are then averaged.  Returns (times, mean_distance_deg),
    with the grid limited by the shortest trace.  Every video needs at least
    two traces.
    """
    traces = _require_traces(traces)
    if not time_step_s > 0:
        raise ValueError("time step must be positive")
    groups: dict[str, list] = {}
    for tr in traces:
        groups.setdefault(tr.video_id, []).append(tr)
    for video, group in groups.items():
        if len(group) < 2:
            raise ValueError(f"video {video!r} has fewer than two traces")
    horizon = min(tr.duration_s for tr in traces)
    times = np.arange(0.0, horizon + _EPS, time_step_s)
    per_video = []
    for group in groups.values():
        tracks = [yaw_at(tr, tr.t[0] + times) for tr in group]
        dists = [circ_dist_deg(tracks[i], tracks[j])
                 for i in range(len(tracks)) for j in range(i + 1, len(tracks))]
        per_video.append(np.mean(dists, axis=0))
    return times, np.mean(per_video, axis=0)


def yaw_change_cdf(traces, lag_s: float, stride_s: float = 0.1) -> Cdf:
    """CDF of signed circular yaw changes over a lookahead of lag_s."""
    return Cdf(_pooled_changes(traces, lag_s, stride_s))


def velocity_prediction_error(traces, lag_s: float, vel_threshold_dps: float,
                              safety_angle_deg: float = 0.0, stride_s: float = 0.1) -> float:
    """How often instantaneous yaw velocity mispredicts where yaw goes.

    Over all samples whose |yaw velocity| exceeds the threshold, counts the
    fraction where the yaw change over lag_s runs opposite to the velocity by
    more than safety_angle_deg.  Raises if no sample qualifies.
    """
    traces = _require_traces(traces)
    if vel_threshold_dps < 0 or safety_angle_deg < 0:
        raise ValueError("threshold and safety angle must be nonnegative")
    qualifying = 0
    errors = 0
    for tr in traces:
        starts, _, changes = _windows(tr, lag_s, stride_s)
        vel = np.interp(starts, tr.t, tr.yaw_vel)
        mask = np.abs(vel) > vel_threshold_dps
        if not np.any(mask):
            continue
        qualifying += int(mask.sum())
        errors += int(np.sum(changes[mask] * np.sign(vel[mask]) < -safety_angle_deg))
    if qualifying == 0:
        raise ValueError("no samples exceed the velocity threshold")
    return errors / qualifying


def origin_conditioned_change(traces, lag_s: float, sector_deg: float = 60.0,
                              stride_s: float = 0.1) -> dict[int, Cdf]:
    """Yaw-change CDFs conditioned on the sector yaw starts from.

    Sector s covers [s * sector_deg, (s+1) * sector_deg) measured from the
    0 line; sector_deg must divide 360 evenly.  Sectors that never occur are
    absent from the result.
    """
    traces = _require_traces(traces)
    if not sector_deg > 0 or abs(360.0 / sector_deg - round(360.0 / sector_deg)) > _EPS:
        raise ValueError("sector width must divide 360 evenly")
    n_sectors = int(round(360.0 / sector_deg))
    buckets: dict[int, list] = {}
    for tr in traces:
        _, origin, changes = _windows(tr, lag_s, stride_s)
        sectors = np.minimum((np.mod(origin, 360.0) // sector_deg).astype(int), n_sectors - 1)
        for s in np.unique(sectors):
            buckets.setdefault(int(s), []).append(changes[sectors == s])
    return {s: Cdf(np.concatenate(parts)) for s, parts in sorted(buckets.items())}


def phase_split_cdf(traces, lag_s: float, split_s: float = 20.0, stride_s: float = 0.1):
    """Yaw-change CDFs for the exploration phase versus steady viewing.

    A change sampled at start time t belongs to the exploration phase when
    t - t0 < split_s, otherwise to the steady phase.  All traces must be
    longer than split_s, and both phases must receive samples.
    """
    traces = _require_traces(traces)
    if not split_s > 0:
        raise ValueError("split time must be positive")
    if min(tr.duration_s for tr in traces) <= split_s:
        raise ValueError("every trace must be longer than the split time")
    early = []
    late = []
    for tr in traces:
        starts, _, changes = _windows(tr, lag_s, stride_s)
        mask = (starts - tr.t[0]) < split_s
        early.append(changes[mask])
        late.append(changes[~mask])
    early = np.concatenate(early)
    late = np.concatenate(late)
    if early.size == 0 or late.size == 0:
        raise ValueError("need samples in both phases; lower the lag or lengthen traces")
    return Cdf(early), Cdf(late)
