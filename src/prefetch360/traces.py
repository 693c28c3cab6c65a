"""Head-orientation traces and the analytics computed from them.

A trace is a time series of yaw/pitch/roll samples (degrees, plus angular
velocities in degrees per second) for one viewer watching one video.  Traces
are stored as a CSV with columns

    t_s,yaw_deg,pitch_deg,roll_deg,yaw_dps,pitch_dps,roll_dps

plus an optional JSON sidecar carrying ``video_id``, ``user_id`` and a
``category`` tag, each a string.  Yaw is measured against the video's 0
line; analytics that talk about "angles relative to the start" expect traces
rebased so the first yaw sample is 0.

``write_trace`` writes every column with 6 decimals and CRLF line ends: the
bytes ``csv.writer`` gives for the same ``%.6f`` fields.  It formats the
digits of ``rint(fl(|x|·10**6))`` in numpy, which is exactly what ``%.6f``
prints unless ``fl(|x|·10**6)`` is a half-integer: rounding is monotonic and
every half-integer below 2**52 is a double, so the rounded product can reach
a rounding boundary of the exact one only by landing on it.  A block of rows holding
such a value (an exact or near decimal tie such as ``1/128``), or a magnitude
of 999,999.5 or more (``1e300``, or one not finite), is formatted by ``%``
instead, the reference path.

``parse_trace`` takes the columns in any order; the first four are required,
unknown or repeated names are refused.  The body is read by ``np.loadtxt``
when it can; whatever that declines goes to a ``csv`` plus ``float()`` loop,
which decides and names the line it refuses.  Both read the same values, so
the loop alone fixes what is accepted: blank lines are skipped, quoted
fields, ``1_0``, padded numbers, ``nan`` and ``inf`` are read as ``float()``
reads them, and a field over the ``csv`` field limit is refused.  Non-finite
samples are refused before any angle is wrapped.

The metrics here all reduce to pooled sample sets summarized as empirical
CDFs: how much of the angle range viewers use, how far yaw drifts over a
lookahead window, how those drifts interact with instantaneous velocity, and
how behavior differs between an exploration phase and steady viewing.
"""

import csv
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angles import circ_diff_deg, circ_dist_deg, unwrap_deg, wrap_deg

__all__ = [
    "CATEGORIES",
    "HeadTrace",
    "Cdf",
    "Heatmap",
    "parse_trace",
    "write_trace",
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

# Most bins, grid points or lookahead windows one analytic may allocate.
GRID_LIMIT = 10**7


@dataclass(frozen=True, eq=False)
class HeadTrace:
    """One viewer's orientation samples for one video.

    Timestamps are strictly increasing seconds; at least two samples.  Yaw
    and roll live in [-180, 180), pitch in [-90, 90].  Velocities are signed
    degrees per second (positive yaw velocity turns toward increasing yaw).
    ``lifted_yaw`` is the yaw unwrapped once, when the trace is built; every
    reading of yaw between samples interpolates it, along the shorter arc.
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
        # in Python floats an overflowing span is inf, where np.diff would warn
        if not np.isfinite(float(arrays["t"].max()) - float(arrays["t"].min())):
            raise ValueError("timestamps must span a finite duration")
        if np.any(np.diff(arrays["t"]) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        for name in ("yaw", "roll"):
            if np.any(arrays[name] < -180.0) or np.any(arrays[name] >= 180.0):
                raise ValueError(f"{name} must lie in [-180, 180)")
        if np.any(np.abs(arrays["pitch"]) > 90.0):
            raise ValueError("pitch must lie in [-90, 90]")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown trace category {self.category!r}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "lifted_yaw", unwrap_deg(arrays["yaw"]))

    @property
    def duration_s(self) -> float:
        return float(self.t[-1] - self.t[0])


def _finite_diff(t: np.ndarray, signal: np.ndarray, circular: bool) -> np.ndarray:
    values = unwrap_deg(signal) if circular else signal
    # a step too steep for a float gives inf or nan, which HeadTrace refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.gradient(values, t)


def _loadtxt_table(body: str, n_columns: int):
    """The trace body parsed in C, or None where the csv loop must decide.

    Declines, without warning, a body with no data line (loadtxt would warn)
    and a body with a line longer than the csv field limit (csv would refuse
    a field in it).  Anything loadtxt refuses, or a table of another width,
    also goes to the loop, which names the offending line.
    """
    lines = body.split("\n")
    if not body.strip("\r\n") or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    return table if table.shape[1] == n_columns else None


def _csv_table(csv_path, body: str, n_columns: int) -> np.ndarray:
    """The trace body parsed by ``csv`` and ``float``; a refusal names its line.

    Lines count CSV records, the header being line 1; empty records are skipped.
    """
    rows = []
    lineno = 1
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
            if not row:
                continue
            if len(row) != n_columns:
                raise ValueError(f"{csv_path}:{lineno}: expected {n_columns} fields, got {len(row)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise ValueError(f"{csv_path}:{lineno}: non-numeric field") from None
    except csv.Error as exc:
        raise ValueError(f"{csv_path}:{lineno + 1}: {exc}") from None
    return np.asarray(rows, dtype=float)


def _json_object(path: Path) -> dict:
    """The object a JSON file holds at its top level; a config or a sidecar."""
    try:
        loaded = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return loaded


def _read_trace_csv(csv_path: Path):
    """(header, body): the header record's stripped names and the text after it."""
    try:
        with open(csv_path, newline="") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
    except csv.Error as exc:
        raise ValueError(f"{csv_path}:1: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    if header is None:
        raise ValueError(f"{csv_path}: empty trace file")
    return [h.strip() for h in header], body


def parse_trace(csv_path) -> HeadTrace:
    """Load a trace from CSV plus the optional JSON sidecar next to it.

    Velocity columns may be omitted; missing ones are reconstructed by
    central finite differences (circular-unwrapped for yaw and roll).  The
    yaw track is rebased so playback starts at 0 degrees, which is the
    convention every analytic here assumes.
    """
    csv_path = Path(csv_path)
    header, body = _read_trace_csv(csv_path)
    unknown = set(header) - set(TRACE_COLUMNS)
    if unknown:
        raise ValueError(f"{csv_path}: unknown columns {sorted(unknown)}")
    repeated = {h for h in set(header) if header.count(h) > 1}
    if repeated:
        raise ValueError(f"{csv_path}: duplicate columns {sorted(repeated)}")
    missing = set(TRACE_COLUMNS[:4]) - set(header)
    if missing:
        raise ValueError(f"{csv_path}: missing columns {sorted(missing)}")
    table = _loadtxt_table(body, len(header))
    if table is None:
        table = _csv_table(csv_path, body, len(header))
    if len(table) < 2:
        raise ValueError(f"{csv_path}: a trace needs at least two samples")
    # before any wrapping: the remainder of inf warns
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise ValueError(f"{csv_path}: {header[int(np.argmin(finite))]} contains non-finite samples")
    data = dict(zip(header, table.T))

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
    # rebased once the velocities are taken from the yaw as read
    yaw = wrap_deg(yaw - yaw[0])

    meta = {"video_id": csv_path.stem, "user_id": "", "category": "misc"}
    sidecar = csv_path.with_suffix(".json")
    if sidecar.exists():
        loaded = _json_object(sidecar)
        for key in meta:
            value = loaded.get(key, meta[key])
            if not isinstance(value, str):
                raise ValueError(f"{sidecar}: {key} must be a string")
            meta[key] = value

    try:
        return HeadTrace(t, yaw, pitch, roll, yaw_vel, pitch_vel, roll_vel, **meta)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None


# one line of the written body: csv.writer's fields and its \r\n line ending
_ROW_FORMAT = ",".join(["%.6f"] * len(TRACE_COLUMNS)) + "\r\n"

# rows formatted per write, so a long trace never holds its whole text at once
_WRITE_ROWS = 1 << 14

# |x| below this scales to under 10**12 when rounded: at most six integer digits
_FAST_BELOW = 999_999.5


def _reference_bytes(block: np.ndarray) -> bytes:
    """A block of rows formatted by ``%``: the reference the numpy formatter reproduces."""
    return (_ROW_FORMAT * len(block) % tuple(block.ravel().tolist())).encode()


@functools.cache
def _slot_words():
    """(head, units, quad, pair, separators): the word tables of one value's slot.

    A slot is four little-endian 4-byte words, NUL wherever nothing is written:
    ``[sign d1 d2 d3] [d4 d5 d6 .] [f1 f2 f3 f4] [f5 f6 sep sep]`` for the
    integer digits d and decimals f.  ``head[1000·negative + whole // 1000]``
    holds the sign and the leading digits, none for 0; ``units[1000·(whole ≥
    1000) + whole % 1000]`` the last three digits and the point, with leading
    zeros dropped below 1000 but the ones digit always there; ``quad[k]`` and
    ``pair[k]`` the zero-padded digits of k; ``separators[column]`` the ``,``
    or ``\\r\\n`` after that column.  Built on first use, and read-only.
    """
    # small dtypes and in-place steps keep the build's temporaries near 100 kB
    def ascii_digits(count, width):
        places = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint16)
        k = np.arange(count, dtype=np.uint16)[:, None]
        digits = k // places
        digits %= 10
        digits += ord("0")
        return digits.astype(np.uint8), k >= places

    digits, shown = ascii_digits(1000, 3)
    nul = np.zeros((1000, 1), np.uint8)
    point = np.full((1000, 1), ord("."), np.uint8)
    head = np.hstack((nul, np.where(shown, digits, 0)))
    alone = np.where(shown | [False, False, True], digits, 0)
    tables = (
        np.vstack((head, head + np.uint8([ord("-"), 0, 0, 0]))),
        np.vstack((np.hstack((alone, point)), np.hstack((digits, point)))),
        ascii_digits(10_000, 4)[0],
        np.hstack((ascii_digits(100, 2)[0], nul[:100], nul[:100])),
        np.uint8([[0, 0, ord(","), 0]] * (len(TRACE_COLUMNS) - 1) + [[0, 0, ord("\r"), ord("\n")]]),
    )
    words = tuple(t.view("<u4").ravel() for t in tables)
    for w in words:
        w.flags.writeable = False
    return words


def _fixed_point_bytes(block: np.ndarray) -> bytes | None:
    """``_reference_bytes(block)`` computed in numpy, or None where it might differ.

    None for a block that ``write_trace`` formats by ``%`` (the rule is given
    there).  Below ``_FAST_BELOW`` the rounded value is under 10**12, so six
    integer digits, the sign, the point, six decimals and two separator bytes
    fill a 16-byte slot.
    """
    y = np.abs(block)
    if not y.max() < _FAST_BELOW:
        return None
    y *= 1e6
    micro = np.empty(block.shape, np.int64)
    np.rint(y, out=micro, casting="unsafe")
    y -= micro
    if np.abs(y, out=y).max() == 0.5:
        return None
    # each part is dropped once its words are placed: a block peaks near 48 bytes
    # per value, about what the % path's float objects take
    del y
    head, units, quad, pair, separators = _slot_words()
    slots = np.empty(block.shape + (4,), "<u4")
    # in place, by floor division and subtraction: numpy's % on int64 is several times slower
    whole = micro // 10**6
    micro -= whole * 10**6           # the six decimals
    f1_4 = micro // 100
    micro -= f1_4 * 100              # the last two decimals
    slots[..., 2] = quad[f1_4]
    slots[..., 3] = pair[micro] | separators
    del f1_4, micro
    high = whole // 1000
    whole -= high * 1000             # the last three integer digits
    np.add(whole, 1000, out=whole, where=high > 0)
    slots[..., 1] = units[whole]
    del whole
    np.add(high, 1000, out=high, where=np.signbit(block))
    slots[..., 0] = head[high]
    text = slots.tobytes()
    del slots, high
    return text.translate(None, b"\0")


def write_trace(trace: HeadTrace, csv_path) -> None:
    """Write a trace as CSV (6 decimal places, CRLF line ends) plus its JSON sidecar.

    The bytes are those ``csv.writer`` writes for the same ``f"{x:.6f}"`` fields.
    Each block of ``_WRITE_ROWS`` rows is formatted in numpy: every value's
    digits are gathered from small tables into a 16-byte slot, NUL bytes mark
    what the value does not print, and deleting them leaves the block's text.

    That is exact.  ``%.6f`` prints the exact product ``P = |x|·10**6``
    rounded to an integer, half to even.  ``y = fl(P)`` is ``P`` correctly
    rounded; rounding is monotonic, and every half-integer below 2**52 is a
    double.  So unless ``y`` is itself a half-integer, ``P`` lies strictly
    between the same two consecutive half-integers as ``y``, and ``rint(y)``
    is the integer ``%.6f`` prints.  A block holding a value whose ``y`` is a
    half-integer (an exact decimal tie such as ``1/128``, or a near tie that
    rounds onto one), a magnitude of ``_FAST_BELOW`` or more (``1e300``), or a
    non-finite value is formatted by ``_reference_bytes`` instead.
    """
    csv_path = Path(csv_path)
    columns = (trace.t, trace.yaw, trace.pitch, trace.roll,
               trace.yaw_vel, trace.pitch_vel, trace.roll_vel)
    with open(csv_path, "wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\r\n").encode())
        for lo in range(0, trace.t.size, _WRITE_ROWS):
            block = np.column_stack([c[lo:lo + _WRITE_ROWS] for c in columns])
            fh.write(_fixed_point_bytes(block) or _reference_bytes(block))
    sidecar = csv_path.with_suffix(".json")
    meta = {"video_id": trace.video_id, "user_id": trace.user_id, "category": trace.category}
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def _divisions(span: float, width: float, name: str) -> int:
    """How many bins of ``width`` tile ``span`` exactly, from 1 to GRID_LIMIT."""
    count = span / width if width > 0 else 0.0
    if not (1 <= count <= GRID_LIMIT and abs(count - round(count)) <= _EPS):
        raise ValueError(f"{name} width must divide {span:.0f} evenly "
                         f"into at most {GRID_LIMIT} bins")
    return int(round(count))


def _windows(traces, lag_s: float, stride_s: float):
    """Lookahead windows pooled over a cohort: (elapsed, origin_yaw, change, yaw_vel).

    Start times step every stride_s from each trace's first sample while the
    whole lag_s window fits.  ``elapsed`` is the start time since that first
    sample, ``origin_yaw`` the yaw there and ``change`` the signed circular
    yaw change over the following lag_s, both read from the trace's
    ``lifted_yaw``; ``yaw_vel`` is the yaw velocity at the start.  The lag
    must be nonnegative and shorter than every trace, and the window count is
    checked against GRID_LIMIT before anything is allocated.
    """
    traces = _require_traces(traces)
    if not 0 < stride_s < np.inf:
        raise ValueError("stride must be positive and finite")
    if not lag_s >= 0:
        raise ValueError("lag must be nonnegative")
    if not lag_s < min(tr.duration_s for tr in traces):
        raise ValueError("lag must be shorter than every trace")
    counts = [np.floor((tr.duration_s - lag_s) / stride_s + _EPS) + 1 for tr in traces]
    if sum(counts) > GRID_LIMIT:
        raise ValueError(f"stride {stride_s:g} s gives {sum(counts):.3g} windows, "
                         f"more than {GRID_LIMIT}")
    parts = []
    for tr, count in zip(traces, counts):
        starts = tr.t[0] + np.arange(int(count)) * stride_s
        origin = wrap_deg(np.interp(starts, tr.t, tr.lifted_yaw))
        change = circ_diff_deg(wrap_deg(np.interp(starts + lag_s, tr.t, tr.lifted_yaw)), origin)
        parts.append((starts - tr.t[0], origin, change, np.interp(starts, tr.t, tr.yaw_vel)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _require_traces(traces) -> list:
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    return traces


@dataclass(frozen=True, eq=False)
class Cdf:
    """Empirical distribution of a pooled sample set.

    ``quantile(p)`` returns the smallest sample whose CDF reaches p;
    quantile(0) is the minimum and quantile(1) the maximum.
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

    Bin widths must divide 360 (yaw) and 180 (pitch) evenly, into at most
    GRID_LIMIT cells.
    """
    traces = _require_traces(traces)
    n_yaw = _divisions(360.0, yaw_bin_deg, "yaw bin")
    n_pitch = _divisions(180.0, pitch_bin_deg, "pitch bin")
    if n_yaw * n_pitch > GRID_LIMIT:
        raise ValueError(f"a {n_yaw} x {n_pitch} heatmap has more than {GRID_LIMIT} cells")
    yaw_edges = np.linspace(-180.0, 180.0, n_yaw + 1)
    pitch_edges = np.linspace(-90.0, 90.0, n_pitch + 1)
    yaw_all = np.concatenate([tr.yaw for tr in traces])
    pitch_all = np.concatenate([tr.pitch for tr in traces])
    counts, _, _ = np.histogram2d(yaw_all, pitch_all, bins=(yaw_edges, pitch_edges))
    return Heatmap(yaw_edges, pitch_edges, counts / counts.sum())


def pairwise_angular_difference(traces, time_step_s: float = 0.1):
    """Mean angular distance between viewers of the same video over time.

    For each video the trace pairs are compared at a shared time grid; the
    per-video means are then averaged.  Returns (times, mean_distance_deg),
    with the grid limited by the shortest trace.  Every video needs at least
    two traces, and one video's pairs times the grid points may not exceed
    GRID_LIMIT.
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
    pairs = max(len(group) * (len(group) - 1) // 2 for group in groups.values())
    if (horizon / time_step_s + 1) * pairs > GRID_LIMIT:
        raise ValueError(f"time step {time_step_s:g} s needs more than {GRID_LIMIT} "
                         "pair distances for one video")
    times = np.arange(0.0, horizon + _EPS, time_step_s)
    per_video = []
    for group in groups.values():
        tracks = [wrap_deg(np.interp(tr.t[0] + times, tr.t, tr.lifted_yaw)) for tr in group]
        dists = [circ_dist_deg(tracks[i], tracks[j])
                 for i in range(len(tracks)) for j in range(i + 1, len(tracks))]
        per_video.append(np.mean(dists, axis=0))
    return times, np.mean(per_video, axis=0)


def yaw_change_cdf(traces, lag_s: float, stride_s: float = 0.1) -> Cdf:
    """CDF of signed circular yaw changes over a lookahead of lag_s."""
    return Cdf(_windows(traces, lag_s, stride_s)[2])


def velocity_prediction_error(traces, lag_s: float, vel_threshold_dps: float,
                              safety_angle_deg: float = 0.0, stride_s: float = 0.1) -> float:
    """How often instantaneous yaw velocity mispredicts where yaw goes.

    Over all samples whose |yaw velocity| exceeds the threshold, counts the
    fraction where the yaw change over lag_s runs opposite to the velocity by
    more than safety_angle_deg.  Raises if no sample qualifies.
    """
    if not (vel_threshold_dps >= 0 and safety_angle_deg >= 0):
        raise ValueError("threshold and safety angle must be nonnegative")
    _, _, change, vel = _windows(traces, lag_s, stride_s)
    mask = np.abs(vel) > vel_threshold_dps
    if not mask.any():
        raise ValueError("no samples exceed the velocity threshold")
    return int(np.sum(change[mask] * np.sign(vel[mask]) < -safety_angle_deg)) / int(mask.sum())


def origin_conditioned_change(traces, lag_s: float, sector_deg: float = 60.0,
                              stride_s: float = 0.1) -> dict[int, Cdf]:
    """Yaw-change CDFs conditioned on the sector yaw starts from.

    Sector s covers [s * sector_deg, (s+1) * sector_deg) measured from the
    0 line; sector_deg must divide 360 evenly.  Sectors that never occur are
    absent from the result.
    """
    n_sectors = _divisions(360.0, sector_deg, "sector")
    _, origin, change, _ = _windows(traces, lag_s, stride_s)
    sectors = np.minimum((np.mod(origin, 360.0) // sector_deg).astype(int), n_sectors - 1)
    return {int(s): Cdf(change[sectors == s]) for s in np.unique(sectors)}


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
    elapsed, _, change, _ = _windows(traces, lag_s, stride_s)
    early = elapsed < split_s
    if early.all() or not early.any():
        raise ValueError("need samples in both phases; lower the lag or lengthen traces")
    return Cdf(change[early]), Cdf(change[~early])
