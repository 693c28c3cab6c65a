"""Data model for single-slot tile-quality optimization.

A planning slot covers one chunk duration.  The viewing sphere is split into
``N`` yaw tiles, each tile is fetched at one level of a shared quality ladder,
and the expected quality of a level assignment ``q = (q_0, ..., q_{N-1})``
under tile-view probabilities ``p`` is

    E[u] = (1 - beta) * sum_n p_n * u(q_n)
           - beta * sum_n ((p_n + p_{n+1}) / 2) * |u(q_n) - u(q_{n+1})|

with indices modulo ``N``, so the wrap-around pair ``(N-1, 0)`` is counted
exactly once.  ``beta`` trades mean quality against spatial quality variance
across adjacent tiles.

Utilities are normalized so the top ladder level has utility 1; level 0 means
"tile not fetched" and carries utility ``-f`` where ``f`` is the stall
penalty, the cost of looking at a tile that never arrived.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QualityLadder",
    "UtilityModel",
    "DirectionGrid",
    "Instance",
    "Selection",
    "build_utility_table",
    "eval_objective",
    "selection_size",
]

UTILITY_KINDS = ("linear", "sqrt", "log", "large_screen")

PROB_SUM_TOL = 1e-9

# one tile per degree, the resolution of the empirical yaw-change density
MAX_TILES = 360


@dataclass(frozen=True)
class QualityLadder:
    """Encoding ladder shared by all tiles.

    ``rates_kbps`` lists the positive, strictly increasing rates of levels
    ``1..L``.  Level 0 (skip) is implicit.  Tile sizes are measured in
    integer capacity units of 1 kbit: ``b_l = round(rate_l * chunk_s)`` and
    ``b_0 = 0``.  ``stall_penalty`` is ``f >= 0``, the magnitude of the
    negative utility of a skipped tile.
    """

    rates_kbps: tuple[float, ...]
    chunk_s: float = 1.0
    stall_penalty: float = 1.0

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates_kbps)
        object.__setattr__(self, "rates_kbps", rates)
        if len(rates) < 1:
            raise ValueError("ladder needs at least one level")
        arr = np.asarray(rates)
        if not np.all(np.isfinite(arr)) or arr[0] <= 0:
            raise ValueError("ladder rates must be finite and positive")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("ladder rates must be strictly increasing")
        if not self.chunk_s > 0:
            raise ValueError("chunk duration must be positive")
        # exact in float64, and MAX_TILES of them still add up inside int64;
        # a Python float product overflows to inf without a warning
        if not rates[-1] * self.chunk_s < 2.0**53:
            raise ValueError("chunk duration times the top rate must stay below 2^53 units")
        if not 0 <= self.stall_penalty < np.inf:
            raise ValueError("stall penalty must be finite and nonnegative")

    @property
    def n_levels(self) -> int:
        """L, the number of fetchable levels (excludes level 0)."""
        return len(self.rates_kbps)

    def level_sizes(self) -> np.ndarray:
        """Sizes b_0..b_L in integer capacity units, b_0 = 0."""
        sizes = np.rint(np.asarray(self.rates_kbps) * self.chunk_s)
        return np.concatenate([[0], sizes]).astype(np.int64)


@dataclass(frozen=True)
class UtilityModel:
    """Maps an encoding rate in kbps to raw (unnormalized) utility.

    kinds:
      linear        u(q) = q
      sqrt          u(q) = sqrt(q)
      log           u(q) = ln(1 + q / q_ref), q_ref = lowest ladder rate
      large_screen  u(q) = b * ((q / theta)^(1-a) - 1) / (1 - a),  a > 1

    All kinds are increasing and, except linear, strictly concave in q.
    """

    kind: str
    a: float = 2.0
    b: float = 10.0
    theta_kbps: float = 200.0

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "large_screen":
            if not self.a > 1:
                raise ValueError("large_screen requires a > 1")
            if not (self.b > 0 and self.theta_kbps > 0):
                raise ValueError("large_screen requires b > 0 and theta > 0")

    def raw(self, rate_kbps, ref_rate_kbps: float | None = None):
        """Raw utility of the given rate(s); ref_rate_kbps feeds the log kind.

        Extreme large_screen parameters give +-inf or nan without a warning;
        build_utility_table refuses such a table.
        """
        q = np.asarray(rate_kbps, dtype=float)
        if np.any(q <= 0):
            raise ValueError("rates must be positive")
        if self.kind == "linear":
            return q.copy()
        if self.kind == "sqrt":
            return np.sqrt(q)
        if self.kind == "log":
            if ref_rate_kbps is None or ref_rate_kbps <= 0:
                raise ValueError("log utility needs a positive reference rate")
            return np.log1p(q / ref_rate_kbps)
        with np.errstate(all="ignore"):
            return self.b * ((q / self.theta_kbps) ** (1.0 - self.a) - 1.0) / (1.0 - self.a)


def build_utility_table(ladder: QualityLadder, model: UtilityModel) -> np.ndarray:
    """Normalized utility per ladder level, shape (L+1,).

    Entry 0 is ``-stall_penalty``; entries 1..L are raw utilities divided by
    the raw utility of the top level, so the table ends in exactly 1.0.  The
    top raw utility must be positive for the normalization to make sense.
    """
    # extreme parameters overflow to inf or nan; the checks below refuse those tables
    with np.errstate(all="ignore"):
        raw = model.raw(np.asarray(ladder.rates_kbps), ref_rate_kbps=ladder.rates_kbps[0])
        top = raw[-1]
        normalized = raw / top
    if not top > 0:
        raise ValueError("top-level raw utility must be positive")
    if not np.all(np.isfinite(normalized)):
        raise ValueError("normalized utilities must be finite")
    return np.concatenate([[-ladder.stall_penalty], normalized])


@dataclass(frozen=True)
class DirectionGrid:
    """Partition of the yaw circle into ``n_tiles`` equal-width tiles.

    Tile ``n`` covers ``[n*w, (n+1)*w)`` with ``w = 360 / n_tiles``, wrapped
    into [-180, 180).  Angles are relative to the slot's 0 line, so tile 0
    starts at the current viewing direction; for even ``n_tiles`` the edges
    coincide with ``-180 + k*w``.  ``n_tiles`` runs from 2 to MAX_TILES.
    """

    n_tiles: int

    def __post_init__(self):
        if not (isinstance(self.n_tiles, (int, np.integer)) and 2 <= self.n_tiles <= MAX_TILES):
            raise ValueError(f"need an integer tile count of at least 2 and at most {MAX_TILES}")
        object.__setattr__(self, "n_tiles", int(self.n_tiles))

    @property
    def tile_width_deg(self) -> float:
        return 360.0 / self.n_tiles

    def tile_index(self, angle_deg):
        """Index of the tile containing the given angle(s)."""
        rel = np.mod(np.asarray(angle_deg, dtype=float), 360.0)
        idx = np.minimum((rel // self.tile_width_deg).astype(np.int64), self.n_tiles - 1)
        return idx if idx.ndim else int(idx)


def _as_prob_array(probs, n_tiles: int | None = None, name: str = "probabilities") -> np.ndarray:
    """The one probability-vector check: ``probs`` as a float64 array.

    The vector must have ``n_tiles`` entries when given, else be 1-D with at
    least two, and be finite, nonnegative and sum to 1 within PROB_SUM_TOL.
    """
    p = np.asarray(probs, dtype=float)
    if n_tiles is None:
        if p.ndim != 1 or p.size < 2:
            raise ValueError("need a 1-D vector with at least two tiles")
    elif p.shape != (n_tiles,):
        raise ValueError(f"{name} length must match the tile count: "
                         f"need {n_tiles} tile probabilities, got shape {p.shape}")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1 within {PROB_SUM_TOL:g}")
    return p


def _as_nonneg_ints(values, name: str, ndim: int = 0) -> np.ndarray:
    """The one nonnegative-integer check: ``values`` as int64 with ``ndim`` axes.

    Integral floats such as 3.0 pass; bools, strings, infinities, NaNs and
    fractions do not, and neither does anything from 2^63 up, which int64
    would wrap to a negative number.
    """
    a = np.asarray(values)
    noun = "a nonnegative integer" if ndim == 0 else "nonnegative integers"
    if a.ndim != ndim or a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError(f"{name} must be {noun}")
    if np.any(a != np.rint(a)):
        raise ValueError(f"{name} must be {noun}; round before use")
    if a.dtype.kind != "i" and np.any(a >= 2**63):
        raise ValueError(f"{name} must be {noun} below 2^63")
    return a.astype(np.int64)


def _check_beta(beta) -> None:
    """The one smoothness-weight check."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Instance:
    """One planning slot: what to optimize and under which budget.

    ``capacity`` is the downlink budget D * chunk_s in the same integer units
    as tile sizes.  ``probs`` is any array-like of tile probabilities.  The
    per-tile ``sizes`` override serves layered refinement, where
    already-cached levels cost nothing; the ``utilities`` override has no
    caller in the package, and tests use it for instances with exact
    arithmetic.  Both default to ``None``, the shared ladder tables.
    Construction resolves and checks both per-tile tables once, as the
    attributes ``size_table`` (int64) and ``utility_table`` (float64), each
    of shape (N, L+1); the overrides themselves are kept as given.
    """

    grid: DirectionGrid
    ladder: QualityLadder
    utility: UtilityModel
    probs: object
    capacity: int
    beta: float
    sizes: np.ndarray | None = field(default=None)
    utilities: np.ndarray | None = field(default=None)

    def __post_init__(self):
        shape = (self.grid.n_tiles, self.ladder.n_levels + 1)
        object.__setattr__(self, "probs", _as_prob_array(self.probs, shape[0]))
        object.__setattr__(self, "capacity", int(_as_nonneg_ints(self.capacity, "capacity")))
        _check_beta(self.beta)
        sizes = (np.broadcast_to(self.ladder.level_sizes(), shape)
                 if self.sizes is None else self.sizes)
        if np.shape(sizes) != shape:
            raise ValueError(f"size table must have shape {shape}")
        sizes = _as_nonneg_ints(sizes, "sizes", ndim=2)
        if np.any(sizes[:, 0] != 0):
            raise ValueError("level 0 must have size 0")
        utilities = (np.broadcast_to(build_utility_table(self.ladder, self.utility), shape)
                     if self.utilities is None else self.utilities)
        utilities = np.array(utilities, dtype=float)
        if utilities.shape != shape:
            raise ValueError(f"utility table must have shape {shape}")
        if not np.all(np.isfinite(utilities)):
            raise ValueError("utilities must be finite")
        object.__setattr__(self, "size_table", sizes)
        object.__setattr__(self, "utility_table", utilities)


@dataclass(frozen=True)
class Selection:
    """A level per tile plus the objective value it achieves."""

    levels: tuple[int, ...]
    value: float


def _level_array(selection, inst: Instance) -> np.ndarray:
    levels = getattr(selection, "levels", selection)
    lv = np.asarray(levels, dtype=np.int64)
    if lv.shape != (inst.grid.n_tiles,):
        raise ValueError("selection length must match the tile count")
    if np.any(lv < 0) or np.any(lv > inst.ladder.n_levels):
        raise ValueError("levels must lie in 0..L")
    return lv


def _objective(u: np.ndarray, inst: Instance):
    """The objective of per-tile utilities ``u`` of shape (..., N), one value per row."""
    p = inst.probs
    edge = 0.5 * (p + np.roll(p, -1))
    return (1.0 - inst.beta) * (u @ p) - inst.beta * (np.abs(u - np.roll(u, -1, axis=-1)) @ edge)


def eval_objective(selection, inst: Instance) -> float:
    """Objective value of a level assignment under the instance's probs.

    Accepts a Selection or a plain level sequence.  The smoothness penalty
    pairs each tile with its clockwise neighbor once, wrap included.
    """
    lv = _level_array(selection, inst)
    return float(_objective(inst.utility_table[np.arange(inst.grid.n_tiles), lv], inst))


def selection_size(selection, inst: Instance) -> int:
    """Total capacity the assignment consumes, in integer units."""
    lv = _level_array(selection, inst)
    return int(inst.size_table[np.arange(inst.grid.n_tiles), lv].sum())
