"""Layered prefetch refinement across successive booking passes.

A chunk can be booked several times before playback: an early pass buys a
base layer while the viewing direction is still vague, later passes top up
tiles as the probability vector sharpens.  Every pass of a plan has one
probability vector over the same tiles, checked when the pass is built.
``run_plan`` gives each pass one ``Instance`` of the single-slot optimizer in
which levels at or below a tile's already-cached level cost nothing, and
upgrades are priced by the transport:

    svc_ideal    round((1 + overhead) * chunk_s * (rate_l - rate_cached))
    redownload   round(chunk_s * rate_l)

A pass never downgrades: the new state is the tile-wise maximum of the
cached and freshly chosen levels, and its value is that state's objective on
the same instance.
"""

from dataclasses import dataclass

import numpy as np

from .model import DirectionGrid, Instance, QualityLadder, UtilityModel, eval_objective
from .model import _as_nonneg_ints, _as_prob_array
from .optimizer import solve_dp

__all__ = [
    "TileState",
    "SizeModel",
    "PrefetchPass",
    "PrefetchPlan",
    "PassResult",
    "upgrade_sizes",
    "run_plan",
]

SIZE_MODES = ("svc_ideal", "redownload")


@dataclass(frozen=True, eq=False)
class TileState:
    """Cached quality level per tile; 0 means nothing fetched yet."""

    levels: np.ndarray

    def __post_init__(self):
        if np.ndim(self.levels) != 1 or np.size(self.levels) < 2:
            raise ValueError("need one level per tile, at least two tiles")
        object.__setattr__(self, "levels", _as_nonneg_ints(self.levels, "levels", ndim=1))

    @classmethod
    def empty(cls, n_tiles: int) -> "TileState":
        return cls(np.zeros(n_tiles, dtype=np.int64))


@dataclass(frozen=True)
class SizeModel:
    """How upgrades are priced; overhead is the SVC layering tax in [0, 1]."""

    mode: str = "svc_ideal"
    overhead: float = 0.0

    def __post_init__(self):
        if self.mode not in SIZE_MODES:
            raise ValueError(f"unknown size mode {self.mode!r}")
        if not 0.0 <= self.overhead <= 1.0:
            raise ValueError("overhead must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PrefetchPass:
    """One booking opportunity: how far ahead, how much budget, which probs."""

    lead_time_s: float
    budget: int
    probs: object

    def __post_init__(self):
        if not (np.isfinite(self.lead_time_s) and self.lead_time_s >= 0):
            raise ValueError("lead time must be finite and nonnegative")
        object.__setattr__(self, "budget", int(_as_nonneg_ints(self.budget, "budget")))
        object.__setattr__(self, "probs", _as_prob_array(self.probs))


@dataclass(frozen=True, eq=False)
class PrefetchPlan:
    """Booking passes for one chunk, ordered by decreasing lead time."""

    passes: tuple[PrefetchPass, ...]

    def __post_init__(self):
        passes = tuple(self.passes)
        if not passes:
            raise ValueError("a plan needs at least one pass")
        leads = [p.lead_time_s for p in passes]
        if any(b >= a for a, b in zip(leads, leads[1:])):
            raise ValueError("lead times must strictly decrease toward playback")
        if len({p.probs.size for p in passes}) > 1:
            raise ValueError("pass probability vectors disagree on tile count")
        object.__setattr__(self, "passes", passes)


def upgrade_sizes(state: TileState, ladder: QualityLadder, size_model: SizeModel) -> np.ndarray:
    """Per-tile level prices given what is already cached, shape (N, L+1).

    Levels at or below the cached level are free; higher levels cost the
    layered increment or a full re-download depending on the mode.
    """
    n_levels = ladder.n_levels
    if np.any(state.levels > n_levels):
        raise ValueError("cached level exceeds the ladder")
    cached = state.levels[:, None]
    if size_model.mode == "svc_ideal":
        rates = np.concatenate([[0.0], np.asarray(ladder.rates_kbps)])
        increment = rates[None, :] - rates[cached]
        sizes = np.rint((1.0 + size_model.overhead) * ladder.chunk_s * increment).astype(np.int64)
    else:
        sizes = np.tile(ladder.level_sizes(), (state.levels.size, 1))
    sizes[np.arange(n_levels + 1) <= cached] = 0
    return sizes


@dataclass(frozen=True, eq=False)
class PassResult:
    """State after one pass and its value under that pass's probabilities."""

    index: int
    lead_time_s: float
    state: TileState
    value: float


def run_plan(plan: PrefetchPlan, ladder: QualityLadder, utility: UtilityModel,
             beta: float = 0.0, size_model: SizeModel = SizeModel()) -> list[PassResult]:
    """Execute all passes in lead-time order and track the state trajectory.

    Each pass solves against upgrade prices, so "keep what is cached" is
    always feasible, and the merged state never drops a tile below its cached
    level even when the solver would.  Each result reports the merged state's
    objective under that pass's probability vector; the last entry is the
    value that matters, the final state under the final (sharpest) probs.
    """
    grid = DirectionGrid(plan.passes[0].probs.size)
    state = TileState.empty(grid.n_tiles)
    results = []
    for i, booking in enumerate(plan.passes):
        inst = Instance(grid, ladder, utility, booking.probs, booking.budget, beta,
                        sizes=upgrade_sizes(state, ladder, size_model))
        state = TileState(np.maximum(state.levels, solve_dp(inst).selection.levels))
        value = eval_objective(state.levels, inst)
        results.append(PassResult(i, booking.lead_time_s, state, value))
    return results
