"""Viewing-direction probability models over tile grids.

The optimizer consumes one probability per tile: the chance that the viewer
looks at that tile after a prefetch lag of T seconds, measured relative to
the viewing direction at decision time.  This module builds those vectors
from analytic families (uniform, point mass, wrapped Gaussian), from
empirical yaw-change histograms pooled over head traces, and from iterated
circular smoothing, which models how certainty decays as the lag grows.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import DirectionGrid, _as_prob_array
from .traces import _windows

__all__ = [
    "ProbVector",
    "AngularDensity",
    "uniform",
    "point_mass",
    "wrapped_gaussian",
    "circular_smooth",
    "discretize",
    "empirical_yaw_change",
]

MASS_TOL = 1e-6

# far past the spread at which the vector is uniform to double precision;
# bounds the wrap grid at 3,339 periods
SIGMA_LIMIT_DEG = 1e5

_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Tile-view probabilities at one prefetch lag.

    ``probs[n]`` is the probability of viewing tile n; entries are
    nonnegative and sum to 1 within 1e-9.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs))

    @property
    def n_tiles(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class AngularDensity:
    """Histogram of an angular distribution on [-180, 180).

    ``bin_edges`` is ascending with B+1 entries inside [-180, 180];
    ``masses`` holds the probability of each bin and sums to 1 within 1e-6.
    """

    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or masses.shape != (edges.size - 1,):
            raise ValueError("need B+1 edges and B masses")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if edges[0] < -180.0 - _EPS or edges[-1] > 180.0 + _EPS:
            raise ValueError("bin edges must lie within [-180, 180]")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite and nonnegative")
        if abs(masses.sum() - 1.0) > MASS_TOL:
            raise ValueError("masses must sum to 1 within 1e-6")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)


def uniform(grid: DirectionGrid) -> ProbVector:
    """Every tile equally likely."""
    return ProbVector(np.full(grid.n_tiles, 1.0 / grid.n_tiles))


def point_mass(angle_deg: float, grid: DirectionGrid) -> ProbVector:
    """All mass on the tile containing the given angle."""
    if not np.isfinite(angle_deg):
        raise ValueError("angle must be finite")
    p = np.zeros(grid.n_tiles)
    p[grid.tile_index(angle_deg)] = 1.0
    return ProbVector(p)


def wrapped_gaussian(sigma_deg: float, grid: DirectionGrid) -> ProbVector:
    """Wrapped normal centered on the 0 line, integrated per tile.

    The wrap sum runs over enough periods to cover six standard deviations,
    so the truncation error is far below the 1e-9 normalization tolerance.
    As sigma grows the vector approaches uniform.
    """
    if not 0 < sigma_deg <= SIGMA_LIMIT_DEG:
        raise ValueError(f"sigma must be positive and at most {SIGMA_LIMIT_DEG:g} degrees")
    edges = np.arange(grid.n_tiles + 1) * grid.tile_width_deg
    k = int(np.ceil(6.0 * sigma_deg / 360.0)) + 2
    shifts = 360.0 * np.arange(-k, k + 1)
    cdf = ndtr((edges[None, :] + shifts[:, None]) / sigma_deg)
    p = np.diff(cdf, axis=1).sum(axis=0)
    return ProbVector(p / p.sum())


def circular_smooth(p: ProbVector, kernel) -> ProbVector:
    """Circularly convolve tile probabilities with a spreading kernel.

    ``out[j] = sum_k p[k] * kernel[(j - k) mod N]``.  The kernel is itself a
    probability vector over tile offsets, so total mass is preserved; a
    point-mass kernel at offset k rotates p by k tiles.
    """
    n = p.n_tiles
    kern = _as_prob_array(kernel, n, "kernel")
    idx = np.arange(n)
    mix = kern[(idx[:, None] - idx[None, :]) % n]
    return ProbVector(mix @ p.probs)


def discretize(density: AngularDensity, grid: DirectionGrid) -> ProbVector:
    """Integrate an angular density over the grid's tiles.

    Histogram bins that straddle a tile edge contribute proportionally to the
    overlap, assuming uniform density within each bin, so any contiguous arc
    keeps its mass regardless of how the bin and tile edges align.
    """
    width = grid.tile_width_deg
    p = np.zeros(grid.n_tiles)
    edges = density.bin_edges
    for lo, hi, mass in zip(edges[:-1], edges[1:], density.masses):
        if mass == 0.0:
            continue
        start = lo % 360.0
        segments = [(start, start + (hi - lo))]
        if segments[0][1] > 360.0:
            s0, s1 = segments[0]
            segments = [(s0, 360.0), (0.0, s1 - 360.0)]
        for s0, s1 in segments:
            first = int(s0 // width)
            last = min(int(np.ceil(s1 / width - _EPS)) - 1, grid.n_tiles - 1)
            for m in range(first, last + 1):
                overlap = min(s1, (m + 1) * width) - max(s0, m * width)
                if overlap > 0:
                    p[m] += mass * overlap / (hi - lo)
    return ProbVector(p / p.sum())


def empirical_yaw_change(traces, lag_s: float, stride_s: float = 0.1) -> AngularDensity:
    """Histogram of yaw changes over a lookahead of lag_s, pooled over traces.

    Start times step every stride_s through each trace, and the bins are 1
    degree wide.  ``lag_s = inf`` switches to the lifetime distribution: the
    histogram of all yaw samples relative to each trace's starting direction,
    which summarizes where viewers spend time regardless of lag.
    """
    if np.isinf(lag_s):
        samples = _windows(traces, 0.0, stride_s)[1]
    elif lag_s > 0:
        samples = _windows(traces, lag_s, stride_s)[2]
    else:
        raise ValueError("lag must be positive")
    edges = np.linspace(-180.0, 180.0, 361)
    counts, _ = np.histogram(samples, bins=edges)
    return AngularDensity(edges, counts / counts.sum())
