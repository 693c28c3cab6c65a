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
from .traces import _divisions, _windows

__all__ = [
    "PROB_SOURCES",
    "ProbVector",
    "AngularDensity",
    "uniform",
    "point_mass",
    "wrapped_gaussian",
    "circular_smooth",
    "discretize",
    "empirical_yaw_change",
]

PROB_SOURCES = ("explicit", "empirical", "uniform", "wrapped_gaussian", "point_mass", "convolved")

MASS_TOL = 1e-6

_EPS = 1e-9


def _check_lag(lag_s: float) -> float:
    lag = float(lag_s)
    if not (lag >= 0):
        raise ValueError("lag must be nonnegative")
    return lag


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Tile-view probabilities at one prefetch lag.

    ``probs[n]`` is the probability of viewing tile n; entries are
    nonnegative and sum to 1 within 1e-9.  ``lag_s`` may be ``inf`` for the
    lifetime distribution.  ``source`` records provenance.
    """

    probs: np.ndarray
    lag_s: float = 0.0
    source: str = "explicit"

    def __post_init__(self):
        p = _as_prob_array(self.probs)
        if self.source not in PROB_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "lag_s", _check_lag(self.lag_s))

    @property
    def n_tiles(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class AngularDensity:
    """Histogram of an angular distribution on [-180, 180).

    ``bin_edges`` is ascending with B+1 entries inside [-180, 180];
    ``masses`` holds the probability of each bin and sums to 1 within 1e-6.
    ``lag_s`` tags which prefetch lag the histogram describes.
    """

    bin_edges: np.ndarray
    masses: np.ndarray
    lag_s: float = 0.0

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
        object.__setattr__(self, "lag_s", _check_lag(self.lag_s))


def uniform(grid: DirectionGrid, lag_s: float = 0.0) -> ProbVector:
    """Every tile equally likely."""
    return ProbVector(np.full(grid.n_tiles, 1.0 / grid.n_tiles), lag_s, "uniform")


def point_mass(angle_deg: float, grid: DirectionGrid, lag_s: float = 0.0) -> ProbVector:
    """All mass on the tile containing the given angle."""
    p = np.zeros(grid.n_tiles)
    p[grid.tile_index(angle_deg)] = 1.0
    return ProbVector(p, lag_s, "point_mass")


def wrapped_gaussian(sigma_deg: float, grid: DirectionGrid, lag_s: float = 0.0) -> ProbVector:
    """Wrapped normal centered on the 0 line, integrated per tile.

    The wrap sum runs over enough periods to cover six standard deviations,
    so the truncation error is far below the 1e-9 normalization tolerance.
    As sigma grows the vector approaches uniform.
    """
    if not (np.isfinite(sigma_deg) and sigma_deg > 0):
        raise ValueError("sigma must be positive and finite")
    edges = np.arange(grid.n_tiles + 1) * grid.tile_width_deg
    k = int(np.ceil(6.0 * sigma_deg / 360.0)) + 2
    shifts = 360.0 * np.arange(-k, k + 1)
    cdf = ndtr((edges[None, :] + shifts[:, None]) / sigma_deg)
    p = np.diff(cdf, axis=1).sum(axis=0)
    return ProbVector(p / p.sum(), lag_s, "wrapped_gaussian")


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
    return ProbVector(mix @ p.probs, p.lag_s, "convolved")


def discretize(density: AngularDensity, grid: DirectionGrid, source: str = "empirical") -> ProbVector:
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
    return ProbVector(p / p.sum(), density.lag_s, source)


def empirical_yaw_change(traces, lag_s: float, stride_s: float = 0.1,
                         bin_width_deg: float = 1.0) -> AngularDensity:
    """Histogram of yaw changes over a lookahead of lag_s, pooled over traces.

    Start times step every stride_s through each trace.  ``lag_s = inf``
    switches to the lifetime distribution: the histogram of all yaw samples
    relative to each trace's starting direction, which summarizes where
    viewers spend time regardless of lag.
    """
    n_bins = _divisions(360.0, bin_width_deg, "bin")
    if np.isinf(lag_s):
        samples = _windows(traces, 0.0, stride_s)[1]
    elif lag_s > 0:
        samples = _windows(traces, lag_s, stride_s)[2]
    else:
        raise ValueError("lag must be positive")
    edges = np.linspace(-180.0, 180.0, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return AngularDensity(edges, counts / counts.sum(), lag_s)
