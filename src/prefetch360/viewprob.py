"""Viewing-direction probability models over tile grids.

The optimizer consumes one probability per tile: the chance that the viewer
looks at that tile after a prefetch lag of T seconds, measured relative to
the viewing direction at decision time.  This module builds those vectors
from analytic families (uniform, point mass, wrapped Gaussian), from
empirical yaw-change histograms pooled over head traces, and from iterated
circular smoothing, which models how certainty decays as the lag grows.
Every builder returns a plain float64 array that has passed the one
probability check, ``model._as_prob_array``.
"""

import math

import numpy as np

from .model import DirectionGrid, _as_prob_array
from .traces import _windows

__all__ = [
    "uniform",
    "point_mass",
    "wrapped_gaussian",
    "circular_smooth",
    "discretize",
    "empirical_yaw_change",
]

# far past the spread at which the vector is uniform to double precision;
# bounds the wrap grid at 3,339 periods
SIGMA_LIMIT_DEG = 1e5

_EPS = 1e-9

# Cephes ndtr coefficients: erfc on [1, 8) is exp(-x^2) P(x)/Q(x), on [8, inf)
# exp(-x^2) R(x)/S(x), and erf on [0, 1] is x T(x^2)/U(x^2)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = math.sqrt(0.5)


def uniform(grid: DirectionGrid) -> np.ndarray:
    """Every tile equally likely."""
    return _as_prob_array(np.full(grid.n_tiles, 1.0 / grid.n_tiles))


def point_mass(angle_deg: float, grid: DirectionGrid) -> np.ndarray:
    """All mass on the tile containing the given angle."""
    if not np.isfinite(angle_deg):
        raise ValueError("angle must be finite")
    p = np.zeros(grid.n_tiles)
    p[grid.tile_index(angle_deg)] = 1.0
    return _as_prob_array(p)


def wrapped_gaussian(sigma_deg: float, grid: DirectionGrid) -> np.ndarray:
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
    # a subnormal sigma overflows the quotient to +-inf, where the CDF is exactly 1 or 0
    with np.errstate(over="ignore"):
        cdf = _ndtr((edges[None, :] + shifts[:, None]) / sigma_deg)
    p = np.diff(cdf, axis=1).sum(axis=0)
    return _as_prob_array(p / p.sum())


def _polevl(x, coefs):
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _p1evl(x, coefs):
    # the leading coefficient is an implicit 1
    y = x + coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x):
    """Cephes ``erf`` for ``|x| <= 1``."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _ndtr(a):
    """Standard normal CDF, Cephes ``ndtr`` ported operation for operation.

    It returns the same doubles as the compiled Cephes routine.  Each branch
    runs only on its own elements, so no huge argument is squared, and
    ``exp`` is libm's through ``math.exp``, as in the C code (``np.exp``
    differs in the last bit on some arguments).
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    # 0.5 * erfc(z) is 0 once z * z passes MAXLOG (z > 26.64); NaN stays NaN
    out = np.where(z >= 27.0, 0.0, np.nan)
    inner = z < _SQRT1_2
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    near = (z >= _SQRT1_2) & (z < 1.0)
    out[near] = 0.5 * (1.0 - _erf(z[near]))
    for lo, hi, num, den in ((1.0, 8.0, _P, _Q), (8.0, 27.0, _R, _S)):
        band = (z >= lo) & (z < hi)
        t = z[band]
        decay = np.array([math.exp(v) if v >= -_MAXLOG else 0.0 for v in (-t * t).tolist()])
        out[band] = 0.5 * (decay * _polevl(t, num) / _p1evl(t, den))
    upper = ~inner & (x > 0)
    out[upper] = 1.0 - out[upper]
    return out


def circular_smooth(p, kernel) -> np.ndarray:
    """Circularly convolve tile probabilities with a spreading kernel.

    ``out[j] = sum_k p[k] * kernel[(j - k) mod N]``.  The kernel is itself a
    probability vector over tile offsets, so total mass is preserved; a
    point-mass kernel at offset k rotates p by k tiles.
    """
    p = _as_prob_array(p)
    n = p.size
    kern = _as_prob_array(kernel, n, "kernel")
    idx = np.arange(n)
    mix = kern[(idx[:, None] - idx[None, :]) % n]
    return _as_prob_array(mix @ p)


def discretize(masses, grid: DirectionGrid) -> np.ndarray:
    """Integrate 1-degree yaw-change masses over the grid's tiles.

    ``masses[k]`` is the mass of ``[k - 180, k - 179)``, as
    ``empirical_yaw_change`` returns it.  A bin that straddles a tile edge
    contributes proportionally to the overlap, assuming uniform density within
    the bin, so any contiguous arc keeps its mass however the edges align.
    """
    masses = _as_prob_array(masses, 360, "masses")
    width = grid.tile_width_deg
    p = np.zeros(grid.n_tiles)
    for k, mass in enumerate(masses):
        if mass == 0.0:
            continue
        # the bin's start measured from the 0 line; no 1-degree bin crosses 360
        s0 = float((k - 180) % 360)
        s1 = s0 + 1.0
        first = int(s0 // width)
        last = min(int(np.ceil(s1 / width - _EPS)) - 1, grid.n_tiles - 1)
        for m in range(first, last + 1):
            overlap = min(s1, (m + 1) * width) - max(s0, m * width)
            if overlap > 0:
                p[m] += mass * overlap
    return _as_prob_array(p / p.sum())


def empirical_yaw_change(traces, lag_s: float, stride_s: float = 0.1) -> np.ndarray:
    """Masses of yaw changes over a lookahead of lag_s, pooled over traces.

    Start times step every stride_s through each trace.  The result holds the
    360 masses of 1-degree bins: ``masses[k]`` is the share of changes in
    ``[k - 180, k - 179)``.  ``lag_s = inf`` switches to the lifetime
    distribution: all yaw samples relative to each trace's starting direction,
    which summarizes where viewers spend time regardless of lag.
    """
    if np.isinf(lag_s):
        samples = _windows(traces, 0.0, stride_s)[1]
    elif lag_s > 0:
        samples = _windows(traces, lag_s, stride_s)[2]
    else:
        raise ValueError("lag must be positive")
    counts, _ = np.histogram(samples, bins=np.linspace(-180.0, 180.0, 361))
    return _as_prob_array(counts / counts.sum(), 360, "masses")
