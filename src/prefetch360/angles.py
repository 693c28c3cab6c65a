"""Circular arithmetic on angles measured in degrees.

All angles live on the circle [-180, 180); wrapping is half-open so that
-180 is representable and +180 is not.  Signed differences take the shorter
arc, so they land in [-180, 180) as well.
"""

import numpy as np

__all__ = [
    "wrap_deg",
    "circ_diff_deg",
    "circ_dist_deg",
]


def wrap_deg(angle):
    """Wrap angles into [-180, 180)."""
    wrapped = (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0
    # the remainder rounds up to 360 just below -180, which would give +180
    return wrapped - 360.0 * (wrapped == 180.0)


def circ_diff_deg(a, b):
    """Signed shorter-arc difference a - b, in [-180, 180)."""
    return wrap_deg(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def circ_dist_deg(a, b):
    """Unsigned shorter-arc distance between a and b, in [0, 180]."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 360.0
    return np.minimum(d, 360.0 - d)


def unwrap_deg(angles):
    """Lift a wrapped angle sequence to the real line.

    Consecutive jumps larger than 180 degrees are interpreted as wrap-around,
    which is exactly the shorter-arc reading of the sampled motion.
    """
    return np.unwrap(np.asarray(angles, dtype=float), period=360.0)

