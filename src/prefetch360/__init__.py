"""Tile-quality prefetch optimization for 360-degree video.

The toolkit splits into five layers: a data model for planning slots
(ladders, utilities, tile grids), viewing-direction probability builders
that return plain arrays, an exact optimizer for the per-slot selection
problem, a layered prefetch scheduler that refines bookings as
probabilities sharpen, and analytics over recorded head-motion traces.
"""

from . import angles, model, optimizer, scheduler, synth, traces, viewprob
from .angles import *
from .model import *
from .optimizer import *
from .scheduler import *
from .synth import *
from .traces import *
from .viewprob import *

__version__ = "0.1.0"

__all__ = [*angles.__all__, *model.__all__, *optimizer.__all__, *scheduler.__all__,
           *synth.__all__, *traces.__all__, *viewprob.__all__]
