"""Shared fixtures: a hand-checkable toy instance and the six-level ladder."""

import numpy as np
import pytest

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
)
from prefetch360.cli import _random_instance

# Three tiles, two levels, linear utility: small enough to verify by hand.
# With f = 1 the level utilities are (-1, 0.5, 1.0) and sizes (0, 100, 200).
TOY_RATES = (100.0, 200.0)
TOY_PROBS = (0.6, 0.3, 0.1)

# A six-level 4K ladder; rates in kbps, one-second chunks.
SIX_LEVEL_RATES = (144.0, 268.0, 625.0, 1124.0, 2217.0, 4198.0)


@pytest.fixture
def toy_ladder():
    return QualityLadder(TOY_RATES)


@pytest.fixture
def toy_instance(toy_ladder):
    def make(capacity=300, beta=0.0):
        return Instance(DirectionGrid(3), toy_ladder, UtilityModel("linear"),
                        np.array(TOY_PROBS), capacity, beta)

    return make


@pytest.fixture
def ladder6():
    return QualityLadder(SIX_LEVEL_RATES)


@pytest.fixture
def grid6():
    return DirectionGrid(6)


def random_instance(rng, max_tiles=5, max_levels=3, max_capacity=900):
    """A small random instance whose assignment space brute force can cover.

    The same generator as ``oracle`` batches, with a larger capacity range.
    """
    return _random_instance(rng, max_tiles, max_levels, max_capacity)


def dyadic_instance(rng, max_tiles=4, max_levels=2):
    """An instance whose objective arithmetic is exact in binary floating point.

    Probabilities are multiples of 1/64, utilities multiples of 1/16, beta is
    0 or 1/4, so every candidate value is a dyadic rational and any two equal
    selections compare exactly equal.  Used to pin tie-breaking behavior.
    """
    n_tiles = int(rng.integers(2, max_tiles + 1))
    n_levels = int(rng.integers(1, max_levels + 1))
    rates = np.sort(rng.choice(np.arange(50, 500), size=n_levels, replace=False)).astype(float)
    ladder = QualityLadder(tuple(rates))
    counts = rng.multinomial(64, np.ones(n_tiles) / n_tiles)
    while np.any(counts == 0):
        counts = rng.multinomial(64, np.ones(n_tiles) / n_tiles)
    probs = counts / 64.0
    utilities = rng.integers(-16, 17, size=(n_tiles, n_levels + 1)) / 16.0
    sizes = np.concatenate([np.zeros((n_tiles, 1), dtype=np.int64),
                            rng.integers(1, 200, size=(n_tiles, n_levels))], axis=1)
    beta = float(rng.choice([0.0, 0.25]))
    capacity = int(rng.integers(0, 400))
    return Instance(DirectionGrid(n_tiles), ladder, UtilityModel("linear"), probs,
                    capacity, beta, sizes=sizes, utilities=utilities)
