"""Shared fixtures: a hand-checkable toy instance and the six-level ladder."""

import numpy as np
import pytest
from hypothesis import strategies as st

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
)
from prefetch360.cli import _random_instance
from prefetch360.traces import TRACE_COLUMNS

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


# Field texts that float() and np.loadtxt may read differently, or that one of
# them refuses: underscores, padding, quotes, non-ASCII digits, NUL, Unicode
# whitespace, overflow, and fields at and past the csv module's field limit.
ODD_FIELDS = ("1_0", " 1.5 ", "\t2\t", "nan", "-nan", "NaN", "Infinity", "-inf", "+1", "1.",
              ".5", "1e5000", "1" + "0" * 5000, "-1e308", "1e308", "5e-324", '"1.5"', '" 2"',
              '"1,5"', "1,5", "", " ", "abc", "\uff11", "\u0663", "0x10", "1e", "#1", "1\x00",
              "2\x0b", "3\x85", "4\xa0", "\ufeff4", "0" * 131072, "0" * 131073)

# whole lines slipped between the rows
ODD_LINES = ("", " ", "\t", "# comment", "#", "\ufeff", ",,,", '"', "\x00")

# sidecar texts: absent, valid, wrong type, invalid, too deep, not UTF-8
SIDECARS = (None, b'{"category": "rides", "video_id": "v", "user_id": "u"}', b'{"category": "space"}',
            b'{"video_id": [1, {"a": null}]}', b"[1, 2]", b"7", b"{", b"[" * 100_000,
            b'{"category": 1e400}', b"1" * 5000, b"\xff\xfe{}")


def rare(draw, n=10):
    """True about once in n draws; it shrinks to False, so a failing example keeps few defects."""
    return draw(st.integers(1, n)) == n


@st.composite
def trace_csv_bytes(draw):
    """A trace CSV as bytes: mostly well formed, with drawn defects.

    Rows follow a plausible trace (increasing time, yaw and pitch in range)
    in a drawn number format; then fields may turn odd, rows ragged, odd lines
    appear, line ends vary, and a BOM or undecodable bytes may be added.
    """
    columns = list(draw(st.sampled_from([TRACE_COLUMNS[:4], TRACE_COLUMNS,
                                         TRACE_COLUMNS[:4] + TRACE_COLUMNS[5:]])))
    if rare(draw):
        columns.append(draw(st.sampled_from(TRACE_COLUMNS + ("bogus",))))
    fmt = draw(st.sampled_from(["{:.6f}", "{!r}", "{:e}", "{:g}", " {:.3f} "]))
    step = draw(st.sampled_from([0.5, 1.0, 0.05, 1e-300]))
    lines = [",".join(columns)]
    for i in range(draw(st.integers(2, 8))):
        values = [i * step, draw(st.floats(-180, 179.9)), draw(st.floats(-90, 90)),
                  draw(st.floats(-180, 179.9))]
        values += [draw(st.floats(-1e3, 1e3)) for _ in columns[4:]]
        fields = [fmt.format(v) for v in values]
        for _ in range(draw(st.integers(1, 2)) if rare(draw, 4) else 0):
            k = draw(st.integers(0, len(fields)))
            action = draw(st.sampled_from(["replace", "drop", "add"]))
            if action == "drop" and k < len(fields):
                del fields[k]
            elif action == "replace" and k < len(fields):
                fields[k] = draw(st.sampled_from(ODD_FIELDS))
            else:
                fields.insert(k, draw(st.sampled_from(ODD_FIELDS)))
        lines.append(",".join(fields))
        if rare(draw, 5):
            lines.append(draw(st.sampled_from(ODD_LINES)))
    if rare(draw):
        lines = lines[:draw(st.integers(0, len(lines)))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))).encode()
    if rare(draw):
        data = b"\xef\xbb\xbf" + data
    if rare(draw):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[k:]
    return data
