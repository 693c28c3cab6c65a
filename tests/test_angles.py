"""Circular arithmetic: wrapping, signed differences, unwrapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetch360.angles import (
    circ_diff_deg,
    circ_dist_deg,
    unwrap_deg,
    wrap_deg,
)

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("angle, expected", [
    (0.0, 0.0),
    (179.0, 179.0),
    (180.0, -180.0),
    (-180.0, -180.0),
    (359.0, -1.0),
    (-190.0, 170.0),
    (540.0, -180.0),
    (720.0, 0.0),
    (np.nextafter(-180.0, -np.inf), -180.0),
])
def test_wrap_examples(angle, expected):
    assert wrap_deg(angle) == expected


def test_wrap_is_vectorized():
    out = wrap_deg([0.0, 190.0, -190.0])
    np.testing.assert_array_equal(out, [0.0, -170.0, 170.0])


@given(finite_angles)
def test_wrap_lands_in_range(angle):
    wrapped = wrap_deg(angle)
    assert -180.0 <= wrapped < 180.0


@given(finite_angles)
def test_wrap_is_idempotent(angle):
    wrapped = wrap_deg(angle)
    assert wrap_deg(wrapped) == wrapped


@given(finite_angles)
def test_wrap_preserves_angle_mod_360(angle):
    # tolerance scales with the ulp of the input magnitude
    residue = (angle - wrap_deg(angle)) % 360.0
    assert min(residue, 360.0 - residue) < 1e-6


@pytest.mark.parametrize("a, b, expected", [
    (10.0, 350.0, 20.0),
    (350.0, 10.0, -20.0),
    (-170.0, 170.0, 20.0),
    (170.0, -170.0, -20.0),
    (0.0, 0.0, 0.0),
    (180.0, 0.0, -180.0),
])
def test_circ_diff_examples(a, b, expected):
    assert circ_diff_deg(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [
    (10.0, 350.0, 20.0),
    (0.0, 180.0, 180.0),
    (0.0, -180.0, 180.0),
    (-90.0, 90.0, 180.0),
    (45.0, 45.0, 0.0),
])
def test_circ_dist_examples(a, b, expected):
    assert circ_dist_deg(a, b) == expected


@given(finite_angles, finite_angles)
def test_circ_dist_is_symmetric_and_bounded(a, b):
    d = circ_dist_deg(a, b)
    assert 0.0 <= d <= 180.0
    assert d == circ_dist_deg(b, a)


@given(finite_angles, finite_angles)
def test_circ_dist_matches_abs_diff(a, b):
    assert circ_dist_deg(a, b) == pytest.approx(abs(circ_diff_deg(a, b)), abs=1e-6)


@given(finite_angles, finite_angles, finite_angles)
def test_circ_dist_triangle_inequality(a, b, c):
    assert circ_dist_deg(a, c) <= circ_dist_deg(a, b) + circ_dist_deg(b, c) + 1e-9


def test_unwrap_lifts_wraparound():
    np.testing.assert_allclose(unwrap_deg([170.0, -170.0]), [170.0, 190.0])
    np.testing.assert_allclose(unwrap_deg([-170.0, 170.0]), [-170.0, -190.0])


def test_unwrap_keeps_small_steps():
    seq = [0.0, 10.0, 20.0, 15.0]
    np.testing.assert_array_equal(unwrap_deg(seq), seq)

