"""Probability vectors: analytic families, smoothing, and discretization."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetch360 import (
    DirectionGrid,
    circular_smooth,
    constant_trace,
    discretize,
    empirical_yaw_change,
    linear_rotation_trace,
    point_mass,
    uniform,
    wrapped_gaussian,
)
from prefetch360 import viewprob


class TestProbVector:
    """Tile probabilities are a plain array; a builder that takes one refuses a bad one."""

    @pytest.mark.parametrize("probs, message", [
        ([1.0], "at least two tiles"),
        ([[0.5, 0.5]], "1-D"),
        ([0.6, 0.5], "sum to 1"),
        ([-0.1, 1.1], "nonnegative"),
        ([np.nan, 1.0], "finite"),
    ])
    def test_rejects_bad_vectors(self, probs, message):
        with pytest.raises(ValueError, match=message):
            circular_smooth(np.array(probs), np.array([1.0, 0.0]))


def test_uniform_family(grid6):
    p = uniform(grid6)
    np.testing.assert_array_equal(p, np.full(6, 1 / 6))
    assert p.dtype == np.float64 and p.shape == (6,)


@pytest.mark.parametrize("angle, tile", [(0.0, 0), (30.0, 0), (-90.0, 4), (170.0, 2)])
def test_point_mass_lands_on_the_right_tile(grid6, angle, tile):
    p = point_mass(angle, grid6)
    assert p[tile] == 1.0 and p.sum() == 1.0


@pytest.mark.filterwarnings("error")
def test_point_mass_rejects_non_finite_angles(grid6):
    for angle in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="angle must be finite"):
            point_mass(angle, grid6)


class TestWrappedGaussian:
    def test_rejects_bad_sigma(self, grid6):
        # past SIGMA_LIMIT_DEG the wrap grid would outgrow memory
        for sigma in (0.0, -1.0, np.inf, np.nan, 1.0001e5, 1e300):
            with pytest.raises(ValueError, match="sigma"):
                wrapped_gaussian(sigma, grid6)

    def test_narrow_sigma_straddles_the_zero_line(self, grid6):
        # the center sits on a tile edge, so mass splits across the front pair
        p = wrapped_gaussian(1.0, grid6)
        assert p[0] == pytest.approx(0.5, abs=1e-9)
        assert p[5] == pytest.approx(0.5, abs=1e-9)

    def test_moderate_sigma_front_pair(self, grid6):
        p = wrapped_gaussian(30.0, grid6)
        assert p[0] + p[5] > 0.9

    def test_huge_sigma_approaches_uniform(self, grid6):
        p = wrapped_gaussian(1e4, grid6)
        np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_sigma_is_the_exact_limit(self, grid6):
        # the edges over sigma overflow to +-inf, where the CDF is exactly 0 or 1
        p = wrapped_gaussian(5e-324, grid6)
        np.testing.assert_array_equal(p, [0.5, 0.0, 0.0, 0.0, 0.0, 0.5])

    @given(st.integers(2, 12), st.floats(0.1, 1000.0, allow_nan=False))
    def test_sums_to_one_and_mirrors_about_zero(self, n_tiles, sigma):
        p = wrapped_gaussian(sigma, DirectionGrid(n_tiles))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # tile k and tile N-1-k cover mirrored arcs around the 0 line
        np.testing.assert_allclose(p, p[::-1], atol=1e-9)


class TestNdtr:
    """The Cephes port against the compiled routine it follows; skips without scipy."""

    def test_equals_the_reference_bit_for_bit(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        # a few ulps on both sides of every branch cut of ndtr and erfc, x = a / sqrt(2)
        cuts = np.array([math.sqrt(0.5), 1.0, 8.0, 27.0, math.sqrt(viewprob._MAXLOG)])
        near = np.multiply.outer(cuts * math.sqrt(2.0), 1.0 + np.arange(-8, 9) * 2.0**-52)
        x = near[-1] * math.sqrt(0.5)
        assert np.any(-x * x < -viewprob._MAXLOG) and np.any(-x * x >= -viewprob._MAXLOG)
        a = np.concatenate([np.linspace(-40.0, 40.0, 1_000_001), near.ravel(), -near.ravel(),
                            [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, np.nan]])
        assert np.array_equal(viewprob._ndtr(a), ndtr(a), equal_nan=True)

    def test_wrapped_gaussian_equals_the_reference_build(self, monkeypatch):
        ndtr = pytest.importorskip("scipy.special").ndtr
        sigmas = [*np.geomspace(0.01, 500.0, 25), 1e3, 1e4, 1e5]
        grids = [DirectionGrid(n) for n in range(2, 25)]
        ours = [wrapped_gaussian(s, g) for g in grids for s in sigmas]
        monkeypatch.setattr(viewprob, "_ndtr", ndtr)
        reference = [wrapped_gaussian(s, g) for g in grids for s in sigmas]
        assert all(np.array_equal(p, q) for p, q in zip(ours, reference))


class TestCircularSmooth:
    def test_identity_kernel_is_exact(self, grid6):
        p = wrapped_gaussian(40.0, grid6)
        kernel = np.zeros(6)
        kernel[0] = 1.0
        out = circular_smooth(p, kernel)
        np.testing.assert_array_equal(out, p)

    def test_shift_kernel_rotates(self, grid6):
        p = wrapped_gaussian(40.0, grid6)
        kernel = np.zeros(6)
        kernel[2] = 1.0
        out = circular_smooth(p, kernel)
        np.testing.assert_allclose(out, np.roll(p, 2), atol=1e-15)

    def test_uniform_is_a_fixed_point(self, grid6):
        p = uniform(grid6)
        kernel = wrapped_gaussian(25.0, grid6)
        np.testing.assert_allclose(circular_smooth(p, kernel), p, atol=1e-12)

    @given(st.data())
    def test_preserves_mass(self, data):
        n = data.draw(st.integers(2, 10))
        pw = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
        kw = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(lambda w: sum(w) > 0))
        p = np.array(pw, dtype=float) / sum(pw)
        out = circular_smooth(p, np.array(kw, dtype=float) / sum(kw))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_kernels(self, grid6):
        p = uniform(grid6)
        with pytest.raises(ValueError, match="length"):
            circular_smooth(p, np.full(5, 0.2))
        with pytest.raises(ValueError, match="nonnegative"):
            circular_smooth(p, np.array([1.5, -0.5, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="sum to 1"):
            circular_smooth(p, np.full(6, 0.2))


def one_degree_masses(arcs):
    """360 masses with each ``(lo, hi): mass`` arc spread evenly over its 1-degree bins."""
    masses = np.zeros(360)
    for (lo, hi), mass in arcs.items():
        masses[lo + 180:hi + 180] += mass / (hi - lo)
    return masses


class TestAngularDensity:
    """The yaw-change density is 360 masses; ``masses[k]`` covers ``[k - 180, k - 179)``."""

    def test_validation(self, grid6):
        good = one_degree_masses({(-180, 0): 0.25, (0, 180): 0.75})
        np.testing.assert_allclose(discretize(good, grid6), [0.25] * 3 + [0.25 / 3] * 3, atol=1e-12)
        with pytest.raises(ValueError, match="need 360"):
            discretize(np.array([0.5, 0.5]), grid6)
        with pytest.raises(ValueError, match="nonnegative"):
            discretize(one_degree_masses({(-180, 0): -0.5, (0, 180): 1.5}), grid6)
        with pytest.raises(ValueError, match="sum to 1"):
            discretize(one_degree_masses({(-180, 0): 0.5, (0, 180): 0.6}), grid6)


class TestDiscretize:
    def test_triangle_arc_splits_across_the_front_pair(self, grid6):
        # a flat arc over [-30, 30): half left of the 0 line, half right
        p = discretize(one_degree_masses({(-30, 30): 1.0}), grid6)
        np.testing.assert_allclose(p, [0.5, 0, 0, 0, 0, 0.5], atol=1e-9)

    def test_straddling_bin_splits_proportionally(self):
        # seven tiles put an edge at 360/7 = 51.43 degrees, inside the bin [51, 52)
        p = discretize(one_degree_masses({(51, 52): 1.0}), DirectionGrid(7))
        edge = 360.0 / 7
        np.testing.assert_allclose(p, [edge - 51.0, 52.0 - edge, 0, 0, 0, 0, 0], atol=1e-12)

    def test_aligned_bins_pass_through(self):
        grid = DirectionGrid(4)
        masses = one_degree_masses({(-180, -90): 0.1, (-90, 0): 0.2, (0, 90): 0.3, (90, 180): 0.4})
        p = discretize(masses, grid)
        # tiles start at 0, 90, -180, -90; arcs map to tiles 2, 3, 0, 1
        np.testing.assert_allclose(p, [0.3, 0.4, 0.1, 0.2], atol=1e-12)

    @given(st.data())
    def test_total_mass_survives_any_alignment(self, data):
        # any tile count, so tile edges fall inside 1-degree bins as well as on them
        n_tiles = data.draw(st.integers(2, 360))
        weights = data.draw(st.dictionaries(st.integers(0, 359), st.integers(1, 20), min_size=1))
        masses = np.zeros(360)
        masses[list(weights)] = list(weights.values())
        p = discretize(masses / masses.sum(), DirectionGrid(n_tiles))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)


class TestEmpiricalYawChange:
    def test_constant_trace_concentrates_at_zero(self):
        trace = constant_trace(duration_s=10.0, rate_hz=10.0)
        masses = empirical_yaw_change([trace], lag_s=1.0)
        assert masses.shape == (360,)
        # bin 180 covers [0, 1)
        assert masses[180] == 1.0

    def test_rotation_trace_lands_at_rate_times_lag(self):
        trace = linear_rotation_trace(rate_dps=10.0, duration_s=10.0, rate_hz=10.0)
        masses = empirical_yaw_change([trace], lag_s=2.0)
        hot = int(np.argmax(masses))
        assert hot - 180 <= 20.0 < hot - 179
        assert masses[hot] == pytest.approx(1.0)

    def test_lifetime_mode_uses_raw_yaw(self):
        trace = constant_trace(yaw_deg=90.0, duration_s=5.0, rate_hz=10.0)
        masses = empirical_yaw_change([trace], lag_s=np.inf)
        hot = int(np.argmax(masses))
        assert hot - 180 <= 90.0 < hot - 179
    def test_errors(self):
        trace = constant_trace(duration_s=5.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="at least one trace"):
            empirical_yaw_change([], lag_s=1.0)
        with pytest.raises(ValueError, match="lag must be positive"):
            empirical_yaw_change([trace], lag_s=0.0)
        with pytest.raises(ValueError, match="shorter than every trace"):
            empirical_yaw_change([trace], lag_s=5.0)


def test_empirical_to_tiles_roundtrip(grid6):
    # 25 dps over a 3 s lookahead is 75 degrees, inside tile 1
    trace = linear_rotation_trace(rate_dps=25.0, duration_s=20.0, rate_hz=10.0)
    p = discretize(empirical_yaw_change([trace], lag_s=3.0), grid6)
    assert p[1] == pytest.approx(1.0, abs=1e-9)
