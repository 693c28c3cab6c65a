"""Head-trace parsing, resampling, and the motion analytics."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefetch360 import (
    Cdf,
    HeadTrace,
    angle_utilization_cdf,
    constant_trace,
    explore_then_fixate_trace,
    heatmap,
    linear_rotation_trace,
    origin_conditioned_change,
    pairwise_angular_difference,
    parse_trace,
    phase_split_cdf,
    random_walk_trace,
    rebase_yaw,
    resample,
    sinusoid_trace,
    uniform_random_trace,
    velocity_prediction_error,
    write_trace,
    yaw_at,
    yaw_change_cdf,
    yaw_changes,
)


def manual_trace(t, yaw, **meta):
    t = np.asarray(t, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    zeros = np.zeros_like(t)
    increasing = t.size > 1 and bool(np.all(np.diff(t) > 0))
    vel = np.gradient(yaw, t) if increasing else zeros
    return HeadTrace(t, yaw, zeros, zeros, vel, zeros, zeros, **meta)


class TestHeadTrace:
    def test_duration(self):
        assert manual_trace([0.0, 1.0, 2.5], [0.0, 5.0, 10.0]).duration_s == 2.5

    @pytest.mark.parametrize("t, yaw, message", [
        ([0.0], [0.0], "at least two samples"),
        ([0.0, 0.0], [0.0, 1.0], "strictly increasing"),
        ([1.0, 0.5], [0.0, 1.0], "strictly increasing"),
        ([0.0, 1.0], [0.0, 180.0], r"\[-180, 180\)"),
        ([0.0, 1.0], [0.0, np.nan], "non-finite"),
    ])
    def test_rejects_bad_columns(self, t, yaw, message):
        with pytest.raises(ValueError, match=message):
            manual_trace(t, yaw)

    def test_rejects_out_of_range_pitch_and_bad_category(self):
        t = np.array([0.0, 1.0])
        flat = np.zeros(2)
        with pytest.raises(ValueError, match="pitch"):
            HeadTrace(t, flat, np.array([0.0, 95.0]), flat, flat, flat, flat)
        with pytest.raises(ValueError, match="unknown category"):
            manual_trace(t, flat, category="skydiving")

    def test_rejects_ragged_columns(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            HeadTrace(t, np.zeros(2), np.zeros(3), np.zeros(3),
                      np.zeros(3), np.zeros(3), np.zeros(3))


class TestParseAndWrite:
    def test_roundtrip_preserves_samples_and_metadata(self, tmp_path):
        trace = sinusoid_trace(45.0, 8.0, duration_s=5.0, rate_hz=20.0,
                               video_id="clip-7", user_id="u42")
        path = tmp_path / "clip.csv"
        write_trace(trace, path)
        # the sinusoid starts at yaw 0, so rebasing leaves it as written
        back = parse_trace(path)
        np.testing.assert_allclose(back.t, trace.t, atol=1e-6)
        np.testing.assert_allclose(back.yaw, trace.yaw, atol=1e-6)
        np.testing.assert_allclose(back.yaw_vel, trace.yaw_vel, atol=1e-6)
        assert back.video_id == "clip-7"
        assert back.user_id == "u42"
        assert back.category == "moving_focus"
        assert (tmp_path / "clip.json").exists()

    def test_parse_rebases_by_default(self, tmp_path):
        trace = constant_trace(yaw_deg=77.0, duration_s=2.0, rate_hz=5.0)
        path = tmp_path / "c.csv"
        write_trace(trace, path)
        assert parse_trace(path).yaw[0] == 0.0

    def test_velocities_are_derived_when_columns_are_missing(self, tmp_path):
        path = tmp_path / "novel.csv"
        rows = ["t_s,yaw_deg,pitch_deg,roll_deg"]
        rows += [f"{t / 10.0},{t * 1.2},0,0" for t in range(40)]
        path.write_text("\n".join(rows) + "\n")
        trace = parse_trace(path)
        # yaw advances 1.2 deg per 0.1 s sample
        np.testing.assert_allclose(trace.yaw_vel, 12.0, atol=1e-6)

    @pytest.mark.parametrize("content, message", [
        ("", "empty trace file"),
        ("t_s,yaw_deg\n0,0\n1,1\n", "missing columns"),
        ("t_s,yaw_deg,pitch_deg,roll_deg,bogus\n0,0,0,0,0\n1,0,0,0,0\n", "unknown columns"),
        ("t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n", "at least two samples"),
        ("t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,0,0\n", "expected 4 fields"),
        ("t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,abc,0,0\n", "non-numeric"),
    ])
    def test_parse_errors_name_the_problem(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            parse_trace(path)

    def test_sidecar_must_be_an_object(self, tmp_path):
        trace = constant_trace(duration_s=1.0, rate_hz=5.0)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        (tmp_path / "t.json").write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(ValueError, match="JSON object"):
            parse_trace(path)


class TestRebaseAndResample:
    def test_rebase_moves_the_start_to_zero(self):
        trace = manual_trace([0.0, 1.0, 2.0], [100.0, 110.0, 90.0])
        based = rebase_yaw(trace)
        np.testing.assert_allclose(based.yaw, [0.0, 10.0, -10.0])

    def test_rebase_is_idempotent(self):
        rng = np.random.default_rng(5)
        trace = random_walk_trace(duration_s=10.0, rate_hz=20.0, rng=rng)
        once = rebase_yaw(trace)
        twice = rebase_yaw(once)
        np.testing.assert_array_equal(once.yaw, twice.yaw)

    def test_resample_preserves_endpoints_and_rate(self):
        trace = sinusoid_trace(30.0, 5.0, duration_s=4.0, rate_hz=50.0)
        coarse = resample(trace, 10.0)
        assert coarse.t[0] == trace.t[0]
        assert coarse.t[-1] == pytest.approx(trace.t[-1])
        np.testing.assert_allclose(np.diff(coarse.t), 0.1, atol=1e-9)
        assert coarse.yaw[0] == trace.yaw[0]

    def test_resample_interpolates_across_the_seam(self):
        trace = manual_trace([0.0, 1.0], [170.0, -170.0])
        fine = resample(trace, 2.0)
        assert fine.yaw[1] == pytest.approx(-180.0)

    def test_resample_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            resample(constant_trace(duration_s=1.0, rate_hz=10.0), 0.0)

    def test_yaw_at_recovers_samples(self):
        trace = sinusoid_trace(40.0, 6.0, duration_s=3.0, rate_hz=20.0)
        np.testing.assert_allclose(yaw_at(trace, trace.t), trace.yaw, atol=1e-9)


class TestYawChanges:
    def test_linear_rotation_changes_are_rate_times_lag(self):
        trace = linear_rotation_trace(rate_dps=10.0, duration_s=20.0, rate_hz=50.0)
        changes = yaw_changes(trace, lag_s=1.5)
        np.testing.assert_allclose(changes, 15.0, atol=1e-9)

    def test_stride_controls_the_sample_count(self):
        trace = constant_trace(duration_s=10.0, rate_hz=10.0)
        assert yaw_changes(trace, lag_s=2.0, stride_s=0.5).size == 17  # (10-2)/0.5 + 1

    def test_rejects_bad_lags(self):
        trace = constant_trace(duration_s=5.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="lag must be positive"):
            yaw_changes(trace, lag_s=0.0)
        with pytest.raises(ValueError, match="stride must be positive"):
            yaw_changes(trace, lag_s=1.0, stride_s=0.0)


class TestCdf:
    def test_quantiles_and_partition(self):
        cdf = Cdf(np.array([3.0, 1.0, 2.0, 2.0]))
        assert cdf.n == 4
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 3.0
        assert cdf.fraction_below(2.0) == 0.25
        assert cdf.mass_at(2.0) == 0.5
        assert cdf.fraction_above(2.0) == 0.25

    def test_describe_reports_summary_stats(self):
        stats = Cdf(np.arange(1, 101, dtype=float)).describe()
        assert stats["n"] == 100
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["median"] == 50.0
        assert stats["p99"] == 99.0
        assert stats["mean"] == 50.5

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Cdf(np.array([]))
        with pytest.raises(ValueError, match="finite"):
            Cdf(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="quantile level"):
            Cdf(np.array([1.0])).quantile(1.5)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=60),
           st.integers(-60, 60))
    def test_mass_partitions_exactly(self, values, probe):
        cdf = Cdf(np.array(values, dtype=float))
        x = float(probe)
        total = cdf.fraction_below(x) + cdf.mass_at(x) + cdf.fraction_above(x)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestAggregateAnalytics:
    def test_utilization_cdf_pools_traces(self):
        traces = [constant_trace(yaw_deg=-40.0, duration_s=1.0, rate_hz=9.0),
                  constant_trace(yaw_deg=40.0, duration_s=1.0, rate_hz=9.0)]
        cdf = angle_utilization_cdf(traces, "yaw")
        assert cdf.n == 20
        assert cdf.mass_at(-40.0) == 0.5
        with pytest.raises(ValueError, match="unknown axis"):
            angle_utilization_cdf(traces, "zoom")

    def test_heatmap_concentrates_a_fixed_gaze(self):
        trace = constant_trace(yaw_deg=35.0, duration_s=2.0, rate_hz=10.0)
        grid = heatmap([trace], yaw_bin_deg=10.0, pitch_bin_deg=10.0)
        assert grid.freq.sum() == pytest.approx(1.0)
        assert grid.freq.max() == pytest.approx(1.0)
        hot_yaw, hot_pitch = np.unravel_index(np.argmax(grid.freq), grid.freq.shape)
        assert grid.yaw_edges[hot_yaw] == 30.0
        assert grid.pitch_edges[hot_pitch] == 0.0

    def test_heatmap_rejects_uneven_bins(self):
        with pytest.raises(ValueError, match="divide 360"):
            heatmap([constant_trace(duration_s=1.0, rate_hz=5.0)], yaw_bin_deg=7.0)


class TestPairwiseDifference:
    def test_two_fixed_viewers_ninety_degrees_apart(self):
        traces = [constant_trace(0.0, 5.0, 10.0, video_id="v", user_id="a"),
                  constant_trace(90.0, 5.0, 10.0, video_id="v", user_id="b")]
        times, mean_diff = pairwise_angular_difference(traces, time_step_s=0.5)
        np.testing.assert_allclose(mean_diff, 90.0, atol=1e-9)
        assert times[0] == 0.0

    def test_averages_over_videos_separately(self):
        traces = [constant_trace(0.0, 5.0, 10.0, video_id="v1", user_id="a"),
                  constant_trace(90.0, 5.0, 10.0, video_id="v1", user_id="b"),
                  constant_trace(0.0, 5.0, 10.0, video_id="v2", user_id="a"),
                  constant_trace(30.0, 5.0, 10.0, video_id="v2", user_id="b")]
        _, mean_diff = pairwise_angular_difference(traces, time_step_s=1.0)
        np.testing.assert_allclose(mean_diff, 60.0, atol=1e-9)

    def test_requires_two_traces_per_video(self):
        traces = [constant_trace(0.0, 5.0, 10.0, video_id="v1"),
                  constant_trace(0.0, 5.0, 10.0, video_id="v2")]
        with pytest.raises(ValueError, match="fewer than two traces"):
            pairwise_angular_difference(traces)


class TestVelocityPrediction:
    def test_constant_rotation_never_reverses(self):
        trace = linear_rotation_trace(rate_dps=-12.0, duration_s=30.0, rate_hz=20.0)
        assert velocity_prediction_error([trace], 1.0, vel_threshold_dps=5.0) == 0.0

    def test_motion_against_the_velocity_flag_is_an_error(self):
        # velocity columns claim +20 dps while yaw actually shrinks
        t = np.arange(0, 10.1, 0.1)
        yaw = -2.0 * t
        zeros = np.zeros_like(t)
        trace = HeadTrace(t, yaw, zeros, zeros, np.full_like(t, 20.0), zeros, zeros)
        assert velocity_prediction_error([trace], 1.0, vel_threshold_dps=5.0) == 1.0

    def test_safety_angle_forgives_small_reversals(self):
        t = np.arange(0, 10.1, 0.1)
        yaw = -2.0 * t
        zeros = np.zeros_like(t)
        trace = HeadTrace(t, yaw, zeros, zeros, np.full_like(t, 20.0), zeros, zeros)
        assert velocity_prediction_error([trace], 1.0, 5.0, safety_angle_deg=5.0) == 0.0

    def test_errors(self):
        still = constant_trace(duration_s=5.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="exceed the velocity threshold"):
            velocity_prediction_error([still], 1.0, vel_threshold_dps=5.0)
        spin = linear_rotation_trace(duration_s=5.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="nonnegative"):
            velocity_prediction_error([spin], 1.0, vel_threshold_dps=-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            velocity_prediction_error([spin], 1.0, 5.0, safety_angle_deg=np.nan)


class TestConditionedAndPhased:
    def test_origin_sectors_partition_starting_yaw(self):
        trace = constant_trace(yaw_deg=100.0, duration_s=5.0, rate_hz=10.0)
        sectors = origin_conditioned_change([trace], lag_s=1.0, sector_deg=60.0)
        assert list(sectors) == [1]  # 100 deg falls in sector [60, 120)
        assert sectors[1].mass_at(0.0) == 1.0
        with pytest.raises(ValueError, match="divide 360"):
            origin_conditioned_change([trace], 1.0, sector_deg=50.0)

    def test_phase_split_separates_exploration_from_steady_viewing(self):
        rng = np.random.default_rng(8)
        trace = explore_then_fixate_trace(duration_s=60.0, rate_hz=20.0,
                                          split_s=20.0, step_sigma_deg=4.0, rng=rng)
        early, late = phase_split_cdf([trace], lag_s=1.0, split_s=20.0)
        assert late.quantile(1.0) == 0.0 and late.quantile(0.0) == 0.0
        assert np.abs(early.values).max() > 0.0

    def test_phase_split_errors(self):
        short = constant_trace(duration_s=10.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="longer than the split"):
            phase_split_cdf([short], lag_s=1.0, split_s=20.0)
        squeezed = constant_trace(duration_s=21.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="both phases"):
            phase_split_cdf([squeezed], lag_s=1.5, split_s=20.0)


def test_yaw_change_cdf_pools_across_traces():
    fast = linear_rotation_trace(rate_dps=20.0, duration_s=10.0, rate_hz=20.0)
    slow = linear_rotation_trace(rate_dps=10.0, duration_s=10.0, rate_hz=20.0)
    cdf = yaw_change_cdf([fast, slow], lag_s=1.0)
    assert cdf.quantile(0.25) == pytest.approx(10.0, abs=1e-9)
    assert cdf.quantile(1.0) == pytest.approx(20.0, abs=1e-9)


class TestSyntheticGenerators:
    def test_constant_trace_is_flat(self):
        trace = constant_trace(yaw_deg=12.0, duration_s=2.0, rate_hz=10.0)
        assert np.all(trace.yaw == 12.0)
        assert np.all(trace.yaw_vel == 0.0)
        assert trace.category == "static_focus"

    def test_rotation_wraps_and_keeps_velocity(self):
        trace = linear_rotation_trace(rate_dps=90.0, duration_s=8.0, rate_hz=10.0)
        assert np.all(trace.yaw >= -180.0) and np.all(trace.yaw < 180.0)
        assert np.all(trace.yaw_vel == 90.0)

    def test_sinusoid_amplitude_and_velocity(self):
        trace = sinusoid_trace(amplitude_deg=45.0, period_s=4.0, duration_s=8.0, rate_hz=100.0)
        assert np.abs(trace.yaw).max() == pytest.approx(45.0, abs=0.1)
        assert trace.yaw_vel[0] == pytest.approx(45.0 * 2 * np.pi / 4.0)
        with pytest.raises(ValueError, match="amplitude"):
            sinusoid_trace(amplitude_deg=200.0)

    def test_walk_respects_the_reflection_bound(self):
        rng = np.random.default_rng(21)
        trace = random_walk_trace(duration_s=30.0, rate_hz=20.0, step_sigma_deg=10.0,
                                  bound_deg=90.0, rng=rng)
        assert np.abs(trace.yaw).max() <= 90.0

    def test_explore_then_fixate_freezes_after_the_split(self):
        rng = np.random.default_rng(13)
        trace = explore_then_fixate_trace(duration_s=30.0, rate_hz=10.0,
                                          split_s=10.0, rng=rng)
        frozen = trace.yaw[trace.t >= 10.0]
        assert np.all(frozen == frozen[0])

    def test_uniform_trace_spans_the_circle(self):
        rng = np.random.default_rng(2)
        trace = uniform_random_trace(duration_s=60.0, rate_hz=50.0, rng=rng)
        assert trace.yaw.min() < -150.0 and trace.yaw.max() > 150.0
