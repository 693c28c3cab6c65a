"""Head-trace parsing, rebasing, and the motion analytics."""

import csv
import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefetch360 import (
    Cdf,
    HeadTrace,
    angle_utilization_cdf,
    constant_trace,
    empirical_yaw_change,
    explore_then_fixate_trace,
    heatmap,
    linear_rotation_trace,
    origin_conditioned_change,
    pairwise_angular_difference,
    parse_trace,
    phase_split_cdf,
    random_walk_trace,
    sinusoid_trace,
    uniform_random_trace,
    velocity_prediction_error,
    write_trace,
    yaw_change_cdf,
)
from prefetch360 import synth, traces
from prefetch360.traces import TRACE_COLUMNS

from conftest import trace_csv_bytes


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
        ("t_s,yaw_deg,pitch_deg,roll_deg,yaw_deg\n0,0,0,0,0\n1,0,0,0,0\n",
         r"duplicate columns \['yaw_deg'\]"),
    ])
    def test_parse_errors_name_the_problem(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            parse_trace(path)

    def test_yaw_and_roll_just_below_minus_180_wrap_into_range(self, tmp_path):
        # (x + 180) % 360 rounds up to 360 here; the rebase by the first yaw of 10
        # moves that sample to -190, which wraps to 170, and roll is not rebased
        below = repr(float(np.nextafter(-180.0, -np.inf)))
        path = tmp_path / "t.csv"
        path.write_text(f"t_s,yaw_deg,pitch_deg,roll_deg\n0,10,0,0\n1,{below},0,{below}\n")
        trace = parse_trace(path)
        assert trace.yaw.tolist() == [0.0, 170.0]
        assert trace.roll.tolist() == [0.0, -180.0]

    def test_sidecar_must_be_an_object(self, tmp_path):
        trace = constant_trace(duration_s=1.0, rate_hz=5.0)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        # the text a config that is not a JSON object gets
        for payload in (json.dumps(["not", "an", "object"]), "[1, 2]"):
            (tmp_path / "t.json").write_text(payload)
            with pytest.raises(ValueError) as refused:
                parse_trace(path)
            assert str(refused.value) == f"{tmp_path / 't.json'}: top level must be a JSON object"


def _with_neighbours(v):
    """v, -v and their finite nextafter neighbours, as Python floats."""
    with np.errstate(over="ignore"):
        near = (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))
    return st.sampled_from([float(s * u) for u in near for s in (1, -1) if np.isfinite(u)])


# doubles for the written-bytes contract: the whole finite range with its subnormals,
# exact decimal ties k/128 and k/2**20, signed zeros, values that print -0.000000 and
# the numpy formatter's bound, each drawn with its sign flipped and its neighbours
WRITTEN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.integers(-2**27, 2**27).map(lambda k: k / 128),
    st.integers(-2**40, 2**40).map(lambda k: k / 2**20),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 2.5e-7, 5e-7, 1e300,
                     traces._FAST_BELOW, 999_999.4999995, 999_999.9999995, 1e6]),
).flatmap(_with_neighbours)


def csv_writer_bytes(trace):
    """What ``csv.writer`` writes for the trace's ``f"{x:.6f}"`` fields."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(TRACE_COLUMNS)
    for row in zip(trace.t, trace.yaw, trace.pitch, trace.roll,
                   trace.yaw_vel, trace.pitch_vel, trace.roll_vel):
        writer.writerow([f"{x:.6f}" for x in row])
    return out.getvalue().encode()


class TestWrittenBytes:
    EDGES = HeadTrace(
        t=np.array([-0.0, 5e-7, 1.5e-6, 2.5e-7 + 1.0, 1.2345675, 123.4567895]),
        yaw=np.array([-0.0, -1e-9, 179.9999996, -180.0, -179.9999996, 179.999999]),
        pitch=np.array([-0.0, 90.0, -90.0, 0.0000005, -0.0000005, 45.0000015]),
        roll=np.array([-180.0, 179.99999951, -1e-7, 0.1234565, 1e-300, -5e-324]),
        yaw_vel=np.array([-0.0, 1e15, -1e15, 0.5e-6, 1.5e-6, -2.5e-6]),
        pitch_vel=np.array([3.0000005, -3.0000005, 7.0, -7.0, 1e-6, -1e-6]),
        roll_vel=np.array([0.0, 1e300, -1e300, 0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("trace", [
        EDGES,
        HeadTrace(*np.array([[0.0, 1.0], [179.9999995, -179.9999995], [-0.0, 0.0], [1e-7, -1e-7],
                             [0.0000005, -0.0000005], [2.0, 3.0], [-4.0, -5.0]])),
        random_walk_trace(duration_s=20.0, rate_hz=50.0, rng=np.random.default_rng(3)),
    ], ids=["edges", "two-samples", "random-walk"])
    @pytest.mark.parametrize("rows_per_write", [1, 4, traces._WRITE_ROWS])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, trace, rows_per_write):
        monkeypatch.setattr(traces, "_WRITE_ROWS", rows_per_write)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert path.read_bytes() == csv_writer_bytes(trace)

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    @pytest.mark.parametrize("rows_per_write", [1, 3, traces._WRITE_ROWS])
    def test_any_finite_doubles_match_csv_writer(self, tmp_path_factory, rows_per_write, data):
        # some traces hold no magnitude past the numpy formatter's bound, or no tie
        # either, so that whole blocks of several rows take it, not only one-row blocks
        bounded = WRITTEN_VALUES.filter(lambda v: abs(v) < traces._FAST_BELOW)
        values = data.draw(st.sampled_from([bounded.filter(
            lambda v: abs(abs(v) * 1e6 - np.rint(abs(v) * 1e6)) != 0.5), bounded, WRITTEN_VALUES]))
        t = sorted(data.draw(st.lists(values, min_size=2, max_size=8, unique=True)))
        assume(np.isfinite(t[-1] - t[0]))
        yaw, pitch, roll, *velocities = (
            np.array(data.draw(st.lists(values, min_size=len(t), max_size=len(t))))
            for _ in range(6))
        # the angles clipped into their ranges, which keeps ties, subnormals and signed zeros
        top = np.nextafter(180.0, 0.0)
        trace = HeadTrace(t, np.clip(yaw, -180.0, top), np.clip(pitch, -90.0, 90.0),
                          np.clip(roll, -180.0, top), *velocities)
        path = tmp_path_factory.mktemp("bytes") / "t.csv"
        with mock.patch.object(traces, "_WRITE_ROWS", rows_per_write):
            write_trace(trace, path)
        assert path.read_bytes() == csv_writer_bytes(trace)

    @pytest.mark.parametrize("kind", sorted(synth.COHORT))
    def test_generated_traffic_never_falls_back(self, tmp_path, kind):
        # gen-traces' cohort at the benchmark's 60 s and 50 Hz: every block takes the numpy path
        path = tmp_path / "t.csv"
        with mock.patch.object(traces, "_reference_bytes", side_effect=AssertionError("fell back")):
            for i in range(3):
                trace = synth.COHORT[kind](i, 60.0, 50.0, np.random.default_rng([0, i]))
                write_trace(trace, path)
                assert path.read_bytes() == csv_writer_bytes(trace)

    def test_ties_fall_back_and_keep_their_bytes(self, tmp_path):
        # at 128 Hz every odd sample time i/128 scales to a half-integer: %.6f rounds it half-even
        trace = synth.COHORT["rotation"](0, 1.0, 128.0, None)
        path = tmp_path / "t.csv"
        with mock.patch.object(traces, "_reference_bytes", wraps=traces._reference_bytes) as slow:
            write_trace(trace, path)
        assert slow.call_count == 1
        assert path.read_bytes() == csv_writer_bytes(trace)
        t_s = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert t_s == [f"{i / 128:.6f}" for i in range(129)]

    # what one row of a block may hold at the peak: 7 values of 8 bytes each for the
    # block, for the previous block while the next is stacked, and 48 for the formatter's
    # parts, slots and text (the % path held 98 per value: the floats, their tuple, the text)
    BYTES_PER_ROW = 7 * (8 + 8 + 48)

    def test_a_long_trace_peaks_within_one_block(self, tmp_path):
        trace = random_walk_trace(duration_s=1999.98, rate_hz=50.0, rng=np.random.default_rng(0))
        assert trace.t.size == 100_000
        path = tmp_path / "t.csv"
        write_trace(trace, path)  # the digit tables are built on first use
        tracemalloc.start()
        try:
            write_trace(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BYTES_PER_ROW * traces._WRITE_ROWS


def parse_both_ways(path):
    """(loadtxt table or None, csv table or None) of one trace file's body."""
    header, body = traces._read_trace_csv(path)
    fast = traces._loadtxt_table(body, len(header))
    try:
        slow = traces._csv_table(path, body, len(header))
    except ValueError:
        slow = None
    return fast, slow


class TestParsePaths:
    @pytest.mark.parametrize("field, fast_reads", [
        ("1.5", True), (" 1.5 ", True), ("nan", True), ("Infinity", True), ("1e5000", True),
        ("1_0", False), ('"1.5"', False), ("\uff11", False), ("0" * 131072, False),
    ])
    def test_loadtxt_reads_a_subset_of_what_float_reads(self, tmp_path, field, fast_reads):
        path = tmp_path / "t.csv"
        path.write_text(f"t_s,yaw_deg,pitch_deg,roll_deg\n0,{field},0,0\n1,2,0,0\n")
        fast, slow = parse_both_ways(path)
        assert slow is not None
        assert (fast is not None) == fast_reads
        if fast_reads:
            np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n", "\r"])
    def test_no_data_line_goes_to_the_loop_without_a_warning(self, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert traces._loadtxt_table(body, 4) is None

    @settings(deadline=None, max_examples=300)
    @given(data=trace_csv_bytes())
    def test_fuzzed_bodies_parse_alike_or_fall_back(self, tmp_path_factory, data):
        # warnings are errors: the fast path may decline an input, never warn about it
        path = tmp_path_factory.mktemp("fuzz") / "t.csv"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fast, slow = parse_both_ways(path)
            except ValueError:
                return  # an empty file or undecodable bytes: neither path runs
        if fast is not None:
            assert slow is not None and fast.shape == slow.shape
            assert np.array_equal(fast, slow, equal_nan=True)
            assert np.array_equal(np.signbit(fast), np.signbit(slow))


class TestRebaseAndResample:
    def test_rebase_moves_the_start_to_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_s,yaw_deg,pitch_deg,roll_deg\n0,100,0,0\n1,110,0,0\n2,90,0,0\n")
        np.testing.assert_allclose(parse_trace(path).yaw, [0.0, 10.0, -10.0])


class TestLiftedYaw:
    """Every reading of yaw between samples goes through the trace's one unwrap."""

    def test_is_one_unwrap_of_the_yaw(self, tmp_path):
        path = tmp_path / "seam.csv"
        path.write_text("t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,170,0,0\n2,-170,0,0\n"
                        "3,-10,0,0\n4,175,0,0\n")
        rotation = linear_rotation_trace(95.0, duration_s=20.0, rate_hz=10.0)
        for trace in (parse_trace(path), rotation):
            assert np.array_equal(trace.lifted_yaw, np.unwrap(trace.yaw, period=360.0))

    def test_window_midpoint_crosses_the_seam(self):
        # halfway between 170 and -170 lies at the +-180 seam, not at 0
        origin = traces._windows([manual_trace([0.0, 1.0], [170.0, -170.0])], 0.0, 0.5)[1]
        assert origin[1] == -180.0
        np.testing.assert_array_equal(origin, [170.0, -180.0, -170.0])

    def test_window_reads_a_plain_segment(self):
        origin = traces._windows([manual_trace([0.0, 1.0], [10.0, 30.0])], 0.0, 0.25)[1]
        np.testing.assert_allclose(origin, [10.0, 15.0, 20.0, 25.0, 30.0])

    def test_windows_hit_sample_points(self):
        angles = np.array([-10.0, 179.0, -120.0])
        elapsed, origin, _, _ = traces._windows([manual_trace([0.0, 1.0, 2.5], angles)], 0.0, 0.5)
        np.testing.assert_array_equal(elapsed[[0, 2, 5]], [0.0, 1.0, 2.5])
        np.testing.assert_allclose(origin[[0, 2, 5]], angles, atol=1e-12)

    def test_windows_recover_sinusoid_samples(self):
        trace = sinusoid_trace(40.0, 6.0, duration_s=3.0, rate_hz=20.0)
        origin = traces._windows([trace], 0.0, 1 / 20.0)[1]
        np.testing.assert_allclose(origin, trace.yaw, atol=1e-9)

    def test_analytics_unwrap_nothing(self):
        cohort = [random_walk_trace(30.0, 20.0, step_sigma_deg=8.0, rng=np.random.default_rng(i),
                                    video_id=f"v{i % 2}", user_id=f"u{i}") for i in range(4)]
        cohort.append(linear_rotation_trace(40.0, duration_s=30.0, rate_hz=20.0, video_id="v0"))
        with mock.patch("prefetch360.traces.unwrap_deg", wraps=traces.unwrap_deg) as unwrap:
            yaw_change_cdf(cohort, 1.0)
            velocity_prediction_error(cohort, 1.0, 5.0)
            origin_conditioned_change(cohort, 1.0)
            phase_split_cdf(cohort, 1.0, split_s=10.0)
            pairwise_angular_difference(cohort)
            empirical_yaw_change(cohort, 1.0)
        assert unwrap.call_count == 0


class TestYawChanges:
    def test_linear_rotation_changes_are_rate_times_lag(self):
        trace = linear_rotation_trace(rate_dps=10.0, duration_s=20.0, rate_hz=50.0)
        changes = yaw_change_cdf([trace], lag_s=1.5).values
        np.testing.assert_allclose(changes, 15.0, atol=1e-9)

    def test_stride_controls_the_sample_count(self):
        trace = constant_trace(duration_s=10.0, rate_hz=10.0)
        assert yaw_change_cdf([trace], lag_s=2.0, stride_s=0.5).n == 17  # (10-2)/0.5 + 1

    def test_rejects_bad_lags(self):
        trace = constant_trace(duration_s=5.0, rate_hz=10.0)
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            yaw_change_cdf([trace], lag_s=-1.0)
        with pytest.raises(ValueError, match="stride must be positive"):
            yaw_change_cdf([trace], lag_s=1.0, stride_s=0.0)


class TestCdf:
    def test_quantiles_and_partition(self):
        cdf = Cdf(np.array([3.0, 1.0, 2.0, 2.0]))
        assert cdf.n == 4
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 3.0
        below, at, above = (np.mean(op(cdf.values, 2.0)) for op in (np.less, np.equal, np.greater))
        assert (below, at, above) == (0.25, 0.5, 0.25)

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


class TestAggregateAnalytics:
    def test_utilization_cdf_pools_traces(self):
        traces = [constant_trace(yaw_deg=-40.0, duration_s=1.0, rate_hz=9.0),
                  constant_trace(yaw_deg=40.0, duration_s=1.0, rate_hz=9.0)]
        cdf = angle_utilization_cdf(traces, "yaw")
        assert cdf.n == 20
        assert np.mean(cdf.values == -40.0) == 0.5
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
        np.testing.assert_array_equal(sectors[1].values, 0.0)
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
