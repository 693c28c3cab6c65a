"""JSON config parsing: happy paths and the errors users actually hit."""

import functools
import json
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from prefetch360 import constant_trace, parse_trace, write_trace
from prefetch360.config import (
    build_probs,
    load_json,
    load_traces,
    parse_analyze,
    parse_gen,
    parse_instance,
    parse_ladder,
    parse_schedule,
    parse_sweep,
    parse_utility,
)
from prefetch360.model import DirectionGrid

from conftest import TOY_PROBS


@pytest.fixture
def grid():
    return DirectionGrid(6)


@pytest.fixture
def trace_dir(tmp_path):
    root = tmp_path / "traces"
    root.mkdir()
    write_trace(constant_trace(duration_s=5.0, rate_hz=10.0, user_id="u0"),
                root / "a.csv")
    write_trace(constant_trace(yaw_deg=30.0, duration_s=5.0, rate_hz=10.0, user_id="u1"),
                root / "b.csv")
    return root


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_json(path)


class TestLadderAndUtility:
    def test_parse_ladder(self):
        ladder = parse_ladder({"rates": [100, 200], "delta": 2.0, "f": 0.5})
        assert ladder.rates_kbps == (100.0, 200.0)
        assert ladder.chunk_s == 2.0
        assert ladder.stall_penalty == 0.5

    def test_ladder_errors_become_config_errors(self):
        with pytest.raises(ValueError, match="missing required key 'rates'"):
            parse_ladder({})
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_ladder({"rates": [200, 100]})

    def test_parse_utility_defaults_to_linear(self):
        ladder = parse_ladder({"rates": [100, 200]})
        assert parse_utility({}, ladder).kind == "linear"
        model = parse_utility({"utility": {"kind": "large_screen", "theta": 150}}, ladder)
        assert model.theta_kbps == 150.0

    def test_parse_utility_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown utility kind"):
            parse_utility({"utility": {"kind": "cubic"}}, parse_ladder({"rates": [100, 200]}))

    def test_parse_utility_checks_the_table_on_the_ladder(self):
        # theta at the top rate makes the top raw utility 0, which no table can normalize
        ladder = parse_ladder({"rates": [100, 200]})
        with pytest.raises(ValueError, match="^utility: top-level raw utility must be positive$"):
            parse_utility({"utility": {"kind": "large_screen"}}, ladder)


class TestBuildProbs:
    def test_uniform_and_point_mass(self, grid):
        p = build_probs({"family": "uniform", "lag_s": 2.0}, grid)
        np.testing.assert_array_equal(p, np.full(6, 1 / 6))
        p = build_probs({"family": "point_mass", "angle_deg": 70.0}, grid)
        assert p[1] == 1.0

    def test_wrapped_gaussian_families(self, grid):
        fixed = build_probs({"family": "wrapped_gaussian", "sigma_deg": 30.0}, grid)
        grown = build_probs({"family": "wrapped_gaussian_sqrt", "sigma0_deg": 30.0,
                             "lag_s": 1.0}, grid)
        np.testing.assert_array_equal(fixed, grown)
        with pytest.raises(ValueError, match="lag_s > 0"):
            build_probs({"family": "wrapped_gaussian_sqrt"}, grid)

    def test_explicit_values(self, grid):
        p = build_probs({"family": "explicit",
                         "values": [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]}, grid)
        assert p[0] == 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            build_probs({"family": "explicit", "values": [1.0] * 6}, grid)
        # each element is read as a config number, so a numeric string is refused
        with pytest.raises(ValueError, match=r"^values\[1\]: expected a number$"):
            build_probs({"family": "explicit", "values": [0.5, "0.5", 0, 0, 0, 0]}, grid)

    def test_convolved_steps(self, grid):
        base = build_probs({"family": "convolved", "base_sigma_deg": 20.0,
                            "kernel_sigma_deg": 15.0, "steps": 0}, grid)
        smoothed = build_probs({"family": "convolved", "base_sigma_deg": 20.0,
                                "kernel_sigma_deg": 15.0, "steps": 3}, grid)
        # smoothing pulls mass off the front pair
        assert smoothed[0] < base[0]
        with pytest.raises(ValueError, match="nonnegative"):
            build_probs({"family": "convolved", "steps": -1}, grid)

    def test_empirical_needs_a_trace_dir(self, grid, trace_dir):
        with pytest.raises(ValueError, match="pass --traces"):
            build_probs({"family": "empirical", "lag_s": 1.0}, grid)
        cohort = functools.partial(load_traces, trace_dir)
        p = build_probs({"family": "empirical", "lag_s": 1.0}, grid, cohort)
        assert p[0] == pytest.approx(1.0)  # fixed gazes never move
        lifetime = build_probs({"family": "empirical", "lag_s": np.inf}, grid, cohort)
        assert lifetime[0] == pytest.approx(1.0)

    def test_unknown_family(self, grid):
        with pytest.raises(ValueError, match="unknown family"):
            build_probs({"family": "prophecy"}, grid)


class TestParseInstance:
    def test_full_instance(self):
        cfg = {"rates": [100, 200], "N": 3, "capacity": 300, "beta": 0.25,
               "probs": {"family": "explicit", "values": list(TOY_PROBS)}}
        inst = parse_instance(cfg)
        assert inst.capacity == 300 and inst.beta == 0.25
        assert inst.grid.n_tiles == 3

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="'N'"):
            parse_instance({"rates": [100], "capacity": 10, "probs": {"family": "uniform"}})
        with pytest.raises(ValueError, match="'capacity'"):
            parse_instance({"rates": [100], "N": 3, "probs": {"family": "uniform"}})

    def test_capacity_must_be_integral(self):
        cfg = {"rates": [100], "N": 3, "capacity": 10.5, "probs": {"family": "uniform"}}
        with pytest.raises(ValueError, match="capacity"):
            parse_instance(cfg)


class TestParseSchedule:
    def test_two_pass_plan(self):
        grown = {"family": "wrapped_gaussian_sqrt", "sigma0_deg": 10.0}
        cfg = {"rates": [100, 200], "N": 3, "beta": 0.0,
               "passes": [
                   {"lead_s": 20, "budget": 100, "probs": grown},
                   {"lead_s": 5, "budget": 200, "probs": {"family": "uniform"}},
               ]}
        plan, ladder, utility, beta, size_model = parse_schedule(cfg)
        assert len(plan.passes) == 2
        assert plan.passes[0].budget == 100
        assert size_model.mode == "svc_ideal"
        # the pass lead time doubles as the default probability lag
        at_lead = build_probs({**grown, "lag_s": 20.0}, DirectionGrid(3))
        np.testing.assert_array_equal(plan.passes[0].probs, at_lead)

    def test_size_model_block(self):
        cfg = {"rates": [100], "N": 2, "size_model": {"mode": "redownload", "overhead": 0.2},
               "passes": [{"lead_s": 5, "budget": 50, "probs": {"family": "uniform"}}]}
        _, _, _, _, size_model = parse_schedule(cfg)
        assert size_model.mode == "redownload" and size_model.overhead == 0.2

    def test_pass_order_is_enforced(self):
        cfg = {"rates": [100], "N": 2,
               "passes": [
                   {"lead_s": 5, "budget": 50, "probs": {"family": "uniform"}},
                   {"lead_s": 20, "budget": 50, "probs": {"family": "uniform"}},
               ]}
        with pytest.raises(ValueError, match="strictly decrease"):
            parse_schedule(cfg)


class TestParseSweep:
    def test_scalars_become_lists(self):
        label, caps, groups = parse_sweep(
            {"rates": [100, 200], "N": 4, "capacity": 500, "lags": 2.0})
        assert (label, caps) == ("uniform", [500])
        [(key, inst)] = groups
        assert key == ("linear", 4, 1.0, 0.0, 2.0)
        assert (inst.grid.n_tiles, inst.capacity, inst.beta) == (4, 500, 0.0)
        np.testing.assert_array_equal(inst.probs, 0.25)

    def test_labels_name_repeats_and_the_category(self, trace_dir):
        label, caps, groups = parse_sweep(
            {"rates": [100], "N": [2, 3], "capacity": [100, 300, 200], "lags": [1.0, 2.0],
             "utility": [{"kind": "linear"}, {"kind": "sqrt"}, {"kind": "linear"}],
             "family": {"kind": "empirical", "category": "static_focus"}}, trace_dir)
        assert (label, caps) == ("empirical:static_focus", [100, 300, 200])
        # one group per (N, f, utility, beta, lag), in that loop order
        assert [key for key, _ in groups] == [
            (u, n, 1.0, 0.0, lag) for n in (2, 3) for u in ("linear", "sqrt", "linear#2")
            for lag in (1.0, 2.0)]
        cohort = functools.partial(load_traces, trace_dir)
        for (_, n, _, _, lag), inst in groups:
            assert inst.capacity == max(caps)
            probs = build_probs({"family": "empirical", "category": "static_focus",
                                 "lag_s": lag}, DirectionGrid(n), cohort)
            np.testing.assert_array_equal(inst.probs, probs)

    def test_lags_must_strictly_increase(self):
        base = {"rates": [100], "N": 2, "capacity": 100}
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_sweep({**base, "lags": [1.0, 1.0, 2.0]})
        with pytest.raises(ValueError, match="must be positive"):
            parse_sweep({**base, "lags": [0.0, 1.0]})

    def test_family_needs_a_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            parse_sweep({"rates": [100], "N": 2, "capacity": 100, "lags": 1.0,
                         "family": {"sigma0_deg": 10}})


class TestCohort:
    """A config parses each trace file once per distinct category it names."""

    @staticmethod
    def parses_per_file(parse_config, cfg, trace_dir):
        with mock.patch("prefetch360.config.parse_trace", wraps=parse_trace) as parse:
            parse_config(cfg, trace_dir)
        return Counter(Path(call.args[0]).name for call in parse.call_args_list)

    def test_sweep_parses_each_file_once(self, trace_dir):
        cfg = {"rates": [100, 200], "N": [3, 6], "capacity": [100], "lags": [0.5, 1, 2],
               "family": {"kind": "empirical"}}
        assert self.parses_per_file(parse_sweep, cfg, trace_dir) == {"a.csv": 1, "b.csv": 1}

    def test_schedule_parses_each_file_once_per_category(self, trace_dir):
        # the first and last passes read every trace; the middle one reads "static_focus"
        cfg = {"rates": [100, 200], "N": 3, "passes": [
            {"lead_s": lead, "budget": 100, "probs": {"family": "empirical", **category}}
            for lead, category in ((3, {}), (2, {"category": "static_focus"}), (1, {}))]}
        assert self.parses_per_file(parse_schedule, cfg, trace_dir) == {"a.csv": 2, "b.csv": 2}


class TestParseGenAndAnalyze:
    def test_gen_defaults(self):
        spec = parse_gen({})
        assert spec["count"] == 2
        assert "walk" in spec["kinds"]

    def test_gen_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            parse_gen({"kinds": ["teleport"]})
        with pytest.raises(ValueError, match="at least 1"):
            parse_gen({"count_per_kind": 0})

    def test_gen_bounds_the_cohort_before_any_trace(self):
        # ten traces of 10^6 samples fill GRID_LIMIT exactly; an eleventh is refused
        spec = {"kinds": ["constant"], "duration_s": 99999.9, "rate_hz": 10}
        assert parse_gen({**spec, "count_per_kind": 10})["count"] == 10
        with pytest.raises(ValueError, match="count_per_kind"):
            parse_gen({**spec, "count_per_kind": 11})

    def test_gen_bounds_the_duration(self):
        # at 1 mHz a million seconds is 1001 samples per trace
        assert parse_gen({"duration_s": 10**6, "rate_hz": 1e-3})["duration_s"] == 1e6
        with pytest.raises(ValueError, match=r"^duration_s and rate_hz: duration must lie in "
                                             r"\(0, 1000000\] s and rate must be positive$"):
            parse_gen({"duration_s": 10**6 + 1, "rate_hz": 1e-3})

    def test_gen_explore_needs_time_past_its_split(self):
        assert parse_gen({"kinds": ["explore"], "duration_s": 20.5})["kinds"] == ["explore"]
        with pytest.raises(ValueError, match="duration_s"):
            parse_gen({"kinds": ["explore"], "duration_s": 20})

    def test_analyze_defaults_and_validation(self):
        spec = parse_analyze({})
        assert "utilization" in spec["metrics"]
        assert spec["lags"] == [1.0]
        with pytest.raises(ValueError, match="unknown metric"):
            parse_analyze({"metrics": ["telepathy"]})
        with pytest.raises(ValueError, match="^category: unknown trace category 'skydiving'$"):
            parse_analyze({"category": "skydiving"})
        with pytest.raises(ValueError, match="metrics: expected a non-empty list"):
            parse_analyze({"metrics": []})
        with pytest.raises(ValueError, match="metrics: metric 'yaw_change' is listed twice"):
            parse_analyze({"metrics": ["yaw_change", "heatmap", "yaw_change"]})
        with pytest.raises(ValueError, match="lags: lag 2 is listed twice"):
            parse_analyze({"lags": [2, 0.5, 2.0]})


class TestLoadTraces:
    def test_reads_sorted_csvs(self, trace_dir):
        traces = load_traces(trace_dir)
        assert [tr.user_id for tr in traces] == ["u0", "u1"]

    def test_category_filter(self, trace_dir):
        assert len(load_traces(trace_dir, "static_focus")) == 2
        with pytest.raises(ValueError, match="no traces found"):
            load_traces(trace_dir, "rides")

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError, match="pass --traces"):
            load_traces(None)
        with pytest.raises(ValueError, match="directory not found"):
            load_traces(tmp_path / "ghost")
        with pytest.raises(ValueError, match="unknown trace category"):
            load_traces(tmp_path, "skydiving")
