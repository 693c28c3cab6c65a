"""End-to-end command tests driven through cli.main()."""

import csv
import json

import numpy as np
import pytest

from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    Selection,
    SolveReport,
    UtilityModel,
    eval_objective,
)
from prefetch360.cli import main
from prefetch360.optimizer import SolveStats

from conftest import SIX_LEVEL_RATES, TOY_PROBS

TOY_SOLVE = {
    "rates": [100, 200], "N": 3, "capacity": 300, "beta": 0.0,
    "probs": {"family": "explicit", "values": list(TOY_PROBS)},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSolve:
    def test_toy_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 0.65
        assert payload["levels"] == [2, 1, 0]
        assert payload["spend"] == 300
        assert payload["method"] == "dp"

    def test_zero_capacity_reports_the_stall_penalty(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TOY_SOLVE, "capacity": 0, "beta": 0.25})
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(-0.75, abs=1e-12)
        assert payload["levels"] == [0, 0, 0]

    def test_saturated_budget_reaches_value_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "rates": list(SIX_LEVEL_RATES), "N": 6, "capacity": 25188, "beta": 0.0,
            "probs": {"family": "uniform"},
        })
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.0, abs=1e-12)
        assert payload["levels"] == [6] * 6

    def test_writes_to_file(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SOLVE)
        out = tmp_path / "result.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 0.65


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "ghost.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["solve", "--config", str(path)]) == 1

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TOY_SOLVE, "probs": {"family": "prophecy"}})
        assert main(["solve", "--config", cfg]) == 1
        assert "unknown family" in capsys.readouterr().err

    def test_bad_arguments(self, capsys):
        assert main([]) == 1
        assert main(["solve"]) == 1
        assert main(["solve", "--config", "x", "--bogus"]) == 1

    SWEEP = {"rates": [100, 200], "N": 3, "capacity": [100, 300], "lags": [1.0, 2.0]}

    @pytest.mark.parametrize("command, config, key", [
        ("sweep", {**SWEEP, "capacity": None}, "capacity"),
        ("sweep", {**SWEEP, "N": None}, "N"),
        ("sweep", {**SWEEP, "lags": [None]}, "lags"),
        ("sweep", {**SWEEP, "family": {"kind": "wrapped_gaussian_sqrt", "sigma0_deg": None}},
         "sigma0_deg"),
        ("sweep", {**SWEEP, "capacity": [100.7]}, "capacity"),
        ("sweep", {**SWEEP, "capacity": [-5, 100]}, "capacity"),
        ("sweep", {**SWEEP, "beta": [True]}, "beta"),
        ("solve", {**TOY_SOLVE, "rates": [None]}, "rates"),
        ("schedule", {"rates": [100, 200], "N": 3,
                      "passes": [{"lead_s": 5, "budget": 10, "probs": 5}]}, "probs"),
        ("analyze", {"lags": [None]}, "lags"),
        ("oracle", {"batch": {"count": True}}, "batch.count"),
    ], ids=["sweep-capacity-null", "sweep-N-null", "sweep-lag-null", "sweep-sigma0-null",
            "sweep-capacity-fraction", "sweep-capacity-negative", "sweep-beta-bool",
            "solve-rate-null", "schedule-probs-number", "analyze-lag-null", "oracle-count-bool"])
    def test_malformed_config_names_the_key(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]

    def test_oversized_dp_table_is_refused_before_allocation(self, tmp_path, capsys):
        # the int16 parents table would need 2.35 TB
        cfg = write_config(tmp_path, {"rates": list(SIX_LEVEL_RATES), "N": 24,
                                      "capacity": 10**9, "probs": {"family": "uniform"}})
        assert main(["solve", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "parents table" in lines[0]

    def test_internal_failure_returns_2(self, tmp_path, monkeypatch, capsys):
        from prefetch360 import cli

        def explode(inst):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(cli, "solve_dp", explode)
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["solve", "--config", cfg]) == 2
        assert "internal error" in capsys.readouterr().err


class TestSweep:
    SWEEP = {
        "rates": [100, 200], "N": 3, "capacity": [100, 300], "beta": [0.0, 0.5],
        "f": 1.0, "lags": [1.0, 2.0, 4.0], "family": {"kind": "uniform"},
    }

    def test_header_and_row_count(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["family", "utility", "N", "C", "f", "beta", "T", "value", "levels"]
        assert len(rows) == 1 + 2 * 2 * 3  # capacities x betas x lags

    def test_uniform_family_is_flat_in_lag(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        out = tmp_path / "curves.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        rows = read_csv(out)[1:]
        by_knobs = {}
        for row in rows:
            by_knobs.setdefault((row[3], row[5]), set()).add(row[7])
        assert all(len(values) == 1 for values in by_knobs.values())

    def test_rows_reevaluate_exactly(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        out = tmp_path / "curves.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        ladder = QualityLadder((100.0, 200.0))
        for row in read_csv(out)[1:]:
            levels = tuple(int(x) for x in row[8].split("|"))
            inst = Instance(DirectionGrid(3), ladder, UtilityModel("linear"),
                            np.full(3, 1 / 3), int(row[3]), float(row[5]))
            assert f"{eval_objective(levels, inst):.6f}" == row[7]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(first)])
        main(["sweep", "--config", cfg, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_empty_capacity_list_prints_the_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**self.SWEEP, "capacity": []})
        assert main(["sweep", "--config", cfg]) == 0
        assert capsys.readouterr().out == "family,utility,N,C,f,beta,T,value,levels\n"

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.SWEEP)
        assert main(["sweep", "--config", cfg, "--workers", "4"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("family", [
        {"kind": "wrapped_gaussian_sqrt", "sigma0_deg": 30.0},
        {"kind": "convolved", "base_sigma_deg": 20.0, "kernel_sigma_deg": 40.0},
        {"kind": "wrapped_gaussian", "sigma_deg": 50.0},
    ], ids=["wrapped_gaussian_sqrt", "convolved", "wrapped_gaussian"])
    def test_family_rows_match_solve_on_the_probs_block(self, tmp_path, capsys, family):
        # lag index i of a sweep is the probs block with lag_s = lags[i] and steps = i;
        # capacities come unsorted, with 0 and a repeat, all from one DP per group
        lags = [1.0, 2.0, 4.0]
        caps = [500, 0, 300, 500]
        sweep = {"rates": [100, 200], "N": 4, "capacity": caps, "beta": [0.0, 0.5],
                 "lags": lags, "family": family}
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", write_config(tmp_path, sweep), "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert [int(row[3]) for row in rows] == sorted(caps * 2 * len(lags))
        kind = family["kind"]
        params = {k: v for k, v in family.items() if k != "kind"}
        for row in rows:
            assert row[0] == kind
            i = [f"{t:.6f}" for t in lags].index(row[6])
            solve = {"rates": [100, 200], "N": 4, "capacity": int(row[3]), "beta": float(row[5]),
                     "probs": {**params, "family": kind, "lag_s": lags[i], "steps": i}}
            assert main(["solve", "--config", write_config(tmp_path, solve, "solve.json")]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert float(row[7]) == pytest.approx(payload["value"], abs=1e-6)
            assert row[8] == "|".join(str(level) for level in payload["levels"])

    def test_empirical_family_needs_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**self.SWEEP, "family": {"kind": "empirical"}})
        assert main(["sweep", "--config", cfg]) == 1
        assert "--traces" in capsys.readouterr().err


class TestSchedule:
    def test_two_pass_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, {
            "rates": [100, 200], "N": 3, "beta": 0.0,
            "passes": [
                {"lead_s": 20, "budget": 100,
                 "probs": {"family": "explicit", "values": list(TOY_PROBS)}},
                {"lead_s": 5, "budget": 200,
                 "probs": {"family": "explicit", "values": list(TOY_PROBS)}},
            ],
        })
        out = tmp_path / "plan.csv"
        assert main(["schedule", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["pass", "lead_s", "budget", "levels", "value"]
        assert rows[1][3] == "1|0|0"
        assert rows[2][3] == "2|1|0"
        assert rows[2][4] == "0.650000"


class TestOracle:
    def test_single_instance_match(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["oracle", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True
        assert payload["checked"] == 1
        assert payload["max_abs_gap"] <= 1e-9
        assert payload["dp"]["levels"] == payload["brute_force"]["levels"] == [2, 1, 0]

    def test_batch_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"batch": {"count": 30}})
        assert main(["oracle", "--config", cfg, "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] == 30
        assert payload["mismatches"] == []

    def test_mismatch_exits_2(self, tmp_path, monkeypatch, capsys):
        from prefetch360 import cli

        bogus = SolveReport(Selection((0, 0, 0), 99.0), 99.0, "dp", SolveStats(0, 0.0))
        monkeypatch.setattr(cli, "solve_dp", lambda inst: bogus)
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["oracle", "--config", cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is False
        assert payload["mismatches"]

    def test_bad_batch_count(self, tmp_path):
        cfg = write_config(tmp_path, {"batch": {"count": 0}})
        assert main(["oracle", "--config", cfg]) == 1


class TestGenTraces:
    def test_writes_expected_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kinds": ["constant", "walk"], "count_per_kind": 2,
                                      "duration_s": 5, "rate_hz": 10})
        out = tmp_path / "traces"
        assert main(["gen-traces", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["written"] == ["constant_000.csv", "constant_001.csv",
                                      "walk_000.csv", "walk_001.csv"]
        assert sorted(p.name for p in out.glob("*.csv")) == payload["written"]

    def test_seed_controls_randomized_kinds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kinds": ["walk"], "count_per_kind": 1,
                                      "duration_s": 5, "rate_hz": 10})
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["gen-traces", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["gen-traces", "--config", cfg, "--out", str(b), "--seed", "1"])
        main(["gen-traces", "--config", cfg, "--out", str(c), "--seed", "2"])
        capsys.readouterr()
        walk = "walk_000.csv"
        assert (a / walk).read_bytes() == (b / walk).read_bytes()
        assert (a / walk).read_bytes() != (c / walk).read_bytes()

    def test_out_is_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kinds": ["constant"]})
        assert main(["gen-traces", "--config", cfg]) == 1


class TestAnalyze:
    @pytest.fixture
    def trace_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kinds": ["rotation"], "count_per_kind": 3,
                                      "duration_s": 30, "rate_hz": 20}, name="gen.json")
        out = tmp_path / "traces"
        assert main(["gen-traces", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        return out

    def test_full_report(self, tmp_path, trace_dir):
        cfg = write_config(tmp_path, {
            "metrics": ["utilization", "yaw_change", "velocity_error", "pairwise"],
            "lags": [1.0], "pairwise_step_s": 1.0,
        }, name="analyze.json")
        out = tmp_path / "report.csv"
        assert main(["analyze", "--config", cfg, "--traces", str(trace_dir),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["metric", "group", "stat", "value"]
        metrics = {row[0] for row in rows[1:]}
        assert {"utilization", "yaw_change", "velocity_error", "pairwise", "reference"} <= metrics
        # constant-velocity rotations never reverse direction
        error_rows = [row for row in rows if row[0] == "velocity_error"]
        assert error_rows and all(row[3] == "0.000000" for row in error_rows)

    def test_deterministic_output(self, tmp_path, trace_dir):
        cfg = write_config(tmp_path, {"metrics": ["yaw_change"], "lags": [1.0, 2.0]},
                           name="analyze.json")
        first = tmp_path / "r1.csv"
        second = tmp_path / "r2.csv"
        main(["analyze", "--config", cfg, "--traces", str(trace_dir), "--out", str(first)])
        main(["analyze", "--config", cfg, "--traces", str(trace_dir), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_requires_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"metrics": ["utilization"]})
        assert main(["analyze", "--config", cfg]) == 1
        assert "--traces" in capsys.readouterr().err
