"""End-to-end command tests driven through cli.main()."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefetch360
from prefetch360 import (
    DirectionGrid,
    Instance,
    QualityLadder,
    Selection,
    SolveReport,
    UtilityModel,
    eval_objective,
    solve_mckp,
)
from prefetch360 import cli, scheduler, traces
from prefetch360.cli import main
from prefetch360.config import ORACLE_BATCH_LIMIT, parse_instance
from prefetch360.optimizer import SolveStats

from conftest import SIDECARS, SIX_LEVEL_RATES, TOY_PROBS, trace_csv_bytes

TOY_SOLVE = {
    "rates": [100, 200], "N": 3, "capacity": 300, "beta": 0.0,
    "probs": {"family": "explicit", "values": list(TOY_PROBS)},
}


# odd JSON values for the fuzzed configs; the huge ones must be refused before any allocation
ODD = (0, -1, -0.5, 1e-12, 1e-300, 5e-324, 1e300, 10**18, 2**63, 10**19, 10**400, math.inf,
       -math.inf, math.nan, "1", None, True, False, [], [1.0], 0.5, 1, 2.5, 45)


# each probability family with the keys it reads; the fuzz may override any of them
FAMILIES = {
    "uniform": {},
    "point_mass": {"angle_deg": 30.0},
    "wrapped_gaussian": {"sigma_deg": 30.0},
    "wrapped_gaussian_sqrt": {"sigma0_deg": 25.0},
    "explicit": {"values": [0.5, 0.25, 0.25]},
    "convolved": {"base_sigma_deg": 15.0, "kernel_sigma_deg": 15.0},
    "empirical": {"stride_s": 0.5, "category": "rides"},
}
INSTANCE_KEYS = ("rates", "delta", "f", "beta", "N")


def set_key(config, dotted, value):
    """``config["a"][0]["b"] = value`` for the key ``a.0.b``."""
    *path, last = dotted.split(".")
    for part in path:
        config = config[int(part)] if part.isdigit() else config[part]
    config[last] = value


def draw_odd_keys(data, config, keys, list_keys=()):
    """Override one or two keys with odd values, so most draws still reach the solver."""
    odd = st.sampled_from(ODD)
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        set_key(config, key, data.draw(odd | st.lists(odd, max_size=3) if key in list_keys else odd))


def assert_exit_0_or_1(argv, header):
    """Exit 0 with output and an empty stderr, or exit 1 with one ``error:`` line."""
    code, out, err = run_main(argv)
    lines = err.splitlines()
    if code == 0:
        assert lines == [] and out.startswith(header)
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, lines)
    return code


def one_pass_schedule(**keys):
    """A one-pass schedule config with the pass's keys overridden."""
    return {"rates": [100, 200], "N": 3,
            "passes": [{"lead_s": 5, "budget": 10, "probs": {"family": "uniform"}, **keys}]}


def two_pass_schedule(second):
    """One valid pass, then the given second pass."""
    cfg = one_pass_schedule()
    cfg["passes"].append(second)
    return cfg


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv):
    """main(argv) -> (exit code, stdout, stderr), with warnings raised as errors.

    A numpy warning would be a second stderr line in a real run.  The filter
    covers only the call, so a failing example still reports cleanly.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(*args):
    """A fresh interpreter, warnings as errors, with this package on its path."""
    src = str(Path(prefetch360.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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

    def test_signed_zero_value_prints_as_negative_zero(self, tmp_path):
        # beta = 1 zeroes the expectation weight, so every tile's gain at level 0 beside
        # level 0 is 0.0 * u(0) - w * 0.0 = -0.0 (u(0) = -f), and so is their sum
        cfg = write_config(tmp_path, {"rates": [144, 625], "N": 6, "capacity": 1000, "beta": 1,
                                      "probs": {"family": "point_mass", "angle_deg": 150}})
        out = ('{\n  "capacity": 1000,\n  "levels": [\n    0,\n    0,\n    0,\n    0,\n    0,\n'
               '    0\n  ],\n  "method": "dp",\n  "spend": 0,\n  "subproblems": 54054,\n'
               '  "value": -0.0\n}\n')
        assert run_main(["solve", "--config", cfg]) == (0, out, "")

    def test_zero_probability_tiles_match_the_knapsack_form(self, tmp_path):
        # the four unseen tiles' gains are 0.0 * u(0) = -0.0 with f = 10
        config = {"rates": [144, 625], "N": 6, "capacity": 1000, "beta": 0, "f": 10,
                  "probs": {"family": "explicit", "values": [0, 0, 0.5, 0.5, 0, 0]}}
        code, out, err = run_main(["solve", "--config", write_config(tmp_path, config)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["levels"] == [0, 0, 2, 1, 0, 0]
        assert payload["value"] == solve_mckp(parse_instance(config)).value

    def test_writes_to_file(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SOLVE)
        out = tmp_path / "result.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 0.65

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        kind = data.draw(st.sampled_from(sorted(FAMILIES)))
        probs = {"family": kind, "lag_s": 1.0, "steps": 1, **FAMILIES[kind]}
        config = {"rates": [100, 200], "N": 3, "capacity": 300, "probs": probs}
        keys = INSTANCE_KEYS + ("capacity",) + tuple(f"probs.{k}" for k in probs if k != "family")
        draw_odd_keys(data, config, keys, ("rates",))
        path = small_cohort.parent / "solve-fuzz.json"
        path.write_text(json.dumps(config))
        assert_exit_0_or_1(["solve", "--config", str(path), "--traces", str(small_cohort)], "{")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "ghost.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["solve", "--config", str(path)]) == 1

    @pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff{}"], ids=["too-deep", "not-utf-8"])
    def test_unreadable_json_names_the_file(self, tmp_path, content):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        code, out, err = run_main(["solve", "--config", str(path)])
        assert (code, out) == (1, "") and err.startswith(f"error: {path}: invalid JSON")

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TOY_SOLVE, "probs": {"family": "prophecy"}})
        assert main(["solve", "--config", cfg]) == 1
        assert "unknown family" in capsys.readouterr().err

    def test_bad_arguments(self, tmp_path, capsys):
        for argv, line in (
                ([], "the following arguments are required: command"),
                (["solve"], "the following arguments are required: --config"),
                (["solve", "--config", "x", "--bogus"], "unrecognized arguments: --bogus")):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {line}\n"
        # numpy's own refusal of a negative seed would not name the flag
        out = tmp_path / "traces"
        for argv in (["oracle", "--config", write_config(tmp_path, {"batch": {"count": 1}})],
                     ["gen-traces", "--config", write_config(tmp_path, {"count_per_kind": 1}),
                      "--out", str(out)]):
            for seed, line in (("-1", "must be a nonnegative integer"),
                               ("abc", "invalid int value: 'abc'")):
                assert run_main([*argv, "--seed", seed]) == (
                    1, "", f"error: argument --seed: {line}\n")
        assert not out.exists()
        assert main(["nope"]) == 1
        # the list of choices after the name is worded differently across Python versions
        err = capsys.readouterr().err
        assert err.startswith("error: argument command: invalid choice: 'nope'")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_one_parser_serves_every_call(self, tmp_path):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        for name, run in (("solve", cli.cmd_solve), ("sweep", cli.cmd_sweep),
                          ("schedule", cli.cmd_schedule), ("analyze", cli.cmd_analyze),
                          ("oracle", cli.cmd_oracle), ("gen-traces", cli.cmd_gen_traces)):
            args = parser.parse_args([name, "--config", "x", "--out", "y"])
            assert (args.command, args.run) == (name, run)
        # a refusal leaves nothing behind in the shared parser for the next call
        assert run_main([]) == (1, "", "error: the following arguments are required: command\n")
        code, out, err = run_main(["solve", "--config", write_config(tmp_path, TOY_SOLVE)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"capacity": 300, "levels": [2, 1, 0], "method": "dp",
                                   "spend": 300, "subproblems": 8127, "value": 0.65}
        code, out, err = run_main(["nope"])
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("error: argument command: invalid choice: 'nope'")

    SWEEP = {"rates": [100, 200], "N": 3, "capacity": [100, 300], "lags": [1.0, 2.0]}

    # the README's plan.json
    PLAN = {"rates": [144, 268, 625, 1124, 2217, 4198], "utility": {"kind": "large_screen"},
            "N": 6, "beta": 0.1, "size_model": {"mode": "svc_ideal", "overhead": 0.0},
            "passes": [{"lead_s": lead, "budget": budget,
                        "probs": {"family": "wrapped_gaussian_sqrt"}}
                       for lead, budget in ((20, 2000), (5, 1500), (1, 1500))]}

    @pytest.mark.parametrize("command, config, key", [
        ("sweep", {**SWEEP, "capacity": None}, "capacity"),
        ("sweep", {**SWEEP, "N": None}, "N"),
        ("sweep", {**SWEEP, "lags": [None]}, "lags"),
        ("sweep", {**SWEEP, "family": {"kind": "wrapped_gaussian_sqrt", "sigma0_deg": None}},
         "sigma0_deg"),
        ("sweep", {**SWEEP, "capacity": [100.7]}, "capacity"),
        ("sweep", {**SWEEP, "capacity": [-5, 100]}, "capacity"),
        ("sweep", {**SWEEP, "beta": [True]}, "beta"),
        ("sweep", {**SWEEP, "lags": [math.nan]}, "lags"),
        ("solve", {**TOY_SOLVE, "rates": [None]}, "rates"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "uniform", "lag_s": -1}}, "probs: lag_s"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "uniform", "lag_s": math.nan}}, "probs: lag_s"),
        ("solve", {**TOY_SOLVE, "capacity": 2**63}, "capacity"),
        ("solve", {**TOY_SOLVE, "capacity": 10**19}, "capacity"),
        ("solve", {**TOY_SOLVE, "capacity": 2**64 - 1}, "capacity"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "convolved", "steps": 1001}}, "probs: steps"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "convolved", "steps": 10**18}}, "probs: steps"),
        ("schedule", one_pass_schedule(probs=5), "probs"),
        ("schedule", one_pass_schedule(budget=2**63), "passes[0]"),
        ("schedule", one_pass_schedule(budget=10**19), "passes[0]"),
        ("schedule", one_pass_schedule(budget=2**64 - 1), "passes[0]"),
        ("schedule", one_pass_schedule(lead_s=-1), "passes[0]: lead time"),
        ("schedule", one_pass_schedule(lead_s=math.nan), "passes[0]: lead time"),
        ("analyze", {"lags": [None]}, "lags"),
        ("analyze", {"lags": [math.nan]}, "lags"),
        ("analyze", {"metrics": ["yaw_change"], "lags": [], "stride_s": -1},
         "lags: expected a non-empty list"),
        ("oracle", {"batch": {"count": True}}, "batch.count"),
        ("oracle", {"batch": {"count": ORACLE_BATCH_LIMIT + 1}}, "batch.count"),
        ("oracle", {"batch": {"count": 10**18}}, "batch.count"),
        ("oracle", {"batch": {"count": 2**63}}, "batch.count"),
        ("sweep", {**SWEEP, "N": [], "rates": "garbage", "family": {"kind": "bogus"}},
         "N: expected a non-empty list"),
        ("sweep", {**SWEEP, "f": [], "rates": "garbage"}, "f: expected a non-empty list"),
        ("sweep", {**SWEEP, "beta": []}, "beta: expected a non-empty list"),
        ("sweep", {**SWEEP, "utility": []}, "utility: expected a non-empty list"),
        ("sweep", {**SWEEP, "lags": [], "family": {"kind": "bogus"}},
         "lags: expected a non-empty list"),
        ("sweep", {**SWEEP, "capacity": []}, "capacity: expected a non-empty list"),
    ], ids=["sweep-capacity-null", "sweep-N-null", "sweep-lag-null", "sweep-sigma0-null",
            "sweep-capacity-fraction", "sweep-capacity-negative", "sweep-beta-bool",
            "sweep-lag-nan", "solve-rate-null", "solve-lag-negative", "solve-lag-nan",
            "solve-capacity-2^63", "solve-capacity-1e19", "solve-capacity-2^64-1",
            "solve-steps-1001", "solve-steps-1e18", "schedule-probs-number",
            "schedule-budget-2^63", "schedule-budget-1e19", "schedule-budget-2^64-1",
            "schedule-lead-negative", "schedule-lead-nan",
            "analyze-lag-null", "analyze-lag-nan", "analyze-lags-empty", "oracle-count-bool",
            "oracle-count-over-the-limit", "oracle-count-1e18", "oracle-count-2^63",
            "sweep-N-empty", "sweep-f-empty", "sweep-beta-empty", "sweep-utility-empty",
            "sweep-lags-empty", "sweep-capacity-empty"])
    def test_malformed_config_names_the_key(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]

    @pytest.mark.parametrize("command, config, message", [
        ("solve", {**TOY_SOLVE, "utility": 5}, "utility: expected an object"),
        ("sweep", {**SWEEP, "utility": [{"kind": "linear"}, "sqrt"]},
         "utility: expected an object"),
        ("solve", {**TOY_SOLVE, "probs": [0.5, 0.5]}, "probs: expected an object"),
        ("schedule", {**one_pass_schedule(), "size_model": "redownload"},
         "size_model: expected an object"),
        ("schedule", {**one_pass_schedule(), "passes": [[5, 10]]},
         "passes[0]: expected an object"),
        ("schedule", one_pass_schedule(probs="uniform"), "passes[0].probs: expected an object"),
        ("oracle", {"batch": 5}, "batch: expected an object"),
        ("gen-traces", {"kinds": []}, "kinds: expected a non-empty list"),
        ("gen-traces", {"kinds": ["walk", "nope"]}, "kinds: unknown generator 'nope'"),
        ("gen-traces", {"kinds": [["walk"]]}, "kinds: unknown generator ['walk']"),
        ("gen-traces", {"kinds": ["walk", "rotation", "walk"]},
         "kinds: generator 'walk' is listed twice"),
        ("analyze", {"metrics": []}, "metrics: expected a non-empty list"),
        ("analyze", {"metrics": "nope"}, "metrics: unknown metric 'nope'"),
        ("analyze", {"metrics": [["heatmap"]]}, "metrics: unknown metric ['heatmap']"),
        ("analyze", {"metrics": ["heatmap", "heatmap"]},
         "metrics: metric 'heatmap' is listed twice"),
        ("solve", {**TOY_SOLVE, "rates": [144, 625, 2217],
                   "utility": {"kind": "large_screen", "a": 1e300}},
         "utility: normalized utilities must be finite"),
        ("sweep", {**SWEEP, "rates": [144, 625, 2217],
                   "utility": {"kind": "large_screen", "a": math.inf}},
         "utility: top-level raw utility must be positive"),
        ("schedule", {**one_pass_schedule(), "rates": [144, 625, 2217],
                      "utility": {"kind": "large_screen", "b": math.inf}},
         "utility: normalized utilities must be finite"),
        ("oracle", {**TOY_SOLVE, "rates": [144, 625, 2217],
                    "utility": {"kind": "large_screen", "theta": math.inf}},
         "utility: top-level raw utility must be positive"),
        ("solve", {**TOY_SOLVE, "rates": [1, 625, 2217],
                   "utility": {"kind": "large_screen", "a": 1.5, "b": 1e308}},
         "utility: normalized utilities must be finite"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "explicit", "values": ["0.5", "0.5", "0"]}},
         "probs: values[0]: expected a number"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "explicit", "values": [True, False, False]}},
         "probs: values[0]: expected a number"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "explicit", "values": [10**400, 0, 0]}},
         "probs: values[0]: number out of range"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "explicit", "values": []}},
         "probs: values: expected a non-empty list"),
        ("schedule", {**PLAN, "passes": [
            PLAN["passes"][0],
            {**PLAN["passes"][1], "probs": {"family": "wrapped_gaussian", "sigma_deg": "30"}},
            PLAN["passes"][2]]},
         "passes[1].probs: sigma_deg: expected a number"),
        ("schedule", one_pass_schedule(probs={"family": "explicit", "values": [0.5, 0.5]}),
         "passes[0].probs: probabilities length must match the tile count: "
         "need 3 tile probabilities, got shape (2,)"),
        ("solve", {**TOY_SOLVE, "N": 1}, "N: need an integer tile count of at least 2 and at most 360"),
        ("schedule", {**one_pass_schedule(), "N": 1},
         "N: need an integer tile count of at least 2 and at most 360"),
        ("sweep", {**SWEEP, "N": [6, 400]},
         "N[1]: need an integer tile count of at least 2 and at most 360"),
        ("schedule", two_pass_schedule({"lead_s": 1, "budget": 10}),
         "passes[1]: missing required key 'probs'"),
        ("schedule", two_pass_schedule({"budget": 10, "probs": {"family": "uniform"}}),
         "passes[1]: missing required key 'lead_s'"),
        ("schedule", two_pass_schedule({"lead_s": "1", "budget": 10,
                                        "probs": {"family": "uniform"}}),
         "passes[1]: lead_s: expected a number"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "empirical", "lag_s": 1, "category": [1]}},
         "probs: unknown trace category [1]"),
        ("schedule", one_pass_schedule(probs={"family": "empirical", "category": [1]}),
         "passes[0].probs: unknown trace category [1]"),
        ("sweep", {**SWEEP, "family": {"kind": "empirical", "category": [1]}},
         "family: unknown trace category [1]"),
        ("analyze", {"category": "nope"}, "category: unknown trace category 'nope'"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "empirical"}},
         "probs: empirical family needs lag_s > 0"),
        ("schedule", {**one_pass_schedule(), "passes": []}, "passes: expected a non-empty list"),
    ], ids=["solve-utility", "sweep-utility", "solve-probs", "schedule-size-model",
            "schedule-pass", "schedule-pass-probs", "oracle-batch", "kinds-empty",
            "kinds-unknown", "kinds-list", "kinds-twice", "metrics-empty", "metrics-unknown",
            "metrics-list", "metrics-twice", "solve-large-screen-a-1e300",
            "sweep-large-screen-a-inf", "schedule-large-screen-b-inf",
            "oracle-large-screen-theta-inf", "solve-large-screen-b-1e308",
            "explicit-values-strings", "explicit-values-bools", "explicit-values-1e400",
            "explicit-values-empty",
            "schedule-pass-1-sigma-string", "schedule-explicit-length", "solve-N-1",
            "schedule-N-1", "sweep-N-400", "schedule-pass-1-no-probs",
            "schedule-pass-1-no-lead", "schedule-pass-1-lead-string", "solve-category-list",
            "schedule-category-list", "sweep-category-list", "analyze-category",
            "solve-empirical-no-lag", "schedule-passes-empty"])
    def test_refused_config_prints_the_exact_message(self, tmp_path, command, config, message):
        cfg = write_config(tmp_path, config)
        out = str(tmp_path / "out")
        # a trace directory, so an empirical family gets as far as its category
        traces = [] if command == "gen-traces" else ["--traces", str(tmp_path)]
        assert run_main([command, "--config", cfg, "--out", out, *traces]) == (
            1, "", f"error: {message}\n")
        assert not Path(out).exists()

    SIGMA_0 = {"family": "wrapped_gaussian", "sigma_deg": 0}
    NO_SUCH_FAMILY = {"family": "nope"}
    VALUES_NOT_A_LIST = {"family": "explicit", "values": 0.5}
    LAG_NEGATIVE = {"family": "uniform", "lag_s": -1}

    @staticmethod
    def as_family(block):
        """A sweep's ``family`` block with the same keys as a ``probs`` block."""
        return {"kind": block["family"], **{k: v for k, v in block.items() if k != "family"}}

    # a sweep sets each vector's lag_s from its lags, so LAG_NEGATIVE has no sweep case
    @pytest.mark.parametrize("command, config, message", [
        ("solve", {**TOY_SOLVE, "probs": SIGMA_0},
         "probs: sigma must be positive and at most 100000 degrees"),
        ("schedule", one_pass_schedule(probs=SIGMA_0),
         "passes[0].probs: sigma must be positive and at most 100000 degrees"),
        ("sweep", {**SWEEP, "family": as_family(SIGMA_0)},
         "family: sigma must be positive and at most 100000 degrees"),
        ("solve", {**TOY_SOLVE, "probs": NO_SUCH_FAMILY}, "probs: unknown family 'nope'"),
        ("schedule", one_pass_schedule(probs=NO_SUCH_FAMILY),
         "passes[0].probs: unknown family 'nope'"),
        ("sweep", {**SWEEP, "family": as_family(NO_SUCH_FAMILY)}, "family: unknown family 'nope'"),
        ("solve", {**TOY_SOLVE, "probs": VALUES_NOT_A_LIST}, "probs: values: expected a list"),
        ("schedule", one_pass_schedule(probs=VALUES_NOT_A_LIST),
         "passes[0].probs: values: expected a list"),
        ("sweep", {**SWEEP, "family": as_family(VALUES_NOT_A_LIST)},
         "family: values: expected a list"),
        ("solve", {**TOY_SOLVE, "probs": LAG_NEGATIVE}, "probs: lag_s: must be nonnegative"),
        ("schedule", one_pass_schedule(probs=LAG_NEGATIVE),
         "passes[0].probs: lag_s: must be nonnegative"),
        # without --traces, a bad category is named before the missing directory
        ("solve", {**TOY_SOLVE, "probs": {"family": "empirical", "lag_s": 1, "category": "x"}},
         "probs: unknown trace category 'x'"),
    ], ids=["solve-sigma-0", "schedule-sigma-0", "sweep-sigma-0", "solve-unknown-family",
            "schedule-unknown-family", "sweep-unknown-family", "solve-values-not-a-list",
            "schedule-values-not-a-list", "sweep-values-not-a-list", "solve-lag-negative",
            "schedule-lag-negative", "solve-category-without-traces"])
    def test_probability_block_is_named_once_by_its_command(self, tmp_path, command, config,
                                                            message):
        cfg = write_config(tmp_path, config)
        assert run_main([command, "--config", cfg]) == (1, "", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, n_tiles", [
        ("solve", 361), ("solve", 10**13), ("solve", 10**400), ("sweep", 10**13),
    ], ids=["solve-361", "solve-1e13", "solve-1e400", "sweep-1e13"])
    def test_tile_count_over_the_bound_is_refused(self, tmp_path, capsys, command, n_tiles):
        # one tile per degree at most, refused before any table is sized
        config = TOY_SOLVE if command == "solve" else self.SWEEP
        cfg = write_config(tmp_path, {**config, "N": n_tiles})
        assert main([command, "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "at most 360" in lines[0]

    def test_module_form_runs_main(self, tmp_path):
        # python -m prefetch360.cli reaches main, like the installed script
        def run(payload):
            cfg = write_config(tmp_path, payload)
            return run_python("-m", "prefetch360.cli", "solve", "--config", cfg)

        good = run(TOY_SOLVE)
        assert good.returncode == 0 and good.stderr == ""
        assert json.loads(good.stdout)["levels"] == [2, 1, 0]
        bad = run({**TOY_SOLVE, "capacity": -1})
        lines = bad.stderr.splitlines()
        assert bad.returncode == 1 and bad.stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_cli_imports_without_scipy(self):
        # numpy is the only runtime dependency, and numpy.random loads only where a
        # subcommand draws from it, not at import
        proc = run_python("-c", "import prefetch360.cli, sys; "
                                "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout == "False False\n"

    def test_oversized_dp_table_is_refused_before_allocation(self, tmp_path):
        # the int16 parents tables and value layers would need 2.37 TB
        cfg = write_config(tmp_path, {"rates": list(SIX_LEVEL_RATES), "N": 24,
                                      "capacity": 10**9, "probs": {"family": "uniform"}})
        assert run_main(["solve", "--config", cfg]) == (
            1, "", "error: DP tables and layers need 2366000002366 bytes, over 1073741824\n")

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_dp_value_layers_count_against_the_bound(self, tmp_path, beta):
        # one rate at N=2: the int16 tables of both pins fill exactly 1 GiB, and the two
        # float64 value layers (4 GiB at beta > 0, 2 GiB at beta = 0) were not counted
        cfg = write_config(tmp_path, {"rates": [100], "N": 2, "capacity": 134217727,
                                      "beta": beta, "probs": {"family": "uniform"}})
        tracemalloc.start()
        try:
            result = run_main(["solve", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (
            1, "", "error: DP tables and layers need 5368709120 bytes, over 1073741824\n")
        assert peak < 1 << 20

    def test_internal_failure_returns_2(self, tmp_path, monkeypatch, capsys):
        def explode(inst):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(cli, "solve_dp", explode)
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["solve", "--config", cfg]) == 2
        assert "internal error" in capsys.readouterr().err

    EMPIRICAL_SOLVE = {"rates": [100, 200], "N": 3, "capacity": 300,
                       "probs": {"family": "empirical", "lag_s": 1.0, "stride_s": 0.5}}

    EMPIRICAL_SWEEP = {"rates": list(SIX_LEVEL_RATES), "N": 6, "capacity": [5000],
                       "lags": [1.0, 2.0], "family": {"kind": "empirical", "stride_s": 0.5}}

    @staticmethod
    def empirical_schedule(leads=(5, 1), budgets=(100, 200), **keys):
        return {"rates": [100, 200], "N": 3, **keys,
                "passes": [{"lead_s": lead, "budget": budget,
                            "probs": {"family": "empirical", "stride_s": 0.5}}
                           for lead, budget in zip(leads, budgets)]}

    @pytest.mark.parametrize("command, config, message", [
        ("solve", {**EMPIRICAL_SOLVE, "capacity": -1}, "capacity must be a nonnegative integer"),
        ("solve", {**EMPIRICAL_SOLVE, "beta": 7}, "beta must lie in [0, 1]"),
        ("solve", {**EMPIRICAL_SOLVE, "N": 24, "capacity": 10**8},
         "DP tables and layers need 46200000462 bytes, over 1073741824"),
        ("schedule", empirical_schedule(beta=7), "beta must lie in [0, 1]"),
        ("schedule", empirical_schedule(leads=(1, 5)), "lead times must strictly decrease"),
        ("schedule", empirical_schedule(budgets=(100, -1)),
         "passes[1]: budget must be a nonnegative integer"),
        ("sweep", {**EMPIRICAL_SWEEP, "N": [6, 24], "capacity": [500000]},
         "DP tables and layers need 1183002366 bytes, over 1073741824"),
        ("sweep", {**EMPIRICAL_SWEEP, "N": [6, 361]}, "at most 360"),
        ("sweep", {**EMPIRICAL_SWEEP, "f": [0, 1],
                   "utility": [{"kind": "linear"}, {"kind": "large_screen", "a": 1e300}]},
         "utility: normalized utilities must be finite"),
        # rows of two knob values that print alike at six decimals could not be told apart
        ("sweep", {**EMPIRICAL_SWEEP, "beta": [0.1, 0.1000001]},
         "beta: value 0.100000 is listed twice"),
        ("sweep", {**EMPIRICAL_SWEEP, "f": [1, 1.0]}, "f: value 1.000000 is listed twice"),
        ("sweep", {**EMPIRICAL_SWEEP, "lags": [1, 1.0000001]},
         "lags: value 1.000000 is listed twice"),
        # the stride is checked by the windows' own rule before the cohort is read
        ("solve", {**EMPIRICAL_SOLVE, "probs": {"family": "empirical", "lag_s": 1, "stride_s": 0}},
         "probs: stride_s: stride must be positive and finite"),
        ("sweep", {**EMPIRICAL_SWEEP, "family": {"kind": "empirical", "stride_s": 0}},
         "family: stride_s: stride must be positive and finite"),
        ("schedule", {"rates": [100, 200], "N": 3, "passes": [
            {"lead_s": 5, "budget": 100, "probs": {"family": "empirical", "stride_s": 0}}]},
         "passes[0].probs: stride_s: stride must be positive and finite"),
    ], ids=["solve-capacity-negative", "solve-beta-7", "solve-parents-table",
            "schedule-beta-7", "schedule-leads-increasing", "schedule-budget-negative",
            "sweep-later-N-parents-table", "sweep-later-N-361", "sweep-large-screen-a-1e300",
            "sweep-betas-print-alike", "sweep-f-repeated", "sweep-lags-print-alike",
            "solve-empirical-stride-0", "sweep-empirical-stride-0",
            "schedule-empirical-stride-0"])
    def test_refused_config_parses_no_trace(self, tmp_path, small_cohort, command, config,
                                            message):
        # scalars and the DP table are checked before the first vector is built
        cfg = write_config(tmp_path, config)
        with mock.patch("prefetch360.config.parse_trace", wraps=traces.parse_trace) as parse:
            code, out, err = run_main([command, "--config", cfg, "--traces", str(small_cohort)])
        lines = err.splitlines()
        assert code == 1 and out == "" and len(lines) == 1, (code, lines)
        assert lines[0].startswith("error:") and message in lines[0]
        assert parse.call_count == 0


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

    def test_convolved_value_never_rises_with_the_lag(self, tmp_path):
        # each lag's vector is the one before smoothed once more, and more spread never helps
        cfg = write_config(tmp_path, {
            "rates": [144, 625, 2217], "N": [6, 12], "capacity": [500, 2000, 5000],
            "f": [0, 1, 10], "beta": [0, 0.3], "lags": [1, 2, 3, 4],
            "utility": [{"kind": "linear"}, {"kind": "log"}], "family": {"kind": "convolved"}})
        out = tmp_path / "curves.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        groups = {}
        for row in read_csv(out)[1:]:
            groups.setdefault(tuple(row[:6]), []).append((float(row[6]), float(row[7])))
        assert len(groups) == 2 * 3 * 3 * 2 * 2
        for curve in groups.values():
            values = [value for _, value in sorted(curve)]
            assert len(values) == 4
            # rows carry six decimals
            assert all(b <= a + 1e-6 for a, b in zip(values, values[1:])), curve

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

    def test_convolved_sweep_smooths_once_per_extra_lag(self, tmp_path, monkeypatch):
        # lag i is lag i-1 smoothed once more, with the bytes of a per-lag build
        from prefetch360 import config

        lags = [float(t) for t in range(1, 21)]
        family = {"kind": "convolved", "base_sigma_deg": 20.0, "kernel_sigma_deg": 40.0}
        sweep = {**self.SWEEP, "N": [4, 6], "lags": lags, "family": family}
        calls = []
        smooth = config.circular_smooth
        monkeypatch.setattr(config, "circular_smooth",
                            lambda p, kernel: calls.append(1) or smooth(p, kernel))
        code, _, err = run_main(["sweep", "--config", write_config(tmp_path, sweep)])
        assert code == 0 and err == "" and len(calls) == 2 * (len(lags) - 1)

        _, _, groups = config.parse_sweep(sweep)
        assert [(n, lag) for (_, n, _, _, lag), _ in groups] == [
            (n, lag) for n in (4, 6) for _ in sweep["beta"] for lag in lags]
        spec = {**family, "family": "convolved"}
        for (_, n, _, _, lag), inst in groups:
            per_lag = config.build_probs({**spec, "lag_s": lag, "steps": lags.index(lag)},
                                         DirectionGrid(n))
            assert np.array_equal(inst.probs, per_lag)

    REFUSED_BASE = {"rates": list(SIX_LEVEL_RATES), "N": 6, "capacity": [5000], "lags": [1, 2],
                    "family": {"kind": "wrapped_gaussian_sqrt"}}

    @pytest.mark.parametrize("keys, message", [
        ({"N": [6, 361]}, "at most 360"),
        ({"f": [1, -1]}, "stall penalty"),
        ({"beta": [0.1, 7]}, "beta must lie in [0, 1]"),
        ({"capacity": [100, -1]}, "capacity"),
        ({"N": [2, 24], "capacity": [500000]},
         "DP tables and layers need 1183002366 bytes, over 1073741824"),
        ({"N": [2, 6], "family": {"kind": "explicit", "values": [0.5, 0.5]}},
         "need 6 tile probabilities"),
    ], ids=["N-361", "f-negative", "beta-7", "capacity-negative", "parents-table",
            "explicit-short-for-N"])
    def test_refused_config_runs_no_dp(self, tmp_path, keys, message):
        # the whole config is checked before the first solve
        cfg = write_config(tmp_path, {**self.REFUSED_BASE, **keys})
        with mock.patch.object(cli, "solve_dp", wraps=cli.solve_dp) as solve:
            code, out, err = run_main(["sweep", "--config", cfg])
        lines = err.splitlines()
        assert code == 1 and out == "" and len(lines) == 1, (code, lines)
        assert lines[0].startswith("error:") and message in lines[0]
        assert solve.call_count == 0

    LIST_KEYS = ("lags", "N", "capacity", "beta", "f")

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        kind = data.draw(st.sampled_from(sorted(FAMILIES)))
        config = {"rates": [100, 200], "N": 3, "capacity": [100, 300], "lags": [1.0, 2.0],
                  "family": {"kind": kind, **FAMILIES[kind]}}
        keys = self.LIST_KEYS + ("delta",) + tuple(f"family.{k}" for k in FAMILIES[kind])
        draw_odd_keys(data, config, keys, self.LIST_KEYS)
        path = small_cohort.parent / "sweep-fuzz.json"
        path.write_text(json.dumps(config))
        with mock.patch.object(cli, "solve_dp", wraps=cli.solve_dp) as solve:
            code = assert_exit_0_or_1(["sweep", "--config", str(path), "--traces",
                                       str(small_cohort)],
                                      "family,utility,N,C,f,beta,T,value,levels\n")
        # a refused sweep runs no DP at all
        assert code == 0 or solve.call_count == 0

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

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        # the first pass takes the odd values; its lead time is also its probability lag
        kind = data.draw(st.sampled_from(sorted(FAMILIES)))
        probs = {"family": kind, "steps": 1, **FAMILIES[kind]}
        config = {"rates": [100, 200], "N": 3,
                  "size_model": {"mode": "svc_ideal", "overhead": 0.1},
                  "passes": [{"lead_s": 5.0, "budget": 100, "probs": probs},
                             {"lead_s": 1.0, "budget": 200, "probs": {"family": "uniform"}}]}
        keys = INSTANCE_KEYS + ("size_model.mode", "size_model.overhead", "passes.0.lead_s",
                                "passes.0.budget")
        keys += tuple(f"passes.0.probs.{k}" for k in probs if k != "family")
        draw_odd_keys(data, config, keys, ("rates",))
        path = small_cohort.parent / "schedule-fuzz.json"
        path.write_text(json.dumps(config))
        with mock.patch.object(scheduler, "solve_dp", wraps=scheduler.solve_dp) as solve:
            code = assert_exit_0_or_1(["schedule", "--config", str(path), "--traces",
                                       str(small_cohort)], "pass,lead_s,budget,levels,value\n")
        # a refused schedule runs no DP at all
        assert code == 0 or solve.call_count == 0

    @pytest.mark.parametrize("n_tiles, passes, message", [
        (6, [(5, 300, [0.5, 0.5])], "need 6 tile probabilities"),
        (3, [(5, 300, [0.5, 0.5]), (1, 300, list(TOY_PROBS))], "need 3 tile probabilities"),
        (6, [(5, 300, [1 / 6] * 6), (1, 10**9, [1 / 6] * 6)],
         "DP tables and layers need 138000000138 bytes, over 1073741824"),
    ], ids=["explicit-short-for-N", "mixed-lengths", "parents-table"])
    def test_refused_config_runs_no_dp(self, tmp_path, n_tiles, passes, message):
        # the whole schedule is checked before the first pass solves
        cfg = write_config(tmp_path, {
            "rates": [100, 200], "N": n_tiles,
            "passes": [{"lead_s": lead, "budget": budget,
                        "probs": {"family": "explicit", "values": values}}
                       for lead, budget, values in passes],
        })
        with mock.patch.object(scheduler, "solve_dp", wraps=scheduler.solve_dp) as solve:
            code, out, err = run_main(["schedule", "--config", cfg])
        lines = err.splitlines()
        assert code == 1 and out == "" and len(lines) == 1, (code, lines)
        assert lines[0].startswith("error:") and message in lines[0]
        assert solve.call_count == 0


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
        bogus = SolveReport(Selection((0, 0, 0), 99.0), "dp", SolveStats(0))
        monkeypatch.setattr(cli, "solve_dp", lambda inst: bogus)
        cfg = write_config(tmp_path, TOY_SOLVE)
        assert main(["oracle", "--config", cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is False
        assert payload["mismatches"]

    def test_bad_batch_count(self, tmp_path):
        cfg = write_config(tmp_path, {"batch": {"count": 0}})
        assert main(["oracle", "--config", cfg]) == 1

    def test_instance_too_big_for_brute_force_runs_no_dp(self, tmp_path):
        # 7^9 assignments are over the brute-force limit, so the DP would be wasted work
        cfg = write_config(tmp_path, {"rates": list(SIX_LEVEL_RATES), "N": 9,
                                      "capacity": 60000, "probs": {"family": "uniform"}})
        with mock.patch.object(cli, "solve_dp", wraps=cli.solve_dp) as solve:
            result = run_main(["oracle", "--config", cfg])
        assert result == (
            1, "", "error: 40353607 assignments exceed the brute-force limit 10000000\n")
        assert solve.call_count == 0

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        # a random batch, or one instance of any family as solve reads it
        if data.draw(st.booleans()):
            config = {"batch": {"count": 3}}
            keys = ("batch.count",)
        else:
            kind = data.draw(st.sampled_from(sorted(FAMILIES)))
            probs = {"family": kind, "lag_s": 1.0, "steps": 1, **FAMILIES[kind]}
            config = {"rates": [100, 200], "N": 3, "capacity": 300, "probs": probs}
            keys = INSTANCE_KEYS + ("capacity",) + tuple(f"probs.{k}" for k in probs if k != "family")
        draw_odd_keys(data, config, keys, ("rates",))
        path = small_cohort.parent / "oracle-fuzz.json"
        path.write_text(json.dumps(config))
        assert_exit_0_or_1(["oracle", "--config", str(path), "--traces", str(small_cohort)], "{")


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

    def test_default_kinds_write_pinned_bytes(self, tmp_path, capsys):
        # two viewers of every cohort kind; the digest covers each file's name and bytes
        cfg = write_config(tmp_path, {"count_per_kind": 2, "duration_s": 30, "rate_hz": 10})
        out = tmp_path / "traces"
        assert main(["gen-traces", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        assert len(json.loads(capsys.readouterr().out)["written"]) == 12
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == \
            "997e4d07a181640967ea963b7414e2f84183b419b2634d5e2b4be20de1fe1421"

    def test_out_is_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kinds": ["constant"]})
        assert main(["gen-traces", "--config", cfg]) == 1

    # two samples of 1e308 s: a rotation's yaw, rate_dps * t, would overflow to inf
    @pytest.mark.parametrize("duration, rate, kinds", [
        (1e12, 50, ["constant"]), (1e300, 1e300, ["constant"]), (1e308, 1e-308, ["rotation"]),
    ], ids=["364-TiB", "inf-samples", "rotation-overflow"])
    def test_oversized_trace_is_refused_before_allocation(self, tmp_path, duration, rate, kinds):
        cfg = write_config(tmp_path, {"kinds": kinds, "count_per_kind": 1,
                                      "duration_s": duration, "rate_hz": rate})
        out_dir = tmp_path / "traces"
        code, out, err = run_main(["gen-traces", "--config", cfg, "--out", str(out_dir)])
        lines = err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, lines)
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, key", [
        ({"kinds": ["constant", "explore"], "duration_s": 10}, "duration_s"),
        ({"kinds": ["walk"], "duration_s": 0.5, "rate_hz": 1}, "duration_s"),
        ({"kinds": ["constant"], "count_per_kind": 10**18, "duration_s": 5}, "count_per_kind"),
        ({"kinds": ["constant"], "count_per_kind": 2**63, "duration_s": 5}, "count_per_kind"),
        ({"kinds": []}, "kinds"),
        ({"kinds": ["walk", "walk"]}, "kinds"),
    ], ids=["explore-before-its-split", "one-sample", "count-1e18", "count-2^63",
            "no-kinds", "repeated-kind"])
    def test_refused_config_creates_nothing(self, tmp_path, config, key):
        out = tmp_path / "traces"
        code, _, err = run_main(["gen-traces", "--config", write_config(tmp_path, config),
                                 "--out", str(out)])
        lines = err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]
        assert not out.exists()

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        config = {"kinds": ["constant", "explore"], "count_per_kind": 1, "duration_s": 30,
                  "rate_hz": 5}
        draw_odd_keys(data, config, tuple(config), ("kinds",))
        path = small_cohort.parent / "gen-fuzz.json"
        path.write_text(json.dumps(config))
        out = small_cohort.parent / "gen-fuzz"
        shutil.rmtree(out, ignore_errors=True)
        code = assert_exit_0_or_1(["gen-traces", "--config", str(path), "--out", str(out)],
                                  '{\n  "dir"')
        assert code == 0 or not out.exists()


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
            "metrics": ["utilization", "heatmap", "yaw_change", "velocity_error", "pairwise"],
            "lags": [1.0], "pairwise_step_s": 1.0,
        }, name="analyze.json")
        out = tmp_path / "report.csv"
        assert main(["analyze", "--config", cfg, "--traces", str(trace_dir),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["metric", "group", "stat", "value"]
        metrics = {row[0] for row in rows[1:]}
        assert {"utilization", "heatmap", "yaw_change", "velocity_error", "pairwise",
                "reference"} <= metrics
        # a (metric, group, stat) key names one row
        keys = [tuple(row[:3]) for row in rows[1:]]
        assert len(set(keys)) == len(keys)
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

    @pytest.mark.parametrize("config, message", [
        ({"metrics": []}, "metrics: expected a non-empty list"),
        ({"metrics": ["yaw_change", "yaw_change"]}, "metrics: metric 'yaw_change' is listed twice"),
        ({"metrics": ["yaw_change"], "lags": [1, 2, 1.0]}, "lags: lag 1 is listed twice"),
        # two lag_s=1 groups would interleave their rows
        ({"metrics": ["yaw_change"], "lags": [1, 1.0000001]}, "lags: lag 1 is listed twice"),
        # a requested metric's knob values pass its analytic's rules, named by their keys
        ({"metrics": ["yaw_change"], "stride_s": 0}, "stride_s: stride must be positive and finite"),
        ({"metrics": ["heatmap"], "yaw_bin_deg": 7},
         "yaw_bin_deg: yaw bin width must divide 360 evenly into at most 10000000 bins"),
        ({"metrics": ["heatmap"], "pitch_bin_deg": 7},
         "pitch_bin_deg: pitch bin width must divide 180 evenly into at most 10000000 bins"),
        ({"metrics": ["heatmap"], "yaw_bin_deg": 0.001, "pitch_bin_deg": 0.01},
         "yaw_bin_deg and pitch_bin_deg: a 360000 x 18000 heatmap has more than 10000000 cells"),
        # 720,000 yaw bins: edges such as -100.2695 and -100.269 both print as -100.269
        ({"metrics": ["heatmap"], "yaw_bin_deg": 0.0005, "pitch_bin_deg": 180},
         "yaw_bin_deg: must be at least 0.001 deg, the resolution of the heatmap's edge labels"),
        ({"metrics": ["heatmap"], "yaw_bin_deg": 360, "pitch_bin_deg": 0.0005},
         "pitch_bin_deg: must be at least 0.001 deg, the resolution of the heatmap's edge labels"),
        ({"metrics": ["pairwise"], "pairwise_step_s": 0},
         "pairwise_step_s: must be at least 0.01 s, the resolution of the t_s= labels"),
        # rows labelled t_s=0.00 twice could not be told apart
        ({"metrics": ["pairwise"], "pairwise_step_s": 0.004},
         "pairwise_step_s: must be at least 0.01 s, the resolution of the t_s= labels"),
        ({"metrics": ["velocity_error"], "vel_threshold_dps": -1},
         "vel_threshold_dps: velocity threshold must be nonnegative"),
        ({"metrics": ["velocity_error"], "safety_angle_deg": -1},
         "safety_angle_deg: safety angle must be nonnegative"),
        ({"metrics": ["origin_sectors"], "sector_deg": 7},
         "sector_deg: sector width must divide 360 evenly into at most 10000000 bins"),
        ({"metrics": ["phase_split"], "split_s": 0}, "split_s: split time must be positive"),
    ], ids=["metrics-empty", "metric-repeated", "lag-repeated", "lags-print-alike",
            "stride-0", "yaw-bin-7", "pitch-bin-7", "heatmap-cells", "yaw-bin-below-label",
            "pitch-bin-below-label", "pairwise-step-0",
            "pairwise-step-below-label", "velocity-threshold-negative", "safety-angle-negative",
            "sector-7", "split-0"])
    def test_refused_config_parses_no_trace(self, tmp_path, trace_dir, config, message):
        cfg = write_config(tmp_path, config, name="analyze.json")
        with mock.patch("prefetch360.config.parse_trace") as parse:
            code, out, err = run_main(["analyze", "--config", cfg, "--traces", str(trace_dir)])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert parse.call_count == 0

    def test_heatmap_labels_are_distinct_at_the_bin_floor(self, tmp_path):
        # parse_trace rebases yaw to start at 0, so a sample at 0 leads one at the centre of
        # every 0.001 deg yaw bin; the same samples cover every pitch bin twice
        i = np.arange(360_000)
        yaw = np.concatenate([[0.0], -180.0 + 0.001 * (i + 0.5)])
        pitch = np.concatenate([[0.0], -90.0 + 0.001 * (i % 180_000 + 0.5)])
        zero = np.zeros(yaw.size)
        trace = traces.HeadTrace(0.01 * np.arange(yaw.size), yaw, pitch, zero, zero, zero, zero)
        (tmp_path / "traces").mkdir()
        traces.write_trace(trace, tmp_path / "traces" / "t.csv")
        for bins, count in (({"yaw_bin_deg": 0.001, "pitch_bin_deg": 180}, 360_000),
                            ({"yaw_bin_deg": 360, "pitch_bin_deg": 0.001}, 180_000)):
            cfg = write_config(tmp_path, {"metrics": ["heatmap"], **bins}, name="analyze.json")
            code, out, err = run_main(["analyze", "--config", cfg,
                                       "--traces", str(tmp_path / "traces")])
            assert (code, err) == (0, "")
            groups = [row[1] for row in csv.reader(io.StringIO(out)) if row[0] == "heatmap"]
            assert len(set(groups)) == len(groups) == count

    @pytest.mark.parametrize("config", [
        {"metrics": ["heatmap"], "stride_s": 0},
        {"metrics": ["utilization"], "stride_s": 0, "yaw_bin_deg": 7, "pitch_bin_deg": 7,
         "pairwise_step_s": 0, "vel_threshold_dps": -1, "safety_angle_deg": -1,
         "sector_deg": 7, "split_s": 0},
    ], ids=["heatmap-stride-0", "utilization-every-knob-out-of-range"])
    def test_knobs_of_unrequested_metrics_go_unchecked(self, tmp_path, trace_dir, config):
        cfg = write_config(tmp_path, config, name="analyze.json")
        code, out, err = run_main(["analyze", "--config", cfg, "--traces", str(trace_dir)])
        assert (code, err) == (0, "") and out.startswith("metric,group,stat,value\n")

    @pytest.mark.parametrize("metrics", [{}, {"metrics": [
        "phase_split", "origin_sectors", "velocity_error", "yaw_change", "pairwise", "heatmap",
        "utilization"]}], ids=["default-order", "reversed"])
    def test_every_metric_writes_pinned_bytes(self, tmp_path, capsys, metrics):
        # all seven metrics, three lags, two viewers of every cohort kind: 375 lines
        cfg = write_config(tmp_path, {"count_per_kind": 2, "duration_s": 30, "rate_hz": 10})
        out = tmp_path / "traces"
        assert main(["gen-traces", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, {"lags": [0.5, 1, 2], **metrics}, name="analyze.json")
        code, report, err = run_main(["analyze", "--config", cfg, "--traces", str(out)])
        assert (code, err, report.count("\n")) == (0, "", 375)
        assert hashlib.sha256(report.encode()).hexdigest() == \
            "44f903721f146dd9025af10041476679b9dbaa59b02e42ddcf312dd91aacd4a1"

    def test_requires_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"metrics": ["utilization"]})
        assert main(["analyze", "--config", cfg]) == 1
        assert "--traces" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """Two kinds x two traces, 30 s at 10 Hz."""
    root = tmp_path_factory.mktemp("cohort")
    gen = root / "gen.json"
    gen.write_text(json.dumps({"kinds": ["rotation", "walk"], "count_per_kind": 2,
                               "duration_s": 30, "rate_hz": 10}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-traces", "--config", str(gen), "--out", str(root / "traces")]) == 0
    return root / "traces"


class TestAnalyzeLimits:
    # warnings become errors, so a numpy warning (a second stderr line) fails the case
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, config, message", [
        ("analyze", {"metrics": ["origin_sectors"], "lags": [100]}, "lag must be shorter"),
        ("analyze", {"metrics": ["velocity_error"], "lags": [100]}, "lag must be shorter"),
        ("analyze", {"metrics": ["phase_split"], "lags": [100]}, "lag must be shorter"),
        ("analyze", {"metrics": ["yaw_change"], "stride_s": 1e-12}, "windows, more than"),
        ("analyze", {"metrics": ["yaw_change"], "stride_s": math.inf}, "stride must be positive"),
        ("analyze", {"metrics": ["heatmap"], "yaw_bin_deg": 1e-9}, "divide 360"),
        ("analyze", {"metrics": ["heatmap"], "yaw_bin_deg": 0.001, "pitch_bin_deg": 0.01},
         "cells"),
        ("analyze", {"metrics": ["origin_sectors"], "sector_deg": 1e-300}, "divide 360"),
        ("analyze", {"metrics": ["origin_sectors"], "sector_deg": math.inf}, "divide 360"),
        ("analyze", {"metrics": ["pairwise"], "pairwise_step_s": 1e-12}, "pairwise_step_s"),
        ("analyze", {"metrics": ["yaw_change"], "stride_s": 10**400}, "stride_s"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "empirical", "lag_s": 1.0, "stride_s": 1e-12}},
         "windows, more than"),
        ("solve", {**TOY_SOLVE, "probs": {"family": "wrapped_gaussian_sqrt", "sigma0_deg": 1e300,
                                          "lag_s": 1e300}}, "sigma must be positive"),
        ("solve", {**TOY_SOLVE, "rates": [1e300], "delta": 1e300}, "below 2^53"),
    ], ids=["origin-sectors-long-lag", "velocity-error-long-lag", "phase-split-long-lag",
            "stride-tiny", "stride-inf", "yaw-bin-tiny", "heatmap-too-many-cells",
            "sector-tiny", "sector-inf", "pairwise-step-tiny", "stride-huge-int",
            "solve-empirical-stride-tiny", "solve-sqrt-spread-overflow",
            "solve-chunk-size-overflow"])
    def test_out_of_range_knobs_exit_1(self, tmp_path, capsys, small_cohort, command, config,
                                       message):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--traces", str(small_cohort)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]

    @pytest.mark.parametrize("command, config", [
        ("analyze", {"metrics": ["yaw_change"], "stride_s": 2**63}),
        ("solve", {**TOY_SOLVE, "probs": {"family": "empirical", "lag_s": 1.0, "stride_s": 10**19}}),
    ], ids=["analyze-stride-2^63", "solve-stride-1e19"])
    def test_integer_past_int64_in_a_number_key_runs(self, tmp_path, small_cohort, command,
                                                      config):
        # one window per trace; numpy could not hold the stride as an int64
        code, out, err = run_main([command, "--config", write_config(tmp_path, config),
                                   "--traces", str(small_cohort)])
        assert code == 0 and err == ""

    NUMERIC_KEYS = ("stride_s", "vel_threshold_dps", "safety_angle_deg", "sector_deg", "split_s",
                    "yaw_bin_deg", "pitch_bin_deg", "pairwise_step_s")
    METRICS = ("utilization", "heatmap", "pairwise", "yaw_change", "velocity_error",
               "origin_sectors", "phase_split")

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_1_with_one_error_line(self, small_cohort, data):
        config = {"metrics": data.draw(st.lists(st.sampled_from(self.METRICS), min_size=1,
                                                max_size=3, unique=True))}
        draw_odd_keys(data, config, ("lags",) + self.NUMERIC_KEYS, ("lags",))
        path = small_cohort.parent / "fuzz.json"
        path.write_text(json.dumps(config))
        assert_exit_0_or_1(["analyze", "--config", str(path), "--traces", str(small_cohort)],
                           "metric,group,stat,value\n")


class TestTraceFiles:
    """``analyze`` on a directory holding one malformed trace file, maybe with a sidecar."""

    PLAIN = "t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,10,0,0\n2,20,0,0\n"

    @staticmethod
    def analyze(root, csv_bytes, sidecar=None, config=None):
        traces_dir = root / "traces"
        traces_dir.mkdir()
        (traces_dir / "t.csv").write_bytes(csv_bytes)
        if sidecar is not None:
            (traces_dir / "t.json").write_bytes(sidecar)
        cfg = write_config(root, config or {"metrics": ["utilization", "yaw_change"],
                                            "lags": [0.5]})
        return ["analyze", "--config", cfg, "--traces", str(traces_dir)]

    @pytest.mark.parametrize("csv_text, sidecar, message", [
        (PLAIN, b"[" * 100_000, "t.json: invalid JSON"),
        (f"t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,{'0' * 131073},0,0\n", None,
         "t.csv:3: field larger than field limit"),
        (f"t_s,yaw_deg,pitch_deg,roll_deg,{'x' * 131073}\n0,0,0,0,0\n1,0,0,0,0\n", None,
         "t.csv:1: field larger than field limit"),
        (f"t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n1,1{'0' * 5000},0,0\n", None,
         "t.csv: yaw_deg contains non-finite samples"),
        ("t_s,yaw_deg,pitch_deg,roll_deg,yaw_deg\n0,0,0,0,0\n1,0,0,0,0\n", None,
         "t.csv: duplicate columns ['yaw_deg']"),
        ("t_s,yaw_deg,pitch_deg,roll_deg\n-1e308,0,0,0\n1e308,0,0,0\n", None,
         "t.csv: timestamps must span a finite duration"),
        ("t_s,yaw_deg,pitch_deg,roll_deg\n0,0,0,0\n5e-324,90,0,0\n", None,
         "t.csv: yaw_vel contains non-finite samples"),
        (PLAIN, b'{"video_id": [1, {"a": null}]}', "t.json: video_id must be a string"),
        (PLAIN, b'{"category": 1e400}', "t.json: category must be a string"),
    ], ids=["sidecar-too-deep", "field-over-the-csv-limit", "header-field-over-the-csv-limit",
            "yaw-overflows-to-inf", "duplicate-column", "timestamp-span-overflows",
            "derived-velocity-overflows", "sidecar-id-not-a-string",
            "sidecar-category-not-a-string"])
    def test_refused_trace_exits_1_with_one_error_line(self, tmp_path, csv_text, sidecar,
                                                       message):
        code, out, err = run_main(self.analyze(tmp_path, csv_text.encode(), sidecar))
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_fuzzed_trace_file_exits_0_or_1_with_one_error_line(self, tmp_path_factory, data):
        metrics = data.draw(st.lists(st.sampled_from(TestAnalyzeLimits.METRICS), min_size=1,
                                     max_size=3, unique=True))
        argv = self.analyze(tmp_path_factory.mktemp("trace"), data.draw(trace_csv_bytes()),
                            data.draw(st.none() | st.sampled_from(SIDECARS)),
                            {"metrics": metrics, "lags": [0.5], "stride_s": 0.5})
        assert_exit_0_or_1(argv, "metric,group,stat,value\n")


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_stdout_is_pinned(demo):
    # demos/expected holds each demo's stdout, byte for byte; a demo without one fails
    proc = run_python(str(demo))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (DEMOS / "expected" / f"{demo.stem}.txt").read_text()
