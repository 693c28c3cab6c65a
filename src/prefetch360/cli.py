"""Command-line front end.

Subcommands:
  solve       optimize one instance, emit JSON
  sweep       cross-product of knobs over a lag grid, emit CSV curves
  schedule    run a layered prefetch plan, emit the state trajectory
  analyze     head-trace analytics, emit long-format CSV
  oracle      cross-check the DP against the exhaustive reference solver
  gen-traces  write synthetic head traces for the analytics to chew on

Exit codes: 0 success, 1 refused input (any ValueError or OSError: a bad
argument, config or trace file, printed as one ``error:`` line), 2 runtime
failure (including an oracle mismatch).  CSV output uses 6 decimal places and a
deterministic row order, so identical configs and seeds produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    _fmt,
    _lag_label,
    load_json,
    load_traces,
    parse_analyze,
    parse_gen,
    parse_instance,
    parse_oracle,
    parse_schedule,
    parse_sweep,
)
from .model import (
    DirectionGrid,
    Instance,
    QualityLadder,
    UtilityModel,
    eval_objective,
    selection_size,
)
from .optimizer import brute_force, solve_dp, solve_mckp
from .scheduler import run_plan
from .synth import COHORT
from .traces import (
    angle_utilization_cdf,
    heatmap,
    origin_conditioned_change,
    pairwise_angular_difference,
    phase_split_cdf,
    velocity_prediction_error,
    write_trace,
    yaw_change_cdf,
)

# Published head-motion reference bands, emitted as annotations for context.
REFERENCE_BANDS = (
    ("reference", "pairwise_uniform_baseline", "mean_deg", 90.0),
    ("reference", "yaw_change_1s", "p99_abs_deg", 28.0),
    ("reference", "velocity_sign_agreement_1s", "fraction", 0.97),
    ("reference", "exploration_phase", "duration_s", 20.0),
)

ORACLE_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _seed(text: str) -> int:
    # numpy refuses a negative seed in words that name no flag
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each subcommand's ``run`` is its ``cmd_*``."""
    parser = _Parser(prog="prefetch360",
                     description="Tile-quality prefetch optimization and trace analytics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, traces=True, seed=False, out_required=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=out_required, default=None,
                       help="output path (default: stdout)")
        if traces:
            p.add_argument("--traces", default=None, help="directory of head-trace CSVs")
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="RNG seed")

    add("solve", cmd_solve, "optimize one instance")
    add("sweep", cmd_sweep, "optimal-value curves over a lag grid")
    add("schedule", cmd_schedule, "run a layered prefetch plan")
    add("analyze", cmd_analyze, "head-trace analytics")
    add("oracle", cmd_oracle, "cross-check DP against brute force", seed=True)
    add("gen-traces", cmd_gen_traces, "write synthetic head traces", traces=False, seed=True,
        out_required=True)
    return parser


def _emit_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(payload, out) -> None:
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(header, rows, out) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(buf.getvalue(), out)


def cmd_solve(args) -> int:
    inst = parse_instance(load_json(args.config), args.traces)
    report = solve_dp(inst)
    _emit_json({
        "method": report.method,
        "value": report.value,
        "levels": list(report.selection.levels),
        "spend": selection_size(report.selection, inst),
        "capacity": inst.capacity,
        "subproblems": report.stats.subproblems,
    }, args.out)
    return 0


def cmd_sweep(args) -> int:
    label, caps, groups = parse_sweep(load_json(args.config), args.traces)
    results = []
    for (ulabel, n, f, beta, lag), inst in groups:
        # one DP at the largest budget answers every capacity of the group
        report = solve_dp(inst, caps)
        for cap, selection in zip(caps, report.selections):
            # row values re-evaluate bit-exactly by construction
            results.append((label, ulabel, n, cap, f, beta, lag, eval_objective(selection, inst),
                            "|".join(str(l) for l in selection.levels)))

    results.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5], r[6]))
    rows = [(family, ulabel, n, c, _fmt(f), _fmt(beta), _fmt(lag), _fmt(value), levels)
            for family, ulabel, n, c, f, beta, lag, value, levels in results]
    _emit_csv(("family", "utility", "N", "C", "f", "beta", "T", "value", "levels"), rows, args.out)
    return 0


def cmd_schedule(args) -> int:
    plan, ladder, utility, beta, size_model = parse_schedule(load_json(args.config), args.traces)
    results = run_plan(plan, ladder, utility, beta, size_model)
    rows = [(i, _fmt(booking.lead_time_s), booking.budget,
             "|".join(str(int(x)) for x in r.state.levels), _fmt(r.value))
            for i, (booking, r) in enumerate(zip(plan.passes, results))]
    _emit_csv(("pass", "lead_s", "budget", "levels", "value"), rows, args.out)
    return 0


def _describe_rows(metric, group, cdf):
    return [(metric, group, stat, _fmt(v)) for stat, v in sorted(cdf.describe().items())]


def cmd_analyze(args) -> int:
    spec = parse_analyze(load_json(args.config))
    traces = load_traces(args.traces, spec["category"])
    metrics, stride = spec["metrics"], spec["stride_s"]
    rows = []
    if "utilization" in metrics:
        for axis in ("yaw", "pitch", "roll"):
            rows += _describe_rows("utilization", axis, angle_utilization_cdf(traces, axis))
    if "heatmap" in metrics:
        freq, yaw, pitch = heatmap(traces, spec["yaw_bin_deg"], spec["pitch_bin_deg"])
        rows += [("heatmap", f"yaw[{yaw[i]:g},{yaw[i + 1]:g})|pitch[{pitch[j]:g},{pitch[j + 1]:g})",
                  "freq", _fmt(freq[i, j])) for i, j in zip(*np.nonzero(freq))]
    if "pairwise" in metrics:
        times, mean_diff = pairwise_angular_difference(traces, spec["pairwise_step_s"])
        rows += [("pairwise", "all", f"t_s={t:.2f}", _fmt(v)) for t, v in zip(times, mean_diff)]
    for lag in spec["lags"]:
        group = f"lag_s={_lag_label(lag)}"
        if "yaw_change" in metrics:
            rows += _describe_rows("yaw_change", group, yaw_change_cdf(traces, lag, stride))
        if "velocity_error" in metrics:
            rate = velocity_prediction_error(traces, lag, spec["vel_threshold_dps"],
                                             spec["safety_angle_deg"], stride)
            rows.append(("velocity_error", group, "error_rate", _fmt(rate)))
        if "origin_sectors" in metrics:
            sectors = origin_conditioned_change(traces, lag, spec["sector_deg"], stride)
            for s, cdf in sectors.items():
                rows += _describe_rows("origin_sectors", f"{group}|sector={s}", cdf)
        if "phase_split" in metrics:
            early, late = phase_split_cdf(traces, lag, spec["split_s"], stride)
            rows += _describe_rows("phase_split", f"{group}|exploration", early)
            rows += _describe_rows("phase_split", f"{group}|steady", late)
    rows.sort()
    rows += [(m, g, s, _fmt(v)) for m, g, s, v in REFERENCE_BANDS]
    _emit_csv(("metric", "group", "stat", "value"), rows, args.out)
    return 0


def _random_instance(rng: np.random.Generator, max_tiles=5, max_levels=3, max_capacity=800) -> Instance:
    n_tiles = int(rng.integers(2, max_tiles + 1))
    n_levels = int(rng.integers(1, max_levels + 1))
    rates = np.sort(rng.choice(np.arange(50, 2000), size=n_levels, replace=False)).astype(float)
    ladder = QualityLadder(tuple(rates), chunk_s=1.0,
                           stall_penalty=float(rng.choice([0.0, 0.1, 1.0, 10.0])))
    kind = str(rng.choice(["linear", "sqrt", "log", "large_screen"]))
    # theta below the lowest rate keeps large_screen utilities positive
    utility = UtilityModel(kind, theta_kbps=40.0) if kind == "large_screen" else UtilityModel(kind)
    p = rng.dirichlet(np.ones(n_tiles))
    beta = 0.0 if rng.random() < 0.5 else float(np.round(rng.uniform(0.0, 1.0), 3))
    capacity = int(rng.integers(0, max_capacity + 1))
    return Instance(DirectionGrid(n_tiles), ladder, utility, p / p.sum(), capacity, beta)


def cmd_oracle(args) -> int:
    cfg = load_json(args.config)
    count = parse_oracle(cfg)
    if count is None:
        checks = [("config", parse_instance(cfg, args.traces))]
    else:
        rng = np.random.default_rng(args.seed)
        checks = [(f"batch[{i}]", _random_instance(rng)) for i in range(count)]

    mismatches = []
    max_gap = 0.0
    dp = exhaustive = None
    for name, inst in checks:
        # brute force refuses an instance too big to enumerate before the DP runs
        exhaustive = brute_force(inst)
        dp = solve_dp(inst)
        gap = abs(dp.value - exhaustive.value)
        max_gap = max(max_gap, gap)
        if gap > ORACLE_TOL:
            mismatches.append({"instance": name, "dp": dp.value, "brute_force": exhaustive.value})
        if inst.beta == 0.0:
            knapsack = solve_mckp(inst)
            if knapsack.value != dp.value:
                mismatches.append({"instance": name, "dp": dp.value, "mckp": knapsack.value})
    payload = {
        "checked": len(checks),
        "max_abs_gap": max_gap,
        "tolerance": ORACLE_TOL,
        "mismatches": mismatches,
        "match": not mismatches,
    }
    if len(checks) == 1:
        payload["dp"] = {"value": dp.value, "levels": list(dp.selection.levels)}
        payload["brute_force"] = {"value": exhaustive.value,
                                  "levels": list(exhaustive.selection.levels)}
    _emit_json(payload, args.out)
    return 0 if not mismatches else 2


def cmd_gen_traces(args) -> int:
    spec = parse_gen(load_json(args.config))
    out_dir = Path(args.out)
    duration, rate = spec["duration_s"], spec["rate_hz"]
    written = []
    for k, kind in enumerate(spec["kinds"]):
        for i in range(spec["count"]):
            trace = COHORT[kind](i, duration, rate, np.random.default_rng([args.seed, k, i]),
                                 video_id=kind, user_id=f"u{i:03d}")
            # created only once a trace exists, so a refused config leaves nothing behind
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{kind}_{i:03d}.csv"
            write_trace(trace, path)
            written.append(path.name)
    _emit_json({"dir": str(out_dir), "written": sorted(written)}, None)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
