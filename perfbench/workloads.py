"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Every workload is a closed loop with one client that calls
``prefetch360.cli.main`` in the benchmark's own process.  A workload is cut
into units (one planning request, one sweep, or one gen-traces + analyze
cycle); the runner times the CLI calls of each unit and repeats units until
the run length is reached.  All configs and input directories are written by
``prepare`` before timing starts, and every output is checked afterwards.
"""

import csv
import hashlib
import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from prefetch360 import cli
from prefetch360.config import load_traces, parse_instance, parse_schedule
from prefetch360.model import DirectionGrid, Instance, QualityLadder, UtilityModel
from prefetch360.model import eval_objective, selection_size
from prefetch360.optimizer import brute_force, solve_mckp
from prefetch360.scheduler import TileState, upgrade_sizes
from prefetch360.viewprob import discretize, empirical_yaw_change
from tracer import ANALYTICS, TARGETS

RATES = [144, 268, 625, 1124, 2217, 4198]
UTILITY = {"kind": "large_screen"}
GEN_KINDS = ["constant", "rotation", "sinusoid", "uniform", "walk", "explore"]
ANALYZE_METRICS = ["utilization", "heatmap", "pairwise", "yaw_change", "velocity_error",
                   "origin_sectors", "phase_split"]
# solve_dp's value matches eval_objective to this tolerance (tests/test_optimizer.py)
REEVAL_TOL = 1e-12
DESCRIBE_ORDER = ("min", "p01", "p25", "median", "p75", "p99", "max")


class Workload:
    """Base class: subclasses set the class attributes and the four hooks."""

    name = ""
    item = ""            # what one completed item is, for rates and failure counts
    unit_items = 1       # items one unit completes
    min_units = 1        # units every run completes, and the fixed work of a traced run
    max_units = 1 << 30  # units whose configs exist
    expected_spans: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write every config and input directory the units need."""

    def calls(self, unit: int, tag: str) -> list:
        """CLI argument lists of one unit; ``tag`` keeps output dirs of passes apart."""
        raise NotImplementedError

    def warmup_calls(self) -> list:
        """Untimed CLI calls that run first, so lazy set-up is not timed."""
        return self.calls(0, "warmup")

    def op_seconds(self, record) -> list:
        """Latencies of the operations a user waits for: by default the whole unit."""
        return [record.seconds]

    def collect(self, unit: int, tag: str, outputs: list):
        """Gather evidence right after a unit (outside timing); may clean up."""
        return None

    def check(self, unit: int, outputs: list, evidence) -> tuple[int, list]:
        """Returns (failed items, messages)."""
        raise NotImplementedError

    def digest(self, outputs: list, evidence) -> str:
        """Digest of the unit's output bytes."""
        return sha(*(out for _, out, _ in outputs))

    def report(self, records) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}

    def _write(self, name: str, payload) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return str(path)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(int(np.ceil(q * len(ordered))) - 1, 0)]


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p95, p90, p75 with at least ten
    samples beyond it, or the median when a run has too few samples."""
    n = len(values)
    for q in (0.95, 0.90, 0.75):
        if n - int(np.ceil(q * n)) >= 10:
            return q, nearest_rank(values, q)
    return 0.5, float(np.median(values))


def median_rate(records, unit_items, call=None) -> float:
    """Median over units of items per second (of one call of the unit, if given)."""
    return float(np.median([unit_items / (r.seconds if call is None else r.durations[call])
                            for r in records]))


def _exit_failures(outputs) -> list:
    return [f"exit {code}: {err.strip()[:200]}" for code, _, err in outputs if code != 0]


# ---------------------------------------------------------------------------
# plan-online


class PlanOnline(Workload):
    """Per-chunk planning requests: 3/4 ``solve``, 1/4 three-pass ``schedule``.

    A unit is a round of 36 requests that covers N in {6, 6, 12} x beta in
    {0, 0.1, 0.5} x (solve, solve, solve, schedule) in a seeded order.  Each
    round's capacities follow a seeded random walk, mapped through its ranks
    onto a fixed log-uniform ladder of 12 capacities over 1500-12000 kbit per
    N slot, so every round does the same amount of DP work.  Each request
    draws its own sigma0 (and lag for solves), so no two requests share an
    (N, f, utility, beta, lag) group.  A schedule request splits the capacity
    50/30/20 over passes with leads 20, 5 and 1 s.
    """

    name = "plan-online"
    item = "request"
    min_units = 6        # 216 requests, so ten lie beyond p95
    ROUNDS = 40
    SLOTS = (6, 6, 12)
    BETAS = (0.0, 0.1, 0.5)
    KINDS = ("solve", "solve", "solve", "schedule")
    LEADS = (20.0, 5.0, 1.0)
    SHARES = (0.5, 0.3)
    unit_items = len(KINDS) * len(SLOTS) * len(BETAS)
    expected_spans = ("cli.main", "config.load_json", "config.parse_instance",
                      "config.parse_schedule", "config.build_probs", "viewprob.wrapped_gaussian",
                      "model.Instance", "model.eval_objective", "optimizer.solve_dp",
                      "scheduler.run_plan")

    def prepare(self):
        combos = [(kind, slot, beta) for kind in self.KINDS
                  for slot in range(len(self.SLOTS)) for beta in self.BETAS]
        per_slot = len(combos) // len(self.SLOTS)
        # one fixed log-uniform capacity ladder per N slot; the seed only orders it
        ladder = np.rint(1500.0 * 8.0 ** ((np.arange(per_slot) + 0.5) / per_slot)).astype(np.int64)
        self.rounds = []
        for r in range(self.ROUNDS):
            rng = np.random.default_rng([self.seed, r])
            order = [combos[i] for i in rng.permutation(len(combos))]
            walk = np.cumsum(rng.normal(size=len(order)))
            caps = np.zeros(len(order), dtype=np.int64)
            for slot in range(len(self.SLOTS)):
                pos = np.array([i for i, c in enumerate(order) if c[1] == slot])
                caps[pos] = ladder[np.argsort(np.argsort(walk[pos]))]
            requests = []
            for (kind, slot, beta), cap in zip(order, caps):
                sigma0 = round(float(rng.uniform(15.0, 35.0)), 3)
                lag = round(float(rng.uniform(0.5, 10.0)), 3)
                base = {"rates": RATES, "delta": 1.0, "f": 1.0, "utility": UTILITY,
                        "N": self.SLOTS[slot], "beta": beta}
                probs = {"family": "wrapped_gaussian_sqrt", "sigma0_deg": sigma0}
                if kind == "solve":
                    cfg = {**base, "capacity": int(cap), "probs": {**probs, "lag_s": lag}}
                else:
                    b1, b2 = (int(round(share * cap)) for share in self.SHARES)
                    budgets = (b1, b2, int(cap) - b1 - b2)
                    cfg = {**base, "size_model": {"mode": "svc_ideal"},
                           "passes": [{"lead_s": lead, "budget": b, "probs": probs}
                                      for lead, b in zip(self.LEADS, budgets)]}
                requests.append((kind, cfg, self._write(f"plan-{r:03d}-{len(requests):02d}.json", cfg)))
            self.rounds.append(requests)
        self.max_units = len(self.rounds)

    def calls(self, unit, tag):
        return [[kind, "--config", path] for kind, _, path in self.rounds[unit]]

    def warmup_calls(self):
        # the largest request first, so the allocator's heap is sized before
        # timing and peak RSS does not depend on the seeded request order
        calls = self.calls(0, "warmup")
        largest = max(range(len(calls)), key=lambda i: self._table_size(self.rounds[0][i][1]))
        return [calls[largest]] + calls[:3]

    @staticmethod
    def _table_size(cfg):
        """N times the largest capacity one solve of the request sees."""
        budgets = [cfg["capacity"]] if "capacity" in cfg else [p["budget"] for p in cfg["passes"]]
        return cfg["N"] * max(budgets)

    def op_seconds(self, record):
        return list(record.durations)

    def check(self, unit, outputs, evidence):
        failed, messages = 0, []
        for i, ((kind, cfg, _), (code, out, err)) in enumerate(zip(self.rounds[unit], outputs)):
            if code != 0:
                problems = [f"exit {code}: {err.strip()[:200]}"]
            else:
                try:
                    problems = (self._check_solve(cfg, out) if kind == "solve"
                                else self._check_schedule(cfg, out))
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc}"]
            failed += bool(problems)
            messages += [f"round {unit} request {i} ({kind}): {p}" for p in problems]
        return failed, messages

    @staticmethod
    def _check_solve(cfg, out):
        inst = parse_instance(cfg)
        resp = json.loads(out)
        levels, value = resp["levels"], resp["value"]
        problems = []
        spend = selection_size(levels, inst)
        if spend != resp["spend"] or spend > inst.capacity or resp["capacity"] != inst.capacity:
            problems.append(f"spend {resp['spend']} (recomputed {spend}) vs capacity {inst.capacity}")
        # the DP accumulates its value in another order than eval_objective
        if abs(eval_objective(levels, inst) - value) > REEVAL_TOL:
            problems.append("value does not re-evaluate")
        if inst.beta == 0.0 and solve_mckp(inst).value != value:
            problems.append("beta = 0 value differs from solve_mckp")
        if inst.grid.n_tiles == 6 and abs(brute_force(inst).value - value) > cli.ORACLE_TOL:
            problems.append("value differs from brute_force")
        return problems

    @staticmethod
    def _check_schedule(cfg, out):
        plan, ladder, utility, beta, size_model = parse_schedule(cfg)
        rows = list(csv.reader(io.StringIO(out)))
        if rows[:1] != [["pass", "lead_s", "budget", "levels", "value"]] or len(rows) != 1 + len(plan.passes):
            return ["unexpected CSV shape"]
        n_tiles = cfg["N"]
        grid = DirectionGrid(n_tiles)
        state = TileState.empty(n_tiles)
        problems = []
        for i, (row, booking) in enumerate(zip(rows[1:], plan.passes)):
            levels = np.array([int(x) for x in row[3].split("|")], dtype=np.int64)
            if row[:3] != [str(i), f"{booking.lead_time_s:.6f}", str(booking.budget)]:
                problems.append(f"pass {i}: header fields {row[:3]}")
            if levels.shape != (n_tiles,) or np.any(levels < state.levels):
                problems.append(f"pass {i}: levels drop below the cached state")
                break
            spend = int(upgrade_sizes(state, ladder, size_model)[np.arange(n_tiles), levels].sum())
            if spend > booking.budget:
                problems.append(f"pass {i}: upgrade spend {spend} over budget {booking.budget}")
            inst = Instance(grid, ladder, utility, booking.probs, booking.budget, beta)
            if f"{eval_objective(levels, inst):.6f}" != row[4]:
                problems.append(f"pass {i}: value does not re-evaluate")
            state = TileState(levels)
        return problems

    def report(self, records):
        latencies = [d * 1e3 for r in records for d in r.durations]
        return {"plan_p50_ms": (float(np.median(latencies)), "ms"),
                "plan_p95_ms": (nearest_rank(latencies, 0.95), "ms"),
                "plans_per_s": (median_rate(records, self.unit_items), "1/s"),
                "requests": (len(latencies), "count")}


# ---------------------------------------------------------------------------
# sweep-offline


class SweepOffline(Workload):
    """One 96-instance ``sweep`` over an empirical 12-trace cohort, no workers.

    Every run times at least two sweeps: one sweep lasts most of a run, and
    a single sample would carry the whole drift of the machine's speed.
    """

    name = "sweep-offline"
    item = "sweep instance"
    min_units = 2
    CAPACITIES = [2000, 4000, 8000, 16000]
    BETAS = [0.0, 0.1]
    TILES = [6, 12, 24]
    LAGS = [1.0, 2.0, 5.0, 10.0]
    STRIDE_S = 0.1
    unit_items = len(CAPACITIES) * len(BETAS) * len(TILES) * len(LAGS)
    expected_spans = ("cli.main", "config.load_json", "config.parse_sweep", "config.build_probs",
                      "config.load_traces", "traces.parse_trace", "viewprob.empirical_yaw_change",
                      "viewprob.discretize", "model.Instance", "model.eval_objective",
                      "optimizer.solve_dp")

    def prepare(self):
        self.cohort = self.workdir / "cohort"
        gen = self._write("cohort-gen.json", {"kinds": GEN_KINDS, "count_per_kind": 2,
                                               "duration_s": 60.0, "rate_hz": 50.0})
        with io.StringIO() as sink, redirect_stdout(sink):
            code = cli.main(["gen-traces", "--config", gen, "--out", str(self.cohort),
                             "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError("could not generate the sweep cohort")
        self.config = self._write("sweep.json", {
            "rates": RATES, "delta": 1.0, "capacity": self.CAPACITIES, "beta": self.BETAS,
            "f": 1.0, "N": self.TILES, "utility": UTILITY, "lags": self.LAGS,
            "family": {"kind": "empirical", "stride_s": self.STRIDE_S}})
        self.warmup_config = self._write("sweep-warmup.json", {
            "rates": RATES, "capacity": self.CAPACITIES[0], "beta": self.BETAS[-1], "N": self.TILES[0],
            "utility": UTILITY, "lags": self.LAGS[0], "family": {"kind": "empirical"}})
        self._probs = None

    def warmup_calls(self):
        return [["sweep", "--config", self.warmup_config, "--traces", str(self.cohort)]]

    def calls(self, unit, tag):
        return [["sweep", "--config", self.config, "--traces", str(self.cohort)]]

    def _probabilities(self):
        # the same calls build_probs makes for the empirical family, parsed once
        if self._probs is None:
            traces = load_traces(str(self.cohort))
            self._probs = {(n, lag): discretize(empirical_yaw_change(traces, lag, self.STRIDE_S),
                                                DirectionGrid(n))
                           for n in self.TILES for lag in self.LAGS}
        return self._probs

    def check(self, unit, outputs, evidence):
        code, out, _ = outputs[0]
        total = self.unit_items
        if code != 0:
            return total, _exit_failures(outputs)
        rows = list(csv.reader(io.StringIO(out)))
        if rows[:1] != [["family", "utility", "N", "C", "f", "beta", "T", "value", "levels"]]:
            return total, ["unexpected sweep header"]
        expected = {(str(n), str(c), f"{b:.6f}", f"{t:.6f}") for n in self.TILES
                    for c in self.CAPACITIES for b in self.BETAS for t in self.LAGS}
        probs = self._probabilities()
        ladder = QualityLadder(tuple(RATES), 1.0, 1.0)
        utility = UtilityModel("large_screen")
        problems = []
        seen = set()
        for row in rows[1:]:
            key = (row[2], row[3], row[5], row[6]) if len(row) == 9 else None
            if (key not in expected or key in seen
                    or [row[0], row[1], row[4]] != ["empirical", "large_screen", "1.000000"]):
                problems.append(f"unexpected row {row[:7]}")
                continue
            seen.add(key)
            n, cap, beta, lag = int(row[2]), int(row[3]), float(row[5]), float(row[6])
            inst = Instance(DirectionGrid(n), ladder, utility, probs[(n, lag)], cap, beta)
            try:
                levels = [int(x) for x in row[8].split("|")]
                value = eval_objective(levels, inst)
                bad = selection_size(levels, inst) > cap or f"{value:.6f}" != row[7]
            except ValueError:
                bad = True
            if not bad and beta == 0.0 and abs(solve_mckp(inst).value - value) > cli.ORACLE_TOL:
                bad = True
            if bad:
                problems.append(f"row {row[:7]} does not re-evaluate")
        failed = len(problems) + len(expected - seen)
        if expected - seen:
            problems.append(f"{len(expected - seen)} rows missing")
        return min(failed, total), problems

    def report(self, records):
        return {"sweep_instances_per_s": (median_rate(records, self.unit_items), "1/s"),
                "sweeps": (len(records), "count")}


# ---------------------------------------------------------------------------
# trace-analytics


class TraceAnalytics(Workload):
    """``gen-traces`` of 6 kinds x 20 traces (60 s, 50 Hz), then ``analyze``.

    ``analyze`` runs all seven metrics at lags 0.5, 1 and 2 s on the freshly
    written directory.  Each cycle writes a new directory from its own seed;
    it is checked and removed right after the cycle, outside the timing.
    """

    name = "trace-analytics"
    item = "trace"
    min_units = 2
    COUNT = 20
    unit_items = len(GEN_KINDS) * COUNT
    DURATION_S = 60.0
    RATE_HZ = 50.0
    LAGS = [0.5, 1.0, 2.0]
    expected_spans = ("cli.main", "config.load_json", "config.parse_gen", "config.parse_analyze",
                      "config.load_traces", "traces.parse_trace", "traces.write_trace",
                      *(f"{layer}.{attr}" for layer, _, attr in TARGETS if layer == "synth"),
                      *(f"traces.{name}" for name in ANALYTICS))

    def prepare(self):
        self.gen_config = self._write("gen.json", {"kinds": GEN_KINDS, "count_per_kind": self.COUNT,
                                                   "duration_s": self.DURATION_S,
                                                   "rate_hz": self.RATE_HZ})
        self.analyze_config = self._write("analyze.json", {"metrics": ANALYZE_METRICS,
                                                           "lags": self.LAGS})
        self.names = sorted(f"{kind}_{i:03d}.csv" for kind in GEN_KINDS for i in range(self.COUNT))
        self.samples = int(round(self.DURATION_S * self.RATE_HZ)) + 1

    def _dir(self, unit, tag):
        return self.workdir / f"traces-{tag}-{unit:04d}"

    def calls(self, unit, tag):
        out_dir = str(self._dir(unit, tag))
        gen_seed = int(np.random.SeedSequence([self.seed, unit]).generate_state(1)[0])
        return [["gen-traces", "--config", self.gen_config, "--out", out_dir, "--seed", str(gen_seed)],
                ["analyze", "--config", self.analyze_config, "--traces", out_dir]]

    def collect(self, unit, tag, outputs):
        """Hash and count the written files, then remove the directory."""
        out_dir = self._dir(unit, tag)
        problems = []
        files = h = None
        if out_dir.is_dir():
            h = hashlib.sha256()
            files = sorted(p.name for p in out_dir.iterdir())
            for name in files:
                data = (out_dir / name).read_bytes()
                h.update(name.encode() + b"\0" + data)
                if name.endswith(".csv") and data.count(b"\n") != 1 + self.samples:
                    problems.append(f"{name}: expected {self.samples} samples")
            shutil.rmtree(out_dir)
        return files, problems, h.hexdigest() if h else ""

    def check(self, unit, outputs, evidence):
        files, problems, _ = evidence
        problems = list(problems) + _exit_failures(outputs)
        (_, gen_out, _), (_, analyze_out, _) = outputs
        expected_files = sorted(self.names + [n[:-4] + ".json" for n in self.names])
        if files != expected_files:
            problems.append("written files differ from the 120 CSVs and sidecars expected")
        try:
            if json.loads(gen_out)["written"] != self.names:
                problems.append("gen-traces reported other files")
            problems += self._check_analyze(analyze_out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc}")
        failed = self.unit_items if problems else 0
        return failed, [f"cycle {unit}: {p}" for p in problems]

    def digest(self, outputs, evidence):
        # the written files and the analyze CSV; gen-traces stdout names the directory
        return sha(evidence[2], outputs[1][1])

    def _check_analyze(self, out):
        rows = list(csv.reader(io.StringIO(out)))
        if rows[:1] != [["metric", "group", "stat", "value"]]:
            return ["unexpected analyze header"]
        body = [tuple(r) for r in rows[1:]]
        reference = [(m, g, s, cli._fmt(v)) for m, g, s, v in cli.REFERENCE_BANDS]
        problems = []
        if body[-len(reference):] != reference:
            problems.append("reference bands missing")
        body = body[:-len(reference)]
        if body != sorted(body):
            problems.append("rows are not sorted")
        if {r[0] for r in body} != set(ANALYZE_METRICS):
            problems.append("metrics missing")
        lags = {f"lag_s={t:g}" for t in self.LAGS}
        for metric in ("yaw_change", "velocity_error", "origin_sectors", "phase_split"):
            if {r[1].split("|")[0] for r in body if r[0] == metric} != lags:
                problems.append(f"{metric}: lags missing")
        total = f"{len(self.names) * self.samples:.6f}"
        if [r[3] for r in body if r[0] == "utilization" and r[2] == "n"] != [total] * 3:
            problems.append("utilization does not cover every sample")
        if abs(sum(float(r[3]) for r in body if r[0] == "heatmap") - 1.0) > 1e-3:
            problems.append("heatmap frequencies do not sum to 1")
        if any(not 0.0 <= float(r[3]) <= 1.0 for r in body if r[0] == "velocity_error"):
            problems.append("velocity error rate outside [0, 1]")
        stats = {}
        for metric, group, stat, value in body:
            stats.setdefault((metric, group), {})[stat] = float(value)
        for key, described in stats.items():
            ordered = [described[s] for s in DESCRIBE_ORDER if s in described]
            if ordered != sorted(ordered):
                problems.append(f"{key}: quantiles out of order")
        return problems

    def report(self, records):
        return {"traces_written_per_s": (median_rate(records, self.unit_items, call=0), "1/s"),
                "traces_analyzed_per_s": (median_rate(records, self.unit_items, call=1), "1/s"),
                "cycles": (len(records), "count")}


WORKLOADS = {w.name: w for w in (PlanOnline, SweepOffline, TraceAnalytics)}
