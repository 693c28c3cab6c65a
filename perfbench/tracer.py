"""Spans and exact counters for the traced benchmark run.

The tracer swaps a timing wrapper in for each public function listed in
``TARGETS``, in every ``prefetch360`` module namespace that holds it, so both
the defining module's own calls and the names other modules imported are
timed.  ``model.Instance`` is timed through its ``__post_init__``.  Spans
nest as the calls do (cli -> config/scheduler -> optimizer/traces); each
span records its name, start, end, parent and request id and stays in memory
until the run writes it out.  Nothing under ``src/`` changes.

A target that no longer exists raises ``TraceGuardError`` when the wrappers
are installed, and ``check_expected`` raises when a span a workload should
produce never fired, so a refactor cannot silently zero out a layer.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer, module under prefetch360, public function); the span is "layer.function".
TARGETS = (
    ("config", "config", "load_json"),
    ("config", "config", "parse_instance"),
    ("config", "config", "parse_schedule"),
    ("config", "config", "parse_sweep"),
    ("config", "config", "parse_gen"),
    ("config", "config", "parse_analyze"),
    ("config", "config", "build_probs"),
    ("config", "config", "load_traces"),
    ("viewprob", "viewprob", "uniform"),
    ("viewprob", "viewprob", "point_mass"),
    ("viewprob", "viewprob", "wrapped_gaussian"),
    ("viewprob", "viewprob", "circular_smooth"),
    ("viewprob", "viewprob", "discretize"),
    ("viewprob", "viewprob", "empirical_yaw_change"),
    ("model", "model", "eval_objective"),
    ("optimizer", "optimizer", "solve_dp"),
    ("scheduler", "scheduler", "run_plan"),
    ("traces", "traces", "parse_trace"),
    ("traces", "traces", "write_trace"),
    ("traces", "traces", "angle_utilization_cdf"),
    ("traces", "traces", "heatmap"),
    ("traces", "traces", "pairwise_angular_difference"),
    ("traces", "traces", "yaw_change_cdf"),
    ("traces", "traces", "velocity_prediction_error"),
    ("traces", "traces", "origin_conditioned_change"),
    ("traces", "traces", "phase_split_cdf"),
    ("synth", "synth", "constant_trace"),
    ("synth", "synth", "linear_rotation_trace"),
    ("synth", "synth", "sinusoid_trace"),
    ("synth", "synth", "uniform_random_trace"),
    ("synth", "synth", "random_walk_trace"),
    ("synth", "synth", "explore_then_fixate_trace"),
)

INSTANCE_SPAN = "model.Instance"
ROOT_SPAN = "cli.main"

ANALYTICS = ("angle_utilization_cdf", "heatmap", "pairwise_angular_difference", "yaw_change_cdf",
             "velocity_prediction_error", "origin_conditioned_change", "phase_split_cdf")
WINDOWED = ("yaw_change_cdf", "velocity_prediction_error", "origin_conditioned_change",
            "phase_split_cdf")

# name -> unit of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
              "op_p50_ms": "ms", "op_tail_ms": "ms"}

# name -> unit of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "optimizer.solve_dp_s": "s",
    "optimizer.solve_dp_calls": "count",
    "optimizer.dp_cells": "count",
    "optimizer.ns_per_cell": "ns",
    "optimizer.parents_bytes_max": "B",
    "optimizer.groups": "count",
    "optimizer.solves_per_group": "ratio",
    "optimizer.beta0_share": "ratio",
    "scheduler.run_plan_s": "s",
    "scheduler.self_s": "s",
    "scheduler.passes": "count",
    "config.parse_s": "s",
    "viewprob.build_s": "s",
    "viewprob.calls": "count",
    "model.instance_s": "s",
    "model.eval_objective_s": "s",
    "cli.self_s": "s",
    "config.load_traces_s": "s",
    "config.load_traces_calls": "count",
    "traces.parse_trace_s": "s",
    "traces.parse_files": "count",
    "traces.parse_calls_per_file": "ratio",
    "traces.parse_samples_per_s": "1/s",
    "traces.write_trace_s": "s",
    "traces.write_samples_per_s": "1/s",
    "synth.generate_s": "s",
    **{f"traces.{name}_s": "s" for name in ANALYTICS},
    "traces.window_passes": "count",
    "traces.window_distinct": "count",
    "traces.window_passes_per_distinct": "ratio",
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}

# Counters that must repeat exactly for a seed; the recorded baseline pins them.
EXACT_COUNTERS = (
    "optimizer.solve_dp_calls", "optimizer.dp_cells", "optimizer.parents_bytes_max",
    "optimizer.groups", "optimizer.solves_per_group", "optimizer.beta0_share",
    "scheduler.passes", "viewprob.calls", "config.load_traces_calls", "traces.parse_files",
    "traces.parse_calls_per_file", "traces.window_passes", "traces.window_distinct",
    "traces.window_passes_per_distinct",
)


class TraceGuardError(RuntimeError):
    """A wrapped name vanished or an expected span never fired."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int


class Tracer:
    """Records spans and per-call facts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list = []
        # groups, files and windows are counted per CLI call (request id), so the
        # ratios describe one call however many units a traced run repeats
        self.solves: list = []       # (cells, parents bytes, group key, beta)
        self.parsed: list = []       # ((request, path), samples)
        self.written: list = []      # samples per written trace
        self.windows: list = []      # (request, id(trace), lag)
        self.plan_passes = 0

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.request)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return timed

    # -- per-call facts -------------------------------------------------

    def _on_solve(self, args, kwargs, report):
        inst = args[0] if args else kwargs["inst"]
        width = inst.ladder.n_levels + 1
        parents_bytes = width * width * inst.grid.n_tiles * (inst.capacity + 1) * 2
        key = (self.request, inst.grid.n_tiles, inst.ladder, inst.utility, inst.beta,
               inst.probs.tobytes(),
               None if inst.sizes is None else inst.sizes.tobytes(),
               None if inst.utilities is None else inst.utilities.tobytes())
        self.solves.append((report.stats.subproblems, parents_bytes, key, inst.beta))

    def _on_parse(self, args, kwargs, trace):
        path = args[0] if args else kwargs["csv_path"]
        self.parsed.append(((self.request, str(path)), trace.t.size))

    def _on_write(self, args, kwargs, _):
        trace = args[0] if args else kwargs["trace"]
        self.written.append(trace.t.size)

    def _on_window(self, args, kwargs, _):
        traces = args[0] if args else kwargs["traces"]
        lag = args[1] if len(args) > 1 else kwargs["lag_s"]
        self.windows.extend((self.request, id(tr), float(lag)) for tr in traces)

    def _on_plan(self, args, kwargs, results):
        self.plan_passes += len(results)

    # -- installing and removing the wrappers ---------------------------

    def install(self):
        """Swap wrappers into every prefetch360 namespace; restore with uninstall()."""
        hooks = {"solve_dp": self._on_solve, "parse_trace": self._on_parse,
                 "write_trace": self._on_write, "run_plan": self._on_plan,
                 **{name: self._on_window for name in WINDOWED}}
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "prefetch360" or name.startswith("prefetch360.")]
        try:
            for layer, module, attr in TARGETS:
                try:
                    home = importlib.import_module(f"prefetch360.{module}")
                except ImportError:
                    home = None
                original = getattr(home, attr, None)
                if not callable(original):
                    raise TraceGuardError(f"prefetch360.{module}.{attr} no longer exists; "
                                          "update perfbench/tracer.py TARGETS")
                wrapper = self.wrap(f"{layer}.{attr}", original, hooks.get(attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
            instance = importlib.import_module("prefetch360.model").Instance
            post_init = instance.__dict__.get("__post_init__")
            if post_init is None:
                raise TraceGuardError("prefetch360.model.Instance.__post_init__ no longer exists")
            self._patched.append((instance, "__post_init__", post_init))
            setattr(instance, "__post_init__", self.wrap(INSTANCE_SPAN, post_init))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span, covered in zip(self.spans, child):
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += span.end - span.start - covered
        return out

    def check_expected(self, expected):
        fired = {span.name for span in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise TraceGuardError(f"expected spans never fired: {', '.join(missing)}")

    def layer_metrics(self):
        """Per-layer self times and exact counters (without setup and overhead)."""
        times = self.self_times()

        def self_s(*names):
            return sum(times[n][2] for n in names)

        def calls(*names):
            return sum(times[n][0] for n in names)

        config_names = [f"config.{attr}" for layer, _, attr in TARGETS
                        if layer == "config" and attr != "load_traces"]
        viewprob_names = [f"viewprob.{attr}" for layer, _, attr in TARGETS if layer == "viewprob"]
        synth_names = [f"synth.{attr}" for layer, _, attr in TARGETS if layer == "synth"]

        solve_s = self_s("optimizer.solve_dp")
        n_solves = len(self.solves)
        cells = sum(s[0] for s in self.solves)
        groups = len({s[2] for s in self.solves})
        parse_s = self_s("traces.parse_trace")
        files = len({p for p, _ in self.parsed})
        write_s = self_s("traces.write_trace")
        distinct = len(set(self.windows))
        m = {
            "optimizer.solve_dp_s": solve_s,
            "optimizer.solve_dp_calls": n_solves,
            "optimizer.dp_cells": cells,
            "optimizer.ns_per_cell": solve_s * 1e9 / cells if cells else 0.0,
            "optimizer.parents_bytes_max": max((s[1] for s in self.solves), default=0),
            "optimizer.groups": groups,
            "optimizer.solves_per_group": n_solves / groups if groups else 0.0,
            "optimizer.beta0_share": (sum(1 for s in self.solves if s[3] == 0.0) / n_solves
                                      if n_solves else 0.0),
            "scheduler.run_plan_s": times["scheduler.run_plan"][1],
            "scheduler.self_s": self_s("scheduler.run_plan"),
            "scheduler.passes": self.plan_passes,
            "config.parse_s": self_s(*config_names),
            "viewprob.build_s": self_s(*viewprob_names),
            "viewprob.calls": calls(*viewprob_names),
            "model.instance_s": self_s(INSTANCE_SPAN),
            "model.eval_objective_s": self_s("model.eval_objective"),
            "cli.self_s": self_s(ROOT_SPAN),
            "config.load_traces_s": self_s("config.load_traces"),
            "config.load_traces_calls": calls("config.load_traces"),
            "traces.parse_trace_s": parse_s,
            "traces.parse_files": files,
            "traces.parse_calls_per_file": len(self.parsed) / files if files else 0.0,
            "traces.parse_samples_per_s": sum(n for _, n in self.parsed) / parse_s if parse_s else 0.0,
            "traces.write_trace_s": write_s,
            "traces.write_samples_per_s": sum(self.written) / write_s if write_s else 0.0,
            "synth.generate_s": self_s(*synth_names),
            **{f"traces.{name}_s": self_s(f"traces.{name}") for name in ANALYTICS},
            "traces.window_passes": len(self.windows),
            "traces.window_distinct": distinct,
            "traces.window_passes_per_distinct": len(self.windows) / distinct if distinct else 0.0,
            "trace.self_sum_s": sum(entry[2] for entry in times.values()),
        }
        return m

    def dump(self):
        return [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]
