"""prefetch360 benchmark: one workload per call, through ``prefetch360.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-online --seed 0 --seconds 15 --trace 0

Workloads: ``plan-online``, ``sweep-offline``, ``trace-analytics`` (see
``perfbench/workloads.py``).  ``--workload all`` runs the three in turn in
one process and prints each one's result line.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
of a fresh interpreter importing ``prefetch360.cli`` (median of several
launches), peak RSS, and the rate and latency of the workload's operations
over at least ``--seconds`` seconds.  ``--trace 1`` runs the workload's fixed
work once untraced and once with timing wrappers swapped into every
``prefetch360`` module namespace, and reports per-layer self times, exact
counters, the import-time breakdown and the tracing overhead.

Every output is checked after the timed region.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the run exits 1 when any output check failed, and 2 without a result when the
program cannot be found or the traced run's guard trips.  Full results, and
the spans of a traced run, go to ``.perfbench/results/``.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracer import EXACT_COUNTERS, END_TO_END, LAYER_METRICS, ROOT_SPAN, Tracer, TraceGuardError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 0
SETUP_LAUNCHES = 5  # before and again after the timed loop, so drift spreads over the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = "import time, prefetch360.cli; print(repr(time.time()))"


@dataclass
class UnitRecord:
    unit: int
    durations: list     # seconds per CLI call of the unit
    outputs: list       # (exit code, stdout, stderr) per CLI call
    evidence: object = None

    @property
    def seconds(self) -> float:
        return sum(self.durations)


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit 2 without a result."""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup(launches: int) -> list:
    """Seconds from launching a fresh interpreter until ``import prefetch360.cli`` returns."""
    out = []
    for _ in range(launches):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"fresh import failed: {proc.stderr.strip()[-300:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return out


def _importtime_cumulative(report: str, prefix: str) -> float:
    """Cumulative seconds of the shallowest ``-X importtime`` entries under a package."""
    entries = []
    for line in report.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == prefix or name.startswith(prefix + "."):
            entries.append((depth, int(fields[1])))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def measure_imports(launches: int) -> dict:
    """``-X importtime`` cumulative seconds of prefetch360 and of scipy, per launch."""
    package, scipy = [], []
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import prefetch360.cli"],
                              env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"fresh import failed: {proc.stderr.strip()[-300:]}")
        package.append(_importtime_cumulative(proc.stderr, "prefetch360"))
        scipy.append(_importtime_cumulative(proc.stderr, "scipy"))
    return {"setup.import_s": package, "setup.import_scipy_s": scipy}


def warm_up(workload, main) -> None:
    """Run the workload's untimed warm-up calls; a failing one stops the benchmark."""
    outputs = []
    for argv in workload.warmup_calls():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        if code != 0:
            raise BenchError(f"warm-up call {argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        outputs.append((code, "", ""))
    workload.collect(0, "warmup", outputs)


def run_unit(workload, main, unit: int, tag: str, tracer=None) -> UnitRecord:
    """Time the CLI calls of one unit; evidence gathering runs after them."""
    durations, outputs = [], []
    for argv in workload.calls(unit, tag):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request += 1
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(argv)
            t1 = time.perf_counter()
        durations.append(t1 - t0)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return UnitRecord(unit, durations, outputs, workload.collect(unit, tag, outputs))


def run_units(workload, main, seconds) -> list:
    """Closed loop: run units until ``seconds`` have passed and min_units are done."""
    records = []
    start = time.perf_counter()
    while len(records) < workload.max_units and (
            len(records) < workload.min_units or time.perf_counter() - start < seconds):
        records.append(run_unit(workload, main, len(records), "timed"))
    return records


def check_units(workload, records):
    """Check every unit; returns (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    for rec in records:
        bad, problems = workload.check(rec.unit, rec.outputs, rec.evidence)
        attempted += workload.unit_items
        failed += bad
        messages += problems
    return attempted, failed, messages


def unit_digests(workload, records) -> list:
    return [workload.digest(rec.outputs, rec.evidence) for rec in records]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    """Facts the run can learn without reading outside the checkout.

    The CPU model of the recorded baseline is in ``baseline.json``.
    """
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **{var: os.environ.get(var) for var in THREAD_VARS}}


def load_baseline() -> dict:
    try:
        return json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return {}


def untraced(workload, cli, seconds):
    from workloads import median_rate, tail
    setup = measure_setup(SETUP_LAUNCHES)
    warm_up(workload, cli.main)
    records = run_units(workload, cli.main, seconds)
    rss = peak_rss_mb()
    setup += measure_setup(SETUP_LAUNCHES)
    attempted, failed, messages = check_units(workload, records)
    op_ms = [s * 1e3 for r in records for s in workload.op_seconds(r)]
    tail_q, tail_ms = tail(op_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "items_per_s": median_rate(records, workload.unit_items),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail_ms,
    }
    figures = {"setup_s": (metrics["setup_s"], "s"), "peak_rss_mb": (rss, "MB"),
               **workload.report(records),
               "op_tail_percentile": (100 * tail_q, f"of {len(op_ms)} ops"),
               "failed_frac": (failed / attempted, f"failed/{attempted} {workload.item}s")}
    detail = {"units": len(records), "setup_launches_s": setup, "op_ms": op_ms}
    return metrics, figures, attempted, failed, messages, unit_digests(workload, records), detail


def traced(workload, cli, baseline):
    imports = measure_imports(SETUP_LAUNCHES)
    warm_up(workload, cli.main)
    tracer = Tracer()
    root = tracer.wrap(ROOT_SPAN, cli.main)
    plain, spanned = [], []
    # each unit once untraced and once traced, alternating which goes first,
    # so drift in machine speed falls on both passes alike
    for unit in range(workload.min_units):
        for traced_pass in ((False, True) if unit % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.append(run_unit(workload, cli.main, unit, "untraced"))
                continue
            tracer.install()
            try:
                spanned.append(run_unit(workload, root, unit, "traced", tracer))
            finally:
                tracer.uninstall()
    after = measure_imports(SETUP_LAUNCHES)
    imports = {name: statistics.median(imports[name] + after[name]) for name in imports}
    tracer.check_expected(workload.expected_spans)
    attempted, failed, messages = check_units(workload, plain)
    digests = unit_digests(workload, plain)
    # the traced pass must reproduce the untraced outputs byte for byte
    for rec, digest, traced_digest in zip(spanned, digests, unit_digests(workload, spanned)):
        attempted += workload.unit_items
        if traced_digest != digest:
            failed += workload.unit_items
            messages.append(f"unit {rec.unit}: traced output differs from the untraced pass")
    metrics = tracer.layer_metrics()
    metrics.update(imports)
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in spanned)
    metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    if metrics["trace.self_sum_s"] < 0.95 * traced_s:
        raise BenchError(f"spans cover only {metrics['trace.self_sum_s']:.3f} s "
                         f"of {traced_s:.3f} s traced wall time")
    if workload.seed == DEFAULT_SEED:
        recorded = baseline.get("counters", {}).get(workload.name)
        current = {name: metrics[name] for name in EXACT_COUNTERS}
        if recorded != current:
            failed += 1
            messages.append(f"exact counters differ from the recorded baseline: {current}")
    return metrics, attempted, failed, messages, digests, tracer


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    from prefetch360 import cli
    from workloads import WORKLOADS, sha
    baseline = load_baseline()
    workload = WORKLOADS[name](seed, workdir)
    workdir.mkdir(parents=True)
    workload.prepare()
    result = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine_facts()}
    if trace:
        metrics, attempted, failed, messages, digests, tracer = traced(workload, cli, baseline)
        units = LAYER_METRICS
        result["spans"] = tracer.dump()
        figures = {}
    else:
        metrics, figures, attempted, failed, messages, digests, detail = untraced(workload, cli, seconds)
        units = END_TO_END
        result["detail"] = detail
    digest = sha(*digests[:workload.min_units])
    if seed == DEFAULT_SEED:
        recorded = baseline.get("digests", {}).get(name)
        if recorded != digest:
            failed += 1
            messages.append(f"output digest {digest} differs from the recorded {recorded}")
    result.update({"digest": digest, "figures": figures, "messages": messages,
                   "summary": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                               "metrics": {k: {"value": metrics[k], "unit": u}
                                           for k, u in units.items()}}})
    return result


def print_result(result: dict) -> None:
    summary = result["summary"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"digest={result['digest'][:16]}")
    for name, (value, unit) in result["figures"].items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    for name, entry in summary["metrics"].items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for message in result["messages"][:20]:
        print(f"  FAILED {message}")
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan-online", "sweep-offline", "trace-analytics", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "prefetch360" / "cli.py").is_file():
        print(f"perfbench: error: {SRC / 'prefetch360'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, here and in every interpreter started for set-up timing
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    names = ["plan-online", "sweep-offline", "trace-analytics"] if args.workload == "all" else [args.workload]
    out_dir = ROOT / ".perfbench"
    status = 0
    for name in names:
        workdir = out_dir / f"work-{os.getpid()}-{name}"
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
        except (BenchError, TraceGuardError) as exc:
            print(f"perfbench: error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        results = out_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        print_result(result)
        if not result["summary"]["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
