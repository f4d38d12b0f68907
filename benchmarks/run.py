"""clockpred benchmark: one workload per run, closed loop, one client.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report per-layer metrics from spans recorded around calls
into clockpred's modules.  The last line of standard output is the JSON
result.  See README.md in this directory.

    python3 benchmarks/run.py --workload frozen-cli --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --self-check
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
IMPORT_PROBES = 5


def pin_and_import() -> dict:
    """Pin BLAS to one thread (children inherit it), then import clockpred from ``src``.

    Returns the thread settings that were inherited.  Exits with an error
    when this checkout has no clockpred sources.
    """
    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import clockpred
    except ImportError as err:
        sys.exit(f"benchmark: cannot import clockpred from {SRC}: {err}")
    if Path(clockpred.__file__).resolve().parent != SRC / "clockpred":
        sys.exit(f"benchmark: clockpred was imported from {clockpred.__file__}, not {SRC}")
    return inherited


def environment(inherited: dict) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads_inherited": inherited,
    }


def import_seconds(repeats: int) -> float:
    """Median wall time of a child process that only imports ``clockpred.cli``."""
    from workloads import child_error, run_child

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_child(["-c", "import clockpred.cli"], ROOT)
        times.append(time.perf_counter() - start)
        err = child_error(proc, "import probe")
        if err:
            raise RuntimeError(err)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up, check and measure one workload; return the result object.

    ``small`` shrinks set-up and operation sizes for the self-check.
    """
    from tracer import OP, FUNCTIONS, Tracer, layer_metrics
    from workloads import WORK_DIR, WORKLOADS, load_reference

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        workload = WORKLOADS[name](seed, small, workdir, load_reference())
        tracer = Tracer() if trace else None
        setup_times: list[float] = []
        failures: list[str] = []
        times: list[dict] = []
        traced_times: list[dict] = []
        units: list[int] = []
        ops = 0
        # The timed loop runs in one slice after each set-up, so that the
        # operations, and the set-ups, sample the host over the whole run
        # rather than one stretch of it.
        slices = 1 if small else SETUP_REPEATS
        for slice_index in range(slices):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            if slice_index == 0:
                checks = workload.checks()
                failures += [f"{label}: {err}" for label, err in checks.items() if err]
            deadline = time.perf_counter() + seconds / slices
            # Traced runs alternate traced and untraced operations and make
            # at least two traced ones, so that their counts can be compared.
            while ops < (3 if trace else 1) or time.perf_counter() < deadline:
                traced = trace and ops % 2 == 0
                try:
                    if traced:
                        with tracer.span(OP), tracer.installed_sites():
                            elapsed, done, err = workload.op(tracer)
                    else:
                        elapsed, done, err = workload.op(None)
                except Exception as exc:  # one failed operation must not end the run
                    traceback.print_exc()
                    elapsed, done, err = None, 0, f"{type(exc).__name__}: {exc}"
                if err:
                    failures.append(f"operation {ops}: {err}")
                if elapsed is not None:
                    phases = elapsed if isinstance(elapsed, dict) else {OP: elapsed}
                    (traced_times if traced else times).append(phases)
                    units.append(done)
                ops += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not times or (trace and not traced_times):
        raise RuntimeError("no operation completed: " + "; ".join(failures))

    op_s = fastest(times)
    median = statistics.median(sum(phases.values()) for phases in times)
    print(f"operations: {len(times)} untraced, median {median!r} s, fastest {op_s!r} s")
    if not trace:
        metrics = {
            "op_s": (op_s, "s"),
            "work_per_s": (statistics.median(units) / op_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics, levels, mismatches = layer_metrics(tracer)
        metrics.update(workload.extra_layer_metrics())
        failures += mismatches
        overhead = fastest(traced_times) - op_s
        metrics["cli.import_s"] = (import_seconds(1 if small else IMPORT_PROBES), "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / op_s, "%")
        for fn in FUNCTIONS:
            level, n = levels[fn]
            print(f"  {fn}: n={n} us_pN is p{level:g}")
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(tracer.absent))
        write_spans(name, seed, tracer, levels)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(checks) + ops,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def fastest(times: list[dict]) -> float:
    """The fastest operation: the sum over its phases of each phase's fastest time.

    Not the median: on a shared host other tenants slow the CPU in bursts,
    and interference only ever adds time (the convention of Python's
    timeit).  A phase is short, so its fastest time is one that fell
    between bursts.  README.md has the measurements.
    """
    phases = dict.fromkeys(name for sample in times for name in sample)
    return sum(min(s[name] for s in times if name in s) for name in phases)


def write_spans(name: str, seed: int, tracer, levels: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "absent": tracer.absent,
        "percentile_levels": {fn: {"level": lvl, "n": n} for fn, (lvl, n) in levels.items()},
        "columns": ["name", "start_ns", "end_ns", "parent", "value"],
        "spans": tracer.dump(),
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


def validate(result: dict, expected: list[dict], label: str) -> list[str]:
    """Schema problems of one result against the metric list in BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"{label}: metric names {sorted(set(metrics) ^ set(names))} do not match")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} is {got}, unit should be {m['unit']}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} value {value!r} is not a finite number")
        elif "bound" in m and value <= 0:
            problems.append(f"{label}: end-to-end metric {m['name']} is {value}, not positive")
    return problems


def self_check() -> int:
    """Run every workload once at small size, untraced and traced, and validate the output."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} do not match {sorted(WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            print(f"self-check: {label}", flush=True)
            result = json.loads(json.dumps(run_workload(name, 1, 1.0, trace, small=True)))
            problems += validate(result, spec["per_layer" if trace else "end_to_end"], label)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true", help="fast schema check of every workload"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    inherited = pin_and_import()
    print("env: " + json.dumps(environment(inherited), sort_keys=True), flush=True)
    if args.self_check:
        return self_check()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
