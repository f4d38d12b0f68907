"""Run the benchmark on two revisions in alternating pairs and summarize the runs as JSON.

Both revisions are exported with ``git archive`` into a temporary
directory, so only committed files are measured and the checkout is never
written to.  Pair i runs ``benchmarks/run.py --seed <seed + i> --trace 0``
for ``BENCHMARK.json``'s ``run_seconds`` once on each tree; the side that
runs first alternates from pair to pair.  For every workload and
end-to-end metric the JSON on standard output holds each side's runs,
median and quartiles (linear interpolation), the parent's spread
(q3 - q1) / median and the change's median over the parent's, and how many
pairs the change wins (ties count for neither side).  Each end-to-end metric
also carries its ``bound`` from ``BENCHMARK.json``, ``worse_by``, the
change's median relative to the parent's in the metric's worse direction
((c - p) / p when lower is better, (p - c) / p when higher is better;
negative when the change is better), ``within_bound``, whether
``worse_by`` is at most the bound, and ``resolved``, whether the parent's
spread is at most the bound: where it is not, the runs cannot tell a change
of the bound's size from noise, and the metric needs more pairs.  When the
parent's median is 0 the three ratios and ``resolved`` are null, and
``within_bound`` holds only when the change's median is no worse than the
parent's.

    python3 tools/bench_pairs.py --workload wide-train --pairs 10 --seed 6101
    python3 tools/bench_pairs.py --workload frozen-cli --trace --pairs 5 --seed 6301
    python3 tools/bench_pairs.py --layers --pairs 5 --seed 6601

``--trace`` pairs traced runs (``--trace 1``) in place of untraced ones and
summarizes each of ``BENCHMARK.json``'s per-layer metrics as above: each
side's runs, median and quartiles, the parent's spread, the change over
the parent and the change's wins, with no bound.

``--layers`` replaces the benchmark runs by a probe process per tree that
times ``cnn.forward_cached`` and ``cnn.backward_cached`` on the frozen
experiment's 164 stacked windows at 1 and 8 channels, the best of 20
repeats of 100 calls each, in microseconds per call.  ``forward_cached`` is
the pass ``train`` runs after its first, which writes into an earlier pass's
buffers (``out=``); ``forward_cached_fresh`` is the allocating first pass,
one per ``train`` call.  ``backward_cached`` takes the gradient through the
pass's first 136 windows, the training windows, as ``train`` does.
``param_layout`` is the parameter layout calls of one ``train`` call:
``to_vector``, two ``param_views``, ``weight_mask`` and ``from_vector``,
made on the model the previous call's ``from_vector`` built, since each
``train`` call gets a model it has not seen before.
``train_C1_us`` is the best of 5 runs of a 200-update C=1 ``cp.train`` on
the same windows, per update: the loop every workload's ``setup_s`` runs.
``train_C8_us`` times a whole 2-update ``cp.train`` call at 8 channels on
the same windows, the wide-train operation without its ``init_weights``,
best of 10 repeats of 20 calls; ``train_C8_minflt`` is the minor page
faults (``getrusage`` ``ru_minflt``) per call over those 200 calls.
``compare_C1_us`` times ``cp.compare`` on the benchmark's frozen fixture
(``benchmarks.workloads.build_fixture``: the frozen experiment and its
trained C=1 CNN), best of 20 repeats of 20 calls, in process and apart from
``benchmarks/run.py``'s per-operation bookkeeping.  ``forward_C1_us`` and
``forward_C8_us`` time ``cp.forward`` over that fixture's 100 test windows,
with its C=1 CNN and with an 8-channel ``init_weights`` model, the best of
100 passes over the windows, per window.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")

LAYER_PROBE = """
import json, resource, sys, timeit
import numpy as np
import clockpred as cp
from clockpred.cnn import backward_cached, forward_cached

prepared = cp.prepare(cp.generate(cp.default_maser_spec()), fit_on_full=True)
train = cp.make_windows(prepared.residual_norm, prepared.split.train_range)
val = cp.make_windows(prepared.residual_norm, prepared.split.val_range)
inputs = np.concatenate([train.inputs, val.inputs])
n = len(train)
upstreams = np.random.default_rng(int(sys.argv[1])).normal(size=n)
result = {}
for channels in (1, 8):
    model = cp.init_weights(int(sys.argv[1]), channels=channels)
    params = model.param_views(model.to_vector())
    grads = model.param_views(np.empty(model.num_params))
    both = forward_cached(params, inputs)
    latest = [model]

    def param_layout():
        m = latest.pop()
        vec = m.to_vector()
        m.param_views(vec)
        m.param_views(np.empty_like(vec))
        m.weight_mask()
        latest.append(m.from_vector(vec))

    calls = {
        "forward_cached": lambda: forward_cached(params, inputs, out=both),
        "forward_cached_fresh": lambda: forward_cached(params, inputs),
        "backward_cached": lambda: backward_cached(params, both, upstreams, grads),
        "param_layout": param_layout,
    }
    for name, call in calls.items():
        best = min(timeit.repeat(call, number=100, repeat=20)) / 100
        result[f"{name}_C{channels}_us"] = {"value": best * 1e6, "unit": "us"}
model = cp.init_weights(int(sys.argv[1]))
cfg = cp.TrainConfig(max_updates=200, patience=200)
best = min(timeit.repeat(lambda: cp.train(model, train, val, cfg), number=1, repeat=5))
result["train_C1_us"] = {"value": best / 200 * 1e6, "unit": "us"}
model = cp.init_weights(int(sys.argv[1]), channels=8)
cfg = cp.TrainConfig(max_updates=2, patience=2)
train_call = lambda: cp.train(model, train, val, cfg)
train_call()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
best = min(timeit.repeat(train_call, number=20, repeat=10)) / 20
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
result["train_C8_us"] = {"value": best * 1e6, "unit": "us"}
result["train_C8_minflt"] = {"value": faults / 200, "unit": "faults"}
from benchmarks.workloads import build_fixture
from clockpred.predictor import window_matrix
fx = build_fixture()
compare_call = lambda: cp.compare(fx.model, cp.KalmanParams(), fx.prepared)
best = min(timeit.repeat(compare_call, number=20, repeat=20)) / 20
result["compare_C1_us"] = {"value": best * 1e6, "unit": "us"}
windows = window_matrix(fx.prepared.residual_norm, fx.prepared.split.test_range)
for channels, model in ((1, fx.model), (8, cp.init_weights(int(sys.argv[1]), channels=8))):
    forward_call = lambda: [cp.forward(model, w) for w in windows]
    best = min(timeit.repeat(forward_call, number=1, repeat=100)) / len(windows)
    result[f"forward_C{channels}_us"] = {"value": best * 1e6, "unit": "us"}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": result}))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return the full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str | None, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run, traced or not (or a layer probe), in ``tree``; its JSON result."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    if workload is None:
        env["PYTHONPATH"] = str(tree / "src")
        argv = [sys.executable, "-c", LAYER_PROBE, str(seed)]
    else:
        argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise SystemExit(f"bench_pairs: {workload or 'layer probe'} in {tree.name}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, specs: dict, seeds: list[int], first: list[str]) -> dict:
    """Per-metric statistics of paired runs; ``runs[side]`` is a list of results.

    ``specs`` maps each metric to its ``better`` direction and, for an
    end-to-end metric, its ``bound``.
    """
    metrics = {}
    for name, spec in specs.items():
        direction = spec["better"]
        per_run = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(per_run[side]) for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(per_run["parent"], per_run["change"]))
        parent, change = stats["parent"], stats["change"]["median"]
        median = parent["median"]  # 0 for a count such as train_C8_minflt
        worse = -sign * (change - median)  # positive when the change's median is worse
        over, spread, worse_by = (
            (change / median, (parent["q3"] - parent["q1"]) / median, worse / median)
            if median else (None, None, None)
        )
        metrics[name] = {
            "better": direction,
            **stats,
            "per_run": per_run,
            "change_over_parent": over,
            "parent_spread": spread,
            "change_wins": f"{wins}/{len(seeds)}",
        }
        if "bound" in spec:
            bound = spec["bound"]
            within = worse <= 0 if worse_by is None else worse_by <= bound
            resolved = None if spread is None else spread <= bound
            metrics[name].update(
                bound=bound, worse_by=worse_by, within_bound=within, resolved=resolved
            )
    return {
        "runs": len(seeds),
        "seeds": seeds,
        "first_in_pair": first,
        "attempted_per_run": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "correct": all(r["correct"] for s in SIDES for r in runs[s]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--workload", action="append", default=[], help="repeatable")
    parser.add_argument("--layers", action="store_true", help="time the CNN layer calls")
    parser.add_argument(
        "--trace", action="store_true", help="pair traced runs: the per-layer metrics"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2 or not (args.workload or args.layers):
        parser.error("need --pairs >= 2 and a --workload or --layers")
    jobs = args.workload + ([None] if args.layers else [])
    seeds = [args.seed + i for i in range(args.pairs)]
    orders = [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revs = {"parent": args.base, "change": args.head}
        commits = {side: export(revs[side], trees[side]) for side in SIDES}
        doc = {"commits": commits, "seconds": spec["run_seconds"], "workloads": {}}
        for workload in jobs:
            label = workload or "layers"
            runs = {side: [] for side in SIDES}
            for seed, order in zip(seeds, orders):
                for side in order:
                    result = run_once(trees[side], workload, seed, spec["run_seconds"], args.trace)
                    runs[side].append(result)
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    print(f"{label} seed {seed} {side}: {json.dumps(values)}", file=sys.stderr)
            if workload:
                specs = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
            else:
                specs = dict.fromkeys(runs["parent"][0]["metrics"], {"better": "lower"})
            first = [order[0] for order in orders]
            doc["workloads"][label] = summarize(runs, specs, seeds, first)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
