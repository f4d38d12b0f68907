"""Outside-in span tracing for the benchmark's traced runs.

A span is recorded by wrapping a function where its callers look it up: a
module global such as ``clockpred.training.forward_batch`` or a class
attribute such as ``CnnModel.from_vector``.  Nothing inside clockpred is
edited.  A name the code no longer has is reported as absent, so a change
that deletes a function does not break the benchmark.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

OP = "op"


def _bytes_of_text(path, text, *args, **kwargs) -> int:
    return len(text.encode("utf-8"))


# (span name, owner, attribute, measure).  The owner is a module or
# "module:Class".  One span name may have several lookup sites, one per
# namespace its callers use.  ``measure`` maps the call's arguments to a
# number summed per operation (bytes written, for ``_write_atomic``).
SITES = (
    ("cnn.forward_batch", "clockpred.training", "forward_batch", None),
    ("cnn.backward_batch", "clockpred.training", "backward_batch", None),
    ("cnn.from_vector", "clockpred.cnn:CnnModel", "from_vector", None),
    ("cnn.forward", "clockpred.predictor", "forward", None),
    ("training.adam_step", "clockpred.training", "adam_step", None),
    ("training.train", "clockpred", "train", None),
    ("kalman.kf_one_ahead", "clockpred.predictor", "kf_one_ahead", None),
    ("predictor.compare", "clockpred.predictor", "compare", None),
    ("predictor.compare", "clockpred", "compare", None),
    ("predictor.rolling_predict", "clockpred.predictor", "rolling_predict", None),
    ("series.prepare", "clockpred.series", "prepare", None),
    ("series.read_series", "clockpred.series", "read_series", None),
    ("series.series_to_csv", "clockpred.series", "series_to_csv", None),
    ("synthetic.generate", "clockpred.synthetic", "generate", None),
    ("cli.load_prepared", "clockpred.cli", "load_prepared", None),
    ("cli._write_atomic", "clockpred.cli", "_write_atomic", _bytes_of_text),
)

FUNCTIONS = tuple(dict.fromkeys(site[0] for site in SITES))
CLI_STAGES = ("generate", "prepare", "train", "compare")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def tail_level(n: int) -> float:
    """Highest percentile of a fixed ladder with at least 10 samples beyond it.

    Below 20 samples no percentile above the median qualifies, so the
    median is reported in its place.
    """
    for level in (99.9, 99.0, 90.0):
        if n * (1.0 - level / 100.0) >= 10:
            return level
    return 50.0


class Tracer:
    """Spans held in memory: (name, start_ns, end_ns, parent index, value)."""

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            with self.span(name, measure(*args, **kwargs) if measure else None):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str, value=None):
        """Record the block as a span, child of the innermost open span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, value)

    @contextmanager
    def installed_sites(self):
        """Wrap every lookup site for the duration of the block, then restore it."""
        saved = []
        for name, owner_path, attr, measure in SITES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing = f"{owner_path}.{attr}"
                if missing not in self.absent:
                    self.absent.append(missing)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_op(self) -> list[dict]:
        """For each operation span: {name: [calls, self_ns, duration_ns, value]}.

        Self time is a span's duration minus the time its direct children cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        ops: list[dict] = []
        for index, (name, start, end, parent, value) in enumerate(self.spans):
            if name == OP:
                ops.append({})
                continue
            row = ops[-1].setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += end - start - child_ns[index]
            row[2] += end - start
            row[3] += value or 0
        return ops

    def durations_ns(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def dump(self) -> list:
        return [list(span) for span in self.spans]


def count_signature(op: dict) -> tuple:
    """The exact counts of one operation: calls per span name and summed values."""
    return tuple(sorted((name, row[0], row[3]) for name, row in op.items()))


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the traced operations.

    Returns (metrics {name: (value, unit)}, {function: (tail percentile
    level, sample count)}, mismatches).  Counts are per operation and must
    be identical in every traced operation; each operation that differs
    from the first is listed as a mismatch.  Needs at least one traced
    operation.
    """
    ops = tracer.per_op()
    first = ops[0]
    mismatches = [
        f"traced operation {i} counts differ from operation 0"
        for i, op in enumerate(ops)
        if count_signature(op) != count_signature(first)
    ]
    durations = tracer.durations_ns()
    metrics: dict = {}
    levels: dict = {}
    for fn in FUNCTIONS:
        samples = durations.get(fn, [])
        level = tail_level(len(samples))
        levels[fn] = (level, len(samples))
        calls = first.get(fn, [0])[0]
        metrics[f"{fn}.calls"] = (calls, "count")
        for key, at in (("us_p50", 50.0), ("us_pN", level)):
            us = float(np.percentile(samples, at)) / 1e3 if samples else 0.0
            metrics[f"{fn}.{key}"] = (us, "us")
        self_ns = statistics.median(op.get(fn, [0, 0])[1] for op in ops)
        metrics[f"{fn}.self_s"] = (self_ns / 1e9, "s")
    updates = first.get("training.adam_step", [0])[0]
    passes = first.get("cnn.forward_batch", [0])[0] + first.get("cnn.backward_batch", [0])[0]
    metrics["training.forward_passes_per_update"] = (passes / updates if updates else 0.0, "count")
    metrics["cli.bytes_written"] = (first.get("cli._write_atomic", [0, 0, 0, 0])[3], "count")
    for stage in CLI_STAGES:
        stage_ns = statistics.median(op.get(f"cli.{stage}", [0, 0, 0])[2] for op in ops)
        metrics[f"cli.{stage}_s"] = (stage_ns / 1e9, "s")
    return metrics, levels, mismatches
