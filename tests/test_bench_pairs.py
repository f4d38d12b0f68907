"""``tools/bench_pairs.summarize`` on hand-made runs: the statistics every BENCH claim reads."""

import pytest

from tools.bench_pairs import summarize

SPECS = {
    "op_s": {"better": "lower", "bound": 0.25},
    "work_per_s": {"better": "higher", "bound": 0.25},
    "bytes_written": {"better": "lower"},
}


def run(**values):
    metrics = {name: {"value": v} for name, v in values.items()}
    return {"metrics": metrics, "attempted": 7, "failed": 0, "correct": True}


def summary(parent, change, specs=SPECS):
    """``summarize`` over paired runs given as one dict of metric values per run."""
    runs = {"parent": [run(**r) for r in parent], "change": [run(**r) for r in change]}
    return summarize(runs, specs, [11, 12, 13], ["parent", "change", "parent"])


def test_wins_count_neither_side_on_a_tie():
    doc = summary(
        [dict(op_s=1.0, work_per_s=10.0, bytes_written=5)] * 3,
        [
            dict(op_s=0.5, work_per_s=11.0, bytes_written=5),
            dict(op_s=1.0, work_per_s=10.0, bytes_written=5),
            dict(op_s=2.0, work_per_s=9.0, bytes_written=5),
        ],
    )
    wins = {name: m["change_wins"] for name, m in doc["metrics"].items()}
    assert wins == {"op_s": "1/3", "work_per_s": "1/3", "bytes_written": "0/3"}
    assert doc["runs"] == 3 and doc["seeds"] == [11, 12, 13]
    assert doc["failed"] == {"parent": 0, "change": 0} and doc["correct"]
    assert doc["attempted_per_run"] == {"parent": [7] * 3, "change": [7] * 3}


def test_worse_by_is_positive_when_the_change_is_worse_in_either_direction():
    parent = [dict(op_s=v, work_per_s=10 * v, bytes_written=1) for v in (1.0, 2.0, 3.0)]
    worse = [dict(op_s=v, work_per_s=8 * v, bytes_written=1) for v in (1.5, 2.5, 3.5)]
    better = [dict(op_s=v / 2, work_per_s=13 * v, bytes_written=1) for v in (1.0, 2.0, 3.0)]
    slower = summary(parent, worse)["metrics"]
    assert slower["op_s"]["worse_by"] == pytest.approx(0.25)  # median 2.0 s -> 2.5 s
    assert slower["work_per_s"]["worse_by"] == pytest.approx(0.0)  # median 20 -> 20 per s
    faster = summary(parent, better)["metrics"]
    assert faster["op_s"]["worse_by"] == pytest.approx(-0.5)  # median 2.0 s -> 1.0 s
    assert faster["work_per_s"]["worse_by"] == pytest.approx(-0.3)  # median 20 -> 26 per s
    assert faster["op_s"]["change_over_parent"] == pytest.approx(0.5)
    assert faster["work_per_s"]["change_over_parent"] == pytest.approx(1.3)
    assert "worse_by" not in faster["bytes_written"]  # a metric without a bound


@pytest.mark.parametrize("op_s, within", [(2.5, True), (2.6, False)])
def test_within_bound_holds_up_to_the_bound(op_s, within):
    doc = summary(
        [dict(op_s=2.0, work_per_s=10.0, bytes_written=1)] * 3,
        [dict(op_s=op_s, work_per_s=7.5, bytes_written=1)] * 3,
    )["metrics"]
    assert doc["op_s"]["bound"] == 0.25 and doc["op_s"]["within_bound"] is within
    assert doc["work_per_s"]["worse_by"] == pytest.approx(0.25)
    assert doc["work_per_s"]["within_bound"] is True


def test_a_parent_median_of_zero_leaves_the_ratios_null():
    specs = {"train_C8_minflt": {"better": "lower"}}
    doc = summary(
        [dict(train_C8_minflt=v) for v in (0.0, 0.0, 1.0)],
        [dict(train_C8_minflt=v) for v in (0.0, 2.0, 3.0)],
        specs,
    )["metrics"]["train_C8_minflt"]
    assert doc["parent"]["median"] == 0.0 and doc["change"]["median"] == 2.0
    assert doc["change_over_parent"] is None and doc["parent_spread"] is None
    assert doc["change_wins"] == "0/3"


def test_quartiles_and_spread_interpolate_linearly():
    doc = summary(
        [dict(op_s=v, work_per_s=1.0, bytes_written=1) for v in (1.0, 2.0, 4.0)],
        [dict(op_s=v, work_per_s=1.0, bytes_written=1) for v in (1.0, 2.0, 4.0)],
    )["metrics"]["op_s"]
    assert (doc["parent"]["q1"], doc["parent"]["median"], doc["parent"]["q3"]) == (1.5, 2.0, 3.0)
    assert doc["parent_spread"] == pytest.approx(0.75)
    assert doc["per_run"] == {"parent": [1.0, 2.0, 4.0], "change": [1.0, 2.0, 4.0]}


@pytest.mark.parametrize(
    "name, value, within",
    [
        ("op_s", 0.0, True), ("op_s", 0.5, False), ("op_s", -0.5, True),
        ("work_per_s", 0.0, True), ("work_per_s", -0.5, False), ("work_per_s", 0.5, True),
    ],
    ids=[
        "lower-equal", "lower-worse", "lower-better",
        "higher-equal", "higher-worse", "higher-better",
    ],
)
def test_a_parent_median_of_zero_bounds_only_a_worse_change(name, value, within):
    doc = summary([{name: 0.0}] * 3, [{name: value}] * 3, {name: SPECS[name]})["metrics"][name]
    assert doc["worse_by"] is None and doc["within_bound"] is within
    assert doc["change_over_parent"] is None and doc["parent_spread"] is None


@pytest.mark.parametrize(
    "op_s, resolved",
    [
        ((2.0, 2.0, 2.1), True), ((1.0, 2.0, 2.0), True),
        ((1.0, 2.0, 4.0), False), ((0.0, 0.0, 0.0), None),
    ],
    ids=["tight", "spread-at-bound", "spread-over-bound", "parent-median-zero"],
)
def test_resolved_when_the_parent_spread_is_within_the_bound(op_s, resolved):
    doc = summary(
        [dict(op_s=v, work_per_s=1.0, bytes_written=1) for v in op_s],
        [dict(op_s=v, work_per_s=1.0, bytes_written=1) for v in op_s],
    )["metrics"]
    assert doc["op_s"]["resolved"] is resolved
    assert doc["work_per_s"]["resolved"] is True  # no spread at all
    assert "resolved" not in doc["bytes_written"]  # a metric without a bound
