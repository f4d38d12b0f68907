"""End-to-end tests of the command-line pipeline."""

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clockpred import cli, config
from clockpred.cli import (
    _build_parser, _json_text, _write_atomic, cmd_prepare, load_prepared, main
)
from clockpred.cnn import init_weights, model_to_json
from clockpred.kalman import KalmanParams, kf_one_ahead_batch
from clockpred.predictor import (
    PredictionReport, eligible_indices, reconstruct, summary_to_json, window_matrix
)
from clockpred.series import (
    QuadraticTrend, denormalize, detrend, prepare, read_series, retrend, series_to_csv
)
from clockpred.synthetic import SyntheticClockSpec, generate
from benchmarks.workloads import FrozenCli, load_reference
from tests.helpers import bind_groups, kernel_pin_message

ROOT = Path(__file__).resolve().parent.parent


def fast_conf(tmp_path, **extra):
    """A configuration that keeps CLI tests quick: tiny training budget.  ``extra`` adds
    keys or overrides these."""
    values = {"fit_on_full": "true", "train_max_updates": 40, "train_patience": 40, **extra}
    lines = [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "fast.conf"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


STAGES = ("generate", "prepare", "train", "compare")


def stage_argv(stage, root, conf, *extra):
    """The benchmark's argv for ``stage`` (``FrozenCli.stage_argv``) with every file it names
    under ``root``, read with ``conf``, then ``extra``; a repeated option takes its last value."""
    name, *args = FrozenCli.stage_argv(stage)
    args = [a if a.startswith("--") else str(Path(root) / a) for a in args]
    return [name, *args, "--config", str(conf), *map(str, extra)]


def run_stages(root, conf, *stages):
    """Run each of ``stages`` in turn on the files under ``root``; each must succeed."""
    for stage in stages:
        assert main(stage_argv(stage, root, conf)) == 0, stage


def ready_to_compare(root, **extra):
    """A quick configuration with ``extra``, ``generate`` and ``prepare`` run under ``root``,
    and an untrained model in ``model.json``; returns the configuration's path."""
    conf = fast_conf(root, **extra)
    run_stages(root, conf, "generate", "prepare")
    (root / "model.json").write_text(model_to_json(init_weights(0)))
    return conf


def refused(argv, *absent):
    """Run ``argv``, which must be refused: exit 1 with one ``clockpred: error: `` line,
    and none of the paths ``absent`` written.  Returns the line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    line = err.getvalue()
    assert code == 1 and line.startswith("clockpred: error: "), line[:500]
    assert line.count("\n") == 1, line[:500]
    assert [p for p in absent if Path(p).exists()] == []
    return line


def clear_outputs(argv):
    """Delete each output that ``argv`` names, and its manifest."""
    for option, out in zip(argv, argv[1:]):
        if option in ("--out", "--out-dir") or option.endswith("-out"):
            for path in (out, f"{out}.manifest.json"):
                shutil.rmtree(path) if os.path.isdir(path) else Path(path).unlink(missing_ok=True)


class TestGenerate:
    def test_default_spec_row_count(self, tmp_path):
        run_stages(tmp_path, fast_conf(tmp_path), "generate")
        text = (tmp_path / "series.csv").read_text()
        assert text.startswith("mjd,ns\n")
        assert len(text.strip().split("\n")) == 275
        assert (tmp_path / "series.csv.manifest.json").exists()

    def test_same_seed_identical_file(self, tmp_path):
        conf = fast_conf(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(stage_argv("generate", tmp_path, conf, "--out", a))
        main(stage_argv("generate", tmp_path, conf, "--out", b))
        assert a.read_bytes() == b.read_bytes()

    def test_minimum_n(self, tmp_path):
        run_stages(tmp_path, fast_conf(tmp_path, gen_n=7), "generate")
        assert len((tmp_path / "series.csv").read_text().strip().split("\n")) == 8

    def test_seed_flag_overrides(self, tmp_path):
        conf = fast_conf(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(stage_argv("generate", tmp_path, conf, "--seed", 1, "--out", a))
        main(stage_argv("generate", tmp_path, conf, "--seed", 2, "--out", b))
        assert a.read_bytes() != b.read_bytes()


class TestPrepare:
    def test_split_manifest_counts(self, tmp_path):
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")
        split_doc = json.loads((tmp_path / "prepared" / "split.json").read_text())
        assert split_doc["n"] == 274
        assert split_doc["train"] == [0, 141]
        assert split_doc["val"] == [141, 174]
        assert split_doc["test"] == [174, 274]
        manifest = json.loads((tmp_path / "prepared" / "manifest.json").read_text())
        assert manifest["extra"]["split_sizes"] == [141, 33, 100]

    def test_outputs_reassemble_to_input(self, tmp_path):
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")
        original = read_series(tmp_path / "series.csv")
        prep = load_prepared(tmp_path / "prepared")
        rebuilt = retrend(denormalize(prep.residual_norm, prep.scale), prep.trend)
        npt.assert_allclose(rebuilt.values, original.values, atol=1e-9)

    def test_pure_quadratic_residual_is_zero(self, tmp_path):
        conf = fast_conf(tmp_path, gen_sigma_wfm=0.0, gen_sigma_rwfm=0.0)
        run_stages(tmp_path, conf, "generate", "prepare")
        residual = read_series(tmp_path / "prepared" / "residual.csv")
        # the fit cannot beat the 3-decimal quantization of the input file
        npt.assert_allclose(residual.values, 0.0, atol=1e-3)

    def test_two_file_combination(self, tmp_path):
        conf = fast_conf(tmp_path)
        s = generate(SyntheticClockSpec(n=274))
        half = s.with_values(s.values / 2.0)
        (tmp_path / "a.csv").write_text(series_to_csv(half, decimals=None))
        (tmp_path / "b.csv").write_text(series_to_csv(half, decimals=None))
        argv = stage_argv("prepare", tmp_path, conf, "--in", tmp_path / "a.csv")
        assert main(argv + ["--in-b", str(tmp_path / "b.csv")]) == 0
        combined = read_series(tmp_path / "prepared" / "series.csv")
        npt.assert_allclose(combined.values, s.values, atol=1e-3)

    @pytest.mark.parametrize("interval", [1, 5, 10])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 400), fit_on_full=st.booleans())
    def test_round_trip_at_any_interval(self, interval, seed, n, fit_on_full):
        """``prepare`` then ``load_prepared`` equals an in-process ``prepare`` of the series
        as ``series.csv`` holds it, at any spacing, from a 3- or a 6-decimal input or from
        two inputs summed."""
        cfg = config.effective_config({"fit_on_full": str(fit_on_full).lower()})
        s = generate(SyntheticClockSpec(n=n, interval=interval, seed=seed))
        half = series_to_csv(s.with_values(s.values / 2.0), decimals=None)
        sources = [[series_to_csv(s)], [series_to_csv(s, decimals=6)], [half, half]]
        for texts in sources:
            with tempfile.TemporaryDirectory() as tmp:
                paths, out = [Path(tmp) / f"{i}.csv" for i in range(len(texts))], Path(tmp) / "p"
                for path, text in zip(paths, texts):
                    path.write_text(text)
                conf = Path(tmp) / "split.conf"
                conf.write_text(f"fit_on_full = {cfg['fit_on_full']}\n")
                cmd_prepare(paths[0], conf, out, *paths[1:])
                got = load_prepared(out)
                want = prepare(read_series(out / "series.csv"), *config.prepare_options_from(cfg))
            for part in ("series", "residual_norm"):
                npt.assert_array_equal(getattr(got, part).epochs, want.series.epochs)
                npt.assert_array_equal(getattr(got, part).values, getattr(want, part).values)
                assert getattr(got, part).interval == interval
            assert (got.split, got.trend, got.scale) == (want.split, want.trend, want.scale)
            assert got.fit_on_full == want.fit_on_full == fit_on_full

    def test_directory_that_differs_in_layout_alone_loads(self, tmp_path):
        """JSON documents rewritten compact with their keys reordered, and residual.csv
        rewritten at ``%.17g`` with a trailing blank line, load as the directory
        ``prepare`` wrote."""
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")
        prepared = tmp_path / "prepared"
        want = load_prepared(prepared)
        for name in ("trend.json", "scale.json", "split.json"):
            path = prepared / name
            doc = json.loads(path.read_text())
            path.write_text(json.dumps(dict(reversed(doc.items())), separators=(",", ":")))
        residual = prepared / "residual.csv"
        header, *rows = residual.read_text().splitlines()
        rows = [f"{mjd},{float(ns):.17g}" for mjd, ns in (row.split(",") for row in rows)]
        text = "\n".join([header, *rows]) + "\n\n"
        assert text.splitlines()[1:] != residual.read_text().splitlines()[1:]
        residual.write_text(text)
        got = load_prepared(prepared)
        for part in ("series", "residual_norm"):
            npt.assert_array_equal(getattr(got, part).epochs, getattr(want, part).epochs)
            npt.assert_array_equal(getattr(got, part).values, getattr(want, part).values)
            assert getattr(got, part).interval == getattr(want, part).interval
        assert (got.split, got.trend, got.scale) == (want.split, want.trend, want.scale)
        assert got.fit_on_full == want.fit_on_full


class TestPipeline:
    def test_full_run_and_artifacts(self, tmp_path):
        run_stages(tmp_path, fast_conf(tmp_path), *STAGES)
        trace_lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert trace_lines[0] == "update,train_rmse,val_rmse"
        assert len(trace_lines) - 1 <= 40
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_pred"] == 100
        assert np.isfinite(summary["cnn_e_rms_ns"]) and summary["cnn_e_rms_ns"] > 0
        report_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(report_lines) == 101
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["extra"]["stop_reason"] in ("max-updates", "early-stop")

    def test_deterministic_artifacts(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path / "one", conf, *STAGES)
        run_stages(tmp_path / "two", conf, *STAGES)
        for name in ("series.csv", "model.json", "trace.csv", "report.csv", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    def test_memorization_stub_scores_zero(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, *STAGES)
        stub = ["--report-out", tmp_path / "stub.csv", "--summary-out", tmp_path / "stub.json"]
        assert main(stage_argv("compare", tmp_path, conf, *stub, "--stub-memorize")) == 0
        doc = json.loads((tmp_path / "stub.json").read_text())
        assert doc["cnn_e_rms_ns"] == 0.0
        assert doc["kf_e_rms_ns"] == 0.0

    @pytest.mark.parametrize("interval", [1, 10])
    def test_other_spacing_runs_under_config_without_interval(self, tmp_path, interval):
        """The Kalman filter's step is the data's spacing, not the generator key's default."""
        (tmp_path / "gen").mkdir()
        run_stages(tmp_path, fast_conf(tmp_path / "gen", gen_interval=interval), "generate")
        run_stages(tmp_path, fast_conf(tmp_path), "prepare", "train", "compare")
        prepared = load_prepared(tmp_path / "prepared")
        assert prepared.series.interval == interval
        test_range = prepared.split.test_range
        windows = window_matrix(prepared.residual_norm, test_range)
        epochs = prepared.series.epochs[eligible_indices(test_range)]
        kf_norm = kf_one_ahead_batch(windows, interval, KalmanParams())
        rows = np.loadtxt(tmp_path / "report.csv", delimiter=",", skiprows=1)
        npt.assert_array_equal(rows[:, 0], epochs)
        npt.assert_array_equal(
            rows[:, 3], reconstruct(kf_norm, prepared.scale, prepared.trend, epochs)
        )


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_PREPARED_DOCS = tuple(
    f"prepared/{name}"
    for name in ("series.csv", "residual.csv", "trend.json", "scale.json", "split.json")
)


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    """The frozen experiment with a 5-update budget, every stage run in its directory with
    the benchmark's relative paths: config, series, prepared directory, model, report.

    Patience 1 stops training at the first update that does not improve the
    validation RMSE, so a mutated budget still ends quickly.
    """
    root = tmp_path_factory.mktemp("frozen")
    text = (ROOT / "configs" / "experiment.conf").read_text()
    text = text.replace("train_max_updates = 2000", "train_max_updates = 5")
    text = text.replace("train_patience = 2000", "train_patience = 1")
    (root / "experiment.conf").write_text(text)
    for stage in STAGES:
        assert FrozenCli.run_stage(stage_argv(stage, "", root / "experiment.conf"), root) is None
    return root


def _mutated(draw, text: bytes) -> bytes:
    """``text`` with one number replaced, cut short, one line deleted or one byte inserted."""
    kind = draw(st.sampled_from(["number", "truncate", "delete-line", "insert-byte"]))
    if kind == "number":
        start, end = draw(st.sampled_from([m.span() for m in _NUMBER.finditer(text)]))
        number = draw(st.sampled_from([b"nan", b"inf", b"1e400", b"1e308", b"1" + b"0" * 29]))
        return text[:start] + number + text[end:]
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "delete-line":
        lines = text.splitlines(keepends=True)
        del lines[draw(st.integers(0, len(lines) - 1))]
        return b"".join(lines)
    at = draw(st.integers(0, len(text)))
    return text[:at] + bytes([draw(st.integers(0, 255))]) + text[at:]


def _numbers(path: Path) -> list[float]:
    """Every number in a written CSV or JSON document; NaN stands for ``NaN`` and ``Infinity``."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        numbers = []
        for token in re.split(r"[,\n]", text):
            with contextlib.suppress(ValueError):
                numbers.append(float(token))
        return numbers

    def walk(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [x for item in value for x in walk(item)]
        return [value] if isinstance(value, float) else []

    return walk(json.loads(text, parse_constant=lambda _: math.nan))


def _put(raw, *keys):
    """An edit of a JSON document that sets the entry at ``keys`` to the JSON text ``raw``."""

    def edit(text):
        doc = json.loads(text)
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = "@"
        return json.dumps(doc).replace('"@"', raw)

    return edit


def _each_row(change, rows=None):
    """An edit of an ``mjd,ns`` document: data row ``i`` (each by default) becomes
    ``change(i, mjd, ns)``, its fields read as floats."""

    def edit(text):
        lines = text.splitlines()
        for i in rows or range(1, len(lines)):
            mjd, ns = change(i, *map(float, lines[i].split(",")))
            lines[i] = f"{mjd:.0f},{float(ns)!r}"
        return "\n".join(lines) + "\n"

    return edit


def _differ(key, source="what prepare writes for series.csv"):
    """The refusal of a document whose ``key`` differs from what ``source`` gives."""
    return f"{{path}}: malformed document: keys [{key!r}] differ from {source}"


def _cut(text):
    return text[: len(text) // 2]


def _as_list(text):
    return json.dumps(list(json.loads(text).values()))


MODEL, CONF, (RESIDUAL, TREND, SCALE, SPLIT) = "model.json", "fast.conf", _PREPARED_DOCS[1:]


def _append(line):
    """An edit that adds ``line``, as a key is added to the configuration."""
    return lambda text: f"{text}{line}\n"


_HUGE_AT_40 = _each_row(lambda i, mjd, ns: (mjd, 1e308), [40])  # finite, but its trend is not
_TO_ROW_3 = "mjd,ns\n56934,1.0\n56939,"

# Each run that the CLI must refuse.  A row names the stage; a file under the run directory;
# the text to write there, an edit of its text, or None to remove it; the line after
# ``clockpred: error: ``; and any further argv, whose paths are under the run directory.  In
# the line, ``{path}`` is the file, ``{model}``, ``{prepared}``, ``{series}`` and ``{conf}``
# are the stage's inputs, ``…`` is any text, and a final newline makes it the whole line.
# Rows are grouped under the tests their cases have run under, keyed by the test's id under
# ``tests/`` and bound there by ``bind_groups``.  A group is a row, a list of rows that one
# test runs in turn, or a dict of rows keyed by their parametrize ids.
CLI_REFUSALS = {
    **{
        f"test_cli.py::TestSafety::{test}": (
            stage, name, "stale\n", "refusing to overwrite {path} (pass --force)\n"
        )
        for test, stage, name in [
            ("test_refuses_overwrite_without_force", "generate", "series.csv"),
            ("test_refused_prepare_writes_nothing", "prepare", "prepared/split.json"),
            ("test_refused_train_writes_no_model", "train", "trace.csv"),
        ]
    },
    "test_cli.py::TestSafety::test_missing_input_is_one_line_diagnostic": (
        "prepare", "series.csv", None, "[Errno 2] No such file or directory: '{path}'\n"
    ),
    "test_cli.py::TestSafety::test_bad_config_reports_line": (
        "generate", CONF, _append("not a pair"),
        "{path}:4: expected 'key = value', got 'not a pair'\n",
    ),
    "test_cli.py::TestSafety::test_nan_kalman_parameter_is_one_line_diagnostic": (
        "compare", CONF, _append("kf_q1 = nan"), "{path}: Kalman parameters must be finite\n"
    ),
    "test_cli.py::TestSafety::test_epoch_beyond_int64_is_one_line_diagnostic": (
        "prepare", "series.csv", lambda t: t.replace("\n56959,", f"\n{10**29},"),
        f"{{path}}:7: malformed row '{10**29},302.378'\n",
    ),
    "test_cli.py::TestSafety::test_second_input_on_other_grid_is_one_line_diagnostic": (
        "prepare", "b.csv", series_to_csv(generate(SyntheticClockSpec(interval=10))),
        "{path}: cannot combine series with intervals 5 and 10\n", "--in-b", "b.csv",
    ),
    "test_cli.py::TestSafety::test_two_outputs_on_one_path_are_refused": (
        "compare", "report.csv", "stale\n", "two outputs of compare share one path\n",
        "--summary-out", "report.csv", "--force",
    ),
    "test_cli.py::TestSafety::test_first_step_not_positive_is_one_line_diagnostic": {
        name: (
            "prepare", "series.csv", f"mjd,ns\n56939,1.0\n{second},2.0\n56929,3.0\n",
            f"{{path}}: epochs must increase; offending step 56939 -> {second}\n",
        )
        for name, second in [("zero-step", 56939), ("backward-step", 56934)]
    },
    # The line names the input, or both inputs when they are summed.
    "test_cli.py::TestSafety::test_huge_input_value_names_the_inputs": {
        "in": (
            "prepare", "series.csv", _HUGE_AT_40,
            "{path} with {conf}: trend coefficient c0 must be finite\n",
        ),
        "in-b": (
            "prepare", "b.csv", _HUGE_AT_40(series_to_csv(generate(SyntheticClockSpec()))),
            "{series} + {path} with {conf}: trend coefficient c0 must be finite\n",
            "--in-b", "b.csv",
        ),
    },
    # A row, line, key or value of a million characters, or an integer of 4,001 digits,
    # ends in one short line that still names the file and the line or the key.
    "test_cli.py::TestSafety::test_huge_input_text_is_echoed_cut_short": {
        "row-fields": (
            "prepare", "series.csv", _TO_ROW_3 + "9" * 10**6 + ",2\n",
            "{path}:3: malformed row '56939,9…9,2'\n",
        ),
        "row-value": (
            "prepare", "series.csv", _TO_ROW_3 + "x" * 10**6 + "\n",
            "{path}:3: malformed row '56939,x…x'\n",
        ),
        **{
            name: ("generate", CONF, _append(text), "{path}" + line)
            for name, text, line in [
                ("config-line", "x" * 10**6, ":4: expected 'key = value', got 'x…x'\n"),
                ("config-key", "k" * 10**6 + " = 1", ":4: unknown configuration key 'k…k'\n"),
                ("config-value", "gen_n = " + "x" * 10**6, ": configuration key 'gen_n': 'x…x'"),
                ("config-seed", "seed = -1" + "0" * 4000,
                 ": seed must be an integer of at least 0, got -10…0\n"),
                ("config-n", "gen_n = 1" + "0" * 4000, ": epochs 56934 to 50…056929 overflow"),
                ("config-channels", "cnn_channels = 1" + "0" * 4000,
                 ": configuration key 'cnn_channels': must be at least 1 and at most 1024, got 1"),
            ]
        },
    },
    # Every stage reads every configuration value, so even ``generate`` refuses a bad
    # training or split value, and the line names the file.
    "test_cli.py::TestSafety::test_bad_config_value_names_the_config_file": {
        name: ("generate", CONF, _append(f"{key} = {value}"), "{path}: " + line)
        for name, key, value, line in [
            ("seed-nan", "seed", "nan", "configuration key 'seed': 'nan' is not an integer\n"),
            ("train-frac-nan", "train_frac", "nan", "fractions out of range: train=nan, "),
            ("channels-30-digits", "cnn_channels", 10**29,
             "configuration key 'cnn_channels': must be at least 1 and at most 1024, got 1…0\n"),
            ("n-30-digits", "gen_n", 10**29, "epochs 56934 to 5…56929 overflow int64\n"),
            ("step-30-digits", "gen_interval", 10**29, "epochs 56934 to 273…56934 overflow"),
            ("n-1e17", "gen_n", 10**17, f"Unable to allocate … with shape ({10**17},) and"),
        ]
    },
    # Keyed by the ids that pytest made of these cases' settings and messages.
    "test_cli.py::TestSafety::test_bad_training_is_one_line_diagnostic": {
        f"setting{i}-{line.split(': ', 1)[1]}": ("train", CONF, _append(setting), line)
        for i, (setting, line) in enumerate([
            ("train_lr = -1", "{path}: lr must be positive"),
            ("train_beta2 = 1", "{path}: beta2 must lie in"),
            ("train_lr = 1e300", "{prepared} with {path}: training diverged at update 1:"),
            ("train_l2_lambda = inf", "{path}: l2_lambda must be nonnegative and finite"),
            ("train_eps = inf", "{path}: eps must be positive and finite"),
            ("cnn_channels = -2", "{path}: configuration key 'cnn_channels': must be at least 1"),
            ("train_l2_lambda = 1e308", "{prepared} with {path}: training diverged at update 1:"),
        ])
    },
    # Keyed by the ids that pytest made of these cases' stages, options and lines.
    "test_cli.py::TestSafety::test_output_path_through_a_file_is_refused": {
        "generate---out-[Errno 17] File exists: '{file}'": (
            "generate", "file", "", "[Errno 17] File exists: '{path}'\n", "--out", "file/out"
        ),
        "prepare---out-dir-[Errno 20] Not a directory: '{file}/out'": (
            "prepare", "file", "", "[Errno 20] Not a directory: '{path}/out'\n",
            "--out-dir", "file/out",
        ),
    },
    # A target that is a directory is refused before the first write, even with --force,
    # so no other output of the stage is written.
    "test_cli.py::TestSafety::test_output_path_that_is_a_directory_is_refused": {
        f"{stage}-{target}": (stage, f"{target}/file", "", f"…/{target} is a directory\n", *argv)
        for stage, target, argv in [
            ("generate", "series.csv.manifest.json", []),
            ("prepare", "prepared/trend.json", ["--force"]),
            ("compare", "summary.json", ["--force"]),
        ]
    },
    "test_cli.py::TestSafety::test_malformed_prepared_document_is_one_line_diagnostic": {
        "split-without-val": (
            "train", SPLIT,
            lambda t: json.dumps({k: v for k, v in json.loads(t).items() if k != "val"}),
            "{path}: missing key 'val'",
        ),
        "trend-as-list": ("train", TREND, _as_list, "{path}: malformed"),
        "scale-cut": ("train", SCALE, _cut, "{path}: malformed"),
        "residual-other-grid": (
            "train", RESIDUAL, _each_row(lambda i, mjd, ns: (56934 + 10 * (i - 1), ns)),
            "{path}: epochs differ from those of series.csv",
        ),
        "split-flag-string": ("train", SPLIT, _put('"false"', "fit_on_full"), "{path}: malformed"),
        "split-flag-half": ("train", SPLIT, _put("0.5", "fit_on_full"), "{path}: malformed"),
        "split-n-float": ("train", SPLIT, _put("274.9", "n"), "{path}: malformed"),
        "split-bound-bool": ("train", SPLIT, _put("false", "train", 0), "{path}: malformed"),
        "trend-bool": ("train", TREND, _put("true", "c2"), "{path}: malformed"),
        "trend-string": ("train", TREND, _put('"0"', "c2"), "{path}: malformed"),
        "scale-bool": ("train", SCALE, _put("true", "d_max_abs"), "{path}: malformed"),
    },
    "test_cli.py::TestSafety::test_malformed_model_is_one_line_diagnostic": {
        name: ("compare", MODEL, edit, "{path}: malformed document:")
        for name, edit in {
            "model-cut": _cut,
            "model-as-list": _as_list,
            "width-float": _put("5.7", "config", "width"),
            "channels-float": _put("1.9", "config", "channels"),
            "channels-bool": _put("true", "config", "channels"),
            "head-bias-bool": _put("true", "head", "bias"),
            "head-bias-string": _put('"0.5"', "head", "bias"),
            "kernel-entry-bool": _put("true", "layers", 1, "kernel", 0, 0, 1),
        }.items()
    },
    # A document that is not what ``prepare`` writes for series.csv is refused naming the
    # keys that differ, or the residual's first MJD that differs, never their values.
    "test_cli.py::TestSafety::test_inconsistent_prepared_directory_is_one_line_diagnostic": {
        "residual-row-moved-5ns": (
            "compare", RESIDUAL, _each_row(lambda i, mjd, ns: (mjd, ns + 5.0), [50]),
            "{path}: residual at MJD 57179 differs from what prepare writes for series.csv",
        ),
        "residual-row-moved-1ulp": (
            "compare", RESIDUAL,
            _each_row(lambda i, mjd, ns: (mjd, np.nextafter(ns, np.inf)), [50]),
            "{path}: residual at MJD 57179 differs from what prepare writes for series.csv",
        ),
        "residual-epochs-shifted": (
            "compare", RESIDUAL, _each_row(lambda i, mjd, ns: (mjd + 5, ns)),
            "{path}: epochs differ",
        ),
        "residual-last-row-dropped": (
            "compare", RESIDUAL, lambda t: t[: t.rindex("\n", 0, -1) + 1], "{path}: epochs differ"
        ),
        "split-n-999": ("compare", SPLIT, _put("999", "n"), _differ("n")),
        "split-train-overlaps-test": (
            "compare", SPLIT, _put("[0, 274]", "train"), _differ("train")
        ),
        "split-val-shifted": ("compare", SPLIT, _put("[142, 175]", "val"), _differ("val")),
        "split-extra-key": ("compare", SPLIT, _put('"x"', "note"), _differ("note")),
        "split-n-huge-list": (
            "compare", SPLIT, _put(json.dumps([274] * 200_000), "n"), _differ("n")
        ),
        "split-flag-one": ("compare", SPLIT, _put("1", "fit_on_full"), _differ("fit_on_full")),
        "split-n-1e400": ("compare", SPLIT, _put("1e400", "n"), _differ("n") + "\n"),
        "scale-extra-key": ("compare", SCALE, _put("1", "note"), _differ("note")),
        "trend-huge-key": (
            "compare", TREND, _put("1", "k" * 1_000_000), _differ("k" * 27 + "..." + "k" * 28)
        ),
        "trend-c1-1e400": ("compare", TREND, _put("1e400", "c1"), _differ("c1")),
        # a finite coefficient whose trend overflows on the series' epochs
        "trend-c1-1e308": ("train", TREND, _put("1e308", "c1"), _differ("c1") + "\n"),
        # a finite scale that overflows the residual
        "scale-1e-320": ("train", SCALE, _put("1e-320", "d_max_abs"), _differ("d_max_abs") + "\n"),
    },
    # The config must be exactly what the model's kernels give; the line names the key and
    # never echoes its value.
    "test_cli.py::TestSafety::test_edited_model_config_is_one_line_diagnostic": {
        name: (
            "compare", MODEL, _put(raw, "config", key),
            _differ(key, "the config of its kernels") + "\n",
        )
        for name, raw, key in [
            ("extra-key", "1", "note"),
            ("width-huge-list", json.dumps([5] * 200_000), "width"),
            ("width-7", "7", "width"),
            ("channels-1e400", "1e400", "channels"),
        ]
    },
    "test_cli.py::TestSafety::test_refusal_names_the_key": {
        "trend-string": ("compare", TREND, _put('"x"', "c1"), _differ("c1") + "\n"),
        "kernel-string": (
            "compare", MODEL, _put('"x"', "layers", 2, "kernel", 0, 0, 1),
            "{path}: malformed document: a str at 'layers[2].kernel[0][0][1]' where a JSON"
            " number belongs\n",
        ),
        "kernel-1e309": (
            "compare", MODEL, _put("1e309", "layers", 2, "kernel", 0, 0, 1),
            "{path}: malformed document: layers[2]: layer parameters must be finite\n",
        ),
        "bias-two-entries": (
            "compare", MODEL, _put("[0.0, 0.0]", "layers", 2, "bias"),
            "{path}: malformed document: layers[2]: bias shape (2,) does not match 1 output"
            " channels\n",
        ),
        "kernel-short": (
            "compare", MODEL,
            _put(json.dumps([{"kernel": [[[0.5] * 3]], "bias": [0.0]}] * 3), "layers"),
            "{path}: malformed document: layers[0]: kernel length 3 at a position requiring 4\n",
        ),
    },
    # A huge head bias overflows the errors of the CNN's predictions.  A huge scale would
    # overflow the squared errors of finite predictions, but it is not what ``prepare``
    # writes, so the loader refuses it before any scoring.
    "test_cli.py::TestSafety::test_non_finite_score_is_refused_naming_method_and_mjd": {
        "scale-1e308": ("compare", SCALE, _put("1e308", "d_max_abs"), _differ("d_max_abs") + "\n"),
        "head-bias-1e308": (
            "compare", MODEL, _put("1e308", "head", "bias"),
            "{model} on {prepared} with {conf}: CNN prediction at MJD … gives a non-finite RMS"
            " error\n",
        ),
    },
    # A byte that is not UTF-8: a JSON document does not decode, and in a CSV or
    # configuration file it reads as U+FFFD, which no key, number or header accepts.
    "test_cli.py::TestSafety::test_undecodable_input_names_its_path": {
        name: ("compare", name, lambda t: "\x80" + t, "{path}")
        for name in (CONF, MODEL, "prepared/series.csv")
    },
    # Brackets nested too deep to decode, or a value that is a list nested 100 deep.
    "test_cli.py::TestSafety::test_deeply_nested_document_is_one_line_diagnostic": {
        f"{name}-{nesting}": ("compare", name, edit, "{path}: ")
        for name, keys in [
            (MODEL, ("head", "bias")), (TREND, ("c2",)), (SCALE, ("d_max_abs",)), (SPLIT, ("n",))
        ]
        for nesting, edit in [
            ("100000-brackets", lambda t: "[" * 100_000 + "]" * 100_000),
            ("value-100-deep", _put("[" * 100 + "0.5" + "]" * 100, *keys)),
        ]
    },
    # The refusals of the configuration reader and the model loader, under their files' tests.
    **{
        f"test_config.py::{test}": ("generate", CONF, _append(text), "{path}:4: " + line)
        for test, text, line in [
            ("test_empty_value_rejected", "gen_n =", "empty value for 'gen_n'\n"),
            ("test_duplicate_key_rejected_with_both_lines", "train_patience = 5",
             "duplicate key 'train_patience' (first set on line 3)\n"),
        ]
    },
    "test_config.py::test_section_seed_fields_are_not_keys": {
        key: (
            "generate", CONF, _append(f"{key} = 7"),
            f"{{path}}:4: unknown configuration key '{key}'\n",
        )
        for key in ("gen_seed", "train_seed")
    },
    "test_cnn.py::TestSerialization::test_malformed_document": [
        (
            "compare", MODEL,
            lambda t: json.dumps({k: v for k, v in json.loads(t).items() if k != "config"}),
            "{path}: missing key 'config'\n",
        ),
        (
            "compare", MODEL, _put("null", "config"),
            "{path}: malformed document: a NoneType at 'config' where a JSON number belongs\n",
        ),
    ],
    "test_cnn.py::TestSerialization::test_channels_must_match_the_kernels": (
        "compare", MODEL,
        lambda t: _put("1", "config", "channels")(model_to_json(init_weights(0, channels=2))),
        _differ("channels", "the config of its kernels") + "\n",
    ),
}


def _tree(root):
    """Every path under ``root``, with its bytes if it is a file."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


def cli_refusal_test(rows):
    """The test of one group of :data:`CLI_REFUSALS`: after ``ready_to_compare``, the
    removal of the stage's outputs and the row's edit, the stage must be refused without a
    warning, change no file and print the row's line in under 500 bytes.  The rows of a
    list run in turn, each in a directory of its own."""

    def test(tmp_path, row):
        if isinstance(row, list):
            for i, case in enumerate(row):
                (tmp_path / str(i)).mkdir()
                test(tmp_path / str(i), case)
            return
        stage, name, edit, line, *extra = row
        conf = ready_to_compare(tmp_path)
        extra = [a if a.startswith("--") else tmp_path / a for a in extra]
        argv = stage_argv(stage, tmp_path, conf, *extra)
        clear_outputs(argv)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if edit is None:
            path.unlink()
        else:
            text = edit if isinstance(edit, str) else edit(path.read_text("latin-1"))
            path.write_text(text, "latin-1")  # one character a byte
        before = _tree(tmp_path)
        err = refused(argv)
        assert _tree(tmp_path) == before
        inputs = dict(path=name, model=MODEL, prepared="prepared", series="series.csv", conf=CONF)
        want = "clockpred: error: " + line.format(**{k: tmp_path / v for k, v in inputs.items()})
        match = re.fullmatch if line.endswith("\n") else re.match
        assert match(".*".join(map(re.escape, want.split("…"))), err), err[:500]
        assert len(err.encode()) < 500

    def one(tmp_path):  # a test of one case or one list keeps its unparametrized id
        test(tmp_path, rows)

    if isinstance(rows, dict):
        one = pytest.mark.parametrize("row", rows.values(), ids=rows)(test)
    return pytest.mark.filterwarnings("error")(one)


class TestSafety:
    def test_six_decimal_input_round_trips(self, tmp_path):
        """``prepare`` works on the series as ``series.csv`` keeps it, at 1 ps, so the
        residual of a 6-decimal input is series.csv - trend to round-off."""
        conf = fast_conf(tmp_path)
        s = generate(SyntheticClockSpec(n=274))
        (tmp_path / "fine.csv").write_text(series_to_csv(s, decimals=6))
        assert main(stage_argv("prepare", tmp_path, conf, "--in", tmp_path / "fine.csv")) == 0
        prepared = tmp_path / "prepared"
        trend = QuadraticTrend(**json.loads((prepared / "trend.json").read_text()))
        rounded = detrend(read_series(prepared / "series.csv"), trend).values
        gap = np.abs(read_series(prepared / "residual.csv").values - rounded)
        assert gap.max() <= 1e-12
        load_prepared(prepared)
        (tmp_path / "model.json").write_text(model_to_json(init_weights(0)))
        run_stages(tmp_path, conf, "compare")

    @pytest.mark.parametrize("fit_on_full", ["true", "false"])
    def test_scale_of_another_run_names_scale_json(self, tmp_path, fit_on_full):
        """Another seed's scale.json is well formed and divides the residual finely,
        but it is not what ``prepare`` writes for this series.csv."""
        conf = ready_to_compare(tmp_path, fit_on_full=fit_on_full)
        other = tmp_path / "other"
        other.mkdir()
        other_conf = fast_conf(other, seed=1003, fit_on_full=fit_on_full)
        run_stages(other, other_conf, "generate", "prepare")
        path = tmp_path / "prepared" / "scale.json"
        path.write_bytes((other / "prepared" / "scale.json").read_bytes())
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err == "clockpred: error: " + _differ("d_max_abs").format(path=path) + "\n"

    def test_json_documents_refuse_non_finite_numbers(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text({"command": "compare", "extra": {"cnn_e_rms_ns": math.inf}})
        one = np.ones(1)
        report = PredictionReport(one, one, one, one, one, one, 1, math.nan, 1.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            summary_to_json(report)

    @pytest.mark.parametrize(
        "target", ["series.csv", "model.json", "experiment.conf", *_PREPARED_DOCS]
    )
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_input_ends_in_finite_output_or_one_line(self, frozen_run, target, data):
        """Every stage that reads a mutated input exits 0 having written only finite
        numbers, or exits 1 with one error line that names a path.  Each stage runs on
        its own copy of the frozen run, without the frozen run's outputs of that stage.
        Each input gets its own 8 mutants, so no edit of this body can draw none for one."""
        readers = {"series.csv": ["prepare"], "model.json": ["compare"], "experiment.conf": STAGES}
        mutant = _mutated(data.draw, (frozen_run / target).read_bytes())
        for stage in readers.get(target, ["train", "compare"]):
            with tempfile.TemporaryDirectory() as tmp:
                run = Path(tmp)
                shutil.copytree(frozen_run, run, dirs_exist_ok=True)
                (run / target).write_bytes(mutant)
                argv = stage_argv(stage, run, run / "experiment.conf")
                clear_outputs(argv)
                before = set(run.rglob("*"))
                err = io.StringIO()
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv)
                written = [p for p in set(run.rglob("*")) - before if p.is_file()]
                if code == 0:
                    assert written and all(math.isfinite(x) for p in written for x in _numbers(p))
                else:
                    line = err.getvalue()
                    assert code == 1 and line.startswith("clockpred: error: "), line
                    assert line.count("\n") == 1 and str(run) in line, line
                    assert len(line.encode()) < 500, line[:500]
                    assert not written

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "key, value, stage",
        [
            ("gen_y0", "1e308", "generate"), ("gen_y0", "-1e308", "generate"),
            ("gen_drift", "1e308", "generate"), ("gen_drift", "-1e308", "generate"),
            ("gen_sigma_wfm", "1e308", "generate"), ("gen_sigma_rwfm", "1e308", "generate"),
            ("gen_x0", "1e308", "prepare"), ("gen_x0", "-1e308", "prepare"),
            ("train_frac", "1e-320", "prepare"), ("val_frac", "1e-320", "prepare"),
            ("kf_q1", "1e308", "compare"), ("kf_q2", "1e308", "compare"),
            ("kf_p0", "1e308", "compare"),
        ],
    )
    def test_extreme_config_value_names_the_config_file(
        self, frozen_run, capsys, key, value, stage
    ):
        """A finite configuration value that overflows a stage's arithmetic, or empties a
        partition, ends the first stage it breaks with one unwarned line that names the
        stage's inputs and the configuration file."""
        inputs = {"generate": "", "prepare": "series.csv", "compare": "model.json on prepared"}
        with tempfile.TemporaryDirectory() as tmp:
            run, text = Path(tmp), (frozen_run / "experiment.conf").read_text()
            conf = run / "experiment.conf"
            conf.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
            for ran in STAGES:
                error = FrozenCli.run_stage(stage_argv(ran, "", conf), run)
                if error is not None:
                    break
            assert (ran, error) == (stage, f"{stage} returned 1")
            assert not (run / "report.csv").exists()
        err = capsys.readouterr().err
        source = f"{inputs[stage]} with {conf}" if inputs[stage] else conf
        assert err.startswith(f"clockpred: error: {source}: ") and err.count("\n") == 1

    def test_force_rewrites_every_output_and_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf = fast_conf(tmp_path)
        written = {}
        for stage in STAGES:
            argv = stage_argv(stage, "", conf)
            before = set(tmp_path.rglob("*"))
            assert main(argv) == 0
            outputs = [p for p in set(tmp_path.rglob("*")) - before if p.is_file()]
            fresh = {p: p.read_bytes() for p in outputs}
            for p in outputs:
                p.write_text("stale\n")
            assert main(argv + ["--force"]) == 0
            assert {p: p.read_bytes() for p in outputs} == fresh
            written.update(fresh)
        assert len(written) == 14

    @pytest.mark.parametrize("spelling", ["dotdot", "symlink"])
    def test_two_spellings_of_one_file_are_refused(self, tmp_path, spelling):
        conf = ready_to_compare(tmp_path)
        out = tmp_path / "out"
        if spelling == "dotdot":
            summary = out / ".." / "out" / "r.csv"
        else:
            out.mkdir()
            (tmp_path / "link").symlink_to(out, target_is_directory=True)
            summary = tmp_path / "link" / "r.csv"
        argv = stage_argv("compare", tmp_path, conf, "--report-out", out / "r.csv")
        argv += ["--stub-memorize", "--summary-out", str(summary), "--force"]
        assert "two outputs of compare share one path" in refused(argv)
        assert not out.exists() or list(out.iterdir()) == []

    def test_manifest_records_outputs_as_spelled(self, tmp_path):
        conf = ready_to_compare(tmp_path)
        summary = f"{tmp_path}/out/../out/s.json"
        argv = stage_argv("compare", tmp_path, conf, "--report-out", tmp_path / "out" / "r.csv")
        assert main(argv + ["--stub-memorize", "--summary-out", summary]) == 0
        manifest = json.loads((tmp_path / "out" / "r.csv.manifest.json").read_text())
        report = str(tmp_path / "out" / "r.csv")
        assert manifest["outputs"] == {"report": report, "summary": summary}
        assert json.loads((tmp_path / "out" / "s.json").read_text())["n_pred"] > 0

    def test_every_manifest_of_a_run_replays_its_stage(self, frozen_run, tmp_path):
        """Each manifest holds what its stage needs to write its outputs and the manifest
        again, byte for byte: the command, configuration, seed, inputs and outputs.  It
        replays in a copy of the run's directory, as it records paths relative to it."""
        run = tmp_path / "run"
        shutil.copytree(frozen_run, run)
        options = {"series": "--in", "series_b": "--in-b"}  # else an input's name is its option
        manifests = sorted(run.rglob("*manifest.json"))
        for path in manifests:
            manifest = json.loads(path.read_text())
            command, outputs = manifest["command"], manifest["outputs"]
            conf = tmp_path / f"{command}.conf"
            conf.write_text("".join(f"{k} = {v}\n" for k, v in manifest["config"].items()))
            argv = [command, "--config", str(conf), "--force"]
            if command in ("generate", "train"):
                argv += ["--seed", str(manifest["seed"])]
            for name, value in manifest["inputs"].items():
                argv += [options.get(name, f"--{name}"), value]
            if command == "prepare":
                argv += ["--out-dir", str(Path(outputs["series"]).parent)]
            else:
                for name, value in outputs.items():
                    argv += ["--out" if command == "generate" else f"--{name}-out", value]
            if manifest["extra"].get("stub_memorize"):
                argv.append("--stub-memorize")
            written = [path, *(run / p for p in outputs.values())]
            want = {p: p.read_bytes() for p in written}
            for p in written:
                p.write_text("stale\n")
            assert FrozenCli.run_stage(argv, run) is None, argv
            assert {p: p.read_bytes() for p in written} == want, command
        assert sorted(json.loads(p.read_text())["command"] for p in manifests) == sorted(STAGES)

    def test_outputs_take_their_mode_from_the_umask(self, tmp_path):
        conf = fast_conf(tmp_path)
        out = tmp_path / "series.csv"
        written = (out, tmp_path / "series.csv.manifest.json")
        old = os.umask(0o022)
        try:
            for mask in (0o022, 0o077, 0o022):  # a first write, then two overwrites
                os.umask(mask)
                argv = stage_argv("generate", tmp_path, conf, "--force")
                for p in written:
                    if p.exists():
                        p.chmod(0o640)
                assert main(argv) == 0
                assert [p.stat().st_mode & 0o777 for p in written] == [0o666 & ~mask] * 2
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fast.conf", "series.csv", "series.csv.manifest.json"
        ]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "report.csv"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(IsADirectoryError):
            _write_atomic(target, "mjd,ns\n")
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        assert list(target.iterdir()) == []

    def test_config_via_environment(self, tmp_path, monkeypatch):
        conf = fast_conf(tmp_path, gen_n=9)
        monkeypatch.setenv("CLOCKPRED_CONFIG", conf)
        out = tmp_path / "series.csv"
        assert main(["generate", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 10

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_empty_config_path_is_refused(self, tmp_path, monkeypatch, source):
        """``--config "$CONF"`` with ``CONF`` unset must not run the default configuration."""
        argv = ["generate", "--out", str(tmp_path / "series.csv")]
        if source == "flag":
            monkeypatch.delenv("CLOCKPRED_CONFIG", raising=False)
            argv += ["--config", ""]
        else:
            monkeypatch.setenv("CLOCKPRED_CONFIG", "")
        assert refused(argv) == "clockpred: error: the configuration path is empty\n"
        assert list(tmp_path.iterdir()) == []


bind_groups(globals(), CLI_REFUSALS, cli_refusal_test)


class TestParser:
    """One parser serves every ``main`` call in a process; no call leaks into the next."""

    def test_built_once(self, tmp_path):
        parser = _build_parser()
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")
        assert _build_parser() is parser

    def test_each_stage_takes_its_sub_parsers_options(self):
        """A new option reaches both its sub-parser and its stage's parameters, or neither."""
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, p in sub.choices.items():
            stage = getattr(cli, f"cmd_{name}")
            dests = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
            assert dests == set(inspect.signature(stage).parameters), name
            assert p.get_default("stage") is stage, name

    def test_force_does_not_carry_over(self, tmp_path):
        conf = fast_conf(tmp_path)
        assert main(stage_argv("generate", tmp_path, conf, "--force")) == 0
        assert "refusing to overwrite" in refused(stage_argv("generate", tmp_path, conf))

    def test_summary_out_and_stub_do_not_carry_over(self, tmp_path):
        conf = ready_to_compare(tmp_path)
        stub = ["--report-out", tmp_path / "stub.csv", "--summary-out", tmp_path / "stub.json"]
        assert main(stage_argv("compare", tmp_path, conf, *stub, "--stub-memorize")) == 0
        files = ["--prepared", tmp_path / "prepared", "--model", tmp_path / "model.json"]
        argv = ["compare", "--config", conf, *files, "--report-out", tmp_path / "report.csv"]
        assert main([str(a) for a in argv]) == 0
        summary = json.loads((tmp_path / "report.csv.summary.json").read_text())
        assert summary["cnn_e_rms_ns"] > 0 and summary["kf_e_rms_ns"] > 0
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "model.json",
            "report.csv.manifest.json",
            "report.csv.summary.json",
            "series.csv.manifest.json",
            "stub.csv.manifest.json",
            "stub.json",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["generate"],
            ["frobnicate"],
            ["generate", "--out", "x.csv", "--seed", "one"],
            ["prepare", "--in", "x.csv", "--out-dir", "prepared", "--seed", "7"],
            ["compare", "--prepared", "p", "--model", "m.json", "--report-out", "r.csv",
             "--seed", "7"],
        ],
        ids=[
            "no-command", "missing-out", "unknown-command", "bad-seed", "prepare-seed",
            "compare-seed",
        ],
    )
    def test_bad_arguments_exit_2_every_time(self, tmp_path, capsys, argv):
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: clockpred" in capsys.readouterr().err
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")

    def test_help_in_fresh_process(self):
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        done = subprocess.run(
            [sys.executable, "-m", "clockpred.cli", "--help"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: clockpred") and "compare" in done.stdout


def test_experiment_config_end_to_end(tmp_path, monkeypatch):
    """The bundled frozen experiment writes the benchmark's reference files, byte for byte."""
    monkeypatch.chdir(tmp_path)
    for stage in ("generate", "prepare", "train", "compare"):
        assert main(FrozenCli.stage_argv(stage)) == 0
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file()
    }
    assert written == load_reference()["frozen_cli"]["sha256"], kernel_pin_message()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_pred"] == 100
    assert 0 < summary["cnn_e_rms_ns"] < 50
    assert 0 < summary["kf_e_rms_ns"] < 50
