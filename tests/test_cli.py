"""End-to-end tests of the command-line pipeline."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
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
    PredictionReport,
    eligible_indices,
    reconstruct,
    summary_to_json,
    window_matrix,
)
from clockpred.series import (
    QuadraticTrend,
    denormalize,
    detrend,
    prepare,
    read_series,
    retrend,
    series_to_csv,
)
from clockpred.synthetic import SyntheticClockSpec, generate
from benchmarks.workloads import FrozenCli, load_reference
from tests.helpers import kernel_pin_message

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


def _shifted_rows(csv_text, days, ns, rows=None):
    """The ``mjd,ns`` document with ``days`` and ``ns`` added to some data rows (default all)."""
    lines = csv_text.splitlines()
    for i in range(1, len(lines)) if rows is None else rows:
        mjd, value = lines[i].split(",")
        lines[i] = f"{int(mjd) + days},{float(value) + ns!r}"
    return "\n".join(lines) + "\n"


def _ulp_moved(csv_text, row):
    """The ``mjd,ns`` document with the value of line ``row`` moved up by one ulp."""
    lines = csv_text.splitlines()
    mjd, value = lines[row].split(",")
    lines[row] = f"{mjd},{float(np.nextafter(float(value), np.inf))!r}"
    return "\n".join(lines) + "\n"


def _respaced(csv_text, interval):
    """The ``mjd,ns`` document with its epochs respaced ``interval`` days apart from the first."""
    lines = csv_text.splitlines()
    first = int(lines[1].split(",")[0])
    for i in range(1, len(lines)):
        lines[i] = f"{first + interval * (i - 1)},{lines[i].split(',')[1]}"
    return "\n".join(lines) + "\n"


def _with(text, **values):
    """The JSON document ``text`` with ``values`` set."""
    return json.dumps({**json.loads(text), **values})


def _with_kernel_entry(text, value):
    """The model document ``text`` with one entry of its second kernel set to ``value``."""
    doc = json.loads(text)
    doc["layers"][1]["kernel"][0][0][1] = value
    return json.dumps(doc)


def _with_third_layer(text, part, value):
    """The model document ``text`` with its third layer's bias, or that kernel's entry
    [0][0][1], set to the JSON text ``value``."""
    doc = json.loads(text)
    if part == "kernel":
        doc["layers"][2]["kernel"][0][0][1] = "@"
    else:
        doc["layers"][2]["bias"] = "@"
    return json.dumps(doc).replace('"@"', value)


_AS_PREPARED = "what prepare writes for series.csv"
_KEYS = "malformed document: keys [{}] differ from " + _AS_PREPARED


def _without(text, key):
    """The JSON document ``text`` with ``key`` deleted."""
    doc = json.loads(text)
    del doc[key]
    return json.dumps(doc)


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


class TestSafety:
    def test_refuses_overwrite_without_force(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate")
        assert "refusing to overwrite" in refused(stage_argv("generate", tmp_path, conf))

    def test_force_overwrites(self, tmp_path):
        conf = fast_conf(tmp_path)
        main(stage_argv("generate", tmp_path, conf))
        assert main(stage_argv("generate", tmp_path, conf, "--force")) == 0

    def test_missing_input_is_one_line_diagnostic(self, tmp_path):
        argv = stage_argv("prepare", tmp_path, fast_conf(tmp_path), "--in", tmp_path / "nope.csv")
        refused(argv, tmp_path / "prepared")

    def test_bad_config_reports_line(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("gen_n = 274\nnot a pair\n")
        assert ":2" in refused(stage_argv("generate", tmp_path, bad), tmp_path / "series.csv")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"train_lr": "-1"}, "lr must be positive"),
            ({"train_beta2": "1"}, "beta2 must lie in"),
            ({"train_lr": "1e300"}, "training diverged at update 1:"),
            ({"train_l2_lambda": "inf"}, "l2_lambda must be nonnegative and finite"),
            ({"train_eps": "inf"}, "eps must be positive and finite"),
            ({"cnn_channels": "-2"}, "configuration key 'cnn_channels': must be at least 1"),
            ({"train_l2_lambda": "1e308"}, "training diverged at update 1:"),
        ],
    )
    def test_bad_training_is_one_line_diagnostic(self, tmp_path, setting, message):
        run_stages(tmp_path, fast_conf(tmp_path), "generate", "prepare")
        conf = fast_conf(tmp_path, **setting)
        err = refused(stage_argv("train", tmp_path, conf), tmp_path / "model.json")
        assert conf in err and message in err
        if message.startswith("training diverged"):
            prepared = tmp_path / "prepared"
            assert err.startswith(f"clockpred: error: {prepared} with {conf}: {message}")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("split.json", lambda doc: _without(doc, "val"), "missing key 'val'"),
            ("trend.json", lambda doc: json.dumps(list(json.loads(doc).values())), "malformed"),
            ("scale.json", lambda doc: doc[: len(doc) // 2], "malformed"),
            (
                "residual.csv",
                lambda doc: _respaced(doc, 10),
                "epochs differ from those of series.csv",
            ),
            ("split.json", lambda doc: _with(doc, fit_on_full="false"), "malformed"),
            ("split.json", lambda doc: _with(doc, fit_on_full=0.5), "malformed"),
            ("split.json", lambda doc: _with(doc, n=274.9), "malformed"),
            (
                "split.json",
                lambda doc: _with(doc, train=[False, json.loads(doc)["train"][1]]),
                "malformed",
            ),
            ("trend.json", lambda doc: _with(doc, c2=True), "malformed"),
            ("trend.json", lambda doc: _with(doc, c2="0"), "malformed"),
            ("scale.json", lambda doc: _with(doc, d_max_abs=True), "malformed"),
        ],
        ids=[
            "split-without-val",
            "trend-as-list",
            "scale-cut",
            "residual-other-grid",
            "split-flag-string",
            "split-flag-half",
            "split-n-float",
            "split-bound-bool",
            "trend-bool",
            "trend-string",
            "scale-bool",
        ],
    )
    def test_malformed_prepared_document_is_one_line_diagnostic(
        self, tmp_path, name, edit, message
    ):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate", "prepare")
        path = tmp_path / "prepared" / name
        path.write_text(edit(path.read_text()))
        err = refused(stage_argv("train", tmp_path, conf), tmp_path / "model.json")
        assert err.startswith(f"clockpred: error: {path}: {message}")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc[: len(doc) // 2],
            lambda doc: json.dumps(list(json.loads(doc).values())),
            lambda doc: _with(doc, config={"channels": 1, "width": 5.7}),
            lambda doc: _with(doc, config={"channels": 1.9, "width": 5}),
            lambda doc: _with(doc, config={"channels": True, "width": 5}),
            lambda doc: _with(doc, head={**json.loads(doc)["head"], "bias": True}),
            lambda doc: _with(doc, head={**json.loads(doc)["head"], "bias": "0.5"}),
            lambda doc: _with_kernel_entry(doc, True),
        ],
        ids=[
            "model-cut",
            "model-as-list",
            "width-float",
            "channels-float",
            "channels-bool",
            "head-bias-bool",
            "head-bias-string",
            "kernel-entry-bool",
        ],
    )
    def test_malformed_model_is_one_line_diagnostic(self, tmp_path, edit):
        conf = ready_to_compare(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(edit(model.read_text()))
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err.startswith(f"clockpred: error: {model}: malformed document:")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "residual.csv",
                lambda doc: _shifted_rows(doc, 0, 5.0, rows=[50]),
                "residual at MJD 57179 differs from " + _AS_PREPARED,
            ),
            (
                "residual.csv",
                lambda doc: _ulp_moved(doc, 50),
                "residual at MJD 57179 differs from " + _AS_PREPARED,
            ),
            ("residual.csv", lambda doc: _shifted_rows(doc, 5, 0.0), "epochs differ"),
            ("residual.csv", lambda doc: doc[: doc.rindex("\n", 0, -1) + 1], "epochs differ"),
            ("split.json", lambda doc: _with(doc, n=999), _KEYS.format("'n'")),
            ("split.json", lambda doc: _with(doc, train=[0, 274]), _KEYS.format("'train'")),
            ("split.json", lambda doc: _with(doc, val=[142, 175]), _KEYS.format("'val'")),
            ("split.json", lambda doc: _with(doc, note="x"), _KEYS.format("'note'")),
            ("split.json", lambda doc: _with(doc, n=[274] * 200_000), _KEYS.format("'n'")),
            (
                "split.json",
                lambda doc: _with(doc, fit_on_full=1),
                _KEYS.format("'fit_on_full'"),
            ),
            (
                "split.json",
                lambda doc: _with(doc, n="@").replace('"@"', "1e400"),
                _KEYS.format("'n'") + "\n",
            ),
            ("scale.json", lambda doc: _with(doc, note=1), _KEYS.format("'note'")),
            (
                "trend.json",
                lambda doc: _with(doc, **{"k" * 1_000_000: 1}),
                _KEYS.format(f"'{'k' * 27}...{'k' * 28}'"),
            ),
            (
                "trend.json",
                lambda doc: _with(doc, c1="@").replace('"@"', "1e400"),
                _KEYS.format("'c1'"),
            ),
        ],
        ids=[
            "residual-row-moved-5ns",
            "residual-row-moved-1ulp",
            "residual-epochs-shifted",
            "residual-last-row-dropped",
            "split-n-999",
            "split-train-overlaps-test",
            "split-val-shifted",
            "split-extra-key",
            "split-n-huge-list",
            "split-flag-one",
            "split-n-1e400",
            "scale-extra-key",
            "trend-huge-key",
            "trend-c1-1e400",
        ],
    )
    def test_inconsistent_prepared_directory_is_one_line_diagnostic(
        self, tmp_path, name, edit, message
    ):
        """A document that is not what ``prepare`` writes for series.csv is refused
        naming the keys that differ, or the residual's first MJD that differs, on a
        short line that never echoes their values.  A message that ends in a newline is
        the whole line."""
        conf = ready_to_compare(tmp_path)
        path = tmp_path / "prepared" / name
        path.write_text(edit(path.read_text()))
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err.startswith(f"clockpred: error: {path}: {message}")
        assert len(err.encode()) < 500

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

    @pytest.mark.parametrize("second", [56939, 56934], ids=["zero-step", "backward-step"])
    def test_first_step_not_positive_is_one_line_diagnostic(self, tmp_path, second):
        path = tmp_path / "back.csv"
        path.write_text(f"mjd,ns\n56939,1.0\n{second},2.0\n56929,3.0\n")
        argv = stage_argv("prepare", tmp_path, fast_conf(tmp_path), "--in", path)
        assert refused(argv, tmp_path / "prepared") == (
            f"clockpred: error: {path}: epochs must increase; offending step 56939 -> {second}\n"
        )

    def test_second_input_on_other_grid_is_one_line_diagnostic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(series_to_csv(generate(SyntheticClockSpec(n=274))))
        b.write_text(series_to_csv(generate(SyntheticClockSpec(n=274, interval=10))))
        argv = stage_argv("prepare", tmp_path, fast_conf(tmp_path), "--in", a, "--in-b", b)
        err = refused(argv, tmp_path / "prepared")
        assert err.startswith(f"clockpred: error: {b}: ") and "intervals 5 and 10" in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda doc: _with(doc, config={"channels": 1, "width": 5, "note": 1}), "note"),
            (lambda doc: _with(doc, config={"channels": 1, "width": [5] * 200_000}), "width"),
            (lambda doc: _with(doc, config={"channels": 1, "width": 7}), "width"),
            (lambda doc: doc.replace('"channels": 1', '"channels": 1e400'), "channels"),
        ],
        ids=["extra-key", "width-huge-list", "width-7", "channels-1e400"],
    )
    def test_edited_model_config_is_one_line_diagnostic(self, tmp_path, edit, key):
        """The config must be exactly what the model's kernels give; the line names the
        key and never echoes its value."""
        conf = ready_to_compare(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(edit(model.read_text()))
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err == (
            f"clockpred: error: {model}: malformed document: "
            f"keys [{key!r}] differ from the config of its kernels\n"
        )
        assert len(err.encode()) < 500

    def test_nan_kalman_parameter_is_one_line_diagnostic(self, tmp_path):
        ready_to_compare(tmp_path)
        argv = stage_argv("compare", tmp_path, fast_conf(tmp_path, kf_q1="nan"))
        refused(argv, tmp_path / "report.csv", tmp_path / "summary.json")

    def test_epoch_beyond_int64_is_one_line_diagnostic(self, tmp_path):
        lines = series_to_csv(generate(SyntheticClockSpec(n=274))).splitlines()
        lines[6] = "123456789012345678901234567890,1.0"
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = stage_argv("prepare", tmp_path, fast_conf(tmp_path), "--in", path)
        err = refused(argv, tmp_path / "prepared")
        assert err == f"clockpred: error: {path}:7: malformed row '{lines[6]}'\n"

    @pytest.mark.parametrize(
        "target, text, where",
        [
            ("csv", "mjd,ns\n56934,1.0\n56939," + "9" * 1_000_000 + ",2\n", ":3: malformed row '"),
            ("csv", "mjd,ns\n56934,1.0\n56939," + "x" * 1_000_000 + "\n", ":3: malformed row '"),
            ("conf", "gen_n = 20\n" + "x" * 1_000_000 + "\n", ":2: expected 'key = value', got '"),
            ("conf", "k" * 1_000_000 + " = 1\n", ":1: unknown configuration key '"),
            ("conf", "gen_n = " + "x" * 1_000_000 + "\n", ": configuration key 'gen_n': '"),
            ("conf", "seed = -1" + "0" * 4_000 + "\n", ": seed must be nonnegative, got -1"),
            ("conf", "gen_n = 1" + "0" * 4_000 + "\n", ": epochs 56934 to 5"),
            (
                "conf",
                "cnn_channels = 1" + "0" * 4_000 + "\n",
                ": configuration key 'cnn_channels': must be at least 1 and at most 1024, got 1",
            ),
        ],
        ids=[
            "row-fields", "row-value", "config-line", "config-key", "config-value", "config-seed",
            "config-n", "config-channels",
        ],
    )
    def test_huge_input_text_is_echoed_cut_short(self, tmp_path, target, text, where):
        """A row, line, key or value of a million characters, or an integer of 4,001
        digits, ends in one short line that still names the file and the line or the key."""
        path = tmp_path / f"huge.{target}"
        path.write_text(text)
        if target == "csv":
            argv = stage_argv("prepare", tmp_path, fast_conf(tmp_path), "--in", path)
        else:
            argv = stage_argv("generate", tmp_path, path)
        err = refused(argv, tmp_path / "prepared", tmp_path / "series.csv")
        assert err.startswith(f"clockpred: error: {path}{where}") and len(err.encode()) < 500

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "prepared/trend.json",
                lambda doc: _with(doc, c1="x"),
                _KEYS.format("'c1'").removeprefix("malformed document: "),
            ),
            (
                "model.json",
                lambda doc: _with_third_layer(doc, "kernel", '"x"'),
                "a str at 'layers[2].kernel[0][0][1]' where a JSON number belongs",
            ),
            (
                "model.json",
                lambda doc: _with_third_layer(doc, "kernel", "1e309"),
                "layers[2]: layer parameters must be finite",
            ),
            (
                "model.json",
                lambda doc: _with_third_layer(doc, "bias", "[0.0, 0.0]"),
                "layers[2]: bias shape (2,) does not match 1 output channels",
            ),
            (
                "model.json",
                lambda doc: _with(doc, layers=[{"kernel": [[[0.5] * 3]], "bias": [0.0]}] * 3),
                "layers[0]: kernel length 3 at a position requiring 4",
            ),
        ],
        ids=["trend-string", "kernel-string", "kernel-1e309", "bias-two-entries", "kernel-short"],
    )
    def test_refusal_names_the_key(self, tmp_path, name, edit, message):
        conf = ready_to_compare(tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err == f"clockpred: error: {path}: malformed document: {message}\n"

    @pytest.mark.parametrize("as_second", [False, True], ids=["in", "in-b"])
    @pytest.mark.filterwarnings("error")
    def test_huge_input_value_names_the_inputs(self, tmp_path, as_second):
        """1e308 is finite, so the series reads, but its trend is not; the line names
        the input, or both inputs when they are summed."""
        lines = series_to_csv(generate(SyntheticClockSpec(n=274))).splitlines()
        lines[40] = lines[40].split(",")[0] + ",1e308"
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n")
        conf = fast_conf(tmp_path)
        argv = stage_argv("prepare", tmp_path, conf, "--in", path)
        source = f"{path} with {conf}"
        if as_second:
            other = tmp_path / "other.csv"
            other.write_text(series_to_csv(generate(SyntheticClockSpec(n=274, seed=7))))
            argv += ["--in", str(other), "--in-b", str(path)]
            source = f"{other} + {path} with {conf}"
        err = refused(argv, tmp_path / "prepared")
        assert err == f"clockpred: error: {source}: trend coefficient c0 must be finite\n"

    @pytest.mark.parametrize(
        "scale, head_bias", [(1e308, 0.01), (None, 1e308)], ids=["scale-1e308", "head-bias-1e308"]
    )
    def test_non_finite_score_is_refused_naming_method_and_mjd(self, tmp_path, scale, head_bias):
        """A huge head bias overflows the errors of the CNN's predictions.  A huge
        scale would overflow the squared errors of finite predictions, but it is
        not what ``prepare`` writes, so the loader refuses it before any scoring."""
        conf = ready_to_compare(tmp_path)
        prepared = tmp_path / "prepared"
        if scale is not None:
            (prepared / "scale.json").write_text(json.dumps({"d_max_abs": scale}))
        model = tmp_path / "model.json"
        doc = json.loads(model.read_text())
        doc["head"]["bias"] = head_bias
        model.write_text(json.dumps(doc))
        argv = stage_argv("compare", tmp_path, conf)
        err = refused(argv, tmp_path / "report.csv", tmp_path / "summary.json")
        if scale is None:
            head = f"clockpred: error: {model} on {prepared} with {conf}: CNN prediction at MJD "
            tail = " gives a non-finite RMS error\n"
        else:
            head = f"clockpred: error: {prepared / 'scale.json'}: {_KEYS.format(repr('d_max_abs'))}"
            tail = "\n"
        assert err.startswith(head) and err.endswith(tail)

    @pytest.mark.filterwarnings("error")
    def test_trend_that_overflows_names_its_key(self, tmp_path):
        """A finite coefficient whose trend overflows on the series' epochs is not what
        ``prepare`` writes; the line names trend.json and the key."""
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate", "prepare")
        path = tmp_path / "prepared" / "trend.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "c1": 1e308}))
        err = refused(stage_argv("train", tmp_path, conf), tmp_path / "model.json")
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('c1'))}\n"

    def test_scale_that_overflows_the_residual_names_scale_json(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate", "prepare")
        path = tmp_path / "prepared" / "scale.json"
        path.write_text(json.dumps({"d_max_abs": 1e-320}))
        err = refused(stage_argv("train", tmp_path, conf), tmp_path / "model.json")
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('d_max_abs'))}\n"

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
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('d_max_abs'))}\n"

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
                for option, out in zip(argv, argv[1:]):
                    if option in ("--out", "--out-dir") or option.endswith("-out"):
                        shutil.rmtree(out) if os.path.isdir(out) else os.remove(out)
                        Path(f"{out}.manifest.json").unlink(missing_ok=True)
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", "nan", "configuration key 'seed': 'nan' is not an integer"),
            ("train_frac", "nan", "fractions out of range: train=nan"),
            ("cnn_channels", "1" + "0" * 29, "must be at least 1 and at most 1024"),
            ("gen_n", "1" + "0" * 29, "epochs 56934 to "),
            ("gen_interval", "1" + "0" * 29, "epochs 56934 to "),
            ("gen_n", "1" + "0" * 17, "Unable to allocate"),
        ],
        ids=[
            "seed-nan", "train-frac-nan", "channels-30-digits", "n-30-digits", "step-30-digits",
            "n-1e17",
        ],
    )
    def test_bad_config_value_names_the_config_file(self, tmp_path, key, value, message):
        """Every stage reads every configuration value, so even ``generate`` refuses a
        bad training or split value, and the line names the file."""
        conf = fast_conf(tmp_path, **{key: value})
        err = refused(stage_argv("generate", tmp_path, conf), tmp_path / "series.csv")
        assert err.startswith(f"clockpred: error: {conf}: ") and message in err

    @pytest.mark.parametrize("target", ["fast.conf", "model.json", "prepared/series.csv"])
    def test_undecodable_input_names_its_path(self, tmp_path, target):
        """A byte that is not UTF-8 is refused: a JSON document does not decode, and in
        a CSV or configuration file it reads as U+FFFD, which no key, number or header accepts."""
        conf = ready_to_compare(tmp_path)
        path = tmp_path / target
        path.write_bytes(b"\x80" + path.read_bytes())
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err.startswith(f"clockpred: error: {path}")

    @pytest.mark.parametrize("nesting", ["100000-brackets", "value-100-deep"])
    @pytest.mark.parametrize(
        "name", ["model.json", "prepared/trend.json", "prepared/scale.json", "prepared/split.json"]
    )
    def test_deeply_nested_document_is_one_line_diagnostic(self, tmp_path, name, nesting):
        """Brackets nested too deep to decode, or a value that is a list nested 100 deep,
        end ``compare`` in one line that names the document."""
        conf = ready_to_compare(tmp_path)
        path = tmp_path / name
        if nesting == "100000-brackets":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            doc, deep = json.loads(path.read_text()), 0.5
            for _ in range(100):
                deep = [deep]
            if path.name == "model.json":
                doc["head"]["bias"] = deep
            else:
                key = {"trend.json": "c2", "scale.json": "d_max_abs", "split.json": "n"}[path.name]
                doc[key] = deep
            path.write_text(json.dumps(doc))
        err = refused(stage_argv("compare", tmp_path, conf), tmp_path / "report.csv")
        assert err.startswith(f"clockpred: error: {path}: ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "key, value, stage",
        [
            ("gen_y0", "1e308", "generate"),
            ("gen_y0", "-1e308", "generate"),
            ("gen_drift", "1e308", "generate"),
            ("gen_drift", "-1e308", "generate"),
            ("gen_sigma_wfm", "1e308", "generate"),
            ("gen_sigma_rwfm", "1e308", "generate"),
            ("gen_x0", "1e308", "prepare"),
            ("gen_x0", "-1e308", "prepare"),
            ("train_frac", "1e-320", "prepare"),
            ("val_frac", "1e-320", "prepare"),
            ("kf_q1", "1e308", "compare"),
            ("kf_q2", "1e308", "compare"),
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

    def test_refused_prepare_writes_nothing(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate")
        prepared = tmp_path / "prepared"
        prepared.mkdir()
        (prepared / "split.json").write_text("stale\n")
        err = refused(stage_argv("prepare", tmp_path, conf))
        assert f"refusing to overwrite {prepared / 'split.json'}" in err
        assert [p.name for p in prepared.iterdir()] == ["split.json"]
        assert (prepared / "split.json").read_text() == "stale\n"

    def test_refused_train_writes_no_model(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_stages(tmp_path, conf, "generate", "prepare")
        (tmp_path / "trace.csv").write_text("stale\n")
        model = tmp_path / "model.json"
        err = refused(stage_argv("train", tmp_path, conf), model, f"{model}.manifest.json")
        assert "refusing to overwrite" in err
        assert (tmp_path / "trace.csv").read_text() == "stale\n"

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

    def test_two_outputs_on_one_path_are_refused(self, tmp_path):
        conf = ready_to_compare(tmp_path)
        report = tmp_path / "report.csv"
        argv = stage_argv("compare", tmp_path, conf, "--summary-out", report, "--force")
        assert "two outputs of compare share one path" in refused(argv, report)

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
