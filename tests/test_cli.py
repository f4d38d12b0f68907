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

ROOT = Path(__file__).resolve().parent.parent


def fast_conf(tmp_path, **extra):
    """A configuration that keeps CLI tests quick: tiny training budget."""
    lines = ["fit_on_full = true", "train_max_updates = 40", "train_patience = 40"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "fast.conf"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_pipeline(tmp_path, conf):
    root = tmp_path
    assert main(["generate", "--config", conf, "--out", str(root / "series.csv")]) == 0
    assert (
        main(
            [
                "prepare",
                "--config",
                conf,
                "--in",
                str(root / "series.csv"),
                "--out-dir",
                str(root / "prepared"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--config",
                conf,
                "--prepared",
                str(root / "prepared"),
                "--model-out",
                str(root / "model.json"),
                "--trace-out",
                str(root / "trace.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "compare",
                "--config",
                conf,
                "--prepared",
                str(root / "prepared"),
                "--model",
                str(root / "model.json"),
                "--report-out",
                str(root / "report.csv"),
                "--summary-out",
                str(root / "summary.json"),
            ]
        )
        == 0
    )


def generate_and_prepare(tmp_path, conf):
    """Run ``generate`` and ``prepare``; returns the prepared directory."""
    assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
    prepared = tmp_path / "prepared"
    argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv")]
    assert main(argv + ["--out-dir", str(prepared)]) == 0
    return prepared


def compare_argv(conf, prepared, model, report):
    return [
        "compare",
        "--config",
        conf,
        "--prepared",
        str(prepared),
        "--model",
        str(model),
        "--report-out",
        str(report),
    ]


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
        conf = fast_conf(tmp_path)
        out = tmp_path / "series.csv"
        assert main(["generate", "--config", conf, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("mjd,ns\n")
        assert len(text.strip().split("\n")) == 275
        assert (tmp_path / "series.csv.manifest.json").exists()

    def test_same_seed_identical_file(self, tmp_path):
        conf = fast_conf(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--config", conf, "--out", str(a)])
        main(["generate", "--config", conf, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_minimum_n(self, tmp_path):
        conf = fast_conf(tmp_path, gen_n=7)
        out = tmp_path / "tiny.csv"
        main(["generate", "--config", conf, "--out", str(out)])
        assert len(out.read_text().strip().split("\n")) == 8

    def test_seed_flag_overrides(self, tmp_path):
        conf = fast_conf(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--config", conf, "--seed", "1", "--out", str(a)])
        main(["generate", "--config", conf, "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestPrepare:
    def test_split_manifest_counts(self, tmp_path):
        conf = fast_conf(tmp_path)
        run = tmp_path
        main(["generate", "--config", conf, "--out", str(run / "series.csv")])
        main(
            [
                "prepare",
                "--config",
                conf,
                "--in",
                str(run / "series.csv"),
                "--out-dir",
                str(run / "prepared"),
            ]
        )
        split_doc = json.loads((run / "prepared" / "split.json").read_text())
        assert split_doc["n"] == 274
        assert split_doc["train"] == [0, 141]
        assert split_doc["val"] == [141, 174]
        assert split_doc["test"] == [174, 274]
        manifest = json.loads((run / "prepared" / "manifest.json").read_text())
        assert manifest["extra"]["split_sizes"] == [141, 33, 100]

    def test_outputs_reassemble_to_input(self, tmp_path):
        conf = fast_conf(tmp_path)
        main(["generate", "--config", conf, "--out", str(tmp_path / "series.csv")])
        main(
            [
                "prepare",
                "--config",
                conf,
                "--in",
                str(tmp_path / "series.csv"),
                "--out-dir",
                str(tmp_path / "prepared"),
            ]
        )
        original = read_series(tmp_path / "series.csv")
        prep = load_prepared(tmp_path / "prepared")
        rebuilt = retrend(denormalize(prep.residual_norm, prep.scale), prep.trend)
        npt.assert_allclose(rebuilt.values, original.values, atol=1e-9)

    def test_pure_quadratic_residual_is_zero(self, tmp_path):
        conf = fast_conf(tmp_path, gen_sigma_wfm=0.0, gen_sigma_rwfm=0.0)
        main(["generate", "--config", conf, "--out", str(tmp_path / "series.csv")])
        code = main(
            [
                "prepare",
                "--config",
                conf,
                "--in",
                str(tmp_path / "series.csv"),
                "--out-dir",
                str(tmp_path / "prepared"),
            ]
        )
        assert code == 0
        residual = read_series(tmp_path / "prepared" / "residual.csv")
        # the fit cannot beat the 3-decimal quantization of the input file
        npt.assert_allclose(residual.values, 0.0, atol=1e-3)

    def test_two_file_combination(self, tmp_path):
        conf = fast_conf(tmp_path)
        s = generate(SyntheticClockSpec(n=274))
        half = s.with_values(s.values / 2.0)
        (tmp_path / "a.csv").write_text(series_to_csv(half, decimals=None))
        (tmp_path / "b.csv").write_text(series_to_csv(half, decimals=None))
        assert (
            main(
                [
                    "prepare",
                    "--config",
                    conf,
                    "--in",
                    str(tmp_path / "a.csv"),
                    "--in-b",
                    str(tmp_path / "b.csv"),
                    "--out-dir",
                    str(tmp_path / "prepared"),
                ]
            )
            == 0
        )
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
        prepared = generate_and_prepare(tmp_path, fast_conf(tmp_path))
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
        conf = fast_conf(tmp_path)
        run_pipeline(tmp_path, conf)
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
        run_pipeline(tmp_path / "one", conf)
        run_pipeline(tmp_path / "two", conf)
        for name in ("series.csv", "model.json", "trace.csv", "report.csv", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    def test_memorization_stub_scores_zero(self, tmp_path):
        conf = fast_conf(tmp_path)
        run_pipeline(tmp_path, conf)
        assert (
            main(
                [
                    "compare",
                    "--config",
                    conf,
                    "--prepared",
                    str(tmp_path / "prepared"),
                    "--model",
                    str(tmp_path / "model.json"),
                    "--report-out",
                    str(tmp_path / "stub.csv"),
                    "--summary-out",
                    str(tmp_path / "stub.json"),
                    "--stub-memorize",
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "stub.json").read_text())
        assert doc["cnn_e_rms_ns"] == 0.0
        assert doc["kf_e_rms_ns"] == 0.0

    @pytest.mark.parametrize("interval", [1, 10])
    def test_other_spacing_runs_under_config_without_interval(self, tmp_path, interval):
        """The Kalman filter's step is the data's spacing, not the generator key's default."""
        (tmp_path / "gen").mkdir()
        gen_conf = fast_conf(tmp_path / "gen", gen_interval=interval)
        assert main(["generate", "--config", gen_conf, "--out", str(tmp_path / "s.csv")]) == 0
        conf = fast_conf(tmp_path)
        out = tmp_path / "prepared"
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv")]
        assert main(argv + ["--out-dir", str(out)]) == 0
        argv = ["train", "--config", conf, "--prepared", str(out)]
        argv += ["--model-out", str(tmp_path / "model.json"), "--trace-out"]
        assert main(argv + [str(tmp_path / "trace.csv")]) == 0
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, out, tmp_path / "model.json", report)) == 0
        prepared = load_prepared(out)
        assert prepared.series.interval == interval
        test_range = prepared.split.test_range
        windows = window_matrix(prepared.residual_norm, test_range)
        epochs = prepared.series.epochs[eligible_indices(test_range)]
        kf_norm = kf_one_ahead_batch(windows, interval, KalmanParams())
        rows = np.loadtxt(report, delimiter=",", skiprows=1)
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
    """The frozen experiment with a 5-update budget: config, series, prepared directory, model.

    Patience 1 stops training at the first update that does not improve the
    validation RMSE, so a mutated budget still ends quickly.
    """
    root = tmp_path_factory.mktemp("frozen")
    text = (ROOT / "configs" / "experiment.conf").read_text()
    text = text.replace("train_max_updates = 2000", "train_max_updates = 5")
    text = text.replace("train_patience = 2000", "train_patience = 1")
    (root / "experiment.conf").write_text(text)
    for stage in ("generate", "prepare", "train"):
        argv = [*FrozenCli.stage_argv(stage), "--config", str(root / "experiment.conf")]
        assert FrozenCli.run_stage(argv, root) is None
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
    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        out = tmp_path / "series.csv"
        assert main(["generate", "--config", conf, "--out", str(out)]) == 0
        assert main(["generate", "--config", conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "refusing to overwrite" in err and err.count("\n") == 1

    def test_force_overwrites(self, tmp_path):
        conf = fast_conf(tmp_path)
        out = tmp_path / "series.csv"
        main(["generate", "--config", conf, "--out", str(out)])
        assert main(["generate", "--config", conf, "--out", str(out), "--force"]) == 0

    def test_missing_input_is_one_line_diagnostic(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        code = main(
            [
                "prepare",
                "--config",
                conf,
                "--in",
                str(tmp_path / "nope.csv"),
                "--out-dir",
                str(tmp_path / "prepared"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("clockpred: error:") and err.count("\n") == 1

    def test_bad_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("gen_n = 274\nnot a pair\n")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert ":2" in capsys.readouterr().err

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
    def test_bad_training_is_one_line_diagnostic(self, tmp_path, capsys, setting, message):
        conf = fast_conf(tmp_path)
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
        prepared = str(tmp_path / "prepared")
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv"), "--out-dir", prepared]
        assert main(argv) == 0
        capsys.readouterr()
        conf = fast_conf(tmp_path, **setting)
        code = main(
            [
                "train",
                "--config",
                conf,
                "--prepared",
                prepared,
                "--model-out",
                str(tmp_path / "model.json"),
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("clockpred: error:") and err.count("\n") == 1
        assert conf in err and message in err
        if message.startswith("training diverged"):
            assert err.startswith(f"clockpred: error: {prepared} with {conf}: {message}")
        assert not (tmp_path / "model.json").exists()

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
        self, tmp_path, capsys, name, edit, message
    ):
        conf = fast_conf(tmp_path)
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
        prepared = tmp_path / "prepared"
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv"), "--out-dir", str(prepared)]
        assert main(argv) == 0
        path = prepared / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        code = main(
            [
                "train",
                "--config",
                conf,
                "--prepared",
                str(prepared),
                "--model-out",
                str(tmp_path / "model.json"),
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "model.json").exists()

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
    def test_malformed_model_is_one_line_diagnostic(self, tmp_path, capsys, edit):
        conf = fast_conf(tmp_path)
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
        prepared = str(tmp_path / "prepared")
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv"), "--out-dir", prepared]
        assert main(argv) == 0
        model = tmp_path / "model.json"
        model.write_text(edit(model_to_json(init_weights(0))))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        argv = ["compare", "--config", conf, "--prepared", prepared, "--model", str(model)]
        assert main(argv + ["--report-out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {model}: malformed document:")
        assert err.count("\n") == 1
        assert not report.exists()

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
            "scale-extra-key",
            "trend-huge-key",
            "trend-c1-1e400",
        ],
    )
    def test_inconsistent_prepared_directory_is_one_line_diagnostic(
        self, tmp_path, capsys, name, edit, message
    ):
        """A document that is not what ``prepare`` writes for series.csv is refused
        naming the keys that differ, or the residual's first MJD that differs, on a
        short line that never echoes their values."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        path = prepared / name
        path.write_text(edit(path.read_text()))
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {path}: {message}") and err.count("\n") == 1
        assert len(err.encode()) < 500
        assert not report.exists()

    def test_six_decimal_input_round_trips(self, tmp_path):
        """``prepare`` works on the series as ``series.csv`` keeps it, at 1 ps, so the
        residual of a 6-decimal input is series.csv - trend to round-off."""
        conf = fast_conf(tmp_path)
        s = generate(SyntheticClockSpec(n=274))
        (tmp_path / "fine.csv").write_text(series_to_csv(s, decimals=6))
        prepared = tmp_path / "prepared"
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "fine.csv")]
        assert main(argv + ["--out-dir", str(prepared)]) == 0
        trend = QuadraticTrend(**json.loads((prepared / "trend.json").read_text()))
        rounded = detrend(read_series(prepared / "series.csv"), trend).values
        gap = np.abs(read_series(prepared / "residual.csv").values - rounded)
        assert gap.max() <= 1e-12
        load_prepared(prepared)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        assert main(compare_argv(conf, prepared, model, tmp_path / "report.csv")) == 0

    @pytest.mark.parametrize("second", [56939, 56934], ids=["zero-step", "backward-step"])
    def test_first_step_not_positive_is_one_line_diagnostic(self, tmp_path, capsys, second):
        path = tmp_path / "back.csv"
        path.write_text(f"mjd,ns\n56939,1.0\n{second},2.0\n56929,3.0\n")
        argv = ["prepare", "--config", fast_conf(tmp_path), "--in", str(path)]
        assert main(argv + ["--out-dir", str(tmp_path / "prepared")]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"clockpred: error: {path}: epochs must increase; offending step 56939 -> {second}\n"
        )
        assert not (tmp_path / "prepared").exists()

    def test_second_input_on_other_grid_is_one_line_diagnostic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(series_to_csv(generate(SyntheticClockSpec(n=274))))
        b.write_text(series_to_csv(generate(SyntheticClockSpec(n=274, interval=10))))
        argv = ["prepare", "--config", fast_conf(tmp_path), "--in", str(a), "--in-b", str(b)]
        assert main(argv + ["--out-dir", str(tmp_path / "prepared")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {b}: ") and err.count("\n") == 1
        assert "intervals 5 and 10" in err
        assert not (tmp_path / "prepared").exists()

    def test_model_of_other_width_is_one_line_diagnostic(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        doc = json.loads(model_to_json(init_weights(0)))
        doc["config"]["width"] = 7
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        head = f"clockpred: error: {model}: malformed document: keys ['width'] differ"
        assert err.startswith(head)
        assert err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"channels": 1, "width": 5, "note": 1}, "note"),
            ({"channels": 1, "width": [5] * 200_000}, "width"),
        ],
        ids=["extra-key", "width-huge-list"],
    )
    def test_edited_model_config_is_one_line_diagnostic(self, tmp_path, capsys, config, key):
        """The config must be exactly what the model's kernels give; the line names the
        key and never echoes its value."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(_with(model_to_json(init_weights(0)), config=config))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err == (
            f"clockpred: error: {model}: malformed document: "
            f"keys [{key!r}] differ from the config of its kernels\n"
        )
        assert len(err.encode()) < 500 and not report.exists()

    def test_nan_kalman_parameter_is_one_line_diagnostic(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(fast_conf(tmp_path, kf_q1="nan"), prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err.startswith("clockpred: error:") and err.count("\n") == 1
        assert not report.exists() and not (tmp_path / "report.csv.summary.json").exists()

    def test_infinite_split_count_is_one_line_diagnostic(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        path = prepared / "split.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc).replace(f'"n": {doc["n"]}', '"n": 1e400'))
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('n'))}\n"
        assert not report.exists()

    def test_epoch_beyond_int64_is_one_line_diagnostic(self, tmp_path, capsys):
        lines = series_to_csv(generate(SyntheticClockSpec(n=274))).splitlines()
        lines[6] = "123456789012345678901234567890,1.0"
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["prepare", "--config", fast_conf(tmp_path), "--in", str(path)]
        assert main(argv + ["--out-dir", str(tmp_path / "prepared")]) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}:7: malformed row '{lines[6]}'\n"
        assert not (tmp_path / "prepared").exists()

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
    def test_huge_input_text_is_echoed_cut_short(self, tmp_path, capsys, target, text, where):
        """A row, line, key or value of a million characters, or an integer of 4,001
        digits, ends in one short line that still names the file and the line or the key."""
        path = tmp_path / f"huge.{target}"
        path.write_text(text)
        if target == "csv":
            argv = ["prepare", "--config", fast_conf(tmp_path), "--in", str(path)]
            argv += ["--out-dir", str(tmp_path / "prepared")]
        else:
            argv = ["generate", "--config", str(path), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {path}{where}") and err.count("\n") == 1
        assert len(err.encode()) < 500

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
    def test_refusal_names_the_key(self, tmp_path, capsys, name, edit, message):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}: malformed document: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize("as_second", [False, True], ids=["in", "in-b"])
    @pytest.mark.filterwarnings("error")
    def test_huge_input_value_names_the_inputs(self, tmp_path, capsys, as_second):
        """1e308 is finite, so the series reads, but its trend is not; the line names
        the input, or both inputs when they are summed."""
        lines = series_to_csv(generate(SyntheticClockSpec(n=274))).splitlines()
        lines[40] = lines[40].split(",")[0] + ",1e308"
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n")
        conf = fast_conf(tmp_path)
        argv = ["prepare", "--config", conf, "--out-dir", str(tmp_path / "prepared")]
        source = f"{path} with {conf}"
        if as_second:
            other = tmp_path / "other.csv"
            other.write_text(series_to_csv(generate(SyntheticClockSpec(n=274, seed=7))))
            argv += ["--in", str(other), "--in-b", str(path)]
            source = f"{other} + {path} with {conf}"
        else:
            argv += ["--in", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {source}: trend coefficient c0 must be finite\n"
        assert not (tmp_path / "prepared").exists()

    @pytest.mark.parametrize(
        "scale, head_bias", [(1e308, 0.01), (None, 1e308)], ids=["scale-1e308", "head-bias-1e308"]
    )
    def test_non_finite_score_is_refused_naming_method_and_mjd(
        self, tmp_path, capsys, scale, head_bias
    ):
        """A huge head bias overflows the errors of the CNN's predictions.  A huge
        scale would overflow the squared errors of finite predictions, but it is
        not what ``prepare`` writes, so the loader refuses it before any scoring."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        if scale is not None:
            (prepared / "scale.json").write_text(json.dumps({"d_max_abs": scale}))
        model = tmp_path / "model.json"
        doc = json.loads(model_to_json(init_weights(0)))
        doc["head"]["bias"] = head_bias
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        if scale is None:
            head = f"clockpred: error: {model} on {prepared} with {conf}: CNN prediction at MJD "
            tail = " gives a non-finite RMS error\n"
        else:
            head = f"clockpred: error: {prepared / 'scale.json'}: {_KEYS.format(repr('d_max_abs'))}"
            tail = "\n"
        assert err.startswith(head)
        assert err.endswith(tail) and err.count("\n") == 1
        assert not report.exists() and not (tmp_path / "report.csv.summary.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_trend_that_overflows_names_its_key(self, tmp_path, capsys):
        """A finite coefficient whose trend overflows on the series' epochs is not what
        ``prepare`` writes; the line names trend.json and the key."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        path = prepared / "trend.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "c1": 1e308}))
        capsys.readouterr()
        argv = ["train", "--config", conf, "--prepared", str(prepared)]
        argv += ["--model-out", str(tmp_path / "model.json"), "--trace-out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('c1'))}\n"
        assert not (tmp_path / "model.json").exists()

    def test_scale_that_overflows_the_residual_names_scale_json(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        path = prepared / "scale.json"
        path.write_text(json.dumps({"d_max_abs": 1e-320}))
        capsys.readouterr()
        argv = ["train", "--config", conf, "--prepared", str(prepared)]
        argv += ["--model-out", str(tmp_path / "model.json"), "--trace-out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('d_max_abs'))}\n"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("fit_on_full", ["true", "false"])
    def test_scale_of_another_run_names_scale_json(self, tmp_path, capsys, fit_on_full):
        """Another seed's scale.json is well formed and divides the residual finely,
        but it is not what ``prepare`` writes for this series.csv."""
        def conf_in(root, **extra):
            conf = Path(fast_conf(root, **extra))
            conf.write_text(conf.read_text().replace("true", fit_on_full))
            return str(conf)

        conf = conf_in(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        (tmp_path / "other").mkdir()
        other_scale = generate_and_prepare(tmp_path / "other", conf_in(tmp_path / "other", seed=1003))
        path = prepared / "scale.json"
        path.write_bytes((other_scale / "scale.json").read_bytes())
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err == f"clockpred: error: {path}: {_KEYS.format(repr('d_max_abs'))}\n"
        assert not report.exists()

    def test_json_documents_refuse_non_finite_numbers(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text({"command": "compare", "extra": {"cnn_e_rms_ns": math.inf}})
        one = np.ones(1)
        report = PredictionReport(one, one, one, one, one, one, 1, math.nan, 1.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            summary_to_json(report)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["series.csv", "model.json", "experiment.conf", *_PREPARED_DOCS]), st.data())
    def test_mutated_input_ends_in_finite_output_or_one_line(self, frozen_run, target, data):
        """Every stage that reads a mutated input exits 0 having written only finite
        numbers, or exits 1 with one error line that names a path."""
        stages = {
            "generate": ["--out", "g.csv"],
            "prepare": ["--in", "series.csv", "--out-dir", "p"],
            "train": ["--prepared", "prepared", "--model-out", "m.json", "--trace-out", "t.csv"],
            "compare": ["--prepared", "prepared", "--model", "model.json", "--report-out", "r.csv"],
        }
        readers = {"series.csv": ["prepare"], "model.json": ["compare"], "experiment.conf": list(stages)}
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp)
            shutil.copytree(frozen_run, run, dirs_exist_ok=True)
            path = run / target
            path.write_bytes(_mutated(data.draw, path.read_bytes()))
            for stage in readers.get(target, ["train", "compare"]):
                args = ["--config", "experiment.conf", *stages[stage]]
                argv = [stage, *(a if a.startswith("--") else str(run / a) for a in args)]
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
    def test_bad_config_value_names_the_config_file(self, tmp_path, capsys, key, value, message):
        """Every stage reads every configuration value, so even ``generate`` refuses a
        bad training or split value, and the line names the file."""
        conf = fast_conf(tmp_path, **{key: value})
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {conf}: ") and err.count("\n") == 1
        assert message in err and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("target", ["fast.conf", "model.json", "prepared/series.csv"])
    def test_undecodable_input_names_its_path(self, tmp_path, capsys, target):
        """A byte that is not UTF-8 is refused: a JSON document does not decode, and in
        a CSV or configuration file it reads as U+FFFD, which no key, number or header accepts."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        path = tmp_path / target
        path.write_bytes(b"\x80" + path.read_bytes())
        capsys.readouterr()
        assert main(compare_argv(conf, prepared, model, tmp_path / "report.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("nesting", ["100000-brackets", "value-100-deep"])
    @pytest.mark.parametrize(
        "name", ["model.json", "prepared/trend.json", "prepared/scale.json", "prepared/split.json"]
    )
    def test_deeply_nested_document_is_one_line_diagnostic(self, tmp_path, capsys, name, nesting):
        """Brackets nested too deep to decode, or a value that is a list nested 100 deep,
        end ``compare`` in one line that names the document."""
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
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
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"clockpred: error: {path}: ") and err.count("\n") == 1
        assert not report.exists()

    def test_infinite_model_channel_count_is_one_line_diagnostic(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        text = model_to_json(init_weights(0))
        model.write_text(text.replace('"channels": 1', '"channels": 1e400'))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main(compare_argv(conf, prepared, model, report)) == 1
        err = capsys.readouterr().err
        assert err == (
            f"clockpred: error: {model}: malformed document: "
            "keys ['channels'] differ from the config of its kernels\n"
        )
        assert not report.exists()

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
            for ran in ("generate", "prepare", "train", "compare"):
                argv = [*FrozenCli.stage_argv(ran), "--config", str(conf)]
                error = FrozenCli.run_stage(argv, run)
                if error is not None:
                    break
            assert (ran, error) == (stage, f"{stage} returned 1")
            assert not (run / "report.csv").exists()
        err = capsys.readouterr().err
        source = f"{inputs[stage]} with {conf}" if inputs[stage] else conf
        assert err.startswith(f"clockpred: error: {source}: ") and err.count("\n") == 1

    def test_refused_prepare_writes_nothing(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
        prepared = tmp_path / "prepared"
        prepared.mkdir()
        (prepared / "split.json").write_text("stale\n")
        capsys.readouterr()
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv")]
        assert main(argv + ["--out-dir", str(prepared)]) == 1
        err = capsys.readouterr().err
        assert f"refusing to overwrite {prepared / 'split.json'}" in err and err.count("\n") == 1
        assert [p.name for p in prepared.iterdir()] == ["split.json"]
        assert (prepared / "split.json").read_text() == "stale\n"

    def test_refused_train_writes_no_model(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        (tmp_path / "trace.csv").write_text("stale\n")
        capsys.readouterr()
        argv = ["train", "--config", conf, "--prepared", str(prepared), "--model-out"]
        argv += [str(tmp_path / "model.json"), "--trace-out", str(tmp_path / "trace.csv")]
        assert main(argv) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "model.json.manifest.json").exists()
        assert (tmp_path / "trace.csv").read_text() == "stale\n"

    def test_force_rewrites_every_output_and_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf = fast_conf(tmp_path)
        written = {}
        for stage in ("generate", "prepare", "train", "compare"):
            argv = [*FrozenCli.stage_argv(stage), "--config", conf]
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

    def test_two_outputs_on_one_path_are_refused(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        capsys.readouterr()
        report = tmp_path / "report.csv"
        argv = compare_argv(conf, prepared, model, report) + ["--summary-out", str(report)]
        assert main(argv + ["--force"]) == 1
        err = capsys.readouterr().err
        assert "two outputs of compare share one path" in err and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("spelling", ["dotdot", "symlink"])
    def test_two_spellings_of_one_file_are_refused(self, tmp_path, capsys, spelling):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        out = tmp_path / "out"
        if spelling == "dotdot":
            summary = out / ".." / "out" / "r.csv"
        else:
            out.mkdir()
            (tmp_path / "link").symlink_to(out, target_is_directory=True)
            summary = tmp_path / "link" / "r.csv"
        capsys.readouterr()
        argv = compare_argv(conf, prepared, model, out / "r.csv") + ["--stub-memorize"]
        assert main(argv + ["--summary-out", str(summary), "--force"]) == 1
        err = capsys.readouterr().err
        assert "two outputs of compare share one path" in err and err.count("\n") == 1
        assert not out.exists() or list(out.iterdir()) == []

    def test_manifest_records_outputs_as_spelled(self, tmp_path):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        summary = f"{tmp_path}/out/../out/s.json"
        argv = compare_argv(conf, prepared, model, tmp_path / "out" / "r.csv")
        assert main(argv + ["--stub-memorize", "--summary-out", summary]) == 0
        manifest = json.loads((tmp_path / "out" / "r.csv.manifest.json").read_text())
        report = str(tmp_path / "out" / "r.csv")
        assert manifest["outputs"] == {"report": report, "summary": summary}
        assert json.loads((tmp_path / "out" / "s.json").read_text())["n_pred"] > 0

    def test_outputs_take_their_mode_from_the_umask(self, tmp_path):
        conf = fast_conf(tmp_path)
        out = tmp_path / "series.csv"
        written = (out, tmp_path / "series.csv.manifest.json")
        old = os.umask(0o022)
        try:
            for mask in (0o022, 0o077, 0o022):  # a first write, then two overwrites
                os.umask(mask)
                argv = ["generate", "--config", conf, "--out", str(out), "--force"]
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
    def test_empty_config_path_is_refused(self, tmp_path, capsys, monkeypatch, source):
        """``--config "$CONF"`` with ``CONF`` unset must not run the default configuration."""
        argv = ["generate", "--out", str(tmp_path / "series.csv")]
        if source == "flag":
            monkeypatch.delenv("CLOCKPRED_CONFIG", raising=False)
            argv += ["--config", ""]
        else:
            monkeypatch.setenv("CLOCKPRED_CONFIG", "")
        assert main(argv) == 1
        assert capsys.readouterr().err == "clockpred: error: the configuration path is empty\n"
        assert list(tmp_path.iterdir()) == []


class TestParser:
    """One parser serves every ``main`` call in a process; no call leaks into the next."""

    def test_built_once(self, tmp_path):
        parser = _build_parser()
        generate_and_prepare(tmp_path, fast_conf(tmp_path))
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

    def test_force_does_not_carry_over(self, tmp_path, capsys):
        conf = fast_conf(tmp_path)
        out = str(tmp_path / "series.csv")
        assert main(["generate", "--config", conf, "--out", out, "--force"]) == 0
        assert main(["generate", "--config", conf, "--out", out]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_summary_out_and_stub_do_not_carry_over(self, tmp_path):
        conf = fast_conf(tmp_path)
        prepared = generate_and_prepare(tmp_path, conf)
        model = tmp_path / "model.json"
        model.write_text(model_to_json(init_weights(0)))
        stub = compare_argv(conf, prepared, model, tmp_path / "stub.csv")
        assert main(stub + ["--summary-out", str(tmp_path / "stub.json"), "--stub-memorize"]) == 0
        assert main(compare_argv(conf, prepared, model, tmp_path / "report.csv")) == 0
        summary = json.loads((tmp_path / "report.csv.summary.json").read_text())
        assert summary["cnn_e_rms_ns"] > 0 and summary["kf_e_rms_ns"] > 0
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "model.json",
            "report.csv.manifest.json",
            "report.csv.summary.json",
            "s.csv.manifest.json",
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
        generate_and_prepare(tmp_path, fast_conf(tmp_path))

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
    assert written == load_reference()["frozen_cli"]["sha256"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_pred"] == 100
    assert 0 < summary["cnn_e_rms_ns"] < 50
    assert 0 < summary["kf_e_rms_ns"] < 50
