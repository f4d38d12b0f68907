"""End-to-end tests of the command-line pipeline."""

import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from clockpred.cli import load_prepared, main
from clockpred.series import denormalize, read_series, retrend, write_series
from clockpred.synthetic import SyntheticClockSpec, generate

EXPERIMENT_CONF = str(Path(__file__).resolve().parent.parent / "configs" / "experiment.conf")


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
        write_series(half, tmp_path / "a.csv", decimals=None)
        write_series(half, tmp_path / "b.csv", decimals=None)
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
        ],
    )
    def test_bad_training_is_one_line_diagnostic(self, tmp_path, capsys, setting, message):
        conf = fast_conf(tmp_path)
        assert main(["generate", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 0
        prepared = str(tmp_path / "prepared")
        argv = ["prepare", "--config", conf, "--in", str(tmp_path / "s.csv"), "--out-dir", prepared]
        assert main(argv) == 0
        capsys.readouterr()
        code = main(
            [
                "train",
                "--config",
                fast_conf(tmp_path, **setting),
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
        assert message in err
        assert not (tmp_path / "model.json").exists()

    def test_config_via_environment(self, tmp_path, monkeypatch):
        conf = fast_conf(tmp_path, gen_n=9)
        monkeypatch.setenv("CLOCKPRED_CONFIG", conf)
        out = tmp_path / "series.csv"
        assert main(["generate", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 10


def test_experiment_config_end_to_end(tmp_path):
    """The bundled frozen experiment runs cleanly through the CLI."""
    run_pipeline(tmp_path, EXPERIMENT_CONF)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_pred"] == 100
    assert 0 < summary["cnn_e_rms_ns"] < 50
    assert 0 < summary["kf_e_rms_ns"] < 50
