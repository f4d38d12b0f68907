"""Tests for the flat key=value configuration file."""

import inspect

import pytest

from benchmarks import workloads
from clockpred import KalmanParams, SyntheticClockSpec, TrainConfig, compare, init_weights, prepare
from clockpred.config import (
    DEFAULTS,
    channels_from,
    effective_config,
    kalman_params_from,
    parse_config,
    prepare_options_from,
    seed_from,
    synthetic_spec_from,
    train_config_from,
)
from tests.helpers import kernel_pin_message


def write_conf(tmp_path, text):
    path = tmp_path / "test.conf"
    path.write_text(text)
    return path


def test_defaults_build_every_section():
    cfg = effective_config()
    spec = synthetic_spec_from(cfg)
    assert spec.n == 274 and spec.interval == 5
    train_cfg = train_config_from(cfg)
    assert train_cfg.max_updates >= 1
    params = kalman_params_from(cfg)
    assert params.r >= 0
    train_frac, val_frac, fit_on_full = prepare_options_from(cfg)
    assert 0 < train_frac < 1 and fit_on_full is False


def test_parse_and_merge(tmp_path):
    path = write_conf(
        tmp_path,
        "# comment line\n"
        "gen_n = 50   # trailing comment\n"
        "\n"
        "train_lr = 0.5\n"
        "fit_on_full = true\n",
    )
    overrides = parse_config(path)
    assert overrides == {"gen_n": "50", "train_lr": "0.5", "fit_on_full": "true"}
    cfg = effective_config(overrides)
    assert synthetic_spec_from(cfg).n == 50
    assert train_config_from(cfg).lr == 0.5
    assert prepare_options_from(cfg)[2] is True
    assert cfg["gen_interval"] == DEFAULTS["gen_interval"]


def test_unknown_key_rejected(tmp_path):
    path = write_conf(tmp_path, "no_such_key = 1\n")
    with pytest.raises(ValueError, match="unknown configuration key"):
        parse_config(path)


def test_malformed_line_reports_number(tmp_path):
    path = write_conf(tmp_path, "gen_n = 10\njust words\n")
    with pytest.raises(ValueError, match=":2"):
        parse_config(path)


def test_empty_value_rejected(tmp_path):
    path = write_conf(tmp_path, "gen_n =\n")
    with pytest.raises(ValueError, match="empty value"):
        parse_config(path)


def test_seed_override_and_validation():
    """The seed and its override; the refusal of a negative one is a row of ``REFUSALS``."""
    cfg = effective_config()
    assert seed_from(cfg) == 56934
    assert seed_from(cfg, 7) == 7


def test_experiment_config_file_parses():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / "experiment.conf"
    overrides = parse_config(path)
    cfg = effective_config(overrides)
    assert prepare_options_from(cfg)[2] is True
    # the bundled experiment matches the library defaults except fit_on_full
    for key, value in overrides.items():
        if key in ("fit_on_full",):
            continue
        try:
            assert float(value) == float(DEFAULTS[key])
        except ValueError:
            assert value == DEFAULTS[key]
    spec = synthetic_spec_from(cfg)
    assert (spec.n, spec.interval, spec.seed) == (274, 5, 56934)


def test_duplicate_key_rejected_with_both_lines(tmp_path):
    path = write_conf(tmp_path, "train_lr = 0.1\ngen_n = 50\ntrain_lr = 0.5\n")
    with pytest.raises(ValueError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: duplicate key 'train_lr' (first set on line 1)"


# The key set before the defaults were read from the dataclasses; manifests record it.
KEYS = [
    "cnn_channels", "fit_on_full", "gen_drift", "gen_interval", "gen_n", "gen_sigma_rwfm",
    "gen_sigma_wfm", "gen_start_epoch", "gen_x0", "gen_y0", "kf_p0", "kf_q1", "kf_q2", "kf_r",
    "seed", "train_beta1", "train_beta2", "train_eps", "train_frac", "train_l2_lambda",
    "train_lr", "train_max_updates", "train_patience", "val_frac",
]


def test_key_set_is_unchanged():
    assert sorted(DEFAULTS) == KEYS


@pytest.mark.parametrize("key", ["gen_seed", "train_seed"])
def test_section_seed_fields_are_not_keys(tmp_path, key):
    path = write_conf(tmp_path, f"{key} = 7\n")
    with pytest.raises(ValueError, match=f"unknown configuration key '{key}'"):
        parse_config(path)


def test_defaults_are_the_library_defaults():
    """The CLI with no config file runs what the library's own defaults run."""
    cfg = effective_config()
    assert synthetic_spec_from(cfg) == SyntheticClockSpec()
    assert train_config_from(cfg) == TrainConfig()
    assert kalman_params_from(cfg) == KalmanParams()
    prepare_defaults = inspect.signature(prepare).parameters
    assert prepare_options_from(cfg) == tuple(
        prepare_defaults[name].default for name in ("train_frac", "val_frac", "fit_on_full")
    )
    assert channels_from(cfg) == inspect.signature(init_weights).parameters["channels"].default


def test_benchmark_fixture_reproduces_the_reference_scores():
    """The benchmark's in-process experiment, built through these readers, scores as recorded."""
    fx = workloads.build_fixture()
    report = compare(fx.model, KalmanParams(), fx.prepared)
    expected = workloads.load_reference()["in_process"]
    assert workloads.scores_error(report, expected) is None, kernel_pin_message()
