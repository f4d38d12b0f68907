"""Value types and entry points refuse malformed input with their own message.

One row per library refusal that one call reaches: the call and the message it
must raise, matched in full.  A new refusal is one more row.  Every refusal of
a CLI run is a row of ``CLI_REFUSALS`` in ``tests/test_cli.py``.
"""

import re

import numpy as np
import pytest

from clockpred.config import (
    channels_from, effective_config, kalman_params_from, prepare_options_from, seed_from,
    synthetic_spec_from,
)
from clockpred.cnn import CnnModel, ConvLayer, backward_batch, forward_batch, init_weights
from clockpred.kalman import KalmanParams, kf_gains, kf_one_ahead
from clockpred.predictor import PredictionReport
from clockpred.series import NormalizationScale, TimeSeries, prepare
from clockpred.synthetic import SyntheticClockSpec
from clockpred.training import (
    STOP_EARLY, AdamState, TrainConfig, TrainingTrace, WindowDataset, make_windows, rmse_loss
)

MODEL = init_weights(0)
SERIES = TimeSeries(56934 + 5 * np.arange(10), np.ones(10), 5)


def with_layers(*layers):
    return lambda: CnnModel(layers, MODEL.head_weights, MODEL.head_bias)


def adam(m=np.zeros(3), v=np.zeros(3), t=0):
    return lambda: AdamState(m, v, t, 0.005, 0.9, 0.999, 1e-3)


REFUSALS = {
    "ConvLayer-2d-kernel": (
        lambda: ConvLayer(np.ones((2, 4)), np.zeros(2)),
        "kernel must have shape (out_channels, in_channels, k)",
    ),
    "CnnModel-two-layers": (with_layers(*MODEL.layers[:2]), "model needs exactly 3 conv layers"),
    "CnnModel-zero-channels": (
        with_layers(ConvLayer(np.zeros((0, 1, 4)), np.zeros(0)), *MODEL.layers[1:]),
        "channels must be positive",
    ),
    "CnnModel-nan-head": (
        lambda: CnnModel(MODEL.layers, np.full(5, np.nan), 0.0),
        "head parameters must be finite",
    ),
    "param_views-float32": (
        lambda: MODEL.param_views(np.zeros(19, dtype=np.float32)),
        "expected 19 parameters, got (19,)",
    ),
    "param_views-strided": (
        lambda: MODEL.param_views(np.zeros(38)[::2]),
        "parameter views need a contiguous vector",
    ),
    "forward_batch-width-4": (
        lambda: forward_batch(MODEL, np.zeros((3, 4))),
        "batch of shape (3, 4) does not match input width 5",
    ),
    "backward_batch-one-upstream-for-two": (
        lambda: backward_batch(MODEL, np.zeros((2, 5)), [1.0]),
        "one upstream scalar per window is required",
    ),
    "kf_one_ahead-2d-window": (
        lambda: kf_one_ahead(np.zeros((2, 5)), 5.0),
        "window must be one-dimensional, got shape (2, 5)",
    ),
    "CnnModel-4-head-weights": (
        lambda: CnnModel(MODEL.layers, np.ones(4), 0.0),
        "head expects 5 weights, got shape (4,)",
    ),
    "KalmanParams-nan-q1": (lambda: KalmanParams(q1=np.nan), "Kalman parameters must be finite"),
    **{
        f"KalmanParams-negative-{key}": (
            lambda key=key: KalmanParams(**{key: -1e-9}),
            "noise parameters must be nonnegative",
        )
        for key in ("q1", "q2", "r")
    },
    "KalmanParams-p0-0": (lambda: KalmanParams(p0=0.0), "initial variance must be positive"),
    "kf_gains-degenerate": (
        lambda: kf_gains(3, 1.0, KalmanParams(q1=0.0, q2=0.0, r=0.0, p0=1e-12)),
        "degenerate update: innovation variance 0.0 is not positive",
    ),
    "PredictionReport-short-column": (
        lambda: PredictionReport(np.arange(2), *[np.ones(2)] * 4, np.ones(1), 2, 0.0, 0.0),
        "column kf_diff_ns must hold 2 entries",
    ),
    "TimeSeries-empty": (lambda: TimeSeries([], [], 5), "series must contain at least one point"),
    "TimeSeries-2d": (
        lambda: TimeSeries([[56934, 56939]], [[1.0, 2.0]], 5),
        "epochs and values must be one-dimensional",
    ),
    "TimeSeries-interval-0": (
        lambda: TimeSeries([56934], [1.0], 0),
        "interval must be a positive day count, got 0",
    ),
    "subseries-step-2": (
        lambda: SERIES.subseries(range(0, 10, 2)),
        "subseries requires a contiguous index range",
    ),
    "subseries-out-of-bounds": (
        lambda: SERIES.subseries(range(5, 11)),
        "index range range(5, 11) out of bounds for series of length 10",
    ),
    "NormalizationScale-0": (
        lambda: NormalizationScale(0.0),
        "degenerate normalization scale 0.0; the source series must contain a nonzero value",
    ),
    "prepare-all-zero": (
        lambda: prepare(TimeSeries(56934 + 5 * np.arange(40), np.zeros(40), 5)),
        "cannot normalize an all-zero series (degenerate scale)",
    ),
    **{
        f"SyntheticClockSpec-negative-{name}": (
            lambda name=name: SyntheticClockSpec(**{name: -0.1}),
            "noise amplitudes must be nonnegative",
        )
        for name in ("sigma_wfm", "sigma_rwfm")
    },
    "SyntheticClockSpec-interval-0": (
        lambda: SyntheticClockSpec(interval=0),
        "interval must be positive, got 0",
    ),
    "SyntheticClockSpec-nan-x0": (
        lambda: SyntheticClockSpec(x0=np.nan),
        "spec field x0 must be finite",
    ),
    "WindowDataset-3-targets-for-2": (
        lambda: WindowDataset(np.zeros((2, 5)), np.zeros(3)),
        "inputs must be (n, width) with one target per window",
    ),
    "make_windows-step-2": (
        lambda: make_windows(SERIES, range(0, 10, 2)),
        "window extraction requires a contiguous index range",
    ),
    "make_windows-past-the-end": (
        lambda: make_windows(SERIES, range(0, 11)),
        "index range range(0, 11) out of bounds",
    ),
    "AdamState-m-v-shapes": (adam(v=np.zeros(4)), "moment vectors must be 1D and congruent"),
    "AdamState-negative-v": (adam(v=-np.ones(3)), "second moments must be nonnegative"),
    "AdamState-t-negative": (adam(t=-1), "step count must be nonnegative"),
    "TrainConfig-max_updates-0": (
        lambda: TrainConfig(max_updates=0),
        "max_updates must be at least 1",
    ),
    "TrainConfig-patience-0": (lambda: TrainConfig(patience=0), "patience must be at least 1"),
    "TrainingTrace-column-lengths": (
        lambda: TrainingTrace(np.ones(3), np.ones(2), "max-updates", 0),
        "trace columns must be congruent 1D arrays",
    ),
    "TrainingTrace-stop-reason": (
        lambda: TrainingTrace(np.ones(3), np.ones(3), "whenever", 0),
        "unknown stop reason 'whenever'",
    ),
    "TrainingTrace-best-update-3-of-3": (
        lambda: TrainingTrace(np.ones(3), np.ones(3), STOP_EARLY, 3),
        "best_update outside the recorded trace",
    ),
    "rmse_loss-1-for-2": (lambda: rmse_loss([1.0], [1.0, 2.0]), "shape mismatch: (1,) vs (2,)"),
    "rmse_loss-empty": (lambda: rmse_loss([], []), "rmse of empty vectors is undefined"),
    "make_windows-5-points": (
        lambda: make_windows(SERIES, range(0, 5)),
        "range of 5 points is too short for width-5 windows with a one-point-ahead target",
    ),
    **{
        f"config-{key}-{value}": (
            lambda key=key, value=value, read=read: read(effective_config({key: value})),
            f"configuration key '{key}': '{value}' is not {kind}",
        )
        for read, key, value, kind in [
            (synthetic_spec_from, "gen_n", "many", "an integer"),
            (kalman_params_from, "kf_r", "tiny", "a number"),
            (prepare_options_from, "fit_on_full", "perhaps", "a boolean"),
        ]
    },
    **{
        f"channels_from-{value}": (
            lambda value=value: channels_from(effective_config({"cnn_channels": value})),
            f"configuration key 'cnn_channels': must be at least 1 and at most 1024, got {value}",
        )
        for value in ("0", "-2")
    },
    "seed_from-negative-override": (
        lambda: seed_from(effective_config(), -1),
        "seed must be nonnegative, got -1",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
