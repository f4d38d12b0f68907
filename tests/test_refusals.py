"""Value types and entry points refuse malformed input with their own message.

One row per refusal that no other test reaches: the call and the message
it must raise, matched in full.
"""

import re

import numpy as np
import pytest

from clockpred.cnn import CnnModel, ConvLayer, backward_batch, forward_batch, init_weights
from clockpred.kalman import KalmanParams, kf_gains, kf_one_ahead
from clockpred.predictor import PredictionReport
from clockpred.series import NormalizationScale, TimeSeries
from clockpred.synthetic import SyntheticClockSpec
from clockpred.training import AdamState, TrainConfig, TrainingTrace, WindowDataset, make_windows

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
    "kf_gains-degenerate": (
        lambda: kf_gains(3, 1.0, KalmanParams(q1=0.0, q2=0.0, r=0.0, p0=1e-12)),
        "degenerate update: innovation variance 0.0 is not positive",
    ),
    "PredictionReport-short-column": (
        lambda: PredictionReport(np.arange(2), *[np.ones(2)] * 4, np.ones(1), 2, 0.0, 0.0),
        "column kf_diff_ns must hold 2 entries",
    ),
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
    "SyntheticClockSpec-nan-x0": (
        lambda: SyntheticClockSpec(x0=np.nan),
        "spec field x0 must be finite",
    ),
    "WindowDataset-3-targets-for-2": (
        lambda: WindowDataset(np.zeros((2, 5)), np.zeros(3), range(0, 7)),
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
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
