"""Value types and entry points refuse malformed input with their own message.

One row per library refusal that one call reaches: the call and the message it must
raise, matched in full.  A row is grouped under the test that runs it, keyed by that
test's id under ``tests/`` (``<file>::[<class>::]<name>``), and each test file binds its
own groups with ``bind_groups``: so a case keeps the test id it has always run under, and
the rows of no earlier test run under this file's ``test_refused_with_its_message``.  A
group is a row, a list of rows that one test runs in turn, or a dict of rows keyed by
their parametrize ids.  A new refusal is one more row.  Every refusal of a CLI run is a
row of ``CLI_REFUSALS`` in ``tests/test_cli.py``.

Library refusals that one row cannot state keep their own tests:

- ``test_values_are_immutable``: the error is numpy's own, on writing to a read-only array;
- ``test_mjd_that_is_not_an_int64_is_a_malformed_row``: half its cases read through the
  numpy 1.x ``loadtxt`` emulation, which patches numpy;
- ``test_pass_into_buffers_of_another_shape_is_refused``: it also checks that
  ``forward_cached(out=)`` left the buffers unchanged;
- ``test_non_finite_prediction_is_refused_naming_method_and_mjd``: ``score`` names an MJD
  of the prepared fixture;
- ``test_non_finite_validation_names_the_update``: the message carries a train RMSE, whose
  digits the BLAS kernel can move;
- ``test_degenerate_innovation_rejected``: the refusal is the test oracle's ``kf_update``;
- ``test_json_documents_refuse_non_finite_numbers``: its message is Python's ``json``
  wording, which the library does not own.
"""

import functools
import importlib
import math
import re

import numpy as np
import pytest

from clockpred.cnn import CnnModel, ConvLayer, backward_batch, forward, forward_batch, init_weights
from clockpred.config import (
    channels_from, effective_config, kalman_params_from, prepare_options_from, seed_from,
    synthetic_spec_from,
)
from clockpred.kalman import KalmanParams, kf_gains, kf_one_ahead, kf_one_ahead_batch
from clockpred.predictor import (
    PredictionReport, persistence_predictor, reconstruct, rolling_predict
)
from clockpred.series import (
    NormalizationScale, QuadraticTrend, TimeSeries, combine_series, fit_quadratic,
    parse_series, prepare, split,
)
from clockpred.synthetic import SyntheticClockSpec
from clockpred.training import (
    STOP_EARLY, AdamState, TrainConfig, TrainingTrace, WindowDataset, adam_step, make_windows,
    rmse_loss, train,
)
from tests.helpers import bind_groups

MODEL = init_weights(0)
SERIES = TimeSeries(56934 + 5 * np.arange(10), np.ones(10), 5)


def with_layers(*layers):
    return lambda: CnnModel(layers, MODEL.head_weights, MODEL.head_bias)


def adam(m=np.zeros(3), v=np.zeros(3), t=0):
    return lambda: AdamState(m, v, t, 0.005, 0.9, 0.999, 1e-3)


REFUSALS = {
    "test_refusals.py::test_refused_with_its_message": {
        "ConvLayer-2d-kernel": (
            lambda: ConvLayer(np.ones((2, 4)), np.zeros(2)),
            "kernel must have shape (out_channels, in_channels, k)",
        ),
        "CnnModel-two-layers": (
            with_layers(*MODEL.layers[:2]), "model needs exactly 3 conv layers"
        ),
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
        "KalmanParams-nan-q1": (
            lambda: KalmanParams(q1=np.nan), "Kalman parameters must be finite"
        ),
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
        "PredictionReport-n_pred-2.0": (
            lambda: PredictionReport(np.arange(2), *[np.ones(2)] * 5, 2.0, 0.0, 0.0),
            "n_pred must be an integer of at least 0, got 2.0",
        ),
        "kf_gains-width-2.5": (
            lambda: kf_gains(2.5, 5.0), "window width must be an integer of at least 2, got 2.5"
        ),
        **{
            f"init_weights-{name}-{value}": (
                lambda name=name, value=value: init_weights(**{"seed": 1, name: value}),
                f"{name} must be an integer of at least {least}, got {value}",
            )
            for name, least, value in [("seed", 0, 1.5), ("channels", 1, 2.5)]
        },
        "TimeSeries-empty": (
            lambda: TimeSeries([], [], 5), "series must contain at least one point"
        ),
        "TimeSeries-2d": (
            lambda: TimeSeries([[56934, 56939]], [[1.0, 2.0]], 5),
            "epochs and values must be one-dimensional",
        ),
        **{
            f"TimeSeries-interval-{name}": (
                lambda interval=interval: TimeSeries([56934], [1.0], interval),
                f"interval must be an integer of at least 1, got {interval!r}",
            )
            for name, interval in [
                ("0", 0), ("5.5", 5.5), ("str-5", "5"), ("inf", math.inf), ("nan", math.nan),
                ("True", True),
            ]
        },
        "subseries-step-2": (
            lambda: SERIES.subseries(range(0, 10, 2)),
            "subseries requires a contiguous index range",
        ),
        "subseries-out-of-bounds": (
            lambda: SERIES.subseries(range(5, 11)),
            "index range range(5, 11) out of bounds for series of length 10",
        ),
        **{
            f"split-{n}-points": (
                lambda n=n: split(n), f"point count must be an integer of at least 0, got {n}"
            )
            for n in (10.7, True)
        },
        "NormalizationScale-0": (
            lambda: NormalizationScale(0.0),
            "degenerate normalization scale 0.0; the source series must contain a nonzero value",
        ),
        "prepare-all-zero": (
            lambda: prepare(TimeSeries(56934 + 5 * np.arange(40), np.zeros(40), 5)),
            "cannot normalize an all-zero series (degenerate scale)",
        ),
        "prepare-fit_on_full-str": (
            lambda: prepare(SERIES, 0.5, 0.2, fit_on_full="false"),
            "fit_on_full must be a bool, got 'false'",
        ),
        **{
            f"SyntheticClockSpec-negative-{name}": (
                lambda name=name: SyntheticClockSpec(**{name: -0.1}),
                "noise amplitudes must be nonnegative",
            )
            for name in ("sigma_wfm", "sigma_rwfm")
        },
        # Each count, interval and seed field of a value type is a whole number.
        **{
            f"{cls.__name__}-{field}-{value}": (
                lambda cls=cls, field=field, value=value: cls(**{field: value}),
                f"{field} must be an integer of at least {least}, got {value}",
            )
            for cls, field, least, values in [
                (SyntheticClockSpec, "n", 7, [7.5]),
                (SyntheticClockSpec, "interval", 1, [0, 5.5, True]),
                (SyntheticClockSpec, "seed", 0, [-1, 1.5]),
                (TrainConfig, "max_updates", 1, [0, 2.5]),
                (TrainConfig, "patience", 1, [0, 1.5]),
                (TrainConfig, "seed", 0, [-1]),
            ]
            for value in values
        },
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
            "subseries requires a contiguous index range",
        ),
        "make_windows-past-the-end": (
            lambda: make_windows(SERIES, range(0, 11)),
            "index range range(0, 11) out of bounds for series of length 10",
        ),
        "make_windows-empty": (
            lambda: make_windows(SERIES, range(3, 3)),
            "index range range(3, 3) out of bounds for series of length 10",
        ),
        "AdamState-m-v-shapes": (adam(v=np.zeros(4)), "moment vectors must be 1D and congruent"),
        "AdamState-negative-v": (adam(v=-np.ones(3)), "second moments must be nonnegative"),
        "AdamState-t-negative": (adam(t=-1), "t must be an integer of at least 0, got -1"),
        "AdamState-t-1.5": (adam(t=1.5), "t must be an integer of at least 0, got 1.5"),
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
        "TrainingTrace-best-update-1.5": (
            lambda: TrainingTrace(np.ones(3), np.ones(3), STOP_EARLY, 1.5),
            "best_update must be an integer of at least 0, got 1.5",
        ),
        "rmse_loss-1-for-2": (
            lambda: rmse_loss([1.0], [1.0, 2.0]), "shape mismatch: (1,) vs (2,)"
        ),
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
                "configuration key 'cnn_channels': must be at least 1 and at most 1024, "
                f"got {value}",
            )
            for value in ("0", "-2")
        },
        "seed_from-negative-override": (
            lambda: seed_from(effective_config(), -1),
            "seed must be an integer of at least 0, got -1",
        ),
    },
    "test_series.py::TestTimeSeries::test_rejects_gap": (
        lambda: TimeSeries([56934, 56939, 56949], [1.0, 2.0, 3.0], 5),
        "epochs must advance by 5 days; offending step 56939 -> 56949",
    ),
    "test_series.py::TestTimeSeries::test_rejects_non_monotone": (
        lambda: TimeSeries([56939, 56934], [1.0, 2.0], 5),
        "epochs must advance by 5 days; offending step 56939 -> 56934",
    ),
    "test_series.py::TestTimeSeries::test_rejects_nonfinite": (
        lambda: TimeSeries([56934, 56939, 56944], [1.0, np.nan, 3.0], 5),
        "values must all be finite",
    ),
    "test_series.py::TestTimeSeries::test_rejects_empty_and_mismatched": (
        lambda: TimeSeries([56934, 56939], [1.0], 5),
        "epochs (2) and values (1) differ in length",
    ),
    "test_series.py::TestTimeSeries::test_rejects_fractional_epochs": (
        lambda: TimeSeries([56934.5, 56939.5], [1.0, 2.0], 5),
        "epochs must be whole MJD day numbers",
    ),
    # Epochs that would wrap or saturate in the int64 cast are refused, not mangled.
    "test_series.py::TestTimeSeries::test_rejects_epochs_beyond_int64": {
        name: (
            lambda epochs=epochs: TimeSeries(epochs, [1.0, 1.0], 5),
            "epochs must be MJD day numbers within the int64 range",
        )
        for name, epochs in [
            ("int-2^63", [2**63, 2**63 + 5]),
            ("uint64-2^63", np.array([2**63, 2**63 + 5], dtype=np.uint64)),
            ("inf", [np.inf, np.inf]),
            ("minus-inf", [-np.inf, -np.inf]),
            ("1e300", [1e300, 1e300]),
            ("float-2^63", [2.0**63, 2.0**63]),
            ("int-2^64", [2**64, 2**64 + 5]),
        ]
    },
    "test_series.py::TestCombineSeries::test_alignment_error_names_first_divergent_epoch": [
        (
            functools.partial(combine_series, SERIES, TimeSeries(epochs, SERIES.values, interval)),
            line,
        )
        for epochs, interval, line in [
            (56934 + 10 * np.arange(10), 10, "cannot combine series with intervals 5 and 10"),
            (SERIES.epochs + 5, 5, "epoch alignment error at index 0: 56934 != 56939"),
        ]
    ],
    "test_series.py::TestCombineSeries::test_length_mismatch_reports_extra_epoch": (
        lambda: combine_series(SERIES.subseries(range(0, 3)), SERIES.subseries(range(0, 2))),
        "epoch alignment error at index 2: epoch 56944 has no counterpart",
    ),
    "test_series.py::TestFitQuadratic::test_needs_three_points": (
        lambda: fit_quadratic(SERIES.subseries(range(0, 2))),
        "quadratic fit needs at least 3 points, got 2",
    ),
    "test_series.py::TestSplit::test_empty_partition_rejected": (
        lambda: split(3, 0.51, 0.12),
        "splitting 3 points as 1/0/2 leaves an empty partition; every partition must be nonempty",
    ),
    "test_series.py::TestSplit::test_fraction_validation": [
        (
            lambda fractions=fractions: split(100, *fractions),
            "fractions out of range: train={}, val={} (need both > 0 and their sum < 1)".format(
                *fractions
            ),
        )
        for fractions in [(0.0, 0.1), (0.5, 0.0), (0.7, 0.3), (-0.1, 0.5)]
    ],
    "test_series.py::TestCsvRoundTrip::test_malformed_row_reports_line": (
        lambda: parse_series("mjd,ns\n56934,1.0\nabc,1.0\n", "bad.csv"),
        "bad.csv:3: malformed row 'abc,1.0'",
    ),
    "test_series.py::TestCsvRoundTrip::test_bad_header": (
        lambda: parse_series("time,offset\n56934,1.0\n", "bad.csv"),
        "bad.csv:1: expected header 'mjd,ns'",
    ),
    "test_series.py::TestCsvRoundTrip::test_spacing_error": (
        lambda: parse_series("mjd,ns\n56934,1.0\n56939,2.0\n56943,3.0\n", "gap.csv"),
        "gap.csv: epochs must advance by 5 days; offending step 56939 -> 56943",
    ),
    # ``int`` and ``float`` read ``56_934`` as 56934 and ``1_0.5`` as 10.5.
    "test_series.py::TestCsvRoundTrip::test_digit_group_underscore_is_a_malformed_row": {
        row: (
            lambda row=row: parse_series(f"mjd,ns\n56929,1.0\n{row}\n", "grouped.csv"),
            f"grouped.csv:3: malformed row '{row}'",
        )
        for row in ["56_934,1.0", "56939,1_0.5"]
    },
    # A layer whose inputs are not the previous layer's outputs never reaches ``forward``.
    "test_cnn.py::TestConv1dForward::test_channel_mismatch": (
        with_layers(MODEL.layers[0], *[ConvLayer(np.zeros((1, 2, 3)), np.zeros(1))] * 2),
        "layers[1]: channel shape (1, 2) does not match (1, 1)",
    ),
    "test_cnn.py::TestForward::test_window_length_checked": (
        lambda: forward(MODEL, np.zeros(6)),
        "window of shape (6,) does not match input width 5",
    ),
    "test_cnn.py::TestModelStructure::test_kernel_length_enforced": (
        with_layers(*[ConvLayer(np.zeros(3), 0.0)] * 3),
        "layers[0]: kernel length 3 at a position requiring 4",
    ),
    "test_kalman.py::TestOneAhead::test_window_validation": (
        lambda: kf_one_ahead([1.0], 5.0), "window width must be an integer of at least 2, got 1"
    ),
    "test_kalman.py::TestOneAhead::test_interval_must_be_positive_and_finite": {
        str(interval): [
            (
                functools.partial(one_ahead, windows, interval),
                f"interval must be positive and finite, got {interval}",
            )
            for one_ahead, windows in [
                (kf_one_ahead, np.arange(5.0)), (kf_one_ahead_batch, np.ones((3, 5)))
            ]
        ]
        for interval in [0.0, -5.0, np.nan, np.inf]
    },
    "test_kalman.py::TestBatch::test_batch_validation": [
        (
            lambda: kf_one_ahead_batch(np.zeros(5), 5.0),
            "windows must form an (n, width) matrix, got shape (5,)",
        ),
        (
            lambda: kf_one_ahead_batch(np.zeros((3, 1)), 5.0),
            "window width must be an integer of at least 2, got 1",
        ),
    ],
    "test_predictor.py::TestRollingPredict::test_short_test_range_rejected": (
        lambda: rolling_predict(persistence_predictor, SERIES, range(0, 4)),
        "range of 4 points is too short for width-5 windows with a one-point-ahead target",
    ),
    "test_predictor.py::TestReconstruct::test_length_mismatch": (
        lambda: reconstruct(
            np.zeros(3), NormalizationScale(1.0), QuadraticTrend(0, 0, 0, 0), [1, 2]
        ),
        "3 predictions do not match 2 epochs",
    ),
    "test_synthetic.py::TestSpecValidation::test_minimum_points": (
        lambda: SyntheticClockSpec(n=6), "n must be an integer of at least 7, got 6"
    ),
    "test_training.py::TestAdamStep::test_shape_mismatch": (
        lambda: adam_step(np.zeros(3), np.zeros(4), adam()()),
        "shape mismatch: params (3,), grads (4,), state (3,)",
    ),
    "test_training.py::TestTrain::test_empty_dataset_rejected": (
        lambda: train(
            MODEL, make_windows(SERIES, range(0, 10)), WindowDataset(np.zeros((0, 5)), []),
            TrainConfig(),
        ),
        "training and validation datasets must be nonempty",
    ),
    # Keyed by the ids that pytest made of these cases' fields and values.
    "test_training.py::TestFailLoudly::test_config_rejects_bad_optimizer_settings": {
        f"{field}-{value}": (
            lambda field=field, value=value: TrainConfig(**{field: value}),
            f"{field} must {rule}, got {value}",
        )
        for field, rule, values in [
            ("lr", "be positive and finite", [0.0, -1.0, math.nan, math.inf]),
            ("beta1", "lie in [0, 1)", [1.0, -0.1]),
            ("beta2", "lie in [0, 1)", [1.0, 2.0]),
            ("eps", "be positive and finite", [0.0, -1e-8, math.inf]),
            ("l2_lambda", "be nonnegative and finite", [math.nan, math.inf]),
        ]
        for value in values
    },
}


def refusal_test(group):
    """The test of one group of :data:`REFUSALS`: each call must raise a ``ValueError``
    whose message is the row's, whole."""

    def test(rows):
        for call, message in rows if isinstance(rows, list) else [rows]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    if isinstance(group, dict):
        return pytest.mark.parametrize("rows", group.values(), ids=group)(test)
    return lambda: test(group)


bind_groups(globals(), REFUSALS, refusal_test)


def test_every_group_is_bound_in_its_file():
    """A group whose file, class or test name no module binds would never run."""
    from tests.test_cli import CLI_REFUSALS

    for key in [*REFUSALS, *CLI_REFUSALS]:
        file, *owner, name = key.split("::")
        home = importlib.import_module(f"tests.{file.removesuffix('.py')}")
        assert hasattr(getattr(home, owner[0]) if owner else home, name), key
