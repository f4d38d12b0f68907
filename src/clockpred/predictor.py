"""Rolling one-step-ahead evaluation over the test partition.

Each test point is predicted from the 5 actual points before it; earlier
predictions are never fed back in.  Normalized predictions are mapped back
to nanoseconds by undoing the scale and re-adding the quadratic trend, and
both methods are scored with the root-mean-square prediction error.

The windows form one (n, width) matrix, built once per comparison.  A
window callable is applied to its rows one at a time; the Kalman
baseline with fixed ``KalmanParams`` filters the whole matrix in one
batched call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cnn import DEFAULT_INPUT_WIDTH, CnnModel, forward
from .kalman import KalmanParams, kf_one_ahead, kf_one_ahead_batch
from .series import NormalizationScale, PreparedSeries, QuadraticTrend, TimeSeries
from .training import rmse_loss

REPORT_HEADER = "mjd,actual_ns,cnn_pred_ns,kf_pred_ns,cnn_diff_ns,kf_diff_ns"


def e_rms_pred(preds, actuals) -> float:
    """Root-mean-square prediction error; same formula as the training loss."""
    return rmse_loss(preds, actuals)


def eligible_indices(test_range: range) -> list[int]:
    """Test indices whose full 5-point history exists."""
    return [i for i in test_range if i >= DEFAULT_INPUT_WIDTH]


def window_matrix(series_norm: TimeSeries, test_range: range) -> np.ndarray:
    """The read-only (n, 5) matrix of windows, one row per eligible test index.

    Row j holds the 5 actual values preceding the j-th eligible index, in
    ascending epoch order; windows may reach back before ``test_range``
    but never contain a prior prediction.
    """
    width = DEFAULT_INPUT_WIDTH
    if test_range.stop > len(series_norm):
        raise ValueError(f"test range {test_range} out of bounds")
    indices = eligible_indices(test_range)
    if not indices:
        raise ValueError(
            f"test range {test_range} is too short: no index has {width} predecessors"
        )
    windows = series_norm.values[np.add.outer(np.subtract(indices, width), np.arange(width))]
    windows.flags.writeable = False
    return windows


def _predict_rows(predict_fn: Callable[[np.ndarray], float], windows: np.ndarray) -> np.ndarray:
    return np.array([float(predict_fn(window)) for window in windows])


def rolling_predict(
    predict_fn: Callable[[np.ndarray], float], series_norm: TimeSeries, test_range: range
) -> np.ndarray:
    """One prediction per eligible test index, in ascending epoch order.

    ``predict_fn`` receives each row of :func:`window_matrix` in turn.
    """
    return _predict_rows(predict_fn, window_matrix(series_norm, test_range))


def reconstruct(
    preds_norm, scale: NormalizationScale, trend: QuadraticTrend, epochs
) -> np.ndarray:
    """Map normalized residual predictions back to nanoseconds at the given epochs."""
    preds_norm = np.asarray(preds_norm, dtype=np.float64)
    epochs = np.asarray(epochs)
    if preds_norm.shape != epochs.shape:
        raise ValueError(
            f"{preds_norm.size} predictions do not match {epochs.size} epochs"
        )
    return preds_norm * scale.d_max_abs + trend(epochs)


def persistence_predictor(window) -> float:
    """Trivial baseline: tomorrow equals today."""
    return float(np.asarray(window)[-1])


def memorization_predictor(
    series_norm: TimeSeries, test_range: range
) -> Callable[[np.ndarray], float]:
    """Stub that returns each target's actual value (harness self-check)."""
    answers = iter(float(series_norm.values[i]) for i in eligible_indices(test_range))

    def predict(window) -> float:
        return next(answers)

    return predict


def cnn_window_predictor(model: CnnModel) -> Callable[[np.ndarray], float]:
    return lambda window: forward(model, window)


def kalman_window_predictor(
    params: KalmanParams, interval: float
) -> Callable[[np.ndarray], float]:
    return lambda window: kf_one_ahead(window, interval, params)


@dataclass(frozen=True)
class PredictionReport:
    """Per-epoch test values, both methods' predictions, and summary scores."""

    epochs: np.ndarray
    actual_ns: np.ndarray
    cnn_pred_ns: np.ndarray
    kf_pred_ns: np.ndarray
    cnn_diff_ns: np.ndarray
    kf_diff_ns: np.ndarray
    n_pred: int
    cnn_e_rms_ns: float
    kf_e_rms_ns: float

    def __post_init__(self):
        columns = {}
        for name in (
            "epochs",
            "actual_ns",
            "cnn_pred_ns",
            "kf_pred_ns",
            "cnn_diff_ns",
            "kf_diff_ns",
        ):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1 or arr.size != self.n_pred:
                raise ValueError(f"column {name} must hold {self.n_pred} entries")
            arr.flags.writeable = False
            columns[name] = arr
        for name, arr in columns.items():
            object.__setattr__(self, name, arr)


def compare(cnn_method, kf_method, prepared: PreparedSeries) -> PredictionReport:
    """Run both predictors over the test partition's windows and score them.

    ``cnn_method`` may be a :class:`CnnModel` or any window callable;
    ``kf_method`` may be a :class:`KalmanParams` or any window callable.
    The window matrix is built once.  Callables see its rows one at a
    time; ``KalmanParams`` filter all rows in one batched call, whose
    predictions equal the per-window filter's bit for bit.  A method whose
    RMS error is not finite is refused, naming its worst prediction's MJD.
    """
    test_range = prepared.split.test_range
    windows = window_matrix(prepared.residual_norm, test_range)
    cnn_fn = cnn_method if callable(cnn_method) else cnn_window_predictor(cnn_method)
    indices = eligible_indices(test_range)
    epochs = prepared.series.epochs[indices]
    actual = prepared.series.values[indices]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        cnn_norm = _predict_rows(cnn_fn, windows)
        if callable(kf_method):
            kf_norm = _predict_rows(kf_method, windows)
        else:
            kf_norm = kf_one_ahead_batch(windows, prepared.series.interval, kf_method)
        cnn_ns = reconstruct(cnn_norm, prepared.scale, prepared.trend, epochs)
        kf_ns = reconstruct(kf_norm, prepared.scale, prepared.trend, epochs)
        diffs = [cnn_ns - actual, kf_ns - actual]
        scores = [e_rms_pred(cnn_ns, actual), e_rms_pred(kf_ns, actual)]
    for method, diff, score in zip(("CNN", "KF"), diffs, scores):
        if not np.isfinite(score):
            mjd = epochs[np.argmax(abs(diff))]  # the first NaN, if any
            raise ValueError(f"{method} prediction at MJD {mjd} gives a non-finite RMS error")
    return PredictionReport(
        epochs=epochs,
        actual_ns=actual,
        cnn_pred_ns=cnn_ns,
        kf_pred_ns=kf_ns,
        cnn_diff_ns=diffs[0],
        kf_diff_ns=diffs[1],
        n_pred=len(indices),
        cnn_e_rms_ns=scores[0],
        kf_e_rms_ns=scores[1],
    )


def report_to_csv(report: PredictionReport) -> str:
    """Full-precision CSV with one row per predicted epoch."""
    ns_columns = (
        report.actual_ns,
        report.cnn_pred_ns,
        report.kf_pred_ns,
        report.cnn_diff_ns,
        report.kf_diff_ns,
    )
    columns = [report.epochs.tolist()]
    columns += [c.astype(np.float64, copy=False).tolist() for c in ns_columns]
    rows = [
        f"{mjd},{actual!r},{cnn!r},{kf!r},{cnn_diff!r},{kf_diff!r}"
        for mjd, actual, cnn, kf, cnn_diff, kf_diff in zip(*columns)
    ]
    return "\n".join([REPORT_HEADER, *rows]) + "\n"


def summary_to_json(report: PredictionReport) -> str:
    """The scores behind the comparison: counts and both RMS errors in ns."""
    payload = {
        "n_pred": report.n_pred,
        "cnn_e_rms_ns": report.cnn_e_rms_ns,
        "kf_e_rms_ns": report.kf_e_rms_ns,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
