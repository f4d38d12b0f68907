"""Rolling one-step-ahead evaluation over the test partition.

Each test point is predicted from the 5 actual points before it; earlier
predictions are never fed back in.  Normalized predictions are mapped back
to nanoseconds by undoing the scale and re-adding the quadratic trend, and
both methods are scored with the root-mean-square prediction error.

Evaluation has one path: the test windows form one (n, width) matrix,
each method turns it into one vector of normalized predictions, and
:func:`score` builds the report from the two vectors.  :func:`compare`
runs the CNN and the Kalman baseline along that path; a caller with
predictions of its own passes them to :func:`score`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .cnn import DEFAULT_INPUT_WIDTH, CnnModel, forward
from .kalman import KalmanParams, kf_one_ahead, kf_one_ahead_batch
from .series import (
    NormalizationScale, PreparedSeries, QuadraticTrend, TimeSeries, _csv_text, _freeze, _json_text
)
from .training import make_windows, rmse_loss

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
    but never contain a prior prediction.  They are the inputs of
    :func:`~clockpred.training.make_windows` over the range that starts 5
    points before the first eligible index, which refuses a range with no
    eligible index, or one that is not contiguous or not inside the series.
    """
    start = max(test_range.start, DEFAULT_INPUT_WIDTH) - DEFAULT_INPUT_WIDTH
    return make_windows(series_norm, range(start, test_range.stop, test_range.step)).inputs


def rolling_predict(
    predict_fn: Callable[[np.ndarray], float], series_norm: TimeSeries, test_range: range
) -> np.ndarray:
    """One prediction per eligible test index, in ascending epoch order.

    ``predict_fn`` receives each row of :func:`window_matrix` in turn.
    """
    windows = window_matrix(series_norm, test_range)
    return np.array([float(predict_fn(window)) for window in windows])


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


def kalman_window_predictor(
    params: KalmanParams, interval: float
) -> Callable[[np.ndarray], float]:
    """Per-window ``kf_one_ahead`` for :func:`rolling_predict`, the form kf-calibrate times."""
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
        per_epoch = {f.name: np.array(getattr(self, f.name)) for f in fields(self)[:6]}
        for name, arr in per_epoch.items():
            if arr.ndim != 1 or arr.size != self.n_pred:
                raise ValueError(f"column {name} must hold {self.n_pred} entries")
        _freeze(self, **per_epoch)


def compare(model: CnnModel, params: KalmanParams, prepared: PreparedSeries) -> PredictionReport:
    """Predict the test partition with the CNN and the Kalman filter, and score both.

    The window matrix is built once.  The CNN predicts its rows one at a
    time through the scalar ``forward``, whose rounding the report is
    pinned to; the Kalman filter predicts all rows in one batched call,
    whose predictions equal the per-window filter's bit for bit.
    :func:`score` builds the report.
    """
    windows = window_matrix(prepared.residual_norm, prepared.split.test_range)
    with np.errstate(over="ignore", invalid="ignore"):  # score refuses, not warns
        cnn_norm = np.array([forward(model, window) for window in windows])
        kf_norm = kf_one_ahead_batch(windows, prepared.series.interval, params)
    return score(prepared, cnn_norm, kf_norm)


def score(prepared: PreparedSeries, cnn_norm, kf_norm) -> PredictionReport:
    """The report of two methods' normalized predictions of the test partition.

    ``cnn_norm`` and ``kf_norm`` hold one prediction per eligible test
    index, in ascending epoch order, as :func:`rolling_predict` gives them.
    Each is mapped back to nanoseconds and scored against the series.  A
    method whose RMS error is not finite is refused, naming its worst
    prediction's MJD.
    """
    indices = eligible_indices(prepared.split.test_range)
    epochs = prepared.series.epochs[indices]
    actual = prepared.series.values[indices]
    scale, trend = prepared.scale, prepared.trend
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        preds = [reconstruct(p, scale, trend, epochs) for p in (cnn_norm, kf_norm)]
        diffs = [pred - actual for pred in preds]
        scores = [e_rms_pred(pred, actual) for pred in preds]
    for method, diff, rms in zip(("CNN", "KF"), diffs, scores):
        if not np.isfinite(rms):
            mjd = epochs[np.argmax(abs(diff))]  # the first NaN, if any
            raise ValueError(f"{method} prediction at MJD {mjd} gives a non-finite RMS error")
    return PredictionReport(
        epochs=epochs,
        actual_ns=actual,
        cnn_pred_ns=preds[0],
        kf_pred_ns=preds[1],
        cnn_diff_ns=diffs[0],
        kf_diff_ns=diffs[1],
        n_pred=len(indices),
        cnn_e_rms_ns=scores[0],
        kf_e_rms_ns=scores[1],
    )


def report_to_csv(report: PredictionReport) -> str:
    """Full-precision CSV with one row per predicted epoch."""
    ns = (getattr(report, f.name).astype(np.float64, copy=False) for f in fields(report)[1:6])
    return _csv_text(REPORT_HEADER, "%s" + ",%r" * 5, report.epochs, *ns)


def summary_to_json(report: PredictionReport) -> str:
    """The scores behind the comparison: counts and both RMS errors in ns."""
    payload = {
        "n_pred": report.n_pred,
        "cnn_e_rms_ns": report.cnn_e_rms_ns,
        "kf_e_rms_ns": report.kf_e_rms_ns,
    }
    return _json_text(payload)
