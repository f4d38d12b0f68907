"""Prediction of [UTC - hydrogen maser] offsets.

The pipeline: combine partial offset streams into one 5-day series, remove
its quadratic drift, normalize, then predict one step ahead with either a
small 1D convolutional network trained by Adam with early stopping, or a
two-state Kalman filter, and compare both against the held-out test
partition in physical nanoseconds.
"""

__version__ = "0.1.0"

from .cnn import (
    CnnModel,
    ConvLayer,
    backward,
    forward,
    init_weights,
    load_model,
)
from .kalman import KalmanParams, kf_one_ahead
from .predictor import (
    PredictionReport,
    compare,
    e_rms_pred,
    persistence_predictor,
    reconstruct,
    rolling_predict,
)
from .series import (
    DataSplit,
    NormalizationScale,
    PreparedSeries,
    QuadraticTrend,
    TimeSeries,
    combine_series,
    denormalize,
    detrend,
    fit_quadratic,
    normalize,
    prepare,
    read_series,
    retrend,
    split,
)
from .synthetic import SyntheticClockSpec, default_maser_spec, generate
from .training import (
    AdamState,
    TrainConfig,
    TrainingTrace,
    WindowDataset,
    adam_step,
    make_windows,
    rmse_loss,
    train,
)

__all__ = [
    "AdamState",
    "CnnModel",
    "ConvLayer",
    "DataSplit",
    "KalmanParams",
    "NormalizationScale",
    "PredictionReport",
    "PreparedSeries",
    "QuadraticTrend",
    "SyntheticClockSpec",
    "TimeSeries",
    "TrainConfig",
    "TrainingTrace",
    "WindowDataset",
    "adam_step",
    "backward",
    "combine_series",
    "compare",
    "default_maser_spec",
    "denormalize",
    "detrend",
    "e_rms_pred",
    "fit_quadratic",
    "forward",
    "generate",
    "init_weights",
    "kf_one_ahead",
    "load_model",
    "make_windows",
    "normalize",
    "persistence_predictor",
    "prepare",
    "read_series",
    "reconstruct",
    "retrend",
    "rmse_loss",
    "rolling_predict",
    "split",
    "train",
]
