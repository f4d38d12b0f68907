"""Sliding-window supervision, the Adam optimizer, and the training loop.

Each training pair is a 5-point window of the normalized residual series
and the value one step after it.  Updates are full batch: the loss is the
root-mean-square error over all pairs plus an L2 penalty on the weights,
and one Adam step is taken per update.  Validation RMSE drives early
stopping with best-snapshot restoration.

``train`` fuses the steps of an update: the forward pass that gives one
update's train RMSE also gives the next update's gradient, and it runs
over the training and validation windows stacked, training first, so an
update costs one forward pass and one backward pass, which reads the
pass's first rows.  The first pass is stacked too, and every later one
writes into its buffers.  With one channel its results are bit for bit
those of the unfused composition of ``forward_batch``, ``backward_batch``
and ``adam_step``; with more they may differ in the last bits.  A
non-finite train or validation RMSE stops training with an error that
names the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cnn import (
    DEFAULT_INPUT_WIDTH,
    BatchForward,
    CnnModel,
    ParamViews,
    backward_cached,
    forward_batch,
    forward_cached,
)
from .series import TimeSeries, _csv_text, _freeze, _whole
from .synthetic import DEFAULT_SEED

STOP_MAX_UPDATES = "max-updates"
STOP_EARLY = "early-stop"


@dataclass(frozen=True)
class WindowDataset:
    """Window/next-point pairs drawn from one contiguous index range."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=np.float64)
        targets = np.array(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 1 or inputs.shape[0] != targets.size:
            raise ValueError("inputs must be (n, width) with one target per window")
        _freeze(self, inputs=inputs, targets=targets)

    def __len__(self) -> int:
        return self.targets.size


def make_windows(series: TimeSeries, indices: range) -> WindowDataset:
    """All (window, next point) pairs fully contained in ``indices``.

    A range of length L yields L - 5 pairs; ``series.subseries`` checks the range.
    """
    width = DEFAULT_INPUT_WIDTH
    values = series.subseries(indices).values
    if values.size < width + 1:
        raise ValueError(
            f"range of {values.size} points is too short for width-{width} "
            "windows with a one-point-ahead target"
        )
    targets = np.arange(width, values.size)
    return WindowDataset(values[np.add.outer(targets - width, np.arange(width))], values[targets])


def rmse_loss(preds, targets) -> float:
    """Root-mean-square error between predictions and targets."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: {preds.shape} vs {targets.shape}")
    if preds.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates plus the optimizer hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float

    def __post_init__(self):
        m = np.array(self.m, dtype=np.float64)
        v = np.array(self.v, dtype=np.float64)
        if m.shape != v.shape or m.ndim != 1:
            raise ValueError("moment vectors must be 1D and congruent")
        if np.any(v < 0.0):
            raise ValueError("second moments must be nonnegative")
        _freeze(self, m=m, v=v, t=_whole("t", self.t, 0))


def _adam_update(params, grads, m, v, t: int, lr, beta1, beta2, eps) -> None:
    """Adam step number ``t``, written in place into ``params``, ``m`` and ``v``."""
    m[:] = beta1 * m + (1.0 - beta1) * grads
    v[:] = beta2 * v + (1.0 - beta2) * grads**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_step(params, grads, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One Adam update.

    m <- b1*m + (1-b1)*g,  v <- b2*v + (1-b2)*g^2, bias-corrected, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    new_params, m, v, t = params.copy(), state.m.copy(), state.v.copy(), state.t + 1
    _adam_update(new_params, grads, m, v, t, state.lr, state.beta1, state.beta2, state.eps)
    return new_params, replace(state, m=m, v=v, t=t)


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop knobs; every field has a working default.

    The defaults are the frozen settings of the bundled experiment: a
    learning rate low enough that the terminal loss plateau is quiet, a
    damping eps well above machine precision for the same reason, and
    patience equal to the update budget, which turns early stopping into
    pure best-snapshot restoration.  Set a smaller patience to truncate
    runs whose validation error has stopped improving.
    """

    max_updates: int = 2000
    l2_lambda: float = 1e-4
    patience: int = 2000
    seed: int = DEFAULT_SEED
    lr: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-3

    def __post_init__(self):
        for name, least in (("max_updates", 1), ("patience", 1), ("seed", 0)):
            _freeze(self, **{name: _whole(name, getattr(self, name), least)})
        if not 0.0 <= self.l2_lambda < math.inf:
            raise ValueError(f"l2_lambda must be nonnegative and finite, got {self.l2_lambda}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-update train/validation RMSE, the stop reason, and the best update."""

    train_rmse: np.ndarray
    val_rmse: np.ndarray
    stop_reason: str
    best_update: int

    def __post_init__(self):
        train = np.array(self.train_rmse, dtype=np.float64)
        val = np.array(self.val_rmse, dtype=np.float64)
        if train.shape != val.shape or train.ndim != 1:
            raise ValueError("trace columns must be congruent 1D arrays")
        if self.stop_reason not in (STOP_MAX_UPDATES, STOP_EARLY):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if (best := _whole("best_update", self.best_update, 0)) >= train.size:
            raise ValueError("best_update outside the recorded trace")
        _freeze(self, train_rmse=train, val_rmse=val, best_update=best)

    def __len__(self) -> int:
        return self.train_rmse.size


def predict_dataset(model: CnnModel, ds: WindowDataset) -> np.ndarray:
    """Model outputs for every window, in dataset order."""
    return forward_batch(model, ds.inputs)


def _data_gradient(
    params: ParamViews, fwd: BatchForward, targets: np.ndarray, rmse: float, grads: ParamViews
) -> None:
    """Write into ``grads`` the gradient of the RMSE against ``targets`` of the
    first ``targets.size`` outputs of the pass ``fwd``, through those windows.

    ``rmse`` must be that RMSE, as ``rmse_loss`` gives it.
    """
    resid = fwd.outputs[: targets.size] - targets
    upstreams = resid / (resid.size * rmse) if rmse > 0.0 else np.zeros_like(resid)
    backward_cached(params, fwd, upstreams, grads)


def train(
    model: CnnModel,
    train_ds: WindowDataset,
    val_ds: WindowDataset,
    cfg: TrainConfig,
) -> tuple[CnnModel, TrainingTrace]:
    """Full-batch Adam with early stopping on validation RMSE.

    Stops after ``cfg.max_updates`` updates, or once validation RMSE has
    failed to improve for ``cfg.patience`` consecutive updates.  The
    returned model is the snapshot with the lowest validation RMSE.

    The loop works on one flat parameter vector through views made once,
    and keeps the Adam moments in place.  Each update runs one backward
    pass, over the first ``len(train_ds)`` windows of the forward pass that
    gave the previous update's train RMSE, one Adam step, and one cached
    forward pass over the training and validation windows stacked, training
    first.  The first forward pass, before the loop, is stacked as well, and
    each later pass writes its caches into that pass's arrays.

    Raises
    ------
    ValueError
        When a train or validation RMSE is not finite; the message names
        the update, counted from 1.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("training and validation datasets must be nonempty")
    params = model.to_vector()
    views = model.param_views(params)
    grad = np.empty_like(params)
    grad_views = model.param_views(grad)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    n_train = len(train_ds)
    inputs = np.concatenate([train_ds.inputs, val_ds.inputs])
    train_curve: list[float] = []
    val_curve: list[float] = []
    best_val = math.inf
    best_params = params.copy()
    best_update = 0
    stop_reason = STOP_MAX_UPDATES
    # Overflow and NaN are reported by the finiteness check below instead.
    with np.errstate(over="ignore", invalid="ignore"):
        l2_scale = (2.0 * cfg.l2_lambda) * model.weight_mask()
        both = forward_cached(views, inputs)
        train_rmse = rmse_loss(both.outputs[:n_train], train_ds.targets)
        for update in range(cfg.max_updates):
            _data_gradient(views, both, train_ds.targets, train_rmse, grad_views)
            grad += l2_scale * params
            _adam_update(params, grad, m, v, update + 1, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
            both = forward_cached(views, inputs, out=both)
            train_rmse = rmse_loss(both.outputs[:n_train], train_ds.targets)
            val_rmse = rmse_loss(both.outputs[n_train:], val_ds.targets)
            if not (math.isfinite(train_rmse) and math.isfinite(val_rmse)):
                raise ValueError(
                    f"training diverged at update {update + 1}: train RMSE "
                    f"{train_rmse}, validation RMSE {val_rmse}"
                )
            train_curve.append(train_rmse)
            val_curve.append(val_rmse)
            if val_rmse < best_val:
                best_val = val_rmse
                best_params = params.copy()
                best_update = update
            elif update - best_update >= cfg.patience:
                stop_reason = STOP_EARLY
                break
    trace = TrainingTrace(np.array(train_curve), np.array(val_curve), stop_reason, best_update)
    return model.from_vector(best_params), trace


def trace_to_csv(trace: TrainingTrace) -> str:
    """CSV document ``update,train_rmse,val_rmse`` with updates counted from 1."""
    columns = np.arange(1, len(trace) + 1), trace.train_rmse, trace.val_rmse
    return _csv_text("update,train_rmse,val_rmse", "%d,%r,%r", *columns)
