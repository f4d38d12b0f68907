"""Shared independent oracles and instance generators for the test suite.

Everything here recomputes results through a route different from the
library code it checks: naive loops, rational arithmetic, closed forms,
and ``forward_reference``, the scalar forward pass that ``cnn.forward``
replaced and must match bit for bit, and ``kf_gains_reference``, the
matrix-form gains whose bytes ``kalman.kf_gains`` must give.
The one exception, ``_loss_gradient``, composes the library's own batched
passes into the whole-dataset gradient that finite differences check.
``loss_with_l2`` and ``weight_norm_sq`` state the loss that gradient is of;
training never evaluates it.  ``gains_byte_mismatches`` runs the gains byte
check on whatever gains function a test passes in,
``kernel_pin_message`` words the failure of a test that pins BLAS bytes, and
``bind_groups`` binds each group of a refusal table to the test file it runs in.
"""

import ctypes
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from clockpred.cnn import (
    DEFAULT_INPUT_WIDTH,
    CnnModel,
    ConvLayer,
    _check_window,
    forward,
    forward_cached,
    init_weights,
)
from clockpred.kalman import KalmanParams
from clockpred.series import CSV_HEADER, DEFAULT_INTERVAL_DAYS, TimeSeries, _brief
from clockpred.training import _data_gradient, rmse_loss


def conv_oracle(x, kernel, bias):
    """Naive index-by-index cross-correlation over the zero-padded input."""
    x = np.asarray(x, dtype=float)
    k = len(kernel)
    left, right = k // 2, (k - 1) // 2
    padded = np.concatenate([np.zeros(left), x, np.zeros(right)])
    out = np.zeros(len(x))
    for j in range(len(x)):
        acc = bias
        for m in range(k):
            acc += kernel[m] * padded[j + m]
        out[j] = acc
    return out


def preactivations_oracle(model, window):
    """Each layer's (out_ch, width) pre-activation in turn, channel by channel
    through :func:`conv_oracle`; the next layer reads its ReLU."""
    act = np.asarray(window, dtype=float).reshape(1, -1)
    for layer in model.layers:
        out_ch, in_ch, _ = layer.kernel.shape
        pre = np.zeros((out_ch, act.shape[1]))
        for o in range(out_ch):
            total = np.zeros(act.shape[1])
            for c in range(in_ch):
                total += conv_oracle(act[c], layer.kernel[o, c], 0.0)
            pre[o] = total + layer.bias[o]
        yield pre
        act = np.maximum(pre, 0.0)


def forward_oracle(model, window):
    """Layer-by-layer recomputation of the network output."""
    *_, pre = preactivations_oracle(model, window)
    return float(model.head_weights @ np.maximum(pre, 0.0).ravel() + model.head_bias)


def _zero_padded(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` with ``k - 1`` zero cells added on its last axis, ``k // 2`` of them
    on the left: even kernels put the extra cell on the left."""
    width = x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (width + k - 1,))
    padded[..., k // 2 : k // 2 + width] = x
    return padded


def correlate_reference(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """One layer's pre-activation for (in_ch, width) inputs: the bias, then each
    channel's ``np.correlate`` added in channel order."""
    out_ch, in_ch, k = layer.kernel.shape
    padded = _zero_padded(x, k)
    out = np.empty((out_ch, x.shape[1]))
    for o in range(out_ch):
        acc = np.full(x.shape[1], layer.bias[o])
        for c in range(in_ch):
            acc = acc + np.correlate(padded[c], layer.kernel[o, c], "valid")
        out[o] = acc
    return out


def forward_reference(model, window) -> float:
    """The scalar forward pass layer by layer through :func:`correlate_reference`.

    ``cnn.forward`` must return these bits exactly: the compare report and
    its pinned digests are computed with them.
    """
    act = _check_window(window).reshape(1, -1)
    for layer in model.layers:
        act = np.maximum(correlate_reference(act, layer), 0.0)
    return float(model.head_weights @ act.ravel() + model.head_bias)


def batch_loops_oracle(model, windows, upstreams):
    """Batched outputs and summed upstream-scaled gradient by elementwise loops.

    Every conv sum runs over (out, in, tap) one product at a time, bias
    first, and each kernel gradient is one ``np.sum`` over an (n, width)
    product array.  With one channel the library's batched path must
    reproduce these bits exactly.
    """
    windows = np.asarray(windows, dtype=float)
    n, width = windows.shape
    act = windows.reshape(n, 1, width)
    caches = []
    for layer in model.layers:
        out_ch, in_ch, k = layer.kernel.shape
        left = k // 2
        padded = np.zeros((n, in_ch, width + k - 1))
        padded[:, :, left : left + width] = act
        pre = np.empty((n, out_ch, width))
        for o in range(out_ch):
            acc = np.full((n, width), layer.bias[o])
            for c in range(in_ch):
                for m in range(k):
                    acc += layer.kernel[o, c, m] * padded[:, c, m : m + width]
            pre[:, o, :] = acc
        caches.append((padded, pre))
        act = np.maximum(pre, 0.0)
    features = act.reshape(n, -1)
    outputs = features @ model.head_weights + model.head_bias
    upstreams = np.asarray(upstreams, dtype=float)
    d_act = (upstreams[:, None] * model.head_weights[None, :]).reshape(act.shape)
    parts = [features.T @ upstreams, [upstreams.sum()]]
    for layer, (padded, pre) in zip(reversed(model.layers), reversed(caches)):
        out_ch, in_ch, k = layer.kernel.shape
        d_pre = d_act * (pre > 0.0)
        g_kernel = np.empty_like(layer.kernel)
        d_padded = np.zeros_like(padded)
        for o in range(out_ch):
            for c in range(in_ch):
                for m in range(k):
                    g_kernel[o, c, m] = np.sum(d_pre[:, o, :] * padded[:, c, m : m + width])
                    d_padded[:, c, m : m + width] += layer.kernel[o, c, m] * d_pre[:, o, :]
        d_act = d_padded[:, :, k // 2 : k // 2 + width]
        parts = [g_kernel.ravel(), d_pre.sum(axis=(0, 2))] + parts
    return outputs, np.concatenate(parts)


def preactivation_margin(model, window):
    """Smallest |preactivation| across all layers; gates finite-difference
    checks away from ReLU kinks."""
    return min(float(np.min(np.abs(pre))) for pre in preactivations_oracle(model, window))


def kink_free_instance(rng, channels=1):
    """Random (model, window) whose preactivations keep a safe distance from 0."""
    while True:
        model = init_weights(int(rng.integers(0, 2**32)), channels=channels)
        vec = model.to_vector()
        vec += rng.normal(0, 0.3, vec.size)
        model = model.from_vector(vec)
        window = rng.uniform(-1.0, 1.0, DEFAULT_INPUT_WIDTH)
        if preactivation_margin(model, window) > 1e-3:
            return model, window


def one_position_model(first_kernel, position, first_bias=0.0):
    """A C=1 model whose output is ``position`` of its first layer's rectified
    output: identity kernels after ``first_kernel``, a one-hot head."""
    identity = ConvLayer([0.0, 1.0, 0.0], 0.0)
    head = np.zeros(DEFAULT_INPUT_WIDTH)
    head[position] = 1.0
    return CnnModel((ConvLayer(first_kernel, first_bias), identity, identity), head, 0.0)


def series_of(values) -> TimeSeries:
    """``values`` on the MJD grid that starts at 56934 and steps by 5 days."""
    values = np.asarray(values, dtype=float)
    return TimeSeries(56934 + 5 * np.arange(values.size), values, 5)


def fd_gradient(model, window, h=1e-5):
    """Central finite differences of the network output over all parameters."""
    vec = model.to_vector()
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        grad[i] = (
            forward(model.from_vector(up), window) - forward(model.from_vector(down), window)
        ) / (2 * h)
    return grad


def weight_norm_sq(model: CnnModel) -> float:
    """Sum of squared kernel and head weights; biases are excluded."""
    total = float(np.sum(model.head_weights**2))
    for layer in model.layers:
        total += float(np.sum(layer.kernel**2))
    return total


def loss_with_l2(preds, targets, model: CnnModel, l2_lambda: float) -> float:
    """RMSE plus ``l2_lambda`` times the squared weight norm."""
    return rmse_loss(preds, targets) + float(l2_lambda) * weight_norm_sq(model)


def _loss_gradient(model, ds, l2_lambda):
    """Gradient of ``loss_with_l2`` over the whole dataset, as a flat vector."""
    vec = model.to_vector()
    params = model.param_views(vec)
    grad = np.empty_like(vec)
    fwd = forward_cached(params, ds.inputs)
    rmse = rmse_loss(fwd.outputs, ds.targets)
    _data_gradient(params, fwd, ds.targets, rmse, model.param_views(grad))
    grad += (2.0 * l2_lambda) * model.weight_mask() * vec
    return grad


def fit_quadratic_oracle(epochs, values):
    """Exact 3x3 normal-equation solve by Cramer's rule over rationals."""
    t0 = Fraction(int(epochs[0]))
    dts = [Fraction(int(t)) - t0 for t in epochs]
    ys = [Fraction(float(v)) for v in values]
    basis = [[dt**k for k in range(3)] for dt in dts]
    gram = [[sum(row[i] * row[j] for row in basis) for j in range(3)] for i in range(3)]
    rhs = [sum(row[i] * y for row, y in zip(basis, ys)) for i in range(3)]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    den = det3(gram)
    coeffs = []
    for i in range(3):
        mod = [list(row) for row in gram]
        for r in range(3):
            mod[r][i] = rhs[r]
        coeffs.append(det3(mod) / den)
    return [float(c) for c in coeffs]


def adam_reference(param, grad, m, v, t, lr, beta1, beta2, eps):
    """Scalar transcription of the published recurrence, plain Python floats."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (math.sqrt(v_hat) + eps), m, v, t


def openblas_core():
    """The kernel name of the OpenBLAS bundled with numpy, or None where none is found.

    ``OPENBLAS_CORETYPE`` picks the kernel, and an unknown value falls back
    to the default one silently, so a test run under it reads back the name.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def kernel_pin_message() -> str:
    """The failure message of a test that pins bytes recorded under OpenBLAS SkylakeX."""
    return (
        f"bytes recorded under the SkylakeX BLAS kernel, run under {openblas_core()}: "
        "each kernel rounds the trend fit and the CNN head its own way (ROADMAP item 2)"
    )


# The two-state clock model, written here apart from ``clockpred.kalman``, and
# two filters on it: the square-root form whose bytes the library must give,
# and the plain covariance recursion one step at a time, with a Joseph-form
# update, which the library must agree with where the dynamic range is modest.


def clock_transition(interval: float) -> np.ndarray:
    """Phase/frequency propagation over one interval: [[1, tau], [0, 1]]."""
    return np.array([[1.0, float(interval)], [0.0, 1.0]])


def process_noise(q1: float, q2: float, interval: float) -> np.ndarray:
    """Two-state clock process covariance accumulated over one interval."""
    tau = float(interval)
    return np.array(
        [
            [q1 * tau + q2 * tau**3 / 3.0, q2 * tau**2 / 2.0],
            [q2 * tau**2 / 2.0, q2 * tau],
        ]
    )


def process_noise_factor(q1: float, q2: float, interval: float) -> np.ndarray:
    """A 2x3 matrix M with M M' = :func:`process_noise`, from the exact Cholesky pieces."""
    tau = float(interval)
    s2, st = math.sqrt(q2), math.sqrt(tau)
    return np.array(
        [
            [math.sqrt(q1 * tau), s2 * tau * st / math.sqrt(3.0), 0.0],
            [0.0, s2 * st * math.sqrt(3.0) / 2.0, s2 * st / 2.0],
        ]
    )


@functools.cache
def kf_gains_reference(width, interval, params):
    """``kalman.kf_gains`` as it stood with the factor held as a 2x2 array.

    Every product goes through numpy: ``a @ a``, ``root @ a`` and
    ``np.outer`` in the Potter update, and ``mode="r"`` QR in the
    prediction.  Since ``H S = (a, 0)``, each of those sums has exact-zero
    terms, so the library's three-float update must give these bytes.
    Computed once per arguments and returned read-only.
    """
    if width < 2:
        raise ValueError(f"a window needs at least two samples, got {width}")
    tau = float(interval)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"interval must be positive and finite, got {interval}")
    root = np.diag([math.sqrt(params.p0), math.sqrt(params.p0)])
    transition = clock_transition(tau)
    # [F S | Q^(1/2)], re-triangularized by QR at each prediction.
    stacked = np.empty((2, 5))
    stacked[:, 2:] = process_noise_factor(params.q1, params.q2, tau)
    gains = np.empty((width, 2))
    for k in range(width):
        if k:
            stacked[:, :2] = transition @ root
            root = np.linalg.qr(stacked.T, mode="r").T
        # Potter measurement update on the factor (H = [1, 0]).
        a = root[0, :]
        innovation_var = float(a @ a) + params.r
        if innovation_var <= 0.0:
            raise ValueError(
                f"degenerate update: innovation variance {innovation_var} is not positive"
            )
        root_a = root @ a
        gains[k] = root_a / innovation_var
        shrink = 1.0 / (innovation_var + math.sqrt(innovation_var * params.r))
        root = root - shrink * np.outer(root_a, a)
    gains.flags.writeable = False
    return gains


# The calibration grid of notebooks/05_kalman_calibration.py: 8 x 8 x 6 points.
GRID_Q = [0.0] + [10.0**e for e in range(-7, 0)]
GRID_R = [10.0**e for e in range(-6, 0)]


def gains_byte_mismatches(gains):
    """The configurations whose ``gains(width, interval, params)`` bytes differ
    from :func:`kf_gains_reference`'s.

    The calibration grid at widths 2, 5 and 9 and four intervals, each at
    the default p0 and at a random p0 in [1, 1e8].  Bytes, not values:
    ``assert_array_equal`` takes -0.0 for 0.0.  The tests pass in
    ``kalman.kf_gains``, in process and in subprocesses under other BLAS
    kernels, which import this module and no test framework.
    """
    rng = np.random.default_rng(2808)
    mismatches = []
    grid = itertools.product(GRID_Q, GRID_Q, GRID_R, (2, 5, 9), (1.0, 5.0, 7.5, 10.0))
    for q1, q2, r, width, tau in grid:
        for p0 in (KalmanParams.p0, float(10 ** rng.uniform(0, 8))):
            params = KalmanParams(q1=q1, q2=q2, r=r, p0=p0)
            got = gains(width, tau, params).tobytes()
            if got != kf_gains_reference(width, tau, params).tobytes():
                mismatches.append([q1, q2, r, p0, width, tau])
    return mismatches


def kf_one_ahead_oracle(window, interval, params):
    """The per-window square-root Kalman filter: one window's state mean, updated
    with :func:`kf_gains_reference`'s gains and propagated as ``F @ state``."""
    w = np.asarray(window, dtype=np.float64)
    tau = float(interval)
    transition = clock_transition(tau)
    state = np.array([w[0], (w[1] - w[0]) / tau])
    for z, gain in zip(w, kf_gains_reference(w.size, tau, params)):
        state = transition @ (state + gain * (float(z) - state[0]))
    return float(state[0])


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


@dataclass(frozen=True)
class KalmanModel:
    """Filter value: state mean, covariance, and the fixed model matrices."""

    state: np.ndarray
    P: np.ndarray
    F: np.ndarray
    Q: np.ndarray
    R: float

    H = np.array([1.0, 0.0])

    def __post_init__(self):
        state = np.asarray(self.state, dtype=np.float64)
        P = np.asarray(self.P, dtype=np.float64)
        F = np.asarray(self.F, dtype=np.float64)
        Q = np.asarray(self.Q, dtype=np.float64)
        if state.shape != (2,):
            raise ValueError("state must be (phase, frequency)")
        for name, mat in (("P", P), ("F", F), ("Q", Q)):
            if mat.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
        if not math.isclose(float(np.linalg.det(F)), 1.0, rel_tol=1e-9):
            raise ValueError("transition matrix must have unit determinant")
        for name, mat in (("P", P), ("Q", Q)):
            if not np.allclose(mat, mat.T, atol=1e-9 * max(1.0, float(np.abs(mat).max()))):
                raise ValueError(f"{name} must be symmetric")
        if self.R < 0.0:
            raise ValueError("measurement variance must be nonnegative")
        for arr in (state, P, F, Q):
            arr.flags.writeable = False
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", float(self.R))

    @classmethod
    def initial(
        cls,
        phase: float,
        frequency: float,
        interval: float,
        params: KalmanParams = KalmanParams(),
    ) -> "KalmanModel":
        """Diffuse-prior filter around a rough (phase, frequency) guess."""
        return cls(
            state=np.array([phase, frequency]),
            P=np.diag([params.p0, params.p0]),
            F=clock_transition(interval),
            Q=process_noise(params.q1, params.q2, interval),
            R=params.r,
        )


def kf_predict(kf: KalmanModel) -> KalmanModel:
    """Propagate one interval: state <- F state, P <- F P F' + Q."""
    state = kf.F @ kf.state
    P = _symmetrize(kf.F @ kf.P @ kf.F.T + kf.Q)
    return replace(kf, state=state, P=P)


def kf_update(kf: KalmanModel, z: float) -> KalmanModel:
    """Condition on a phase measurement ``z``.

    Raises
    ------
    ValueError
        If the innovation variance is not positive, which can only happen
        with R = 0 and a degenerate phase variance.
    """
    innovation_var = float(kf.P[0, 0]) + kf.R
    if innovation_var <= 0.0:
        raise ValueError(
            f"degenerate update: innovation variance {innovation_var} is not positive"
        )
    gain = kf.P[:, 0] / innovation_var
    state = kf.state + gain * (float(z) - kf.state[0])
    # Joseph form: algebraically (I - K H) P, but stable when P spans many
    # decades relative to R (diffuse start, near-zero measurement noise).
    closure = np.eye(2) - np.outer(gain, KalmanModel.H)
    P = _symmetrize(closure @ kf.P @ closure.T + kf.R * np.outer(gain, gain))
    return replace(kf, state=state, P=P)


def ols_line_extrapolation(window, interval):
    """Closed-form least-squares line through the window, one step ahead."""
    w = np.asarray(window, dtype=float)
    t = np.arange(w.size) * float(interval)
    t_bar = t.mean()
    y_bar = w.mean()
    slope = ((t - t_bar) @ (w - y_bar)) / ((t - t_bar) @ (t - t_bar))
    return float(y_bar + slope * (w.size * float(interval) - t_bar))


def series_to_csv_rowwise(s, decimals=3):
    """``mjd,ns`` CSV rendered one numpy scalar at a time (the original renderer)."""
    lines = ["mjd,ns"]
    for mjd, value in zip(s.epochs, s.values):
        if decimals is None:
            lines.append(f"{mjd},{float(value)!r}")
        else:
            lines.append(f"{mjd},{value:.{decimals}f}")
    return "\n".join(lines) + "\n"


def parse_series_rowwise(text: str, path) -> TimeSeries:
    """``series.parse_series`` as it parsed one row at a time with ``int`` and ``float``.

    It accepts digit-group underscores and non-ASCII digits, which the
    column-wise parser refuses; otherwise the two agree.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"{path}:1: expected header {CSV_HEADER!r}")
    epochs: list[int] = []
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            mjd, ns = line.split(",")
            epochs.append(int(mjd))
            values.append(float(ns))
            if not -(2**63) <= epochs[-1] < 2**63:
                raise ValueError("epoch out of the int64 range")
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {_brief.repr(line)}") from None
    interval = epochs[1] - epochs[0] if len(epochs) > 1 else DEFAULT_INTERVAL_DAYS
    try:
        if interval <= 0:
            raise ValueError(f"epochs must increase; offending step {epochs[0]} -> {epochs[1]}")
        return TimeSeries(epochs, values, interval)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def report_to_csv_rowwise(report):
    """Comparison report CSV rendered by indexing each column per row."""
    lines = ["mjd,actual_ns,cnn_pred_ns,kf_pred_ns,cnn_diff_ns,kf_diff_ns"]
    for i in range(report.n_pred):
        row = (
            f"{report.epochs[i]},{float(report.actual_ns[i])!r},"
            f"{float(report.cnn_pred_ns[i])!r},{float(report.kf_pred_ns[i])!r},"
            f"{float(report.cnn_diff_ns[i])!r},{float(report.kf_diff_ns[i])!r}"
        )
        lines.append(row)
    return "\n".join(lines) + "\n"


def trace_to_csv_rowwise(trace):
    """Training trace CSV rendered one numpy scalar at a time."""
    lines = ["update,train_rmse,val_rmse"]
    for i, (tr, vr) in enumerate(zip(trace.train_rmse, trace.val_rmse), start=1):
        lines.append(f"{i},{float(tr)!r},{float(vr)!r}")
    return "\n".join(lines) + "\n"


def loadtxt_via_float(loadtxt):
    """``loadtxt`` as numpy 1.x reads an int64 field that is no int64 text: as a float
    cast to int64, with a ``DeprecationWarning`` that is a ``ValueError`` if made an error."""
    def read(rows, dtype, **kwargs):
        cast = []
        for row in rows:
            mjd, comma, rest = row.partition(",")
            try:
                fits = -(2**63) <= int(mjd) < 2**63
            except ValueError:
                fits = False
            if not fits:
                value = float(mjd)  # a ValueError for a non-number, as numpy gives
                try:
                    warnings.warn(
                        "Parsing an integer via a float is deprecated.", DeprecationWarning
                    )
                except DeprecationWarning as err:
                    raise ValueError(f"could not convert string {mjd!r} to int64") from err
                mjd = str(int(value) if -(2.0**63) <= value < 2.0**63 else -(2**63))
            cast.append(mjd + comma + rest)
        return loadtxt(cast, dtype, **kwargs)
    return read


def bind_groups(namespace, table, make_test):
    """Bind ``make_test(group)`` for each group of ``table`` keyed by the id of a test in the
    file whose module globals are ``namespace``: ``<file>::[<class>::]<name>``.  A test bound
    in a class is a static method, so one test body serves a module and a class."""
    here = Path(namespace["__file__"]).name
    for key, group in table.items():
        file, *owner, name = key.split("::")
        if file == here:
            test = make_test(group)
            if owner:
                setattr(namespace[owner[0]], name, staticmethod(test))
            else:
                namespace[name] = test
