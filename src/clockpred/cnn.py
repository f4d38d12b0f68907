"""A small 1D convolutional network with hand-derived backpropagation.

Three convolutional layers (kernel lengths 4, 3, 3), each length-preserving
through symmetric zero padding and followed by a ReLU, feed an affine head
that maps the final feature vector to one scalar.  With the default single
channel the network has exactly 19 parameters.  Channel counts above one
widen the hidden layers (1 -> C -> C -> C) and the head to C * width inputs.

Gradients are exact analytic derivatives; the ReLU subgradient at zero is
taken to be zero.

There are two forward paths.  ``forward`` and ``conv1d_forward`` evaluate
one window with ``np.correlate``; the compare report is computed with
them, so their rounding is part of that report.  The batched path
(``forward_cached``, ``backward_cached`` and the ``forward_batch`` /
``backward_batch`` wrappers) loops over kernel taps only: for tap m one
``np.matmul`` contracts the input-channel axis of the whole batch.  Each
pre-activation is the bias plus the taps in order, so with one channel
every term is a single exact product and the batched sums round exactly as
an elementwise loop would.  With more channels the channel sum inside the
matmul may round differently.  The two paths can differ in the last bit.
Training reads the batched path only: one ``forward_cached`` keeps the
padded inputs and pre-activations that ``backward_cached`` then reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

KERNEL_SIZES = (4, 3, 3)
DEFAULT_INPUT_WIDTH = 5


def relu(v):
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


@dataclass(frozen=True)
class ConvLayer:
    """One convolutional layer: kernel of shape (out_ch, in_ch, k), bias per out channel."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if kernel.ndim == 1:
            kernel = kernel.reshape(1, 1, -1)
        if bias.ndim == 0:
            bias = bias.reshape(1)
        if kernel.ndim != 3:
            raise ValueError("kernel must have shape (out_channels, in_channels, k)")
        if bias.shape != (kernel.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match {kernel.shape[0]} output channels"
            )
        if not (np.all(np.isfinite(kernel)) and np.all(np.isfinite(bias))):
            raise ValueError("layer parameters must be finite")
        kernel.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "bias", bias)

    @property
    def width(self) -> int:
        return self.kernel.shape[2]


def conv1d_forward(x, layer: ConvLayer):
    """Length-preserving cross-correlation with symmetric zero padding.

    ``out[o, j] = bias[o] + sum_{c, m} kernel[o, c, m] * padded(x)[c, j + m]``.
    A 1D input is treated as a single channel; the output is squeezed back
    to 1D when the layer has one output channel.
    """
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] != layer.kernel.shape[1]:
        raise ValueError(
            f"input with {arr.shape[0] if arr.ndim == 2 else '?'} channels does not "
            f"match layer expecting {layer.kernel.shape[1]}"
        )
    if arr.shape[1] < 1:
        raise ValueError("input must contain at least one sample")
    out = _correlate(arr, layer)
    if squeeze and out.shape[0] == 1:
        return out[0]
    return out


def _zero_padded(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` with ``k - 1`` zero cells added on its last axis, ``k // 2`` of them
    on the left: even kernels put the extra cell on the left."""
    width = x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (width + k - 1,))
    padded[..., k // 2 : k // 2 + width] = x
    return padded


def _correlate(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    out_ch, in_ch, k = layer.kernel.shape
    padded = _zero_padded(x, k)
    out = np.empty((out_ch, x.shape[1]))
    for o in range(out_ch):
        acc = np.full(x.shape[1], layer.bias[o])
        for c in range(in_ch):
            acc = acc + np.correlate(padded[c], layer.kernel[o, c], "valid")
        out[o] = acc
    return out


@dataclass(frozen=True)
class CnnModel:
    """The full network: three conv layers plus the affine output head."""

    layers: tuple[ConvLayer, ...]
    head_weights: np.ndarray
    head_bias: float
    channels: int = 1
    input_width: int = DEFAULT_INPUT_WIDTH

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) != len(KERNEL_SIZES):
            raise ValueError(f"model needs exactly {len(KERNEL_SIZES)} conv layers")
        channels = int(self.channels)
        width = int(self.input_width)
        if channels < 1 or width < 1:
            raise ValueError("channels and input_width must be positive")
        in_ch = 1
        for layer, k in zip(layers, KERNEL_SIZES):
            if layer.width != k:
                raise ValueError(
                    f"kernel length {layer.width} at a position requiring {k}"
                )
            if layer.kernel.shape[:2] != (channels, in_ch):
                raise ValueError(
                    f"layer channel shape {layer.kernel.shape[:2]} does not match "
                    f"({channels}, {in_ch})"
                )
            in_ch = channels
        head = np.asarray(self.head_weights, dtype=np.float64)
        if head.shape != (channels * width,):
            raise ValueError(
                f"head expects {channels * width} weights, got shape {head.shape}"
            )
        bias = float(self.head_bias)
        if not (np.all(np.isfinite(head)) and math.isfinite(bias)):
            raise ValueError("head parameters must be finite")
        head.flags.writeable = False
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "head_weights", head)
        object.__setattr__(self, "head_bias", bias)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "input_width", width)

    @property
    def num_params(self) -> int:
        count = self.head_weights.size + 1
        for layer in self.layers:
            count += layer.kernel.size + layer.bias.size
        return count

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters: per-layer kernel then bias, head weights, head bias."""
        parts = []
        for layer in self.layers:
            parts.append(layer.kernel.ravel())
            parts.append(layer.bias)
        parts.append(self.head_weights)
        parts.append(np.array([self.head_bias]))
        return np.concatenate(parts)

    def param_views(self, vec: np.ndarray) -> "ParamViews":
        """Views of a flat float64 parameter vector, shaped like this model's parameters.

        Writing through a view writes into ``vec``, and the views follow
        every later in-place change of ``vec``.
        """
        if vec.dtype != np.float64 or vec.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {vec.shape}")
        if not vec.flags.c_contiguous:
            raise ValueError("parameter views need a contiguous vector")
        pos = 0

        def take(shape: tuple[int, ...]) -> np.ndarray:
            nonlocal pos
            size = math.prod(shape)
            view = vec[pos : pos + size].reshape(shape)
            pos += size
            return view

        kernels, biases = [], []
        for layer in self.layers:
            kernels.append(take(layer.kernel.shape))
            biases.append(take(layer.bias.shape))
        head = take(self.head_weights.shape)
        return ParamViews(tuple(kernels), tuple(biases), head, take((1,)))

    def from_vector(self, vec: np.ndarray) -> "CnnModel":
        """Rebuild a model of this shape from a flat parameter vector."""
        p = self.param_views(np.ascontiguousarray(vec, dtype=np.float64))
        layers = tuple(ConvLayer(k, b) for k, b in zip(p.kernels, p.biases))
        return CnnModel(
            layers, p.head_weights, float(p.head_bias[0]), self.channels, self.input_width
        )

    def weight_mask(self) -> np.ndarray:
        """1.0 for kernel and head weights, 0.0 for biases, in vector order."""
        parts = []
        for layer in self.layers:
            parts.append(np.ones(layer.kernel.size))
            parts.append(np.zeros(layer.bias.size))
        parts.append(np.ones(self.head_weights.size))
        parts.append(np.zeros(1))
        return np.concatenate(parts)


class ParamViews(NamedTuple):
    """Parameter arrays in network order; ``head_bias`` has shape (1,)."""

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    head_weights: np.ndarray
    head_bias: np.ndarray


@dataclass(frozen=True)
class GradientSet:
    """Gradients shaped exactly like the model parameters."""

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    head_weights: np.ndarray
    head_bias: float

    def to_vector(self) -> np.ndarray:
        parts = []
        for kernel, bias in zip(self.kernels, self.biases):
            parts.append(kernel.ravel())
            parts.append(bias)
        parts.append(self.head_weights)
        parts.append(np.array([self.head_bias]))
        return np.concatenate(parts)


def _check_batch(model: CnnModel, windows) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != model.input_width:
        raise ValueError(
            f"batch of shape {windows.shape} does not match input width {model.input_width}"
        )
    return windows


def _check_window(model: CnnModel, window) -> np.ndarray:
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (model.input_width,):
        raise ValueError(
            f"window of shape {x.shape} does not match input width {model.input_width}"
        )
    return x


def _params(model: CnnModel) -> ParamViews:
    return model.param_views(model.to_vector())


def forward(model: CnnModel, window) -> float:
    """Scalar network output for one input window.

    Evaluated with ``np.correlate``, bias first, so it may differ from
    ``forward_batch`` in the last bit; the compare report is pinned to it.
    """
    act = _check_window(model, window).reshape(1, -1)
    for layer in model.layers:
        act = np.maximum(_correlate(act, layer), 0.0)
    return float(model.head_weights @ act.ravel() + model.head_bias)


def backward(model: CnnModel, window, upstream: float = 1.0) -> GradientSet:
    """Exact gradient of the network output w.r.t. every parameter, scaled by ``upstream``.

    A batch of one through ``backward_batch``, so no prior call is needed.
    """
    x = _check_window(model, window)
    g = model.param_views(backward_batch(model, x.reshape(1, -1), [float(upstream)]))
    return GradientSet(g.kernels, g.biases, g.head_weights, float(g.head_bias[0]))


@dataclass(frozen=True)
class BatchForward:
    """A batched forward pass: outputs plus the caches ``backward_cached`` reads.

    Per layer, ``padded`` holds the zero-padded input, shape
    (n, in_ch, width + k - 1), and ``pre`` the pre-activation, shape
    (n, out_ch, width).
    """

    padded: tuple[np.ndarray, ...]
    pre: tuple[np.ndarray, ...]
    features: np.ndarray
    outputs: np.ndarray


def forward_cached(params: ParamViews, windows: np.ndarray) -> BatchForward:
    """Forward over a (n, width) float64 batch, keeping the backward caches."""
    n, width = windows.shape
    act = windows.reshape(n, 1, width)
    padded_all, pre_all = [], []
    for kernel, bias in zip(params.kernels, params.biases):
        padded = _zero_padded(act, kernel.shape[2])
        pre = np.empty((n, kernel.shape[0], width))
        pre[...] = bias[:, None]
        for m, tap in enumerate(kernel.transpose(2, 0, 1).copy()):
            pre += np.matmul(tap, padded[:, :, m : m + width])
        padded_all.append(padded)
        pre_all.append(pre)
        act = np.maximum(pre, 0.0)
    features = act.reshape(n, -1)
    outputs = features @ params.head_weights + params.head_bias
    return BatchForward(tuple(padded_all), tuple(pre_all), features, outputs)


def backward_cached(
    params: ParamViews, fwd: BatchForward, upstreams: np.ndarray, grads: ParamViews
) -> None:
    """Write into ``grads`` the sum of per-window gradients scaled by ``upstreams``.

    ``fwd`` must be the forward pass of ``params``; nothing is recomputed.
    """
    n = upstreams.size
    grads.head_weights[:] = fwd.features.T @ upstreams
    grads.head_bias[:] = upstreams.sum()
    d_act = (upstreams[:, None] * params.head_weights[None, :]).reshape(fwd.pre[-1].shape)
    for i in reversed(range(len(params.kernels))):
        kernel, padded, pre = params.kernels[i], fwd.padded[i], fwd.pre[i]
        out_ch, in_ch, k = kernel.shape
        width = pre.shape[2]
        d_pre = d_act * (pre > 0.0)
        # Both reductions add in the order the elementwise loops did, which
        # keeps the one-channel gradient bit for bit: the bias sums an
        # (n, out_ch, width) array, and each (out, in) kernel tap sums its
        # n * width products as one contiguous row, pairwise like np.sum.
        grads.biases[i][:] = d_pre.sum(axis=(0, 2))
        d_rows = d_pre.transpose(1, 0, 2).reshape(out_ch, 1, n * width)
        for m in range(k):
            x_rows = padded[:, :, m : m + width].transpose(1, 0, 2).reshape(1, in_ch, n * width)
            grads.kernels[i][:, :, m] = (d_rows * x_rows).sum(axis=-1)
        if i:
            d_padded = np.zeros_like(padded)
            for m, tap in enumerate(kernel.transpose(2, 1, 0).copy()):
                d_padded[:, :, m : m + width] += np.matmul(tap, d_pre)
            d_act = d_padded[:, :, k // 2 : k // 2 + width]


def forward_batch(model: CnnModel, windows) -> np.ndarray:
    """Network outputs for a (n, width) batch of windows."""
    return forward_cached(_params(model), _check_batch(model, windows)).outputs


def backward_batch(model: CnnModel, windows, upstreams) -> np.ndarray:
    """Sum of per-window gradients scaled by per-window upstreams, as a flat vector."""
    windows = _check_batch(model, windows)
    upstreams = np.asarray(upstreams, dtype=np.float64)
    if upstreams.shape != (windows.shape[0],):
        raise ValueError("one upstream scalar per window is required")
    params = _params(model)
    grad = np.empty(model.num_params)
    backward_cached(params, forward_cached(params, windows), upstreams, model.param_views(grad))
    return grad


def init_weights(
    seed: int, channels: int = 1, input_width: int = DEFAULT_INPUT_WIDTH
) -> CnnModel:
    """Deterministic initial model for a seed.

    Kernel and head weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
    biases start at zero.
    """
    rng = np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for k in KERNEL_SIZES:
        bound = 1.0 / math.sqrt(in_ch * k)
        kernel = rng.uniform(-bound, bound, size=(channels, in_ch, k))
        layers.append(ConvLayer(kernel, np.zeros(channels)))
        in_ch = channels
    fan_in = channels * input_width
    bound = 1.0 / math.sqrt(fan_in)
    head = rng.uniform(-bound, bound, size=fan_in)
    return CnnModel(tuple(layers), head, 0.0, channels, input_width)


def model_to_json(model: CnnModel) -> str:
    """Serialize at full decimal precision; ``model_from_json`` restores it exactly."""
    payload = {
        "config": {"channels": model.channels, "width": model.input_width},
        "layers": [
            {"kernel": layer.kernel.tolist(), "bias": layer.bias.tolist()}
            for layer in model.layers
        ],
        "head": {"weights": model.head_weights.tolist(), "bias": model.head_bias},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> CnnModel:
    payload = json.loads(text)
    try:
        config = payload["config"]
        layers = tuple(
            ConvLayer(np.array(item["kernel"]), np.array(item["bias"]))
            for item in payload["layers"]
        )
        head = payload["head"]
        return CnnModel(
            layers,
            np.array(head["weights"]),
            float(head["bias"]),
            int(config["channels"]),
            int(config["width"]),
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed model document: {err}") from None


def save_model(model: CnnModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> CnnModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
