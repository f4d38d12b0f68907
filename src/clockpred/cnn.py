"""A small 1D convolutional network with hand-derived backpropagation.

Three convolutional layers (kernel lengths 4, 3, 3), each length-preserving
through symmetric zero padding and followed by a ReLU, feed an affine head
that maps the final feature vector to one scalar.  With the default single
channel the network has exactly 19 parameters.  Channel counts above one
widen the hidden layers (1 -> C -> C -> C) and the head to C * width inputs.

Gradients are exact analytic derivatives; the ReLU subgradient at zero is
taken to be zero.  Parameters and gradients share one flat vector order:
per layer the kernel then the bias, then the head weights and the head
bias, as ``ParamViews.arrays`` alone states it.  ``CnnModel.param_views``
shapes such a vector like the model, and ``to_vector`` flattens it back.

There are two forward paths.  ``forward`` evaluates one window with one
``np.correlate`` per pair of channels, bias first; the compare report is
computed with it, so its rounding is part of that report.  The batched path
(``forward_cached``, ``backward_cached`` and their ``_batch`` wrappers) is
channel-major: one row per channel, columns ordered by window, then
position, so the first m windows of a pass lead each of its arrays.  Each
layer gathers and caches its tap columns, (k, in_ch, n * width) in (tap,
channel) order, and contracts them with its kernel.  Its input gradient is
a convolution too: the same gather of the pre-activation gradient, each
shift negated, contracted with the kernel's channel axes swapped.  With
more than one channel, each of a layer's three contractions
(pre-activation, kernel gradient, input gradient) is one GEMM.  With one,
each tap's exact product is added in tap order to the bias (or to zero)
and the kernel gradient sums each contiguous row pairwise, so the path
rounds as an elementwise loop does; a GEMM's sums may round differently,
by BLAS kernel and by batch size.  The two paths can differ in the last
bit.  A fresh forward pass allocates its caches and a scratch buffer as
one block, and a later pass over a batch of the same shape can write into
that block, so a ``train`` call allocates it once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .series import _check_as_written, _freeze, _json_text, _numbers_only, _read_json, _whole

KERNEL_SIZES = (4, 3, 3)
DEFAULT_INPUT_WIDTH = 5
DEFAULT_CHANNELS = 1


@dataclass(frozen=True)
class ConvLayer:
    """One convolutional layer: kernel of shape (out_ch, in_ch, k), bias per out channel."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        kernel = np.array(self.kernel, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
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
        if not (np.isfinite(kernel).all() and np.isfinite(bias).all()):
            raise ValueError("layer parameters must be finite")
        _freeze(self, kernel=kernel, bias=bias)


@dataclass(frozen=True)
class CnnModel:
    """The full network: three conv layers plus the affine output head."""

    layers: tuple[ConvLayer, ...]
    head_weights: np.ndarray
    head_bias: float

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) != len(KERNEL_SIZES):
            raise ValueError(f"model needs exactly {len(KERNEL_SIZES)} conv layers")
        channels = layers[0].kernel.shape[0]
        if channels < 1:
            raise ValueError("channels must be positive")
        in_ch = 1
        for i, (layer, k) in enumerate(zip(layers, KERNEL_SIZES)):
            if layer.kernel.shape[2] != k:
                raise ValueError(
                    f"layers[{i}]: kernel length {layer.kernel.shape[2]} "
                    f"at a position requiring {k}"
                )
            if layer.kernel.shape[:2] != (channels, in_ch):
                raise ValueError(
                    f"layers[{i}]: channel shape {layer.kernel.shape[:2]} does not match "
                    f"({channels}, {in_ch})"
                )
            in_ch = channels
        head = np.array(self.head_weights, dtype=np.float64)
        if head.shape != (channels * DEFAULT_INPUT_WIDTH,):
            raise ValueError(
                f"head expects {channels * DEFAULT_INPUT_WIDTH} weights, got shape {head.shape}"
            )
        bias = float(self.head_bias)
        if not (np.isfinite(head).all() and math.isfinite(bias)):
            raise ValueError("head parameters must be finite")
        _freeze(self, layers=layers, head_weights=head, head_bias=bias)

    @property
    def channels(self) -> int:
        """Output channels of every conv layer, read from the first kernel's shape."""
        return self.layers[0].kernel.shape[0]

    @functools.cached_property
    def params(self) -> "ParamViews":
        """This model's own arrays, read-only, shaped as :meth:`param_views` shapes a vector."""
        kernels, biases = zip(*[(layer.kernel, layer.bias) for layer in self.layers])
        head_bias = np.frombuffer(np.float64(self.head_bias).tobytes())  # read-only
        return ParamViews(kernels, biases, self.head_weights, head_bias)

    @functools.cached_property
    def forward_plan(self) -> tuple[tuple[tuple[float, tuple[np.ndarray, ...]], ...], ...]:
        """What :func:`forward` reads: per layer, per output channel, the bias as a
        float and the kernel's rows, one contiguous read-only array per input channel."""
        return tuple([tuple(zip(layer.bias.tolist(), map(tuple, layer.kernel)))
                      for layer in self.layers])

    @functools.cached_property
    def num_params(self) -> int:
        return sum([a.size for a in self.params.arrays()])

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters in vector order (see :class:`ParamViews`)."""
        return self.params.to_vector()

    def param_views(self, vec: np.ndarray) -> "ParamViews":
        """Views of a flat float64 parameter vector, shaped like this model's parameters.

        Writing through a view writes into ``vec``, and the views follow
        every later in-place change of ``vec``.
        """
        if vec.dtype != np.float64 or vec.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {vec.shape}")
        if not vec.flags.c_contiguous:
            raise ValueError("parameter views need a contiguous vector")
        return ParamViews.from_arrays(_carve(vec, [a.shape for a in self.params.arrays()]))

    def from_vector(self, vec: np.ndarray) -> "CnnModel":
        """Rebuild a model of this shape from a flat parameter vector."""
        p = self.param_views(np.ascontiguousarray(vec, dtype=np.float64))
        return CnnModel(tuple(map(ConvLayer, p.kernels, p.biases)), p.head_weights, p.head_bias[0])

    def weight_mask(self) -> np.ndarray:
        """1.0 for kernel and head weights, 0.0 for biases, in vector order."""
        flags = ParamViews((1.0,) * len(self.layers), (0.0,) * len(self.layers), 1.0, 0.0)
        return np.repeat(flags.arrays(), [a.size for a in self.params.arrays()])


def _carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat array ``flat``, one per shape, from its start."""
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    return [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


class ParamViews(NamedTuple):
    """Parameter (or gradient) arrays in network order; ``head_bias`` has shape (1,)."""

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    head_weights: np.ndarray
    head_bias: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        """The arrays in vector order: per layer the kernel then the bias, then the head."""
        return [*sum(zip(self.kernels, self.biases), ()), self.head_weights, self.head_bias]

    @classmethod
    def from_arrays(cls, arrays) -> "ParamViews":
        """The inverse of :meth:`arrays`: the views whose arrays are ``arrays``."""
        return cls(tuple(arrays[0:-2:2]), tuple(arrays[1:-2:2]), arrays[-2], arrays[-1])

    def to_vector(self) -> np.ndarray:
        """A new flat vector of :meth:`arrays`."""
        return np.concatenate(self.arrays(), axis=None)


def _check_batch(windows) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != DEFAULT_INPUT_WIDTH:
        raise ValueError(
            f"batch of shape {windows.shape} does not match input width {DEFAULT_INPUT_WIDTH}"
        )
    return windows


def _check_window(window) -> np.ndarray:
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (DEFAULT_INPUT_WIDTH,):
        raise ValueError(
            f"window of shape {x.shape} does not match input width {DEFAULT_INPUT_WIDTH}"
        )
    return x


# (left pad, length) of each layer's input channels, zero-padded for its kernel
# with the extra cell of an even kernel on the left, then of the head's.
_PADDED = [(k // 2, DEFAULT_INPUT_WIDTH + k - 1) for k in KERNEL_SIZES]
_PADDED.append((0, DEFAULT_INPUT_WIDTH))


def forward(model: CnnModel, window) -> float:
    """Scalar network output for one input window.

    Each output channel is its bias plus one ``np.correlate`` per input
    channel, added in channel order, so it may differ from ``forward_batch``
    in the last bit; the compare report is pinned to it.  A layer writes its
    rectified outputs straight into the next layer's zero-padded inputs.
    """
    (left, size), *outputs = _PADDED
    act = [np.zeros(size)]
    act[0][left : left + DEFAULT_INPUT_WIDTH] = _check_window(window)
    for rows, (left, size) in zip(model.forward_plan, outputs):
        padded, act = act, []
        for bias, kernel in rows:
            acc = bias + np.correlate(padded[0], kernel[0])
            for x, row in zip(padded[1:], kernel[1:]):
                acc += np.correlate(x, row)
            act.append(np.zeros(size))
            np.maximum(acc, 0.0, out=act[-1][left : left + DEFAULT_INPUT_WIDTH])
    return float(model.head_weights @ np.concatenate(act) + model.head_bias)


def backward(model: CnnModel, window, upstream: float = 1.0) -> ParamViews:
    """Exact gradient of the network output w.r.t. every parameter, scaled by ``upstream``.

    A batch of one through ``backward_batch``, so no prior call is needed.
    The gradient comes shaped like the parameters, as views of one flat
    vector.
    """
    x = _check_window(window)
    return model.param_views(backward_batch(model, x.reshape(1, -1), [float(upstream)]))


@dataclass(frozen=True)
class BatchForward:
    """A batched forward pass: outputs plus the caches ``backward_cached`` reads.

    Per layer, ``cols`` holds the tap columns, shape (k, in_ch, n * width):
    ``cols[m, c, w * width + j]`` is channel c of window w at position
    j + m - k // 2, zero in the padding; ``pre`` is the pre-activation,
    (out_ch, n * width).  ``features`` is the head's input, (n, C * width).
    ``scratch`` is the flat buffer that ``backward_cached`` gathers a layer's
    pre-activation gradient into, k * out_ch * n * width floats, the most of
    any layer after the first (the layers that take an input gradient).
    A plain record: the first r windows are a leading slice of each array.
    """

    cols: tuple[np.ndarray, ...]
    pre: tuple[np.ndarray, ...]
    features: np.ndarray
    outputs: np.ndarray
    scratch: np.ndarray


@functools.cache
def _taps(k: int, width: int, sign: int) -> tuple[tuple[slice, slice, slice], ...]:
    """Per tap m, shift s = sign * (m - k // 2): columns dst, their inputs dst + s,
    padded positions."""
    return tuple(
        (slice(max(0, -s), -max(0, s) or None), slice(max(0, s), min(0, s) or None),
         slice(width - s, None) if s > 0 else slice(0, -s))
        for s in (sign * (m - k // 2) for m in range(k))
    )


def _gather(rows: np.ndarray, cols: np.ndarray, width: int, sign: int) -> None:
    """Write into ``cols`` (k, len(rows), n * width) each tap m's copy of ``rows``,
    shifted in each window by ``sign`` * (m - k // 2) and zero-padded.  For an
    even k, negated shifts are not the taps reversed."""
    for col, (dst, src, pad) in zip(cols, _taps(len(cols), width, sign)):
        col[:, dst] = rows[:, src]
        col.reshape(len(rows), -1, width)[:, :, pad] = 0.0


def _contract(taps: np.ndarray, cols: np.ndarray, start, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` ``start`` plus the sum over taps m and channels c of
    ``taps[m, :, c, None] * cols[m, c]``; return it.

    With more than one row or channel in ``taps`` (k, len(out), channels) this
    is one GEMM over the (tap, channel) rows of ``cols``, then ``start`` added.
    With one of each, ``out`` starts at ``start`` and each tap's exact product
    is added in tap order, so it rounds as an elementwise loop does.
    """
    k, rows, channels = taps.shape
    if rows > 1 or channels > 1:
        matrix = taps.transpose(1, 0, 2).reshape(rows, k * channels)
        np.matmul(matrix, cols.reshape(k * channels, -1), out=out)
        out += start
    else:
        out[:] = start
        for term in np.multiply(taps, cols):
            out += term
    return out


def forward_cached(
    params: ParamViews, windows: np.ndarray, out: BatchForward | None = None
) -> BatchForward:
    """Forward over a (n, width) float64 batch, keeping the backward caches.

    A fresh pass allocates every layer's tap columns and pre-activation, and
    the scratch buffer, as one block; each is a contiguous view of it.  At 8
    channels and 164 windows the block is about 0.65 MB, an mmapped chunk.
    Freeing it raises glibc's mmap and trim thresholds, so the heap is not
    trimmed between ``train`` calls and the next call's pass and temporaries
    reuse pages already mapped.  As separate arrays, each call's pass made
    malloc trim the heap and fault its pages back in on the next call.

    With ``out``, an earlier pass over a batch of the same shape, the tap
    columns and pre-activations are written into ``out``'s arrays instead of
    new ones (the result is the same bit for bit); ``out`` then holds this
    pass's caches.
    """
    n, width = windows.shape
    if out is not None and out.features.shape != (n, params.head_weights.size):
        raise ValueError(
            f"a pass with features of shape {(n, params.head_weights.size)} cannot "
            f"reuse the buffers of one with {out.features.shape}"
        )
    if out is None:
        shapes = [s for out_ch, in_ch, k in map(np.shape, params.kernels)
                  for s in ((k, in_ch, n * width), (out_ch, n * width))]
        size = max(k * out_ch * n * width for out_ch, _, k in map(np.shape, params.kernels[1:]))
        *arrays, scratch = _carve(np.empty(sum(map(math.prod, shapes)) + size), [*shapes, (size,)])
        all_cols, all_pre = arrays[0::2], arrays[1::2]
    else:
        all_cols, all_pre, scratch = out.cols, out.pre, out.scratch
    act = windows.reshape(1, n * width)
    for kernel, bias, cols, pre in zip(params.kernels, params.biases, all_cols, all_pre):
        _gather(act, cols, width, 1)
        act = np.maximum(_contract(kernel.transpose(2, 0, 1), cols, bias[:, None], pre), 0.0)
    features = act.reshape(len(act), n, width).transpose(1, 0, 2).reshape(n, len(act) * width)
    outputs = features @ params.head_weights + params.head_bias
    return BatchForward(tuple(all_cols), tuple(all_pre), features, outputs, scratch)


def backward_cached(
    params: ParamViews, fwd: BatchForward, upstreams: np.ndarray, grads: ParamViews
) -> None:
    """Write into ``grads`` the sum of per-window gradients scaled by ``upstreams``.

    ``fwd`` must be a forward pass of ``params`` over at least n = ``upstreams.size``
    windows; the sum runs over its first n, whose caches it reads, not recomputes.
    A layer with more than one input or output channel forms its kernel
    gradient as one GEMM, tap columns (k * in_ch, n * width) times the
    transposed pre-activation gradient; a one-channel layer sums each tap's
    products pairwise, bit for bit as the elementwise loops do.  The input
    gradient is formed as ``forward_cached`` forms a pre-activation: the
    pre-activation gradient's taps are gathered into ``fwd.scratch``, each
    shift negated, and contracted with the kernel's channel axes swapped.
    """
    n = upstreams.size
    head = params.head_weights.reshape(len(fwd.pre[-1]), 1, -1)
    width = head.shape[2]
    grads.head_weights[:] = fwd.features[:n].T @ upstreams
    grads.head_bias[:] = upstreams.sum()
    d_act = (head * upstreams[:, None]).reshape(len(head), n * width)
    for i in reversed(range(len(params.kernels))):
        kernel = params.kernels[i]
        cols, pre = fwd.cols[i][:, :, : n * width], fwd.pre[i][:, : n * width]
        out_ch, in_ch, k = kernel.shape
        d_pre = d_act * (pre > 0.0)
        # Each bias sums its n * width terms pairwise in one contiguous
        # window-major row, as the elementwise loops do.  So does the kernel
        # at C=1 (bit for bit); wider layers contract the tap columns in one GEMM.
        grads.biases[i][:] = d_pre.sum(axis=1)
        if out_ch > 1 or in_ch > 1:
            taps_by_ch = cols.reshape(k * in_ch, -1) @ d_pre.T
            grads.kernels[i][:] = taps_by_ch.reshape(k, in_ch, out_ch).transpose(2, 1, 0)
        else:
            (cols[:, 0] * d_pre).sum(axis=-1, out=grads.kernels[i][0, 0])
        if i:
            shifted = fwd.scratch[: k * out_ch * n * width].reshape(k, out_ch, n * width)
            _gather(d_pre, shifted, width, -1)
            d_act = np.empty((in_ch, n * width))
            _contract(kernel.transpose(2, 1, 0), shifted, 0.0, d_act)


def forward_batch(model: CnnModel, windows) -> np.ndarray:
    """Network outputs for a (n, width) batch of windows."""
    return forward_cached(model.params, _check_batch(windows)).outputs


def backward_batch(model: CnnModel, windows, upstreams) -> np.ndarray:
    """Sum of per-window gradients scaled by per-window upstreams, as a flat vector."""
    windows = _check_batch(windows)
    upstreams = np.asarray(upstreams, dtype=np.float64)
    if upstreams.shape != (windows.shape[0],):
        raise ValueError("one upstream scalar per window is required")
    params = model.params
    grad = np.empty(model.num_params)
    backward_cached(params, forward_cached(params, windows), upstreams, model.param_views(grad))
    return grad


def init_weights(seed: int, channels: int = DEFAULT_CHANNELS) -> CnnModel:
    """Deterministic initial model for a seed.

    Kernel and head weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
    biases start at zero.
    """
    rng = np.random.default_rng(_whole("seed", seed, 0))
    channels = _whole("channels", channels, 1)
    layers = []
    in_ch = 1
    for k in KERNEL_SIZES:
        bound = 1.0 / math.sqrt(in_ch * k)
        kernel = rng.uniform(-bound, bound, size=(channels, in_ch, k))
        layers.append(ConvLayer(kernel, np.zeros(channels)))
        in_ch = channels
    fan_in = channels * DEFAULT_INPUT_WIDTH
    bound = 1.0 / math.sqrt(fan_in)
    head = rng.uniform(-bound, bound, size=fan_in)
    return CnnModel(tuple(layers), head, 0.0)


def model_to_json(model: CnnModel) -> str:
    """Serialize at full decimal precision; :func:`load_model` restores it exactly."""
    payload = {
        "config": {"channels": model.channels, "width": DEFAULT_INPUT_WIDTH},
        "layers": [
            {"kernel": layer.kernel.tolist(), "bias": layer.bias.tolist()}
            for layer in model.layers
        ],
        "head": {"weights": model.head_weights.tolist(), "bias": model.head_bias},
    }
    return _json_text(payload)


def _model_from_doc(doc) -> CnnModel:
    """The model of a document written from :func:`model_to_json`.

    Its values must be JSON numbers, so a boolean or a string is refused.  Its
    ``config`` must be exactly what :func:`model_to_json` writes for its kernels:
    their channel count and ``DEFAULT_INPUT_WIDTH``.  A refusal names the key.
    """
    _numbers_only(doc)
    config = doc["config"]
    layers = []
    for i, item in enumerate(doc["layers"]):
        try:
            layers.append(ConvLayer(item["kernel"], item["bias"]))
        except ValueError as err:
            raise ValueError(f"layers[{i}]: {err}") from None
    model = CnnModel(tuple(layers), doc["head"]["weights"], doc["head"]["bias"])
    written = {"channels": model.channels, "width": DEFAULT_INPUT_WIDTH}
    _check_as_written(config, written, "the config of its kernels")
    return model


def load_model(path) -> CnnModel:
    """Read the model document at ``path`` with :func:`_model_from_doc`.

    Raises
    ------
    ValueError
        When the document is not valid JSON, not a model, or a model
        :func:`_model_from_doc` rejects; the message names the path.
    """
    return _read_json(path, _model_from_doc)
