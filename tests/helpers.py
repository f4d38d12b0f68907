"""Shared independent oracles and instance generators for the test suite.

Everything here recomputes results through a route different from the
library code it checks: naive loops, rational arithmetic, closed forms.
"""

import math
from fractions import Fraction

import numpy as np

from clockpred.cnn import forward, init_weights


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


def forward_oracle(model, window):
    """Layer-by-layer recomputation of the network output."""
    act = np.asarray(window, dtype=float).reshape(1, -1)
    for layer in model.layers:
        out_ch, in_ch, _ = layer.kernel.shape
        nxt = np.zeros((out_ch, act.shape[1]))
        for o in range(out_ch):
            total = np.zeros(act.shape[1])
            for c in range(in_ch):
                total += conv_oracle(act[c], layer.kernel[o, c], 0.0)
            nxt[o] = total + layer.bias[o]
        act = np.maximum(nxt, 0.0)
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
    act = np.asarray(window, dtype=float).reshape(1, -1)
    margin = np.inf
    for layer in model.layers:
        out_ch, in_ch, _ = layer.kernel.shape
        pre = np.zeros((out_ch, act.shape[1]))
        for o in range(out_ch):
            total = np.zeros(act.shape[1])
            for c in range(in_ch):
                total += conv_oracle(act[c], layer.kernel[o, c], 0.0)
            pre[o] = total + layer.bias[o]
        margin = min(margin, float(np.min(np.abs(pre))))
        act = np.maximum(pre, 0.0)
    return margin


def kink_free_instance(rng, channels=1):
    """Random (model, window) whose preactivations keep a safe distance from 0."""
    while True:
        model = init_weights(int(rng.integers(0, 2**32)), channels=channels)
        vec = model.to_vector()
        vec += rng.normal(0, 0.3, vec.size)
        model = model.from_vector(vec)
        window = rng.uniform(-1.0, 1.0, model.input_width)
        if preactivation_margin(model, window) > 1e-3:
            return model, window


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


def ols_line_extrapolation(window, interval):
    """Closed-form least-squares line through the window, one step ahead."""
    w = np.asarray(window, dtype=float)
    t = np.arange(w.size) * float(interval)
    t_bar = t.mean()
    y_bar = w.mean()
    slope = ((t - t_bar) @ (w - y_bar)) / ((t - t_bar) @ (t - t_bar))
    return float(y_bar + slope * (w.size * float(interval) - t_bar))
