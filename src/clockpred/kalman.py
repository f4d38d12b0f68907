"""Two-state Kalman filter baseline for one-step-ahead clock prediction.

The state is (phase in ns, frequency in ns/day); the quadratic drift has
already been removed upstream, so no drift state is carried.  Process noise
follows the standard two-state clock model driven by white-FM and
random-walk-FM spectral densities q1 and q2: over a step of tau days

    Q(tau) = [[q1*tau + q2*tau**3/3,  q2*tau**2/2],
              [q2*tau**2/2,           q2*tau     ]]

Only the phase is observed (H = [1, 0]) with measurement variance R.

The window filter is split in two.  ``kf_gains`` runs the covariance
recursion, which depends on the parameters, the interval and the window
width but not on the data, and returns one gain per sample.  It holds the
square-root factor as three floats; only F S (BLAS) and the QR (LAPACK)
go through numpy, F S because its FMA kernels round their own way.
The state recursion is written once, for samples that are either the
columns of a window matrix (``kf_one_ahead_batch``, elementwise numpy) or
one window's Python floats (``kf_one_ahead``).  Both round each ``+``,
``-``, ``*`` and ``/`` the same way, so a window's prediction has the same
bits on either path; only the batch warns when a window overflows.
The plain single-step covariance recursion that the tests check this
filter against lives with the tests, in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import _whole


@dataclass(frozen=True)
class KalmanParams:
    """Noise configuration: spectral densities q1 (white FM), q2 (random-walk FM),
    measurement variance r, and the diffuse initial variance p0.

    The defaults are frozen from a coarse grid search on the bundled
    synthetic experiment's validation partition (see
    notebooks/05_kalman_calibration.py).  Units are normalized-residual
    units squared (and per day for the densities).
    """

    q1: float = 0.1
    q2: float = 1e-4
    r: float = 1e-6
    p0: float = 1e6

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q1, self.q2, self.r, self.p0))):
            raise ValueError("Kalman parameters must be finite")
        if self.q1 < 0.0 or self.q2 < 0.0 or self.r < 0.0:
            raise ValueError("noise parameters must be nonnegative")
        if self.p0 <= 0.0:
            raise ValueError("initial variance must be positive")


def kf_gains(width: int, interval: float, params: KalmanParams = KalmanParams()) -> np.ndarray:
    """Measurement-update gains of the window filter, shape (width, 2).

    Row k is the (phase, frequency) gain applied to the k-th innovation.
    The gains depend on the noise parameters, the interval and the width,
    never on the data.  The covariance is propagated in square-root form
    (Potter update, QR prediction; Bierman 1977): with a diffuse start the
    plain recursion grinds the post-collapse variances against 12+ decades
    of dynamic range, which costs around half the mantissa.  S = [[a, 0],
    [b, c]] is three floats: H S = (a, 0), so the matrix form's sums add
    only exact zeros and floats give its bits.  F S stays in BLAS, whose FMA
    kernels round ``a + tau * b`` their own way; the QR is LAPACK's, raw mode.

    Raises
    ------
    ValueError
        If the width is not an integer of at least two, the interval is not
        positive and finite, or an innovation variance is not positive, which
        can only happen with R = 0 and a degenerate phase variance, or not
        finite, which a noise density, p0 or interval near overflow causes.
    """
    width = _whole("window width", width, 2)
    tau = float(interval)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"interval must be positive and finite, got {interval}")
    a, b, c = math.sqrt(params.p0), 0.0, math.sqrt(params.p0)
    transition = np.array([[1.0, tau], [0.0, 1.0]])
    # [F S | Q^(1/2)], re-triangularized by QR at each prediction.
    stacked = np.empty((2, 5))
    s2, st = math.sqrt(params.q2), math.sqrt(tau)  # Q^(1/2) from Q's exact Cholesky pieces
    stacked[:, 2:] = [
        [math.sqrt(params.q1 * tau), s2 * tau * st / math.sqrt(3.0), 0.0],
        [0.0, s2 * st * math.sqrt(3.0) / 2.0, s2 * st / 2.0],
    ]
    gains = np.empty((width, 2))
    for k in range(width):
        if k:
            stacked[:, :2] = transition @ np.array([[a, 0.0], [b, c]])
            # Raw mode returns LAPACK's array transposed: its lower triangle is S = R'.
            (a, _), (b, c) = np.linalg.qr(stacked.T, mode="raw")[0][:, :2].tolist()
        # Potter measurement update on the factor (H = [1, 0]); S H' = (aa, ba).
        aa, ba = a * a, b * a
        innovation_var = aa + params.r
        if not 0.0 < innovation_var < math.inf:
            fault = "positive" if innovation_var <= 0.0 else "finite"
            raise ValueError(
                f"degenerate update: innovation variance {innovation_var} is not {fault}"
            )
        gains[k] = aa / innovation_var, ba / innovation_var
        shrink = 1.0 / (innovation_var + math.sqrt(innovation_var * params.r))
        a, b = a - shrink * (aa * a), b - shrink * (ba * a)
    return gains


def _one_ahead(samples, interval: float, params: KalmanParams):
    """Filter ``samples``, a window's values in time order, and extrapolate one interval ahead.

    Each sample is a column of a window matrix or one window's Python float;
    every step rebinds ``phase`` and ``freq`` rather than updating in place,
    so the same lines filter all rows at once or one window on floats.
    """
    tau = float(interval)
    gains = kf_gains(len(samples), tau, params).tolist()
    phase = samples[0]
    freq = (samples[1] - samples[0]) / tau
    for z, (g_phase, g_freq) in zip(samples, gains):
        innovation = z - phase
        phase = phase + g_phase * innovation
        freq = freq + g_freq * innovation
        phase = phase + tau * freq
    return phase


def kf_one_ahead_batch(
    windows, interval: float, params: KalmanParams = KalmanParams()
) -> np.ndarray:
    """Filter each row of an (n, width) window matrix and extrapolate one interval ahead.

    The state mean starts from the first two points (phase = w[0],
    frequency = (w[1] - w[0]) / tau) under a diffuse covariance, so the
    crude start carries almost no weight once the measurements are folded
    in.  The gains come from one :func:`kf_gains` call; then every step
    updates all rows at once with elementwise arithmetic, so each row is
    computed independently of the others.  The prediction is written out
    as ``phase + tau * freq`` rather than as a matrix product, whose BLAS
    summation could round differently.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"windows must form an (n, width) matrix, got shape {w.shape}")
    return _one_ahead(w.T, interval, params)


def kf_one_ahead(window, interval: float, params: KalmanParams = KalmanParams()) -> float:
    """Filter one window of phase samples and extrapolate one interval ahead.

    The recursion of :func:`kf_one_ahead_batch` on the window's Python
    floats: the same bits as that window's row of a batch, without numpy's
    per-call cost on one-element arrays; a window that overflows gives a
    non-finite prediction without numpy's warning.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"window must be one-dimensional, got shape {w.shape}")
    return _one_ahead(w.tolist(), interval, params)
