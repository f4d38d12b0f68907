"""Surrogate [UTC - maser] series for experiments without access to real data.

A generated series is a deterministic quadratic (initial phase, frequency
offset, linear frequency drift) plus the two dominant hydrogen-maser noise
terms at multi-day averaging: white frequency noise, whose phase is a
single running sum of Gaussian increments, and random-walk frequency noise,
whose phase is the doubly-summed increment stream.  Flicker noise is not
modeled.  Generation is bit-reproducible for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import DEFAULT_INTERVAL_DAYS, TimeSeries, _brief, _freeze, _whole

DEFAULT_START_EPOCH = 56934
DEFAULT_SEED = 56934


@dataclass(frozen=True)
class SyntheticClockSpec:
    """Deterministic-plus-noise model of a free-running maser offset series.

    ``x0`` (ns), ``y0`` (ns/day) and ``drift`` (ns/day^2) set the quadratic;
    ``sigma_wfm`` (ns per sqrt(day)) and ``sigma_rwfm`` (ns/day per
    sqrt(day)) are the noise diffusion amplitudes.
    """

    x0: float = 50.0
    y0: float = 10.0
    drift: float = 0.005
    sigma_wfm: float = 1.0
    sigma_rwfm: float = 0.08
    n: int = 274
    interval: int = DEFAULT_INTERVAL_DAYS
    seed: int = DEFAULT_SEED
    start_epoch: int = DEFAULT_START_EPOCH

    def __post_init__(self):
        for name, least in (("n", 7), ("interval", 1), ("seed", 0), ("start_epoch", -(2**63))):
            _freeze(self, **{name: _whole(name, getattr(self, name), least)})
        first, last = self.start_epoch, self.start_epoch + (self.n - 1) * self.interval
        if last >= 2**63:
            raise ValueError(f"epochs {_brief.repr(first)} to {_brief.repr(last)} overflow int64")
        if self.sigma_wfm < 0.0 or self.sigma_rwfm < 0.0:
            raise ValueError("noise amplitudes must be nonnegative")
        for name in ("x0", "y0", "drift", "sigma_wfm", "sigma_rwfm"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"spec field {name} must be finite")


def generate(spec: SyntheticClockSpec) -> TimeSeries:
    """Draw one series from the spec; the same spec always yields the same series.

    Both unit-variance increment streams are always drawn, so changing one
    amplitude (even to zero) never shifts the other component's realization.
    """
    rng = np.random.default_rng(spec.seed)
    tau = float(spec.interval)
    t = np.arange(spec.n) * tau
    deterministic = spec.x0 + spec.y0 * t + 0.5 * spec.drift * t**2
    wfm_steps = rng.standard_normal(spec.n)
    rwfm_steps = rng.standard_normal(spec.n)
    phase_wfm = spec.sigma_wfm * math.sqrt(tau) * np.cumsum(wfm_steps)
    freq_walk = spec.sigma_rwfm * math.sqrt(tau) * np.cumsum(rwfm_steps)
    phase_rwfm = tau * np.cumsum(freq_walk)
    values = deterministic + phase_wfm + phase_rwfm
    epochs = spec.start_epoch + np.arange(spec.n) * spec.interval
    return TimeSeries(epochs, values, spec.interval)


def default_maser_spec() -> SyntheticClockSpec:
    """The frozen spec behind the bundled experiments: 274 points at 5-day spacing,
    with noise amplitudes sized so the detrended residual spans on the order of
    a hundred nanoseconds."""
    return SyntheticClockSpec()
