"""Tests for the surrogate maser-series generator."""

import numpy as np
import numpy.testing as npt
import pytest

from clockpred.series import detrend, fit_quadratic
from clockpred.synthetic import SyntheticClockSpec, default_maser_spec, generate


class TestDeterminism:
    def test_same_seed_same_series(self):
        spec = SyntheticClockSpec(seed=7)
        a = generate(spec)
        b = generate(spec)
        npt.assert_array_equal(a.values, b.values)
        npt.assert_array_equal(a.epochs, b.epochs)

    def test_different_seeds_differ(self):
        a = generate(SyntheticClockSpec(seed=1))
        b = generate(SyntheticClockSpec(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_amplitude_change_keeps_other_component_stream(self):
        base = SyntheticClockSpec(sigma_wfm=0.0, sigma_rwfm=0.05, seed=11)
        with_wfm = SyntheticClockSpec(sigma_wfm=1.0, sigma_rwfm=0.05, seed=11)
        rw_only = generate(base).values
        both = generate(with_wfm).values
        # subtracting the deterministic+rwfm realization leaves pure wfm
        residual = both - rw_only
        assert np.std(np.diff(residual)) > 0.5


class TestNoiseFreeLimit:
    def test_exact_quadratic(self):
        spec = SyntheticClockSpec(
            x0=5.0, y0=-0.2, drift=0.02, sigma_wfm=0.0, sigma_rwfm=0.0, n=20
        )
        s = generate(spec)
        dt = (s.epochs - s.epochs[0]).astype(float)
        npt.assert_allclose(s.values, 5.0 - 0.2 * dt + 0.01 * dt**2, rtol=1e-12)
        trend = fit_quadratic(s)
        npt.assert_allclose([trend.c0, trend.c1, trend.c2], [5.0, -0.2, 0.01], rtol=1e-9)
        npt.assert_allclose(detrend(s, trend).values, 0.0, atol=1e-9)

    def test_residual_after_fit_is_tiny(self):
        s = generate(SyntheticClockSpec(sigma_wfm=0.0, sigma_rwfm=0.0))
        npt.assert_allclose(detrend(s, fit_quadratic(s)).values, 0.0, atol=1e-9)


class TestNoiseStatistics:
    def test_differenced_detrended_variance_matches_closed_form(self):
        # white-FM only: the phase is a running sum of N(0, sigma^2 * tau)
        # increments, so the first-differenced series recovers those
        # increments and Var(diff) = sigma_wfm^2 * tau.
        sigma = 0.8
        spec = SyntheticClockSpec(
            sigma_wfm=sigma, sigma_rwfm=0.0, n=100_000, seed=99
        )
        s = generate(spec)
        resid = detrend(s, fit_quadratic(s))
        sample_var = float(np.var(np.diff(resid.values)))
        expected = sigma**2 * spec.interval
        assert abs(sample_var - expected) / expected < 0.20

    def test_rwfm_accumulates_faster_than_wfm(self):
        wfm = generate(SyntheticClockSpec(sigma_wfm=1.0, sigma_rwfm=0.0, n=2000, seed=5))
        rwfm = generate(SyntheticClockSpec(sigma_wfm=0.0, sigma_rwfm=1.0, n=2000, seed=5))
        assert np.ptp(rwfm.values - rwfm.values[0]) > np.ptp(wfm.values - wfm.values[0])


class TestSpecValidation:
    def test_minimum_points(self):
        with pytest.raises(ValueError, match="at least 7"):
            SyntheticClockSpec(n=6)

    def test_minimal_n_generates(self):
        assert len(generate(SyntheticClockSpec(n=7))) == 7


class TestDefaultSpec:
    def test_frozen_shape(self):
        spec = default_maser_spec()
        assert spec.n == 274
        assert spec.interval == 5
        s = generate(spec)
        assert len(s) == 274
        assert s.epochs[0] == 56934
        assert s.epochs[-1] == 58299

    def test_residual_peak_to_peak_in_band(self):
        # frozen-seed regression: full-series quadratic removed, the residual
        # spans a few hundred nanoseconds like a free-running maser
        s = generate(default_maser_spec())
        resid = detrend(s, fit_quadratic(s))
        assert 100.0 <= float(np.ptp(resid.values)) <= 350.0

    def test_series_satisfies_invariants(self):
        s = generate(default_maser_spec())
        assert np.all(np.diff(s.epochs) == s.interval)
        assert np.all(np.isfinite(s.values))
