"""Tests for the two-state Kalman baseline."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clockpred.kalman import KalmanParams, kf_gains, kf_one_ahead, kf_one_ahead_batch
from clockpred.predictor import kalman_window_predictor, rolling_predict, window_matrix
from clockpred.series import prepare
from clockpred.synthetic import default_maser_spec, generate
from tests.helpers import (
    GRID_Q,
    GRID_R,
    KalmanModel,
    bind_groups,
    clock_transition,
    gains_byte_mismatches,
    kf_one_ahead_oracle,
    kf_predict,
    kf_update,
    ols_line_extrapolation,
    process_noise,
    process_noise_factor,
)
from tests.test_refusals import REFUSALS, refusal_test

ROOT = Path(__file__).resolve().parent.parent


def fresh_filter(phase=0.0, freq=0.0, tau=5.0, **kw):
    return KalmanModel.initial(phase, freq, tau, KalmanParams(**kw))


class TestPredict:
    def test_deterministic_ramp(self):
        kf = fresh_filter(phase=10.0, freq=2.0, tau=5.0, q1=0.0, q2=0.0, r=1.0)
        out = kf_predict(kf)
        npt.assert_allclose(out.state, [20.0, 2.0], rtol=0)

    def test_zero_state_stays_zero(self):
        kf = fresh_filter(q1=0.0, q2=0.0, r=1.0)
        out = kf_predict(kf)
        npt.assert_array_equal(out.state, [0.0, 0.0])
        npt.assert_allclose(out.P, kf.F @ kf.P @ kf.F.T, rtol=0)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(301)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            P = a @ a.T + 1e-3 * np.eye(2)
            kf = KalmanModel(
                state=rng.normal(size=2),
                P=P,
                F=clock_transition(5.0),
                Q=process_noise(float(rng.uniform(0, 0.1)), float(rng.uniform(0, 0.1)), 5.0),
                R=1e-3,
            )
            out = kf_predict(kf)
            npt.assert_allclose(out.P, out.P.T, rtol=0)
            assert np.linalg.eigvalsh(out.P).min() >= -1e-10

    def test_process_noise_shape(self):
        q = process_noise(0.3, 0.7, 2.0)
        npt.assert_allclose(q[0, 1], q[1, 0], rtol=0)
        npt.assert_allclose(q[0, 0], 0.3 * 2.0 + 0.7 * 8.0 / 3.0, rtol=1e-15)
        npt.assert_allclose(q[1, 1], 0.7 * 2.0, rtol=1e-15)
        assert np.linalg.eigvalsh(q).min() >= 0.0

    @pytest.mark.parametrize("tau", [1.0, 5.0, 10.0])
    def test_noise_factor_squares_to_process_noise(self, tau):
        # The gains propagate the covariance with this factor, never with Q itself;
        # the gains byte test holds kf_gains's own factor to this one's bytes.
        for q1, q2 in itertools.product(GRID_Q, GRID_Q):
            factor = process_noise_factor(q1, q2, tau)
            expected = process_noise(q1, q2, tau)
            npt.assert_allclose(
                factor @ factor.T, expected, rtol=0, atol=1e-14 * np.abs(expected).max()
            )


class TestUpdate:
    def test_huge_r_leaves_state_alone(self):
        kf = fresh_filter(phase=1.0, freq=0.5, q1=0.0, q2=0.0, r=1e18, p0=1.0)
        out = kf_update(kf, 100.0)
        npt.assert_allclose(out.state, [1.0, 0.5], atol=1e-12)

    def test_zero_r_snaps_phase_to_measurement(self):
        kf = fresh_filter(phase=1.0, freq=0.5, q1=0.0, q2=0.0, r=0.0, p0=10.0)
        out = kf_update(kf, 42.0)
        npt.assert_allclose(out.state[0], 42.0, rtol=0)

    def test_noiseless_ramp_recovers_slope(self):
        tau = 5.0
        kf = fresh_filter(phase=0.0, freq=0.0, tau=tau, q1=0.0, q2=0.0, r=1e-9)
        true_slope = 0.75
        for i in range(5):
            kf = kf_update(kf, true_slope * i * tau)
            kf = kf_predict(kf)
        npt.assert_allclose(kf.state[1], true_slope, atol=1e-9)

    def test_degenerate_innovation_rejected(self):
        kf = KalmanModel(
            state=np.zeros(2),
            P=np.diag([0.0, 1.0]),
            F=clock_transition(5.0),
            Q=np.zeros((2, 2)),
            R=0.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            kf_update(kf, 1.0)

    def test_covariance_psd_across_random_runs(self):
        rng = np.random.default_rng(302)
        for _ in range(100):
            params = KalmanParams(
                q1=float(10 ** rng.uniform(-8, -1)),
                q2=float(10 ** rng.uniform(-8, -1)),
                r=float(10 ** rng.uniform(-8, 0)),
            )
            kf = fresh_filter(float(rng.normal()), float(rng.normal()), 5.0, **vars(params))
            for z in rng.normal(0, 1, 25):
                kf = kf_update(kf, float(z))
                kf = kf_predict(kf)
                npt.assert_allclose(kf.P, kf.P.T, rtol=0)
                assert np.linalg.eigvalsh(kf.P).min() >= -1e-10


class TestOneAhead:
    def test_exact_ramp(self):
        pred = kf_one_ahead([0.0, 1.0, 2.0, 3.0, 4.0], 5.0, KalmanParams(0.0, 0.0, 1e-12))
        npt.assert_allclose(pred, 5.0, atol=1e-9)

    def test_constant_window(self):
        pred = kf_one_ahead([3.0] * 5, 5.0, KalmanParams(0.0, 0.0, 1e-12))
        npt.assert_allclose(pred, 3.0, atol=1e-9)

    def test_zero_process_noise_equals_least_squares(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            window = rng.uniform(-1.0, 1.0, 5)
            r = float(10 ** rng.uniform(-6, -1))
            tau = float(rng.integers(1, 11))
            pred = kf_one_ahead(window, tau, KalmanParams(0.0, 0.0, r))
            npt.assert_allclose(pred, ols_line_extrapolation(window, tau), atol=1e-6)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(304)
        params = KalmanParams()
        for _ in range(50):
            window = rng.uniform(-1.0, 1.0, 5)
            shift = float(rng.normal(0, 10))
            base = kf_one_ahead(window, 5.0, params)
            moved = kf_one_ahead(window + shift, 5.0, params)
            npt.assert_allclose(moved - base, shift, atol=1e-9)

    def test_matches_plain_update_predict_loop(self):
        # the factored recursion must agree with the reference single-step
        # recursion when the dynamic range is modest
        rng = np.random.default_rng(305)
        tau = 5.0
        for _ in range(100):
            window = rng.uniform(-1.0, 1.0, 5)
            params = KalmanParams(
                q1=float(10 ** rng.uniform(-5, -2)),
                q2=float(10 ** rng.uniform(-6, -2)),
                r=float(10 ** rng.uniform(-3, -1)),
                p0=100.0,
            )
            slope = float(window[1] - window[0]) / tau
            kf = fresh_filter(float(window[0]), slope, tau, **vars(params))
            for z in window:
                kf = kf_update(kf, float(z))
                kf = kf_predict(kf)
            npt.assert_allclose(
                kf_one_ahead(window, tau, params), kf.state[0], atol=1e-9
            )


@pytest.fixture(scope="module")
def frozen():
    """The frozen experiment, prepared as notebooks/05_kalman_calibration.py prepares it."""
    return prepare(generate(default_maser_spec()), fit_on_full=True)


@pytest.fixture(scope="module")
def frozen_windows(frozen):
    """The frozen experiment's validation and test windows, stacked, and its interval."""
    parts = frozen.split
    windows = np.concatenate(
        [window_matrix(frozen.residual_norm, r) for r in (parts.val_range, parts.test_range)]
    )
    return windows, frozen.series.interval


window_batches = st.tuples(st.integers(1, 12), st.integers(2, 8)).flatmap(
    lambda shape: arrays(
        np.float64, shape, elements=st.floats(-1.0, 1.0, allow_subnormal=False)
    )
)
grid_params = st.builds(
    KalmanParams,
    q1=st.sampled_from(GRID_Q),
    q2=st.sampled_from(GRID_Q),
    r=st.sampled_from(GRID_R),
)
intervals = st.sampled_from([1.0, 5.0, 10.0])


class TestBatch:
    def test_equals_per_window_oracle_over_calibration_grid(self, frozen_windows):
        windows, interval = frozen_windows
        for q1, q2, r in itertools.product(GRID_Q, GRID_Q, GRID_R):
            params = KalmanParams(q1=q1, q2=q2, r=r)
            expected = [kf_one_ahead_oracle(w, interval, params) for w in windows]
            npt.assert_array_equal(kf_one_ahead_batch(windows, interval, params), expected)

    def test_window_predictor_equals_batch_over_calibration_grid(self, frozen):
        # kf-calibrate times the per-window form; the calibration notebook calls the batch
        series, val_range = frozen.residual_norm, frozen.split.val_range
        windows, interval = window_matrix(series, val_range), frozen.series.interval
        for q1, q2, r in itertools.product(GRID_Q, GRID_Q, GRID_R):
            params = KalmanParams(q1=q1, q2=q2, r=r)
            predictor = kalman_window_predictor(params, interval)
            per_window = rolling_predict(predictor, series, val_range)
            assert per_window.tobytes() == kf_one_ahead_batch(windows, interval, params).tobytes()

    @pytest.mark.parametrize("tau", [1.0, 5.0, 10.0])
    def test_equals_per_window_oracle_on_random_windows(self, tau):
        rng = np.random.default_rng(306 + int(tau))
        for _ in range(20):
            params = KalmanParams(
                q1=float(10 ** rng.uniform(-8, 0)),
                q2=float(10 ** rng.uniform(-8, 0)),
                r=float(10 ** rng.uniform(-7, 0)),
                p0=float(10 ** rng.uniform(0, 8)),
            )
            windows = rng.uniform(-1.0, 1.0, (40, int(rng.integers(2, 9))))
            expected = [kf_one_ahead_oracle(w, tau, params) for w in windows]
            npt.assert_array_equal(kf_one_ahead_batch(windows, tau, params), expected)
            npt.assert_array_equal([kf_one_ahead(w, tau, params) for w in windows], expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(windows=window_batches, params=grid_params, tau=intervals, data=st.data())
    def test_row_permutation_invariance(self, windows, params, tau, data):
        order = data.draw(st.permutations(range(windows.shape[0])))
        npt.assert_array_equal(
            kf_one_ahead_batch(windows[order], tau, params),
            kf_one_ahead_batch(windows, tau, params)[order],
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(windows=window_batches, params=grid_params, tau=intervals, data=st.data())
    def test_row_subset_invariance(self, windows, params, tau, data):
        rows = sorted(data.draw(st.sets(st.integers(0, windows.shape[0] - 1), min_size=1)))
        npt.assert_array_equal(
            kf_one_ahead_batch(windows[rows], tau, params),
            kf_one_ahead_batch(windows, tau, params)[rows],
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        windows=window_batches,
        params=grid_params,
        tau=intervals,
        shift=st.floats(-100.0, 100.0, allow_subnormal=False),
    )
    def test_translation_equivariance(self, windows, params, tau, shift):
        base = kf_one_ahead_batch(windows, tau, params)
        moved = kf_one_ahead_batch(windows + shift, tau, params)
        npt.assert_allclose(moved - base, shift, rtol=0, atol=1e-9 * (1.0 + abs(shift)))


class TestGains:
    def test_bytes_equal_matrix_form_reference(self):
        assert gains_byte_mismatches(kf_gains) == []

    # One FMA kernel and one without FMA.  OpenBLAS names its Prescott
    # kernel Katmai, the first of the cores that share it.
    @pytest.mark.parametrize("core, name", [("Haswell", "Haswell"), ("Prescott", "Katmai")])
    def test_bytes_equal_matrix_form_reference_under_blas_kernel(self, core, name):
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        script = (
            "import json; from clockpred.kalman import kf_gains; "
            "from tests.helpers import gains_byte_mismatches, openblas_core; "
            "print(json.dumps([openblas_core(), gains_byte_mismatches(kf_gains)]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        kernel, mismatches = json.loads(done.stdout)
        assert kernel in (name, None)
        assert mismatches == []


bind_groups(globals(), REFUSALS, refusal_test)
