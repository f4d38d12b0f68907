"""Tests for the rolling one-step-ahead harness and report assembly."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import clockpred.predictor as predictor
from clockpred.cnn import forward, init_weights
from clockpred.kalman import KalmanParams
from clockpred.predictor import (
    PredictionReport,
    compare,
    e_rms_pred,
    eligible_indices,
    persistence_predictor,
    reconstruct,
    report_to_csv,
    rolling_predict,
    score,
    summary_to_json,
)
from clockpred.series import NormalizationScale, QuadraticTrend, prepare
from clockpred.synthetic import SyntheticClockSpec, generate
from clockpred.training import rmse_loss
from tests.helpers import bind_groups, kf_one_ahead_oracle, report_to_csv_rowwise, series_of
from tests.test_refusals import REFUSALS, refusal_test


@pytest.fixture(scope="module")
def prepared():
    return prepare(generate(SyntheticClockSpec()), fit_on_full=True)


class TestRollingPredict:
    def test_persistence_on_constant_series(self):
        s = series_of(np.full(30, 4.2))
        preds = rolling_predict(persistence_predictor, s, range(20, 30))
        npt.assert_array_equal(preds, np.full(10, 4.2))

    def test_windows_are_exact_history_slices(self):
        rng = np.random.default_rng(401)
        s = series_of(rng.normal(size=40))
        seen = []

        def spy(window):
            seen.append(np.array(window))
            return 0.0

        rolling_predict(spy, s, range(25, 40))
        expected_idx = [i for i in range(25, 40) if i >= 5]
        assert len(seen) == len(expected_idx)
        for win, i in zip(seen, expected_idx):
            npt.assert_array_equal(win, s.values[i - 5 : i])

    def test_windows_never_contain_predictions(self):
        # predictions are huge sentinels; windows must stay actual data
        rng = np.random.default_rng(402)
        s = series_of(rng.normal(size=30))

        def sentinel(window):
            assert np.all(np.abs(window) < 100.0)
            return 1e9

        preds = rolling_predict(sentinel, s, range(10, 30))
        assert np.all(preds == 1e9)

    def test_windows_may_reach_back_before_test_range(self):
        s = series_of(np.arange(12.0))
        preds = rolling_predict(persistence_predictor, s, range(5, 12))
        assert preds.size == 7
        npt.assert_array_equal(preds, s.values[4:11])


class TestReconstruct:
    def test_zero_predictions_give_pure_trend(self):
        trend = QuadraticTrend(56934.0, 3.0, -0.5, 0.002)
        epochs = np.array([56934, 56939, 56944])
        out = reconstruct(np.zeros(3), NormalizationScale(7.0), trend, epochs)
        npt.assert_allclose(out, trend(epochs), rtol=0)

    def test_round_trip_through_pipeline(self, prepared):
        idx = eligible_indices(prepared.split.test_range)
        norm_actual = prepared.residual_norm.values[idx]
        rebuilt = reconstruct(
            norm_actual, prepared.scale, prepared.trend, prepared.series.epochs[idx]
        )
        npt.assert_allclose(rebuilt, prepared.series.values[idx], atol=1e-9)

    def test_unit_scale_zero_trend_is_identity(self):
        preds = np.array([0.5, -0.25])
        out = reconstruct(
            preds, NormalizationScale(1.0), QuadraticTrend(0.0, 0.0, 0.0, 0.0), [56934, 56939]
        )
        npt.assert_array_equal(out, preds)

    def test_linearity_in_residual(self):
        rng = np.random.default_rng(403)
        scale = NormalizationScale(11.0)
        trend = QuadraticTrend(56934.0, 5.0, 0.1, -0.003)
        epochs = 56934 + 5 * np.arange(8)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        npt.assert_allclose(
            reconstruct(a + b, scale, trend, epochs),
            reconstruct(a, scale, trend, epochs) + b * scale.d_max_abs,
            atol=1e-9,
        )


class TestErmsPred:
    def test_zero_on_equal(self):
        assert e_rms_pred([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_pair(self):
        assert e_rms_pred([5.0], [2.0]) == 3.0

    def test_identity_with_training_loss(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            preds = rng.normal(size=n)
            actuals = rng.normal(size=n)
            assert e_rms_pred(preds, actuals) == rmse_loss(preds, actuals)


class TestCompare:
    def test_memorization_stubs_score_zero(self, prepared):
        actual = prepared.residual_norm.values[eligible_indices(prepared.split.test_range)]
        report = score(prepared, actual, actual)
        assert (report.cnn_e_rms_ns, report.kf_e_rms_ns) == (0.0, 0.0)
        npt.assert_array_equal(report.cnn_diff_ns, 0.0)
        npt.assert_array_equal(report.kf_diff_ns, 0.0)

    @pytest.mark.parametrize("method", ["CNN", "KF"])
    def test_non_finite_prediction_is_refused_naming_method_and_mjd(self, prepared, method):
        actual = prepared.residual_norm.values[eligible_indices(prepared.split.test_range)]
        bad = actual.copy()
        bad[7] = np.nan
        preds = (bad, actual) if method == "CNN" else (actual, bad)
        mjd = prepared.series.epochs[eligible_indices(prepared.split.test_range)[7]]
        with pytest.raises(ValueError, match=f"^{method} prediction at MJD {mjd} gives a non"):
            score(prepared, *preds)

    def test_cnn_runs_per_window_through_the_module_forward(self, prepared, monkeypatch):
        """Tracers count ``forward`` calls where ``compare`` looks it up."""
        seen = []

        def counted(model, window):
            seen.append(window)
            return forward(model, window)

        monkeypatch.setattr(predictor, "forward", counted)
        report = compare(init_weights(56934), KalmanParams(), prepared)
        assert len(seen) == report.n_pred == 100

    def test_diff_columns_are_exact(self, prepared):
        report = compare(init_weights(56934), KalmanParams(), prepared)
        npt.assert_array_equal(report.cnn_diff_ns, report.cnn_pred_ns - report.actual_ns)
        npt.assert_array_equal(report.kf_diff_ns, report.kf_pred_ns - report.actual_ns)

    def test_summary_recomputable_from_columns(self, prepared):
        report = compare(init_weights(56934), KalmanParams(), prepared)
        npt.assert_allclose(
            report.cnn_e_rms_ns, e_rms_pred(report.cnn_pred_ns, report.actual_ns), atol=1e-9
        )
        npt.assert_allclose(
            report.kf_e_rms_ns, e_rms_pred(report.kf_pred_ns, report.actual_ns), atol=1e-9
        )

    def test_row_count_and_epochs(self, prepared):
        report = compare(init_weights(0), KalmanParams(), prepared)
        assert report.n_pred == 100
        npt.assert_array_equal(
            report.epochs, prepared.series.epochs[prepared.split.test_range.start :]
        )

    @pytest.mark.parametrize(
        "params",
        [KalmanParams(), KalmanParams(0.0, 0.0, 1e-3), KalmanParams(1e-3, 1e-7, 0.1)],
    )
    def test_kalman_params_match_the_per_window_oracle(self, prepared, params):
        model = init_weights(56934)
        interval = prepared.series.interval
        batched = compare(model, params, prepared)
        series_norm, test_range = prepared.residual_norm, prepared.split.test_range
        per_window = score(
            prepared,
            rolling_predict(lambda window: forward(model, window), series_norm, test_range),
            rolling_predict(
                lambda window: kf_one_ahead_oracle(window, interval, params),
                series_norm,
                test_range,
            ),
        )
        assert report_to_csv(batched) == report_to_csv(per_window)
        assert summary_to_json(batched) == summary_to_json(per_window)


class TestExports:
    def test_csv_layout(self):
        report = PredictionReport(
            epochs=np.array([56934]),
            actual_ns=np.array([1.0]),
            cnn_pred_ns=np.array([1.5]),
            kf_pred_ns=np.array([0.5]),
            cnn_diff_ns=np.array([0.5]),
            kf_diff_ns=np.array([-0.5]),
            n_pred=1,
            cnn_e_rms_ns=0.5,
            kf_e_rms_ns=0.5,
        )
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "mjd,actual_ns,cnn_pred_ns,kf_pred_ns,cnn_diff_ns,kf_diff_ns"
        assert lines[1] == "56934,1.0,1.5,0.5,0.5,-0.5"

    def test_csv_writes_epochs_as_given(self):
        """A report built with float epochs keeps them, as the row-wise renderer wrote them."""
        epochs = np.array([56934.5, 56939.0])
        report = PredictionReport(epochs, *[np.ones(2)] * 5, 2, 0.0, 0.0)
        assert report_to_csv(report) == report_to_csv_rowwise(report)
        assert report_to_csv(report).split("\n")[1].startswith("56934.5,1.0,")

    def test_summary_json_fields(self, prepared):
        report = compare(init_weights(56934), KalmanParams(), prepared)
        doc = json.loads(summary_to_json(report))
        assert set(doc) == {"n_pred", "cnn_e_rms_ns", "kf_e_rms_ns"}
        assert doc["n_pred"] == 100


bind_groups(globals(), REFUSALS, refusal_test)
