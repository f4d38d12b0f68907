"""Acceptance gate: ten criteria, one test each, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6, 8 and 10 run the frozen synthetic experiment
(configs/experiment.conf); the others are property checks against
independent oracles.
"""

import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import clockpred as cp
from clockpred import predictor as pred
from clockpred import training as tr
from clockpred.cli import main
from tests.helpers import adam_reference, fd_gradient, kink_free_instance, ols_line_extrapolation

EXPERIMENT_CONF = str(Path(__file__).resolve().parent.parent / "configs" / "experiment.conf")


def report_line(number, description, elapsed, budget):
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {number:2d} ({description}): PASS in {elapsed:.2f}s (budget {budget}s)")


@pytest.fixture(scope="module")
def frozen_experiment():
    """The frozen synthetic experiment, trained once and shared by 6 and 8."""
    series = cp.generate(cp.default_maser_spec())
    prepared = cp.prepare(series, fit_on_full=True)
    train_ds = tr.make_windows(prepared.residual_norm, prepared.split.train_range)
    val_ds = tr.make_windows(prepared.residual_norm, prepared.split.val_range)
    model0 = cp.init_weights(56934)
    initial_rmse = cp.rmse_loss(tr.predict_dataset(model0, train_ds), train_ds.targets)
    start = time.perf_counter()
    model, trace = cp.train(model0, train_ds, val_ds, cp.TrainConfig())
    train_seconds = time.perf_counter() - start
    return {
        "prepared": prepared,
        "model": model,
        "trace": trace,
        "initial_rmse": initial_rmse,
        "train_seconds": train_seconds,
    }


def test_criterion_01_structural_split():
    start = time.perf_counter()
    series = cp.generate(cp.default_maser_spec())
    assert len(series) == 274
    prepared = cp.prepare(series)
    assert prepared.split.sizes == (141, 33, 100)
    assert prepared.split.train_range == range(0, 141)
    assert prepared.split.test_range == range(174, 274)
    report_line(1, "274 -> 141/33/100 split", time.perf_counter() - start, 1.0)


def test_criterion_02_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(100):
        model, window = kink_free_instance(rng)
        analytic = cp.backward(model, window, 1.0).to_vector()
        numeric = fd_gradient(model, window, h=1e-5)
        for a, n in zip(analytic, numeric):
            if max(abs(a), abs(n)) < 1e-8:
                assert abs(a - n) < 1e-8
            else:
                worst = max(worst, abs(a - n) / max(abs(a), abs(n)))
    assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"
    report_line(2, f"backprop vs finite differences, worst {worst:.1e}", time.perf_counter() - start, 10.0)


def test_criterion_03_adam_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        lr = float(10 ** rng.uniform(-4, -1))
        beta1 = float(rng.uniform(0.8, 0.99))
        beta2 = float(rng.uniform(0.99, 0.99999))
        eps = float(10 ** rng.uniform(-9, -3))
        t = int(rng.integers(0, 100))
        param = float(rng.normal())
        grad = float(rng.normal())
        m = float(rng.normal())
        v = float(abs(rng.normal()))
        state = tr.AdamState(np.array([m]), np.array([v]), t, lr, beta1, beta2, eps)
        new, state2 = tr.adam_step(np.array([param]), np.array([grad]), state)
        ref_p, ref_m, ref_v, ref_t = adam_reference(param, grad, m, v, t, lr, beta1, beta2, eps)
        assert abs(new[0] - ref_p) <= 1e-12 * max(1.0, abs(ref_p))
        assert abs(state2.m[0] - ref_m) <= 1e-12 * max(1.0, abs(ref_m))
        assert abs(state2.v[0] - ref_v) <= 1e-12 * max(1.0, abs(ref_v))
        assert state2.t == ref_t
    report_line(3, "1000 Adam steps vs reference recurrence", time.perf_counter() - start, 1.0)


def test_criterion_04_kalman_least_squares_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        window = rng.uniform(-1.0, 1.0, 5)
        r = float(10 ** rng.uniform(-6, -1))
        got = cp.kf_one_ahead(window, 5.0, cp.KalmanParams(q1=0.0, q2=0.0, r=r))
        want = ols_line_extrapolation(window, 5.0)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6, f"worst |KF - OLS| = {worst:.3e}"
    report_line(4, f"Q=0 filter vs line extrapolation, worst {worst:.1e}", time.perf_counter() - start, 1.0)


def test_criterion_05_pipeline_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(30, 400))
        epochs = 56934 + 5 * np.arange(n)
        dt = epochs - epochs[0]
        values = (
            rng.normal(0, 100)
            + rng.normal(0, 5) * dt
            + rng.normal(0, 0.01) * dt**2
            + rng.normal(0, 20, n)
        )
        series = cp.TimeSeries(epochs, values, 5)
        for fit_on_full in (False, True):
            prepared = cp.prepare(series, fit_on_full=fit_on_full)
            rebuilt = cp.retrend(
                cp.denormalize(prepared.residual_norm, prepared.scale), prepared.trend
            )
            npt.assert_allclose(rebuilt.values, series.values, atol=1e-9)
    report_line(5, "retrend(denormalize(pipeline)) = input", time.perf_counter() - start, 1.0)


def test_criterion_06_training_dynamics(frozen_experiment):
    trace = frozen_experiment["trace"]
    initial = frozen_experiment["initial_rmse"]
    curve = trace.train_rmse
    fall = initial / curve[:200].min()
    assert fall >= 5.0, f"training error fell only {fall:.2f}x within 200 updates"
    tail = curve[-20:]
    swing = (tail.max() - tail.min()) / tail.min()
    assert swing < 0.01, f"relative change {swing:.4f} over the final 20 updates"
    assert trace.val_rmse[trace.best_update] <= trace.val_rmse[0]
    report_line(
        6,
        f"fall {fall:.1f}x, final-20 swing {swing:.3%}",
        frozen_experiment["train_seconds"],
        30.0,
    )


def test_criterion_07_early_stopping():
    start = time.perf_counter()
    model = cp.init_weights(0)
    windows = np.full((8, 5), 0.5)
    train_ds = tr.WindowDataset(windows, np.full(8, 0.5))
    val_ds = tr.WindowDataset(windows.copy(), np.full(8, -0.5))
    cfg = cp.TrainConfig(max_updates=500, patience=5, lr=0.01)
    trained, trace = cp.train(model, train_ds, val_ds, cfg)
    assert trace.stop_reason == "early-stop"
    restored_val = cp.rmse_loss(tr.predict_dataset(trained, val_ds), val_ds.targets)
    npt.assert_allclose(restored_val, trace.val_rmse.min(), rtol=1e-12)
    assert trace.best_update == int(trace.val_rmse.argmin())
    report_line(7, "rising validation triggers stop + restore", time.perf_counter() - start, 10.0)


def test_criterion_08_comparison_sanity(frozen_experiment):
    start = time.perf_counter()
    prepared = frozen_experiment["prepared"]
    report = cp.compare(frozen_experiment["model"], cp.KalmanParams(), prepared)
    indices = pred.eligible_indices(prepared.split.test_range)
    persist_norm = pred.rolling_predict(
        pred.persistence_predictor, prepared.residual_norm, prepared.split.test_range
    )
    persist_ns = pred.reconstruct(
        persist_norm, prepared.scale, prepared.trend, prepared.series.epochs[indices]
    )
    persistence = cp.e_rms_pred(persist_ns, prepared.series.values[indices])
    for value in (report.cnn_e_rms_ns, report.kf_e_rms_ns, persistence):
        assert np.isfinite(value) and value > 0.0
    assert report.cnn_e_rms_ns < persistence
    assert report.kf_e_rms_ns < persistence
    ordering = "cnn<kf" if report.cnn_e_rms_ns < report.kf_e_rms_ns else "kf<=cnn"
    report_line(
        8,
        f"cnn {report.cnn_e_rms_ns:.2f} / kf {report.kf_e_rms_ns:.2f} / "
        f"persistence {persistence:.2f} ns, ordering {ordering} (recorded, not asserted)",
        time.perf_counter() - start + frozen_experiment["train_seconds"],
        60.0,
    )


def test_criterion_09_loss_and_score_share_one_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.normal(size=n)
        actuals = rng.normal(size=n)
        a = cp.rmse_loss(preds, actuals)
        b = cp.e_rms_pred(preds, actuals)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
    report_line(9, "rmse_loss == e_rms_pred on 1000 pairs", time.perf_counter() - start, 1.0)


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()

    def run(root: Path):
        root.mkdir()
        assert main(["generate", "--config", EXPERIMENT_CONF, "--out", str(root / "series.csv")]) == 0
        assert main([
            "prepare", "--config", EXPERIMENT_CONF,
            "--in", str(root / "series.csv"), "--out-dir", str(root / "prepared"),
        ]) == 0
        assert main([
            "train", "--config", EXPERIMENT_CONF, "--prepared", str(root / "prepared"),
            "--model-out", str(root / "model.json"), "--trace-out", str(root / "trace.csv"),
        ]) == 0
        assert main([
            "compare", "--config", EXPERIMENT_CONF, "--prepared", str(root / "prepared"),
            "--model", str(root / "model.json"), "--report-out", str(root / "report.csv"),
            "--summary-out", str(root / "summary.json"),
        ]) == 0

    run(tmp_path / "one")
    run(tmp_path / "two")
    for name in ("model.json", "trace.csv", "report.csv", "summary.json", "series.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    report_line(
        10,
        f"two byte-identical pipeline runs (cnn {summary['cnn_e_rms_ns']:.2f} ns)",
        time.perf_counter() - start,
        60.0,
    )
