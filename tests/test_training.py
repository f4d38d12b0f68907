"""Tests for windowing, the loss, Adam, and the training loop."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from clockpred.cnn import (
    CnnModel,
    ConvLayer,
    backward_batch,
    forward_batch,
    init_weights,
    model_to_json,
)
from clockpred.predictor import PredictionReport
from clockpred.series import TimeSeries, prepare
from clockpred.synthetic import SyntheticClockSpec, generate
from clockpred.training import (
    STOP_EARLY,
    STOP_MAX_UPDATES,
    AdamState,
    TrainConfig,
    TrainingTrace,
    WindowDataset,
    adam_step,
    make_windows,
    predict_dataset,
    rmse_loss,
    trace_to_csv,
    train,
)
from tests.helpers import (
    _loss_gradient,
    adam_reference,
    bind_groups,
    kernel_pin_message,
    kink_free_instance,
    loss_with_l2,
    one_position_model,
    preactivation_margin,
    series_of,
    weight_norm_sq,
)
from tests.test_refusals import REFUSALS, refusal_test


class TestMakeWindows:
    def test_count_formula(self):
        s = series_of(np.arange(141, dtype=float))
        ds = make_windows(s, range(0, 141))
        assert len(ds) == 136

    def test_count_matches_enumeration(self):
        rng = np.random.default_rng(201)
        s = series_of(rng.normal(size=60))
        for start, stop in ((0, 60), (10, 25), (3, 9)):
            ds = make_windows(s, range(start, stop))
            expected = [
                (s.values[j : j + 5], s.values[j + 5])
                for j in range(start, stop)
                if j + 5 <= stop - 1
            ]
            assert len(ds) == len(expected) == (stop - start) - 5
            for i, (win, tgt) in enumerate(expected):
                npt.assert_array_equal(ds.inputs[i], win)
                assert ds.targets[i] == tgt

    def test_minimal_range(self):
        ds = make_windows(series_of(np.arange(6.0)), range(0, 6))
        assert len(ds) == 1
        npt.assert_array_equal(ds.inputs[0], [0, 1, 2, 3, 4])
        assert ds.targets[0] == 5.0

    def test_pairs_fully_inside_range(self):
        s = series_of(np.arange(30.0))
        ds = make_windows(s, range(10, 20))
        assert ds.inputs.min() >= 10 and ds.targets.max() <= 19


class TestRmseLoss:
    def test_zero_on_equal(self):
        assert rmse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_worked_example(self):
        npt.assert_allclose(rmse_loss([0.1, 0.3], [0.0, 0.0]), math.sqrt(0.05), rtol=1e-12)

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            preds = rng.normal(size=n)
            targets = rng.normal(size=n)
            oracle = math.sqrt(
                math.fsum((float(p) - float(t)) ** 2 for p, t in zip(preds, targets)) / n
            )
            npt.assert_allclose(rmse_loss(preds, targets), oracle, rtol=1e-12)


class TestLossWithL2:
    def test_zero_lambda_is_plain_rmse(self):
        model = init_weights(5)
        assert loss_with_l2([1.0], [0.0], model, 0.0) == rmse_loss([1.0], [0.0])

    def test_zero_weight_model(self):
        model = init_weights(0).from_vector(np.zeros(19))
        assert loss_with_l2([1.0], [0.0], model, 0.5) == rmse_loss([1.0], [0.0])

    def test_penalty_matches_enumeration(self):
        rng = np.random.default_rng(203)
        model = init_weights(3, channels=2)
        model = model.from_vector(model.to_vector() + rng.normal(0, 1, model.num_params))
        total = 0.0
        for layer in model.layers:
            for w in layer.kernel.ravel():
                total += float(w) ** 2
        for w in model.head_weights:
            total += float(w) ** 2
        npt.assert_allclose(weight_norm_sq(model), total, rtol=1e-12)
        lam = 0.37
        npt.assert_allclose(
            loss_with_l2([1.0], [0.5], model, lam),
            rmse_loss([1.0], [0.5]) + lam * total,
            rtol=1e-12,
        )


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        state = AdamState(np.zeros(4), np.zeros(4), 0, 0.01, 0.9, 0.999, 1e-8)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        new, state2 = adam_step(params, np.zeros(4), state)
        npt.assert_array_equal(new, params)
        assert state2.t == 1

    def test_single_step_worked_example(self):
        state = AdamState(np.zeros(1), np.zeros(1), 0, 0.001, 0.9, 0.999, 1e-8)
        new, _ = adam_step(np.array([0.0]), np.array([1.0]), state)
        expected, _, _, _ = adam_reference(0.0, 1.0, 0.0, 0.0, 0, 0.001, 0.9, 0.999, 1e-8)
        npt.assert_allclose(new[0], expected, rtol=1e-12)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(204)
        for _ in range(300):
            lr = float(10 ** rng.uniform(-4, -1))
            beta1 = float(rng.uniform(0.8, 0.95))
            beta2 = float(rng.uniform(0.99, 0.9999))
            eps = float(10 ** rng.uniform(-9, -3))
            t = int(rng.integers(0, 50))
            param = float(rng.normal())
            grad = float(rng.normal())
            m = float(rng.normal())
            v = float(abs(rng.normal()))
            state = AdamState(np.array([m]), np.array([v]), t, lr, beta1, beta2, eps)
            new, state2 = adam_step(np.array([param]), np.array([grad]), state)
            ref_p, ref_m, ref_v, ref_t = adam_reference(
                param, grad, m, v, t, lr, beta1, beta2, eps
            )
            assert abs(new[0] - ref_p) <= 1e-12 * max(1.0, abs(ref_p))
            npt.assert_allclose(state2.m[0], ref_m, rtol=1e-12)
            npt.assert_allclose(state2.v[0], ref_v, rtol=1e-12)
            assert state2.t == ref_t

    def test_first_step_opposes_gradient_sign(self):
        rng = np.random.default_rng(205)
        grads = rng.normal(size=30)
        grads[0] = 0.0
        params = rng.normal(size=30)
        state = AdamState(np.zeros(30), np.zeros(30), 0, 0.01, 0.9, 0.999, 1e-8)
        new, _ = adam_step(params, grads, state)
        moved = new - params
        for g, d in zip(grads, moved):
            if g > 0:
                assert d < 0
            elif g < 0:
                assert d > 0
            else:
                assert d == 0


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(206)
        checked = 0
        while checked < 20:
            model, _ = kink_free_instance(rng)
            windows = rng.uniform(-1, 1, (12, 5))
            if min(preactivation_margin(model, w) for w in windows) < 1e-3:
                continue
            targets = rng.uniform(-1, 1, 12)
            ds = WindowDataset(windows, targets)
            lam = float(rng.uniform(0, 1e-3))
            analytic = _loss_gradient(model, ds, lam)
            vec = model.to_vector()
            h = 1e-5
            for i in range(vec.size):
                up = vec.copy()
                up[i] += h
                down = vec.copy()
                down[i] -= h
                fd = (
                    loss_with_l2(
                        predict_dataset(model.from_vector(up), ds), targets,
                        model.from_vector(up), lam,
                    )
                    - loss_with_l2(
                        predict_dataset(model.from_vector(down), ds), targets,
                        model.from_vector(down), lam,
                    )
                ) / (2 * h)
                if max(abs(analytic[i]), abs(fd)) < 1e-8:
                    assert abs(analytic[i] - fd) < 1e-8
                else:
                    assert abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd)) < 1e-5
            checked += 1


class TestTrain:
    def test_exact_fit_is_a_fixed_point(self):
        model = one_position_model([0, 0, 1, 0], 2)  # reads the window center
        rng = np.random.default_rng(207)
        windows = rng.uniform(0.1, 1.0, (10, 5))
        targets = windows[:, 2].copy()
        ds = WindowDataset(windows, targets)
        cfg = TrainConfig(max_updates=5, patience=5, l2_lambda=0.0)
        trained, trace = train(model, ds, ds, cfg)
        npt.assert_array_equal(trained.to_vector(), model.to_vector())
        npt.assert_array_equal(trace.train_rmse, 0.0)
        npt.assert_array_equal(trace.val_rmse, 0.0)

    def test_early_stop_on_rising_validation(self):
        # train targets reward moving the output toward +0.5; the validation
        # targets sit at -0.5, so validation RMSE rises as the fit improves
        model = init_weights(0)
        windows = np.full((8, 5), 0.5)
        train_ds = WindowDataset(windows, np.full(8, 0.5))
        val_ds = WindowDataset(windows.copy(), np.full(8, -0.5))
        cfg = TrainConfig(max_updates=500, patience=5, lr=0.01)
        trained, trace = train(model, train_ds, val_ds, cfg)
        assert trace.stop_reason == STOP_EARLY
        assert len(trace) < 500
        best_val = trace.val_rmse.min()
        npt.assert_allclose(
            rmse_loss(predict_dataset(trained, val_ds), val_ds.targets), best_val, rtol=1e-12
        )
        assert trace.best_update == int(trace.val_rmse.argmin())

    def test_runs_to_budget_without_improvising_stop(self):
        rng = np.random.default_rng(208)
        s = series_of(rng.normal(0, 1, 40))
        train_ds = make_windows(s, range(0, 30))
        val_ds = make_windows(s, range(30, 40))
        cfg = TrainConfig(max_updates=30, patience=30)
        _, trace = train(init_weights(1), train_ds, val_ds, cfg)
        assert trace.stop_reason == STOP_MAX_UPDATES
        assert len(trace) == 30

    def test_pinned_synthetic_regression(self):
        # frozen experiment, 200-update budget: training error must fall 5x
        prep = prepare(generate(SyntheticClockSpec()), fit_on_full=True)
        train_ds = make_windows(prep.residual_norm, prep.split.train_range)
        val_ds = make_windows(prep.residual_norm, prep.split.val_range)
        model0 = init_weights(56934)
        initial = rmse_loss(predict_dataset(model0, train_ds), train_ds.targets)
        _, trace = train(model0, train_ds, val_ds, TrainConfig(max_updates=200, patience=200))
        assert trace.train_rmse.min() < initial / 5.0

    def test_training_reduces_loss_on_any_nondegenerate_data(self):
        rng = np.random.default_rng(209)
        s = series_of(np.cumsum(rng.normal(0, 1, 50)))
        train_ds = make_windows(s, range(0, 40))
        val_ds = make_windows(s, range(40, 50))
        model0 = init_weights(56934)
        initial = rmse_loss(predict_dataset(model0, train_ds), train_ds.targets)
        _, trace = train(model0, train_ds, val_ds, TrainConfig(max_updates=100, patience=100))
        assert trace.train_rmse.min() < initial

    def test_bit_determinism(self):
        rng = np.random.default_rng(210)
        s = series_of(np.cumsum(rng.normal(0, 1, 60)))
        small = (make_windows(s, range(0, 45)), make_windows(s, range(45, 60)))
        # One channel for 40 updates; eight (wide-train's width) for 2 on the frozen windows.
        for channels, (train_ds, val_ds), budget in [(1, small, 40), (8, frozen_windows(), 2)]:
            cfg = TrainConfig(max_updates=budget, patience=budget)
            m1, t1 = train(init_weights(8, channels=channels), train_ds, val_ds, cfg)
            m2, t2 = train(init_weights(8, channels=channels), train_ds, val_ds, cfg)
            npt.assert_array_equal(m1.to_vector(), m2.to_vector())
            npt.assert_array_equal(t1.train_rmse, t2.train_rmse)
            npt.assert_array_equal(t1.val_rmse, t2.val_rmse)

    def test_returned_model_val_matches_trace_best(self):
        rng = np.random.default_rng(211)
        s = series_of(np.cumsum(rng.normal(0, 1, 60)))
        train_ds = make_windows(s, range(0, 45))
        val_ds = make_windows(s, range(45, 60))
        trained, trace = train(
            init_weights(3), train_ds, val_ds, TrainConfig(max_updates=60, patience=60)
        )
        got = rmse_loss(predict_dataset(trained, val_ds), val_ds.targets)
        npt.assert_allclose(got, trace.val_rmse[trace.best_update], rtol=1e-12)
        assert len(trace) <= 60


def unfused_train(model, train_ds, val_ds, cfg):
    """The training loop written out from the public pieces, one step at a time.

    Every update recomputes the training forward pass for the gradient,
    rebuilds the model from the flat vector, and evaluates both RMSEs.
    """
    params = model.to_vector()
    mask = model.weight_mask()
    zeros = np.zeros(params.size)
    state = AdamState(zeros, zeros, 0, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    current = model
    train_curve, val_curve = [], []
    best_val, best_params, best_update, stale = math.inf, params.copy(), 0, 0
    stop_reason = STOP_MAX_UPDATES
    for update in range(cfg.max_updates):
        resid = forward_batch(current, train_ds.inputs) - train_ds.targets
        rmse = math.sqrt(float(np.mean(resid**2)))
        grad = np.zeros(params.size)
        if rmse > 0.0:
            grad += backward_batch(current, train_ds.inputs, resid / (resid.size * rmse))
        grad += (2.0 * cfg.l2_lambda) * mask * params
        params, state = adam_step(params, grad, state)
        current = model.from_vector(params)
        train_curve.append(rmse_loss(forward_batch(current, train_ds.inputs), train_ds.targets))
        val_curve.append(rmse_loss(forward_batch(current, val_ds.inputs), val_ds.targets))
        if val_curve[-1] < best_val:
            best_val, best_params, best_update, stale = val_curve[-1], params.copy(), update, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stop_reason = STOP_EARLY
                break
    trace = TrainingTrace(np.array(train_curve), np.array(val_curve), stop_reason, best_update)
    return model.from_vector(best_params), trace


def frozen_windows():
    prep = prepare(generate(SyntheticClockSpec()), fit_on_full=True)
    return (
        make_windows(prep.residual_norm, prep.split.train_range),
        make_windows(prep.residual_norm, prep.split.val_range),
    )


class TestFusedTrain:
    @pytest.mark.parametrize(
        "cfg, stop_reason",
        [
            (TrainConfig(max_updates=50, patience=50), STOP_MAX_UPDATES),
            (TrainConfig(max_updates=200, patience=5, lr=0.05), STOP_EARLY),
        ],
    )
    def test_bit_identical_to_unfused_loop_at_one_channel(self, cfg, stop_reason):
        train_ds, val_ds = frozen_windows()
        model0 = init_weights(56934)
        fused, trace = train(model0, train_ds, val_ds, cfg)
        ref, ref_trace = unfused_train(model0, train_ds, val_ds, cfg)
        assert trace.stop_reason == ref_trace.stop_reason == stop_reason
        assert trace.best_update == ref_trace.best_update
        npt.assert_array_equal(trace.train_rmse, ref_trace.train_rmse)
        npt.assert_array_equal(trace.val_rmse, ref_trace.val_rmse)
        npt.assert_array_equal(fused.to_vector(), ref.to_vector())

    def test_frozen_run_is_pinned_bit_for_bit(self):
        """The frozen 2000-update run, pinned by the sha256 of its model and trace,
        so that a change in rounding fails here and not only in the benchmark."""
        train_ds, val_ds = frozen_windows()
        model, trace = train(init_weights(56934), train_ds, val_ds, TrainConfig())
        assert len(trace) == 2000
        digests = [
            hashlib.sha256(text.encode()).hexdigest()
            for text in (model_to_json(model), trace_to_csv(trace))
        ]
        assert digests == [
            "87123b5f0af59cb66dc6a9a669ab6b9eb773c5a4d0d8e11574ae4d32cb619a4a",
            "2f57626f1ffd857ed5d2b873ba61dffe6b74a7bcf0d0dafb65a284a0f75b1d74",
        ], kernel_pin_message()

    def test_matches_unfused_loop_at_two_channels(self):
        train_ds, val_ds = frozen_windows()
        model0 = init_weights(11, channels=2)
        cfg = TrainConfig(max_updates=50, patience=50)
        fused, trace = train(model0, train_ds, val_ds, cfg)
        ref, ref_trace = unfused_train(model0, train_ds, val_ds, cfg)
        assert trace.best_update == ref_trace.best_update
        npt.assert_allclose(trace.train_rmse, ref_trace.train_rmse, rtol=0, atol=1e-12)
        npt.assert_allclose(trace.val_rmse, ref_trace.val_rmse, rtol=0, atol=1e-12)
        npt.assert_allclose(fused.to_vector(), ref.to_vector(), rtol=0, atol=1e-12)


class TestFailLoudly:

    def test_config_accepts_boundary_betas(self):
        TrainConfig(beta1=0.0, beta2=0.0)

    def test_non_finite_validation_names_the_update(self):
        train_ds, val_ds = frozen_windows()
        targets = val_ds.targets.copy()
        targets[3] = math.nan
        bad_val = WindowDataset(val_ds.inputs, targets)
        with pytest.raises(ValueError, match="update 1: .*validation RMSE nan"):
            train(init_weights(56934), train_ds, bad_val, TrainConfig(max_updates=5))


class TestTrainingTrace:
    def test_csv_round_trips_by_eye(self):
        from clockpred.training import trace_to_csv

        trace = TrainingTrace(np.array([0.5, 0.25]), np.array([0.6, 0.3]), STOP_MAX_UPDATES, 1)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "update,train_rmse,val_rmse"
        assert lines[1] == "1,0.5,0.6"
        assert lines[2] == "2,0.25,0.3"


REPORT_COLUMNS = ["epochs", "actual_ns", "cnn_pred_ns", "kf_pred_ns", "cnn_diff_ns", "kf_diff_ns"]
ADAM = (0, 0.1, 0.9, 0.999, 1e-8)

FLOATS = np.linspace(1.0, 2.0, 12)
EPOCHS = 56934 + 5 * np.arange(12, dtype=np.int64)

# Each value type built from a view ``a`` of a caller's array, the field that holds it,
# and the base array ``a`` is a view of.
FREEZING_SITES = {
    "ConvLayer.kernel": (lambda a: ConvLayer(a[:4], np.zeros(1)), "kernel", FLOATS),
    "ConvLayer.bias": (lambda a: ConvLayer(np.ones(4), a[:1]), "bias", FLOATS),
    "CnnModel.head_weights": (
        lambda a: CnnModel(init_weights(0).layers, a[:5], 0.0), "head_weights", FLOATS
    ),
    "TimeSeries.values": (
        lambda a: TimeSeries(56934 + 5 * np.arange(7), a[:7], 5), "values", FLOATS
    ),
    "TimeSeries.epochs": (lambda a: TimeSeries(a[:7], np.ones(7), 5), "epochs", EPOCHS),
    "WindowDataset.inputs": (
        lambda a: WindowDataset(a[:10].reshape(2, 5), np.ones(2)), "inputs", FLOATS
    ),
    "WindowDataset.targets": (
        lambda a: WindowDataset(np.ones((2, 5)), a[:2]), "targets", FLOATS
    ),
    "AdamState.m": (lambda a: AdamState(a[:3], np.ones(3), *ADAM), "m", FLOATS),
    "AdamState.v": (lambda a: AdamState(np.ones(3), a[:3], *ADAM), "v", FLOATS),
    "TrainingTrace.train_rmse": (
        lambda a: TrainingTrace(a[:3], np.ones(3), STOP_MAX_UPDATES, 0), "train_rmse", FLOATS
    ),
    "TrainingTrace.val_rmse": (
        lambda a: TrainingTrace(np.ones(3), a[:3], STOP_MAX_UPDATES, 0), "val_rmse", FLOATS
    ),
    **{
        f"PredictionReport.{name}": (
            lambda a, i=i: PredictionReport(
                *(a[:2] if j == i else np.ones(2) for j in range(6)), 2, 1.0, 1.0
            ),
            name,
            FLOATS,
        )
        for i, name in enumerate(REPORT_COLUMNS)
    },
}


@pytest.mark.parametrize("build, name, base", FREEZING_SITES.values(), ids=FREEZING_SITES.keys())
def test_value_types_freeze_a_copy_of_the_callers_array(build, name, base):
    """The caller's array stays writable, and writing to it or to its base leaves the
    validated value as it was."""
    base = base.copy()
    view = base[:10]
    frozen = getattr(build(view), name)
    before = frozen.copy()
    assert view.flags.writeable and not frozen.flags.writeable
    view[0] = -1
    base += 1
    npt.assert_array_equal(frozen, before)


bind_groups(globals(), REFUSALS, refusal_test)
