"""Tests for the convolutional network: forward oracles, exact gradients, serialization."""

import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest

from clockpred.cnn import (
    DEFAULT_INPUT_WIDTH,
    KERNEL_SIZES,
    CnnModel,
    ConvLayer,
    backward,
    backward_batch,
    backward_cached,
    forward,
    forward_batch,
    forward_cached,
    init_weights,
    load_model,
    model_to_json,
)
from tests.helpers import (
    batch_loops_oracle,
    bind_groups,
    conv_oracle,
    correlate_reference,
    fd_gradient,
    forward_oracle,
    forward_reference,
    kink_free_instance,
    one_position_model,
)
from tests.test_cli import CLI_REFUSALS, cli_refusal_test
from tests.test_refusals import REFUSALS, refusal_test


def first_layer_outputs(window, first_kernel, first_bias=0.0):
    """The first layer's rectified output, read position by position through ``forward``."""
    return [
        forward(one_position_model(first_kernel, j, first_bias), window)
        for j in range(DEFAULT_INPUT_WIDTH)
    ]


class TestRelu:
    """The ReLU inside ``forward``, read position by position."""

    def test_reference_values(self):
        assert first_layer_outputs([-1.0, 0.0, 2.0, 0.0, 0.0], [0, 0, 1, 0])[:3] == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert first_layer_outputs([-3.0, -0.5, -1.0, -2.0, -4.0], [0, 0, 1, 0]) == [0.0] * 5

    def test_all_positive_is_identity(self):
        x = [0.1, 7.0, 0.5, 2.0, 3.0]
        assert first_layer_outputs(x, [0, 0, 1, 0]) == x


class TestConv1dForward:
    """One layer's zero-padded cross-correlation: inside ``forward``, read position
    by position, and in ``correlate_reference``, whose bits ``forward`` must keep."""

    def test_zero_input_yields_bias(self):
        assert first_layer_outputs(np.zeros(5), [0.3, -0.1, 0.9, 0.2], 1.5) == [1.5] * 5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.choice([3, 4]))
            width = int(rng.integers(1, 9))
            kernel = rng.normal(size=k)
            bias = float(rng.normal())
            x = rng.normal(size=width)
            got = correlate_reference(x.reshape(1, -1), ConvLayer(kernel, bias))
            npt.assert_allclose(got[0], conv_oracle(x, kernel, bias), atol=1e-12)

    def test_output_length_preserved(self):
        rng = np.random.default_rng(5)
        for k in (3, 4):
            for width in (1, 2, 5, 11):
                out = correlate_reference(
                    rng.normal(size=(1, width)), ConvLayer(rng.normal(size=k), 0.0)
                )
                assert out.shape == (1, width)

    def test_even_kernel_pads_extra_cell_left(self):
        # kernel [0,0,1,0] with left pad 2 selects x[j]; [0,1,0,0] selects x[j-1]
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert first_layer_outputs(x, [0, 0, 1, 0]) == x
        assert first_layer_outputs(x, [0, 1, 0, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0]


def float_bits(values) -> list[bytes]:
    """Each value's IEEE 754 bytes: equal lists are equal bit for bit, NaN and signed zeros
    included."""
    return [np.float64(v).tobytes() for v in values]


def perturbed_model(seed, channels, scale=0.5):
    rng = np.random.default_rng(seed)
    model = init_weights(seed, channels=channels)
    return model.from_vector(model.to_vector() + rng.normal(0, scale, model.num_params))


class TestForwardBits:
    """``forward`` returns :func:`forward_reference`'s bits, which the compare report pins."""

    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    def test_random_models_and_windows(self, channels):
        rng = np.random.default_rng(1700 + channels)
        for trial in range(50):
            model = perturbed_model(100 * channels + trial, channels)
            windows = rng.uniform(-1, 1, (20, DEFAULT_INPUT_WIDTH))
            assert float_bits([forward(model, w) for w in windows]) == float_bits(
                [forward_reference(model, w) for w in windows]
            )

    @pytest.mark.parametrize("channels", [1, 3])
    def test_zero_and_signed_zero_windows(self, channels):
        windows = [np.zeros(5), np.full(5, -0.0), [0.0, -0.0, 0.0, -0.0, 0.0]]
        models = [perturbed_model(seed, channels) for seed in range(20)]
        base = init_weights(0, channels)
        zeros = [base.from_vector(np.full(base.num_params, z)) for z in (0.0, -0.0)]
        for model in zeros + models:
            assert float_bits([forward(model, w) for w in windows]) == float_bits(
                [forward_reference(model, w) for w in windows]
            )

    @pytest.mark.parametrize("where", ["kernel", "head-bias"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_huge_parameters_overflow_alike(self, where, channels):
        """1e308 is a finite parameter, but 1e308 kernel entries drive outputs to inf
        and nan, and a 1e308 head bias the errors; both must come out as the
        reference's, so ``compare`` refuses them."""
        rng = np.random.default_rng(17)
        got, want = [], []
        for seed in range(10):
            model = perturbed_model(seed, channels)
            vec = model.to_vector()
            views = model.param_views(vec)
            if where == "kernel":
                for kernel in views.kernels:
                    kernel.flat[seed % kernel.size] = 1e308 * (-1) ** seed
            else:
                views.head_bias[:] = 1e308
            model = model.from_vector(vec)
            windows = rng.uniform(-1, 1, (20, DEFAULT_INPUT_WIDTH))
            with np.errstate(over="ignore", invalid="ignore"):
                got += [forward(model, w) for w in windows]
                want += [forward_reference(model, w) for w in windows]
        assert float_bits(got) == float_bits(want)
        if where == "kernel":
            assert np.isinf(got).any() and np.isnan(got).any()

    def test_frozen_test_windows(self):
        from benchmarks.workloads import build_fixture
        from clockpred.predictor import window_matrix

        fx = build_fixture()
        windows = window_matrix(fx.prepared.residual_norm, fx.prepared.split.test_range)
        assert len(windows) == 100
        assert float_bits([forward(fx.model, w) for w in windows]) == float_bits(
            [forward_reference(fx.model, w) for w in windows]
        )


class TestForward:
    def test_zero_model_outputs_zero(self):
        model = init_weights(0).from_vector(np.zeros(19))
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert forward(model, rng.normal(size=5)) == 0.0

    def test_zero_head_weights_output_bias(self):
        model = init_weights(3)
        vec = model.to_vector()
        vec[-6:-1] = 0.0
        vec[-1] = 2.5
        model = model.from_vector(vec)
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert forward(model, rng.normal(size=5)) == 2.5

    def test_matches_layerwise_oracle(self):
        rng = np.random.default_rng(103)
        for trial in range(60):
            channels = 1 if trial % 3 else 2
            model = init_weights(trial, channels=channels)
            vec = model.to_vector() + rng.normal(0, 0.5, model.num_params)
            model = model.from_vector(vec)
            window = rng.uniform(-1, 1, 5)
            npt.assert_allclose(
                forward(model, window), forward_oracle(model, window), atol=1e-12
            )

    def test_identity_kernel_composition_selects_one_coordinate(self):
        model = one_position_model([0, 1, 0, 0], 2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            window = rng.normal(size=5)
            assert forward(model, window) == max(0.0, window[1])

    def test_positive_homogeneity_in_head(self):
        rng = np.random.default_rng(6)
        model, window = kink_free_instance(rng)
        base = forward(model, window)
        for alpha in (0.5, 2.0, 7.25):
            vec = model.to_vector()
            vec[-6:] *= alpha
            npt.assert_allclose(forward(model.from_vector(vec), window), alpha * base, rtol=1e-12)


class TestBackward:
    def test_zero_upstream_zeroes_gradient(self):
        rng = np.random.default_rng(8)
        model, window = kink_free_instance(rng)
        npt.assert_array_equal(backward(model, window, 0.0).to_vector(), 0.0)

    def test_head_bias_gradient_is_upstream(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model, window = kink_free_instance(rng)
            up = float(rng.normal())
            assert backward(model, window, up).head_bias == up

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for trial in range(100):
            model, window = kink_free_instance(rng, channels=1 if trial % 4 else 2)
            analytic = backward(model, window, 1.0).to_vector()
            numeric = fd_gradient(model, window)
            for a, n in zip(analytic, numeric):
                if max(abs(a), abs(n)) < 1e-8:
                    assert abs(a - n) < 1e-8
                else:
                    worst = max(worst, abs(a - n) / max(abs(a), abs(n)))
        assert worst < 1e-5

    def test_upstream_scales_linearly(self):
        rng = np.random.default_rng(10)
        model, window = kink_free_instance(rng)
        g1 = backward(model, window, 1.0).to_vector()
        g3 = backward(model, window, -3.0).to_vector()
        npt.assert_allclose(g3, -3.0 * g1, rtol=1e-12)

    def test_relu_subgradient_at_zero_is_zero(self):
        # center element reaches layer 2 exactly at zero; its path contributes nothing
        layers = (
            ConvLayer([0.0, 0.0, 1.0, 0.0], 0.0),
            ConvLayer([0.0, 1.0, 0.0], 0.0),
            ConvLayer([0.0, 1.0, 0.0], 0.0),
        )
        model = CnnModel(layers, np.ones(5), 0.0)
        grads = backward(model, np.zeros(5), 1.0)
        npt.assert_array_equal(grads.kernels[0], 0.0)


class TestBatchPaths:
    def test_forward_batch_matches_scalar(self):
        rng = np.random.default_rng(105)
        model = init_weights(12, channels=2)
        windows = rng.uniform(-1, 1, (30, 5))
        npt.assert_allclose(
            forward_batch(model, windows),
            [forward(model, w) for w in windows],
            atol=1e-14,
        )

    def test_backward_batch_matches_scalar_sum(self):
        rng = np.random.default_rng(106)
        model = init_weights(13)
        windows = rng.uniform(-1, 1, (25, 5))
        ups = rng.normal(size=25)
        total = np.zeros(model.num_params)
        for w, u in zip(windows, ups):
            total += backward(model, w, u).to_vector()
        npt.assert_allclose(backward_batch(model, windows, ups), total, atol=1e-12)


    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    def test_batch_paths_match_elementwise_loops(self, channels):
        rng = np.random.default_rng(108 + channels)
        for trial in range(5):
            model = init_weights(trial, channels=channels)
            model = model.from_vector(model.to_vector() + rng.normal(0, 0.3, model.num_params))
            windows = rng.uniform(-1, 1, (int(rng.integers(1, 160)), 5))
            ups = rng.normal(size=windows.shape[0])
            outputs, grad = batch_loops_oracle(model, windows, ups)
            got_outputs = forward_batch(model, windows)
            got_grad = backward_batch(model, windows, ups)
            if channels == 1:
                npt.assert_array_equal(got_outputs, outputs)
                npt.assert_array_equal(got_grad, grad)
            else:
                npt.assert_allclose(got_outputs, outputs, rtol=0, atol=1e-12)
                npt.assert_allclose(got_grad, grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("channels", [1, 8])
    def test_backward_through_first_rows_equals_backward_of_those_rows(self, channels):
        """Training takes its gradient through the first n windows of the stacked pass."""
        rng = np.random.default_rng(120 + channels)
        model = init_weights(channels, channels=channels)
        params = model.param_views(model.to_vector())
        windows = rng.uniform(-1, 1, (164, 5))
        stacked = forward_cached(params, windows)
        for n in (1, 57, 136, 164):
            ups = rng.normal(size=n)
            got, want = np.empty(model.num_params), np.empty(model.num_params)
            backward_cached(params, stacked, ups, model.param_views(got))
            alone = forward_cached(params, windows[:n])
            backward_cached(params, alone, ups, model.param_views(want))
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("channels", [2, 3, 8])
    def test_first_rows_have_the_pre_activations_of_a_pass_over_them(self, channels):
        """Training reads the first rows of a stacked pass; at these row counts their
        pre-activations are those of a pass over those rows alone.

        Not at every count: with OpenBLAS's SkylakeX kernel a GEMM over 16 or more
        terms rounds a tail of one to four columns differently, so at C=8 a count n
        with 5n % 8 in 1..4 can differ in the last bit.
        """
        rng = np.random.default_rng(140 + channels)
        model = init_weights(channels, channels=channels)
        params = model.param_views(model.to_vector())
        windows = rng.uniform(-1, 1, (164, 5))
        stacked = forward_cached(params, windows)
        for n in (1, 57, 136, 164):
            for got, want in zip(stacked.pre, forward_cached(params, windows[:n]).pre):
                npt.assert_array_equal(got[:, : 5 * n], want)

    @pytest.mark.parametrize("channels", [1, 8])
    def test_backward_twice_through_one_pass_equals_fresh_passes(self, channels):
        """The input-gradient buffer a pass owns carries nothing from one backward to the next."""
        rng = np.random.default_rng(150 + channels)
        model = init_weights(channels, channels=channels)
        params = model.param_views(model.to_vector())
        windows = rng.uniform(-1, 1, (164, 5))
        fwd = forward_cached(params, windows)
        for _ in range(2):
            ups = rng.normal(size=136)
            got, want = np.empty(model.num_params), np.empty(model.num_params)
            backward_cached(params, fwd, ups, model.param_views(got))
            fresh = forward_cached(params, windows)
            backward_cached(params, fresh, ups, model.param_views(want))
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("channels", [1, 8])
    def test_pass_into_earlier_buffers_equals_fresh_pass(self, channels):
        """Training writes each update's pass into the buffers of the first one."""
        rng = np.random.default_rng(130 + channels)
        model = init_weights(channels, channels=channels)
        views = model.param_views(model.to_vector())
        earlier = forward_cached(views, rng.uniform(-1, 1, (164, 5)))
        vec = model.to_vector() + rng.normal(0, 0.3, model.num_params)
        params = model.param_views(vec)
        windows = rng.uniform(-1, 1, (164, 5))
        got = forward_cached(params, windows, out=earlier)
        want = forward_cached(params, windows)
        for name in ("cols", "pre"):
            for got_arr, want_arr, buffer in zip(
                getattr(got, name), getattr(want, name), getattr(earlier, name)
            ):
                npt.assert_array_equal(got_arr, want_arr)
                assert np.shares_memory(got_arr, buffer)
        npt.assert_array_equal(got.features, want.features)
        npt.assert_array_equal(got.outputs, want.outputs)

    @pytest.mark.parametrize("channels", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 164])
    def test_caches_of_one_pass_never_alias(self, channels, n):
        """A fresh pass carves its caches from one block; no two arrays of a pass may
        overlap, neither then nor after a pass written into them."""
        rng = np.random.default_rng(160 + channels)
        model = init_weights(channels, channels=channels)
        params = model.param_views(model.to_vector())
        fresh = forward_cached(params, rng.uniform(-1, 1, (n, 5)))
        again = forward_cached(params, rng.uniform(-1, 1, (n, 5)), out=fresh)
        for fwd in (fresh, again):
            arrays = [*fwd.cols, *fwd.pre, fwd.scratch, fwd.features, fwd.outputs]
            for (i, a), (j, b) in itertools.combinations(enumerate(arrays), 2):
                assert not np.shares_memory(a, b), (i, j)

    @pytest.mark.parametrize("rows, channels", [(163, 8), (165, 8), (164, 2)])
    def test_pass_into_buffers_of_another_shape_is_refused(self, rows, channels):
        model = init_weights(3, channels=8)
        earlier = forward_cached(model.param_views(model.to_vector()), np.zeros((164, 5)))
        before = [arr.copy() for arr in earlier.cols + earlier.pre]
        other = init_weights(3, channels=channels)
        params = other.param_views(other.to_vector())
        with pytest.raises(ValueError, match="cannot reuse the buffers"):
            forward_cached(params, np.ones((rows, 5)), out=earlier)
        for arr, old in zip(earlier.cols + earlier.pre, before):
            npt.assert_array_equal(arr, old)


class TestInitWeights:
    def test_deterministic_per_seed(self):
        a = init_weights(42)
        b = init_weights(42)
        npt.assert_array_equal(a.to_vector(), b.to_vector())

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_weights(1).to_vector(), init_weights(2).to_vector())

    def test_bounds_and_zero_biases(self):
        for seed in range(20):
            model = init_weights(seed, channels=2)
            for layer, k in zip(model.layers, KERNEL_SIZES):
                fan_in = layer.kernel.shape[1] * k
                assert np.all(np.abs(layer.kernel) <= 1.0 / np.sqrt(fan_in))
                npt.assert_array_equal(layer.bias, 0.0)
            assert np.all(np.abs(model.head_weights) <= 1.0 / np.sqrt(10))
            assert model.head_bias == 0.0

    def test_parameter_count(self):
        assert init_weights(0).num_params == 19


class TestModelStructure:

    def test_vector_round_trip(self):
        model = init_weights(7, channels=3)
        vec = model.to_vector()
        npt.assert_array_equal(model.from_vector(vec).to_vector(), vec)

    def test_from_vector_keeps_no_view_of_the_vector(self):
        model = init_weights(7)
        vec = model.to_vector()
        frozen = model.from_vector(vec)
        before = forward(frozen, np.ones(DEFAULT_INPUT_WIDTH))
        vec += 1.0
        npt.assert_array_equal(frozen.to_vector(), model.to_vector())
        assert forward(frozen, np.ones(DEFAULT_INPUT_WIDTH)) == before

    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    def test_vector_layout(self, channels):
        """Per layer the kernel then the bias, then the head weights and the head bias."""
        rng = np.random.default_rng(channels)
        layers = tuple(
            ConvLayer(rng.normal(size=(channels, in_ch, k)), rng.normal(size=channels))
            for in_ch, k in zip((1, channels, channels), KERNEL_SIZES)
        )
        model = CnnModel(layers, rng.normal(size=channels * DEFAULT_INPUT_WIDTH), rng.normal())
        parts = [[layer.kernel.ravel(), layer.bias] for layer in layers]
        parts.append([model.head_weights, [model.head_bias]])
        npt.assert_array_equal(model.to_vector(), np.concatenate(sum(parts, [])))
        assert model.num_params == model.to_vector().size
        views = model.param_views(model.to_vector())
        for layer, kernel, bias in zip(layers, views.kernels, views.biases, strict=True):
            npt.assert_array_equal(kernel, layer.kernel)
            npt.assert_array_equal(bias, layer.bias)
        npt.assert_array_equal(views.head_weights, model.head_weights)
        npt.assert_array_equal(views.head_bias, [model.head_bias])
        mask = model.param_views(model.weight_mask())
        for view in (*mask.kernels, mask.head_weights):
            npt.assert_array_equal(view, 1.0)
        for view in (*mask.biases, mask.head_bias):
            npt.assert_array_equal(view, 0.0)

    def test_weight_mask_excludes_biases(self):
        model = init_weights(1)
        mask = model.weight_mask()
        assert mask.sum() == 4 + 3 + 3 + 5
        assert mask[-1] == 0.0


class TestSerialization:
    def test_load_save_identity(self, tmp_path):
        rng = np.random.default_rng(107)
        for channels in (1, 2):
            model = init_weights(int(rng.integers(0, 1000)), channels=channels)
            vec = model.to_vector() + rng.normal(0, 1, model.num_params)
            model = model.from_vector(vec)
            text = model_to_json(model)
            (tmp_path / "model.json").write_text(text)
            restored = load_model(tmp_path / "model.json")
            npt.assert_array_equal(restored.to_vector(), model.to_vector())
            assert restored.channels == model.channels
            assert json.loads(text)["config"]["width"] == DEFAULT_INPUT_WIDTH


bind_groups(globals(), REFUSALS, refusal_test)
bind_groups(globals(), CLI_REFUSALS, cli_refusal_test)
