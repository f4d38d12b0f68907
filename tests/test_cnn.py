"""Tests for the convolutional network: forward oracles, exact gradients, serialization."""

import numpy as np
import numpy.testing as npt
import pytest

from clockpred.cnn import (
    KERNEL_SIZES,
    CnnModel,
    ConvLayer,
    backward,
    backward_batch,
    conv1d_forward,
    forward,
    forward_batch,
    init_weights,
    model_from_json,
    model_to_json,
    relu,
)
from tests.helpers import (
    batch_loops_oracle,
    conv_oracle,
    fd_gradient,
    forward_oracle,
    kink_free_instance,
)


class TestRelu:
    def test_reference_values(self):
        npt.assert_array_equal(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        npt.assert_array_equal(relu([-3.0, -0.5]), [0.0, 0.0])

    def test_all_positive_is_identity(self):
        npt.assert_array_equal(relu([0.1, 7.0]), [0.1, 7.0])


class TestConv1dForward:
    def test_identity_kernel(self):
        layer = ConvLayer([0.0, 1.0, 0.0], 0.0)
        npt.assert_array_equal(
            conv1d_forward([1.0, 2.0, 3.0, 4.0, 5.0], layer), [1.0, 2.0, 3.0, 4.0, 5.0]
        )

    def test_zero_input_yields_bias(self):
        layer = ConvLayer([0.3, -0.1, 0.9, 0.2], 1.5)
        npt.assert_array_equal(conv1d_forward(np.zeros(5), layer), np.full(5, 1.5))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.choice([3, 4]))
            width = int(rng.integers(1, 9))
            kernel = rng.normal(size=k)
            bias = float(rng.normal())
            x = rng.normal(size=width)
            got = conv1d_forward(x, ConvLayer(kernel, bias))
            npt.assert_allclose(got, conv_oracle(x, kernel, bias), atol=1e-12)

    def test_output_length_preserved(self):
        rng = np.random.default_rng(5)
        for k in (3, 4):
            for width in (1, 2, 5, 11):
                out = conv1d_forward(
                    rng.normal(size=width), ConvLayer(rng.normal(size=k), 0.0)
                )
                assert out.shape == (width,)

    def test_even_kernel_pads_extra_cell_left(self):
        # kernel [0,0,1,0] with left pad 2 selects x[j]; [0,1,0,0] selects x[j-1]
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        npt.assert_array_equal(conv1d_forward(x, ConvLayer([0, 0, 1, 0], 0.0)), x)
        npt.assert_array_equal(
            conv1d_forward(x, ConvLayer([0, 1, 0, 0], 0.0)), [0.0, 1.0, 2.0, 3.0, 4.0]
        )

    def test_channel_mismatch(self):
        layer = ConvLayer(np.zeros((1, 2, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="channels"):
            conv1d_forward(np.zeros(5), layer)


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

    def test_window_length_checked(self):
        with pytest.raises(ValueError, match="width"):
            forward(init_weights(0), np.zeros(6))

    def test_identity_kernel_composition_selects_one_coordinate(self):
        layers = (
            ConvLayer([0.0, 1.0, 0.0, 0.0], 0.0),
            ConvLayer([0.0, 1.0, 0.0], 0.0),
            ConvLayer([0.0, 1.0, 0.0], 0.0),
        )
        head = np.zeros(5)
        head[2] = 1.0
        model = CnnModel(layers, head, 0.0)
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


    @pytest.mark.parametrize("channels", [1, 2, 3])
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
    def test_kernel_length_enforced(self):
        bad = (
            ConvLayer(np.zeros(3), 0.0),
            ConvLayer(np.zeros(3), 0.0),
            ConvLayer(np.zeros(3), 0.0),
        )
        with pytest.raises(ValueError, match="kernel length"):
            CnnModel(bad, np.zeros(5), 0.0)

    def test_head_size_enforced(self):
        layers = tuple(ConvLayer(np.zeros(k), 0.0) for k in KERNEL_SIZES)
        with pytest.raises(ValueError, match="head"):
            CnnModel(layers, np.zeros(4), 0.0)

    def test_vector_round_trip(self):
        model = init_weights(7, channels=3)
        vec = model.to_vector()
        npt.assert_array_equal(model.from_vector(vec).to_vector(), vec)

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
            restored = model_from_json(model_to_json(model))
            npt.assert_array_equal(restored.to_vector(), model.to_vector())
            assert restored.channels == model.channels
            assert restored.input_width == model.input_width

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            model_from_json('{"layers": []}')
