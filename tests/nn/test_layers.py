"""Gradient checks and behavioural tests for every layer."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, ReLU


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestDense:
    def test_forward_shape_and_values(self, rng):
        layer = Dense(3, 2, rng=rng)
        layer.weight[...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias[...] = np.array([0.5, -0.5])
        x = np.array([[1.0, 2.0, 3.0]])
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[4.5, 4.5]])

    def test_gradients(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        check_layer_gradients(layer, x, rng)

    def test_rejects_wrong_input_width(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((2, 5)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_backward_requires_training_forward(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.forward(np.zeros((1, 2)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestConv2D:
    def test_forward_shape(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, pad=1, rng=rng)
        out = layer.forward(rng.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 8, 12, 12)

    def test_forward_known_values(self, rng):
        """Averaging kernel on a constant image returns the constant."""
        layer = Conv2D(1, 1, kernel_size=3, pad=0, rng=rng)
        layer.weight[...] = np.full((1, 1, 3, 3), 1.0 / 9.0)
        layer.bias[...] = 0.0
        out = layer.forward(np.full((1, 1, 5, 5), 7.0))
        np.testing.assert_allclose(out, np.full((1, 1, 3, 3), 7.0))

    def test_gradients(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, pad=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))
        check_layer_gradients(layer, x, rng)

    def test_gradients_strided(self, rng):
        layer = Conv2D(1, 2, kernel_size=2, stride=2, rng=rng)
        x = rng.normal(size=(2, 1, 4, 4))
        check_layer_gradients(layer, x, rng)

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2D(3, 4, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 2, 8, 8)))


class TestMaxPool2D:
    def test_forward_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer.forward(x, train=True)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(grad[0, 0], expected)

    def test_gradients_numeric(self, rng):
        # distinct values so argmax is stable under perturbation
        layer = MaxPool2D(2)
        x = rng.permutation(64).astype(np.float64).reshape(1, 4, 4, 4)
        check_layer_gradients(layer, x, rng)

    def test_multichannel_independence(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = MaxPool2D(2).forward(x)
        for c in range(3):
            single = MaxPool2D(2).forward(x[:, c : c + 1])
            np.testing.assert_allclose(out[:, c : c + 1], single)

    def test_rejects_non_tiling(self):
        with pytest.raises(ValueError, match="does not tile"):
            MaxPool2D(3).forward(np.zeros((1, 1, 4, 4)))

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ValueError, match="pool_size"):
            MaxPool2D(0)


class TestActivations:
    @pytest.mark.parametrize(
        "layer_cls", [ReLU], ids=lambda c: c.__name__
    )
    def test_gradients(self, layer_cls, rng):
        layer = layer_cls()
        x = rng.normal(size=(4, 6)) + 0.1  # avoid the ReLU kink at 0
        check_layer_gradients(layer, x, rng)

    def test_relu_clamps_negative(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])


class TestFlattenAndPool:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x, train=True)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)


class TestBatchNorm:
    def test_normalizes_training_batch(self, rng):
        layer = BatchNorm(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
        out = layer.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_gradients_2d(self, rng):
        layer = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        check_layer_gradients(layer, x, rng, atol=1e-5, rtol=1e-3)

    def test_gradients_4d(self, rng):
        layer = BatchNorm(2)
        x = rng.normal(size=(3, 2, 4, 4))
        check_layer_gradients(layer, x, rng, atol=1e-5, rtol=1e-3)

    def test_running_stats_converge(self, rng):
        layer = BatchNorm(4, momentum=0.5)
        for _ in range(50):
            layer.forward(rng.normal(loc=2.0, size=(128, 4)), train=True)
        np.testing.assert_allclose(layer.running_mean, 2.0, atol=0.2)
        np.testing.assert_allclose(layer.running_var, 1.0, atol=0.2)

    def test_inference_uses_running_stats(self, rng):
        layer = BatchNorm(4)
        for _ in range(20):
            layer.forward(rng.normal(size=(64, 4)), train=True)
        x = rng.normal(size=(8, 4))
        out1 = layer.forward(x, train=False)
        out2 = layer.forward(x, train=False)
        np.testing.assert_allclose(out1, out2)
