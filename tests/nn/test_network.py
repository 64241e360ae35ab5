"""Integration tests for Sequential: training, tapping, serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    softmax,
)


def make_mlp(rng):
    return Sequential(
        [Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)]
    )


def make_cnn(rng):
    return Sequential(
        [
            Conv2D(1, 4, kernel_size=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 8, rng=rng),
            ReLU(),
            Dense(8, 2, rng=rng),
        ]
    )


class TestSequentialBasics:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_num_parameters(self):
        rng = np.random.default_rng(0)
        net = make_mlp(rng)
        assert net.num_parameters() == 2 * 16 + 16 + 16 * 2 + 2

    def test_forward_to_taps_intermediate(self):
        rng = np.random.default_rng(0)
        net = make_mlp(rng)
        x = rng.normal(size=(3, 2))
        hidden = net.forward_to(x, 1)  # after ReLU
        assert hidden.shape == (3, 16)
        assert np.all(hidden >= 0)
        # negative index counts from the end
        np.testing.assert_allclose(net.forward_to(x, -1), net.forward(x))

    def test_forward_to_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        net = make_mlp(rng)  # 3 layers
        x = rng.normal(size=(2, 2))
        with pytest.raises(IndexError, match="out of range"):
            net.forward_to(x, 3)
        with pytest.raises(IndexError, match="out of range"):
            net.forward_to(x, -4)

    def test_tapped_forward_matches_forward_to(self):
        """forward(x, taps=[...]) returns the logits plus every tapped
        activation from one pass, equal to the per-layer probes."""
        rng = np.random.default_rng(2)
        net = make_cnn(rng)
        x = rng.normal(size=(3, 1, 8, 8))
        out, taps = net.forward(x, taps=[1, 5])
        np.testing.assert_array_equal(out, net.forward(x))
        np.testing.assert_array_equal(taps[1], net.forward_to(x, 1))
        np.testing.assert_array_equal(taps[5], net.forward_to(x, 5))

    def test_tapped_forward_keeps_negative_keys(self):
        rng = np.random.default_rng(3)
        net = make_mlp(rng)
        x = rng.normal(size=(2, 2))
        out, taps = net.forward(x, taps=[-2, -1])
        assert set(taps) == {-2, -1}
        np.testing.assert_array_equal(taps[-1], out)
        np.testing.assert_array_equal(taps[-2], net.forward_to(x, -2))

    def test_tapped_forward_rejects_out_of_range(self):
        rng = np.random.default_rng(4)
        net = make_mlp(rng)
        with pytest.raises(IndexError, match="out of range"):
            net.forward(rng.normal(size=(2, 2)), taps=[7])

    def test_predict_logits_batches_match_full(self):
        rng = np.random.default_rng(1)
        net = make_mlp(rng)
        x = rng.normal(size=(17, 2))
        np.testing.assert_allclose(
            net.predict_logits(x, batch_size=4), net.forward(x), atol=1e-12
        )


class TestTraining:
    def test_learns_xor(self):
        """An MLP must drive XOR training loss near zero — a full
        end-to-end check of forward, backward and optimizer wiring."""
        rng = np.random.default_rng(7)
        net = Sequential(
            [Dense(2, 16, rng=rng), ReLU(), Dense(16, 16, rng=rng), ReLU(),
             Dense(16, 2, rng=rng)]
        )
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
        y = np.array([0, 1, 1, 0])
        loss_fn = SoftmaxCrossEntropy()
        opt = Adam(lr=0.01)
        for _ in range(400):
            logits = net.forward(x, train=True)
            loss_fn(logits, y)
            net.backward(loss_fn.backward())
            opt.step(net.param_groups())
        final = loss_fn(net.forward(x), y)
        assert final < 0.05
        assert np.array_equal(net.forward(x).argmax(axis=1), y)

    def test_cnn_learns_simple_pattern(self):
        """A tiny CNN separates left-bright from right-bright images."""
        rng = np.random.default_rng(11)
        net = make_cnn(rng)
        n = 40
        x = rng.normal(scale=0.1, size=(n, 1, 8, 8))
        y = np.zeros(n, dtype=int)
        y[n // 2 :] = 1
        x[: n // 2, :, :, :4] += 1.0
        x[n // 2 :, :, :, 4:] += 1.0

        loss_fn = SoftmaxCrossEntropy()
        opt = Adam(lr=0.01)
        for _ in range(60):
            logits = net.forward(x, train=True)
            loss_fn(logits, y)
            net.backward(loss_fn.backward())
            opt.step(net.param_groups())
        acc = float((net.forward(x).argmax(axis=1) == y).mean())
        assert acc == 1.0


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        net = make_cnn(rng)
        x = rng.normal(size=(2, 1, 8, 8))
        expected = net.forward(x)
        path = tmp_path / "weights.npz"
        net.save(path)

        net2 = make_cnn(np.random.default_rng(999))  # different init
        net2.load(path)
        np.testing.assert_allclose(net2.forward(x), expected)

    def test_get_set_weights_roundtrip(self):
        rng = np.random.default_rng(4)
        net = make_mlp(rng)
        weights = net.get_weights()
        net2 = make_mlp(np.random.default_rng(5))
        net2.set_weights(weights)
        x = rng.normal(size=(3, 2))
        np.testing.assert_allclose(net.forward(x), net2.forward(x))

    def test_set_weights_rejects_shape_mismatch(self):
        rng = np.random.default_rng(6)
        net = make_mlp(rng)
        weights = net.get_weights()
        weights["0.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.set_weights(weights)

    def test_set_weights_rejects_missing_and_extra(self):
        rng = np.random.default_rng(8)
        net = make_mlp(rng)
        weights = net.get_weights()
        del weights["0.bias"]
        with pytest.raises(KeyError):
            net.set_weights(weights)
        weights = net.get_weights()
        weights["junk"] = np.zeros(1)
        with pytest.raises(KeyError, match="unused"):
            net.set_weights(weights)


class TestGradientFlow:
    def test_end_to_end_gradient_direction(self):
        """One Adam step on a batch must reduce the loss (small lr)."""
        rng = np.random.default_rng(9)
        net = make_mlp(rng)
        x = rng.normal(size=(16, 2))
        y = rng.integers(0, 2, size=16)
        loss_fn = SoftmaxCrossEntropy()
        before = loss_fn(net.forward(x, train=True), y)
        net.backward(loss_fn.backward())
        from repro.nn import Adam

        Adam(lr=0.01).step(net.param_groups())
        after = loss_fn(net.forward(x), y)
        assert after < before

    def test_softmax_of_logits_rows_normalized(self):
        rng = np.random.default_rng(10)
        net = make_mlp(rng)
        probs = softmax(net.forward(rng.normal(size=(5, 2))))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
