"""Tests for optimizers: exact update formulas and convergence."""

import numpy as np
import pytest

from repro.nn.optim import (
    Adam,
    decode_slot_key,
    encode_slot_key,
    flatten_state,
    unflatten_state,
)


def quadratic_groups(param):
    """Parameter groups for minimizing ``0.5 * ||p - 3||^2``."""
    grad = param - 3.0
    return [(("p",), param, grad)]


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """Adam's bias-corrected first step is ~lr regardless of grad scale."""
        for scale in (1e-4, 1.0, 1e4):
            param = np.array([0.0])
            Adam(lr=0.01).step([(("p",), param, np.array([scale]))])
            assert param[0] == pytest.approx(-0.01, rel=1e-4)

    def test_converges_on_quadratic(self):
        param = np.zeros(3)
        opt = Adam(lr=0.1)
        for _ in range(500):
            opt.step(quadratic_groups(param))
        np.testing.assert_allclose(param, 3.0, atol=1e-4)

    def test_separate_state_per_slot(self):
        opt = Adam(lr=0.1)
        p1, p2 = np.array([0.0]), np.array([0.0])
        opt.step([(("a",), p1, np.array([1.0]))])
        opt.step([(("b",), p2, np.array([1.0]))])
        # both got a bias-corrected first step, not a second step
        assert p1[0] == pytest.approx(p2[0])

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_weight_decay_applies_to_matrices_only(self):
        opt = Adam(lr=0.1, weight_decay=0.1)
        mat = np.ones((2, 2))
        vec = np.ones(2)
        opt.step([(("m",), mat, np.zeros((2, 2))), (("v",), vec, np.zeros(2))])
        # the decay term is the matrix's whole gradient, so its first
        # bias-corrected step is ~lr; the bias sees a zero gradient
        np.testing.assert_allclose(mat, 0.9, rtol=1e-6)
        np.testing.assert_array_equal(vec, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": -1.0},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
            {"eps": 0.0},
            {"eps": -1e-8},
            {"eps": float("nan")},
            {"eps": float("inf")},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        # the NaN, infinite and eps cases used to construct, and most
        # of them then put NaN into the weights on the first step
        with pytest.raises(ValueError):
            Adam(**kwargs)


class TestOptimizerState:
    def test_adam_roundtrip_resumes_trajectory(self):
        param_a = np.zeros(3)
        opt_a = Adam(lr=0.1)
        for _ in range(10):
            opt_a.step(quadratic_groups(param_a))
        snapshot_param = param_a.copy()
        snapshot_state = opt_a.get_state()
        for _ in range(5):
            opt_a.step(quadratic_groups(param_a))
        reference = param_a.copy()

        param_b = snapshot_param.copy()
        opt_b = Adam(lr=0.1)
        opt_b.set_state(snapshot_state)
        for _ in range(5):
            opt_b.step(quadratic_groups(param_b))
        np.testing.assert_array_equal(param_b, reference)

    def test_adam_state_snapshot_is_independent(self):
        """get_state copies buffers; later steps must not mutate it."""
        param = np.zeros(1)
        opt = Adam(lr=0.1)
        opt.step(quadratic_groups(param))
        state = opt.get_state()
        frozen_m = state["m"][("p",)].copy()
        opt.step(quadratic_groups(param))
        np.testing.assert_array_equal(state["m"][("p",)], frozen_m)

    def test_adam_rejects_inconsistent_slots(self):
        opt = Adam(lr=0.1)
        with pytest.raises(ValueError):
            opt.set_state(
                {"m": {("p",): np.zeros(1)}, "v": {}, "t": {("p",): 1}}
            )

    def test_adam_rejects_unknown_slot_names(self):
        opt = Adam(lr=0.1)
        with pytest.raises(ValueError, match="unknown Adam state slots"):
            opt.set_state({"velocity": {("p",): np.zeros(1)}})


class TestStateFlattening:
    def test_roundtrip(self):
        state = {
            "m": {(0, "W"): np.arange(4.0), (2, "b"): np.zeros(2)},
            "t": {(0, "W"): 7, (2, "b"): 3},
        }
        flat = flatten_state(state)
        assert set(flat) == {"m/0.W", "m/2.b", "t/0.W", "t/2.b"}
        back = unflatten_state(flat)
        assert set(back) == {"m", "t"}
        np.testing.assert_array_equal(back["m"][(0, "W")], np.arange(4.0))
        assert int(back["t"][(2, "b")]) == 3

    def test_slot_key_codec(self):
        assert encode_slot_key((0, "W")) == "0.W"
        assert decode_slot_key("0.W") == (0, "W")
        assert decode_slot_key("p") == ("p",)
        # names containing dots survive: only the first dot splits
        assert decode_slot_key("3.state.mean") == (3, "state.mean")

    def test_unflatten_rejects_malformed_key(self):
        with pytest.raises(ValueError):
            unflatten_state({"no-slash": np.zeros(1)})
