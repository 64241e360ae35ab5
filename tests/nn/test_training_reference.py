"""The float64 training kernels against frozen copies of their earlier form.

Four training steps were made cheaper without changing a bit of their
results:

- ``col2im`` accumulates into a channels-last buffer instead of NCHW
  (it now reads ``(KH, KW, C)``-ordered columns, so the reference is fed
  the same values in ``(C, KH, KW)`` order);
- ``MaxPool2D`` groups its windows by a reshape instead of an
  ``im2col`` gather, and scatters its gradient back without ``col2im``;
- ``Adam`` runs its step in place, one 32,768-element block at a time
  with per-block scratch and weight decay, and splits a slot of four
  or more blocks into ranges that helper threads run (the reference is
  the out-of-place update over the whole slot, with the full-size
  weight decay ``Optimizer.step`` once formed);
- training stops the backward pass at the first layer with parameters
  (``Sequential.backward(grad, input_grad=False)``).

The references below are the earlier implementations.  Every check
compares raw bytes, so ``-0.0`` against ``0.0`` and the position a tied
maximum routes its gradient to both count.
"""

import numpy as np
import pytest

from repro.model.cnn import build_hotspot_cnn, build_hotspot_mlp
from repro.nn import BatchNorm, Dense, ReLU, Sequential
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn import optim, runtime
from repro.nn.layers import MaxPool2D
from repro.nn.optim import Adam

# ----------------------------------------------------------------------
# references, frozen
# ----------------------------------------------------------------------


def _ref_col2im(cols, input_shape, kernel_h, kernel_w, stride=1, pad=0):
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def _ref_maxpool_train(x, k, grad_out):
    """Training forward and backward through im2col/col2im."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, k, k, 0)
    out_w = conv_output_size(w, k, k, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), k, k, k, 0)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax].reshape(n, c, out_h, out_w)
    grad_cols = np.zeros(cols.shape, dtype=grad_out.dtype)
    grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_out.reshape(-1)
    grad = _ref_col2im(grad_cols, (n * c, 1, h, w), k, k, k, 0)
    return out, grad.reshape(n, c, h, w)


class _RefAdam:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m, self._v, self._t = {}, {}, {}

    def step(self, param_groups):
        for key, param, grad in param_groups:
            if self.weight_decay and param.ndim > 1:
                grad = grad + self.weight_decay * param
            self._update(key, param, grad)

    def _update(self, key, param, grad):
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _with_negative_zeros(values, rng, fraction=0.3):
    values = values.copy()
    values[rng.random(values.shape) < fraction] = -0.0
    return values


# ----------------------------------------------------------------------
# col2im
# ----------------------------------------------------------------------


def _to_nhwc_columns(cols, channels, kernel):
    """The same values with each row permuted from ``(C, KH, KW)`` to
    ``(KH, KW, C)``, the order col2im reads."""
    rows = cols.reshape(-1, channels, kernel, kernel).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(rows).reshape(cols.shape)


@pytest.mark.parametrize("channels", [1, 16, 32])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [2, 3])
def test_col2im_matches_nchw_accumulation(kernel, stride, pad, channels):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + channels)
    out_h, out_w = 6, 4  # non-square
    h = (out_h - 1) * stride + kernel - 2 * pad
    w = (out_w - 1) * stride + kernel - 2 * pad
    shape = (3, channels, h, w)
    cols = rng.normal(size=(3 * out_h * out_w, channels * kernel * kernel))
    cols = _with_negative_zeros(cols, rng)
    got = col2im(_to_nhwc_columns(cols, channels, kernel), shape,
                 kernel, kernel, stride, pad)
    want = _ref_col2im(cols, shape, kernel, kernel, stride, pad)
    assert got.flags.c_contiguous
    assert _same_bytes(got, want)


def test_col2im_all_negative_zero_terms_sum_to_positive_zero():
    cols = np.full((2 * 4 * 4, 3 * 9), -0.0)
    got = col2im(cols, (2, 3, 4, 4), 3, 3, 1, 1)
    assert _same_bytes(got, _ref_col2im(cols, (2, 3, 4, 4), 3, 3, 1, 1))
    assert not np.signbit(got).any()


# ----------------------------------------------------------------------
# MaxPool2D training path
# ----------------------------------------------------------------------


def _tied_input(rng, shape, nhwc):
    """Few distinct values, so most windows hold a tied maximum; both
    zeros appear, and the NHWC variant is an NCHW view over NHWC memory
    (the layout a conv output has)."""
    n, c, h, w = shape
    values = rng.integers(-2, 3, size=(n, h, w, c) if nhwc else shape)
    x = _with_negative_zeros(values.astype(np.float64), rng, 0.2)
    return x.transpose(0, 3, 1, 2) if nhwc else x


@pytest.mark.parametrize("nhwc", [False, True])
@pytest.mark.parametrize(
    "shape, pool",
    [((4, 3, 8, 6), 2), ((2, 16, 12, 12), 2), ((2, 5, 9, 6), 3)],
)
def test_maxpool_training_matches_im2col_path(shape, pool, nhwc):
    rng = np.random.default_rng(sum(shape) + 2 * pool + nhwc)
    x = _tied_input(rng, shape, nhwc)
    layer = MaxPool2D(pool)
    out = layer.forward(x, train=True)
    grad_out = _with_negative_zeros(rng.normal(size=out.shape), rng)
    grad = layer.backward(grad_out)
    want_out, want_grad = _ref_maxpool_train(x, pool, grad_out)
    assert _same_bytes(out, want_out)
    assert _same_bytes(grad, want_grad)


def test_maxpool_training_routes_nan_like_im2col_path():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 4))
    x[0, 1, 0, 1] = np.nan
    x[1, 2, 3, 2] = np.nan
    layer = MaxPool2D(2)
    out = layer.forward(x, train=True)
    grad_out = rng.normal(size=out.shape)
    want_out, want_grad = _ref_maxpool_train(x, 2, grad_out)
    assert _same_bytes(out, want_out)
    assert _same_bytes(layer.backward(grad_out), want_grad)


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------


def _adam_shapes():
    """Slots on both sides of the block edges and the split threshold."""
    block = optim._BLOCK
    return {
        "w": (6, 5),
        "b": (5,),
        "one": (1,),
        "block": (block,),
        "block+1": (block + 1,),
        # five blocks, the last one partial: split, decayed (a matrix)
        "partial": (4, block + 1000),
        # the MLP's first Dense: nine blocks, split, decayed
        "mlp": (4608, 64),
    }


def _groups(params, grads):
    return [((i, k), params[k], grads[k]) for i, k in enumerate(params)]


@pytest.mark.parametrize("case", ["plain", "weight_decay", "state_round_trip"])
def test_adam_matches_out_of_place_update(case, monkeypatch):
    kwargs = {"weight_decay": 1e-2} if case == "weight_decay" else {}
    round_trip_at = 10 if case == "state_round_trip" else None
    # one worker turns the split off; three cut the split slots into
    # more ranges than this machine may have CPUs
    for workers in (1, 2, 3):
        monkeypatch.setattr(runtime, "CPU_WORKERS", workers)
        rng = np.random.default_rng(17)
        start = {k: rng.normal(size=shape)
                 for k, shape in _adam_shapes().items()}
        params = {k: v.copy() for k, v in start.items()}
        params_ref = {k: v.copy() for k, v in start.items()}
        opt, ref = Adam(lr=1e-2, **kwargs), _RefAdam(lr=1e-2, **kwargs)
        for step in range(20):
            if step == round_trip_at:
                state = opt.get_state()
                opt = Adam(lr=1e-2, **kwargs)
                opt.set_state(state)
            grads = {
                k: _with_negative_zeros(rng.normal(size=v.shape), rng, 0.1)
                for k, v in start.items()
            }
            opt.step(_groups(params, grads))
            ref.step(_groups(params_ref, grads))
            for i, key in enumerate(start):
                where = (workers, step, key)
                assert _same_bytes(params[key], params_ref[key]), where
                assert _same_bytes(opt._m[(i, key)], ref._m[(i, key)]), where
                assert _same_bytes(opt._v[(i, key)], ref._v[(i, key)]), where
        # the captured state is a copy: later steps must not move it
        state = opt.get_state()
        frozen = {slot: {k: np.array(v, copy=True) for k, v in slots.items()}
                  for slot, slots in state.items()}
        opt.step(_groups(params, grads))
        for slot, slots in state.items():
            for key, value in slots.items():
                assert _same_bytes(value, frozen[slot][key]), (slot, key)


# ----------------------------------------------------------------------
# training backward stops at the first parameter layer
# ----------------------------------------------------------------------


def _bn_first_net(rng):
    # the first parameter layer is a Dense followed by BatchNorm
    return Sequential([Dense(12, 8, rng=rng), BatchNorm(8), ReLU(),
                       Dense(8, 2, rng=rng)])


def _leading_bn_net(rng):
    # the first parameter layer is the BatchNorm itself
    return Sequential([BatchNorm(12), Dense(12, 8, rng=rng), ReLU(),
                       Dense(8, 2, rng=rng)])


@pytest.mark.parametrize(
    "build, input_shape",
    [
        (lambda rng: build_hotspot_cnn((4, 8, 8), rng=rng,
                                       embedding_dim=6, base_channels=3)[0],
         (5, 4, 8, 8)),
        (lambda rng: build_hotspot_cnn((4, 8, 8), rng=rng, embedding_dim=6,
                                       base_channels=3, batch_norm=True)[0],
         (5, 4, 8, 8)),
        (lambda rng: build_hotspot_mlp((4, 6, 6), rng=rng)[0], (5, 4, 6, 6)),
        (_bn_first_net, (5, 12)),
        (_leading_bn_net, (5, 12)),
    ],
    ids=["cnn", "cnn_batchnorm", "mlp", "dense_then_batchnorm", "leading_batchnorm"],
)
def test_skipped_input_gradient_keeps_parameter_gradients(build, input_shape):
    full = build(np.random.default_rng(4))
    short = build(np.random.default_rng(4))
    x = np.random.default_rng(8).normal(size=input_shape)
    out = full.forward(x, train=True)
    assert _same_bytes(out, short.forward(x, train=True))
    grad = np.random.default_rng(9).normal(size=out.shape)

    assert full.backward(grad).shape == x.shape
    assert short.backward(grad, input_grad=False) is None
    groups_full = list(full.param_groups())
    groups_short = list(short.param_groups())
    assert [k for k, _, _ in groups_full] == [k for k, _, _ in groups_short]
    for (key, _, g_full), (_, _, g_short) in zip(groups_full, groups_short):
        assert _same_bytes(g_full, g_short), key


def test_first_parameter_layer_skips_its_input_gradient():
    net = build_hotspot_cnn((4, 8, 8), rng=np.random.default_rng(0),
                            embedding_dim=6, base_channels=3)[0]
    first = net.layers[0]
    x = np.random.default_rng(1).normal(size=(2, 4, 8, 8))
    out = first.forward(x, train=True)
    assert first.backward(np.ones_like(out), input_grad=False) is None
    dense = Dense(5, 3)
    y = dense.forward(np.ones((2, 5)), train=True)
    assert dense.backward(np.ones_like(y), input_grad=False) is None
    assert dense.backward(np.ones_like(y)).shape == (2, 5)
