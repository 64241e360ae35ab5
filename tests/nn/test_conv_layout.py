"""``Conv2D`` against frozen copies of its two earlier kernels.

``Conv2D`` once ran two kernels: float64 training and inference gathered
NCHW columns in ``(C, KH, KW)`` order, and float32 inference had its own
channels-last kernel gathering ``(KH, KW, C)`` columns.  Now every call
runs the channels-last one.  The references below are the earlier forms.

- float32 inference is the earlier channels-last kernel: same bytes;
- the backward pass sums the same terms in the same order, only with the
  columns permuted, so weight, bias and input gradients keep their bytes;
- the float64 forward gemm now sums over ``K`` in ``(KH, KW, C)`` order,
  so it moves within rounding of the NCHW result.  This is the one
  planned difference.
"""

import numpy as np
import pytest

from repro.nn import ComputeRuntime, Conv2D

# ----------------------------------------------------------------------
# references, frozen
# ----------------------------------------------------------------------


def _ref_patches(x, k, stride, pad):
    """``(N, OH, OW, C, KH, KW)`` receptive fields by a per-offset loop."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    patch = np.empty((n, oh, ow, c, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            patch[:, :, :, :, i, j] = padded[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ].transpose(0, 2, 3, 1)
    return patch


def _ref_cols_nchw(x, k, stride, pad):
    patch = _ref_patches(x, k, stride, pad)
    return np.ascontiguousarray(patch).reshape(-1, patch[0, 0, 0].size)


def _ref_cols_nhwc(x, k, stride, pad):
    patch = _ref_patches(x, k, stride, pad).transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(patch).reshape(-1, patch[0, 0, 0].size)


def _ref_forward_exact(layer, x):
    """The float64 NCHW forward: ``(C, KH, KW)`` columns."""
    n, _, h, w = x.shape
    k, s, p, f = layer.kernel_size, layer.stride, layer.pad, layer.out_channels
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    cols = _ref_cols_nchw(x, k, s, p)
    out = cols @ layer.weight.reshape(f, -1).T
    out += layer.bias
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


def _ref_forward_fast_nhwc(layer, x, fuse_relu=False):
    """The float32 channels-last inference kernel."""
    n, _, h, w = x.shape
    k, s, p, f = layer.kernel_size, layer.stride, layer.pad, layer.out_channels
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    cols = _ref_cols_nhwc(x, k, s, p)
    weight = layer.weight.astype(x.dtype)
    bias = layer.bias.astype(x.dtype)
    wp = weight.transpose(0, 2, 3, 1).reshape(f, -1)
    out = cols @ wp.T
    out += bias
    if fuse_relu:
        np.maximum(out, 0, out=out)
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


def _ref_col2im_nchw(cols, input_shape, k, stride, pad):
    """The earlier col2im: ``(C, KH, KW)`` columns, channels-last sums."""
    n, c, h, w = input_shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    cols = cols.reshape(n, oh, ow, c, k, k)
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for ky in range(k):
        y_max = ky + stride * oh
        for kx in range(k):
            x_max = kx + stride * ow
            padded[:, ky:y_max:stride, kx:x_max:stride] += cols[..., ky, kx]
    interior = padded[:, pad : pad + h, pad : pad + w]
    return np.ascontiguousarray(interior.transpose(0, 3, 1, 2))


def _ref_backward(layer, x, grad_out):
    """The earlier backward over the NCHW columns of ``x``."""
    k, s, p, f = layer.kernel_size, layer.stride, layer.pad, layer.out_channels
    cols = _ref_cols_nchw(x, k, s, p)
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, f)
    grad_bias = grad_flat.sum(axis=0)
    grad_weight = (grad_flat.T @ cols).reshape(layer.weight.shape)
    grad_cols = grad_flat @ layer.weight.reshape(f, -1)
    return grad_weight, grad_bias, _ref_col2im_nchw(grad_cols, x.shape, k, s, p)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _with_negative_zeros(values, rng, fraction=0.2):
    values = values.copy()
    values[rng.random(values.shape) < fraction] = -0.0
    return values


# (N, C, H, W, F, kernel, stride, pad): the hotspot CNN's four convs at
# its default (32, 12, 12) input, a stride-2 conv, an unpadded conv and a
# one-sample batch
SHAPES = {
    "cnn_conv1": (8, 32, 12, 12, 16, 3, 1, 1),
    "cnn_conv2": (8, 16, 12, 12, 16, 3, 1, 1),
    "cnn_conv3": (8, 16, 6, 6, 32, 3, 1, 1),
    "cnn_conv4": (8, 32, 6, 6, 32, 3, 1, 1),
    "stride2": (4, 3, 7, 7, 5, 3, 2, 1),
    "unpadded": (4, 5, 10, 10, 6, 3, 1, 0),
    "one_sample": (1, 16, 12, 12, 32, 3, 1, 1),
}


def _layer_and_input(name, nhwc=False, dtype=np.float64):
    n, c, h, w, f, k, s, p = SHAPES[name]
    rng = np.random.default_rng(sum(SHAPES[name]))
    layer = Conv2D(c, f, kernel_size=k, stride=s, pad=p, rng=rng)
    layer.bias[...] = rng.normal(size=f)
    if nhwc:
        # NCHW view over NHWC memory, the layout a conv output has
        x = rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    else:
        x = rng.normal(size=(n, c, h, w))
    return layer, _with_negative_zeros(x, rng).astype(dtype), rng


# ----------------------------------------------------------------------
# float32 inference: byte-equal to the earlier fast kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fuse_relu", [False, True])
@pytest.mark.parametrize("nhwc", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_float32_forward_matches_fast_nhwc_kernel(name, nhwc, fuse_relu):
    layer, x, _ = _layer_and_input(name, nhwc, np.float32)
    runtime = ComputeRuntime()
    got = layer.forward(x, runtime=runtime, fuse_relu=fuse_relu)
    want = _ref_forward_fast_nhwc(layer, x, fuse_relu)
    assert _same_bytes(got, want)
    assert got.strides == want.strides
    # a second batch through the same arena slots is still exact
    other = np.ascontiguousarray(x[::-1])
    again = layer.forward(other, runtime=runtime, fuse_relu=fuse_relu)
    assert _same_bytes(again, _ref_forward_fast_nhwc(layer, other, fuse_relu))


# ----------------------------------------------------------------------
# backward: byte-equal to the NCHW-column backward
# ----------------------------------------------------------------------


@pytest.mark.parametrize("grad_nhwc", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_backward_matches_nchw_column_backward(name, grad_nhwc):
    layer, x, rng = _layer_and_input(name)
    out = layer.forward(x, train=True, runtime=ComputeRuntime())
    n, f, oh, ow = out.shape
    if grad_nhwc:
        grad_out = rng.normal(size=(n, oh, ow, f)).transpose(0, 3, 1, 2)
    else:
        grad_out = rng.normal(size=out.shape)
    grad_out = _with_negative_zeros(grad_out, rng)
    # backward reads the cached training columns and must not move them
    cached = layer._cols.copy()

    grad_in = layer.backward(grad_out)
    want_w, want_b, want_in = _ref_backward(layer, x, grad_out)
    assert _same_bytes(layer.grad_weight, want_w)
    assert layer.grad_weight.flags.c_contiguous
    assert _same_bytes(layer.grad_bias, want_b)
    assert _same_bytes(grad_in, want_in)
    assert grad_in.flags.c_contiguous and grad_in.strides == want_in.strides
    assert _same_bytes(layer._cols, cached)

    assert layer.backward(grad_out, input_grad=False) is None
    assert _same_bytes(layer.grad_weight, want_w)
    assert _same_bytes(layer.grad_bias, want_b)


# ----------------------------------------------------------------------
# float64 forward: the one planned difference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_float64_forward_within_rounding_of_nchw_forward(name, train):
    layer, x, _ = _layer_and_input(name)
    got = layer.forward(x, train=train, runtime=ComputeRuntime())
    want = _ref_forward_exact(layer, x)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.strides == want.strides
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
