"""im2col / col2im transformations for fast convolution on CPU.

Convolution is implemented as one large matrix multiplication: the input
tensor is unfolded so every receptive field becomes a row, the kernel
bank becomes a matrix, and the product yields all output pixels at once.

:class:`~repro.nn.layers.Conv2D` runs one channels-last kernel at every
precision, for training and inference: :func:`im2col_nhwc` gathers each
receptive field in ``(KH, KW, C)`` order through an arena-pooled NHWC
scratch, and :func:`col2im`, its exact adjoint, folds columns in that
order back during backpropagation.

:func:`im2col` is the NCHW gather with ``(C, KH, KW)``-ordered rows.  No
layer calls it; the benchmarks time it.

Tensors enter and leave in the NCHW layout: ``(batch, channels, height,
width)``.
"""

from __future__ import annotations

import numpy as np

from .runtime import ComputeRuntime

__all__ = ["conv_output_size", "im2col", "im2col_nhwc", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis.

    Raises :class:`ValueError` when the configuration produces a
    non-positive or non-integral output extent.
    """
    if kernel <= 0 or stride <= 0:
        raise ValueError(f"kernel and stride must be positive, got {kernel}, {stride}")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    span = size + 2 * pad - kernel
    if span < 0:
        raise ValueError(
            f"kernel {kernel} larger than padded input {size + 2 * pad}"
        )
    if span % stride != 0:
        raise ValueError(
            f"convolution does not tile: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return span // stride + 1


def _patch_view(
    padded: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Zero-copy ``(N, OH, OW, C, KH, KW)`` view of all receptive fields."""
    n, c = padded.shape[:2]
    sn, sc, sh, sw = padded.strides
    shape = (n, out_h, out_w, c, kernel_h, kernel_w)
    strides = (sn, sh * stride, sw * stride, sc, sh, sw)
    return np.lib.stride_tricks.as_strided(padded, shape=shape, strides=strides)


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
    runtime: ComputeRuntime | None = None,
    key=None,
) -> np.ndarray:
    """Unfold ``images`` (N, C, H, W) into a 2-D matrix of receptive fields.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one receptive field flattened in ``(C, KH, KW)``
    order.

    With both ``runtime`` and ``key``, the padded input and the returned
    column matrix live in the runtime's workspace arena under ``key`` —
    the caller must treat the result as scratch that the next same-key
    call overwrites.  Without a key the result is a fresh allocation.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    pooled = runtime is not None and key is not None

    if pad > 0:
        if pooled:
            # borders are zeroed once at creation and never written again:
            # every call overwrites exactly the interior
            padded = runtime.buffer(
                (key, "pad"),
                (n, c, h + 2 * pad, w + 2 * pad),
                images.dtype,
                zero_on_create=True,
            )
            padded[:, :, pad:-pad, pad:-pad] = images
        else:
            padded = np.pad(
                images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
            )
    else:
        padded = images

    patches = _patch_view(padded, kernel_h, kernel_w, stride, out_h, out_w)
    rows = n * out_h * out_w
    feat = c * kernel_h * kernel_w
    if pooled:
        cols = runtime.buffer((key, "cols"), (rows, feat), images.dtype)
    else:
        cols = np.empty((rows, feat), dtype=images.dtype)
    # one gather copy: (N, OH, OW, C, KH, KW) is exactly the row-major
    # layout of the (rows, feat) column matrix
    cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)[...] = patches
    return cols


def im2col_nhwc(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    runtime: ComputeRuntime,
    key,
) -> np.ndarray:
    """Unfold into columns ordered ``(KH, KW, C)`` via an NHWC scratch.

    The channels-last scratch keeps each gathered chunk ``C`` elements
    contiguous instead of the NCHW view's ``KW``-element slivers, which
    makes the gather several times faster on the small spatial extents
    of the DCT tensors.  The kernel matrix must be permuted to the same
    ``(KH, KW, C)`` order; :func:`col2im` is the adjoint.  This is the
    gather of every convolution, at both precisions.  Always
    arena-pooled: the result is scratch that the next same-key call
    overwrites.
    """
    n, c, h, w = images.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    # borders are zeroed once at creation and never written again:
    # every call overwrites exactly the interior
    padded = runtime.buffer(
        (key, "pad"),
        (n, h + 2 * pad, w + 2 * pad, c),
        images.dtype,
        zero_on_create=True,
    )
    # a no-op-layout copy when ``images`` is an NCHW view over NHWC
    # memory, i.e. the output of the previous fast-path layer
    padded[:, pad : pad + h, pad : pad + w, :] = images.transpose(0, 2, 3, 1)

    sn, sh, sw, sc = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, kernel_h, kernel_w, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
    )
    rows = n * out_h * out_w
    feat = kernel_h * kernel_w * c
    cols = runtime.buffer((key, "cols"), (rows, feat), images.dtype)
    cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)[...] = patches
    return cols


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col_nhwc`: fold ``(KH, KW, C)``-ordered
    columns back, summing overlaps.

    Accumulates into a channels-last buffer, so each kernel offset's add
    runs along rows of ``OW * C`` elements.  Every pixel sums its terms
    in ``(ky, kx)`` order starting from 0.0, as an NCHW accumulation of
    the same values does.  Returns a contiguous NCHW array.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    cols = cols.reshape(n, out_h, out_w, kernel_h, kernel_w, c)
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, ky:y_max:stride, kx:x_max:stride] += cols[:, :, :, ky, kx]

    interior = padded[:, pad : pad + h, pad : pad + w]
    return np.ascontiguousarray(interior.transpose(0, 3, 1, 2))
