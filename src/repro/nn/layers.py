"""Neural-network layers with explicit forward/backward passes.

Each layer caches whatever it needs during ``forward`` and consumes the
cache in ``backward``.  Parameters and their gradients are exposed through
``params()`` / ``grads()`` so optimizers can update them in place.

Layers distinguish training and inference through the ``train`` flag on
``forward`` (BatchNorm changes behaviour; the rest cache for ``backward``
only when it is set).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..analysis.contracts import contract
from .im2col import col2im, conv_output_size, im2col_nhwc
from .initializers import get_initializer
from .runtime import ComputeRuntime, get_runtime

#: unique workspace-key counter shared by all layers — every layer gets a
#: distinct arena slot so one layer's scratch never clobbers another's
_WS_IDS = itertools.count()

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "BatchNorm",
]


def _params_as(layer, dtype, runtime: ComputeRuntime | None):
    """``(weight, bias)`` of ``layer`` in the compute dtype.

    Float64 (the parameters' own dtype) passes the live arrays through
    untouched; a downcast compute dtype fills arena-pooled copies so the
    per-batch cast reuses one buffer.  Weights move every optimizer step,
    so the copies are refreshed on every call.
    """
    weight, bias = layer.weight, layer.bias
    if weight.dtype == dtype:
        return weight, bias
    rt = runtime if runtime is not None else get_runtime()
    wbuf = rt.buffer(("param", layer._ws_id, "w"), weight.shape, dtype)
    wbuf[...] = weight
    bbuf = rt.buffer(("param", layer._ws_id, "b"), bias.shape, dtype)
    bbuf[...] = bias
    return wbuf, bbuf


class Layer:
    """Base class: stateless identity layer."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        del train
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameters by name (possibly empty)."""
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys (valid after backward)."""
        return {}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers that must survive save/load."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully-connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        init: str = "he_normal",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = get_initializer(init)((in_features, out_features), rng)
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None
        self._ws_id = next(_WS_IDS)

    @contract(x="f8[N,F]|f4[N,F]", returns="f8[N,K]|f4[N,K]")
    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        runtime: ComputeRuntime | None = None,
        fuse_relu: bool = False,
    ) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if train else None
        weight, bias = _params_as(self, x.dtype, runtime)
        out = x @ weight
        out += bias
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Parameter gradients, plus the input gradient unless
        ``input_grad=False`` (then None is returned)."""
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        self.grad_weight = self._x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ self.weight.T

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Layer):
    """2-D convolution over NCHW tensors as one channels-last gemm.

    Columns are gathered in ``(KH, KW, C)`` order at every precision, for
    training and inference; the stored weight keeps its ``(F, C, KH, KW)``
    layout and is permuted to the column order per call.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        pad: int = 0,
        rng: np.random.Generator | None = None,
        init: str = "he_normal",
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("Conv2D channel counts must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = get_initializer(init)(shape, rng)
        self.bias = np.zeros(out_channels, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None
        self._ws_id = next(_WS_IDS)

    @contract(x="f8[N,C,H,W]|f4[N,C,H,W]", returns="f8[N,K,OH,OW]|f4[N,K,OH,OW]")
    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        runtime: ComputeRuntime | None = None,
        fuse_relu: bool = False,
    ) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        rt = runtime if runtime is not None else get_runtime()
        f, c = self.out_channels, self.in_channels

        # train and inference use distinct arena slots so a validation
        # forward between a training forward and its backward cannot
        # clobber the cached training columns
        cols = im2col_nhwc(
            x, k, k, s, p,
            runtime=rt,
            key=("conv2d", self._ws_id, "train" if train else "infer", k, s, p),
        )
        weight, bias = _params_as(self, x.dtype, rt)
        # kernel matrix permuted to the (KH, KW, C) column order
        wp = rt.buffer(("param", self._ws_id, "w_nhwc"), (f, k * k * c), x.dtype)
        wp.reshape(f, k, k, c)[...] = weight.transpose(0, 2, 3, 1)
        out = cols @ wp.T
        out += bias
        if fuse_relu:
            np.maximum(out, 0, out=out)

        if train:
            self._cols = cols
            self._input_shape = x.shape
        else:
            self._cols = None
            self._input_shape = None
        # NCHW view over NHWC memory — the next layer's channels-last
        # scratch write is then a contiguous copy
        return out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Parameter gradients, plus the input gradient unless
        ``input_grad=False`` (then None is returned)."""
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called without a training forward pass")
        k, s, p = self.kernel_size, self.stride, self.pad
        f, c = self.out_channels, self.in_channels
        # (N, F, OH, OW) -> (N*OH*OW, F) matching the im2col row order
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, f)
        self.grad_bias = grad_flat.sum(axis=0)
        # (KH, KW, C)-ordered columns back to the stored (F, C, KH, KW)
        grad_weight = (grad_flat.T @ self._cols).reshape(f, k, k, c)
        self.grad_weight = np.ascontiguousarray(grad_weight.transpose(0, 3, 1, 2))
        if not input_grad:
            return None
        grad_cols = grad_flat @ self.weight.transpose(0, 2, 3, 1).reshape(f, -1)
        return col2im(grad_cols, self._input_shape, k, k, s, p)

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.pad})"
        )


class MaxPool2D(Layer):
    """Max pooling with square window; window must tile the input."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._argmax: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.pool_size
        # conv_output_size checks that the windows tile the input
        out_h = conv_output_size(h, k, k, 0)
        out_w = conv_output_size(w, k, k, 0)
        self._argmax = None
        self._input_shape = x.shape if train else None

        xt = x.transpose(0, 2, 3, 1)
        nhwc = xt.flags.c_contiguous
        if nhwc:
            # NCHW view over NHWC memory (a conv output): block it
            # channels-last so the reshape stays a view
            blocks = xt.reshape(n, out_h, k, out_w, k, c)
        else:
            blocks = x.reshape(n, c, out_h, k, out_w, k)
        if not train:
            # inference needs only the max values, not their positions
            # (ties share the value); NHWC memory is handed to the next
            # layer as NHWC memory again
            if nhwc:
                return blocks.max(axis=(2, 4)).transpose(0, 3, 1, 2)
            return blocks.max(axis=(3, 5))
        # one row per window, its values in row-major (ky, kx) order, so
        # argmax picks the first of tied maxima in that order
        order = (0, 5, 1, 3, 2, 4) if nhwc else (0, 1, 2, 4, 3, 5)
        cols = blocks.transpose(order).reshape(-1, k * k)
        self._argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), self._argmax]
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None:
            raise RuntimeError("backward called without a training forward pass")
        n, c, h, w = self._input_shape
        k = self.pool_size
        out_h, out_w = grad_out.shape[2:]

        grad_cols = np.zeros((self._argmax.size, k * k), dtype=grad_out.dtype)
        grad_cols[np.arange(grad_cols.shape[0]), self._argmax] = grad_out.reshape(-1)
        # tiled windows give each pixel exactly one term; it is added to
        # 0.0, so a -0.0 gradient comes back as 0.0
        grad = np.zeros((n, c, h, w), dtype=grad_out.dtype)
        grad.reshape(n, c, out_h, k, out_w, k)[...] += grad_cols.reshape(
            n, c, out_h, out_w, k, k
        ).transpose(0, 1, 2, 4, 3, 5)
        return grad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D({self.pool_size})"


class Flatten(Layer):
    """Collapse all non-batch axes into one."""

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad_out.reshape(self._input_shape)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def accept_fused(self, out: np.ndarray, train: bool = False) -> None:
        """Record backward state when an upstream Conv2D/Dense already
        applied this ReLU in its own kernel (``fuse_relu=True``).

        The mask recovered from the *rectified* output equals the mask
        of the pre-activation: ``max(x, 0) > 0`` iff ``x > 0``.
        """
        self._mask = (out > 0) if train else None

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad_out * self._mask


class BatchNorm(Layer):
    """Batch normalization over the feature axis of 2-D inputs.

    For 4-D inputs the statistics are taken per channel over (N, H, W).
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(num_features, dtype=np.float64)
        self.beta = np.zeros(num_features, dtype=np.float64)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache = None

    def _reshape_params(self, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        if ndim == 4:
            return (
                self.gamma.reshape(1, -1, 1, 1),
                self.beta.reshape(1, -1, 1, 1),
            )
        return self.gamma, self.beta

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        gamma, beta = self._reshape_params(x.ndim)
        if train:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            norm = (x - mean) / np.sqrt(var + self.eps)
            count = x.size // self.num_features
            unbiased = var * count / max(count - 1, 1)
            self.running_mean = (
                self.momentum * self.running_mean
                + (1 - self.momentum) * mean.reshape(-1)
            )
            self.running_var = (
                self.momentum * self.running_var
                + (1 - self.momentum) * unbiased.reshape(-1)
            )
            self._cache = (norm, var, axes)
            return gamma * norm + beta
        shape = [1] * x.ndim
        shape[1 if x.ndim == 4 else -1] = self.num_features
        mean = self.running_mean.reshape(shape)
        var = self.running_var.reshape(shape)
        return gamma * (x - mean) / np.sqrt(var + self.eps) + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        norm, var, axes = self._cache
        gamma, _ = self._reshape_params(grad_out.ndim)

        self.grad_gamma = (grad_out * norm).sum(axis=axes).reshape(-1)
        self.grad_beta = grad_out.sum(axis=axes).reshape(-1)

        grad_norm = grad_out * gamma
        inv_std = 1.0 / np.sqrt(var + self.eps)
        grad = (
            grad_norm
            - grad_norm.mean(axis=axes, keepdims=True)
            - norm * (grad_norm * norm).mean(axis=axes, keepdims=True)
        ) * inv_std
        return grad

    def params(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self) -> dict[str, np.ndarray]:
        return {"gamma": self.grad_gamma, "beta": self.grad_beta}

    def state(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}
