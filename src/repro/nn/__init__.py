"""Pure-numpy neural-network engine (substrate S1).

The paper trains its hotspot CNN with TensorFlow on a GPU; this package
provides the equivalent mathematical machinery — convolutional and dense
layers with exact backpropagation, losses, and optimizers — with no
dependency beyond numpy.  See DESIGN.md §2 for the substitution rationale.
"""

from .im2col import col2im, conv_output_size, im2col
from .initializers import get_initializer
from .layers import BatchNorm, Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .losses import SoftmaxCrossEntropy, log_softmax, softmax
from .network import Sequential
from .optim import Adam, Optimizer
from .runtime import (
    PRECISION_MODES,
    ComputeRuntime,
    PrecisionPolicy,
    WorkspaceArena,
    get_runtime,
    set_runtime,
    using_runtime,
)

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "get_initializer",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "BatchNorm",
    "softmax",
    "log_softmax",
    "SoftmaxCrossEntropy",
    "Sequential",
    "Optimizer",
    "Adam",
    "PRECISION_MODES",
    "PrecisionPolicy",
    "WorkspaceArena",
    "ComputeRuntime",
    "get_runtime",
    "set_runtime",
    "using_runtime",
]
