"""Hotspot model substrate (S6): CNN/MLP architectures, input scaling,
and the trainable classifier with embedding access."""

from .classifier import FullPrediction, HotspotClassifier
from .cnn import EMBEDDING_DIM, build_hotspot_cnn, build_hotspot_mlp
from .evaluation import (
    ConfusionMatrix,
    auc,
    classification_report,
    confusion_matrix,
    pr_curve,
    roc_curve,
)
from .scaler import TensorScaler

__all__ = [
    "HotspotClassifier",
    "FullPrediction",
    "build_hotspot_cnn",
    "build_hotspot_mlp",
    "EMBEDDING_DIM",
    "TensorScaler",
    "ConfusionMatrix",
    "confusion_matrix",
    "roc_curve",
    "pr_curve",
    "auc",
    "classification_report",
]
