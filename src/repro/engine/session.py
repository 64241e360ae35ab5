"""Inference session: scaled-tensor caching + batched prediction.

The AL loop runs inference on overlapping index sets of one fixed pool
tensor every iteration (validation logits for temperature fitting, query
logits + embeddings for selection, remaining-pool logits for detection).
Standardizing the input is a per-element affine map, so the session
scales the whole pool **once per scaler fit** and serves every later
request from the cached tensor — ``TensorScaler.transform`` disappears
from the hot loop.  The cache keys on ``HotspotClassifier.scaler_version``
*and* the classifier's compute dtype, and refreshes automatically when
the scaler is refitted or the precision policy is swapped.

Thread safety: the serving daemon (:mod:`repro.serve`) and its clients
share one warm session per model, so the refresh is no longer a
single-thread affair.  The ``_scaled``/``_scaled_key`` pair is declared
:func:`~repro.analysis.concurrency.guarded_by` a re-entrant tracked
lock and the whole check-then-refresh runs inside the critical section
— the historical unlocked check-then-act (two threads both observing a
stale version and recomputing/assigning concurrently) is replayed
deterministically in ``tests/engine/test_session_threads.py``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.concurrency import TrackedRLock, guarded_by
from ..analysis.interleave import trace_point
from ..model.classifier import FullPrediction, HotspotClassifier

__all__ = ["InferenceSession"]


class InferenceSession:
    """Serves predictions over one fixed tensor pool for one classifier.

    Parameters
    ----------
    classifier:
        The trained (or in-training) classifier; its scaler and network
        are used directly, no copies are made.
    tensors:
        The full ``(N, C, H, W)`` pool the run operates on (e.g.
        ``ClipDataset.tensors``).  Index arguments below refer to rows
        of this tensor.  A serving session may hold an empty pool and
        score ad-hoc tensors through :meth:`predict_tensors`.
    """

    # class-level (not instance fields): the scaled-pool cache may only
    # be touched while self._lock is held
    _scaled = guarded_by("_lock")
    _scaled_key = guarded_by("_lock")

    def __init__(
        self, classifier: HotspotClassifier, tensors: np.ndarray
    ) -> None:
        self.classifier = classifier
        self.tensors = np.asarray(tensors, dtype=np.float64)
        self._lock = TrackedRLock("inference-session")
        with self._lock:
            self._scaled = None  #: guarded_by: _lock
            self._scaled_key = None  #: guarded_by: _lock

    # ------------------------------------------------------------------
    # scaled-tensor cache
    # ------------------------------------------------------------------
    def _cache_key(self) -> tuple[int, str]:
        """Identity of the cached scaled pool: scaler fit *and* compute
        dtype — a precision swap on the classifier must refresh the
        cache, not serve a stale-dtype tensor."""
        return (
            self.classifier.scaler_version,
            str(self.classifier.policy.compute_dtype),
        )

    @property
    def scaled(self) -> np.ndarray:
        """The whole pool, standardized — computed once per scaler fit.

        Held in the classifier's compute dtype (float64 exact, float32
        fast), so prescaled prediction calls need no per-request cast.
        """
        key = self._cache_key()
        with self._lock:
            if self._scaled is None or self._scaled_key != key:
                trace_point("session.scaled.stale")
                self._scaled = self.classifier.scaler.transform(
                    self.tensors, policy=self.classifier.policy
                )
                self._scaled_key = key
            return self._scaled

    def invalidate(self) -> None:
        """Drop the cache (forces a re-scale on next access)."""
        with self._lock:
            self._scaled = None
            self._scaled_key = None

    @property
    def cache_valid(self) -> bool:
        key = self._cache_key()
        with self._lock:
            return self._scaled is not None and self._scaled_key == key

    def _slice(self, indices: np.ndarray | None) -> np.ndarray:
        if indices is None:
            return self.scaled
        return self.scaled[np.asarray(indices)]

    # ------------------------------------------------------------------
    # batched prediction
    # ------------------------------------------------------------------
    def logits(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Raw logits for the given pool rows (all rows when ``None``)."""
        return self.classifier.predict_logits(
            self._slice(indices), prescaled=True
        )

    def predict_full(
        self, indices: np.ndarray | None = None, normalize: bool = True
    ) -> FullPrediction:
        """Logits + embeddings for the given rows in one forward pass."""
        return self.classifier.predict_full(
            self._slice(indices), normalize=normalize, prescaled=True
        )

    def embeddings(
        self, indices: np.ndarray | None = None, normalize: bool = True
    ) -> np.ndarray:
        """Embedding features only (prefer :meth:`predict_full` when the
        logits are needed as well)."""
        return self.classifier.embeddings(
            self._slice(indices), normalize=normalize, prescaled=True
        )

    # ------------------------------------------------------------------
    # ad-hoc tensors (the serving path)
    # ------------------------------------------------------------------
    def scale_tensors(self, tensors: np.ndarray) -> np.ndarray:
        """Standardize ad-hoc clip tensors (not pool rows) into the
        classifier's compute dtype.

        The scaler map is a per-element affine transform, so each row
        scales the same whatever batch it arrives in.
        """
        return self.classifier.scaler.transform(
            np.asarray(tensors, dtype=np.float64),
            policy=self.classifier.policy,
        )

    def predict_tensors(
        self, tensors: np.ndarray, normalize: bool = True
    ) -> FullPrediction:
        """Logits + embeddings for ad-hoc tensors through the prescaled
        fast path (one scaler pass + one forward tap, no pool cache)."""
        return self.classifier.predict_full(
            self.scale_tensors(tensors), normalize=normalize, prescaled=True
        )
