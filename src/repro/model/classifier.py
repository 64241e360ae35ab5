"""The hotspot classifier: CNN + training loop + embedding access.

:class:`HotspotClassifier` is the single object the active-learning
framework interacts with.  It owns the network, the input scaler and the
optimizer state, provides softmax probabilities (Eq. (4)), and exposes
the L2-normalized FC-embedding features consumed by the diversity metric
(Eqs. (7)–(8)).
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from ..analysis.contracts import contract
from ..nn import Adam, SoftmaxCrossEntropy, softmax
from ..nn.optim import flatten_state, unflatten_state
from ..nn.runtime import ComputeRuntime, PrecisionPolicy
from .cnn import build_hotspot_cnn, build_hotspot_mlp
from .scaler import TensorScaler

__all__ = ["FullPrediction", "HotspotClassifier"]

#: bump on incompatible changes to the save/load archive layout
SAVE_FORMAT_VERSION = 2


class FullPrediction(NamedTuple):
    """Logits and embedding features from one tapped forward pass."""

    logits: np.ndarray
    embeddings: np.ndarray


class HotspotClassifier:
    """Binary hotspot/non-hotspot CNN classifier.

    Parameters
    ----------
    input_shape:
        Feature tensor shape ``(C, H, W)``.
    arch:
        ``"cnn"`` (paper architecture) or ``"mlp"`` (fast variant).
    lr / batch_size / epochs:
        Optimization settings; ``epochs`` is the default for both initial
        ``fit`` and incremental ``update`` calls.
    class_weight:
        ``"balanced"`` reweights classes inversely to their frequency in
        each training call (essential on Table-I-style imbalance), or
        ``None`` for plain cross-entropy.
    seed:
        Controls weight init and shuffling; Algorithm 2 line 3 initializes
        ``w ~ N(0, sigma)``, realized here through the initializer rng.
    augment:
        When true, every training call expands its data with D4
        orientation augmentation performed directly in the DCT domain
        (see :mod:`repro.features.augment`); ``augment_block_size`` is
        the DCT block size of the input tensors.
    precision:
        ``"exact"`` (default) runs inference bit-identically to the seed
        float64 kernels; ``"fast"`` computes the network forward in
        float32 and casts logits/embeddings back to float64 at this
        boundary.  Training, weights, the scaler statistics and
        checkpoints stay float64 in both modes.
    """

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (32, 12, 12),
        arch: str = "cnn",
        lr: float = 1e-3,
        batch_size: int = 32,
        epochs: int = 12,
        class_weight: str | None = "balanced",
        seed: int = 0,
        augment: bool = False,
        augment_block_size: int = 8,
        precision: str = "exact",
    ) -> None:
        if arch not in ("cnn", "mlp"):
            raise ValueError(f"arch must be 'cnn' or 'mlp', got {arch!r}")
        self.input_shape = tuple(input_shape)
        self.arch = arch
        self.lr = lr
        self.batch_size = batch_size
        self.epochs = epochs
        self.class_weight = class_weight
        self.seed = seed
        self.augment = augment
        self.augment_block_size = augment_block_size
        self.precision = precision
        self.policy = PrecisionPolicy(precision)
        #: private compute runtime: workspace buffers and compute dtype
        #: for this model's forward passes (never shared across models)
        self.runtime = ComputeRuntime(policy=self.policy)

        rng = np.random.default_rng(seed)
        builder = build_hotspot_cnn if arch == "cnn" else build_hotspot_mlp
        self.network, self._embedding_index = builder(self.input_shape, rng=rng)
        self.network.runtime = self.runtime
        self.scaler = TensorScaler()
        #: bumped on every scaler (re)fit so downstream caches of scaled
        #: tensors (see repro.engine.session.InferenceSession) can
        #: invalidate themselves
        self.scaler_version = 0
        self._optimizer = Adam(lr=lr)
        self._shuffle_rng = np.random.default_rng(seed + 1)
        self._fitted = False

    @property
    def learning_rate(self) -> float:
        """The optimizer's live learning rate (the run supervisor backs
        this off when rolling back a diverged training stage)."""
        return self._optimizer.lr

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"learning rate must be positive, got {value}")
        self._optimizer.lr = value

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit_scaler(self, pool_tensors: np.ndarray) -> None:
        """Fit the input scaler on the (unlabeled) pool."""
        self.scaler.fit(pool_tensors)
        self.scaler_version += 1

    def _loss_for(self, y: np.ndarray) -> SoftmaxCrossEntropy:
        if self.class_weight == "balanced":
            counts = np.bincount(y, minlength=2).astype(np.float64)
            counts[counts == 0] = 1.0
            weights = counts.sum() / (2.0 * counts)
            return SoftmaxCrossEntropy(class_weights=weights)
        return SoftmaxCrossEntropy()

    @contract(x="*[N,C,H,W]", y="i[N]|b[N]")
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int | None = None,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        patience: int | None = None,
        min_delta: float = 0.0,
    ) -> list[float]:
        """Train on labeled tensors ``x`` (N, C, H, W) and labels ``y``.

        Returns the per-epoch mean loss trace.  Requires ``fit_scaler``
        to have been called (or fits it on ``x`` as a fallback).

        With ``validation=(xv, yv)`` and ``patience``, training stops
        early when validation loss fails to improve by more than
        ``min_delta`` for ``patience`` consecutive epochs, and the
        best-validation weights are restored.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected (N, {self.input_shape}), got {x.shape}"
            )
        if len(x) != len(y):
            raise ValueError("x and y lengths differ")
        if len(x) == 0:
            raise ValueError("cannot train on empty data")
        if patience is not None and validation is None:
            raise ValueError("patience requires a validation set")
        if self.scaler.mean_ is None:
            self.fit_scaler(x)

        if self.augment:
            from ..features.augment import augmentation_batch

            x, y = augmentation_batch(
                x, y, block_size=self.augment_block_size
            )

        x = self.scaler.transform(x)
        loss_fn = self._loss_for(y)
        epochs = epochs if epochs is not None else self.epochs
        trace: list[float] = []
        n = len(x)

        best_val = np.inf
        best_weights = None
        stale = 0
        for _ in range(epochs):
            order = self._shuffle_rng.permutation(n)
            losses = []
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                logits = self.network.forward(x[batch], train=True)
                losses.append(loss_fn(logits, y[batch]))
                self.network.backward(loss_fn.backward(), input_grad=False)
                self._optimizer.step(self.network.param_groups())
            trace.append(float(np.mean(losses)))
            self._fitted = True

            if validation is not None:
                val_loss = self.evaluate_loss(*validation)
                if val_loss < best_val - min_delta:
                    best_val = val_loss
                    best_weights = self.network.get_weights()
                    stale = 0
                else:
                    stale += 1
                    if patience is not None and stale >= patience:
                        break
        if best_weights is not None:
            self.network.set_weights(best_weights)
        self._fitted = True
        return trace

    def evaluate_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean (weighted) cross-entropy on held-out data."""
        y = np.asarray(y, dtype=np.int64)
        logits = self.predict_logits(np.asarray(x, dtype=np.float64))
        return self._loss_for(y)(logits, y)

    def update(
        self, x: np.ndarray, y: np.ndarray, epochs: int | None = None
    ) -> list[float]:
        """Fine-tune on the enlarged training set (Algorithm 2, line 12).

        Warm-start continuation of ``fit``: weights and optimizer state
        are kept, so each active-learning round adjusts rather than
        retrains the model.
        """
        return self.fit(x, y, epochs=epochs)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("classifier is not trained")

    def _prepare(self, x: np.ndarray, prescaled: bool) -> np.ndarray:
        self._check_fitted()
        if prescaled:
            # e.g. an InferenceSession's cache, already in compute dtype
            return self.policy.compute(np.asarray(x))
        x = np.asarray(x, dtype=np.float64)
        return self.scaler.transform(x, policy=self.policy)

    @contract(x="*[N,C,H,W]", returns="f8[N,2]")
    def predict_logits(
        self, x: np.ndarray, prescaled: bool = False
    ) -> np.ndarray:
        """Raw logits; ``prescaled=True`` skips the input scaler (for
        callers holding a cached scaled tensor, e.g. an InferenceSession).
        """
        x = self._prepare(x, prescaled)
        logits = self.network.predict_logits(
            x, batch_size=max(self.batch_size, 128)
        )
        return self.policy.boundary(logits)

    @contract(x="*[N,C,H,W]", returns="f8[N,2]")
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Uncalibrated softmax probabilities (Eq. (4))."""
        return softmax(self.predict_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_logits(x).argmax(axis=1)

    @contract(x="*[N,C,H,W]")
    def predict_full(
        self,
        x: np.ndarray,
        normalize: bool = True,
        prescaled: bool = False,
    ) -> FullPrediction:
        """Logits *and* embedding features in a single forward pass.

        The active-learning loop needs both for every query batch
        (calibrated probabilities for uncertainty, FC features for
        diversity); tapping the embedding layer during the logits sweep
        halves the inference cost versus calling :meth:`predict_logits`
        and :meth:`embeddings` separately, with bit-identical results.
        """
        x = self._prepare(x, prescaled)
        step = max(self.batch_size, 128)
        logits_parts = []
        feature_parts = []
        for start in range(0, len(x), step):
            logits, taps = self.network.forward(
                x[start : start + step], taps=[self._embedding_index]
            )
            logits_parts.append(logits)
            feature_parts.append(taps[self._embedding_index])
        logits = self.policy.boundary(np.concatenate(logits_parts, axis=0))
        features = self.policy.boundary(np.concatenate(feature_parts, axis=0))
        if normalize:
            features = self._normalize_embeddings(features)
        return FullPrediction(logits=logits, embeddings=features)

    @staticmethod
    def _normalize_embeddings(features: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        return features / np.maximum(norms, 1e-12)

    @contract(x="*[N,C,H,W]", returns="f8[N,D]")
    def embeddings(
        self,
        x: np.ndarray,
        normalize: bool = True,
        prescaled: bool = False,
    ) -> np.ndarray:
        """FC-layer embedding features for the diversity metric.

        L2-normalized by default so that the inner-product distance of
        Eq. (8) lies in [0, 2] (practically [0, 1] for ReLU features).
        """
        x = self._prepare(x, prescaled)
        outputs = []
        step = max(self.batch_size, 128)
        for start in range(0, len(x), step):
            outputs.append(
                self.network.forward_to(x[start : start + step],
                                        self._embedding_index)
            )
        features = self.policy.boundary(np.concatenate(outputs, axis=0))
        if normalize:
            features = self._normalize_embeddings(features)
        return features

    def clone_untrained(self) -> "HotspotClassifier":
        """Fresh classifier with identical hyperparameters (new weights)."""
        return HotspotClassifier(
            input_shape=self.input_shape,
            arch=self.arch,
            lr=self.lr,
            batch_size=self.batch_size,
            epochs=self.epochs,
            class_weight=self.class_weight,
            seed=self.seed,
            augment=self.augment,
            augment_block_size=self.augment_block_size,
            precision=self.precision,
        )

    # ------------------------------------------------------------------
    # training-state access (checkpoint/resume support)
    # ------------------------------------------------------------------
    def optimizer_state_arrays(self) -> dict[str, np.ndarray]:
        """Optimizer slot state as a flat ``str -> ndarray`` mapping
        (npz-serializable; see :func:`repro.nn.optim.flatten_state`)."""
        return flatten_state(self._optimizer.get_state())

    def restore_optimizer_state(self, flat: dict) -> None:
        """Inverse of :meth:`optimizer_state_arrays`."""
        self._optimizer.set_state(unflatten_state(flat))

    def shuffle_rng_state(self) -> dict:
        """Bit state of the minibatch-shuffle RNG — part of a run
        checkpoint so resumed training permutes batches identically."""
        return self._shuffle_rng.bit_generator.state

    def set_shuffle_rng_state(self, state: dict) -> None:
        self._shuffle_rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _archive_meta(self, temperature: float | None) -> dict:
        return {
            "format_version": SAVE_FORMAT_VERSION,
            "arch": self.arch,
            "input_shape": list(self.input_shape),
            "optimizer": type(self._optimizer).__name__,
            "temperature": temperature,
        }

    def save(self, path, temperature: float | None = None) -> None:
        """Serialize the full trainable state to an ``.npz`` archive.

        Besides weights and scaler statistics the archive carries the
        optimizer slot state (so a loaded model continues training on
        the same trajectory instead of silently restarting Adam with
        cold moments) and, when given, the fitted temperature ``T``.
        """
        self._check_fitted()
        payload = {
            f"net/{key}": value
            for key, value in self.network.get_weights().items()
        }
        payload.update(
            {
                f"optim/{key}": value
                for key, value in self.optimizer_state_arrays().items()
            }
        )
        payload["scaler/mean"] = self.scaler.mean_
        payload["scaler/std"] = self.scaler.std_
        payload["meta/json"] = np.array(
            json.dumps(self._archive_meta(temperature))
        )
        np.savez_compressed(path, **payload)

    def load(self, path) -> float | None:
        """Restore state saved by :meth:`save`; returns the stored
        temperature (``None`` when the archive carries none).

        Fails loudly with :class:`ValueError` describing the schema or
        architecture mismatch — never a raw ``KeyError`` from a weight
        dict — so a wrong-architecture restore is diagnosable.
        """
        with np.load(path) as archive:
            files = set(archive.files)
            if "meta/json" not in files:
                raise ValueError(
                    f"{path} is not a classifier archive (no 'meta/json' "
                    "entry; re-save with HotspotClassifier.save)"
                )
            meta = json.loads(str(archive["meta/json"]))
            if meta.get("format_version") != SAVE_FORMAT_VERSION:
                raise ValueError(
                    f"archive format {meta.get('format_version')!r} != "
                    f"supported {SAVE_FORMAT_VERSION}"
                )
            if meta["arch"] != self.arch or tuple(
                meta["input_shape"]
            ) != self.input_shape:
                raise ValueError(
                    "architecture mismatch: archive holds "
                    f"arch={meta['arch']!r} input_shape="
                    f"{tuple(meta['input_shape'])}, classifier is "
                    f"arch={self.arch!r} input_shape={self.input_shape}"
                )
            if meta["optimizer"] != type(self._optimizer).__name__:
                raise ValueError(
                    f"optimizer mismatch: archive holds "
                    f"{meta['optimizer']} state, classifier uses "
                    f"{type(self._optimizer).__name__}"
                )
            weights = {
                key[len("net/"):]: archive[key]
                for key in files
                if key.startswith("net/")
            }
            optim = {
                key[len("optim/"):]: archive[key]
                for key in files
                if key.startswith("optim/")
            }
            try:
                self.network.set_weights(weights)
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"archive does not match the {self.arch!r} network "
                    f"(spec {self.network.weights_spec()}): {exc}"
                ) from exc
            self.restore_optimizer_state(optim)
            self.scaler.mean_ = archive["scaler/mean"]
            self.scaler.std_ = archive["scaler/std"]
        self.scaler_version += 1
        self._fitted = True
        return meta["temperature"]
