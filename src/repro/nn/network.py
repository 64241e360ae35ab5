"""Sequential network container.

A :class:`Sequential` chains layers, drives forward/backward passes, feeds
optimizers, and supports tapping intermediate activations — the active
learning diversity metric (Eq. (7)) needs the penultimate fully-connected
features, not the logits.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..analysis.contracts import contract
from .layers import Conv2D, Dense, Layer, ReLU
from .runtime import ComputeRuntime, get_runtime

__all__ = ["Sequential"]


class Sequential:
    """A plain feed-forward stack of :class:`~repro.nn.layers.Layer`.

    The forward pass fuses each ``Conv2D``/``Dense`` layer with a
    directly following ``ReLU`` into one kernel (an in-place rectify on
    the matmul output — bit-identical to the separate pass, see
    :meth:`~repro.nn.layers.ReLU.accept_fused`), unless a tap requests
    the pre-activation.  Workspace buffers and the compute dtype come
    from ``self.runtime`` (the owning classifier's) or the process
    default.
    """

    def __init__(
        self, layers: Sequence[Layer], runtime: ComputeRuntime | None = None
    ) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers: list[Layer] = list(layers)
        #: compute runtime used by forward passes (None → process default)
        self.runtime = runtime

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def _resolve_runtime(self) -> ComputeRuntime:
        return self.runtime if self.runtime is not None else get_runtime()

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        taps: Sequence[int] | None = None,
    ) -> np.ndarray | tuple[np.ndarray, dict[int, np.ndarray]]:
        """Full forward pass, optionally tapping intermediate activations.

        Without ``taps`` the final output is returned as before.  With
        ``taps`` (layer indices, negative ok) the pass additionally
        records the output of each requested layer and returns
        ``(output, {tap: activation})`` — one sweep serves both the
        logits and any embedding features, instead of one pass per tap.
        """
        rt = self._resolve_runtime()
        wanted: dict[int, list[int]] = {}
        if taps is not None:
            for tap in taps:
                wanted.setdefault(self._normalize_index(tap), []).append(tap)
        tapped: dict[int, np.ndarray] = {}
        n_layers = len(self.layers)
        i = 0
        while i < n_layers:
            layer = self.layers[i]
            fused = (
                i + 1 < n_layers
                and type(self.layers[i + 1]) is ReLU
                and isinstance(layer, (Conv2D, Dense))
                and i not in wanted  # a tap wants the pre-activation
            )
            if fused:
                x = layer.forward(x, train=train, runtime=rt, fuse_relu=True)
                self.layers[i + 1].accept_fused(x, train=train)
                for tap in wanted.get(i + 1, ()):
                    tapped[tap] = x
                i += 2
                continue
            if isinstance(layer, (Conv2D, Dense)):
                x = layer.forward(x, train=train, runtime=rt)
            else:
                x = layer.forward(x, train=train)
            for tap in wanted.get(i, ()):
                tapped[tap] = x
            i += 1
        if taps is None:
            return x
        return x, tapped

    def _normalize_index(self, layer_index: int) -> int:
        n = len(self.layers)
        if not -n <= layer_index < n:
            raise IndexError(
                f"layer index {layer_index} out of range for {n} layers"
            )
        return layer_index % n

    def forward_to(self, x: np.ndarray, layer_index: int) -> np.ndarray:
        """Run inference up to and including ``layer_index`` (negative ok).

        Used to extract embedding features from an intermediate layer.
        """
        stop = self._normalize_index(layer_index)
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train=False)
            if i == stop:
                return x
        raise AssertionError("unreachable")  # pragma: no cover

    def backward(
        self, grad: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate ``grad``; returns the gradient of the input.

        Training reads only the parameter gradients: with
        ``input_grad=False`` the pass stops at the first layer that has
        parameters, skips the work that only its input gradient needs,
        and returns None.
        """
        stop = 0
        if not input_grad:
            stop = next(
                (i for i, layer in enumerate(self.layers) if layer.params()), 0
            )
        for layer in reversed(self.layers[stop + 1 :]):
            grad = layer.backward(grad)
        first = self.layers[stop]
        if input_grad:
            return first.backward(grad)
        if isinstance(first, (Conv2D, Dense)):
            first.backward(grad, input_grad=False)
        else:  # e.g. a leading BatchNorm, whose backward has no shortcut
            first.backward(grad)
        return None

    def __call__(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.forward(x, train=train)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def param_groups(self) -> Iterator[tuple[tuple[int, str], np.ndarray, np.ndarray]]:
        """Yield ``(slot_key, param, grad)`` triples for optimizers."""
        for i, layer in enumerate(self.layers):
            params = layer.params()
            grads = layer.grads()
            for name, param in params.items():
                yield (i, name), param, grads[name]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for _, p, _ in self.param_groups())

    def weights_spec(self) -> dict[str, tuple[int, ...]]:
        """``{weight key: shape}`` for every parameter and buffer —
        the schema a :meth:`set_weights` payload must satisfy (used in
        checkpoint-mismatch diagnostics)."""
        spec: dict[str, tuple[int, ...]] = {}
        for i, layer in enumerate(self.layers):
            for name, param in layer.params().items():
                spec[f"{i}.{name}"] = tuple(param.shape)
            for name, buf in layer.state().items():
                spec[f"{i}.state.{name}"] = tuple(buf.shape)
        return spec

    def get_weights(self) -> dict[str, np.ndarray]:
        """Copy all parameters and buffers into a flat dict."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, param in layer.params().items():
                out[f"{i}.{name}"] = param.copy()
            for name, buf in layer.state().items():
                out[f"{i}.state.{name}"] = buf.copy()
        return out

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from :meth:`get_weights` output."""
        seen = set()
        for i, layer in enumerate(self.layers):
            for name, param in layer.params().items():
                key = f"{i}.{name}"
                if key not in weights:
                    raise KeyError(f"missing weight {key}")
                value = np.asarray(weights[key])
                if value.shape != param.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: {value.shape} vs {param.shape}"
                    )
                param[...] = value
                seen.add(key)
            for name in layer.state():
                key = f"{i}.state.{name}"
                if key not in weights:
                    raise KeyError(f"missing buffer {key}")
                layer.state()[name][...] = np.asarray(weights[key])
                seen.add(key)
        extra = set(weights) - seen
        if extra:
            raise KeyError(f"unused weights: {sorted(extra)}")

    # ------------------------------------------------------------------
    # inference helpers
    # ------------------------------------------------------------------
    @contract(x="f8[N,...]|f4[N,...]", returns="f8[N,K]|f4[N,K]")
    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Batched inference returning raw logits."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size], train=False))
        return np.concatenate(outputs, axis=0)

    def save(self, path) -> None:
        """Serialize all weights and buffers to an ``.npz`` archive."""
        np.savez_compressed(path, **self.get_weights())

    def load(self, path) -> None:
        """Restore weights saved by :meth:`save` into this architecture."""
        with np.load(path) as archive:
            self.set_weights({k: archive[k] for k in archive.files})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"
