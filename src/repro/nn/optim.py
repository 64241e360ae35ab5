"""Gradient-based optimizers.

Optimizers hold per-parameter slot state keyed by ``(layer index, name)``
and update parameter arrays **in place**, so the network's layers always
see the latest weights without re-wiring references.

Slot state is serializable: :meth:`Adam.get_state` /
:meth:`Adam.set_state` round-trip the first/second moments and the
per-slot step counts, and :func:`flatten_state` /
:func:`unflatten_state` convert between the nested slot-keyed form and
a flat ``str -> ndarray`` mapping suitable for ``.npz`` archives.  Restoring a checkpointed model without this
state would silently restart Adam with cold moments and wrong bias
correction — training would continue, but not on the same trajectory.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Optimizer",
    "Adam",
    "encode_slot_key",
    "decode_slot_key",
    "flatten_state",
    "unflatten_state",
]


def encode_slot_key(key) -> str:
    """Canonical string form of a slot key (``(0, "W")`` -> ``"0.W"``)."""
    if isinstance(key, tuple):
        return ".".join(str(part) for part in key)
    return str(key)


def decode_slot_key(text: str):
    """Inverse of :func:`encode_slot_key` for the ``(layer, name)``
    convention of :meth:`repro.nn.network.Sequential.param_groups`; a
    string with no integer prefix decodes to a 1-tuple."""
    head, sep, tail = text.partition(".")
    if sep:
        try:
            return (int(head), tail)
        except ValueError:
            return (head, tail)
    return (text,)


def flatten_state(state: dict) -> dict[str, np.ndarray]:
    """Flatten nested ``{slot_name: {key: value}}`` optimizer state into
    ``{"slot_name/encoded_key": ndarray}`` (scalars become 0-d arrays)."""
    flat: dict[str, np.ndarray] = {}
    for slot_name, slots in state.items():
        for key, value in slots.items():
            flat[f"{slot_name}/{encode_slot_key(key)}"] = np.asarray(value)
    return flat


def unflatten_state(flat: dict) -> dict:
    """Inverse of :func:`flatten_state`."""
    state: dict = {}
    for joint_key, value in flat.items():
        slot_name, sep, encoded = joint_key.partition("/")
        if not sep:
            raise ValueError(f"malformed optimizer state key {joint_key!r}")
        state.setdefault(slot_name, {})[decode_slot_key(encoded)] = (
            np.asarray(value)
        )
    return state


class Optimizer:
    """Base optimizer: weight decay, then one :meth:`_update` per slot."""

    def __init__(self, lr: float = 0.01, weight_decay: float = 0.0) -> None:
        # each test is written so that NaN fails it
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(
                f"learning rate must be positive and finite, got {lr}"
            )
        if not (weight_decay >= 0 and math.isfinite(weight_decay)):
            raise ValueError(
                "weight decay must be non-negative and finite, got "
                f"{weight_decay}"
            )
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, param_groups) -> None:
        """Apply one update. ``param_groups`` is an iterable of
        ``(slot_key, param_array, grad_array)`` triples."""
        for key, param, grad in param_groups:
            if self.weight_decay and param.ndim > 1:
                grad = grad + self.weight_decay * param
            self._update(key, param, grad)

    def _update(self, key, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(lr, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict = {}
        self._v: dict = {}
        self._t: dict = {}
        self._scratch: dict = {}

    def _update(self, key, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.get(key)
        if m is None:
            m = self._m[key] = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        scratch = self._scratch.get(key)
        if scratch is None:
            # two work arrays shaped like the slot; not optimizer state
            scratch = (np.empty_like(param), np.empty_like(param))
            self._scratch[key] = scratch
        a, b = scratch

        # m = b1 * m + (1 - b1) * grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1 - self.beta1, out=a)
        np.add(m, a, out=m)
        # v = b2 * v + ((1 - b2) * grad) * grad
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, 1 - self.beta2, out=a)
        np.multiply(a, grad, out=a)
        np.add(v, a, out=v)
        # param -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(m, 1 - self.beta1**t, out=a)
        np.multiply(a, self.lr, out=a)
        np.divide(v, 1 - self.beta2**t, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        param -= a

    def get_state(self) -> dict:
        return {
            "m": {k: v.copy() for k, v in self._m.items()},
            "v": {k: v.copy() for k, v in self._v.items()},
            "t": dict(self._t),
        }

    def set_state(self, state: dict) -> None:
        extra = set(state) - {"m", "v", "t"}
        if extra:
            raise ValueError(f"unknown Adam state slots {sorted(extra)}")
        m = state.get("m", {})
        v = state.get("v", {})
        t = state.get("t", {})
        if not (set(m) == set(v) == set(t)):
            raise ValueError(
                "inconsistent Adam state: m/v/t slot keys differ"
            )
        self._m = {k: np.array(x, dtype=np.float64) for k, x in m.items()}
        self._v = {k: np.array(x, dtype=np.float64) for k, x in v.items()}
        self._t = {k: int(x) for k, x in t.items()}
