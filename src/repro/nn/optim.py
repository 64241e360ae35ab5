"""Gradient-based optimizers.

Optimizers hold per-parameter slot state keyed by ``(layer index, name)``
and update parameter arrays **in place**, so the network's layers always
see the latest weights without re-wiring references.

:class:`Adam` runs its step as one kernel over 32,768-element blocks of
each flattened slot, so a block's parameter, gradient, moments and work
arrays stay in cache.  A slot of at least four blocks is cut into
block-aligned ranges, one per CPU the process may use, and worked on
the process's one pool (:func:`~repro.nn.runtime.run_ordered`): the
calling thread takes the first range, and it and the pool's helper
threads each take the next.  Every element sees the same float64
operations in the same order whatever the block size or the split, so
the results are bit-identical to one pass over the whole slot.

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
from functools import partial

import numpy as np

from . import runtime
from .runtime import WorkspaceArena

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


#: Elements per block of the Adam kernel.  A block's param, grad, m and
#: v and its two work arrays (6 x 256 KB) stay in L2 across the step's
#: 14 ufuncs.  Mean time per step of the MLP (297,122 parameters) in a
#: traced ``al_mlp`` run at seed 7 on a 2-vCPU VM, against 3.90 ms for
#: one pass over each whole slot:
#:
#: ========  ========  =======  =======  =======
#: threads   8K        16K      32K      64K
#: ========  ========  =======  =======  =======
#: one       3.19 ms   2.90 ms  2.85 ms  2.90 ms
#: two       3.48 ms   2.41 ms  1.85 ms  1.98 ms
#: ========  ========  =======  =======  =======
#:
#: Smaller blocks split into more ufunc dispatches, which contend for
#: the GIL when two threads run.
_BLOCK = 32768
#: a slot of at least this many blocks is split across the CPUs
_SPLIT_BLOCKS = 4

#: block scratch; thread-local, so every helper has its own buffers
_ARENA = WorkspaceArena()


def _adam_range(param, grad, m, v, decay, coef, lo, hi) -> None:
    """One Adam step over elements ``[lo, hi)`` of a flattened slot.

    Runs the 14 in-place ufuncs of the whole-slot update block by
    block, with the same operands in the same order, so every element
    gets the bytes the whole-slot pass gave it.  A non-zero ``decay``
    first forms ``grad + decay * param`` per block.
    """
    beta1, beta2, lr, eps, bias1, bias2 = coef
    a_buf = _ARENA.buffer(("adam", "a"), (_BLOCK,), param.dtype)
    b_buf = _ARENA.buffer(("adam", "b"), (_BLOCK,), param.dtype)
    if decay:
        g_buf = _ARENA.buffer(("adam", "g"), (_BLOCK,), param.dtype)
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        n = stop - start
        p, g = param[start:stop], grad[start:stop]
        mb, vb = m[start:stop], v[start:stop]
        a, b = a_buf[:n], b_buf[:n]
        if decay:
            np.multiply(p, decay, out=g_buf[:n])
            g = np.add(g, g_buf[:n], out=g_buf[:n])
        # m = b1 * m + (1 - b1) * grad
        np.multiply(mb, beta1, out=mb)
        np.multiply(g, 1 - beta1, out=a)
        np.add(mb, a, out=mb)
        # v = b2 * v + ((1 - b2) * grad) * grad
        np.multiply(vb, beta2, out=vb)
        np.multiply(g, 1 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(vb, a, out=vb)
        # param -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(mb, bias1, out=a)
        np.multiply(a, lr, out=a)
        np.divide(vb, bias2, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)


def _run_split(fn, size: int) -> None:
    """Run ``fn(lo, hi)`` over ``[0, size)``: inline for a slot of fewer
    than ``_SPLIT_BLOCKS`` blocks, otherwise as one block-aligned range
    per CPU, each an item of the pool."""
    blocks = -(-size // _BLOCK)
    if blocks < _SPLIT_BLOCKS:
        fn(0, size)
        return
    workers = min(runtime.CPU_WORKERS, blocks)
    bounds = [min(blocks * i // workers * _BLOCK, size)
              for i in range(workers + 1)]
    runtime.run_ordered(list(zip(bounds, bounds[1:])), lambda r: fn(*r),
                        workers)


def _check_slot(key, param, grad, m, v) -> None:
    """Refuse a slot whose update would misalign or land in a copy,
    before anything is written.  ``m``/``v`` are None for a new slot."""
    for name, array in (("grad", grad), ("m", m), ("v", v)):
        if array is not None and array.shape != param.shape:
            raise ValueError(
                f"Adam slot {key!r}: {name} has shape {array.shape}, "
                f"the parameter {param.shape}"
            )
    for name, array in (("param", param), ("m", m), ("v", v)):
        if array is not None and not array.flags.c_contiguous:
            raise ValueError(
                f"Adam slot {key!r}: {name} is not C-contiguous, so its "
                "update would land in a copy"
            )


class Optimizer:
    """Base optimizer: one :meth:`_update` per slot, with weight decay
    handed down for matrices."""

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
        ``(slot_key, param_array, grad_array)`` triples; a matrix's
        gradient gains ``weight_decay * param``."""
        for key, param, grad in param_groups:
            decay = self.weight_decay if param.ndim > 1 else 0.0
            self._update(key, param, grad, decay)

    def _update(self, key, param: np.ndarray, grad: np.ndarray,
                decay: float) -> None:
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

    def _update(self, key, param: np.ndarray, grad: np.ndarray,
                decay: float) -> None:
        m = self._m.get(key)
        v = self._v.get(key)
        _check_slot(key, param, grad, m, v)
        if m is None:
            m = self._m[key] = np.zeros_like(param)
            v = self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        self._t[key] += 1
        t = self._t[key]
        coef = (self.beta1, self.beta2, self.lr, self.eps,
                1 - self.beta1**t, 1 - self.beta2**t)
        _run_split(
            partial(_adam_range, param.reshape(-1), grad.reshape(-1),
                    m.reshape(-1), v.reshape(-1), decay, coef),
            param.size,
        )

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
