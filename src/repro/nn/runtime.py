"""Shared compute core: precision policy, workspace arena, runtime handle.

Every numeric hot path (im2col convolution, fused conv+ReLU, basis-matmul
DCT, scaler transforms) routes its scratch memory and compute dtype through
this module:

* :class:`PrecisionPolicy` selects between the repo's default bit-exact
  float64 kernels (``"exact"``) and a float32 fast path (``"fast"``).
  The fast path is an opt-in *inference* accelerator: training, feature
  caches and checkpoints always stay float64, and every public boundary
  (classifier logits/embeddings, encoded feature tensors) casts back up
  so downstream contracts keep seeing ``f8`` arrays.
* :class:`WorkspaceArena` is a thread-local, shape-keyed buffer pool:
  kernels that need the same scratch shape on every batch (padded inputs,
  im2col column matrices, downcast weight copies) reuse one allocation
  instead of churning the allocator per call.
* :class:`ComputeRuntime` bundles one policy with one arena; layers and
  networks resolve the runtime per call (explicit argument → owning
  network → process default).
* :data:`CPU_WORKERS` is the number of CPUs this process may use: the
  width of Adam's split step and of the streaming scan's tile pool.

This is the single sanctioned home of float32 in ``repro.nn`` /
``repro.features`` — reprolint rule R002 allowlists exactly this file, so
a stray downcast anywhere else in the kernel packages still fails lint.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..analysis.interleave import trace_point

__all__ = [
    "CPU_WORKERS",
    "PRECISION_MODES",
    "PrecisionPolicy",
    "WorkspaceArena",
    "ComputeRuntime",
    "get_runtime",
    "set_runtime",
    "using_runtime",
]

#: supported precision modes: bit-exact float64 vs float32 fast compute
PRECISION_MODES = ("exact", "fast")

#: CPUs this process may use (its affinity mask where the OS has one)
CPU_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


class PrecisionPolicy:
    """Chooses the compute dtype of the numeric kernels.

    ``"exact"`` (the default) keeps every kernel float64 and is
    bit-identical to the seed implementation — checkpoints, resume and
    the data plane's ``array_equal`` invariants are untouched.
    ``"fast"`` computes in float32 inside the kernels and casts back to
    float64 at the public boundaries; outputs agree with the exact path
    to float32 rounding (~1e-6 relative), which the parity tests and the
    Fig. 2 ECE bench bound explicitly.
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = "exact") -> None:
        if mode not in PRECISION_MODES:
            raise ValueError(
                f"precision mode must be one of {PRECISION_MODES}, "
                f"got {mode!r}"
            )
        self.mode = mode

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    @property
    def compute_dtype(self) -> np.dtype:
        """Dtype the kernels compute in (float64 exact, float32 fast)."""
        if self.mode == "exact":
            return np.dtype(np.float64)
        return np.dtype(np.float32)

    def compute(self, x: np.ndarray) -> np.ndarray:
        """Cast ``x`` into the compute dtype (no copy when already there)."""
        return np.asarray(x, dtype=self.compute_dtype)

    def boundary(self, x: np.ndarray) -> np.ndarray:
        """Cast a kernel result back to the public float64 boundary."""
        return np.asarray(x, dtype=np.float64)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrecisionPolicy) and other.mode == self.mode

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.mode))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrecisionPolicy({self.mode!r})"


class WorkspaceArena:
    """Thread-local pool of reusable scratch buffers, keyed by
    ``(key, shape, dtype)``.

    Buffers are owned by the arena and may be overwritten by the *next*
    request for the same slot — callers must treat them as scratch that
    is dead once the kernel returns (kernel outputs that escape to the
    caller are always fresh allocations).  Each OS thread sees a private
    buffer set, so pooled data-plane workers never alias each other's
    scratch.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"buffers": {}, "hits": 0, "misses": 0}
            self._local.state = state
        return state

    def buffer(
        self,
        key,
        shape: tuple[int, ...],
        dtype,
        zero_on_create: bool = False,
    ) -> np.ndarray:
        """Return the reusable buffer for ``(key, shape, dtype)``.

        ``zero_on_create`` zero-fills the buffer only on first
        allocation — callers relying on it must never write the region
        they expect to stay zero (e.g. pad borders around an interior
        they fully overwrite each call).
        """
        state = self._state()
        trace_point("arena.buffer")
        slot = (key, tuple(shape), np.dtype(dtype))
        buf = state["buffers"].get(slot)
        if buf is None:
            if zero_on_create:
                buf = np.zeros(slot[1], dtype=slot[2])
            else:
                buf = np.empty(slot[1], dtype=slot[2])
            state["buffers"][slot] = buf
            state["misses"] += 1
        else:
            state["hits"] += 1
        return buf

    def stats(self) -> dict:
        """Hit/miss counters and pool size for the *calling thread*."""
        state = self._state()
        nbytes = sum(b.nbytes for b in state["buffers"].values())
        return {
            "hits": state["hits"],
            "misses": state["misses"],
            "buffers": len(state["buffers"]),
            "bytes": nbytes,
        }

    def clear(self) -> None:
        """Drop the calling thread's buffers (counters reset too)."""
        self._local.state = {"buffers": {}, "hits": 0, "misses": 0}


class ComputeRuntime:
    """One precision policy plus one workspace arena.

    The process-wide default runtime (``get_runtime()``) is exact-mode;
    a :class:`~repro.model.classifier.HotspotClassifier` owns its own
    runtime so per-model precision never leaks across models.
    """

    def __init__(
        self,
        policy: PrecisionPolicy | None = None,
        arena: WorkspaceArena | None = None,
    ) -> None:
        self.policy = policy if policy is not None else PrecisionPolicy()
        self.arena = arena if arena is not None else WorkspaceArena()

    def buffer(self, key, shape, dtype, zero_on_create: bool = False):
        """Shorthand for ``runtime.arena.buffer(...)``."""
        return self.arena.buffer(key, shape, dtype, zero_on_create)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComputeRuntime(policy={self.policy!r})"


_DEFAULT_RUNTIME = ComputeRuntime()
_ACTIVE = threading.local()


def get_runtime() -> ComputeRuntime:
    """The runtime kernels use when no explicit one is supplied."""
    override = getattr(_ACTIVE, "runtime", None)
    return override if override is not None else _DEFAULT_RUNTIME


def set_runtime(runtime: ComputeRuntime | None) -> ComputeRuntime | None:
    """Set (or clear, with ``None``) this thread's runtime override;
    returns the previous override."""
    previous = getattr(_ACTIVE, "runtime", None)
    _ACTIVE.runtime = runtime
    return previous


@contextmanager
def using_runtime(runtime: ComputeRuntime) -> Iterator[ComputeRuntime]:
    """Scoped :func:`set_runtime` — restores the previous override."""
    previous = set_runtime(runtime)
    try:
        yield runtime
    finally:
        set_runtime(previous)
