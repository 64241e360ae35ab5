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
* :func:`run_ordered` is the process's one pool of long-lived helper
  threads.  Adam's split step hands it a slot's ranges and the
  streaming scan its tiles; :data:`CPU_WORKERS`, the number of CPUs
  this process may use, is the width both ask for.

This is the single sanctioned home of float32 in ``repro.nn`` /
``repro.features`` — reprolint rule R002 allowlists exactly this file, so
a stray downcast anywhere else in the kernel packages still fails lint.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..analysis.concurrency import TrackedLock
from ..analysis.interleave import trace_point
from ..analysis.modes import check_mode, set_check_mode

__all__ = [
    "CPU_WORKERS",
    "PRECISION_MODES",
    "PrecisionPolicy",
    "WorkspaceArena",
    "ComputeRuntime",
    "get_runtime",
    "set_runtime",
    "using_runtime",
    "run_ordered",
]

#: supported precision modes: bit-exact float64 vs float32 fast compute
PRECISION_MODES = ("exact", "fast")


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


# ----------------------------------------------------------------------
# the ordered pool
# ----------------------------------------------------------------------
#: CPUs this process may use (its affinity mask where the OS has one);
#: callers read it at call time, so a test sets every width here
CPU_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: ``run`` is true on a helper thread, and on a caller during its run
_inside = threading.local()


class _Run:
    """What one run shares with its helpers."""

    def __init__(self, items: Sequence[Any], work: Callable[[Any], Any],
                 workers: int) -> None:
        self.items = items
        self.work = work
        #: the caller's ``REPRO_CHECK`` mode, which its helpers adopt
        self.mode = check_mode()
        #: one token per item that may still be taken: ``2 * workers``
        #: less the items taken and not yet committed
        self.window: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(2 * workers):
            self.window.put(None)
        self.next = itertools.count()
        #: ``(index, result or exception)`` of each item a helper
        #: worked, then ``None`` from each helper once it is idle
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.stopped = False

    def take(self, block: bool = True) -> int | None:
        """The next item, once the window has room for it; ``None``
        when none is left, the run has stopped, or the window is full
        and ``block`` is false.  Every item taken is worked."""
        try:
            self.window.get(block)
        except queue.Empty:
            return None
        if not self.stopped:
            index = next(self.next)
            if index < len(self.items):
                return index
        self.window.put(None)
        return None

    def attempt(self, index: int) -> Any:
        """``work(item)``, or the exception it raised, which stops the
        run and is re-raised when the item's turn to commit comes."""
        try:
            return self.work(self.items[index])
        except BaseException as exc:  # noqa: BLE001 - raised in item order
            self.stopped = True
            return exc


def _help(run: _Run) -> queue.SimpleQueue:
    """Work items of ``run`` until none is left, checked in its caller's
    mode; returns its queue."""
    set_check_mode(run.mode)
    index = run.take()
    while index is not None:
        run.done.put((index, run.attempt(index)))
        index = run.take()
    return run.done


def _serve(inbox: queue.SimpleQueue) -> None:
    """A helper thread's loop: work a run, report idle, wait for the
    next.

    It reports idle only once it holds nothing of the run.  Holding a
    finished Adam step until the next one would keep that step's
    gradient alive across the next backward pass, which put about
    10 MB on ``al_mlp``'s peak RSS.
    """
    _inside.run = True
    while True:
        _help(inbox.get()).put(None)


#: held by the caller of the run in progress; one pool serves the
#: process, because the CPUs its helpers share are a process resource
_POOL_LOCK = TrackedLock("ordered-pool")
#: one inbox per helper thread; only touched under _POOL_LOCK
_INBOXES: list[queue.SimpleQueue] = []
if hasattr(os, "register_at_fork"):
    # a forked child inherits the helpers' inboxes but not their threads;
    # a lock held across the fork only makes the child run inline
    os.register_at_fork(after_in_child=_INBOXES.clear)


def run_ordered(
    items: Sequence[Any],
    work: Callable[[Any], Any],
    workers: int,
    commit: Callable[[Any, Any], None] | None = None,
) -> None:
    """Run ``work(item)`` for every item and ``commit(item, result)`` in
    item order, on the process's one pool of long-lived daemon helpers.

    The calling thread and ``workers - 1`` helpers each take the next
    item; the caller takes the first.  ``commit`` runs on the calling
    thread, and at most ``2 * workers`` items are taken past the oldest
    uncommitted one.  The first exception in item order, from ``work``
    or ``commit``, or an interrupt of the calling thread, is raised once
    every helper of the run is idle again: the items before it are
    committed, none after it.

    The calling thread works every item itself, with the same results,
    when there is one worker or one item, when it is already inside a
    run (a helper, or a caller in its ``work`` or ``commit``), or when
    another caller holds the pool.  The first two are decided before the
    pool's lock is touched, so a nested run never re-acquires it.
    """
    workers = min(workers, len(items))
    if (
        workers < 2
        or getattr(_inside, "run", False)
        or not _POOL_LOCK.acquire(blocking=False)
    ):
        for item in items:
            result = work(item)
            if commit is not None:
                commit(item, result)
        return
    try:
        _inside.run = True
        _run_locked(items, work, workers, commit)
    finally:
        _inside.run = False
        _POOL_LOCK.release()


def _run_locked(items, work, workers, commit) -> None:
    """:func:`run_ordered` on the helpers, by the holder of the lock."""
    helpers = workers - 1
    while len(_INBOXES) < helpers:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(
            target=_serve, args=(inbox,),
            name=f"pool-helper-{len(_INBOXES)}", daemon=True,
        ).start()
        _INBOXES.append(inbox)
    run = _Run(items, work, workers)
    mine = run.take(block=False)  # before any helper sees the run
    for inbox in _INBOXES[:helpers]:
        inbox.put(run)
    finished: dict[int, Any] = {}
    idle = 0
    try:
        for index, item in enumerate(items):
            while index not in finished:
                # work the next item while no helper result waits;
                # otherwise, or when the window is full, collect one
                if mine is None and run.done.empty():
                    mine = run.take(block=False)
                if mine is not None:
                    finished[mine] = run.attempt(mine)
                    mine = None
                    continue
                message = run.done.get()
                if message is None:
                    idle += 1
                else:
                    finished[message[0]] = message[1]
            result = finished.pop(index)
            if isinstance(result, BaseException):
                raise result
            if commit is not None:
                commit(item, result)
            run.window.put(None)
    finally:
        run.stopped = True
        for _ in range(helpers):
            run.window.put(None)  # wake helpers waiting for room
        while idle < helpers:
            if run.done.get() is None:
                idle += 1
