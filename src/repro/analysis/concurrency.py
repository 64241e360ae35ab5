"""Dynamic lock-discipline sanitizer: tracked locks + guarded attributes.

The static half of the concurrency layer (reprolint rules R007–R011)
proves what it can from the AST; this module checks the rest at
runtime, under the same ``REPRO_CHECK={off,warn,strict}`` switch as the
array contracts:

* :class:`TrackedLock` / :class:`TrackedRLock` wrap the stdlib locks
  and, in ``warn``/``strict`` mode, maintain a per-thread held stack
  plus a process-wide **acquisition-order graph**.  Acquiring lock *B*
  while holding lock *A* records the edge ``A → B``; an acquisition
  that would close a cycle in that graph is a **lock-order inversion**
  — the schedule-dependent deadlock — and is reported *before* the
  process can actually deadlock on it.
* :func:`guarded_by` is a data descriptor declaring that an attribute
  may only be touched while a named lock is held::

      class FeatureCache:
          _memory = guarded_by("_lock")   #: guarded_by: _lock

  Under ``warn``/``strict`` every read and write asserts the lock is
  held by the calling thread; with checks ``off`` the descriptor is a
  plain slot access.  The comment form of the same declaration is what
  reprolint rule R007 verifies statically at every write site.

With ``REPRO_CHECK=off`` both wrappers reduce to one mode read and a
branch around the stdlib primitive — the measured overhead budget is
the same as the contracts' (see ``benchmarks/bench_concurrency.py``).

Tracked locks also cooperate with the deterministic interleaving
harness (:mod:`repro.analysis.interleave`): a registered thread that is
about to block on acquisition notifies the active scheduler, so
scripted schedules degrade gracefully when proper locking makes an
adversarial interleaving impossible.

Standard-library only, like the rest of the analysis substrate's
stdlib half — importable without numpy.
"""

from __future__ import annotations

import itertools
import threading
import warnings
import weakref
from typing import Any, Iterator

from . import interleave
from .modes import _state

__all__ = [
    "LockDisciplineError",
    "LockDisciplineWarning",
    "TrackedLock",
    "TrackedRLock",
    "guarded_by",
    "held_locks",
    "lock_order_edges",
    "reset_lock_order",
]


class LockDisciplineError(RuntimeError):
    """A thread violated lock discipline (strict mode)."""


class LockDisciplineWarning(UserWarning):
    """A thread violated lock discipline (warn mode)."""


def _report(message: str, mode: str) -> None:
    if mode == "strict":
        raise LockDisciplineError(message)
    warnings.warn(message, LockDisciplineWarning, stacklevel=3)


# ----------------------------------------------------------------------
# acquisition-order graph (process-wide)
# ----------------------------------------------------------------------
class _HeldStack(threading.local):
    """Tracked locks held by the current thread, outermost first."""

    def __init__(self) -> None:
        self.stack: list["_TrackedBase"] = []


_held = _HeldStack()

#: guards the order graph itself; a plain stdlib lock, deliberately
#: outside its own instrumentation
_graph_mutex = threading.Lock()
#: lock uid -> uids acquired while it was held
_edges: dict[int, set[int]] = {}
#: live lock uid -> display name (for inversion messages); a lock's
#: entry goes when the lock is collected
_uid_names: dict[int, str] = {}
_uids = itertools.count(1)


def _path_exists(src: int, dst: int) -> bool:
    """DFS reachability in the order graph (called under _graph_mutex)."""
    seen = set()
    frontier = [src]
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(_edges.get(node, ()))
    return False


def _note_acquisition(lock: "_TrackedBase") -> str | None:
    """Record held→lock edges; returns an inversion description, or
    None when the acquisition is consistent with every order seen so
    far.  The inverting edge is *not* recorded, so warn mode reports
    each inverted acquisition instead of silently legalising it."""
    stack = _held.stack
    if not stack:
        return None
    with _graph_mutex:
        for held in stack:
            if held is lock:
                continue
            targets = _edges.setdefault(held._uid, set())
            if lock._uid in targets:
                continue
            if _path_exists(lock._uid, held._uid):
                chain = " -> ".join(
                    _uid_names.get(uid, f"lock-{uid}")
                    for uid in (lock._uid, held._uid)
                )
                return (
                    f"lock-order inversion: acquiring {lock.name!r} while "
                    f"holding {held.name!r}, but the opposite order "
                    f"{chain} was already established elsewhere"
                )
            targets.add(lock._uid)
    return None


def held_locks() -> tuple["_TrackedBase", ...]:
    """Tracked locks the calling thread holds, outermost first."""
    return tuple(_held.stack)


def lock_order_edges() -> frozenset[tuple[str, str]]:
    """Snapshot of the acquisition-order graph as ``(outer, inner)``
    lock-name pairs (test/debugging introspection); a lock collected
    since shows as ``lock-<uid>``."""
    with _graph_mutex:
        return frozenset(
            (_uid_names.get(src, f"lock-{src}"),
             _uid_names.get(dst, f"lock-{dst}"))
            for src, targets in _edges.items()
            for dst in targets
        )


def reset_lock_order() -> None:
    """Forget every recorded acquisition order (test isolation)."""
    with _graph_mutex:
        _edges.clear()


# ----------------------------------------------------------------------
# tracked locks
# ----------------------------------------------------------------------
class _TrackedBase:
    """Shared acquire/release instrumentation of both lock flavours."""

    _reentrant = False

    def __init__(self, name: str | None = None) -> None:
        self._inner = self._make_inner()
        self._uid = next(_uids)
        self.name = name if name is not None else f"lock-{self._uid}"
        # single dict operations, without _graph_mutex: the collector
        # may run the finalizer on a thread that holds it
        _uid_names[self._uid] = self.name
        weakref.finalize(self, _uid_names.pop, self._uid, None)
        #: ident of the owning thread (None when free); written only by
        #: the thread that holds the inner lock, read opportunistically
        self._owner: int | None = None
        self._count = 0

    def _make_inner(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- introspection -------------------------------------------------
    def held(self) -> bool:
        """True when the *calling thread* holds this lock."""
        return self._owner == threading.get_ident()

    def locked(self) -> bool:
        """True when any thread holds this lock."""
        return self._owner is not None

    # -- the protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        mode = _state.mode
        me = threading.get_ident()
        if mode != "off":
            if self._owner == me and not self._reentrant:
                _report(
                    f"re-acquiring non-reentrant lock {self.name!r} "
                    "already held by this thread (self-deadlock)",
                    mode,
                )
            if self._owner != me:
                problem = _note_acquisition(self)
                if problem is not None:
                    _report(problem, mode)
        acquired = self._acquire_inner(blocking, timeout)
        if acquired:
            self._owner = me
            self._count += 1
            if self._count == 1:
                _held.stack.append(self)
        return acquired

    def _acquire_inner(self, blocking: bool, timeout: float) -> bool:
        if not blocking:
            return self._inner.acquire(False)
        sched = interleave.active_scheduler()
        if sched is None:
            return self._inner.acquire(True, timeout)
        # under the interleaving harness: tell the scheduler when this
        # thread is about to block so its schedule entries are deferred
        if self._inner.acquire(False):
            return True
        sched.lock_blocked()
        try:
            return self._inner.acquire(True, timeout)
        finally:
            sched.lock_unblocked()

    def release(self) -> None:
        me = threading.get_ident()
        if self._owner == me:
            self._count -= 1
            if self._count == 0:
                self._owner = None
                stack = _held.stack
                if stack and stack[-1] is self:
                    stack.pop()
                elif self in stack:
                    stack.remove(self)
        else:
            mode = _state.mode
            if mode != "off":
                _report(
                    f"releasing lock {self.name!r} not held by this "
                    "thread",
                    mode,
                )
        self._inner.release()

    def __enter__(self) -> "_TrackedBase":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"held by {self._owner}" if self._owner else "free"
        return f"{type(self).__name__}({self.name!r}, {state})"


class TrackedLock(_TrackedBase):
    """A ``threading.Lock`` with lock-discipline instrumentation."""

    _reentrant = False

    def _make_inner(self) -> Any:
        return threading.Lock()


class TrackedRLock(_TrackedBase):
    """A ``threading.RLock`` with lock-discipline instrumentation."""

    _reentrant = True

    def _make_inner(self) -> Any:
        return threading.RLock()


# ----------------------------------------------------------------------
# guarded attributes
# ----------------------------------------------------------------------
def _lock_is_held(lock: Any) -> bool:
    """Best-effort "does the calling thread hold this lock".

    Tracked locks answer exactly; a stdlib ``RLock`` via ``_is_owned``;
    a plain ``Lock`` cannot name its owner, so ``locked()`` is accepted
    as held (a weaker check, still catching every unlocked access).
    """
    held = getattr(lock, "held", None)
    if held is not None:
        return bool(held())
    owned = getattr(lock, "_is_owned", None)
    if owned is not None:
        return bool(owned())
    locked = getattr(lock, "locked", None)
    if locked is not None:
        return bool(locked())
    return False


class guarded_by:
    """Descriptor declaring an attribute protected by a named lock.

    ``_memory = guarded_by("_lock")`` at class level makes every
    instance read/write of ``self._memory`` assert, in ``warn`` and
    ``strict`` modes, that ``self._lock`` is held by the calling
    thread.  With checks off the access is a plain instance-dict slot.
    Mirror the declaration with a ``#: guarded_by: _lock`` comment at
    the assignment site so reprolint R007 enforces the same discipline
    statically.
    """

    __slots__ = ("lock_attr", "name", "_slot")

    def __init__(self, lock_attr: str) -> None:
        self.lock_attr = lock_attr
        self.name = "<unbound>"
        self._slot = "<unbound>"

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self._slot = f"_guarded__{name}"

    def _verify(self, obj: Any, action: str, mode: str) -> None:
        lock = getattr(obj, self.lock_attr, None)
        if lock is None:
            _report(
                f"{action} of {type(obj).__name__}.{self.name} before "
                f"its lock {self.lock_attr!r} exists",
                mode,
            )
            return
        if not _lock_is_held(lock):
            _report(
                f"{action} of {type(obj).__name__}.{self.name} without "
                f"holding {self.lock_attr}",
                mode,
            )

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        mode = _state.mode
        if mode != "off":
            self._verify(obj, "read", mode)
        try:
            return obj.__dict__[self._slot]
        except KeyError:
            raise AttributeError(
                f"{type(obj).__name__!s} object has no attribute "
                f"{self.name!r}"
            ) from None

    def __set__(self, obj: Any, value: Any) -> None:
        mode = _state.mode
        if mode != "off":
            self._verify(obj, "write", mode)
        obj.__dict__[self._slot] = value

    def __delete__(self, obj: Any) -> None:
        mode = _state.mode
        if mode != "off":
            self._verify(obj, "delete", mode)
        try:
            del obj.__dict__[self._slot]
        except KeyError:
            raise AttributeError(
                f"{type(obj).__name__!s} object has no attribute "
                f"{self.name!r}"
            ) from None


def iter_guarded_attributes(cls: type) -> Iterator[tuple[str, str]]:
    """Yield ``(attribute, lock_attr)`` for every :class:`guarded_by`
    declared on ``cls`` (introspection for tests and tooling)."""
    for klass in cls.__mro__:
        for name, value in vars(klass).items():
            if isinstance(value, guarded_by):
                yield name, value.lock_attr
