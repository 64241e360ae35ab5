"""Unit tests of the dynamic lock-discipline sanitizer
(:mod:`repro.analysis.concurrency`)."""

import gc
import threading
import warnings

import pytest

from repro.analysis import concurrency
from repro.analysis.concurrency import (
    LockDisciplineError,
    LockDisciplineWarning,
    TrackedLock,
    TrackedRLock,
    guarded_by,
    held_locks,
    iter_guarded_attributes,
    lock_order_edges,
    reset_lock_order,
)
from repro.analysis.modes import set_check_mode


@pytest.fixture(autouse=True)
def strict_mode():
    previous = set_check_mode("strict")
    reset_lock_order()
    yield
    set_check_mode(previous)
    reset_lock_order()


def run_in_thread(fn, mode="strict"):
    """Run ``fn`` on a fresh thread in ``mode``; returns its raise."""
    box = {}

    def runner():
        set_check_mode(mode)
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - captured result
            box["exc"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    return box.get("exc")


class TestTrackedLock:
    def test_with_statement_tracks_ownership(self):
        lock = TrackedLock("t1")
        assert not lock.held() and not lock.locked()
        with lock:
            assert lock.held() and lock.locked()
            assert held_locks() == (lock,)
        assert not lock.held() and not lock.locked()
        assert held_locks() == ()

    def test_held_is_per_thread(self):
        lock = TrackedLock("t2")
        with lock:
            seen = {}

            def probe():
                seen["held"] = lock.held()
                seen["locked"] = lock.locked()

            run_in_thread(probe)
        assert seen == {"held": False, "locked": True}

    def test_rlock_reentrancy(self):
        lock = TrackedRLock("t3")
        with lock:
            with lock:
                assert lock.held()
            assert lock.held()  # still held after inner release
        assert not lock.held()

    def test_self_deadlock_detected_strict(self):
        lock = TrackedLock("t4")
        lock.acquire()
        try:
            with pytest.raises(LockDisciplineError, match="self-deadlock"):
                lock.acquire()
        finally:
            lock.release()

    def test_release_by_non_owner_detected(self):
        lock = TrackedLock("t5")
        lock.acquire()
        exc = run_in_thread(lock.release)
        assert isinstance(exc, LockDisciplineError)
        assert "not held by this thread" in str(exc)
        lock.release()

    def test_off_mode_is_plain_lock(self):
        set_check_mode("off")
        lock = TrackedLock("t6")
        with lock:
            assert lock.held()
        lock.acquire(blocking=False)
        lock.release()


class TestLockOrderGraph:
    def test_consistent_order_records_edge(self):
        a, b = TrackedLock("order-a"), TrackedLock("order-b")
        with a:
            with b:
                pass
        assert ("order-a", "order-b") in lock_order_edges()

    def test_inversion_detected(self):
        a, b = TrackedLock("inv-a"), TrackedLock("inv-b")
        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        exc = run_in_thread(inverted)
        assert isinstance(exc, LockDisciplineError)
        assert "lock-order inversion" in str(exc)

    def test_inversion_warns_in_warn_mode(self):
        a, b = TrackedLock("warn-a"), TrackedLock("warn-b")
        with a:
            with b:
                pass

        def inverted():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with b:
                    with a:
                        pass
            assert any(
                issubclass(w.category, LockDisciplineWarning)
                for w in caught
            ), "expected a LockDisciplineWarning"

        assert run_in_thread(inverted, mode="warn") is None

    def test_transitive_inversion_detected(self):
        a = TrackedLock("tri-a")
        b = TrackedLock("tri-b")
        c = TrackedLock("tri-c")
        with a:
            with b:
                pass
        with b:
            with c:
                pass

        def inverted():  # c -> a closes the a -> b -> c cycle
            with c:
                with a:
                    pass

        exc = run_in_thread(inverted)
        assert isinstance(exc, LockDisciplineError)

    def test_reset_forgets_history(self):
        a, b = TrackedLock("reset-a"), TrackedLock("reset-b")
        with a:
            with b:
                pass
        reset_lock_order()

        def now_legal():
            with b:
                with a:
                    pass

        assert run_in_thread(now_legal) is None


class TestLockNames:
    def test_collected_locks_leave_the_registry(self):
        gc.collect()  # locks earlier tests left in reference cycles
        before = len(concurrency._uid_names)
        for i in range(1000):
            lock = (TrackedLock if i % 2 else TrackedRLock)(f"gone-{i}")
            with lock:
                pass
        del lock
        # a lock in a reference cycle goes with the cycle
        cycle = {"lock": TrackedLock("in-a-cycle")}
        cycle["self"] = cycle
        del cycle
        gc.collect()
        assert len(concurrency._uid_names) == before

    def test_live_locks_keep_their_names(self):
        a, b = TrackedLock("live-a"), TrackedLock("live-b")
        with a:
            with b:
                pass
        for _ in range(100):
            TrackedLock()
        gc.collect()
        assert ("live-a", "live-b") in lock_order_edges()

        def inverted():
            with b:
                with a:
                    pass

        exc = run_in_thread(inverted)
        assert isinstance(exc, LockDisciplineError)
        assert "live-a -> live-b" in str(exc)


class Box:
    _items = guarded_by("_lock")

    def __init__(self):
        self._lock = TrackedRLock("box")
        with self._lock:
            self._items = {}


class TestGuardedBy:
    def test_unlocked_read_raises(self):
        box = Box()
        with pytest.raises(LockDisciplineError, match="without holding"):
            box._items

    def test_unlocked_write_raises(self):
        box = Box()
        with pytest.raises(LockDisciplineError, match="without holding"):
            box._items = {}

    def test_locked_access_passes(self):
        box = Box()
        with box._lock:
            box._items["k"] = 1
            assert box._items == {"k": 1}

    def test_off_mode_is_plain_slot(self):
        box = Box()
        set_check_mode("off")
        box._items["k"] = 2
        assert box._items == {"k": 2}

    def test_missing_attribute_raises_attribute_error(self):
        box = Box.__new__(Box)
        box._lock = TrackedRLock("empty-box")
        with box._lock:
            with pytest.raises(AttributeError):
                box._items

    def test_works_with_stdlib_rlock(self):
        class StdBox:
            _data = guarded_by("_lock")

            def __init__(self):
                self._lock = threading.RLock()
                with self._lock:
                    self._data = []

        box = StdBox()
        with pytest.raises(LockDisciplineError):
            box._data
        with box._lock:
            box._data.append(1)

    def test_descriptor_survives_class_access(self):
        assert isinstance(Box.__dict__["_items"], guarded_by)
        assert Box._items.lock_attr == "_lock"

    def test_introspection(self):
        assert dict(iter_guarded_attributes(Box)) == {"_items": "_lock"}
