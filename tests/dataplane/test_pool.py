"""Tests for the data plane's chunked/pooled execution helpers."""

import pytest

from repro.dataplane import chunked, imap_chunks
from repro.dataplane.pool import on_timeout
from repro.engine.events import EventBus, EventLog


def _total(chunk):
    return sum(chunk)


class TestChunked:
    def test_even_split(self):
        assert chunked(list(range(6)), 2) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert chunked(list(range(5)), 2) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert chunked([], 4) == []

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            chunked([1, 2], 0)


class TestMapChunks:
    def test_serial_matches_manual(self):
        items = list(range(10))
        assert list(imap_chunks(_total, items, chunk_size=3)) == [
            3, 12, 21, 9
        ]

    def test_threaded_matches_serial_in_order(self):
        items = list(range(20))
        serial = list(imap_chunks(_total, items, chunk_size=4, workers=0))
        pooled = list(imap_chunks(_total, items, chunk_size=4, workers=3))
        assert pooled == serial

    def test_single_chunk_skips_pool(self):
        # one chunk must not pay pool start-up even with workers set
        assert list(
            imap_chunks(_total, [1, 2, 3], chunk_size=10, workers=8)
        ) == [6]

    def test_empty_items(self):
        assert list(imap_chunks(_total, [], chunk_size=4, workers=2)) == []


_CALL_LOG: list[tuple[int, ...]] = []


def _record_then_fail(chunk):
    _CALL_LOG.append(tuple(chunk))
    if chunk[0] >= 4:
        raise OSError("disk gone")
    return sum(chunk)


class TestTaskExceptionPropagation:
    """Regression: task-raised OSError must propagate, never trigger the
    serial fallback (which would silently re-run every chunk)."""

    def test_task_oserror_propagates(self):
        _CALL_LOG.clear()
        with pytest.raises(OSError, match="disk gone"):
            list(imap_chunks(
                _record_then_fail,
                list(range(8)),
                chunk_size=2,
                workers=2,
            ))

    def test_chunks_not_rerun_after_task_failure(self):
        _CALL_LOG.clear()
        with pytest.raises(OSError):
            list(imap_chunks(
                _record_then_fail,
                list(range(8)),
                chunk_size=2,
                workers=2,
            ))
        # the old fallback re-ran every chunk serially after the failure,
        # doubling side effects; each chunk must now run at most once
        assert len(_CALL_LOG) == len(set(_CALL_LOG))

    def test_serial_task_oserror_propagates(self):
        with pytest.raises(OSError, match="disk gone"):
            list(imap_chunks(_record_then_fail, list(range(8)), chunk_size=2))


class TestImapChunks:
    def test_is_lazy_generator(self):
        calls = []

        def spy(chunk):
            calls.append(tuple(chunk))
            return sum(chunk)

        it = imap_chunks(spy, list(range(6)), chunk_size=2)
        assert calls == []  # nothing runs until consumed
        assert next(it) == 1
        assert calls == [(0, 1)]
        assert list(it) == [5, 9]

    def test_partial_results_before_failure(self):
        """Chunks before the failing one are yielded, so callers can
        commit partial progress (the litho labeler relies on this)."""
        done = []

        def fragile(chunk):
            if chunk[0] >= 4:
                raise OSError("disk gone")
            return sum(chunk)

        it = imap_chunks(fragile, list(range(8)), chunk_size=2)
        with pytest.raises(OSError):
            for result in it:
                done.append(result)
        assert done == [1, 5]


class TestWatchdog:
    """A pooled chunk that never answers is cancelled at the deadline
    and re-run serially; the pool is then treated as compromised and
    every unfinished chunk recomputes in-process."""

    def test_hung_chunk_cancelled_and_rerun_serially(self):
        import threading
        from collections import Counter

        release = threading.Event()
        attempts = Counter()
        fired = []

        def maybe_hang(chunk):
            attempts[chunk[0]] += 1
            if chunk[0] == 2 and attempts[chunk[0]] == 1:
                release.wait(timeout=20.0)  # hang far past the deadline
            return sum(chunk)

        try:
            results = list(imap_chunks(
                maybe_hang,
                list(range(8)),
                chunk_size=2,
                workers=2,
                timeout=0.5,
                on_timeout=fired.append,
            ))
        finally:
            release.set()  # unblock the abandoned worker thread
        assert results == [1, 5, 9, 13]
        assert fired == [1]  # chunk [2, 3] hit the deadline
        assert attempts[2] == 2  # hung once, then re-ran serially

    def test_on_timeout_emits_one_guard_event_pair(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        on_timeout(bus, "label", 0.5)(3)
        alert, recovery = log.events
        assert alert.kind == "health_alert"
        assert alert.payload == {
            "sentinel": "pool_watchdog", "stage": "label",
            "detail": "chunk 3 exceeded 0.5s deadline", "chunk": 3,
        }
        assert recovery.kind == "recovery_applied"
        assert recovery.payload == {
            "policy": "serial_fallback", "sentinel": "pool_watchdog",
            "stage": "label", "chunk": 3,
        }
        # nothing to report without a bus or a deadline
        assert on_timeout(None, "label", 0.5) is None
        assert on_timeout(bus, "extract", None) is None

    def test_armed_watchdog_is_invisible_without_a_hang(self):
        items = list(range(20))
        fired = []
        pooled = list(imap_chunks(
            _total, items, chunk_size=4, workers=3,
            timeout=30.0, on_timeout=fired.append,
        ))
        assert pooled == list(imap_chunks(_total, items, chunk_size=4))
        assert fired == []

    def test_serial_path_ignores_timeout(self):
        # workers=0 never pools, so there is nothing to watch
        assert list(imap_chunks(
            _total, list(range(6)), chunk_size=2, timeout=0.001
        )) == [1, 5, 9]

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            list(imap_chunks(_total, list(range(4)), chunk_size=2,
                             workers=2, timeout=0.0))

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_rejects_non_finite_timeout(self, timeout):
        # NaN passes `timeout <= 0` and times every pooled chunk out at
        # once; infinity overflows the futures wait
        with pytest.raises(ValueError, match="timeout"):
            imap_chunks(_total, list(range(4)), chunk_size=2, workers=2,
                        timeout=timeout)
