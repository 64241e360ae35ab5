"""Multi-threaded stress tests of the ordered pool the streaming scan
works its tiles on, and of the event bus, run under
``REPRO_CHECK=strict`` so the lock-discipline sanitizer is live
throughout."""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.modes import set_check_mode
from repro.engine.events import EventBus
from repro.nn.runtime import run_ordered


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "strict")  # threads a test starts
    previous = set_check_mode("strict")  # the caller, and its helpers
    yield
    set_check_mode(previous)


def _gil_free_work(item):
    """A numpy reduction that releases the GIL, so workers overlap."""
    data = np.random.default_rng(item).normal(size=4096)
    return item, float(np.sort(data)[item % 4096])


@pytest.fixture
def _short_switch_interval():
    """Switch threads about every 10 us, so races get their chance."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestTilePoolUnderLoad:
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_every_item_committed_once_in_order(
        self, workers, _short_switch_interval, pool_idle
    ):
        lock = threading.Lock()
        committed = []
        taken = []

        def work(item):
            with lock:
                taken.append((item, len(committed)))
            return _gil_free_work(item)

        def commit(item, result):
            assert threading.current_thread() is threading.main_thread()
            committed.append(result)

        items = list(range(150))
        run_ordered(items, work, workers, commit)
        assert committed == [_gil_free_work(i) for i in items]
        assert sorted(i for i, _ in taken) == items
        # nothing is taken 2 * workers items past the oldest uncommitted
        assert all(i - done < 2 * workers for i, done in taken)
        assert pool_idle()

    def test_slow_items_do_not_stall_the_others(self):
        """Item 0 waits until every other item of its window is done:
        the other workers must run them meanwhile, and the commits
        still come in item order."""
        workers = 4
        rest_done = threading.Event()
        lock = threading.Lock()
        finished = []

        def work(item):
            if item == 0:
                assert rest_done.wait(timeout=60.0)
            result = _gil_free_work(item)
            with lock:
                finished.append(item)
                if len(finished) == 2 * workers - 1:
                    rest_done.set()
            return result

        committed = []
        run_ordered(
            list(range(40)), work, workers,
            lambda item, result: committed.append(item),
        )
        assert committed == list(range(40))
        assert sorted(finished[: 2 * workers - 1]) == list(
            range(1, 2 * workers)
        )

    def test_worker_exception_propagates(self, pool_idle):
        """The first error in item order is raised once every helper
        is idle; the items before it are committed, none after."""
        committed = []

        def work(item):
            if item in (7, 11):
                raise RuntimeError(f"item {item} blew up")
            return _gil_free_work(item)

        for _ in range(20):
            committed.clear()
            with pytest.raises(RuntimeError, match="item 7 blew up"):
                run_ordered(
                    list(range(40)), work, 3,
                    lambda item, result: committed.append(item),
                )
            assert committed == list(range(7))
            assert pool_idle()

    def test_interrupt_in_commit_joins_helpers(self, pool_idle):
        def commit(item, result):
            if item == 5:
                raise KeyboardInterrupt("ctrl-c")

        for _ in range(20):
            with pytest.raises(KeyboardInterrupt):
                run_ordered(list(range(40)), _gil_free_work, 4, commit)
            assert pool_idle()
        # nothing of the interrupted runs reaches the next one
        results = []
        run_ordered(
            list(range(40)), _gil_free_work, 4,
            lambda item, result: results.append(result),
        )
        assert results == [_gil_free_work(i) for i in range(40)]

    def test_commit_may_emit_events(self):
        """The scan emits bus events from its commits; the sanitizer
        must see no lock held around them, and they arrive in item
        order."""
        bus = EventBus()
        seen = []
        bus.subscribe(
            lambda e: seen.append(e.payload["item"]), kinds=("tile_scanned",)
        )
        run_ordered(
            list(range(24)),
            _gil_free_work,
            4,
            lambda item, result: bus.emit("tile_scanned", item=item),
        )
        assert seen == list(range(24))


class TestModelScoreFnAcrossThreads:
    def test_two_threads_score_the_bytes_of_serial_calls(self):
        """A scan calls ``score_fn`` from two tile workers at once; each
        call must give the bytes it gives alone."""
        from repro.calibration.temperature import TemperatureScaler
        from repro.dataplane.stream import model_score_fn
        from repro.model.classifier import HotspotClassifier

        rng = np.random.default_rng(3)
        x = rng.normal(size=(48, 8, 12, 12))
        y = np.repeat([0, 1], 24)
        x[24:, 0] += 1.5
        clf = HotspotClassifier(
            input_shape=(8, 12, 12), arch="cnn", epochs=2, seed=0
        )
        clf.fit(x, y)
        temperature = TemperatureScaler().fit(clf.predict_logits(x), y)
        score = model_score_fn(clf, temperature)
        # tile-sized batches of different lengths, as a scan sends them
        batches = [
            rng.normal(size=(n, 8, 12, 12)) for n in (4, 1, 16, 3, 9, 4)
        ]
        serial = [score(batch).tobytes() for batch in batches]

        # the second thread runs the batches backwards, so batches of
        # different sizes overlap
        orders = [batches, batches[::-1]]
        barrier = threading.Barrier(2)
        outputs = [[], []]
        errors = []

        def run(slot):
            try:
                barrier.wait()
                for _ in range(5):
                    for batch in orders[slot]:
                        outputs[slot].append(score(batch).tobytes())
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert outputs[0] == serial * 5
        assert outputs[1] == serial[::-1] * 5


class TestEventBusCrossThread:
    def test_concurrent_emitters_keep_seq_consistent(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append, kinds=("simulation_retry",))
        n_threads, n_events = 8, 100
        barrier = threading.Barrier(n_threads)
        errors = []

        def emitter(origin: int) -> None:
            barrier.wait()
            try:
                for i in range(n_events):
                    bus.emit(
                        "simulation_retry", chunk=origin, retries=i, n_clips=0
                    )
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=emitter, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert errors == []
        assert len(received) == n_threads * n_events
        # dispatch is serialized under the bus lock, so the sequence
        # numbers handlers observe are gapless and strictly increasing
        seqs = [e.seq for e in received]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_subscribe_during_emission_storm(self):
        """Handlers are added and removed while other threads emit —
        no lost updates, torn reads, or dict-mutation errors."""
        bus = EventBus()
        stop = threading.Event()
        errors = []

        def churner() -> None:
            try:
                while not stop.is_set():
                    handler = bus.subscribe(
                        lambda e: None, kinds=("cache_corrupt",)
                    )
                    bus.unsubscribe(handler)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        def emitter() -> None:
            try:
                for _ in range(300):
                    bus.emit("cache_corrupt", key="k", path="p")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        churn = threading.Thread(target=churner)
        emits = [threading.Thread(target=emitter) for _ in range(4)]
        churn.start()
        for t in emits:
            t.start()
        for t in emits:
            t.join(timeout=60.0)
        stop.set()
        churn.join(timeout=60.0)
        assert errors == []

    def test_reentrant_emit_from_handler(self):
        """A handler emitting on the same bus (the guard's escalation
        pattern) must not self-deadlock: the bus lock is re-entrant."""
        bus = EventBus()
        chained = []
        bus.subscribe(
            lambda e: bus.emit(
                "recovery_applied", policy="x", sentinel="s", stage="t"
            ),
            kinds=("health_alert",),
        )
        bus.subscribe(
            lambda e: chained.append(e.payload["policy"]),
            kinds=("recovery_applied",),
        )
        bus.emit("health_alert", sentinel="s", stage="t", detail="")
        assert chained == ["x"]
