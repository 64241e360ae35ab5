"""Tests of the process's one ordered pool
(:func:`repro.nn.runtime.run_ordered`): its long-lived helpers, the
runs that go inline, two users at once and a forked child.  The scan's
and Adam's use of it are tested with them (``TestTilePool``,
``TestTilePoolUnderLoad``, ``TestSplit``).  Run under
``REPRO_CHECK=strict``: the calling thread and every thread a test
starts check lock discipline, and the helpers check in their caller's
mode."""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.analysis.modes import check_mode, set_check_mode
from repro.data.synth import DUV_RULES, generate_layout
from repro.dataplane import (
    BatchFeatureExtractor,
    DataPlaneConfig,
    StreamConfig,
    StreamScanner,
)
from repro.features import FeatureExtractor
from repro.layout import TileGrid
from repro.nn import optim, runtime
from repro.nn.optim import Adam
from repro.nn.runtime import run_ordered


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "strict")  # threads a test starts
    previous = set_check_mode("strict")
    yield
    set_check_mode(previous)


def _bytes(item):
    """Deterministic work that releases the GIL in numpy."""
    data = np.random.default_rng(item).normal(size=512)
    return np.sort(data).tobytes()


@pytest.fixture(scope="module")
def chip():
    return generate_layout(
        DUV_RULES, tiles_x=3, tiles_y=3, stress_probability=0.4, seed=11
    )


def _density_score(tensors):
    energy = np.abs(tensors.reshape(len(tensors), -1)).mean(axis=1)
    return np.clip(energy * 40.0, 0.0, 1.0)


def _scan(chip):
    """The report of a fresh two-clip-tile scan, without its timing."""
    grid = TileGrid.for_layout(
        chip, DUV_RULES.clip_size, DUV_RULES.core_margin, tile_clips=2
    )
    plane = BatchFeatureExtractor(
        FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=8)
    )
    report = StreamScanner(
        grid, plane, _density_score, StreamConfig(tile_clips=2)
    ).scan(chip).as_dict()
    report.pop("scan_seconds")
    return report


class TestHelpers:
    def test_runs_start_no_thread_and_no_lock(self, monkeypatch, pool_idle):
        run_ordered(list(range(8)), _bytes, 3)  # the helpers exist now
        threads = set(threading.enumerate())
        made = []
        monkeypatch.setattr(
            runtime, "TrackedLock", lambda *args, **kwargs: made.append(args)
        )
        for _ in range(5):
            out = []
            run_ordered(
                list(range(8)), _bytes, 3, lambda item, r: out.append(r)
            )
            assert out == [_bytes(i) for i in range(8)]
            assert pool_idle()
        assert set(threading.enumerate()) <= threads
        assert made == []
        helpers = [t for t in threads if t.name.startswith("pool-helper-")]
        assert len(helpers) >= 2
        assert all(t.daemon for t in helpers)

    def test_helpers_check_in_the_callers_mode(self):
        def modes():
            helped = threading.Event()
            seen = set()

            def work(item):
                if item == 0:  # the caller's; a helper takes another
                    assert helped.wait(timeout=30)
                else:
                    helped.set()
                seen.add(check_mode())

            run_ordered(list(range(6)), work, 2)
            return seen

        for mode in ("off", "strict"):
            previous = set_check_mode(mode)
            try:
                assert modes() == {mode}
            finally:
                set_check_mode(previous)


class TestNestedRuns:
    """A run started inside a run works on the thread that started it,
    without touching the pool's lock: under strict checks a second
    acquisition by the caller would be reported as a self-deadlock."""

    def test_a_run_started_inside_work_runs_inline(self, pool_idle):
        def work(item):
            me = threading.current_thread()
            inner = []
            run_ordered(
                [item * 10 + j for j in range(4)],
                lambda x: (_bytes(x), threading.current_thread()),
                3,
                lambda x, r: inner.append(r),
            )
            assert all(thread is me for _, thread in inner)
            return b"".join(data for data, _ in inner)

        committed = []
        run_ordered(list(range(9)), work, 3, lambda i, r: committed.append(r))
        assert committed == [
            b"".join(_bytes(i * 10 + j) for j in range(4)) for i in range(9)
        ]
        assert pool_idle()

    def test_a_run_started_inside_commit_runs_inline(self, pool_idle):
        me = threading.current_thread()
        committed = []

        def commit(item, result):
            inner = []
            run_ordered(
                [item * 10 + j for j in range(4)],
                lambda x: (_bytes(x), threading.current_thread()),
                3,
                lambda x, r: inner.append(r),
            )
            assert all(thread is me for _, thread in inner)
            committed.append(result + b"".join(data for data, _ in inner))

        run_ordered(list(range(9)), _bytes, 3, commit)
        assert committed == [
            _bytes(i) + b"".join(_bytes(i * 10 + j) for j in range(4))
            for i in range(9)
        ]
        assert pool_idle()


class TestTwoUsers:
    def test_an_adam_step_and_a_scan_at_once(
        self, chip, monkeypatch, pool_idle
    ):
        """One thread steps Adam on a split slot while another scans:
        whichever holds the pool, both get the bytes of their one-thread
        runs and neither reports a lock-discipline error."""
        rng = np.random.default_rng(2)
        start = rng.normal(size=5 * optim._BLOCK + 3)
        grads = [rng.normal(size=start.shape) for _ in range(4)]

        def train():
            param = start.copy()
            opt = Adam(lr=0.01, weight_decay=1e-3)
            for grad in grads:
                opt.step([(("w",), param, grad)])
            return param.tobytes()

        monkeypatch.setattr(runtime, "CPU_WORKERS", 1)
        want = {"adam": train(), "scan": _scan(chip)}
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                barrier = threading.Barrier(2, timeout=30)
                got, errors = {}, []

                def user(name, fn):
                    try:
                        barrier.wait()
                        got[name] = fn()
                    except BaseException as exc:  # noqa: BLE001 - asserted
                        errors.append(exc)

                threads = [
                    threading.Thread(target=user, args=("adam", train)),
                    threading.Thread(
                        target=user, args=("scan", lambda: _scan(chip))
                    ),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert got == want
        finally:
            sys.setswitchinterval(interval)
        assert pool_idle()


def _scan_in_child(chip, want):
    assert _scan(chip) == want
    assert any(
        thread.name.startswith("pool-helper-")
        for thread in threading.enumerate()
    ), "the child ran its scan without helpers of its own"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_scans_after_the_parents_helpers_did(chip, monkeypatch):
    monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
    want = _scan(chip)  # the parent's helper has worked a scan
    child = multiprocessing.get_context("fork").Process(
        target=_scan_in_child, args=(chip, want)
    )
    child.start()
    child.join(timeout=120)
    if child.is_alive():  # waiting on the parent's helper
        child.kill()
        child.join()
    assert child.exitcode == 0
