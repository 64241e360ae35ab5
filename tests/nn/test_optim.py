"""Tests for optimizers: exact update formulas and convergence, slot
validation, and the split Adam step on the ordered pool."""

import multiprocessing
import os
import queue
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import optim, runtime
from repro.nn.optim import (
    Adam,
    decode_slot_key,
    encode_slot_key,
    flatten_state,
    unflatten_state,
)


def quadratic_groups(param):
    """Parameter groups for minimizing ``0.5 * ||p - 3||^2``."""
    grad = param - 3.0
    return [(("p",), param, grad)]


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """Adam's bias-corrected first step is ~lr regardless of grad scale."""
        for scale in (1e-4, 1.0, 1e4):
            param = np.array([0.0])
            Adam(lr=0.01).step([(("p",), param, np.array([scale]))])
            assert param[0] == pytest.approx(-0.01, rel=1e-4)

    def test_converges_on_quadratic(self):
        param = np.zeros(3)
        opt = Adam(lr=0.1)
        for _ in range(500):
            opt.step(quadratic_groups(param))
        np.testing.assert_allclose(param, 3.0, atol=1e-4)

    def test_separate_state_per_slot(self):
        opt = Adam(lr=0.1)
        p1, p2 = np.array([0.0]), np.array([0.0])
        opt.step([(("a",), p1, np.array([1.0]))])
        opt.step([(("b",), p2, np.array([1.0]))])
        # both got a bias-corrected first step, not a second step
        assert p1[0] == pytest.approx(p2[0])

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_weight_decay_applies_to_matrices_only(self):
        opt = Adam(lr=0.1, weight_decay=0.1)
        mat = np.ones((2, 2))
        vec = np.ones(2)
        opt.step([(("m",), mat, np.zeros((2, 2))), (("v",), vec, np.zeros(2))])
        # the decay term is the matrix's whole gradient, so its first
        # bias-corrected step is ~lr; the bias sees a zero gradient
        np.testing.assert_allclose(mat, 0.9, rtol=1e-6)
        np.testing.assert_array_equal(vec, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": -1.0},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
            {"eps": 0.0},
            {"eps": -1e-8},
            {"eps": float("nan")},
            {"eps": float("inf")},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        # the NaN, infinite and eps cases used to construct, and most
        # of them then put NaN into the weights on the first step
        with pytest.raises(ValueError):
            Adam(**kwargs)


class TestOptimizerState:
    def test_adam_roundtrip_resumes_trajectory(self):
        param_a = np.zeros(3)
        opt_a = Adam(lr=0.1)
        for _ in range(10):
            opt_a.step(quadratic_groups(param_a))
        snapshot_param = param_a.copy()
        snapshot_state = opt_a.get_state()
        for _ in range(5):
            opt_a.step(quadratic_groups(param_a))
        reference = param_a.copy()

        param_b = snapshot_param.copy()
        opt_b = Adam(lr=0.1)
        opt_b.set_state(snapshot_state)
        for _ in range(5):
            opt_b.step(quadratic_groups(param_b))
        np.testing.assert_array_equal(param_b, reference)

    def test_adam_state_snapshot_is_independent(self):
        """get_state copies buffers; later steps must not mutate it."""
        param = np.zeros(1)
        opt = Adam(lr=0.1)
        opt.step(quadratic_groups(param))
        state = opt.get_state()
        frozen_m = state["m"][("p",)].copy()
        opt.step(quadratic_groups(param))
        np.testing.assert_array_equal(state["m"][("p",)], frozen_m)

    def test_adam_rejects_inconsistent_slots(self):
        opt = Adam(lr=0.1)
        with pytest.raises(ValueError):
            opt.set_state(
                {"m": {("p",): np.zeros(1)}, "v": {}, "t": {("p",): 1}}
            )

    def test_adam_rejects_unknown_slot_names(self):
        opt = Adam(lr=0.1)
        with pytest.raises(ValueError, match="unknown Adam state slots"):
            opt.set_state({"velocity": {("p",): np.zeros(1)}})


_KEY = ("p",)


def _restored(m, v, t=3):
    opt = Adam(lr=0.1)
    opt.set_state({"m": {_KEY: m}, "v": {_KEY: v}, "t": {_KEY: t}})
    return opt


#: (optimizer, param, grad, the array the error must name)
_BAD_SLOTS = {
    # used to scale m in place and count the step before raising
    "m_of_other_size": lambda: (
        _restored(np.ones(3), np.ones(3)), np.ones(5), np.ones(5), "m"),
    # same size: a flat view would have let it through
    "m_of_same_size": lambda: (
        _restored(np.ones((5, 1)), np.ones((5, 1))), np.ones(5),
        np.ones(5), "m"),
    "v_of_same_size": lambda: (
        _restored(np.ones(5), np.ones((5, 1))), np.ones(5), np.ones(5), "v"),
    "grad_of_same_size": lambda: (
        _restored(np.ones(5), np.ones(5)), np.ones(5), np.ones((5, 1)),
        "grad"),
    "grad_on_new_slot": lambda: (
        Adam(lr=0.1), np.ones(5), np.ones(4), "grad"),
    "strided_param": lambda: (
        Adam(lr=0.1), np.ones((4, 10))[:, ::2], np.ones((4, 5)), "param"),
    "fortran_m": lambda: (
        _restored(np.asfortranarray(np.ones((3, 4))), np.ones((3, 4))),
        np.ones((3, 4)), np.ones((3, 4)), "m"),
}


class TestSlotValidation:
    @pytest.mark.parametrize("case", sorted(_BAD_SLOTS))
    def test_refuses_before_writing(self, case):
        opt, param, grad, culprit = _BAD_SLOTS[case]()
        param_before = param.copy()
        before = opt.get_state()
        with pytest.raises(ValueError, match=rf"slot \('p',\): {culprit} "):
            opt.step([(_KEY, param, grad)])
        assert param.tobytes() == param_before.tobytes()
        after = opt.get_state()
        assert after["t"] == before["t"]
        for slot in ("m", "v"):
            assert after[slot].keys() == before[slot].keys()
            for key, value in before[slot].items():
                assert after[slot][key].shape == value.shape
                assert after[slot][key].tobytes() == value.tobytes()


# ----------------------------------------------------------------------
# the split step on the ordered pool
# ----------------------------------------------------------------------


def _recorder():
    seen = []

    def record(lo, hi):
        seen.append((lo, hi, threading.current_thread().name))

    return seen, record


def _step_split_slot():
    param = np.zeros(5 * optim._BLOCK)
    Adam(lr=0.1).step([(_KEY, param, np.ones_like(param))])


class TestSplit:
    def test_ranges_are_block_aligned_and_the_caller_takes_the_first(
        self, monkeypatch
    ):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        block = optim._BLOCK
        helped = threading.Event()
        seen, record = _recorder()

        def work(lo, hi):
            if lo == 0:  # a helper takes a later range meanwhile
                assert helped.wait(timeout=30)
            else:
                helped.set()
            record(lo, hi)

        optim._run_split(work, 5 * block - 7)
        seen.sort()
        assert [r[:2] for r in seen] == [
            (0, block), (block, 3 * block), (3 * block, 5 * block - 7)]
        names = [r[2] for r in seen]
        assert names[0] == threading.current_thread().name
        assert any(name.startswith("pool-helper-") for name in names[1:])
        assert all(t.daemon for t in threading.enumerate()
                   if t.name.startswith("pool-helper-"))

    @pytest.mark.parametrize("workers, blocks", [(1, 9), (3, 3)])
    def test_one_cpu_or_a_small_slot_runs_inline(self, monkeypatch,
                                                 workers, blocks):
        monkeypatch.setattr(runtime, "CPU_WORKERS", workers)
        seen, record = _recorder()
        size = blocks * optim._BLOCK
        optim._run_split(record, size)
        assert seen == [(0, size, threading.current_thread().name)]

    def test_caller_waits_for_every_helper_when_its_range_raises(
        self, monkeypatch, pool_idle
    ):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        block = optim._BLOCK
        started = threading.Barrier(3, timeout=30)
        caller_failed = threading.Event()
        finished = []

        def work(lo, hi):
            started.wait()  # each range is on its own thread
            if lo == 0:
                caller_failed.set()
                raise RuntimeError("caller range")
            # finish only after the caller's range has raised
            if caller_failed.wait(timeout=30):
                np.ones(1 << 20).sum()
                finished.append(lo)

        with pytest.raises(RuntimeError, match="caller range"):
            optim._run_split(work, 5 * block)
        assert sorted(finished) == [block, 3 * block]
        assert pool_idle()
        # and the helpers are free for the next caller
        seen, record = _recorder()
        optim._run_split(record, 5 * block)
        assert sorted(r[:2] for r in seen) == [
            (0, block), (block, 3 * block), (3 * block, 5 * block)]

    def test_helper_error_is_raised_after_every_range_ran(
        self, monkeypatch, pool_idle
    ):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        block = optim._BLOCK
        started = threading.Barrier(3, timeout=30)
        ran = []

        def work(lo, hi):
            started.wait()  # each range is on its own thread
            if lo == block:
                raise ValueError("helper range")
            np.ones(1 << 20).sum()  # still running when the error lands
            ran.append(lo)

        with pytest.raises(ValueError, match="helper range"):
            optim._run_split(work, 5 * block)
        assert sorted(ran) == [0, 3 * block]
        assert pool_idle()

    def test_interrupted_wait_leaves_nothing_for_the_next_split(
        self, monkeypatch, pool_idle
    ):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        size = 5 * optim._BLOCK
        optim._run_split(lambda lo, hi: None, size)  # the helper exists
        first_took, helper_took = threading.Event(), threading.Event()
        release = threading.Event()
        done = []

        def first(lo, hi):
            if lo:
                first_took.set()
                release.wait(timeout=30)
            else:  # the helper, not the caller, takes the second range
                assert first_took.wait(timeout=30)

        class Interrupted(queue.SimpleQueue):
            def get(self, *args, **kwargs):
                raise KeyboardInterrupt  # a Ctrl-C in the caller's wait

        class InterruptedRun(runtime._Run):
            def __init__(self, *args):
                super().__init__(*args)
                self.done = Interrupted()

        with monkeypatch.context() as patch:
            patch.setattr(runtime, "_Run", InterruptedRun)
            with pytest.raises(KeyboardInterrupt):
                optim._run_split(first, size)
        assert first_took.is_set()  # the helper had its range

        def second(lo, hi):
            if lo:
                helper_took.set()
                np.ones(1 << 20).sum()
                done.append(lo)
            else:
                release.set()  # the first split's helper range ends now
                assert helper_took.wait(timeout=30)

        # the helper finishes the first split, then takes this one's
        # second range, and this wait ends on that range's result
        optim._run_split(second, size)
        assert done == [2 * optim._BLOCK]
        assert pool_idle()

    def test_busy_helpers_leave_the_caller_every_range(self, monkeypatch):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        held, release = threading.Event(), threading.Event()

        def hold():
            with runtime._POOL_LOCK:
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        seen, record = _recorder()
        block = optim._BLOCK
        try:
            assert held.wait(timeout=30)
            optim._run_split(record, 5 * block)
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        me = threading.current_thread().name
        assert seen == [(0, 2 * block, me), (2 * block, 5 * block, me)]

    def test_concurrent_callers_get_the_serial_bytes(self, monkeypatch):
        """More callers than CPUs and a short switch interval: whether a
        caller got the helpers or ran inline, its slot must come out as
        a serial run leaves it."""
        rng = np.random.default_rng(3)
        start = rng.normal(size=5 * optim._BLOCK + 3)
        grads = [rng.normal(size=start.shape) for _ in range(3)]

        def train(param):
            opt = Adam(lr=0.01)
            for grad in grads:
                opt.step([(_KEY, param, grad)])

        monkeypatch.setattr(runtime, "CPU_WORKERS", 1)
        want = start.copy()
        train(want)
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        params = [start.copy() for _ in range(4)]
        errors = []

        def caller(param):
            try:
                train(param)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(p,)) for p in params]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for param in params:
            assert param.tobytes() == want.tobytes()

    def test_helpers_keep_no_reference_to_a_finished_step(self,
                                                          monkeypatch):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        param = np.zeros(5 * optim._BLOCK)
        grad = np.ones_like(param)
        Adam(lr=0.1).step([(_KEY, param, grad)])
        gone = weakref.ref(grad)
        del grad
        assert gone() is None

    def test_decayed_step_allocates_nothing_full_size(self, monkeypatch):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        rng = np.random.default_rng(5)
        param = rng.normal(size=(4608, 64))
        grad = rng.normal(size=param.shape)
        opt = Adam(lr=0.01, weight_decay=1e-2)
        # the first step makes the moments and every thread's scratch
        opt.step([(_KEY, param, grad)])
        tracemalloc.start()
        try:
            opt.step([(_KEY, param, grad)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < param.nbytes // 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_helpers(self, monkeypatch):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        _step_split_slot()  # the parent's helper is running now
        child = multiprocessing.get_context("fork").Process(
            target=_step_split_slot)
        child.start()
        child.join(timeout=60)
        if child.is_alive():  # waiting on the parent's helper
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestStateFlattening:
    def test_roundtrip(self):
        state = {
            "m": {(0, "W"): np.arange(4.0), (2, "b"): np.zeros(2)},
            "t": {(0, "W"): 7, (2, "b"): 3},
        }
        flat = flatten_state(state)
        assert set(flat) == {"m/0.W", "m/2.b", "t/0.W", "t/2.b"}
        back = unflatten_state(flat)
        assert set(back) == {"m", "t"}
        np.testing.assert_array_equal(back["m"][(0, "W")], np.arange(4.0))
        assert int(back["t"][(2, "b")]) == 3

    def test_slot_key_codec(self):
        assert encode_slot_key((0, "W")) == "0.W"
        assert decode_slot_key("0.W") == (0, "W")
        assert decode_slot_key("p") == ("p",)
        # names containing dots survive: only the first dot splits
        assert decode_slot_key("3.state.mean") == (3, "state.mean")

    def test_unflatten_rejects_malformed_key(self):
        with pytest.raises(ValueError):
            unflatten_state({"no-slash": np.zeros(1)})
