"""Fault injection: transient-failure retry and per-chunk verdict commits."""

import sys

import pytest

from repro.engine.events import EventBus, EventLog
from repro.engine.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.layout import Clip, Rect
from repro.litho import (
    FlakySimulator,
    LithoLabeler,
    TransientSimulationError,
)


def make_clips(n, size=1200, margin=300):
    """``n`` clips with distinct geometry (distinct content keys)."""
    window = Rect(0, 0, size, size)
    return [
        Clip(
            window,
            window.expanded(-margin),
            rects=[Rect(100, 400 + 10 * i, 1100, 600 + 10 * i)],
            index=i,
        )
        for i in range(n)
    ]


class CountingSimulator:
    """Deterministic stand-in oracle: verdict = parity of the clip index."""

    def __init__(self):
        self.calls = 0

    def is_hotspot(self, clip):
        self.calls += 1
        return clip.index % 2 == 1


def fail_at(*indices):
    """A plan failing the simulator calls at ``indices``."""
    return FaultPlan(dict.fromkeys(indices, "fail"))


def flaky_labeler(plan, bus=None, retry=RetryPolicy(3, 0.0, 0.0)):
    return LithoLabeler(
        FlakySimulator(CountingSimulator(), FaultInjector(plan)),
        bus=bus, retry=retry,
    )


class TestFaultPlan:
    def test_fail_first(self):
        injector = FaultInjector(fail_at(0, 1))
        claimed = [injector.next_fault() for _ in range(3)]
        assert claimed == [(0, "fail"), (1, "fail"), (2, None)]

    def test_at(self):
        injector = FaultInjector(FaultPlan({3: "fail", 5: "drop"}))
        claimed = [injector.next_fault() for _ in range(6)]
        assert [kind for _, kind in claimed] == [
            None, None, None, "fail", None, "drop",
        ]
        counts = injector.counts()
        assert counts["calls"] == 6
        assert counts["fail"] == counts["drop"] == 1

    def test_rejects_unknown_kind_and_negative_delay(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan({0: "explode"})
        with pytest.raises(ValueError, match="delay_s"):
            FaultPlan(delay_s=-1.0)


class TestRetryPolicy:
    def test_delay_doubles_up_to_the_cap(self):
        policy = RetryPolicy(5, 0.1, 0.5)
        assert [policy.delay(r) for r in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.4, 0.5,
        ]


class TestFlakySimulator:
    def test_counts_calls_and_faults(self):
        injector = FaultInjector(fail_at(0))
        sim = FlakySimulator(CountingSimulator(), injector)
        [clip] = make_clips(1)
        with pytest.raises(TransientSimulationError):
            sim.is_hotspot(clip)
        assert sim.is_hotspot(clip) == (clip.index % 2 == 1)
        assert injector.counts()["calls"] == 2
        assert injector.counts()["fail"] == 1

    def test_every_planned_kind_fails_the_call(self):
        # a simulation has no partial outcome: even a frame-level kind
        # such as "delay" fails the call outright
        sim = FlakySimulator(
            CountingSimulator(), FaultInjector(FaultPlan({0: "delay"}))
        )
        [clip] = make_clips(1)
        with pytest.raises(TransientSimulationError):
            sim.is_hotspot(clip)


class TestLabelerRetry:
    def test_retries_recover_and_match_clean_run(self):
        clips = make_clips(6)
        clean = LithoLabeler(CountingSimulator())
        bus = EventBus()
        log = bus.subscribe(EventLog())
        flaky = flaky_labeler(fail_at(0, 1), bus=bus)

        assert flaky.label_batch(clips, chunk_size=2) == (
            clean.label_batch(clips, chunk_size=2)
        )
        assert flaky.query_count == clean.query_count == 6
        # both injected faults were retried and reported on the bus
        retry_events = log.of_kind("simulation_retry")
        assert sum(e.payload["retries"] for e in retry_events) == 2
        [computed] = log.of_kind("labels_computed")
        assert computed.payload["retries"] == 2

    def test_exhausted_retries_keep_completed_chunks(self):
        """Chunk 0 answers; chunk 1 hits a 3-failure streak that uses up
        all 3 attempts.  The error propagates, but chunk 0's verdicts
        are committed and charged — resumable labeling."""
        clips = make_clips(4)
        labeler = flaky_labeler(fail_at(2, 3, 4))
        with pytest.raises(TransientSimulationError):
            labeler.label_batch(clips, chunk_size=2)
        assert labeler.query_count == 2
        assert labeler.is_cached(clips[0]) and labeler.is_cached(clips[1])
        assert not labeler.is_cached(clips[2])

        # a retry of the request pays only for the missing chunk
        verdicts = labeler.label_batch(clips, chunk_size=2)
        assert labeler.query_count == 4
        assert verdicts == [i % 2 for i in range(4)]

    def test_single_label_retries(self):
        [clip] = make_clips(1)
        labeler = flaky_labeler(fail_at(0, 1))
        assert labeler.label(clip) == 0
        assert labeler.query_count == 1

    def test_zero_retry_budget_propagates_immediately(self):
        [clip] = make_clips(1)
        labeler = flaky_labeler(fail_at(0), retry=RetryPolicy(1, 0.0, 0.0))
        with pytest.raises(TransientSimulationError):
            labeler.label(clip)

    def test_non_transient_errors_not_retried(self):
        class BrokenSimulator:
            def is_hotspot(self, clip):
                raise RuntimeError("permanent")

        [clip] = make_clips(1)
        labeler = LithoLabeler(
            BrokenSimulator(), retry=RetryPolicy(6, 0.0, 0.0)
        )
        with pytest.raises(RuntimeError, match="permanent"):
            labeler.label(clip)

    def test_rejects_negative_retry_config(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(0, 0.1, 2.0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(3, -0.1, 2.0)

    def test_default_schedule_is_three_attempts(self):
        retry = LithoLabeler(CountingSimulator()).retry
        assert retry == RetryPolicy(3, 0.1, 2.0)

    def test_thread_pool_faults_match_clean_run(self):
        """Pool threads share one injector: every planned index fires
        exactly once and no claimed index is lost (a lost update in the
        call counter would break the ``calls`` identity)."""
        clips = make_clips(64)
        plan = fail_at(1, 4, 9, 13)
        injector = FaultInjector(plan)
        flaky = LithoLabeler(
            FlakySimulator(CountingSimulator(), injector),
            retry=RetryPolicy(len(plan.faults) + 1, 0.0, 0.0),
        )
        clean = LithoLabeler(CountingSimulator())
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            verdicts = flaky.label_batch(clips, chunk_size=2, workers=4)
        finally:
            sys.setswitchinterval(previous)
        assert verdicts == clean.label_batch(clips, chunk_size=2)
        assert flaky.query_count == clean.query_count == len(clips)
        counts = injector.counts()
        assert counts["calls"] == len(clips) + len(plan.faults)
        assert counts["fail"] == len(plan.faults)


class TestLabelerState:
    def test_get_set_state_roundtrip(self):
        clips = make_clips(3)
        source = LithoLabeler(CountingSimulator())
        source.label_batch(clips)
        state = source.get_state()

        target = LithoLabeler(CountingSimulator())
        target.set_state(state)
        assert target.query_count == source.query_count
        # every verdict is served from cache: the inner oracle is idle
        assert target.label_batch(clips) == [0, 1, 0]
        assert target.simulator.calls == 0

    def test_set_state_rejects_bad_verdicts(self):
        labeler = LithoLabeler(CountingSimulator())
        with pytest.raises(ValueError, match="0/1"):
            labeler.set_state({"cache": {"k": 7}, "query_count": 1})
