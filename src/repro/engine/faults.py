"""One retry policy and one fault plan for every fault-tolerance path.

Two layers retry transient failures: :class:`~repro.litho.LithoLabeler`
re-runs a simulator call that raised
:class:`~repro.litho.faults.TransientSimulationError`, and
:class:`~repro.serve.transport.DetectionClient` re-sends a request that
died on the wire.  Both take their schedule from one
:class:`RetryPolicy`, where ``attempts`` always counts *total* tries.

Both layers are also tested the same way: a :class:`FaultPlan` scripts
faults at planned, reproducible call indices, and a
:class:`FaultInjector` hands out those indices under a lock.  The
wrappers that act on a fault live next to what they wrap —
:class:`~repro.litho.faults.FlakySimulator` (one index per simulator
call) and :class:`~repro.serve.transport.faults.FaultySocket` (one
index per frame sent).  The fault kinds:

``fail``
    raise instead of answering (a socket send closes the connection,
    as for ``disconnect``).
``drop``
    swallow the frame silently — the peer waits and hits its read
    deadline (:class:`~repro.serve.transport.ReadTimeout`).
``delay``
    sleep ``delay_s`` before sending — long enough to push the peer
    past a short deadline, or to model a slow link.
``truncate``
    send only the first half of the frame, then close the connection —
    the peer sees EOF mid-frame
    (:class:`~repro.serve.transport.ConnectionLost`).
``garbage``
    flip seeded-deterministic bytes inside the frame — the CRC32 check
    rejects it (:class:`~repro.serve.transport.FrameCorrupt`).
``disconnect``
    close the connection instead of sending anything
    (:class:`~repro.serve.transport.ConnectionLost`).

A simulator call has no partial outcome, so a
:class:`~repro.litho.faults.FlakySimulator` fails on every kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.concurrency import TrackedLock, guarded_by

__all__ = ["FAULT_KINDS", "FaultInjector", "FaultPlan", "RetryPolicy"]

FAULT_KINDS = ("fail", "drop", "delay", "truncate", "garbage", "disconnect")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff over ``attempts`` total tries.

    Retry ``r`` (1-based: the second try is retry 1) waits
    :meth:`delay` seconds first — ``base_s`` doubling per retry, capped
    at ``max_s``.  ``attempts == 1`` never retries.
    """

    attempts: int
    base_s: float
    max_s: float

    def __post_init__(self) -> None:
        if self.attempts <= 0:
            raise ValueError(
                f"attempts must be positive, got {self.attempts}"
            )
        if self.base_s < 0 or self.max_s < 0:
            raise ValueError("backoff delays must be non-negative")

    def delay(self, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        return min(self.base_s * 2.0 ** (retry - 1), self.max_s)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic schedule of injected faults.

    ``faults`` maps a 0-based global call (or frame) index to one of
    :data:`FAULT_KINDS`; indices not in it run clean.  Retries advance
    the index, so ``FaultPlan({0: "fail", 1: "fail"})`` makes the first
    simulated clip fail twice and succeed on its third attempt.
    """

    faults: dict[int, str] = field(default_factory=dict)
    #: sleep of a ``delay`` fault, in seconds
    delay_s: float = 0.2
    #: base seed of ``garbage`` corruption (the frame index is added)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", dict(self.faults))
        unknown = sorted(set(self.faults.values()) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown}; expected {FAULT_KINDS}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultInjector:
    """One plan + one global call counter, shared by every wrapped
    simulator or socket.

    Pool threads (litho labeling) and handler/client threads (the
    transport) claim indices concurrently, so the counter and the
    per-kind tallies live under a tracked lock; the fault *action*
    (raising, sleeping, closing) happens outside it.  One injector
    shared by several sockets indexes one frame sequence even across
    reconnects.
    """

    _calls = guarded_by("_lock")
    _tally = guarded_by("_lock")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = TrackedLock("fault-injector")
        with self._lock:
            self._calls = 0  #: guarded_by: _lock
            self._tally = dict.fromkeys(FAULT_KINDS, 0)  #: guarded_by: _lock

    def next_fault(self) -> tuple[int, str | None]:
        """Claim the next call index and its planned fault kind."""
        with self._lock:
            index = self._calls
            self._calls += 1
            kind = self.plan.faults.get(index)
            if kind is not None:
                self._tally[kind] += 1
        return index, kind

    def counts(self) -> dict:
        """Calls claimed so far and faults injected, by kind."""
        with self._lock:
            return {"calls": self._calls, **self._tally}
