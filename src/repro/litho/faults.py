"""Fault injection for the lithography oracle.

Real labeling campaigns run for hours against simulation farms that
fail transiently — license blips, preempted workers, NFS hiccups.  The
robustness layer in :class:`repro.litho.labeler.LithoLabeler` retries
:class:`TransientSimulationError` under a
:class:`~repro.engine.faults.RetryPolicy`; the harness here produces
those failures deterministically so the retry path, per-chunk verdict
commits, and checkpoint/resume flows can be tested without a flaky
farm.

:class:`FlakySimulator` wraps any object with an ``is_hotspot`` method
and fails the simulation calls that a
:class:`~repro.engine.faults.FaultPlan` schedules, taking each call's
0-based global index from a shared
:class:`~repro.engine.faults.FaultInjector`.
"""

from __future__ import annotations

from ..engine.faults import FaultInjector
from ..layout.clip import Clip

__all__ = ["TransientSimulationError", "FlakySimulator"]


class TransientSimulationError(RuntimeError):
    """A retryable simulator failure (the request may succeed if re-run)."""


class FlakySimulator:
    """Wrap a simulator and inject :class:`TransientSimulationError`.

    ``inner`` is anything with an ``is_hotspot(clip)`` method (a
    :class:`~repro.litho.simulator.LithoSimulator` or a test stub).
    Every call claims the next index from ``injector``, whose
    ``counts()`` report attempts and injected faults for
    retry-accounting assertions.  A simulation has no partial outcome,
    so a call fails on every planned fault kind.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def is_hotspot(self, clip: Clip) -> bool:
        index, kind = self.injector.next_fault()
        if kind is not None:
            raise TransientSimulationError(
                f"injected transient fault at call {index}"
            )
        return bool(self.inner.is_hotspot(clip))
