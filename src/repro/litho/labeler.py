"""Litho-clip accounting: the labeling oracle with a cost meter.

Definition 3 of the paper makes the count of lithography-simulated clips
(the "litho-clips") the cost currency of PSHD.  :class:`LithoLabeler`
wraps a simulator, memoizes verdicts per *clip geometry*, and counts
every distinct geometry sent to simulation — re-querying a cached
pattern is free, matching how a real flow would reuse stored simulation
results.

Caching is content-addressed through
:meth:`repro.layout.clip.Clip.content_key`: two ``Clip`` instances with
equal geometry share a verdict regardless of their ``index``, absolute
placement, or which extraction pass produced them.  The batched
:meth:`LithoLabeler.label_batch` path additionally dedupes a whole
request before simulating and can fan simulation out over a thread
pool.

Robustness: a simulator raising
:class:`~repro.litho.faults.TransientSimulationError` is retried per
clip under a :class:`~repro.engine.faults.RetryPolicy`, and verdicts
are committed to the cache *per completed chunk* — a failure in chunk
``N`` never discards the already-paid-for verdicts of chunks
``0..N-1``, which is what makes long labeling campaigns resumable (see
:mod:`repro.engine.checkpoint`).
"""

from __future__ import annotations

import time
from functools import partial

from ..dataplane.pool import chunked, imap_chunks, on_timeout
from ..engine.events import EventBus
from ..engine.faults import RetryPolicy
from ..layout.clip import Clip
from .faults import TransientSimulationError
from .simulator import LithoSimulator

__all__ = ["LithoBudgetExceeded", "LithoLabeler"]

#: wall-clock charge per simulated clip used by the paper's runtime model
#: (Section IV-C: "10s of penalty on each litho-clip").
SECONDS_PER_LITHO_CLIP = 10.0


class LithoBudgetExceeded(RuntimeError):
    """Labeling would overrun the configured litho-clip budget.

    Raised *before* the offending simulations run, so no paid-for work
    is discarded and the meter never exceeds the budget.  The run
    supervisor (:mod:`repro.engine.guard`) turns this into a graceful
    early stop that still runs the final detect stage.
    """

    def __init__(
        self, budget: int, used: int, requested: int
    ) -> None:
        super().__init__(
            f"litho budget exhausted: {used} of {budget} clips spent, "
            f"{requested} more requested"
        )
        self.budget = budget
        self.used = used
        self.requested = requested


def _simulate_clip(
    simulator: LithoSimulator, clip: Clip, retry: RetryPolicy
) -> tuple[int, int]:
    """One verdict under ``retry``; returns ``(verdict, retries_used)``.
    Only :class:`TransientSimulationError` is retried; anything else is
    a real bug and propagates immediately."""
    retries = 0
    while True:
        try:
            return int(simulator.is_hotspot(clip)), retries
        except TransientSimulationError:
            retries += 1
            if retries >= retry.attempts:
                raise
            time.sleep(retry.delay(retries))


def _simulate_chunk(
    clips: list[Clip], simulator: LithoSimulator, retry: RetryPolicy
) -> tuple[list[int], int]:
    """Simulate one chunk of clips under ``retry``.

    Returns ``(verdicts, total_retries)``; retries happen per clip, so
    a transient failure never re-simulates clips that already answered.
    """
    verdicts: list[int] = []
    retries = 0
    for clip in clips:
        verdict, used = _simulate_clip(simulator, clip, retry)
        verdicts.append(verdict)
        retries += used
    return verdicts, retries


class LithoLabeler:
    """Counting, caching front-end to a :class:`LithoSimulator`.

    ``label(clip)`` returns 1 for hotspot and 0 for non-hotspot, charging
    one litho-clip on first query of each distinct clip geometry.  An
    optional :class:`~repro.engine.events.EventBus` receives one
    ``labels_computed`` event per :meth:`label_batch` request, plus one
    ``simulation_retry`` event per chunk that needed transient-failure
    retries.

    ``retry`` schedules the per-clip attempts at
    :class:`~repro.litho.faults.TransientSimulationError` (default: 3
    attempts, backoff from 0.1 s capped at 2.0 s).  ``max_queries``
    caps the number of distinct geometries ever simulated (the litho
    budget of Definition 3) — exceeding it raises
    :class:`LithoBudgetExceeded` before any over-budget simulation is
    paid for.
    """

    def __init__(
        self,
        simulator: LithoSimulator,
        bus: EventBus | None = None,
        retry: RetryPolicy = RetryPolicy(3, 0.1, 2.0),
        max_queries: int | None = None,
    ) -> None:
        if max_queries is not None and max_queries <= 0:
            raise ValueError(
                f"max_queries must be positive or None, got {max_queries}"
            )
        self.simulator = simulator
        self.bus = bus
        self.retry = retry
        self.max_queries = max_queries
        self._cache: dict[str, int] = {}
        self.query_count = 0

    @staticmethod
    def _key(clip: Clip) -> str:
        return clip.content_key()

    def _check_budget(self, n_new: int) -> None:
        if (
            self.max_queries is not None
            and self.query_count + n_new > self.max_queries
        ):
            raise LithoBudgetExceeded(
                self.max_queries, self.query_count, n_new
            )

    def label(self, clip: Clip) -> int:
        """Hotspot verdict for ``clip`` (1 = hotspot), cached."""
        key = self._key(clip)
        if key not in self._cache:
            self._check_budget(1)
            verdict, _ = _simulate_clip(self.simulator, clip, self.retry)
            self.query_count += 1
            self._cache[key] = verdict
        return self._cache[key]

    def label_many(self, clips) -> list[int]:
        """Label a batch of clips, charging only uncached geometry.

        Serial convenience wrapper; prefer :meth:`label_batch` which
        dedupes up front, can run the simulator over a pool, and reports
        cache statistics on the event bus.
        """
        return [self.label(clip) for clip in clips]

    def label_batch(
        self,
        clips,
        chunk_size: int = 16,
        workers: int = 0,
        timeout: float | None = None,
    ) -> list[int]:
        """Verdicts for many clips with request-level deduplication.

        Distinct uncached geometries are simulated once each — in chunks,
        optionally over a thread pool — then every position is
        served from the cache.  Charges ``query_count`` only for the
        simulated geometries, exactly like repeated :meth:`label` calls
        would.

        Verdicts commit to the cache (and charge the meter) *per
        completed chunk*: if chunk ``N`` fails, the verdicts of chunks
        ``0..N-1`` survive and are free on the next request — mid-batch
        failures never discard paid-for simulation work.  A litho
        budget (``max_queries``) is likewise enforced per chunk, so an
        overrun mid-batch keeps every already-committed verdict.

        ``timeout`` arms the pool watchdog: a pooled chunk that does
        not answer within the deadline is cancelled and re-run serially
        (one ``health_alert``/``recovery_applied`` event pair per
        cancelled chunk).
        """
        started = time.perf_counter()
        clips = list(clips)
        keys = [self._key(clip) for clip in clips]

        pending: dict[str, Clip] = {}
        for key, clip in zip(keys, clips):
            if key not in self._cache and key not in pending:
                pending[key] = clip
        n_cached = sum(1 for key in keys if key in self._cache)

        key_chunks = chunked(list(pending), chunk_size)
        results = imap_chunks(
            partial(_simulate_chunk, simulator=self.simulator, retry=self.retry),
            list(pending.values()),
            chunk_size=chunk_size,
            workers=workers,
            timeout=timeout,
            on_timeout=on_timeout(self.bus, "label", timeout),
        )
        total_retries = 0
        for chunk_index, chunk_keys in enumerate(key_chunks):
            # budget check first: an over-budget chunk never commits or
            # charges, so the meter can never exceed max_queries
            self._check_budget(len(chunk_keys))
            verdicts, retries = next(results)
            for key, verdict in zip(chunk_keys, verdicts):
                self._cache[key] = int(verdict)
            self.query_count += len(chunk_keys)
            total_retries += retries
            if retries and self.bus is not None:
                self.bus.emit(
                    "simulation_retry",
                    chunk=chunk_index,
                    retries=retries,
                    n_clips=len(chunk_keys),
                )

        if self.bus is not None:
            self.bus.emit(
                "labels_computed",
                n_clips=len(clips),
                cache_hits=n_cached,
                cache_misses=len(pending),
                deduped=len(clips) - n_cached - len(pending),
                retries=total_retries,
                simulated_seconds=len(pending) * SECONDS_PER_LITHO_CLIP,
                label_seconds=time.perf_counter() - started,
            )
        return [self._cache[key] for key in keys]

    def is_cached(self, clip: Clip) -> bool:
        return self._key(clip) in self._cache

    @property
    def simulated_seconds(self) -> float:
        """Runtime-model cost of all litho queries so far."""
        return self.query_count * SECONDS_PER_LITHO_CLIP

    # ------------------------------------------------------------------
    # checkpoint persistence
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """JSON-serializable verdict cache + cost meter (for
        :mod:`repro.engine.checkpoint`)."""
        return {
            "cache": {key: int(v) for key, v in self._cache.items()},
            "query_count": int(self.query_count),
        }

    def set_state(self, state: dict) -> None:
        """Restore state captured by :meth:`get_state`."""
        cache = {str(k): int(v) for k, v in state["cache"].items()}
        if not all(v in (0, 1) for v in cache.values()):
            raise ValueError("labeler cache verdicts must be 0/1")
        self._cache = cache
        self.query_count = int(state["query_count"])

    def reset(self) -> None:
        """Clear the cache and the cost meter."""
        self._cache.clear()
        self.query_count = 0
