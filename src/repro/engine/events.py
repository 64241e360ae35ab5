"""Typed event bus for run observability.

The PSHD framework emits one event per stage transition instead of
threading progress dicts through its call tree; history recording, CLI
progress lines and bench-harness instrumentation are all plain
subscribers.  Events are cheap synchronous callbacks — the hot loop pays
nothing when nobody listens.

Event kinds and their payloads:

``run_start``
    ``benchmark, method, pool_size, n_train, n_val, litho_used,
    seed_seconds`` — emitted once after the seed stage (GMM posterior,
    split, initial training).
``iteration_start``
    ``iteration, pool_size, litho_used`` — top of every AL iteration.
``batch_selected``
    ``iteration, selected, query_size, temperature, select_seconds`` —
    after the batch selector ran; ``selected`` holds global dataset
    indices.
``model_updated``
    ``iteration, train_size, hotspots_in_train, temperature,
    batch_hotspots, litho_used, update_seconds, diagnostics`` — after
    the labeled batch fine-tuned the model; ``diagnostics`` carries the
    selector's extra outputs (entropy weights etc.).
``detection_done``
    ``scanned, hits, false_alarms, litho_used, detect_seconds`` — after
    the full-chip scan of the remaining pool.

Fault-tolerance events (see :mod:`repro.engine.checkpoint` and the
retry layer in :mod:`repro.litho.labeler`):

``checkpoint_saved``
    ``iteration, path, checkpoint_seconds`` — after a run checkpoint
    was written atomically to disk.
``run_resumed``
    ``iteration, path, pool_size, litho_used`` — once when a run
    re-enters the AL loop from a checkpoint; ``iteration`` is the last
    *completed* iteration the checkpoint captured.
``simulation_retry``
    ``chunk, retries, n_clips`` — one per labeling chunk that needed
    transient-failure retries; ``retries`` is the attempt count beyond
    the first for that chunk.

Data-plane events (emitted by :mod:`repro.dataplane` and the batched
labelers rather than the framework stages):

``features_extracted``
    ``n_clips, cache_hits, cache_misses, deduped, chunks, chunk_size,
    workers, kinds, cache_stats, extract_seconds`` — one per batch
    extraction request.  During a streaming scan they come from the
    tile workers, so two tiles' events may arrive in either order.
``labels_computed``
    ``n_clips, cache_hits, cache_misses, deduped, simulated_seconds,
    label_seconds`` — one per batch labeling request; ``cache_misses``
    clips actually paid for lithography, ``simulated_seconds`` is their
    runtime-model charge.
``cache_corrupt``
    ``key, path`` — a corrupt on-disk feature-cache entry was detected
    and quarantined (deleted); the read is counted as a miss.
``cache_evicted``
    ``key, bytes, disk_bytes, max_disk_bytes`` — the disk tier evicted
    its least-recently-used entry to stay inside the byte budget.
``cache_tmp_failed``
    ``path, error`` — :meth:`~repro.dataplane.cache.FeatureCache.compact`
    could not remove a leftover ``*.tmp`` file from an interrupted
    write; the failure is also counted in the compaction report's
    ``failed_tmp`` field.

Streaming-scan events (see :mod:`repro.dataplane.stream`):

``scan_started``
    ``layout, n_tiles, n_windows, tile_clips, workers, incremental`` —
    once at the top of a tiled full-chip scan; ``workers`` is the width
    the scan asked of the ordered pool (the caller and the pool's
    helpers), though a scan that finds the pool busy works its tiles on
    the calling thread alone.
``tile_scanned``
    ``tile, n_clips, n_hotspots, replayed, tiles_done, n_tiles,
    tile_seconds`` — one per committed tile, in lattice order
    (``replayed`` tiles served their verdicts from the tile store
    instead of re-scoring).
``scan_completed``
    ``n_tiles, n_clips, n_hotspots, replayed_tiles, rescored_tiles,
    replayed_clips, rescored_clips, scan_seconds`` — once after the
    last tile; the summary half of a
    :class:`~repro.dataplane.stream.ScanReport`.

Serving events (see :mod:`repro.serve`):

``request_received``
    ``model, n_clips, queue_depth`` — one per detection request
    accepted into the daemon's FIFO queue (rejected requests surface
    as ``health_alert`` instead).
``batch_dispatched``
    ``model, n_clips, queue_depth`` — the dispatcher popped the oldest
    queued request and is scoring it alone in one
    extract→scale→predict→calibrate pipeline pass; ``queue_depth`` is
    what is still queued behind it.
``request_completed``
    ``model, n_clips, n_hotspots, serve_seconds`` — one per finished
    request; ``serve_seconds`` runs from admission to completion.

Transport events (see :mod:`repro.serve.transport`):

``transport_listening``
    ``host, port, max_connections`` — the socket front door is
    accepting connections.
``transport_conn_rejected``
    ``peer, detail, max_connections`` — a connection was shed at the
    accept loop (cap reached or the transport is closing); the peer got
    one retryable ``overloaded`` error frame.
``transport_retry``
    ``attempt, error, detail, sleep_s`` — the client hit a retryable
    transport fault and is backing off before its next attempt.
``transport_drain``
    ``n_connections, drain`` — the transport stopped accepting and is
    shutting its live connections down (gracefully when ``drain``).
``serve_circuit_open``
    ``failures, threshold, error`` — the client's circuit breaker
    opened after consecutive retryable failures; calls now fail fast.
``serve_circuit_half_open``
    ``waited_s`` — the cool-down elapsed; one probe request decides
    whether the circuit re-closes or re-opens.
``serve_circuit_closed``
    ``recovered_from`` — a successful exchange closed the circuit.

Run-health events (see :mod:`repro.engine.guard`):

``health_alert``
    ``sentinel, stage, detail, ...`` — a health sentinel tripped
    (non-finite loss, degenerate GMM, diverged temperature fit,
    collapsed scoring, litho budget overrun, hung pool worker).
``recovery_applied``
    ``policy, sentinel, stage, ...`` — a bounded recovery policy ran
    (rollback/retrain, GMM reseed, identity temperature, fallback
    selector, serial fallback, graceful early stop).
``degraded_mode``
    ``mode, stage, ...`` — a recovery budget was exhausted and the run
    continues in a degraded regime instead of aborting.
``guard_report``
    ``final_mode, n_alerts, n_recoveries, alerts, recoveries,
    degraded`` — the :class:`~repro.engine.guard.GuardReport` summary
    emitted once at the end of a supervised run.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..analysis.concurrency import TrackedRLock, guarded_by

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "EventLog",
    "HistoryRecorder",
    "ProgressPrinter",
]

#: the five stage-transition events of one PSHD run (in emission order)
#: plus the fault-tolerance and data-plane events
EVENT_KINDS = (
    "run_start",
    "iteration_start",
    "batch_selected",
    "model_updated",
    "detection_done",
    "checkpoint_saved",
    "run_resumed",
    "simulation_retry",
    "features_extracted",
    "labels_computed",
    "cache_corrupt",
    "cache_evicted",
    "cache_tmp_failed",
    "scan_started",
    "tile_scanned",
    "scan_completed",
    "request_received",
    "batch_dispatched",
    "request_completed",
    "transport_listening",
    "transport_conn_rejected",
    "transport_retry",
    "transport_drain",
    "serve_circuit_open",
    "serve_circuit_half_open",
    "serve_circuit_closed",
    "health_alert",
    "recovery_applied",
    "degraded_mode",
    "guard_report",
)


@dataclass(frozen=True)
class Event:
    """One immutable stage-transition notification."""

    kind: str
    seq: int
    payload: dict = field(default_factory=dict)


#: subscriber signature
Handler = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe hub for :class:`Event`.

    Handlers run in subscription order; a handler subscribed with
    ``kinds`` only sees those event kinds.  Emitting an unknown kind is
    a programming error and raises immediately.

    Thread safety: scan tile workers and pool workers emit
    ``features_extracted``/``cache_evicted`` from their own threads, so
    the subscriber list, the sequence counter, **and dispatch itself** are
    serialized under one re-entrant tracked lock — handlers never run
    concurrently with each other and sequence numbers match delivery
    order.  Two consequences for handler authors: a handler may emit
    further events (the lock is re-entrant), but it must not block or
    acquire a lock that is elsewhere held while emitting (the tracked
    lock reports that inversion under ``REPRO_CHECK``).
    """

    _subscribers = guarded_by("_lock")
    _seq = guarded_by("_lock")

    def __init__(self) -> None:
        self._lock = TrackedRLock("event-bus")
        with self._lock:
            self._subscribers = []  #: guarded_by: _lock
            self._seq = 0  #: guarded_by: _lock

    def subscribe(
        self, handler: Handler, kinds: Iterable[str] | None = None
    ) -> Handler:
        """Register ``handler``; returns it so inline lambdas can be
        unsubscribed later."""
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - set(EVENT_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown event kinds {sorted(unknown)}; "
                    f"known: {EVENT_KINDS}"
                )
        with self._lock:
            self._subscribers.append((handler, kinds))
        return handler

    def unsubscribe(self, handler: Handler) -> None:
        with self._lock:
            self._subscribers = [
                (h, k) for h, k in self._subscribers if h is not handler
            ]

    def emit(self, kind: str, **payload) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {EVENT_KINDS}"
            )
        with self._lock:
            event = Event(kind=kind, seq=self._seq, payload=payload)
            self._seq += 1
            for handler, kinds in list(self._subscribers):
                if kinds is None or kind in kinds:
                    handler(event)
        return event


class EventLog:
    """Subscriber that records every event — bench instrumentation and
    test assertions read the ordered trace back."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per instrumented stage across the run."""
        totals: dict[str, float] = {}
        for event in self.events:
            for key, value in event.payload.items():
                if key.endswith("_seconds"):
                    stage = key[: -len("_seconds")]
                    totals[stage] = totals.get(stage, 0.0) + float(value)
        return totals


class HistoryRecorder:
    """Rebuilds ``PSHDResult.history`` from ``model_updated`` events.

    The entry layout (keys and value types) matches the pre-event-bus
    inline dicts exactly, so downstream table/figure code is unchanged.
    """

    def __init__(self) -> None:
        self.history: list[dict] = []

    def __call__(self, event: Event) -> None:
        if event.kind != "model_updated":
            return
        payload = event.payload
        self.history.append(
            {
                "iteration": payload["iteration"],
                "train_size": payload["train_size"],
                "hotspots_in_train": payload["hotspots_in_train"],
                "temperature": payload["temperature"],
                "batch_hotspots": payload["batch_hotspots"],
                **payload.get("diagnostics", {}),
            }
        )


#: the line :class:`ProgressPrinter` prints per event kind, formatted
#: with the event payload plus the fields ``_DERIVED`` adds; a kind not
#: listed here (``batch_selected``) prints nothing
_PROGRESS_LINES = {
    "run_start": "[{method}] seeded: {n_train} train + {n_val} val "
                 "labeled, pool {pool_size} ({seed_seconds:.1f}s)",
    "iteration_start": "iteration {iteration}: pool {pool_size}, "
                       "litho-clips so far {litho_used}",
    "model_updated": "  labeled {batch_hotspots} hotspots in batch, "
                     "train {train_size} ({hotspots_in_train} HS), "
                     "T={temperature:.3f}",
    "detection_done": "detection: {hits} hits, {false_alarms} false "
                      "alarms over {scanned} scanned clips",
    "checkpoint_saved": "  checkpoint: iteration {iteration} -> {path} "
                        "({checkpoint_seconds:.2f}s)",
    "run_resumed": "resumed after iteration {iteration} from {path}: "
                   "pool {pool_size}, litho-clips so far {litho_used}",
    "simulation_retry": "  litho retry: chunk {chunk} needed {retries} "
                        "retries ({n_clips} clips)",
    "features_extracted": "features: {n_clips} clips ({cache_hits} "
                          "cached, {cache_misses} encoded, "
                          "{extract_seconds:.2f}s)",
    "labels_computed": "labels: {n_clips} clips ({cache_hits} cached, "
                       "{cache_misses} simulated)",
    "cache_corrupt": "  cache: quarantined corrupt entry {key}",
    "cache_evicted": "  cache: evicted {key} ({bytes} B; tier at "
                     "{disk_bytes}/{max_disk_bytes} B)",
    "cache_tmp_failed": "  cache: could not remove temp file {path} "
                        "({error})",
    "request_received": "  serve: request for {n_clips} clips "
                        "(model {model}, queue {queue_depth})",
    "batch_dispatched": "  serve: dispatched {n_clips} clips "
                        "(model {model}, {queue_depth} queued behind)",
    "request_completed": "  serve: {n_hotspots} hotspots in {n_clips} "
                         "clips ({serve_ms:.1f} ms)",
    "transport_listening": "serve: listening on {host}:{port} "
                           "(max {max_connections} connections)",
    "transport_conn_rejected": "  ! serve: shed connection from {peer} "
                               "({detail})",
    "transport_retry": "  serve: retry #{attempt} after {error} "
                       "(backoff {sleep_ms:.0f} ms)",
    "transport_drain": "serve: draining {n_connections} connection(s)",
    "serve_circuit_open": "  ! serve: circuit OPEN after {failures} "
                          "failures ({error})",
    "serve_circuit_half_open": "  serve: circuit half-open after "
                               "{waited_s:.2f}s cool-down",
    "serve_circuit_closed": "  serve: circuit closed (recovered from "
                            "{recovered_from})",
    "scan_started": "scan {layout}: {n_tiles} tiles ({n_windows} windows, "
                    "{workers} workers{incremental_note})",
    "tile_scanned": "  tile {tile} [{tiles_done}/{n_tiles}]: {n_clips} "
                    "clips, {n_hotspots} hotspots{replayed_note}",
    "scan_completed": "scan done: {n_hotspots} hotspots in {n_clips} "
                      "clips over {n_tiles} tiles ({replayed_tiles} "
                      "replayed, {rescored_tiles} scored, "
                      "{scan_seconds:.1f}s)",
    "health_alert": "  ! health: {sentinel} at {stage} — {detail}",
    "recovery_applied": "  > recovery: {policy} (sentinel {sentinel}, "
                        "stage {stage})",
    "degraded_mode": "  * degraded mode: {mode} (stage {stage})",
    "guard_report": "guard: {final_mode} — {n_alerts} alerts, "
                    "{n_recoveries} recoveries",
}

#: the fields a progress line shows that are derived from the payload
#: rather than read from it
_DERIVED = {
    "request_completed": lambda p: {"serve_ms": p["serve_seconds"] * 1e3},
    "transport_retry": lambda p: {"sleep_ms": p["sleep_s"] * 1e3},
    "scan_started": lambda p: {
        "incremental_note": ", incremental" if p["incremental"] else "",
    },
    "tile_scanned": lambda p: {
        "replayed_note": " (replayed)" if p["replayed"] else "",
    },
    "health_alert": lambda p: {"detail": p.get("detail", "")},
}


class ProgressPrinter:
    """Subscriber printing one human-readable line per stage (CLI)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stdout

    def __call__(self, event: Event) -> None:
        template = _PROGRESS_LINES.get(event.kind)
        if template is None:
            return
        fields = dict(event.payload)
        derive = _DERIVED.get(event.kind)
        if derive is not None:
            fields.update(derive(event.payload))
        print(template.format(**fields), file=self.stream)
