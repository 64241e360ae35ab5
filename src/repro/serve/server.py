"""Persistent in-process detection daemon with a FIFO dispatcher.

The paper's end goal is cheap hotspot detection at chip scale; a
long-lived service amortizes the expensive warm state — fitted scaler,
trained network, content-addressed feature cache — across many small
detection requests.  :class:`DetectionServer` is that service:

* **warm sessions** — one :class:`~repro.engine.session.InferenceSession`
  per registered model version keeps scaler/network state resident; the
  session's thread-safe scaled cache (PR 9's correctness fix) makes one
  session shareable between the dispatcher and any pool-scoring caller.
* **FIFO dispatch** — concurrent :meth:`~DetectionServer.submit` calls
  land in one queue; a single dispatcher thread pops the oldest queued
  request, whatever its model, and scores it alone in one
  extract → scale → predict → calibrate pipeline pass.
* **shared cache, attributable** — all requests extract through one
  :class:`~repro.dataplane.extract.BatchFeatureExtractor`; its cache
  hits/misses are tagged per model version (``FeatureCache`` tenant
  stats), so one shared tier stays accountable per tenant.
* **admission control** — a request is shed at submit time (an
  :class:`AdmissionError`) when the queue's clip backlog would exceed
  ``max_pending_clips``, or when ``want_labels=True`` would overrun the
  litho labeler's ``max_queries`` budget (Definition 3).  Shed requests
  trip the supervisor's ``serve_overload`` sentinel (or a bare
  ``health_alert`` when no supervisor is attached).
* **typed events** — ``request_received`` / ``batch_dispatched`` /
  ``request_completed`` on the :class:`~repro.engine.events.EventBus`.

Bit-identity: each dispatch scores exactly one request, so a served
result is bit-identical to sequential single-request scoring
(``session.predict_tensors(plane.encode_batch(clips))``), which the
serve tests assert exactly.

Lock discipline (PR 8 rules): all queue/model/counter state is
``guarded_by`` one re-entrant tracked lock; blocking waits (the wake
event, client result waits) happen strictly outside the critical
sections, and events are emitted outside the server lock so the
lock-order graph stays ``server → bus``-free.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..analysis.concurrency import TrackedRLock, guarded_by
from ..calibration.temperature import scaled_softmax
from ..dataplane.extract import BatchFeatureExtractor
from ..engine.events import EventBus
from ..engine.session import InferenceSession

__all__ = [
    "AdmissionError",
    "DetectionServer",
    "RequestTimeout",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServerClosed",
]

#: dispatcher wake backstop in seconds (a missed wake costs this much)
_WAKE_BACKSTOP_S = 0.05
#: seconds :meth:`DetectionServer.close` waits for the drain
_DRAIN_WAIT_S = 30.0


class ServeError(RuntimeError):
    """Base error of the serving layer."""


class AdmissionError(ServeError):
    """The request was shed at admission (queue or litho budget)."""


class RequestTimeout(ServeError):
    """The submit wait timed out; a still-queued request is withdrawn
    (it will never be dispatched), an in-flight one runs to completion
    but its result is discarded.  Safe to retry — scoring is pure."""


class ServerClosed(ServeError):
    """The server no longer accepts (or will never run) the request."""


@dataclass(frozen=True)
class ServeConfig:
    """Admission and verdict policy of one :class:`DetectionServer`."""

    #: clip backlog bound; a submit pushing past it is shed
    max_pending_clips: int = 2048
    #: calibrated-probability cutoff for the hotspot verdict
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.max_pending_clips <= 0:
            raise ValueError(
                f"max_pending_clips must be positive, got "
                f"{self.max_pending_clips}"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )


@dataclass(frozen=True)
class ServeResult:
    """Scored outcome of one detection request."""

    #: calibrated hotspot probabilities, one per submitted clip
    scores: np.ndarray
    #: ``scores >= threshold`` verdicts
    verdicts: np.ndarray
    #: raw logits ``(N, 2)``
    logits: np.ndarray
    #: normalized embedding features ``(N, D)``
    embeddings: np.ndarray
    #: model version that scored the request
    model: str
    #: litho ground-truth labels (only with ``want_labels=True``)
    labels: np.ndarray | None = None

    @property
    def n_hotspots(self) -> int:
        return int(np.count_nonzero(self.verdicts))


class _Request:
    """One queued submit: clips in, a completion event + result out."""

    __slots__ = (
        "clips", "model", "want_labels", "done", "result", "error",
        "received",
    )

    def __init__(self, clips: list, model: str | None,
                 want_labels: bool) -> None:
        self.clips = clips
        self.model = model
        self.want_labels = want_labels
        self.done = threading.Event()
        self.result: ServeResult | None = None
        self.error: BaseException | None = None
        self.received = time.perf_counter()

    def complete(self, result: ServeResult) -> None:
        self.result = result
        self.done.set()

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.done.set()


@dataclass
class _ModelEntry:
    """One registered model version: warm session + calibration."""

    session: InferenceSession
    temperature: object | None = None

    def calibrate(self, logits: np.ndarray) -> np.ndarray:
        """Calibrated probabilities (fitted temperature, else the raw
        Eq. (4) softmax)."""
        scaler = self.temperature
        if scaler is not None and scaler.temperature_ is not None:
            return scaler.transform(logits)
        return scaled_softmax(logits, 1.0)


class DetectionServer:
    """Warm multi-model detection daemon with FIFO dispatch.

    Parameters
    ----------
    plane:
        The shared extraction front door (and its feature cache); the
        dispatcher tags its cache traffic with the dispatched model
        version, so ``plane.cache.tenant_stats()`` stays attributable.
    config:
        Admission/verdict policy (:class:`ServeConfig`).
    bus:
        Optional event bus for the serve events.
    labeler:
        Optional :class:`~repro.litho.labeler.LithoLabeler`; enables
        ``want_labels=True`` submits and the litho-budget admission
        check against its ``max_queries``.
    supervisor:
        Optional :class:`~repro.engine.guard.RunSupervisor`; shed
        requests trip its ``serve_overload`` sentinel.
    autostart:
        Start the dispatcher thread immediately (tests queue requests
        against a stopped server, then :meth:`start` it, to fix the
        dispatch order).
    """

    # class-level: queue/model/lifecycle state may only be touched
    # while self._lock is held
    _queue = guarded_by("_lock")
    _models = guarded_by("_lock")
    _closed = guarded_by("_lock")
    _started = guarded_by("_lock")
    _pending_clips = guarded_by("_lock")
    _counters = guarded_by("_lock")

    def __init__(
        self,
        plane: BatchFeatureExtractor,
        config: ServeConfig | None = None,
        bus: EventBus | None = None,
        labeler=None,
        supervisor=None,
        autostart: bool = True,
    ) -> None:
        self.plane = plane
        self.config = config if config is not None else ServeConfig()
        self.bus = bus
        self.labeler = labeler
        self.supervisor = supervisor
        self._lock = TrackedRLock("detection-server")
        with self._lock:
            self._queue = []  #: guarded_by: _lock
            self._models = {}  #: guarded_by: _lock
            self._closed = False  #: guarded_by: _lock
            self._started = False  #: guarded_by: _lock
            self._pending_clips = 0  #: guarded_by: _lock
            self._counters = {  #: guarded_by: _lock
                "received": 0, "rejected": 0, "completed": 0,
                "failed": 0, "timed_out": 0, "batches": 0,
                "dispatched_clips": 0,
            }
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="detection-server", daemon=True
        )
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        self._thread.start()

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the dispatcher down.

        ``drain=True`` (the default) completes every queued request
        first; ``drain=False`` fails them with :class:`ServerClosed`.
        """
        with self._lock:
            self._closed = True
            started = self._started
            dropped = []
            # with no dispatcher running there is nothing to drain the
            # queue into — fail pending requests instead of hanging
            if not drain or not started:
                dropped = list(self._queue)
                self._queue = []
                self._pending_clips = 0
        for request in dropped:
            request.fail(ServerClosed("server closed before dispatch"))
        self._wake.set()
        if started and self._thread.is_alive():
            self._thread.join(timeout=_DRAIN_WAIT_S)
        # promptness guarantee: whatever is still queued after the join
        # (a dead dispatcher, a drain that ran out of time) is failed
        # now — a submitter must never stay blocked on its future
        with self._lock:
            leftovers = list(self._queue)
            self._queue = []
            self._pending_clips = 0
        for request in leftovers:
            request.fail(ServerClosed("server closed before dispatch"))
        if started and self._thread.is_alive():
            raise ServeError(
                f"dispatcher did not drain within {_DRAIN_WAIT_S}s"
            )

    def __enter__(self) -> "DetectionServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    # ------------------------------------------------------------------
    # model registry
    # ------------------------------------------------------------------
    def register_model(
        self,
        name: str,
        classifier,
        temperature=None,
        warm_tensors: np.ndarray | None = None,
    ) -> InferenceSession:
        """Register (or replace) a model version and return its warm
        session.  ``warm_tensors`` optionally seeds the session's pool
        so pool-indexed calls stay available next to serving."""
        if warm_tensors is None:
            warm_tensors = np.zeros(
                (0,) + tuple(classifier.input_shape), dtype=np.float64
            )
        session = InferenceSession(classifier, warm_tensors)
        entry = _ModelEntry(session=session, temperature=temperature)
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            self._models[name] = entry
        return session

    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    # ------------------------------------------------------------------
    # the client call
    # ------------------------------------------------------------------
    def submit(
        self,
        clips,
        model: str | None = None,
        want_labels: bool = False,
        timeout: float | None = None,
    ) -> ServeResult:
        """Score ``clips``; blocks until the dispatcher served the
        request (or ``timeout`` seconds passed).

        Raises :class:`AdmissionError` when shed, :class:`ServerClosed`
        after :meth:`close`, and re-raises any pipeline failure of this
        request on the calling thread.
        """
        clips = list(clips)
        if not clips:
            raise ServeError("empty request (no clips)")
        if want_labels and self.labeler is None:
            raise ServeError("want_labels=True needs a labeler")
        request = _Request(clips, model, want_labels)
        overload = None
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed to new requests")
            if model is None:
                if len(self._models) != 1:
                    raise ServeError(
                        "model=None needs exactly one registered model, "
                        f"have {sorted(self._models)}"
                    )
                request.model = next(iter(self._models))
            elif model not in self._models:
                raise ServeError(
                    f"unknown model {model!r}; registered: "
                    f"{sorted(self._models)}"
                )
            backlog = self._pending_clips + len(clips)
            if backlog > self.config.max_pending_clips:
                overload = (
                    f"queue overloaded: {backlog} pending clips would "
                    f"exceed max_pending_clips="
                    f"{self.config.max_pending_clips}"
                )
            else:
                overload = self._budget_overrun(len(clips), want_labels)
            if overload is None:
                self._queue.append(request)
                self._pending_clips += len(clips)
                self._counters["received"] += 1
                depth = len(self._queue)
            else:
                self._counters["rejected"] += 1
        if overload is not None:
            self._shed(overload, request.model, len(clips))
            raise AdmissionError(overload)
        if self.bus is not None:
            self.bus.emit(
                "request_received",
                model=request.model,
                n_clips=len(clips),
                queue_depth=depth,
            )
        self._wake.set()
        if not request.done.wait(timeout):
            # withdraw a still-queued request so the dispatcher never
            # scores it for a caller that already gave up
            with self._lock:
                try:
                    self._queue.remove(request)
                except ValueError:
                    withdrawn = False  # already taken by the dispatcher
                else:
                    withdrawn = True
                    self._pending_clips -= len(clips)
                    self._counters["timed_out"] += 1
            if withdrawn or not request.done.is_set():
                raise RequestTimeout(
                    f"request timed out after {timeout}s "
                    f"({'withdrawn from queue' if withdrawn else 'in flight'})"
                )
            # completed in the race window between wait and withdraw —
            # fall through and return the result
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _budget_overrun(self, n_clips: int, want_labels: bool) -> str | None:  #: requires: _lock
        """Admission-time litho-budget check (best effort — the labeler
        still enforces the budget authoritatively at labeling time)."""
        if not want_labels or self.labeler is None:
            return None
        budget = self.labeler.max_queries
        if budget is None:
            return None
        used = self.labeler.query_count
        if used + n_clips > budget:
            return (
                f"litho budget exhausted: {used} used + {n_clips} "
                f"requested > max_queries={budget}"
            )
        return None

    def _shed(self, detail: str, model: str | None, n_clips: int) -> None:
        """Surface one shed request through the guard machinery."""
        if self.supervisor is not None:
            self.supervisor.overloaded(
                detail, model=model, n_clips=n_clips
            )
        elif self.bus is not None:
            self.bus.emit(
                "health_alert",
                sentinel="serve_overload",
                stage="serve",
                detail=detail,
                model=model,
                n_clips=n_clips,
            )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Lifetime serving counters plus per-tenant cache stats
        (``batches`` counts dispatches, one request each)."""
        with self._lock:
            counters = dict(self._counters)
            depth = len(self._queue)
        batches = counters["batches"]
        counters["queue_depth"] = depth
        counters["mean_batch_clips"] = (
            counters["dispatched_clips"] / batches if batches else 0.0
        )
        counters["cache_tenants"] = self.plane.cache.tenant_stats()
        return counters

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                request = self._queue.pop(0) if self._queue else None
                if request is not None:
                    self._pending_clips -= len(request.clips)
                depth = len(self._queue)
                closed = self._closed
            if request is not None:
                self._dispatch(request, depth)
            elif closed:
                return
            else:
                self._wake.wait(timeout=_WAKE_BACKSTOP_S)
                self._wake.clear()

    def _dispatch(self, request: _Request, depth: int) -> None:
        """Score one request alone: extract → scale → predict →
        calibrate (bit-identity, see module docs)."""
        model = request.model
        n = len(request.clips)
        with self._lock:
            entry = self._models[model]
            self._counters["batches"] += 1
            self._counters["dispatched_clips"] += n
        if self.bus is not None:
            self.bus.emit(
                "batch_dispatched", model=model, n_clips=n, queue_depth=depth
            )
        # the dispatcher is the only thread driving the plane, so the
        # tenant tag is safe to swap per dispatch
        self.plane.tenant = model
        try:
            prediction = entry.session.predict_tensors(
                self.plane.encode_batch(request.clips)
            )
            scores = np.asarray(entry.calibrate(prediction.logits)[:, 1])
            labels = None
            if request.want_labels:
                labels = np.asarray(
                    self.labeler.label_batch(request.clips), dtype=np.int64
                )
        except BaseException as exc:  # noqa: BLE001 - routed to client
            request.fail(exc)
            with self._lock:
                self._counters["failed"] += 1
            return
        result = ServeResult(
            scores=scores,
            verdicts=scores >= self.config.threshold,
            logits=prediction.logits,
            embeddings=prediction.embeddings,
            model=model,
            labels=labels,
        )
        request.complete(result)
        with self._lock:
            self._counters["completed"] += 1
        if self.bus is not None:
            self.bus.emit(
                "request_completed",
                model=model,
                n_clips=n,
                n_hotspots=result.n_hotspots,
                serve_seconds=time.perf_counter() - request.received,
            )
