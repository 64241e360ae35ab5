"""Fault-tolerant client for the framed detection transport.

:class:`DetectionClient` gives callers the same call shape as the
in-process :meth:`DetectionServer.submit` — clips in,
:class:`~repro.serve.ServeResult` out — with the partial-failure
handling a network boundary demands:

* **connection pooling** — sockets are checked out per request and
  returned after a clean exchange; any socket that saw a transport
  error is discarded (a desynced byte stream can never be reused).
* **end-to-end deadline** — every call runs under one monotonic
  deadline; the *remaining* budget rides each request frame's
  ``deadline_ms`` header and bounds the server-side queue wait, so
  client and server always agree on how long the request may live.
* **bounded retry with seeded jitter** — retryable failures (see
  :mod:`repro.serve.transport.errors`) reconnect and retry under the
  shared :class:`~repro.engine.faults.RetryPolicy`; scoring is a pure
  function of the clips, so a retried result is bit-identical to an
  uninterrupted one.  Each backoff is scaled by jitter from a seeded
  generator (R001: reproducible runs) and clamped to the remaining
  deadline.
* **circuit breaking** — ``breaker_threshold`` consecutive retryable
  failures open the circuit; calls then fail fast with
  :class:`CircuitOpenError` until ``breaker_cooldown_s`` elapses, after
  which one half-open probe decides re-close vs re-open.  Transitions
  emit typed ``serve_circuit_*`` events.

Lock discipline (PR 8): pool, request counter and breaker state are
``guarded_by`` tracked locks; socket I/O, sleeps and event emission
happen strictly outside the critical sections.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass

import numpy as np

from ...analysis.concurrency import TrackedLock, guarded_by
from ...analysis.interleave import trace_point
from ...engine.faults import RetryPolicy
from ..server import ServeResult
from . import frames
from .errors import (
    CircuitOpenError,
    ConnectionLost,
    DeadlineExceeded,
    FrameCorrupt,
    ProtocolMismatch,
    RemoteClosed,
    RemoteError,
    RemoteOverloaded,
    RemoteTimeout,
    RetryableTransportError,
    TransportError,
)

__all__ = ["CircuitBreaker", "ClientConfig", "DetectionClient"]

#: wire error code -> exception type (unknown codes fall back terminal)
_CODE_MAP = {
    "admission": RemoteOverloaded,
    "overloaded": RemoteOverloaded,
    "timeout": RemoteTimeout,
    "corrupt": FrameCorrupt,  # the server saw *our* frame corrupted
    "closed": RemoteClosed,
    "version": ProtocolMismatch,
    "bad_request": RemoteError,
    "internal": RemoteError,
}


@dataclass(frozen=True)
class ClientConfig:
    """Connection, retry and breaker policy of one client."""

    host: str = "127.0.0.1"
    port: int = 0
    #: default end-to-end deadline per call, seconds
    timeout_s: float = 30.0
    #: TCP connect deadline, seconds
    connect_timeout_s: float = 5.0
    #: attempts per call and backoff between them (before jitter)
    retry: RetryPolicy = RetryPolicy(5, 0.05, 2.0)
    #: idle sockets kept for reuse
    pool_size: int = 4
    #: consecutive retryable failures that open the circuit
    breaker_threshold: int = 5
    #: seconds the circuit stays open before one half-open probe
    breaker_cooldown_s: float = 1.0
    #: seed of the backoff-jitter generator
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.port <= 65535:
            raise ValueError(f"port must be in [1, 65535], got {self.port}")
        # NaN fails `> 0`; socket.settimeout rejects NaN and infinity
        for name in ("timeout_s", "connect_timeout_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.pool_size <= 0:
            raise ValueError(
                f"pool_size must be positive, got {self.pool_size}"
            )
        if self.breaker_threshold <= 0:
            raise ValueError(
                f"breaker_threshold must be positive, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive, got "
                f"{self.breaker_cooldown_s}"
            )


class CircuitBreaker:
    """closed → open → half-open failure gate with typed events.

    State lives under a tracked lock; events are collected inside the
    critical section and emitted after it (the bus must never be
    reached while a client-side lock is held).
    """

    _state = guarded_by("_lock")
    _failures = guarded_by("_lock")
    _opened_at = guarded_by("_lock")

    def __init__(self, threshold: int, cooldown_s: float, bus=None) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.bus = bus
        self._lock = TrackedLock("circuit-breaker")
        with self._lock:
            self._state = "closed"  #: guarded_by: _lock
            self._failures = 0  #: guarded_by: _lock
            self._opened_at = 0.0  #: guarded_by: _lock

    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Gate one attempt; flips open → half-open after the cooldown."""
        trace_point("breaker:allow")
        event = None
        with self._lock:
            if self._state == "open":
                waited = time.monotonic() - self._opened_at
                if waited < self.cooldown_s:
                    allowed = False
                else:
                    self._state = "half_open"
                    event = ("serve_circuit_half_open", {
                        "waited_s": waited,
                    })
                    allowed = True
            else:
                allowed = True
        self._emit(event)
        return allowed

    def record_success(self) -> None:
        trace_point("breaker:success")
        event = None
        with self._lock:
            if self._state != "closed":
                event = ("serve_circuit_closed", {
                    "recovered_from": self._state,
                })
            self._state = "closed"
            self._failures = 0
        self._emit(event)

    def record_failure(self, error: str) -> None:
        """One retryable failure; a half-open probe failing (or the
        threshold filling) re-opens the circuit."""
        trace_point("breaker:failure")
        event = None
        with self._lock:
            self._failures += 1
            tripped = (
                self._state == "half_open"
                or (self._state == "closed"
                    and self._failures >= self.threshold)
            )
            if tripped:
                self._state = "open"
                self._opened_at = time.monotonic()
                event = ("serve_circuit_open", {
                    "failures": self._failures,
                    "threshold": self.threshold,
                    "error": error,
                })
        self._emit(event)

    def _emit(self, event: tuple[str, dict] | None) -> None:
        if event is not None and self.bus is not None:
            kind, payload = event
            self.bus.emit(kind, **payload)


class DetectionClient:
    """Pooled, retrying, circuit-breaking client of one transport
    endpoint.  Thread-safe: concurrent callers each check out their own
    socket."""

    _pool = guarded_by("_lock")
    _next_id = guarded_by("_lock")
    _closed = guarded_by("_lock")

    def __init__(
        self,
        config: ClientConfig,
        bus=None,
        wrap_socket=None,
    ) -> None:
        self.config = config
        self.bus = bus
        self.wrap_socket = wrap_socket
        self.breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown_s, bus=bus
        )
        self._lock = TrackedLock("detection-client")
        with self._lock:
            self._pool = []  #: guarded_by: _lock
            self._next_id = 1  #: guarded_by: _lock
            self._closed = False  #: guarded_by: _lock
        # jitter only — never used for anything result-affecting
        self._rng = np.random.default_rng(config.seed)
        self._rng_lock = TrackedLock("client-jitter-rng")

    # ------------------------------------------------------------------
    # public calls
    # ------------------------------------------------------------------
    def submit(
        self,
        clips,
        model: str | None = None,
        want_labels: bool = False,
        timeout: float | None = None,
    ) -> ServeResult:
        """Score ``clips`` remotely; retries transparently on retryable
        faults and returns a result bit-identical to an uninterrupted
        call (scoring is pure per request)."""
        payload = frames.encode_clips(list(clips), model, want_labels)
        return self._call(
            frames.T_REQUEST, payload, self._parse_result, timeout
        )

    def health(self, timeout: float | None = None) -> dict:
        """The endpoint's liveness/drain status and registered models."""
        return self._call(frames.T_HEALTH, b"", self._parse_json, timeout)

    def stats(self, timeout: float | None = None) -> dict:
        """Transport + server counters and the supervisor GuardReport."""
        return self._call(frames.T_STATS, b"", self._parse_json, timeout)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pooled = list(self._pool)
            self._pool = []
        for sock in pooled:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "DetectionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def _call(self, ftype: int, payload: bytes, parse, timeout):
        cfg = self.config
        budget = cfg.timeout_s if timeout is None else float(timeout)
        if not (budget > 0 and math.isfinite(budget)):
            raise ValueError(
                f"timeout must be positive and finite, got {timeout}"
            )
        deadline = time.monotonic() + budget
        attempts = cfg.retry.attempts
        last_error: Exception | None = None
        for attempt in range(1, attempts + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"deadline of {budget:.3f}s elapsed after "
                    f"{attempt - 1} attempts"
                ) from last_error
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open (cooling down "
                    f"{self.config.breaker_cooldown_s}s)"
                ) from last_error
            # split the remaining budget over the attempts still
            # available, so a silently dropped frame costs one slice
            # of the deadline instead of all of it
            attempts_left = attempts - attempt + 1
            slice_s = max(remaining / attempts_left, min(remaining, 0.05))
            try:
                result = self._roundtrip(ftype, payload, parse, slice_s)
            except RetryableTransportError as exc:
                self.breaker.record_failure(type(exc).__name__)
                last_error = exc
                if attempt >= attempts:
                    raise
                self._backoff(attempt, deadline, exc)
                continue
            except TransportError:
                # terminal: retrying cannot change the outcome
                raise
            self.breaker.record_success()
            return result
        raise DeadlineExceeded(  # pragma: no cover - loop always exits
            f"retries exhausted after {attempts} attempts"
        ) from last_error

    def _backoff(self, attempt: int, deadline: float, exc: Exception) -> None:
        with self._rng_lock:
            jitter = 0.5 + float(self._rng.random())
        sleep_s = self.config.retry.delay(attempt) * jitter
        sleep_s = min(sleep_s, max(0.0, deadline - time.monotonic()))
        if self.bus is not None:
            self.bus.emit(
                "transport_retry",
                attempt=attempt,
                error=type(exc).__name__,
                detail=str(exc),
                sleep_s=sleep_s,
            )
        if sleep_s > 0:
            time.sleep(sleep_s)

    # ------------------------------------------------------------------
    # one exchange on one socket
    # ------------------------------------------------------------------
    def _roundtrip(self, ftype: int, payload: bytes, parse, budget_s: float):
        with self._lock:
            if self._closed:
                raise RemoteClosed("client is closed")
            rid = self._next_id
            self._next_id += 1
        sock = self._checkout(budget_s)
        try:
            sock.settimeout(budget_s)
            frames.write_frame(
                sock, ftype, rid, payload,
                deadline_ms=int(budget_s * 1000),
            )
            while True:
                frame = frames.read_frame(sock)
                if frame.request_id in (rid, 0):
                    break
                # stale reply from an earlier abandoned request on a
                # pooled socket — skip it, ours is still in flight
        except BaseException:
            self._discard(sock)
            raise
        if frame.ftype == frames.T_ERROR:
            code, detail, _retryable = frames.decode_error(frame.payload)
            if code in ("admission", "timeout"):
                # the server keeps the connection after these, and the
                # error frame arrived intact — the socket is poolable
                self._checkin(sock)
            else:
                # corrupt/version/closed/overloaded: the server drops
                # the connection after reporting
                self._discard(sock)
            error_type = _CODE_MAP.get(code, RemoteError)
            raise error_type(f"server: {detail or code}")
        try:
            result = parse(frame)
        except BaseException:
            self._discard(sock)
            raise
        self._checkin(sock)
        return result

    @staticmethod
    def _parse_result(frame: frames.Frame) -> ServeResult:
        if frame.ftype != frames.T_RESPONSE:
            raise FrameCorrupt(
                f"expected response frame, got type {frame.ftype}"
            )
        return frames.decode_result(frame.payload)

    @staticmethod
    def _parse_json(frame: frames.Frame) -> dict:
        if frame.ftype not in (frames.T_HEALTH_REPLY, frames.T_STATS_REPLY):
            raise FrameCorrupt(
                f"expected health/stats reply, got type {frame.ftype}"
            )
        return frames.decode_json(frame.payload)

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _checkout(self, budget_s: float):
        trace_point("pool:checkout")
        with self._lock:
            sock = self._pool.pop() if self._pool else None
        if sock is not None:
            return sock
        cfg = self.config
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            raw.settimeout(min(cfg.connect_timeout_s, budget_s))
            raw.connect((cfg.host, cfg.port))
        except socket.timeout as exc:
            raw.close()
            raise ConnectionLost(
                f"connect to {cfg.host}:{cfg.port} timed out"
            ) from exc
        except OSError as exc:
            raw.close()
            raise ConnectionLost(
                f"connect to {cfg.host}:{cfg.port} failed: {exc}"
            ) from exc
        return self.wrap_socket(raw) if self.wrap_socket else raw

    def _checkin(self, sock) -> None:
        trace_point("pool:checkin")
        with self._lock:
            keep = not self._closed and len(self._pool) < self.config.pool_size
            if keep:
                self._pool.append(sock)
        if not keep:
            try:
                sock.close()
            except OSError:
                pass

    @staticmethod
    def _discard(sock) -> None:
        try:
            sock.close()
        except OSError:
            pass
