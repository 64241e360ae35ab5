"""Threaded socket front door for the in-process detection daemon.

:class:`SocketTransport` turns a :class:`~repro.serve.DetectionServer`
into a network service: one accept thread plus one handler thread per
live connection, speaking the framed protocol of
:mod:`repro.serve.transport.frames`.  Design points, in the order the
bytes hit them:

* **connection cap** — beyond ``max_connections`` live connections the
  accept loop *sheds*: the new peer gets one retryable ``overloaded``
  error frame and is closed, the supervisor's ``transport_overload``
  sentinel trips, and a ``transport_conn_rejected`` event fires.  The
  cap bounds handler threads the same way ``max_pending_clips`` bounds
  queued clips one layer down.
* **per-connection deadlines** — reads run under ``read_timeout_s``
  (an idle peer is disconnected, never accumulated), writes under
  ``write_timeout_s`` (a peer that stops reading cannot wedge a
  handler).
* **deadline propagation** — 90% of a request frame's ``deadline_ms``
  becomes the ``timeout=`` bound on :meth:`DetectionServer.submit`, so
  the dispatch queue never holds a request longer than its client will
  wait; a server-side miss comes back as a retryable ``timeout`` error
  frame, early enough to reach the client before its own deadline.
* **typed error frames** — every failure is reported with a code and a
  retryable bit (see ``_ERROR_MAP``): shed/timeout are retryable,
  drain/closed/protocol/bad-request are terminal.  A corrupt inbound
  frame gets a best-effort error frame and the connection is dropped —
  a byte stream cannot be resynchronized past a bad length field.
* **graceful drain** — ``close(drain=True)`` (the SIGTERM path via
  :meth:`run_until_signalled`) stops accepting, half-closes idle
  connections (``SHUT_RD`` → handlers finish any in-flight request,
  then see EOF), joins every thread, and finally drains the wrapped
  :class:`DetectionServer` itself.

Lock discipline (PR 8): connection registry, lifecycle flags and
counters are ``guarded_by`` one tracked lock; blocking calls (accept,
frame I/O, ``submit``, joins) and event emission all happen outside it.
"""

from __future__ import annotations

import math
import socket
import threading
from dataclasses import dataclass

from ...analysis.concurrency import TrackedLock, guarded_by
from ..server import AdmissionError, DetectionServer, RequestTimeout, ServerClosed
from . import frames
from .errors import ConnectionLost, FrameCorrupt, ProtocolMismatch, ReadTimeout

__all__ = ["SocketTransport", "TransportConfig"]

#: server exception -> (wire error code, retryable) for request frames
_ERROR_MAP = (
    (AdmissionError, ("admission", True)),
    (RequestTimeout, ("timeout", True)),
    (ServerClosed, ("closed", False)),
)

#: share of a request's propagated deadline it may spend queued.  The
#: client reads the reply under that same deadline, so a server that
#: waited all of it would answer ``timeout`` after the client gave up.
_QUEUE_SHARE = 0.9

#: listen(2) backlog of the accept queue
_ACCEPT_BACKLOG = 64


@dataclass(frozen=True)
class TransportConfig:
    """Socket-level policy of one :class:`SocketTransport`."""

    #: interface to bind (loopback by default — this daemon has no
    #: authentication layer yet)
    host: str = "127.0.0.1"
    #: port to bind (0 = ephemeral; read the bound port off ``address``)
    port: int = 0
    #: live-connection cap; connection N+1 is shed with ``overloaded``
    max_connections: int = 32
    #: per-connection read deadline in seconds (idle peers are dropped)
    read_timeout_s: float = 30.0
    #: per-connection write deadline in seconds
    write_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_connections <= 0:
            raise ValueError(
                f"max_connections must be positive, got "
                f"{self.max_connections}"
            )
        # NaN fails `> 0`; socket.settimeout rejects NaN and infinity
        for name in ("read_timeout_s", "write_timeout_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


class SocketTransport:
    """Network front door: accept loop + per-connection frame handlers.

    Parameters
    ----------
    server:
        The wrapped in-process daemon; ``owns_server=True`` (default)
        means :meth:`close` also closes it.
    config:
        Socket policy (:class:`TransportConfig`).
    bus:
        Optional event bus for the ``transport_*`` events.
    supervisor:
        Optional :class:`~repro.engine.guard.RunSupervisor`; shed
        connections trip its ``transport_overload`` sentinel.
    wrap_socket:
        Optional hook applied to every accepted connection — the chaos
        suite wraps each one in a
        :class:`~repro.serve.transport.faults.FaultySocket` here to
        fault the response path.
    """

    _connections = guarded_by("_lock")
    _handlers = guarded_by("_lock")
    _closed = guarded_by("_lock")
    _draining = guarded_by("_lock")
    _counters = guarded_by("_lock")

    def __init__(
        self,
        server: DetectionServer,
        config: TransportConfig | None = None,
        bus=None,
        supervisor=None,
        wrap_socket=None,
        owns_server: bool = True,
    ) -> None:
        self.server = server
        self.config = config if config is not None else TransportConfig()
        self.bus = bus
        self.supervisor = supervisor
        self.wrap_socket = wrap_socket
        self.owns_server = owns_server
        self._lock = TrackedLock("socket-transport")
        with self._lock:
            self._connections = {}  #: guarded_by: _lock
            self._handlers = []  #: guarded_by: _lock
            self._closed = False  #: guarded_by: _lock
            self._draining = False  #: guarded_by: _lock
            self._counters = {  #: guarded_by: _lock
                "accepted": 0, "rejected": 0, "requests": 0,
                "errors_sent": 0, "corrupt_frames": 0,
            }
        self._shutdown = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # rebinding the advertised port must work immediately after a
        # crash/SIGKILL restart (the kill-and-reconnect guarantee)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(_ACCEPT_BACKLOG)
        #: the bound ``(host, port)`` — resolves ``port=0`` requests
        self.address = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="transport-accept", daemon=True
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SocketTransport":
        """Start accepting connections (idempotent per instance)."""
        if not self._accept_thread.is_alive():
            self._accept_thread.start()
            if self.bus is not None:
                self.bus.emit(
                    "transport_listening",
                    host=self.address[0],
                    port=self.address[1],
                    max_connections=self.config.max_connections,
                )
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting and shut down.

        ``drain=True`` lets every in-flight request finish (handlers
        see EOF after ``SHUT_RD`` and exit); ``drain=False`` severs
        connections outright.  Both paths join all threads, then close
        the wrapped :class:`DetectionServer` when ``owns_server``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = drain
            live = list(self._connections.values())
            handlers = list(self._handlers)
            n_live = len(live)
        try:
            # close() alone does not wake a thread blocked in accept()
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not connected on this platform; close() still frees it
        self._listener.close()
        for conn in live:
            try:
                if drain:
                    # half-close: the handler finishes its in-flight
                    # request, then reads EOF and exits cleanly
                    conn.shutdown(socket.SHUT_RD)
                else:
                    conn.close()
            except OSError:
                pass  # peer already gone
        if self.bus is not None:
            self.bus.emit(
                "transport_drain", n_connections=n_live, drain=drain
            )
        if self._accept_thread.is_alive():
            self._accept_thread.join(timeout=10.0)
        for thread in handlers:
            thread.join(timeout=self.config.read_timeout_s + 10.0)
        if self.owns_server:
            self.server.close(drain=drain)

    def run_until_signalled(self) -> None:
        """Block until SIGTERM/SIGINT, then drain gracefully.

        Installs handlers that set an event; the actual drain runs on
        this (the calling) thread, never inside the signal handler.
        Only callable from the main thread (a Python signal rule).
        """
        import signal

        def _trigger(signum, frame):  # noqa: ARG001 - signal signature
            self._shutdown.set()

        previous = {
            sig: signal.signal(sig, _trigger)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self._shutdown.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        self.close(drain=True)

    def __enter__(self) -> "SocketTransport":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Transport counters + live-connection gauge."""
        with self._lock:
            counters = dict(self._counters)
            counters["connections"] = len(self._connections)
        counters["max_connections"] = self.config.max_connections
        return counters

    # ------------------------------------------------------------------
    # accept loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed — shutdown
            if self.wrap_socket is not None:
                conn = self.wrap_socket(conn)
            shed = None
            with self._lock:
                if self._closed:
                    shed = "closing"
                elif len(self._connections) >= self.config.max_connections:
                    self._counters["rejected"] += 1
                    shed = (
                        f"connection cap reached "
                        f"({self.config.max_connections} live)"
                    )
                else:
                    self._counters["accepted"] += 1
                    key = id(conn)
                    self._connections[key] = conn
            if shed is not None:
                self._reject(conn, peer, shed)
                continue
            thread = threading.Thread(
                target=self._handle,
                args=(conn, key),
                name=f"transport-conn-{key:x}",
                daemon=True,
            )
            with self._lock:
                self._handlers.append(thread)
            thread.start()

    def _reject(self, conn, peer, detail: str) -> None:
        """Shed one connection: best-effort retryable error, close."""
        try:
            conn.settimeout(self.config.write_timeout_s)
            frames.write_frame(
                conn, frames.T_ERROR, 0,
                frames.encode_error("overloaded", detail, retryable=True),
            )
        except (ConnectionLost, ReadTimeout):
            pass  # the peer will see the close instead
        finally:
            try:
                conn.close()
            except OSError:
                pass
        if self.supervisor is not None:
            self.supervisor.connection_shed(detail, peer=str(peer))
        if self.bus is not None:
            self.bus.emit(
                "transport_conn_rejected",
                peer=str(peer),
                detail=detail,
                max_connections=self.config.max_connections,
            )

    # ------------------------------------------------------------------
    # per-connection handler
    # ------------------------------------------------------------------
    def _handle(self, conn, key: int) -> None:
        try:
            while True:
                try:
                    conn.settimeout(self.config.read_timeout_s)
                except OSError:
                    return  # connection torn down by close()
                try:
                    frame = frames.read_frame(conn)
                except (ConnectionLost, ReadTimeout):
                    return  # peer gone or idle past deadline
                except ProtocolMismatch as exc:
                    self._send_error(conn, 0, "version", str(exc), False)
                    return
                except FrameCorrupt as exc:
                    # the stream cannot be resynced past a corrupt
                    # length field — report (best effort) and drop
                    with self._lock:
                        self._counters["corrupt_frames"] += 1
                    self._send_error(conn, 0, "corrupt", str(exc), True)
                    return
                if not self._serve_frame(conn, frame):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._connections.pop(key, None)
                self._handlers = [
                    t for t in self._handlers
                    if t is not threading.current_thread()
                ]

    def _serve_frame(self, conn, frame: frames.Frame) -> bool:
        """Handle one decoded frame; ``False`` ends the connection."""
        rid = frame.request_id
        if frame.ftype == frames.T_HEALTH:
            return self._send(
                conn, frames.T_HEALTH_REPLY, rid,
                frames.encode_json(self._health()),
            )
        if frame.ftype == frames.T_STATS:
            return self._send(
                conn, frames.T_STATS_REPLY, rid,
                frames.encode_json(self._full_stats()),
            )
        if frame.ftype != frames.T_REQUEST:
            return self._send_error(
                conn, rid, "bad_request",
                f"unexpected frame type {frame.ftype}", False,
            )
        try:
            clips, model, want_labels = frames.decode_clips(frame.payload)
        except FrameCorrupt as exc:
            # the CRC passed, so this is a malformed request, not line
            # noise — terminal for the sender
            return self._send_error(conn, rid, "bad_request", str(exc), False)
        with self._lock:
            self._counters["requests"] += 1
        timeout = (
            _QUEUE_SHARE * frame.deadline_ms / 1e3
            if frame.deadline_ms else None
        )
        try:
            result = self.server.submit(
                clips, model=model, want_labels=want_labels, timeout=timeout
            )
        except BaseException as exc:  # noqa: BLE001 - routed to the peer
            for exc_type, (code, retryable) in _ERROR_MAP:
                if isinstance(exc, exc_type):
                    return self._send_error(
                        conn, rid, code, str(exc), retryable
                    )
            return self._send_error(conn, rid, "internal", str(exc), False)
        return self._send(
            conn, frames.T_RESPONSE, rid, frames.encode_result(result)
        )

    def _send(self, conn, ftype: int, rid: int, payload: bytes) -> bool:
        conn.settimeout(self.config.write_timeout_s)
        try:
            frames.write_frame(conn, ftype, rid, payload)
        except (ConnectionLost, ReadTimeout):
            return False  # peer gone mid-reply; the client will retry
        return True

    def _send_error(
        self, conn, rid: int, code: str, detail: str, retryable: bool
    ) -> bool:
        with self._lock:
            self._counters["errors_sent"] += 1
        return self._send(
            conn, frames.T_ERROR, rid,
            frames.encode_error(code, detail, retryable),
        )

    # ------------------------------------------------------------------
    # health / stats payloads
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        with self._lock:
            draining = self._draining or self._closed
            n_connections = len(self._connections)
        return {
            "status": "draining" if draining else "ok",
            "protocol": frames.PROTOCOL_VERSION,
            "models": self.server.models(),
            "connections": n_connections,
        }

    def _full_stats(self) -> dict:
        guard = (
            self.supervisor.report().as_dict()
            if self.supervisor is not None else None
        )
        return {
            "transport": self.stats(),
            "server": self.server.stats(),
            "guard": guard,
        }
