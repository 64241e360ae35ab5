"""Typed failure taxonomy of the network transport.

Every way a remote detection request can fail maps onto exactly one
exception type, and every type is either **retryable** (the request is
a pure function of its clips, so re-running it on a fresh connection
is safe and yields a bit-identical result) or **terminal** (retrying
cannot help; surface it to the caller immediately):

====================  =========  =======================================
error                 retryable  meaning
====================  =========  =======================================
``ConnectionLost``    yes        connect refused, reset, or EOF mid-frame
``FrameCorrupt``      yes        bad magic / CRC mismatch / truncated or
                                 oversized frame — the *channel* is bad,
                                 not the protocol; reconnect and retry
``ReadTimeout``       yes        the peer stayed silent past the socket
                                 deadline
``RemoteOverloaded``  yes        server error frame: admission shed or
                                 connection cap — back off and retry
``RemoteTimeout``     yes        server error frame: the server-side
                                 queue wait missed the propagated
                                 deadline
``ProtocolMismatch``  no         a CRC-valid frame carries a different
                                 protocol version (or the server said
                                 so) — no retry can fix a version skew
``RemoteClosed``      no         server error frame: draining or closed
                                 (:class:`~repro.serve.ServerClosed`)
``RemoteError``       no         server error frame: bad request or an
                                 internal pipeline failure
``DeadlineExceeded``  no         the *client* deadline ran out across
                                 all retry attempts (carries the last
                                 underlying error as ``__cause__``)
``CircuitOpenError``  no         the client's circuit breaker is open —
                                 failing fast instead of hammering a
                                 known-bad endpoint
====================  =========  =======================================

``RemoteClosed`` subclasses :class:`~repro.serve.ServerClosed`, so
callers that already handle the in-process daemon's shutdown semantics
handle the remote flavour for free.
"""

from __future__ import annotations

from ..server import ServeError, ServerClosed

__all__ = [
    "CircuitOpenError",
    "ConnectionLost",
    "DeadlineExceeded",
    "FrameCorrupt",
    "ProtocolMismatch",
    "ReadTimeout",
    "RemoteClosed",
    "RemoteError",
    "RemoteOverloaded",
    "RemoteTimeout",
    "RetryableTransportError",
    "TransportError",
]


class TransportError(ServeError):
    """Base error of the socket transport layer."""


class RetryableTransportError(TransportError):
    """A failure the client may safely retry on a fresh connection."""


class ConnectionLost(RetryableTransportError):
    """Connect refused, connection reset, or EOF inside a frame."""


class FrameCorrupt(RetryableTransportError):
    """Bad magic, CRC mismatch, or truncated/oversized frame."""


class ReadTimeout(RetryableTransportError):
    """The peer sent nothing within the socket read deadline."""


class RemoteOverloaded(RetryableTransportError):
    """Server-reported shed: admission control or the connection cap."""


class RemoteTimeout(RetryableTransportError):
    """Server-reported deadline miss on the propagated request budget."""


class ProtocolMismatch(TransportError):
    """CRC-valid frame with an incompatible protocol version."""


class RemoteClosed(ServerClosed, TransportError):
    """Server-reported shutdown/drain: it will never run the request."""


class RemoteError(TransportError):
    """Server-reported terminal failure (bad request, pipeline error)."""


class DeadlineExceeded(TransportError):
    """The client's end-to-end deadline elapsed across all attempts."""


class CircuitOpenError(TransportError):
    """The circuit breaker is open; the call failed fast by design."""
