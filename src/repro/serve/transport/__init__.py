"""Out-of-process transport for the detection daemon.

The wire layer in front of :class:`~repro.serve.DetectionServer`:

* :mod:`~repro.serve.transport.frames` — length-prefixed, versioned,
  CRC32-checked binary frames with npz clip/score payloads.
* :class:`SocketTransport` — threaded socket server: connection cap
  with shedding, per-connection deadlines, typed error frames,
  SIGTERM-triggered graceful drain, health/stats introspection.
* :class:`DetectionClient` — pooled client with end-to-end deadline
  propagation, retry of retryable faults under the shared
  :class:`~repro.engine.faults.RetryPolicy` (plus seeded jitter), and a
  closed→open→half-open :class:`CircuitBreaker`.
* :mod:`~repro.serve.transport.faults` — :class:`FaultySocket`, which
  applies a deterministic :class:`~repro.engine.faults.FaultPlan` to
  outgoing frames for the chaos suite.

See :mod:`repro.serve.transport.errors` for the full retryable vs
terminal failure taxonomy.
"""

from .client import CircuitBreaker, ClientConfig, DetectionClient
from .errors import (
    CircuitOpenError,
    ConnectionLost,
    DeadlineExceeded,
    FrameCorrupt,
    ProtocolMismatch,
    ReadTimeout,
    RemoteClosed,
    RemoteError,
    RemoteOverloaded,
    RemoteTimeout,
    RetryableTransportError,
    TransportError,
)
from .faults import FaultySocket
from .frames import PROTOCOL_VERSION
from .server import SocketTransport, TransportConfig

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ClientConfig",
    "ConnectionLost",
    "DeadlineExceeded",
    "DetectionClient",
    "FaultySocket",
    "FrameCorrupt",
    "PROTOCOL_VERSION",
    "ProtocolMismatch",
    "ReadTimeout",
    "RemoteClosed",
    "RemoteError",
    "RemoteOverloaded",
    "RemoteTimeout",
    "RetryableTransportError",
    "SocketTransport",
    "TransportConfig",
    "TransportError",
]
