"""Hotspot-detection daemon (the request-facing serving layer).

:class:`DetectionServer` keeps warm per-model
:class:`~repro.engine.session.InferenceSession`\\ s, one shared
:class:`~repro.dataplane.cache.FeatureCache`, and a FIFO request
queue: one dispatcher thread scores the oldest queued
:meth:`~DetectionServer.submit` call alone in one extract → scale →
predict → calibrate pipeline pass, with admission control tied to the
litho budget and the
:class:`~repro.engine.guard.RunSupervisor` machinery.  See
:mod:`repro.serve.server` for the full design notes, and
:mod:`repro.serve.transport` for the out-of-process socket layer
(framed protocol, :class:`SocketTransport`, :class:`DetectionClient`).
"""

from .server import (
    AdmissionError,
    DetectionServer,
    RequestTimeout,
    ServeConfig,
    ServeError,
    ServeResult,
    ServerClosed,
)

__all__ = [
    "AdmissionError",
    "DetectionServer",
    "RequestTimeout",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServerClosed",
]
