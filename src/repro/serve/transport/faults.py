"""Deterministic fault injection for the socket transport.

Chaos testing the transport needs faults at *planned, reproducible*
points rather than random ones, so a test can assert exactly which
frame dies and exactly how the client recovers.  The plan is the shared
:class:`~repro.engine.faults.FaultPlan`, indexed by global
**frame-send index** (the transport writes each frame with a single
``sendall``, so frame index == send call index on that side); its
frame kinds — ``drop``, ``delay``, ``truncate``, ``garbage``,
``disconnect`` — are described in :mod:`repro.engine.faults`.

:class:`FaultySocket` applies the plan to one socket, claiming frame
indices from a :class:`~repro.engine.faults.FaultInjector`.  Pass
``lambda sock: FaultySocket(sock, injector)`` as ``wrap_socket=`` to
either :class:`~repro.serve.transport.DetectionClient` (faults on the
request path) or :class:`~repro.serve.transport.SocketTransport`
(faults on the response path).  One injector shared by every wrapped
socket indexes one global frame sequence even across reconnects.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from ...engine.faults import FaultInjector

__all__ = ["FaultySocket"]


class FaultySocket:
    """Socket wrapper whose ``sendall`` applies the planned fault for
    each outgoing frame (the transport writes one frame per ``sendall``,
    so the injector's call counter lines up exactly)."""

    def __init__(self, sock: socket.socket, injector: FaultInjector) -> None:
        self._sock = sock
        self._injector = injector

    def sendall(self, data: bytes) -> None:
        index, kind = self._injector.next_fault()
        if kind == "drop":
            return
        if kind in ("disconnect", "fail"):
            self._sock.close()
            raise OSError("fault injection: disconnect before send")
        if kind == "truncate":
            self._sock.sendall(data[: max(1, len(data) // 2)])
            self._sock.close()
            raise OSError("fault injection: truncated mid-frame")
        if kind == "delay":
            time.sleep(self._injector.plan.delay_s)
        elif kind == "garbage":
            data = self._corrupt(data, index)
        self._sock.sendall(data)

    def _corrupt(self, data: bytes, index: int) -> bytes:
        """Flip a few bytes deterministically (seeded per frame index,
        so re-running the same plan corrupts identically)."""
        rng = np.random.default_rng(self._injector.plan.seed + index)
        corrupted = bytearray(data)
        n_flips = min(4, len(corrupted))
        for position in rng.integers(0, len(corrupted), size=n_flips):
            corrupted[int(position)] ^= 0xA5
        return bytes(corrupted)

    # ------------------------------------------------------------------
    # transparent delegation for everything the transport touches
    # ------------------------------------------------------------------
    def recv(self, n: int) -> bytes:
        return self._sock.recv(n)

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def getpeername(self):
        return self._sock.getpeername()

    def getsockname(self):
        return self._sock.getsockname()
