"""Tests of the framed socket transport (:mod:`repro.serve.transport`).

Covers the wire format (framing, CRC rejection, version skew, payload
codecs), the server side (bit-identical remote scoring, connection-cap
shedding with supervisor sentinels, deadline propagation, typed error
frames, graceful drain) and the client side (pooling, typed terminal
errors, the circuit breaker's lock discipline under the deterministic
interleaving harness).  The whole module runs under
``REPRO_CHECK=strict`` so every ``guarded_by`` access is verified
lock-held.
"""

import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.analysis.interleave import InterleaveScheduler
from repro.analysis.modes import set_check_mode
from repro.engine.events import EventBus, EventLog
from repro.engine.faults import RetryPolicy
from repro.engine.guard import GuardConfig, RunSupervisor
from repro.serve import DetectionServer, ServeConfig
from repro.serve.transport import (
    CircuitBreaker,
    ClientConfig,
    ConnectionLost,
    DetectionClient,
    FrameCorrupt,
    ProtocolMismatch,
    ReadTimeout,
    RemoteClosed,
    RemoteOverloaded,
    RemoteTimeout,
    SocketTransport,
    TransportConfig,
)
from repro.serve.transport import frames

from .conftest import make_plane


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "strict")
    previous = set_check_mode("strict")
    yield
    set_check_mode(previous)


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------

def _pipe():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestFrames:
    def test_roundtrip(self):
        a, b = _pipe()
        try:
            frames.write_frame(
                a, frames.T_REQUEST, 42, b"payload", deadline_ms=1500
            )
            frame = frames.read_frame(b)
            assert frame.ftype == frames.T_REQUEST
            assert frame.request_id == 42
            assert frame.deadline_ms == 1500
            assert frame.payload == b"payload"
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("position", [0, 5, 10, 27, 30])
    def test_any_flipped_byte_is_rejected(self, position):
        data = bytearray(frames.encode_frame(frames.T_RESPONSE, 7, b"abcd"))
        data[position] ^= 0xFF
        a, b = _pipe()
        try:
            a.sendall(bytes(data))
            with pytest.raises(FrameCorrupt):
                frames.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_version_skew_is_terminal_only_when_crc_valid(self):
        # hand-build a frame whose version differs but whose CRC is
        # correct: must surface as ProtocolMismatch, not FrameCorrupt
        header = struct.pack(
            ">4sHBBQII", frames.MAGIC, frames.PROTOCOL_VERSION + 1,
            frames.T_REQUEST, 0, 1, 0, 0,
        )
        crc = zlib.crc32(b"", zlib.crc32(header)) & 0xFFFFFFFF
        a, b = _pipe()
        try:
            a.sendall(header + struct.pack(">I", crc))
            with pytest.raises(ProtocolMismatch):
                frames.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_connection_lost(self):
        data = frames.encode_frame(frames.T_REQUEST, 3, b"x" * 64)
        a, b = _pipe()
        try:
            a.sendall(data[: len(data) // 2])
            a.close()
            with pytest.raises(ConnectionLost):
                frames.read_frame(b)
        finally:
            b.close()

    def test_oversized_length_is_rejected_before_reading(self):
        header = struct.pack(
            ">4sHBBQII", frames.MAGIC, frames.PROTOCOL_VERSION,
            frames.T_REQUEST, 0, 1, 0, frames.MAX_FRAME_BYTES + 1,
        )
        crc = zlib.crc32(b"", zlib.crc32(header)) & 0xFFFFFFFF
        a, b = _pipe()
        try:
            a.sendall(header + struct.pack(">I", crc))
            with pytest.raises(FrameCorrupt, match="payload bytes"):
                frames.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_silence_is_read_timeout(self):
        a, b = _pipe()
        try:
            b.settimeout(0.1)
            with pytest.raises(ReadTimeout):
                frames.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_clip_codec_roundtrip(self, trained):
        clips = trained["pool"][:5]
        payload = frames.encode_clips(clips, "v1", True)
        decoded, model, want_labels = frames.decode_clips(payload)
        assert model == "v1"
        assert want_labels is True
        assert len(decoded) == len(clips)
        for original, rebuilt in zip(clips, decoded):
            assert rebuilt.window == original.window
            assert rebuilt.core == original.core
            assert rebuilt.rects == original.rects
            assert rebuilt.layout_name == original.layout_name
            assert rebuilt.index == original.index
            # the cache key must survive the wire: a remote clip hits
            # the same feature-cache entry as a local one
            assert rebuilt.content_key() == original.content_key()

    def test_error_codec_roundtrip(self):
        payload = frames.encode_error("admission", "queue full", True)
        assert frames.decode_error(payload) == ("admission", "queue full", True)


# ----------------------------------------------------------------------
# server + client integration
# ----------------------------------------------------------------------

@pytest.fixture()
def stack(trained):
    """A started server + transport + bus/log, torn down after."""
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    supervisor = RunSupervisor(GuardConfig(), bus)
    supervisor.attach()
    server = DetectionServer(make_plane(bus), ServeConfig(), bus=bus,
                             supervisor=supervisor)
    server.register_model("v1", trained["clf"], trained["temperature"])
    transport = SocketTransport(
        server, TransportConfig(read_timeout_s=10.0), bus=bus,
        supervisor=supervisor,
    ).start()
    yield {
        "server": server, "transport": transport, "bus": bus,
        "log": log, "supervisor": supervisor,
        "address": transport.address,
    }
    transport.close(drain=False)
    supervisor.detach()


def _client(stack, **overrides):
    host, port = stack["address"]
    defaults = dict(host=host, port=port, timeout_s=60.0,
                    retry=RetryPolicy(5, 0.01, 2.0))
    defaults.update(overrides)
    return DetectionClient(ClientConfig(**defaults), bus=stack["bus"])


class TestTransportIntegration:
    def test_remote_scores_bit_identical_to_in_process(self, stack, trained):
        pool = trained["pool"]
        reference = stack["server"].submit(pool[:8], model="v1", timeout=60)
        with _client(stack) as client:
            remote = client.submit(pool[:8], model="v1")
        assert np.array_equal(remote.scores, reference.scores)
        assert remote.scores.dtype == reference.scores.dtype
        assert np.array_equal(remote.logits, reference.logits)
        assert np.array_equal(remote.verdicts, reference.verdicts)
        assert np.array_equal(remote.embeddings, reference.embeddings)
        assert remote.model == "v1"

    def test_pool_reuses_connections(self, stack, trained):
        pool = trained["pool"]
        with _client(stack, pool_size=2) as client:
            for start in range(0, 12, 4):
                client.submit(pool[start : start + 4], model="v1")
        assert stack["transport"].stats()["accepted"] == 1

    def test_health_and_stats(self, stack):
        with _client(stack) as client:
            health = client.health()
            stats = client.stats()
        assert health["status"] == "ok"
        assert health["models"] == ["v1"]
        assert health["protocol"] == frames.PROTOCOL_VERSION
        assert stats["transport"]["accepted"] >= 1
        assert "completed" in stats["server"]
        # the supervisor GuardReport rides along for remote operators
        assert stats["guard"]["final_mode"] == "normal"

    def test_connection_cap_sheds_with_sentinel(self, stack, trained):
        transport = SocketTransport(
            stack["server"],
            TransportConfig(max_connections=1),
            bus=stack["bus"],
            supervisor=stack["supervisor"],
            owns_server=False,
        ).start()
        host, port = transport.address
        holder = socket.create_connection((host, port), timeout=5.0)
        try:
            # the holder occupies the only slot before we query
            frames.write_frame(holder, frames.T_HEALTH, 1)
            frames.read_frame(holder)
            with DetectionClient(ClientConfig(
                host=host, port=port, timeout_s=3.0,
                retry=RetryPolicy(2, 0.01, 2.0),
            )) as client:
                with pytest.raises(RemoteOverloaded):
                    client.health()
        finally:
            holder.close()
            transport.close(drain=False)
        rejected = stack["log"].of_kind("transport_conn_rejected")
        assert rejected, "shed connection must emit its event"
        report = stack["supervisor"].report()
        assert any(
            alert["sentinel"] == "transport_overload"
            for alert in report.alerts
        )
        assert any(
            recovery["policy"] == "shed_connection"
            for recovery in report.recoveries
        )

    def test_deadline_propagates_to_server_side_wait(self, trained):
        # a server whose dispatcher never starts: the propagated
        # deadline is the only thing that can unblock the request
        bus = EventBus()
        server = DetectionServer(make_plane(), ServeConfig(), bus=bus,
                                 autostart=False)
        server.register_model("v1", trained["clf"], trained["temperature"])
        transport = SocketTransport(server, TransportConfig(), bus=bus).start()
        host, port = transport.address
        try:
            with DetectionClient(ClientConfig(
                host=host, port=port, timeout_s=2.0,
                retry=RetryPolicy(2, 0.01, 2.0),
            )) as client:
                with pytest.raises(RemoteTimeout):
                    client.submit(trained["pool"][:2], model="v1")
            # the withdrawn requests never linger in the queue
            assert server.stats()["queue_depth"] == 0
            assert server.stats()["timed_out"] >= 1
        finally:
            transport.close(drain=False)

    def test_closed_server_is_terminal_remote_closed(self, stack, trained):
        server = DetectionServer(make_plane(), ServeConfig())
        server.register_model("v1", trained["clf"], trained["temperature"])
        transport = SocketTransport(server, TransportConfig()).start()
        host, port = transport.address
        server.close(drain=True)
        try:
            with DetectionClient(ClientConfig(
                host=host, port=port, timeout_s=5.0,
                retry=RetryPolicy(3, 0.01, 2.0),
            )) as client:
                with pytest.raises(RemoteClosed):
                    client.submit(trained["pool"][:2], model="v1")
                # terminal: exactly one attempt, no retry burn
                assert client.breaker.state() == "closed"
        finally:
            transport.close(drain=False)

    def test_version_skew_is_terminal(self, stack):
        host, port = stack["address"]
        raw = socket.create_connection((host, port), timeout=5.0)
        try:
            header = struct.pack(
                ">4sHBBQII", frames.MAGIC, frames.PROTOCOL_VERSION + 9,
                frames.T_HEALTH, 0, 1, 0, 0,
            )
            crc = zlib.crc32(b"", zlib.crc32(header)) & 0xFFFFFFFF
            raw.sendall(header + struct.pack(">I", crc))
            raw.settimeout(5.0)
            frame = frames.read_frame(raw)
            assert frame.ftype == frames.T_ERROR
            code, _detail, retryable = frames.decode_error(frame.payload)
            assert code == "version"
            assert retryable is False
        finally:
            raw.close()

    def test_graceful_drain_completes_inflight_then_refuses(self, stack,
                                                            trained):
        pool = trained["pool"]
        results = {}

        def call():
            with _client(stack) as client:
                results["scores"] = client.submit(
                    pool[:4], model="v1"
                ).scores

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        stack["transport"].close(drain=True)
        assert "scores" in results
        # post-drain connects are refused -> retryable ConnectionLost
        host, port = stack["address"]
        with DetectionClient(ClientConfig(
            host=host, port=port, timeout_s=1.0,
            retry=RetryPolicy(2, 0.01, 2.0),
        )) as late:
            with pytest.raises((ConnectionLost, ReadTimeout)):
                late.health()
        assert stack["log"].of_kind("transport_drain")


class TestTransportShutdown:
    def test_close_is_prompt_and_stops_accept_thread(self, trained):
        # regression: closing a listening socket does not wake a thread
        # blocked in accept(), so close() used to wait out its join
        server = DetectionServer(make_plane(), ServeConfig())
        server.register_model("v1", trained["clf"], trained["temperature"])
        transport = SocketTransport(server, TransportConfig()).start()
        host, port = transport.address
        with DetectionClient(ClientConfig(host=host, port=port)) as client:
            assert client.health()["status"] == "ok"
        started = time.monotonic()
        transport.close(drain=True)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
        assert not transport._accept_thread.is_alive()


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

#: rejected timeouts: NaN fails `value <= 0` too, so it needs its own case
BAD_TIMEOUTS = [0.0, -1.0, float("nan"), float("inf")]


class TestConfigValidation:
    @pytest.mark.parametrize("value", BAD_TIMEOUTS)
    @pytest.mark.parametrize("field", ["read_timeout_s", "write_timeout_s"])
    def test_transport_rejects_bad_timeouts(self, field, value):
        with pytest.raises(ValueError, match=field):
            TransportConfig(**{field: value})

    @pytest.mark.parametrize("value", BAD_TIMEOUTS)
    @pytest.mark.parametrize("field", ["timeout_s", "connect_timeout_s"])
    def test_client_rejects_bad_timeouts(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClientConfig(port=1, **{field: value})

    @pytest.mark.parametrize("value", BAD_TIMEOUTS)
    def test_call_rejects_bad_timeout_before_connecting(self, value):
        # port 1 is never dialled: the budget is checked first
        with DetectionClient(ClientConfig(port=1)) as client:
            with pytest.raises(ValueError, match="timeout"):
                client.health(timeout=value)


# ----------------------------------------------------------------------
# circuit breaker under the interleaving harness
# ----------------------------------------------------------------------

class TestBreakerInterleaving:
    def test_concurrent_failures_open_exactly_once(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, bus=bus)

        def fail():
            breaker.record_failure("ConnectionLost")

        # pin thread a inside record_failure (its trace point), let b
        # run the same section, then release a — the adversarial
        # window for a double-open or a lost increment
        scheduler = InterleaveScheduler(
            [
                ("a", "breaker:failure"),
                ("b", "breaker:failure"),
                ("a", "breaker:failure"),
            ],
            timeout=10.0,
        )
        scheduler.run({"a": fail, "b": fail})
        assert scheduler.errors == {}
        assert breaker.state() == "open"
        assert len(log.of_kind("serve_circuit_open")) == 1

    def test_probe_success_closes_from_half_open(self, shifted_clock):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, bus=bus)
        breaker.record_failure("ReadTimeout")
        assert breaker.state() == "open"
        assert not breaker.allow(), "refused before the cooldown"
        assert breaker.state() == "open"
        shifted_clock.advance(10.0)
        assert breaker.allow(), "one probe allowed after the cooldown"
        assert breaker.state() == "half_open"
        breaker.record_success()
        assert breaker.state() == "closed"
        kinds = log.kinds()
        assert "serve_circuit_open" in kinds
        assert "serve_circuit_half_open" in kinds
        assert "serve_circuit_closed" in kinds
