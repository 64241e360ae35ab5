"""Chaos suite of the socket transport: deterministic fault plans.

Every planned fault — on the request path (client sockets wrapped) or
the response path (server sockets wrapped) — must resolve to one of
exactly two outcomes: a **typed transport error** or a **retried result
bit-identical** to an uninterrupted call.  Never a hang, never silent
corruption.  Every remote call here runs under a watchdog thread whose
join-timeout *is* the zero-hang assertion.

Runs under ``REPRO_CHECK=strict`` like the rest of the transport suite.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.modes import set_check_mode
from repro.engine.events import EventBus, EventLog
from repro.engine.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.engine.guard import GuardConfig, RunSupervisor
from repro.serve import DetectionServer, ServeConfig
from repro.serve.transport import (
    CircuitOpenError,
    ClientConfig,
    DetectionClient,
    FaultySocket,
    ReadTimeout,
    RetryableTransportError,
    SocketTransport,
    TransportConfig,
)

from .conftest import make_plane

#: hard ceiling of any single chaos call — a call that outlives this is
#: a hang, which is exactly the failure class this suite exists to catch
WATCHDOG_S = 30.0


@pytest.fixture(autouse=True)
def _strict(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "strict")
    previous = set_check_mode("strict")
    yield
    set_check_mode(previous)


def run_with_watchdog(fn, timeout=WATCHDOG_S):
    """Run ``fn`` in a worker thread; a join past ``timeout`` fails the
    test (the worker is a daemon, so a genuine hang cannot wedge the
    whole pytest run)."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True, name="chaos-call")
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), (
        f"transport call still running after {timeout}s watchdog — "
        "the chaos fault produced a hang"
    )
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.fixture()
def stack(trained):
    """Server + bus/log, no transport — each test wires its own
    transport so it can inject faults on the response path."""
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    supervisor = RunSupervisor(GuardConfig(), bus)
    supervisor.attach()
    server = DetectionServer(make_plane(bus), ServeConfig(), bus=bus,
                             supervisor=supervisor)
    server.register_model("v1", trained["clf"], trained["temperature"])
    transports = []

    def make_transport(wrap_socket=None, **cfg):
        transport = SocketTransport(
            server, TransportConfig(read_timeout_s=10.0, **cfg), bus=bus,
            supervisor=supervisor, wrap_socket=wrap_socket,
            owns_server=False,
        ).start()
        transports.append(transport)
        return transport

    yield {
        "server": server, "bus": bus, "log": log,
        "supervisor": supervisor, "make_transport": make_transport,
    }
    for transport in transports:
        transport.close(drain=False)
    server.close(drain=False)
    supervisor.detach()


def _client(address, bus=None, wrap_socket=None, attempts=4,
            **overrides):
    host, port = address
    defaults = dict(host=host, port=port, timeout_s=8.0,
                    retry=RetryPolicy(attempts, 0.01, 0.05))
    defaults.update(overrides)
    return DetectionClient(
        ClientConfig(**defaults), bus=bus, wrap_socket=wrap_socket
    )


def faulty(injector):
    """A ``wrap_socket`` hook applying ``injector``'s plan."""
    return lambda sock: FaultySocket(sock, injector)


def drop_at(*indices):
    return FaultPlan(dict.fromkeys(indices, "drop"))


PLANS = {
    "drop": drop_at(0),
    "delay": FaultPlan({0: "delay"}, delay_s=0.1),
    "truncate": FaultPlan({0: "truncate"}),
    "garbage": FaultPlan({0: "garbage"}),
    "disconnect": FaultPlan({0: "disconnect"}),
}


class TestRequestPathFaults:
    """Faults injected on the client's outgoing frames."""

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_fault_recovers_bit_identical(self, stack, trained, kind):
        pool = trained["pool"]
        reference = stack["server"].submit(pool[:6], model="v1", timeout=60)
        transport = stack["make_transport"]()
        injector = FaultInjector(PLANS[kind])
        with _client(transport.address, bus=stack["bus"],
                     wrap_socket=faulty(injector)) as client:
            remote = run_with_watchdog(
                lambda: client.submit(pool[:6], model="v1")
            )
        assert injector.counts()[kind] == 1, "the planned fault must fire"
        assert np.array_equal(remote.scores, reference.scores)
        assert remote.scores.dtype == reference.scores.dtype
        assert np.array_equal(remote.verdicts, reference.verdicts)
        assert np.array_equal(remote.logits, reference.logits)

    def test_exhausted_retries_surface_typed_error(self, stack, trained):
        # every attempt's request frame is swallowed: the call must end
        # in the *typed* retryable error, within the deadline bound
        transport = stack["make_transport"]()
        injector = FaultInjector(drop_at(0, 1))
        with _client(transport.address, timeout_s=2.0, attempts=2,
                     wrap_socket=faulty(injector)) as client:
            started = time.monotonic()
            with pytest.raises(ReadTimeout):
                run_with_watchdog(
                    lambda: client.submit(trained["pool"][:2], model="v1")
                )
        assert time.monotonic() - started < 2.0 + 1.0, (
            "exhausted retries must respect the end-to-end deadline"
        )
        assert injector.counts()["drop"] == 2


class TestResponsePathFaults:
    """Faults injected on the server's outgoing frames — the request
    was scored, but the reply dies on the wire; the client must retry
    and the re-scored result must be bit-identical."""

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_fault_recovers_bit_identical(self, stack, trained, kind):
        pool = trained["pool"]
        reference = stack["server"].submit(pool[:6], model="v1", timeout=60)
        injector = FaultInjector(PLANS[kind])
        transport = stack["make_transport"](wrap_socket=faulty(injector))
        with _client(transport.address, bus=stack["bus"]) as client:
            remote = run_with_watchdog(
                lambda: client.submit(pool[:6], model="v1")
            )
        assert injector.counts()[kind] == 1
        assert np.array_equal(remote.scores, reference.scores)
        assert remote.scores.dtype == reference.scores.dtype
        assert np.array_equal(remote.verdicts, reference.verdicts)
        assert np.array_equal(remote.logits, reference.logits)

    def test_delay_past_deadline_is_typed_error(self, stack, trained):
        # both response frames arrive later than the client can wait:
        # the call must fail with the typed timeout, not hang
        injector = FaultInjector(
            FaultPlan({0: "delay", 1: "delay"}, delay_s=3.0)
        )
        transport = stack["make_transport"](wrap_socket=faulty(injector))
        with _client(transport.address, timeout_s=1.0, attempts=2) as client:
            with pytest.raises(ReadTimeout):
                run_with_watchdog(
                    lambda: client.submit(trained["pool"][:2], model="v1")
                )


class TestCircuitBreakerCycle:
    """The cooldown passes on the client's shifted clock, never by
    sleeping — so a stalled machine cannot end it early either."""

    def test_full_cycle_open_half_open_closed(self, stack, trained,
                                              shifted_clock):
        """Two dropped calls trip the breaker (open event), the next
        call fails fast, and after the cooldown one clean probe closes
        it again — every transition observed through its typed event."""
        pool = trained["pool"]
        reference = stack["server"].submit(pool[:4], model="v1", timeout=60)
        transport = stack["make_transport"]()
        injector = FaultInjector(drop_at(0, 1))
        client = _client(
            transport.address, bus=stack["bus"],
            wrap_socket=faulty(injector),
            timeout_s=0.4, attempts=1,  # one attempt per call
            breaker_threshold=2, breaker_cooldown_s=60.0,
        )
        log = stack["log"]
        with client:
            for _ in range(2):  # consecutive retryable failures
                with pytest.raises(ReadTimeout):
                    run_with_watchdog(
                        lambda: client.submit(pool[:4], model="v1")
                    )
            assert client.breaker.state() == "open"
            assert len(log.of_kind("serve_circuit_open")) == 1
            # while open: fail fast, no socket I/O
            calls_before = injector.counts()["calls"]
            with pytest.raises(CircuitOpenError):
                run_with_watchdog(
                    lambda: client.submit(pool[:4], model="v1")
                )
            assert injector.counts()["calls"] == calls_before
            # past the cooldown: one half-open probe succeeds and
            # closes the circuit
            shifted_clock.advance(60.0)
            remote = run_with_watchdog(
                lambda: client.submit(pool[:4], model="v1",
                                      timeout=30.0)
            )
        assert client.breaker.state() == "closed"
        assert np.array_equal(remote.scores, reference.scores)
        cycle = [
            event.kind for event in log.events
            if event.kind.startswith("serve_circuit_")
        ]
        assert cycle == [
            "serve_circuit_open",
            "serve_circuit_half_open",
            "serve_circuit_closed",
        ]

    def test_half_open_failure_reopens(self, stack, trained, shifted_clock):
        # the half-open probe also dies -> straight back to open
        transport = stack["make_transport"]()
        injector = FaultInjector(drop_at(0, 1))
        client = _client(
            transport.address, bus=stack["bus"],
            wrap_socket=faulty(injector),
            timeout_s=0.4, attempts=1,
            breaker_threshold=1, breaker_cooldown_s=60.0,
        )
        with client:
            with pytest.raises(ReadTimeout):
                run_with_watchdog(
                    lambda: client.submit(trained["pool"][:2], model="v1")
                )
            assert client.breaker.state() == "open"
            shifted_clock.advance(60.0)
            with pytest.raises(RetryableTransportError):
                run_with_watchdog(
                    lambda: client.submit(trained["pool"][:2], model="v1")
                )
            assert client.breaker.state() == "open"
        opens = stack["log"].of_kind("serve_circuit_open")
        assert len(opens) == 2
