"""Kill-and-reconnect guarantee of the socket transport.

A daemon SIGKILLed mid-conversation and restarted on the same port must
be transparent to a retrying client: the pooled socket dies with
``ConnectionLost``, the retry reconnects, and — because training and
scoring are seeded and deterministic (:mod:`repro.serve.bootstrap`) —
the restarted daemon returns **bit-identical** scores.

These tests drive the real ``repro serve --listen`` CLI in a
subprocess, parsing its ``listening on HOST:PORT`` readiness line.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.data.synth import EUV_RULES, generate_layout
from repro.engine.faults import RetryPolicy
from repro.layout.glp import load_layout, save_layout
from repro.serve.bootstrap import bootstrap_server
from repro.serve.transport import ClientConfig, DetectionClient

TRAIN_CLIPS = 10
EPOCHS = 2
SEED = 0
STARTUP_S = 60.0

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One saved layout + the in-process reference scores the daemons
    must reproduce bit-for-bit."""
    tmp = tmp_path_factory.mktemp("reconnect")
    layout = generate_layout(
        EUV_RULES, tiles_x=5, tiles_y=5, stress_probability=0.3,
        seed=7, name="reconnect-test", target_ratio=0.1,
    )
    glp = tmp / "reconnect.glp"
    save_layout(layout, glp)
    booted = bootstrap_server(
        load_layout(glp), train_clips=TRAIN_CLIPS, epochs=EPOCHS,
        seed=SEED,
    )
    pool = booted.serve_pool[:6]
    reference = booted.server.submit(pool, model="v1", timeout=60.0)
    booted.server.close(drain=False)
    return {"glp": glp, "pool": pool, "reference": reference}


def _spawn_daemon(glp, port: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_CHECK", None)  # daemon runs at its default mode
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli.main", "serve", str(glp),
            "--listen", "127.0.0.1", "--port", str(port),
            "--train-clips", str(TRAIN_CLIPS), "--epochs", str(EPOCHS),
            "--seed", str(SEED), "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + STARTUP_S
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("listening on "):
            return proc
    proc.kill()
    proc.wait(timeout=10)
    raise AssertionError(
        "daemon never reported listening; output was:\n" + "".join(lines)
    )


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)
    proc.stdout.close()


def test_sigkill_restart_retries_bit_identical(corpus):
    port = _free_port()
    reference = corpus["reference"]
    daemon = _spawn_daemon(corpus["glp"], port)
    restarted = None
    client = DetectionClient(ClientConfig(
        host="127.0.0.1", port=port, timeout_s=90.0,
        retry=RetryPolicy(8, 0.1, 0.5), connect_timeout_s=2.0,
    ))
    try:
        first = client.submit(corpus["pool"], model="v1")
        assert np.array_equal(first.scores, reference.scores)
        assert first.scores.dtype == reference.scores.dtype

        # hard-kill mid-conversation: the client's pooled socket now
        # points at a dead process
        _kill(daemon)
        restarted = _spawn_daemon(corpus["glp"], port)

        # same client object, no manual reset: the stale socket dies
        # with a retryable error, the retry reconnects, and the
        # restarted daemon's deterministic training reproduces the
        # exact same model
        second = client.submit(corpus["pool"], model="v1")
        assert np.array_equal(second.scores, reference.scores)
        assert second.scores.dtype == reference.scores.dtype
        assert np.array_equal(second.logits, reference.logits)
        assert np.array_equal(second.verdicts, reference.verdicts)

        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == ["v1"]
    finally:
        client.close()
        _kill(daemon)
        if restarted is not None:
            _kill(restarted)


def test_sigterm_drains_and_reports(corpus):
    # graceful path: SIGTERM → drain → exit 0 with the drain summary
    port = _free_port()
    daemon = _spawn_daemon(corpus["glp"], port)
    try:
        with DetectionClient(ClientConfig(
            host="127.0.0.1", port=port, timeout_s=60.0,
            retry=RetryPolicy(3, 0.05, 2.0),
        )) as client:
            result = client.submit(corpus["pool"], model="v1")
            assert np.array_equal(
                result.scores, corpus["reference"].scores
            )
        daemon.send_signal(signal.SIGTERM)
        out, _ = daemon.communicate(timeout=30)
    finally:
        _kill(daemon)
    assert daemon.returncode == 0
    assert "drained: served" in out
