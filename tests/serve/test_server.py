"""Tests of the batched hotspot-detection daemon (:mod:`repro.serve`).

The load-bearing assertions mirror the acceptance criteria: FIFO
dispatch scores one request at a time, bit-identical to sequential
single-request scoring,
admission control sheds work at the queue and litho-budget limits, and
``close(drain=True)`` completes every queued request before returning.
"""

import threading
import time

import numpy as np
import pytest

from repro.calibration.temperature import TemperatureScaler
from repro.data.synth import EUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.engine.events import EventBus, EventLog
from repro.engine.guard import GuardConfig, RunSupervisor
from repro.engine.session import InferenceSession
from repro.features import FeatureExtractor
from repro.layout import extract_clip_grid
from repro.litho import LithoLabeler, LithoSimulator
from repro.model.classifier import HotspotClassifier
from repro.serve import (
    AdmissionError,
    DetectionServer,
    RequestTimeout,
    ServeConfig,
    ServeError,
    ServerClosed,
)

GRID = 96


def _clips(seed=13):
    layout = generate_layout(
        EUV_RULES,
        tiles_x=6,
        tiles_y=6,
        stress_probability=0.3,
        seed=seed,
        name="serve-test",
        target_ratio=0.1,
    )
    return extract_clip_grid(
        layout, EUV_RULES.clip_size, EUV_RULES.core_margin, drop_empty=False
    )


def _plane(bus=None):
    return BatchFeatureExtractor(
        FeatureExtractor(grid=GRID), DataPlaneConfig(chunk_size=32), bus=bus
    )


@pytest.fixture(scope="module")
def corpus():
    """One layout + one trained classifier/temperature pair, shared by
    every test (training dominates the suite's wall time)."""
    clips = _clips()
    plane = _plane()
    train = clips[:20]
    tensors = plane.encode_batch(train)
    rng = np.random.default_rng(0)
    labels = (rng.random(len(train)) < 0.4).astype(np.int64)
    labels[0] = 1
    labels[1] = 0
    clf = HotspotClassifier(
        input_shape=plane.extractor.tensor_shape, arch="mlp", epochs=2, seed=0
    )
    clf.fit_scaler(tensors)
    clf.fit(tensors, labels)
    temperature = TemperatureScaler()
    try:
        temperature.fit(clf.predict_logits(tensors), labels)
    except (ValueError, FloatingPointError):
        temperature.temperature_ = 1.0
    # the serving pool: clips the classifier never trained on
    return {"pool": clips[20:], "clf": clf, "temperature": temperature}


def _submit_all(server, requests, model="v1", want_labels=False):
    """Queue every request from its own thread, wait for admission."""
    results = [None] * len(requests)
    errors = [None] * len(requests)

    def client(ix, req):
        try:
            results[ix] = server.submit(
                req, model=model, want_labels=want_labels, timeout=120
            )
        except Exception as exc:  # re-raised in the test body
            errors[ix] = exc

    threads = [
        threading.Thread(target=client, args=(i, req), daemon=True)
        for i, req in enumerate(requests)
    ]
    for thread in threads:
        thread.start()
    return threads, results, errors


def _await_queued(server, n, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while server.stats()["received"] < n:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"only {server.stats()['received']}/{n} requests queued"
            )
        time.sleep(0.005)


class TestFifoDispatch:
    def test_each_request_matches_sequential_bitwise(self, corpus):
        pool, clf, temperature = (
            corpus["pool"], corpus["clf"], corpus["temperature"],
        )
        requests = [pool[0:4], pool[4:10], pool[10:13]]

        # --- sequential reference: one request at a time, cold plane
        ref_plane = _plane()
        session = InferenceSession(
            clf, np.zeros((0,) + clf.input_shape, dtype=np.float64)
        )
        expected = []
        for request in requests:
            prediction = session.predict_tensors(
                ref_plane.encode_batch(request)
            )
            probs = temperature.transform(prediction.logits)
            expected.append((prediction.logits, probs[:, 1]))

        # --- served: all three queued on a stopped server, then started
        bus = EventBus()
        log = bus.subscribe(EventLog())
        server = DetectionServer(_plane(bus), bus=bus, autostart=False)
        server.register_model("v1", clf, temperature=temperature)
        threads, results, errors = _submit_all(server, requests)
        _await_queued(server, len(requests))
        server.start()
        for thread in threads:
            thread.join(120)
        assert errors == [None, None, None]
        server.close()

        for result, (logits, scores) in zip(results, expected):
            assert np.array_equal(result.logits, logits)
            assert np.array_equal(result.scores, scores)
            assert np.array_equal(result.verdicts, scores >= 0.5)

        # one dispatch per request, in arrival order
        received = [
            e.payload["n_clips"] for e in log.of_kind("request_received")
        ]
        dispatched = log.of_kind("batch_dispatched")
        assert sorted(received) == [3, 4, 6]
        assert [e.payload["n_clips"] for e in dispatched] == received
        assert [e.payload["queue_depth"] for e in dispatched] == [2, 1, 0]
        completed = log.of_kind("request_completed")
        assert len(completed) == 3
        assert all(e.payload["serve_seconds"] > 0 for e in completed)
        stats = server.stats()
        assert stats["batches"] == 3
        assert stats["mean_batch_clips"] == sum(received) / 3

    def test_oldest_request_goes_first_whatever_its_model(self, corpus):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        server = DetectionServer(_plane(bus), bus=bus, autostart=False)
        server.register_model("v1", corpus["clf"], corpus["temperature"])
        server.register_model("v2", corpus["clf"])
        pool = corpus["pool"]
        order = ["v1", "v2", "v1"]
        threads = []
        for i, model in enumerate(order):
            started, _, _ = _submit_all(
                server, [pool[2 * i : 2 * i + 2]], model=model
            )
            threads += started
            _await_queued(server, i + 1)
        server.start()
        for thread in threads:
            thread.join(120)
        server.close()
        dispatched = log.of_kind("batch_dispatched")
        assert [e.payload["model"] for e in dispatched] == order
        assert server.stats()["completed"] == 3


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_supervisor_alert(self, corpus):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        supervisor = RunSupervisor(GuardConfig(), bus)
        supervisor.attach()
        try:
            server = DetectionServer(
                _plane(bus),
                ServeConfig(max_pending_clips=4),
                bus=bus,
                supervisor=supervisor,
                autostart=False,
            )
            server.register_model("v1", corpus["clf"])
            pool = corpus["pool"]
            threads, _, errors = _submit_all(server, [pool[0:3]])
            _await_queued(server, 1)
            with pytest.raises(AdmissionError, match="max_pending_clips"):
                server.submit(pool[3:6], model="v1")
            assert server.stats()["rejected"] == 1
            alerts = log.of_kind("health_alert")
            assert any(
                e.payload["sentinel"] == "serve_overload" for e in alerts
            )
            recoveries = log.of_kind("recovery_applied")
            assert any(
                e.payload["policy"] == "shed_load" for e in recoveries
            )
            server.start()
            for thread in threads:
                thread.join(120)
            assert errors == [None]
            server.close()
        finally:
            supervisor.detach()

    def test_litho_budget_rejects_oversized_label_request(self, corpus):
        labeler = LithoLabeler(
            LithoSimulator.for_tech(28, grid=GRID), max_queries=4
        )
        server = DetectionServer(
            _plane(), labeler=labeler, autostart=False
        )
        server.register_model("v1", corpus["clf"])
        with pytest.raises(AdmissionError, match="litho budget"):
            server.submit(
                corpus["pool"][0:6], model="v1", want_labels=True
            )
        # un-labelled scoring is NOT litho-gated: admission passes
        threads, _, errors = _submit_all(server, [corpus["pool"][0:6]])
        _await_queued(server, 1)
        server.start()
        for thread in threads:
            thread.join(120)
        assert errors == [None]
        server.close()

    def test_labels_within_budget_are_served(self, corpus):
        labeler = LithoLabeler(
            LithoSimulator.for_tech(28, grid=GRID), max_queries=8
        )
        with DetectionServer(_plane(), labeler=labeler) as server:
            server.register_model("v1", corpus["clf"])
            result = server.submit(
                corpus["pool"][0:3], want_labels=True, timeout=120
            )
        assert result.labels is not None
        assert result.labels.shape == (3,)
        assert set(np.unique(result.labels)) <= {0, 1}
        assert labeler.query_count == 3


class TestLifecycle:
    def test_close_drains_queued_requests(self, corpus):
        server = DetectionServer(_plane(), autostart=False)
        server.register_model("v1", corpus["clf"])
        pool = corpus["pool"]
        requests = [pool[i : i + 2] for i in range(0, 12, 2)]
        threads, results, errors = _submit_all(server, requests)
        _await_queued(server, len(requests))
        server.start()
        server.close(drain=True)  # must complete all six first
        for thread in threads:
            thread.join(120)
        assert errors == [None] * 6
        assert all(r is not None and r.scores.shape == (2,) for r in results)
        assert server.stats()["completed"] == 6

    def test_close_without_drain_fails_pending(self, corpus):
        server = DetectionServer(_plane(), autostart=False)
        server.register_model("v1", corpus["clf"])
        threads, results, errors = _submit_all(
            server, [corpus["pool"][0:2]]
        )
        _await_queued(server, 1)
        server.close(drain=False)
        for thread in threads:
            thread.join(30)
        assert results == [None]
        assert isinstance(errors[0], ServerClosed)

    def test_close_without_drain_is_prompt(self, corpus):
        # regression: close(drain=False) must fail a queued request
        # promptly — not leave the submitter blocked until its own
        # submit timeout expires
        server = DetectionServer(_plane(), autostart=False)
        server.register_model("v1", corpus["clf"])
        threads, results, errors = _submit_all(
            server, [corpus["pool"][0:2]]
        )
        _await_queued(server, 1)
        started = time.monotonic()
        server.close(drain=False)
        for thread in threads:
            thread.join(30)
        elapsed = time.monotonic() - started
        assert not any(thread.is_alive() for thread in threads)
        assert elapsed < 5.0, (
            f"queued submitter took {elapsed:.1f}s to observe close"
        )
        assert isinstance(errors[0], ServerClosed)
        assert results == [None]

    def test_submit_timeout_withdraws_queued_request(self, corpus):
        # a timed-out request is withdrawn from the queue, counted, and
        # never dispatched once the server eventually starts
        server = DetectionServer(_plane(), autostart=False)
        server.register_model("v1", corpus["clf"])
        with pytest.raises(RequestTimeout, match="withdrawn"):
            server.submit(corpus["pool"][0:2], timeout=0.2)
        stats = server.stats()
        assert stats["timed_out"] == 1
        assert stats["queue_depth"] == 0
        # starting afterwards must not resurrect the withdrawn request
        server.start()
        follow_up = server.submit(corpus["pool"][2:4], timeout=120)
        assert follow_up.scores.shape == (2,)
        assert server.stats()["completed"] == 1
        server.close(drain=True)

    def test_submit_after_close_raises(self, corpus):
        server = DetectionServer(_plane())
        server.register_model("v1", corpus["clf"])
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(corpus["pool"][0:1])

    def test_rejects_bad_requests(self, corpus):
        server = DetectionServer(_plane(), autostart=False)
        with pytest.raises(ServeError, match="exactly one registered"):
            server.submit(corpus["pool"][0:1])
        server.register_model("v1", corpus["clf"])
        with pytest.raises(ServeError, match="empty request"):
            server.submit([])
        with pytest.raises(ServeError, match="unknown model"):
            server.submit(corpus["pool"][0:1], model="nope")
        with pytest.raises(ServeError, match="needs a labeler"):
            server.submit(corpus["pool"][0:1], want_labels=True)
        server.close()


class TestObservability:
    def test_tenant_attribution_and_stats(self, corpus):
        plane = _plane()
        with DetectionServer(plane) as server:
            server.register_model("v1", corpus["clf"])
            server.submit(corpus["pool"][0:4], timeout=120)
            # a second hit over the same clips is served from cache
            server.submit(corpus["pool"][0:4], timeout=120)
            stats = server.stats()
        assert stats["completed"] == 2
        tenants = stats["cache_tenants"]
        assert tenants["v1"]["puts"] == 4
        assert tenants["v1"]["hits"] >= 4
        assert plane.cache.tenant_stats() == tenants

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_pending_clips"):
            ServeConfig(max_pending_clips=0)
        with pytest.raises(ValueError, match="threshold"):
            ServeConfig(threshold=1.5)
        with pytest.raises(ValueError, match="threshold"):
            ServeConfig(threshold=-0.1)
