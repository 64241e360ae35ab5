"""Extension — round-trip cost of the framed socket transport.

:mod:`repro.serve.transport` puts a wire (framing, CRC32, npz payload
codecs, a retry/breaker client) between callers and the
:class:`~repro.serve.DetectionServer`.  This bench prices that wire:

* **round-trip latency** — p50/p99 per-request latency over the socket
  versus the same requests submitted in-process, single client;
* **throughput** — sustained clips/sec at 1, 4 and 16 concurrent
  remote clients (each client owns one :class:`DetectionClient`, so
  pooling and framing costs are included);
* **transport overhead** — the remote-vs-in-process p50 ratio, the
  number a deployment pays for moving the daemon out of process.

Outputs a table under ``benchmarks/out`` and ``BENCH_transport.json``.
"""

import json
import os
import threading
import time

import numpy as np

from repro.bench import format_table, write_report
from repro.calibration.temperature import TemperatureScaler
from repro.data.synth import EUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.engine.faults import RetryPolicy
from repro.features import FeatureExtractor
from repro.layout import extract_clip_grid
from repro.model.classifier import HotspotClassifier
from repro.serve import DetectionServer, ServeConfig
from repro.serve.transport import (
    ClientConfig,
    DetectionClient,
    SocketTransport,
    TransportConfig,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
TILES = 6 if QUICK else 10
CLIENT_COUNTS = (1, 4, 16)
REQUESTS_PER_CLIENT = 2 if QUICK else 6
REQUEST_CLIPS = 4 if QUICK else 8
TRAIN_CLIPS = 16 if QUICK else 32


def _clips():
    layout = generate_layout(
        EUV_RULES, tiles_x=TILES, tiles_y=TILES, stress_probability=0.3,
        seed=13, name="bench-transport", target_ratio=0.08,
    )
    return extract_clip_grid(
        layout, EUV_RULES.clip_size, EUV_RULES.core_margin, drop_empty=False
    )


def _fresh_plane():
    return BatchFeatureExtractor(
        FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=64)
    )


def _train(clips):
    plane = _fresh_plane()
    tensors = plane.encode_batch(clips)
    rng = np.random.default_rng(0)
    labels = (rng.random(len(clips)) < 0.4).astype(np.int64)
    labels[0] = 1
    labels[1] = 0
    clf = HotspotClassifier(
        input_shape=plane.extractor.tensor_shape, arch="mlp",
        epochs=2, seed=0,
    )
    clf.fit_scaler(tensors)
    clf.fit(tensors, labels)
    temperature = TemperatureScaler()
    try:
        temperature.fit(clf.predict_logits(tensors), labels)
    except (ValueError, FloatingPointError):
        temperature.temperature_ = 1.0
    return clf, temperature


def _requests(pool, n_clients):
    """The deterministic request mix one fleet run submits."""
    plans = []
    for ix in range(n_clients):
        rng = np.random.default_rng(100 + ix)
        per_client = []
        for _ in range(REQUESTS_PER_CLIENT):
            rows = rng.choice(len(pool), size=REQUEST_CLIPS, replace=False)
            per_client.append([pool[int(i)] for i in rows])
        plans.append(per_client)
    return plans


def _drive(submit, plans):
    """Run the fleet through ``submit(client_ix, clips)``; latencies."""
    latencies = []
    lock = threading.Lock()

    def client(ix):
        for request in plans[ix]:
            start = time.perf_counter()
            submit(ix, request)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=client, args=(ix,), daemon=True)
        for ix in range(len(plans))
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600)
    wall = time.perf_counter() - wall_start
    assert len(latencies) == sum(len(p) for p in plans)
    return np.asarray(latencies), wall


def _summary(latencies, wall, n_clients):
    total_clips = n_clients * REQUESTS_PER_CLIENT * REQUEST_CLIPS
    return {
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "clips_per_sec": total_clips / wall,
        "wall_seconds": wall,
    }


def _measure_in_process(clf, temperature, pool, n_clients):
    server = DetectionServer(_fresh_plane(), ServeConfig())
    server.register_model("v1", clf, temperature=temperature)
    try:
        latencies, wall = _drive(
            lambda ix, req: server.submit(req, model="v1", timeout=600),
            _requests(pool, n_clients),
        )
    finally:
        server.close()
    return _summary(latencies, wall, n_clients)


def _measure_remote(clf, temperature, pool, n_clients):
    server = DetectionServer(_fresh_plane(), ServeConfig())
    server.register_model("v1", clf, temperature=temperature)
    transport = SocketTransport(
        server, TransportConfig(max_connections=max(CLIENT_COUNTS) + 4)
    ).start()
    host, port = transport.address
    clients = [
        DetectionClient(ClientConfig(
            host=host, port=port, timeout_s=600.0,
            retry=RetryPolicy(3, 0.05, 2.0),
        ))
        for _ in range(n_clients)
    ]
    try:
        latencies, wall = _drive(
            lambda ix, req: clients[ix].submit(req, model="v1"),
            _requests(pool, n_clients),
        )
    finally:
        for client in clients:
            client.close()
        transport.close(drain=False)
    return _summary(latencies, wall, n_clients)


def run_transport_bench():
    clips = _clips()
    train, pool = clips[:TRAIN_CLIPS], clips[TRAIN_CLIPS:]
    assert len(pool) >= REQUEST_CLIPS, "layout too small for the bench"
    clf, temperature = _train(train)

    in_process = _measure_in_process(clf, temperature, pool, 1)
    by_clients = {}
    for n_clients in CLIENT_COUNTS:
        by_clients[str(n_clients)] = _measure_remote(
            clf, temperature, pool, n_clients
        )

    remote_solo = by_clients["1"]
    return {
        "n_pool_clips": len(pool),
        "request_clips": REQUEST_CLIPS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "in_process_1": in_process,
        "by_clients": by_clients,
        "transport_overhead_p50": (
            remote_solo["p50_ms"] / in_process["p50_ms"]
            if in_process["p50_ms"] > 0 else float("inf")
        ),
    }


def test_transport_roundtrip(benchmark):
    stats = benchmark.pedantic(run_transport_bench, rounds=1, iterations=1)

    rows = [
        [
            "in-process, 1 client",
            f"{stats['in_process_1']['p50_ms']:.1f}",
            f"{stats['in_process_1']['p99_ms']:.1f}",
            f"{stats['in_process_1']['clips_per_sec']:.1f}",
        ]
    ]
    for n_clients, entry in stats["by_clients"].items():
        rows.append(
            [
                f"socket, {n_clients} client(s)",
                f"{entry['p50_ms']:.1f}",
                f"{entry['p99_ms']:.1f}",
                f"{entry['clips_per_sec']:.1f}",
            ]
        )
    rows.append(
        [
            "transport overhead (p50)",
            f"{stats['transport_overhead_p50']:.2f}x",
            "", "",
        ]
    )
    text = format_table(["run", "p50 ms", "p99 ms", "clips/sec"], rows)
    write_report("transport", text)

    out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
    with open(os.path.join(out_dir, "BENCH_transport.json"), "w") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)

    # correctness gates only — absolute latency is machine-dependent
    for entry in stats["by_clients"].values():
        assert entry["p50_ms"] > 0
        assert entry["clips_per_sec"] > 0
    assert stats["transport_overhead_p50"] > 0
