"""The suite's workloads: seeded inputs, a timed set-up, a repeated
operation, and the checks that prove the operation's output right.

Every workload drives the program through its public API and takes
nothing from outside but the seed.  The runner (``runner.py``) times
``setup`` several times, calls ``start`` once, repeats ``op`` until the
measured time is used up, then calls ``check`` and ``close``.

Sizes are set so that one run of a workload (three set-ups plus the
measured phase) takes well under a minute on a 2-core machine; each
class docstring says why the workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.bench.harness import base_framework_config
from repro.core.framework import PSHDFramework
from repro.data.benchmarks import build_benchmark
from repro.data.synth import DUV_RULES, EUV_RULES, generate_layout
from repro.dataplane import (
    BatchFeatureExtractor,
    DataPlaneConfig,
    StreamConfig,
    StreamScanner,
    TileVerdictStore,
    model_score_fn,
)
from repro.engine import EventBus, EventLog
from repro.features import FeatureExtractor
from repro.layout import Layout, Rect, TileGrid
from repro.serve.bootstrap import bootstrap_server
from repro.serve.transport import (
    ClientConfig,
    DetectionClient,
    SocketTransport,
    TransportConfig,
)

__all__ = ["OpResult", "WORKLOADS"]

#: feature raster resolution of every model in the suite (the default)
GRID = 96


@dataclass
class OpResult:
    """What one repetition of a workload's operation produced."""

    #: clips processed, and the seconds they took (the throughput)
    clips: int
    busy_s: float
    #: latency samples in seconds: one per operation, or one per request
    latencies: list[float]
    #: equal on every repetition of a correct operation
    fingerprint: object
    attempted: int = 1
    failed: int = 0
    #: workload numbers printed next to the metrics (Acc%, Litho#, ...)
    details: dict = field(default_factory=dict)
    #: per-layer numbers only the workload can observe (bus events, scan
    #: reports, server counters); keys ending in ``_s`` are seconds
    layer: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


class AlgorithmTwo:
    """One full Alg. 2 run (seed, calibrate/select/update, detect) per
    operation, on a benchmark dataset built fresh in set-up.

    ``al_cnn`` exists because conv training (im2col/col2im, Adam) is most
    of its run while the data plane idles after set-up; ``al_mlp`` trains
    dense layers only, so a conv change must not move it, and its pool
    is larger, so PCA/GMM, calibration and detection weigh more.  The
    CNN run has four iterations instead of eight so that several runs
    fit the measured time.
    """

    #: a valid Alg. 2 configuration for the tiny ``--smoke`` datasets
    SMOKE = dict(n_query=30, k_batch=5, n_iterations=2, init_train=20,
                 val_size=10, epochs_initial=2, epochs_update=1)

    def __init__(self, seed, smoke, tmp, benchmark, scale, smoke_scale,
                 arch, n_iterations=None):
        self.seed = seed
        self.benchmark = benchmark
        self.scale = smoke_scale if smoke else scale
        config = replace(base_framework_config(benchmark, seed), arch=arch)
        if n_iterations is not None:
            config = replace(config, n_iterations=n_iterations)
        if smoke:
            config = replace(config, **self.SMOKE)
        self.config = config
        self.dataset_digests: list[str] = []

    def setup(self, traced):
        dataset = build_benchmark(
            self.benchmark, scale=self.scale, seed=self.seed, use_cache=False
        )
        self.dataset_digests.append(
            _digest(dataset.labels, dataset.tensors, dataset.flats)
        )
        return dataset

    def start(self, dataset):
        pass

    def op(self, dataset, tracer=None):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        framework = PSHDFramework(dataset, self.config, bus=bus)
        started = perf_counter()
        result = framework.run()
        elapsed = perf_counter() - started
        weights = framework.classifier.network.get_weights()
        selections = [
            event.payload["selected"] for event in log.of_kind("batch_selected")
        ]
        stages = log.stage_seconds()
        acc_pct = 100.0 * result.accuracy
        return OpResult(
            clips=len(dataset),
            busy_s=elapsed,
            latencies=[elapsed],
            fingerprint=(
                selections, result.litho, result.accuracy,
                _digest(*(weights[key] for key in sorted(weights))),
            ),
            details={"acc_pct": acc_pct, "litho_clips": result.litho},
            layer={
                "core.acc_pct": acc_pct,
                "core.litho_clips": result.litho,
                **{
                    f"core.{stage}_s": stages.get(stage, 0.0)
                    for stage in ("seed", "select", "update", "detect")
                },
            },
        )

    def check(self, dataset, results):
        failures = []
        if len(set(self.dataset_digests)) != 1:
            failures.append("set-ups built different datasets")
        # a cache-reloaded dataset (float32 round trip) changes Acc%
        if not dataset.meta.get("geometry_available"):
            failures.append("dataset came from the disk cache, not a build")
        for result in results:
            if not 0.0 < result.details["acc_pct"] <= 100.0:
                failures.append(f"Acc% out of range: {result.details}")
            if result.details["litho_clips"] <= 0:
                failures.append(f"Litho# not positive: {result.details}")
        return failures

    def close(self, dataset):
        return {}


@dataclass
class _ScanState:
    chip: Layout
    grid: TileGrid
    score: object
    edited: Layout | None = None
    #: incremental scans only: the state directory and the full scan
    #: that wrote it
    state_dir: str | None = None
    resumable: object = None
    resumable_s: float = 0.0


class FullChipScan:
    """A stateless streaming scan of a DUV chip per operation, scored by
    a CNN that set-up quick-trains with ``bootstrap_server``.

    Raster, DCT, the feature cache and inference do nearly all of the
    work.  Every scan gets a fresh extractor, so no repetition
    reads features cached by the one before.
    """

    rules = DUV_RULES

    def __init__(self, seed, smoke, tmp):
        self.seed = seed
        self.side = 8 if smoke else 40
        self.tile_clips = 4
        self.train_clips = 16 if smoke else 96
        self.epochs = 1 if smoke else 6

    def setup(self, traced):
        chip = generate_layout(
            self.rules, self.side, self.side, stress_probability=0.4,
            seed=self.seed,
        )
        boot = bootstrap_server(
            chip, train_clips=self.train_clips, grid=GRID, seed=self.seed,
            arch="cnn", epochs=self.epochs,
        )
        # only the model is needed; the daemon is not
        boot.server.close()
        grid = TileGrid.for_layout(
            chip, self.rules.clip_size, self.rules.core_margin,
            tile_clips=self.tile_clips,
        )
        return _ScanState(
            chip, grid, model_score_fn(boot.classifier, boot.temperature)
        )

    def start(self, state):
        pass

    def scan(self, state, layout, **stream):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=GRID), DataPlaneConfig(chunk_size=64)
        )
        config = StreamConfig(tile_clips=self.tile_clips, shards=1, **stream)
        return StreamScanner(state.grid, plane, state.score, config).scan(
            layout
        )

    def op(self, state, tracer=None):
        started = perf_counter()
        report = self.scan(state, state.chip)
        elapsed = perf_counter() - started
        return OpResult(
            clips=report.n_clips,
            busy_s=elapsed,
            latencies=[elapsed],
            fingerprint=(report.n_clips, report.hotspots),
            details={"hotspots": report.n_hotspots},
        )

    def check(self, state, results):
        return []

    def close(self, state):
        return {}


class IncrementalRescan(FullChipScan):
    """Incremental rescans of a chip whose verdicts are on disk: each
    operation adds one rectangle in tile (0, 0) and rescans, then
    removes it and rescans again.

    The scan layers plus persistence: every rescan re-scores one tile,
    replays the rest from their verdict files and saves the cursor after
    each tile.  The rescan is what a designer waits on after a local
    edit.  ``start`` runs the resumable full scan that writes the state
    the rescans replay; its throughput is reported as a detail.
    """

    #: most clips an incremental rescan may re-score after the edit
    MAX_RESCORED_SHARE = 0.05

    def __init__(self, seed, smoke, tmp):
        super().__init__(seed, smoke, tmp)
        self.tmp = Path(tmp)
        self.side = 10 if smoke else 20
        self.tile_clips = 2 if smoke else 4

    def setup(self, traced):
        state = super().setup(traced)
        core = state.grid.window(0, 0).expanded(-self.rules.core_margin)
        chip = state.chip
        state.edited = Layout(
            list(chip.rects)
            + [Rect(core.x0 + 12, core.y0 + 12, core.x0 + 90, core.y0 + 90)],
            die=chip.die, tech_nm=chip.tech_nm, name=chip.name,
        )
        return state

    def start(self, state):
        state.state_dir = tempfile.mkdtemp(dir=self.tmp)
        started = perf_counter()
        state.resumable = self.scan(state, state.chip,
                                    state_dir=state.state_dir)
        state.resumable_s = perf_counter() - started

    def op(self, state, tracer=None):
        reports, latencies = [], []
        for layout in (state.edited, state.chip):
            started = perf_counter()
            reports.append(
                self.scan(state, layout, state_dir=state.state_dir)
            )
            latencies.append(perf_counter() - started)
        return OpResult(
            clips=sum(report.n_clips for report in reports),
            busy_s=sum(latencies),
            latencies=latencies,
            fingerprint=[
                (r.hotspots, r.rescored_clips, r.replayed_clips)
                for r in reports
            ],
            details={
                "resumable_clips_per_s":
                    state.resumable.n_clips / state.resumable_s,
                "rescored_share": max(
                    r.rescored_clips / r.n_clips for r in reports),
                "rescored_tiles": max(r.rescored_tiles for r in reports),
            },
            layer={
                "dataplane.rescored_clips": sum(
                    r.rescored_clips for r in reports),
                "dataplane.replayed_clips": sum(
                    r.replayed_clips for r in reports),
            },
        )

    def check(self, state, results):
        failures = []
        (edited, _, _), (reverted, _, _) = results[0].fingerprint
        full = state.resumable.hotspots
        if self.scan(state, state.chip).hotspots != full:
            failures.append("resumable verdicts differ from a stateless scan")
        if self.scan(state, state.edited).hotspots != edited:
            failures.append("rescan verdicts differ from a stateless scan")
        if reverted != full:
            failures.append("removing the edit did not restore the verdicts")
        # replayed tiles must equal freshly scored tiles, bit for bit
        reference = tempfile.mkdtemp(dir=self.tmp)
        self.scan(state, state.chip, state_dir=reference, incremental=False)
        fresh = TileVerdictStore(Path(reference) / "tiles")
        kept = TileVerdictStore(Path(state.state_dir) / "tiles")
        differing = [
            key for key in fresh.keys() if fresh.load(key) != kept.load(key)
        ]
        if differing:
            failures.append(f"stored tiles differ from a fresh scan: "
                            f"{differing[:5]}")
        details = results[0].details
        if details["rescored_tiles"] != 1:
            failures.append(f"an edit re-scored {details['rescored_tiles']} "
                            "tiles, expected 1")
        if details["rescored_share"] >= self.MAX_RESCORED_SHARE:
            failures.append(f"rescored share {details['rescored_share']:.3f}"
                            f" >= {self.MAX_RESCORED_SHARE}")
        return failures


@dataclass
class _ServeState:
    boot: object
    bus: EventBus | None
    plans: list = field(default_factory=list)
    transport: SocketTransport | None = None
    clients: list = field(default_factory=list)


class RemoteServing:
    """A closed loop of two client threads, each owning one
    ``DetectionClient``, against a ``SocketTransport`` on 127.0.0.1.

    One operation is one pass over the request plan: each thread sends
    its requests back to back.  Every request carries clips from a
    64-clip hot set (feature-cache hits) and clips not sent before
    (misses that fill the cache), so the wire codec, queue/coalescing,
    extraction, scaling and the forward pass all work.  The fresh clips
    of one pass outnumber the cache's capacity, so a later pass misses
    on them again and every pass sees the same mix.
    """

    CLIENTS = 2
    #: request scores sampled for the in-process comparison
    SAMPLE_EVERY = 50

    def __init__(self, seed, smoke, tmp):
        self.seed = seed
        self.side = 12 if smoke else 65
        self.train_clips = 16 if smoke else 96
        self.epochs = 1 if smoke else 6
        self.hot_set = 8 if smoke else 64
        self.request_hot = 4 if smoke else 8
        self.request_fresh = 4 if smoke else 8
        self.requests = 8 if smoke else 250

    def setup(self, traced):
        chip = generate_layout(
            EUV_RULES, self.side, self.side, 0.3, seed=self.seed,
            target_ratio=0.08,
        )
        bus = EventBus() if traced else None
        boot = bootstrap_server(
            chip, train_clips=self.train_clips, grid=GRID, seed=self.seed,
            arch="cnn", epochs=self.epochs, bus=bus,
        )
        return _ServeState(boot=boot, bus=bus)

    def _plans(self, pool) -> list[list[list]]:
        rng = np.random.default_rng(self.seed)
        hot = pool[: self.hot_set]
        fresh = iter(pool[self.hot_set:])
        return [
            [
                [hot[int(i)] for i in rng.choice(
                    len(hot), self.request_hot, replace=False)]
                + [next(fresh) for _ in range(self.request_fresh)]
                for _ in range(self.requests)
            ]
            for _ in range(self.CLIENTS)
        ]

    def start(self, state):
        state.plans = self._plans(state.boot.serve_pool)
        state.transport = SocketTransport(
            state.boot.server, TransportConfig()
        ).start()
        host, port = state.transport.address
        state.clients = [
            DetectionClient(
                ClientConfig(host=host, port=port, timeout_s=60.0, seed=ix),
                bus=state.bus,
            )
            for ix in range(self.CLIENTS)
        ]

    def op(self, state, tracer=None):
        latencies: list[list[float]] = [[] for _ in state.clients]
        sampled: dict[tuple[int, int], bytes] = {}
        served: list[float] = []
        retries = [0]

        def collect(event):
            if event.kind == "request_completed":
                served.append(event.payload["serve_seconds"])
            else:
                retries[0] += 1

        subscribed = []
        if tracer is not None and state.bus is not None:
            dispatched = itertools.count(1)

            def tag_batch(event):
                # runs on the dispatcher thread, whose spans it tags
                tracer.set_tag(f"batch{next(dispatched)}")

            subscribed = [
                state.bus.subscribe(
                    collect, kinds=("request_completed", "transport_retry")
                ),
                state.bus.subscribe(tag_batch, kinds=("batch_dispatched",)),
            ]

        def client_loop(ix: int) -> None:
            client = state.clients[ix]
            for i, clips in enumerate(state.plans[ix]):
                if tracer is not None:
                    tracer.set_tag(f"client{ix}-request{i}")
                started = perf_counter()
                result = client.submit(clips)
                latencies[ix].append(perf_counter() - started)
                if i % self.SAMPLE_EVERY == 0:
                    sampled[(ix, i)] = result.scores.tobytes()

        server = state.boot.server
        cache = state.boot.plane.cache.stats
        before = server.stats()
        hits, misses = cache.hits, cache.misses
        threads = [
            threading.Thread(target=client_loop, args=(ix,),
                             name=f"bench-client-{ix}")
            for ix in range(self.CLIENTS)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        after = server.stats()
        for handler in subscribed:
            state.bus.unsubscribe(handler)

        done = [x for per_client in latencies for x in per_client]
        attempted = sum(len(plan) for plan in state.plans)
        batches = after["batches"] - before["batches"]
        dispatched_clips = (
            after["dispatched_clips"] - before["dispatched_clips"]
        )
        lookups = cache.hits - hits + cache.misses - misses
        layer = {
            "serve.batches": batches,
            "serve.batch_clips_mean":
                dispatched_clips / batches if batches else 0.0,
            "serve.shed": after["rejected"] - before["rejected"],
            "serve.retries": retries[0],
        }
        if served and done:
            share = 100.0 * statistics.median(served) / statistics.median(done)
            layer["serve.server_p50_pct"] = share
            layer["serve.wire_p50_pct"] = 100.0 - share
        return OpResult(
            clips=len(done) * (self.request_hot + self.request_fresh),
            busy_s=wall,
            latencies=done,
            fingerprint=sorted(sampled.items()),
            attempted=attempted,
            failed=attempted - len(done),
            details={
                "cache_hit_ratio": (cache.hits - hits) / lookups
                if lookups else 0.0,
                "batch_clips_mean": layer["serve.batch_clips_mean"],
            },
            layer=layer,
        )

    def check(self, state, results):
        failures = []
        for (ix, i), remote in results[0].fingerprint:
            local = state.boot.server.submit(state.plans[ix][i])
            if local.scores.tobytes() != remote:
                failures.append(
                    f"remote scores of client {ix} request {i} differ from "
                    "in-process submit"
                )
        return failures

    def close(self, state):
        for client in state.clients:
            client.close()
        if state.transport is None:
            state.boot.server.close()
            return {}
        started = perf_counter()
        state.transport.close()
        return {"serve.transport_close_s": perf_counter() - started}


#: name -> factory ``(seed, smoke, tmp) -> workload``
WORKLOADS = {
    "al_cnn": lambda seed, smoke, tmp: AlgorithmTwo(
        seed, smoke, tmp, "iccad16-3", scale=0.08, smoke_scale=0.02,
        arch="cnn", n_iterations=4,
    ),
    "al_mlp": lambda seed, smoke, tmp: AlgorithmTwo(
        seed, smoke, tmp, "iccad12", scale=0.004, smoke_scale=0.0005,
        arch="mlp",
    ),
    "scan_chip": FullChipScan,
    "rescan_chip": IncrementalRescan,
    "serve_remote": RemoteServing,
}
