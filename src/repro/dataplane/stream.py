"""Tiled streaming full-chip scan: sharded, resumable, incremental.

The AL loop of Algorithm 2 operates on an in-memory pool — the paper's
setting, where the benchmark fits in RAM.  Scanning a production chip
does not: the clip-window lattice of a full die runs to millions of
windows, and "extract everything, then score" is exactly the eager data
plane this module replaces.  A :class:`StreamScanner` walks a
:class:`~repro.layout.tiles.TileGrid` one tile at a time:

* **streaming** — each tile's clips are cut lazily off the layout's
  bucket index, encoded through the cached
  :class:`~repro.dataplane.extract.BatchFeatureExtractor`, scored, and
  released before the next tile is touched.  Peak memory is one tile's
  worth of geometry and features regardless of chip size.
* **sharding** — tiles are dealt round-robin onto per-shard work queues
  drained by one worker thread each; an idle worker *steals* from the
  back of the richest queue, so a shard that drew the dense corner of
  the chip does not serialize the scan.  Threads do the geometry work
  (bucket queries, content digests) concurrently; the compute step
  (feature encoding / inference / litho labeling) is serialized under
  one lock and parallelizes *internally* over the data-plane's chunk
  thread pool (``DataPlaneConfig.workers``).
* **resume + incremental re-detection** — with a ``state_dir``, every
  finished tile persists its verdicts (:class:`TileVerdictStore`) and
  progress (:class:`~repro.engine.checkpoint.ScanCursor`).  Both replay
  by the same rule: a tile whose current content digest matches its
  stored one is **replayed bit-identically** from disk, never
  re-scored.  A killed scan resumed against its own state dir and a
  fresh scan after a localized layout edit are therefore the same
  cheap operation — only changed (or unfinished) tiles pay for
  extraction and inference.

The scan emits ``scan_started`` / ``tile_scanned`` / ``scan_completed``
events (tile-granular progress) and returns a :class:`ScanReport`.
"""

from __future__ import annotations

import json
import time
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..analysis.concurrency import TrackedLock
from ..analysis.interleave import trace_point
from ..engine.checkpoint import ScanCursor
from ..engine.events import EventBus
from ..layout.layout import Layout
from ..layout.tiles import Tile, TileGrid
from .config import DataPlaneConfig
from .extract import BatchFeatureExtractor

__all__ = [
    "ScanReport",
    "ShardScheduler",
    "StreamConfig",
    "StreamScanner",
    "TileVerdictStore",
    "model_score_fn",
    "scan_layout",
]

#: ``score_fn`` contract: ``(N, C, H, W)`` float64 tensors in, ``(N,)``
#: hotspot probabilities out
ScoreFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one streaming scan.

    Parameters
    ----------
    tile_clips:
        Tile edge length in clip windows (see
        :class:`~repro.layout.tiles.TileGrid`).
    shards:
        Work-queue/worker count of the :class:`ShardScheduler`.  ``1``
        (default) scans tiles in lattice order on the calling thread's
        schedule — fully deterministic event order.
    state_dir:
        Directory for the verdict store + scan cursor; ``None``
        disables persistence (and with it resume/incremental replay).
    incremental:
        Replay tiles whose stored digest matches the current geometry.
        ``False`` forces a full re-score even with state present.
    threshold:
        Calibrated-probability cutoff above which a clip is flagged
        hotspot (the paper detects at 0.5).
    """

    tile_clips: int = 8
    shards: int = 1
    state_dir: str | None = None
    incremental: bool = True
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.tile_clips <= 0:
            raise ValueError(
                f"tile_clips must be positive, got {self.tile_clips}"
            )
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )


# ----------------------------------------------------------------------
# work-stealing shard scheduler
# ----------------------------------------------------------------------
class ShardScheduler:
    """Per-shard deques drained by worker threads, with work stealing.

    Items are dealt round-robin onto ``shards`` queues.  Each worker
    pops from the *front* of its own queue and, when empty, steals from
    the *back* of the richest other queue — the classic deque
    discipline, so owners and thieves rarely contend on the same end.
    ``on_result`` calls are serialized (one at a time, in completion
    order), which is what lets callers flush cursors and aggregate into
    plain lists from inside the callback.  The queue lock is a
    :class:`~repro.analysis.concurrency.TrackedLock`, so any lock-order
    inversion a callback introduces is reported under ``REPRO_CHECK``.

    The first exception raised by ``work`` or ``on_result`` stops the
    scheduler and is re-raised from :meth:`run`; items already
    completed stay completed (their ``on_result`` ran).
    """

    def __init__(self, shards: int) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.shards = shards

    def run(
        self,
        items: Iterable[Any],
        work: Callable[[Any], Any],
        on_result: Callable[[Any, Any], None] | None = None,
    ) -> dict:
        """Process every item; returns ``{"steals", "per_shard"}``."""
        queues: list[deque] = [deque() for _ in range(self.shards)]
        for i, item in enumerate(items):
            queues[i % self.shards].append(item)

        lock = TrackedLock("shard-scheduler")
        stop = threading.Event()
        errors: list[BaseException] = []
        stats = {"steals": 0, "per_shard": [0] * self.shards}
        _EMPTY = object()

        def take(me: int) -> tuple[Any, bool]:
            with lock:
                if queues[me]:
                    return queues[me].popleft(), False
                victim = None
                richest = 0
                for i, queue in enumerate(queues):
                    if i != me and len(queue) > richest:
                        richest = len(queue)
                        victim = queue
                if victim is not None:
                    return victim.pop(), True
            return _EMPTY, False

        def worker(me: int) -> None:
            while not stop.is_set():
                item, stolen = take(me)
                if item is _EMPTY:
                    return
                trace_point("scheduler.item.taken")
                try:
                    result = work(item)
                    with lock:
                        stats["per_shard"][me] += 1  # type: ignore[index]
                        if stolen:
                            stats["steals"] += 1  # type: ignore[operator]
                        if on_result is not None:
                            on_result(item, result)
                        trace_point("scheduler.item.done")
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    with lock:
                        errors.append(exc)
                    stop.set()
                    return

        if self.shards == 1:
            # single shard: run inline, no thread hop, deterministic
            worker(0)
        else:
            threads = [
                threading.Thread(
                    target=worker, args=(i,), name=f"scan-shard-{i}"
                )
                for i in range(self.shards)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return stats


# ----------------------------------------------------------------------
# per-tile verdict persistence
# ----------------------------------------------------------------------
class TileVerdictStore:
    """One JSON file per completed tile under ``root``.

    Each entry holds the tile's content ``digest`` plus the parallel
    ``indices`` / ``scores`` / ``verdicts`` lists of its clips.  Floats
    survive the JSON round trip bit-identically (``repr`` of a float64
    is exact), which is what makes replayed tiles indistinguishable
    from re-scored ones.  Writes are atomic (``*.tmp`` +
    ``os.replace``); unreadable or schema-less entries load as ``None``
    and simply force a re-score.
    """

    _FIELDS = ("digest", "indices", "scores", "verdicts")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"tile-{key}.json"

    def load(self, key: str) -> dict | None:
        try:
            payload = json.loads(self.path(key).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or any(
            name not in payload for name in self._FIELDS
        ):
            return None
        if not (
            len(payload["indices"])
            == len(payload["scores"])
            == len(payload["verdicts"])
        ):
            return None
        return payload

    def save(
        self,
        key: str,
        digest: str,
        indices: Sequence[int],
        scores: Sequence[float],
        verdicts: Sequence[int],
    ) -> Path:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "digest": digest,
                    "indices": [int(i) for i in indices],
                    "scores": [float(s) for s in scores],
                    "verdicts": [int(v) for v in verdicts],
                }
            )
        )
        tmp.replace(path)
        return path

    def keys(self) -> list[str]:
        """Keys of every stored tile (sorted)."""
        return sorted(
            path.stem[len("tile-"):]
            for path in self.root.glob("tile-*.json")
        )


# ----------------------------------------------------------------------
# scan report
# ----------------------------------------------------------------------
@dataclass
class ScanReport:
    """Outcome of one :meth:`StreamScanner.scan`."""

    layout: str
    n_tiles: int
    n_windows: int
    n_clips: int
    n_hotspots: int
    replayed_tiles: int
    rescored_tiles: int
    replayed_clips: int
    rescored_clips: int
    steals: int
    scan_seconds: float
    #: flagged clips, ascending clip index; each entry carries
    #: ``index``, ``window`` (absolute nm, ``[x0, y0, x1, y1]``) and
    #: ``score``
    hotspots: list[dict] = field(default_factory=list)
    #: tile key -> content digest of the scanned chip
    manifest: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "layout": self.layout,
            "n_tiles": self.n_tiles,
            "n_windows": self.n_windows,
            "n_clips": self.n_clips,
            "n_hotspots": self.n_hotspots,
            "replayed_tiles": self.replayed_tiles,
            "rescored_tiles": self.rescored_tiles,
            "replayed_clips": self.replayed_clips,
            "rescored_clips": self.rescored_clips,
            "steals": self.steals,
            "scan_seconds": self.scan_seconds,
            "hotspots": self.hotspots,
            "manifest": self.manifest,
        }


@dataclass
class _TileResult:
    tile: Tile
    digest: str
    indices: list[int]
    scores: list[float]
    verdicts: list[int]
    replayed: bool
    seconds: float


# ----------------------------------------------------------------------
# the scanner
# ----------------------------------------------------------------------
class StreamScanner:
    """Streaming hotspot scan of full-chip layouts.

    Parameters
    ----------
    grid:
        The tiled clip-window lattice to scan.
    plane:
        Cache-aware batch extractor; its :class:`DataPlaneConfig`
        decides chunking and thread-pool width of the compute step.
    score_fn:
        ``(N, C, H, W)`` tensors → ``(N,)`` hotspot probabilities
        (build one from a trained classifier with
        :func:`model_score_fn`).  May be ``None`` when ``labeler`` is
        given — verdicts then come from lithography alone.
    config:
        Streaming knobs (:class:`StreamConfig`).
    bus:
        Optional event bus for scan progress events.
    labeler:
        Optional :class:`~repro.litho.labeler.LithoLabeler`; when
        present, tile verdicts come from simulation (``label_batch``
        fans out over the data-plane pool) instead of thresholded
        scores.  Access is serialized so its query meter stays exact.
    """

    def __init__(
        self,
        grid: TileGrid,
        plane: BatchFeatureExtractor,
        score_fn: ScoreFn | None,
        config: StreamConfig | None = None,
        bus: EventBus | None = None,
        labeler: Any | None = None,
    ) -> None:
        if score_fn is None and labeler is None:
            raise ValueError("need a score_fn, a labeler, or both")
        self.grid = grid
        self.plane = plane
        self.score_fn = score_fn
        self.config = config if config is not None else StreamConfig()
        self.bus = bus
        self.labeler = labeler
        #: serializes feature encoding / inference / litho labeling —
        #: scoring batches out of order would scramble the litho query
        #: meter; parallelism of the compute step lives in the plane's
        #: own chunk pool.  Tracked, so holding it across a cache/bus
        #: acquisition keeps the lock-order graph observable.
        self._compute_lock = TrackedLock("scanner-compute")

    # ------------------------------------------------------------------
    def _score_tile(self, clips: list) -> tuple[list[float], list[int]]:
        """Scores + verdicts of one tile's clips (compute-serialized)."""
        dp: DataPlaneConfig = self.plane.config
        with self._compute_lock:
            if self.score_fn is not None:
                tensors = self.plane.encode_batch(clips)
                scores_arr = np.asarray(self.score_fn(tensors), dtype=float)
                if scores_arr.shape != (len(clips),):
                    raise ValueError(
                        f"score_fn returned shape {scores_arr.shape}, "
                        f"expected ({len(clips)},)"
                    )
                scores = [float(s) for s in scores_arr]
            else:
                scores = []
            if self.labeler is not None:
                verdicts = [
                    int(v)
                    for v in self.labeler.label_batch(
                        clips,
                        chunk_size=dp.chunk_size,
                        workers=dp.workers,
                        timeout=dp.task_timeout,
                    )
                ]
            else:
                verdicts = [
                    int(s >= self.config.threshold) for s in scores
                ]
        if not scores:
            scores = [float(v) for v in verdicts]
        return scores, verdicts

    def _scan_tile(
        self,
        layout: Layout,
        tile: Tile,
        cursor: ScanCursor | None,
        store: TileVerdictStore | None,
    ) -> _TileResult:
        started = time.perf_counter()
        clips = list(self.grid.iter_clips(layout, tile))
        digest = TileGrid.digest_clips(clips)

        if (
            self.config.incremental
            and cursor is not None
            and store is not None
            and cursor.is_done(tile.key, digest)
        ):
            stored = store.load(tile.key)
            if stored is not None and stored["digest"] == digest:
                return _TileResult(
                    tile=tile,
                    digest=digest,
                    indices=[int(i) for i in stored["indices"]],
                    scores=[float(s) for s in stored["scores"]],
                    verdicts=[int(v) for v in stored["verdicts"]],
                    replayed=True,
                    seconds=time.perf_counter() - started,
                )

        indices = [clip.index for clip in clips]
        if clips:
            scores, verdicts = self._score_tile(clips)
        else:
            scores, verdicts = [], []
        if store is not None:
            store.save(tile.key, digest, indices, scores, verdicts)
        return _TileResult(
            tile=tile,
            digest=digest,
            indices=indices,
            scores=scores,
            verdicts=verdicts,
            replayed=False,
            seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def scan(self, layout: Layout) -> ScanReport:
        """Scan ``layout`` tile by tile; returns the aggregate report."""
        cfg = self.config
        grid = self.grid
        scan_start = time.perf_counter()

        cursor: ScanCursor | None = None
        store: TileVerdictStore | None = None
        if cfg.state_dir is not None:
            state = Path(cfg.state_dir)
            store = TileVerdictStore(state / "tiles")
            cursor = ScanCursor.load(
                state / "cursor.json", grid.fingerprint()
            )
            if not cfg.incremental:
                cursor.done = {}

        tiles = grid.tiles()
        if self.bus is not None:
            self.bus.emit(
                "scan_started",
                layout=layout.name,
                n_tiles=len(tiles),
                n_windows=grid.n_windows,
                tile_clips=cfg.tile_clips,
                shards=cfg.shards,
                incremental=bool(cfg.incremental and cfg.state_dir),
            )

        results: list[_TileResult] = []

        def on_result(tile: Tile, result: _TileResult) -> None:
            # scheduler-serialized: cursor flushes and the results list
            # are safe here and nowhere else off the main thread (the
            # bus serializes its own dispatch)
            results.append(result)
            if cursor is not None:
                cursor.mark(tile.key, result.digest)
                cursor.save()
            if self.bus is not None:
                self.bus.emit(
                    "tile_scanned",
                    tile=tile.key,
                    n_clips=len(result.indices),
                    n_hotspots=int(sum(result.verdicts)),
                    replayed=result.replayed,
                    tiles_done=len(results),
                    n_tiles=len(tiles),
                    tile_seconds=result.seconds,
                )

        scheduler = ShardScheduler(cfg.shards)
        stats = scheduler.run(
            tiles,
            lambda tile: self._scan_tile(layout, tile, cursor, store),
            on_result,
        )
        if cursor is not None:
            cursor.save()

        # aggregate in lattice order regardless of completion order
        results.sort(key=lambda r: (r.tile.ty, r.tile.tx))
        hotspots: list[dict] = []
        for result in results:
            for index, score, verdict in zip(
                result.indices, result.scores, result.verdicts
            ):
                if verdict:
                    row, col = divmod(index, grid.n_cols)
                    hotspots.append(
                        {
                            "index": index,
                            "window": list(
                                grid.window(row, col).as_tuple()
                            ),
                            "score": score,
                        }
                    )
        hotspots.sort(key=lambda h: h["index"])
        manifest = {r.tile.key: r.digest for r in results}
        if cfg.state_dir is not None:
            manifest_path = Path(cfg.state_dir) / "manifest.json"
            tmp = manifest_path.with_name(manifest_path.name + ".tmp")
            tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            tmp.replace(manifest_path)

        replayed = [r for r in results if r.replayed]
        rescored = [r for r in results if not r.replayed]
        report = ScanReport(
            layout=layout.name,
            n_tiles=len(tiles),
            n_windows=grid.n_windows,
            n_clips=sum(len(r.indices) for r in results),
            n_hotspots=len(hotspots),
            replayed_tiles=len(replayed),
            rescored_tiles=len(rescored),
            replayed_clips=sum(len(r.indices) for r in replayed),
            rescored_clips=sum(len(r.indices) for r in rescored),
            steals=int(stats["steals"]),  # type: ignore[arg-type]
            scan_seconds=time.perf_counter() - scan_start,
            hotspots=hotspots,
            manifest=manifest,
        )
        if self.bus is not None:
            self.bus.emit(
                "scan_completed",
                n_tiles=report.n_tiles,
                n_clips=report.n_clips,
                n_hotspots=report.n_hotspots,
                replayed_tiles=report.replayed_tiles,
                rescored_tiles=report.rescored_tiles,
                replayed_clips=report.replayed_clips,
                rescored_clips=report.rescored_clips,
                steals=report.steals,
                scan_seconds=report.scan_seconds,
            )
        return report


# ----------------------------------------------------------------------
# conveniences
# ----------------------------------------------------------------------
def model_score_fn(classifier: Any, temperature: Any = None) -> ScoreFn:
    """Hotspot-probability ``score_fn`` of a trained classifier.

    With a fitted ``temperature``
    (:class:`~repro.calibration.temperature.TemperatureScaler`), scores
    are the calibrated probabilities the paper detects on; without one,
    the raw softmax of Eq. (4).
    """
    from ..calibration.temperature import scaled_softmax

    def score(tensors: np.ndarray) -> np.ndarray:
        logits = classifier.predict_logits(tensors)
        if temperature is not None and temperature.temperature_ is not None:
            probs = temperature.transform(logits)
        else:
            probs = scaled_softmax(logits, 1.0)
        return np.asarray(probs[:, 1])

    return score


def scan_layout(
    layout: Layout,
    clip_size: int,
    core_margin: int,
    classifier: Any = None,
    temperature: Any = None,
    extractor: Any = None,
    dataplane: DataPlaneConfig | None = None,
    stream: StreamConfig | None = None,
    bus: EventBus | None = None,
    labeler: Any | None = None,
    score_fn: ScoreFn | None = None,
) -> ScanReport:
    """One-call streaming scan of ``layout``.

    Builds the :class:`~repro.layout.tiles.TileGrid`, the cache-aware
    data plane and the :class:`StreamScanner` from the given configs,
    scores with ``classifier`` (+ optional fitted ``temperature``)
    unless an explicit ``score_fn`` or ``labeler`` is supplied, and
    returns the :class:`ScanReport`.
    """
    from ..features.pipeline import FeatureExtractor

    stream = stream if stream is not None else StreamConfig()
    grid = TileGrid.for_layout(
        layout, clip_size, core_margin, tile_clips=stream.tile_clips
    )
    plane = BatchFeatureExtractor(
        extractor if extractor is not None else FeatureExtractor(),
        config=dataplane,
        bus=bus,
    )
    if score_fn is None and classifier is not None:
        score_fn = model_score_fn(classifier, temperature)
    scanner = StreamScanner(
        grid, plane, score_fn, config=stream, bus=bus, labeler=labeler
    )
    return scanner.scan(layout)
