"""Tiled streaming full-chip scan: parallel, resumable, incremental.

The AL loop of Algorithm 2 operates on an in-memory pool — the paper's
setting, where the benchmark fits in RAM.  Scanning a production chip
does not: the clip-window lattice of a full die runs to millions of
windows, and "extract everything, then score" is exactly the eager data
plane this module replaces.  A :class:`StreamScanner` walks a
:class:`~repro.layout.tiles.TileGrid` one tile at a time:

* **streaming** — each tile's clips are cut lazily off the layout's
  bucket index, encoded through the cached
  :class:`~repro.dataplane.extract.BatchFeatureExtractor`, scored, and
  released, so memory holds a few tiles, never the chip.
* **tiles on the one pool** — the calling thread and the helpers of
  the process's ordered pool (:func:`~repro.nn.runtime.run_ordered`,
  one thread per CPU) each take the next tile in lattice order and
  cut, digest, replay-check, encode and score it whole.  One tile
  encodes at a time while the others cut or score, whose gemm releases
  the GIL.  The calling thread *commits* tiles strictly in lattice
  order (litho labeling, verdict store, cursor, ``tile_scanned``), and
  every ``encode_batch`` and ``score_fn`` call gets one tile's clips,
  so results are byte-equal at any worker count, and when a busy pool
  leaves every tile to the calling thread.  At most ``2 * workers``
  tiles are taken past the oldest uncommitted one; a finished tile
  waiting for its commit holds only its indices, scores and verdicts.
* **resume + incremental re-detection** — with a ``state_dir``, every
  committed tile persists its verdicts (:class:`TileVerdictStore`) and
  progress (:class:`~repro.engine.checkpoint.ScanCursor`).  Both replay
  by the same rule: a tile whose current content digest matches its
  stored one is **replayed bit-identically** from disk, never
  re-scored.  A killed scan resumed against its own state dir and a
  fresh scan after a localized layout edit are therefore the same
  cheap operation — only changed (or unfinished) tiles pay for
  extraction and inference.

The scan emits ``scan_started`` / ``tile_scanned`` / ``scan_completed``
events (tile-granular progress, in lattice order) and returns a
:class:`ScanReport`.  The plane's ``features_extracted`` events come
from the tile workers, one encode at a time, not always in lattice
order.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..analysis.concurrency import TrackedLock
from ..engine.checkpoint import ScanCursor
from ..engine.events import EventBus
from ..layout.clip import content_keys
from ..layout.layout import Layout
from ..layout.tiles import Tile, TileGrid
from ..nn import runtime
from .config import DataPlaneConfig
from .extract import BatchFeatureExtractor

__all__ = [
    "ScanReport",
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
        Deprecated and ignored: a scan works its tiles on every CPU the
        process may use.  It is still validated, and any value other
        than ``1`` raises a :class:`DeprecationWarning`.
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
        if self.shards != 1:
            warnings.warn(
                "StreamConfig.shards is deprecated and ignored: a scan "
                "works its tiles on every CPU the process may use",
                DeprecationWarning,
                stacklevel=3,
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )


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
    scan_seconds: float
    #: flagged clips, ascending clip index; each entry carries
    #: ``index``, ``window`` (absolute nm, ``[x0, y0, x1, y1]``) and
    #: ``score``
    hotspots: list[dict] = field(default_factory=list)
    #: tile key -> content digest of the scanned chip
    manifest: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _TileResult:
    tile: Tile
    digest: str
    indices: list[int]
    scores: list[float]
    verdicts: list[int]
    replayed: bool
    seconds: float
    #: the tile's clips, kept for litho labeling at commit (labeler
    #: scans only)
    clips: list | None = None


# ----------------------------------------------------------------------
# the scanner
# ----------------------------------------------------------------------
class StreamScanner:
    """Streaming hotspot scan of full-chip layouts.

    A scan works tiles on the calling thread and the pool's helpers,
    one thread per CPU, so ``score_fn`` runs on up to that many threads
    at once and the ``plane`` is called from each of them, one encode at
    a time.
    :func:`model_score_fn` is safe to call so: the workspace arena is
    per thread, the weights are only read, and inference only clears
    layer caches.  Litho labeling, persistence and events run on the
    calling thread in lattice order.

    Parameters
    ----------
    grid:
        The tiled clip-window lattice to scan.
    plane:
        Cache-aware batch extractor; its :class:`DataPlaneConfig`
        decides chunking and the chunk pool of each tile's encoding.
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
        scores.  It is called at commit, in lattice order, so its
        query meter and any fault draws see the order of a one-thread
        scan.
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

    # ------------------------------------------------------------------
    def _work_tile(
        self,
        layout: Layout,
        tile: Tile,
        cursor: ScanCursor | None,
        store: TileVerdictStore | None,
        encode_lock: TrackedLock,
    ) -> _TileResult:
        """Cut, digest, replay-check, encode and score one tile (on
        any worker thread; ``encode_lock`` admits one encode at a
        time)."""
        started = time.perf_counter()
        clips = list(self.grid.iter_clips(layout, tile))
        keys = content_keys(clips)
        digest = TileGrid.digest_clips(clips, keys)

        # a tile's cursor entry changes only at its own commit, which
        # comes after this check
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

        scores: list[float] = []
        if clips and self.score_fn is not None:
            with encode_lock:
                tensors = self.plane.encode_batch(clips, keys=keys)
            scores_arr = np.asarray(self.score_fn(tensors), dtype=float)
            if scores_arr.shape != (len(clips),):
                raise ValueError(
                    f"score_fn returned shape {scores_arr.shape}, "
                    f"expected ({len(clips)},)"
                )
            scores = [float(s) for s in scores_arr]
        labeling = bool(clips) and self.labeler is not None
        return _TileResult(
            tile=tile,
            digest=digest,
            indices=[clip.index for clip in clips],
            scores=scores,
            verdicts=(
                [] if labeling
                else [int(s >= self.config.threshold) for s in scores]
            ),
            replayed=False,
            seconds=time.perf_counter() - started,
            clips=clips if labeling else None,
        )

    def _label(self, result: _TileResult) -> None:
        """Litho verdicts of a worked tile (on the calling thread)."""
        started = time.perf_counter()
        dp: DataPlaneConfig = self.plane.config
        result.verdicts = [
            int(v)
            for v in self.labeler.label_batch(
                result.clips,
                chunk_size=dp.chunk_size,
                workers=dp.workers,
                timeout=dp.task_timeout,
            )
        ]
        if not result.scores:
            result.scores = [float(v) for v in result.verdicts]
        result.clips = None
        result.seconds += time.perf_counter() - started

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
        workers = max(1, min(runtime.CPU_WORKERS, len(tiles)))
        if self.bus is not None:
            self.bus.emit(
                "scan_started",
                layout=layout.name,
                n_tiles=len(tiles),
                n_windows=grid.n_windows,
                tile_clips=cfg.tile_clips,
                workers=workers,
                incremental=bool(cfg.incremental and cfg.state_dir),
            )

        results: list[_TileResult] = []

        def commit(tile: Tile, result: _TileResult) -> None:
            # the calling thread, in lattice order: a tile is persisted
            # exactly when it is committed
            if result.clips is not None:
                self._label(result)
            if store is not None and not result.replayed:
                store.save(
                    tile.key, result.digest, result.indices,
                    result.scores, result.verdicts,
                )
            if cursor is not None and cursor.mark(tile.key, result.digest):
                cursor.save()
            results.append(result)
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

        # one tile encodes at a time: an encode's raster and DCT buffers
        # are a tile's largest, so the memory peak stays one encode at
        # any worker count, and two encodes mostly contend for the GIL
        encode_lock = TrackedLock("scan-encode")
        runtime.run_ordered(
            tiles,
            lambda tile: self._work_tile(
                layout, tile, cursor, store, encode_lock
            ),
            workers,
            commit,
        )
        if cursor is not None:
            cursor.save()

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
