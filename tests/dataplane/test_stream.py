"""Tests for the tiled streaming scan (repro.dataplane.stream)."""

import json
import threading

import numpy as np
import pytest

from repro.analysis.concurrency import lock_order_edges, reset_lock_order
from repro.analysis.modes import set_check_mode
from repro.data.synth import DUV_RULES, generate_layout
from repro.dataplane import (
    BatchFeatureExtractor,
    DataPlaneConfig,
    StreamConfig,
    StreamScanner,
    TileVerdictStore,
    scan_layout,
)
from repro.engine import EventBus, EventLog
from repro.engine.checkpoint import ScanCursor
from repro.features import FeatureExtractor
from repro.layout import Layout, Rect, TileGrid
from repro.nn import runtime
from repro.nn.runtime import run_ordered

CLIP = DUV_RULES.clip_size
MARGIN = DUV_RULES.core_margin


@pytest.fixture(scope="module")
def chip():
    return generate_layout(
        DUV_RULES, tiles_x=4, tiles_y=3, stress_probability=0.4, seed=7
    )


def density_score(tensors):
    """Deterministic stand-in for a trained model: mean |DCT| energy,
    squashed into (0, 1)."""
    energy = np.abs(tensors.reshape(len(tensors), -1)).mean(axis=1)
    return np.clip(energy * 40.0, 0.0, 1.0)


def make_scanner(chip, tmp_path=None, incremental=True, bus=None,
                 tile_clips=2, score_fn=density_score):
    grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=tile_clips)
    plane = BatchFeatureExtractor(
        FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=8)
    )
    config = StreamConfig(
        tile_clips=tile_clips,
        state_dir=None if tmp_path is None else str(tmp_path),
        incremental=incremental,
    )
    return StreamScanner(grid, plane, score_fn, config, bus=bus)


def hook_tile(scanner, chip, index, action):
    """Call ``action()`` when ``scanner`` encodes the ``index``-th tile
    in lattice order, on whichever thread works it."""
    grid = scanner.grid
    [first, *_] = grid.iter_clips(chip, grid.tiles()[index])
    encode = scanner.plane.encode_batch

    def hooked(clips, keys=None):
        if clips[0].index == first.index:
            action()
        return encode(clips, keys=keys)

    scanner.plane.encode_batch = hooked


def state_files(root):
    """``{relative path: bytes}`` of every file a scan persisted."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestTilePool:
    """The process's one ordered pool, used as a scan uses it: items
    worked on every thread, committed on the caller in item order."""

    def test_processes_every_item(self):
        out = []
        run_ordered(
            list(range(25)), lambda x: x * x, 3,
            lambda item, r: out.append((item, r)),
        )
        assert out == [(x, x * x) for x in range(25)]

    def test_single_worker_runs_inline(self):
        threads = []
        out = []

        def work(x):
            threads.append(threading.current_thread())
            return x

        run_ordered(
            list(range(10)), work, 1, lambda item, r: out.append(r)
        )
        assert out == list(range(10))
        assert set(threads) == {threading.current_thread()}

    def test_commits_run_on_calling_thread_in_order(self):
        trace = []

        def commit(item, result):
            trace.append((item, threading.current_thread()))

        run_ordered(list(range(40)), lambda x: x, 4, commit)
        assert trace == [
            (i, threading.current_thread()) for i in range(40)
        ]

    def test_work_exception_propagates(self):
        committed = []

        def work(x):
            if x == 7:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            run_ordered(
                list(range(20)), work, 2,
                lambda item, r: committed.append(item),
            )
        assert committed == list(range(7))

    def test_slow_early_items_commit_in_order(self):
        """Item 0 finishes only after item 3 did; the commits still
        come in item order and nothing runs past the window."""
        item3_done = threading.Event()
        lock = threading.Lock()
        taken = []
        committed = []

        def work(x):
            with lock:
                taken.append((x, len(committed)))
            if x == 0:
                assert item3_done.wait(timeout=60.0)
            if x == 3:
                item3_done.set()
            return x

        run_ordered(
            list(range(12)), work, 2,
            lambda item, r: committed.append(r),
        )
        assert committed == list(range(12))
        # at most 2 * workers items taken past the oldest uncommitted
        assert all(x - n_committed < 4 for x, n_committed in taken)


class TestTileVerdictStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = TileVerdictStore(tmp_path)
        scores = [0.1234567890123456789, 1 / 3, np.float64(0.7).item()]
        store.save("0001_0002", "digest", [5, 9, 12], scores, [0, 1, 1])
        loaded = store.load("0001_0002")
        assert loaded["scores"] == scores  # exact float64 round trip
        assert loaded["indices"] == [5, 9, 12]
        assert loaded["verdicts"] == [0, 1, 1]

    def test_missing_or_corrupt_entry_loads_none(self, tmp_path):
        store = TileVerdictStore(tmp_path)
        assert store.load("0000_0000") is None
        store.path("0000_0000").parent.mkdir(parents=True, exist_ok=True)
        store.path("0000_0000").write_text("{not json")
        assert store.load("0000_0000") is None
        store.path("0000_0001").write_text(json.dumps({"digest": "d"}))
        assert store.load("0000_0001") is None

    def test_keys_lists_stored_tiles(self, tmp_path):
        store = TileVerdictStore(tmp_path)
        store.save("0000_0001", "d", [], [], [])
        store.save("0000_0000", "d", [], [], [])
        assert store.keys() == ["0000_0000", "0000_0001"]


class TestStreamScanner:
    def test_matches_eager_scoring(self, chip):
        scanner = make_scanner(chip)
        report = scanner.scan(chip)
        # eager reference: extract everything, score in one batch
        from repro.layout import extract_clip_grid

        clips = extract_clip_grid(chip, CLIP, MARGIN, drop_empty=False)
        clips = [c for c in clips if len(c.boxes)]
        fx = FeatureExtractor(grid=96)
        tensors = np.stack([fx.encode(c) for c in clips])
        scores = density_score(tensors)
        expected = sorted(
            c.index for c, s in zip(clips, scores) if s >= 0.5
        )
        assert [h["index"] for h in report.hotspots] == expected
        assert report.n_clips == len(clips)
        assert report.rescored_tiles == report.n_tiles

    def test_sharded_scan_equals_serial_scan(
        self, chip, tmp_path, monkeypatch
    ):
        """One, two or three tile workers: the same report, the same
        tile_scanned sequence and the same persisted bytes."""
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(runtime, "CPU_WORKERS", workers)
            bus = EventBus()
            log = bus.subscribe(EventLog())
            state = tmp_path / f"w{workers}"
            report = make_scanner(chip, state, bus=bus).scan(chip)
            report = report.as_dict()
            report.pop("scan_seconds")
            tiles = [
                {k: v for k, v in e.payload.items() if k != "tile_seconds"}
                for e in log.of_kind("tile_scanned")
            ]
            [started] = log.of_kind("scan_started")
            assert started.payload["workers"] == workers
            runs[workers] = (report, tiles, state_files(state))
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]
        assert [t["tile"] for t in runs[1][1]] == sorted(
            runs[1][0]["manifest"], key=lambda k: (k[5:], k[:4])
        )

    def test_slow_early_tile_commits_in_order(self, chip, monkeypatch):
        """Tile 0 is scored only after three later tiles were; the
        events still come in lattice order and the report does not
        change."""
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)
        three_scored = threading.Event()
        lock = threading.Lock()
        scored = []
        # a worker encodes and scores its own tile, so a flag the encode
        # of tile 0 sets on its thread marks the score of tile 0
        first = threading.local()

        def score(tensors):
            if getattr(first, "tile", False):
                first.tile = False
                assert three_scored.wait(timeout=60.0)
            else:
                with lock:
                    scored.append(len(tensors))
                    if len(scored) == 3:
                        three_scored.set()
            return density_score(tensors)

        bus = EventBus()
        log = bus.subscribe(EventLog())
        scanner = make_scanner(chip, bus=bus, tile_clips=1, score_fn=score)
        hook_tile(scanner, chip, 0, lambda: setattr(first, "tile", True))
        report = scanner.scan(chip)
        assert [e.payload["tile"] for e in log.of_kind("tile_scanned")] == [
            tile.key for tile in scanner.grid.tiles()
        ]
        serial = make_scanner(chip, tile_clips=1).scan(chip)
        assert report.hotspots == serial.hotspots
        assert report.manifest == serial.manifest

    def test_one_tile_encodes_at_a_time(self, chip, monkeypatch):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)
        scanner = make_scanner(chip, tile_clips=1)
        lock = threading.Lock()
        running = {"now": 0, "most": 0}
        encode = scanner.plane.encode_batch

        def counting(clips, keys=None):
            with lock:
                running["now"] += 1
                running["most"] = max(running["most"], running["now"])
            try:
                return encode(clips, keys=keys)
            finally:
                with lock:
                    running["now"] -= 1

        scanner.plane.encode_batch = counting
        scanner.scan(chip)
        assert running["most"] == 1

    def test_error_in_tile_is_raised_after_helpers_stop(
        self, chip, tmp_path, monkeypatch, pool_idle
    ):
        monkeypatch.setattr(runtime, "CPU_WORKERS", 3)

        def fail():
            raise RuntimeError("tile 5 failed")

        scanner = make_scanner(chip, tmp_path, tile_clips=1)
        hook_tile(scanner, chip, 5, fail)
        with pytest.raises(RuntimeError, match="tile 5 failed"):
            scanner.scan(chip)
        assert pool_idle()
        # the tiles before the failing one are persisted, none after
        expected = sorted(tile.key for tile in scanner.grid.tiles()[:5])
        assert TileVerdictStore(tmp_path / "tiles").keys() == expected
        cursor = ScanCursor.load(
            tmp_path / "cursor.json", scanner.grid.fingerprint()
        )
        assert sorted(cursor.done) == expected

    def test_interrupt_on_caller_stops_the_scan(
        self, chip, tmp_path, monkeypatch, pool_idle
    ):
        """An interrupt raised on the calling thread (here from a
        progress handler) ends the scan once every helper is idle;
        the committed tiles resume."""
        monkeypatch.setattr(runtime, "CPU_WORKERS", 2)

        def interrupt(event):
            if event.payload["tiles_done"] == 2:
                raise KeyboardInterrupt("ctrl-c")

        bus = EventBus()
        bus.subscribe(interrupt, kinds=("tile_scanned",))
        scanner = make_scanner(chip, tmp_path, bus=bus)
        with pytest.raises(KeyboardInterrupt):
            scanner.scan(chip)
        assert pool_idle()
        committed = sorted(tile.key for tile in scanner.grid.tiles()[:2])
        assert TileVerdictStore(tmp_path / "tiles").keys() == committed

        resumed = make_scanner(chip, tmp_path).scan(chip)
        assert resumed.replayed_tiles == 2
        assert resumed.hotspots == make_scanner(chip).scan(chip).hotspots

    def test_second_scan_replays_everything(self, chip, tmp_path):
        first = make_scanner(chip, tmp_path).scan(chip)
        second = make_scanner(chip, tmp_path).scan(chip)
        assert first.rescored_tiles == first.n_tiles
        assert second.replayed_tiles == second.n_tiles
        assert second.rescored_tiles == 0
        assert second.hotspots == first.hotspots  # bit-identical replay

    def test_unchanged_rescan_saves_the_cursor_once(
        self, chip, tmp_path, monkeypatch
    ):
        make_scanner(chip, tmp_path).scan(chip)
        before = state_files(tmp_path)
        saves = []
        original = ScanCursor.save

        def counting_save(cursor):
            saves.append(dict(cursor.done))
            return original(cursor)

        monkeypatch.setattr(ScanCursor, "save", counting_save)
        report = make_scanner(chip, tmp_path).scan(chip)
        assert report.replayed_tiles == report.n_tiles
        assert len(saves) == 1
        assert state_files(tmp_path) == before

    def test_incremental_rescore_is_local(self, chip, tmp_path):
        make_scanner(chip, tmp_path).scan(chip)
        grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=2)
        core = grid.window(0, 0).expanded(-MARGIN)
        edited = Layout(
            list(chip.rects)
            + [Rect(core.x0 + 12, core.y0 + 12,
                    core.x0 + 90, core.y0 + 90)],
            die=chip.die, tech_nm=chip.tech_nm, name=chip.name,
        )
        report = make_scanner(edited, tmp_path).scan(edited)
        assert report.rescored_tiles == 1
        assert report.replayed_tiles == report.n_tiles - 1
        assert report.rescored_clips <= grid.tile_clips ** 2

    def test_incremental_false_rescans_everything(self, chip, tmp_path):
        make_scanner(chip, tmp_path).scan(chip)
        report = make_scanner(
            chip, tmp_path, incremental=False
        ).scan(chip)
        assert report.rescored_tiles == report.n_tiles

    def test_kill_and_resume_mid_scan(self, chip, tmp_path):
        grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=2)
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        config = StreamConfig(tile_clips=2, state_dir=str(tmp_path))
        dying = StreamScanner(grid, plane, density_score, config)

        def kill():
            raise KeyboardInterrupt("killed mid-scan")

        # killed in the third tile, on whichever thread works it
        hook_tile(dying, chip, 2, kill)
        with pytest.raises(KeyboardInterrupt):
            dying.scan(chip)
        # exactly the tiles committed before the crash persisted
        survived = TileVerdictStore(tmp_path / "tiles").keys()
        assert survived == sorted(tile.key for tile in grid.tiles()[:2])

        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        resumed = StreamScanner(
            grid, plane, density_score, config
        ).scan(chip)
        assert resumed.replayed_tiles == len(survived)
        assert resumed.rescored_tiles == len(grid.tiles()) - len(survived)
        clean = make_scanner(chip).scan(chip)
        assert resumed.hotspots == clean.hotspots

    def test_events_cover_every_tile(self, chip):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        report = make_scanner(chip, bus=bus).scan(chip)
        [started] = log.of_kind("scan_started")
        assert started.payload["n_tiles"] == report.n_tiles
        tiles = log.of_kind("tile_scanned")
        assert len(tiles) == report.n_tiles
        [done] = log.of_kind("scan_completed")
        assert done.payload["n_hotspots"] == report.n_hotspots

    def test_empty_layout_scans_clean(self, tmp_path):
        blank = Layout([], die=Rect(0, 0, 4000, 4000), name="blank")
        report = scan_layout(
            blank, CLIP, MARGIN, score_fn=density_score,
            stream=StreamConfig(tile_clips=2,
                                state_dir=str(tmp_path)),
        )
        assert report.n_clips == 0
        assert report.n_hotspots == 0
        assert report.n_tiles > 0

    def test_scanner_requires_a_scoring_path(self, chip):
        grid = TileGrid.for_layout(chip, CLIP, MARGIN)
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        with pytest.raises(ValueError):
            StreamScanner(grid, plane, score_fn=None)

    def test_litho_labeler_verdicts(self, chip):
        from repro.litho.labeler import LithoLabeler
        from repro.litho.simulator import LithoSimulator

        grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=3)
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        labeler = LithoLabeler(LithoSimulator.for_tech(chip.tech_nm))
        scanner = StreamScanner(
            grid, plane, score_fn=None,
            config=StreamConfig(tile_clips=3), labeler=labeler,
        )
        report = scanner.scan(chip)
        assert report.n_clips == labeler.query_count
        assert all(h["score"] == 1.0 for h in report.hotspots)

    def test_labeler_sees_the_same_queries_at_any_width(
        self, chip, monkeypatch
    ):
        from repro.litho.labeler import LithoLabeler
        from repro.litho.simulator import LithoSimulator

        grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=2)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(runtime, "CPU_WORKERS", workers)
            labeler = LithoLabeler(LithoSimulator.for_tech(chip.tech_nm))
            queried = []
            original = labeler.label_batch

            def recording(clips, **kwargs):
                queried.append([clip.index for clip in clips])
                return original(clips, **kwargs)

            labeler.label_batch = recording
            report = StreamScanner(
                grid, BatchFeatureExtractor(FeatureExtractor(grid=96)),
                density_score, StreamConfig(tile_clips=2), labeler=labeler,
            ).scan(chip)
            runs.append((labeler.query_count, queried, report.hotspots))
        assert runs[1] == runs[0]

    def test_strict_scans_keep_only_live_lock_order_edges(
        self, chip, monkeypatch
    ):
        """Each scan's encode lock is collected when the scan returns,
        and its lock-order edges go with it: the twentieth strict scan
        sees the edges the first one saw, not twenty copies of them."""
        monkeypatch.setenv("REPRO_CHECK", "strict")
        previous = set_check_mode("strict")
        seen = []

        def score(tensors):
            seen.append(lock_order_edges())
            return density_score(tensors)

        per_scan = []
        try:
            reset_lock_order()
            for _ in range(20):
                make_scanner(chip, score_fn=score).scan(chip)
                per_scan.append(seen[-1])
        finally:
            set_check_mode(previous)
        assert ("scan-encode", "feature-cache") in per_scan[0]
        assert all(edges == per_scan[0] for edges in per_scan)
        assert lock_order_edges() <= per_scan[0]


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(tile_clips=0)
        with pytest.raises(ValueError):
            StreamConfig(shards=0)
        with pytest.raises(ValueError):
            StreamConfig(threshold=1.5)

    def test_shards_is_deprecated(self):
        with pytest.warns(DeprecationWarning, match="shards"):
            config = StreamConfig(shards=4)
        assert config.shards == 4  # kept, but the scan ignores it
