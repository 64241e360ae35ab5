"""Tests for the tiled streaming scan (repro.dataplane.stream)."""

import json

import numpy as np
import pytest

from repro.data.synth import DUV_RULES, generate_layout
from repro.dataplane import (
    BatchFeatureExtractor,
    DataPlaneConfig,
    ShardScheduler,
    StreamConfig,
    StreamScanner,
    TileVerdictStore,
    scan_layout,
)
from repro.engine import EventBus, EventLog
from repro.features import FeatureExtractor
from repro.layout import Layout, Rect, TileGrid

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


def make_scanner(chip, tmp_path=None, shards=1, incremental=True,
                 bus=None, tile_clips=2):
    grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=tile_clips)
    plane = BatchFeatureExtractor(
        FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=8)
    )
    config = StreamConfig(
        tile_clips=tile_clips,
        shards=shards,
        state_dir=None if tmp_path is None else str(tmp_path),
        incremental=incremental,
    )
    return StreamScanner(grid, plane, density_score, config, bus=bus)


class TestShardScheduler:
    def test_processes_every_item(self):
        out = []
        stats = ShardScheduler(3).run(
            range(25), lambda x: x * x, lambda item, r: out.append(r)
        )
        assert sorted(out) == [x * x for x in range(25)]
        assert sum(stats["per_shard"]) == 25

    def test_single_shard_preserves_order(self):
        out = []
        ShardScheduler(1).run(
            range(10), lambda x: x, lambda item, r: out.append(r)
        )
        assert out == list(range(10))

    def test_on_result_is_serialized(self):
        # concurrent on_result calls would interleave these two appends
        trace = []

        def on_result(item, result):
            trace.append(("enter", item))
            trace.append(("exit", item))

        ShardScheduler(4).run(range(40), lambda x: x, on_result)
        for i in range(0, len(trace), 2):
            assert trace[i][0] == "enter"
            assert trace[i + 1] == ("exit", trace[i][1])

    def test_work_exception_propagates(self):
        def work(x):
            if x == 7:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            ShardScheduler(2).run(range(20), work)

    def test_steals_counted_on_imbalanced_queues(self):
        import time

        # shard 0 gets slow items (round-robin), shard 1 finishes its
        # own queue and must steal to finish the job
        def work(x):
            if x % 2 == 0:
                time.sleep(0.02)
            return x

        out = []
        stats = ShardScheduler(2).run(
            range(12), work, lambda item, r: out.append(r)
        )
        assert sorted(out) == list(range(12))
        assert stats["steals"] >= 1

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardScheduler(0)


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
        clips = [c for c in clips if c.rects]
        fx = FeatureExtractor(grid=96)
        tensors = np.stack([fx.encode(c) for c in clips])
        scores = density_score(tensors)
        expected = sorted(
            c.index for c, s in zip(clips, scores) if s >= 0.5
        )
        assert [h["index"] for h in report.hotspots] == expected
        assert report.n_clips == len(clips)
        assert report.rescored_tiles == report.n_tiles

    def test_sharded_scan_equals_serial_scan(self, chip):
        serial = make_scanner(chip).scan(chip)
        sharded = make_scanner(chip, shards=3).scan(chip)
        assert sharded.hotspots == serial.hotspots
        assert sharded.manifest == serial.manifest

    def test_second_scan_replays_everything(self, chip, tmp_path):
        first = make_scanner(chip, tmp_path).scan(chip)
        second = make_scanner(chip, tmp_path).scan(chip)
        assert first.rescored_tiles == first.n_tiles
        assert second.replayed_tiles == second.n_tiles
        assert second.rescored_tiles == 0
        assert second.hotspots == first.hotspots  # bit-identical replay

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
        calls = {"n": 0}

        def dying_score(tensors):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt("killed mid-scan")
            return density_score(tensors)

        grid = TileGrid.for_layout(chip, CLIP, MARGIN, tile_clips=2)
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        config = StreamConfig(
            tile_clips=2, shards=2, state_dir=str(tmp_path)
        )
        dying = StreamScanner(grid, plane, dying_score, config)
        with pytest.raises(KeyboardInterrupt):
            dying.scan(chip)
        # completed tiles persisted before the crash
        survived = TileVerdictStore(tmp_path / "tiles").keys()
        assert 1 <= len(survived) < grid.n_tiles

        resumed = StreamScanner(
            grid, plane, density_score, config
        ).scan(chip)
        assert resumed.replayed_tiles == len(survived)
        assert resumed.rescored_tiles == grid.n_tiles - len(survived)
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


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(tile_clips=0)
        with pytest.raises(ValueError):
            StreamConfig(shards=0)
        with pytest.raises(ValueError):
            StreamConfig(threshold=1.5)
