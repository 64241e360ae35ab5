"""Tests for the batch extractor: bit-identity, caching, events.

The data plane's contract is that chunking, pooling, deduplication and
caching change *throughput only* — every array must equal the eager
per-clip ``FeatureExtractor`` output bit for bit.
"""

import numpy as np
import pytest

from repro.dataplane import (
    BatchFeatureExtractor,
    DataPlaneConfig,
    FeatureCache,
)
from repro.engine import EventBus, EventLog
from repro.features import FeatureExtractor
from repro.layout import Clip, Rect


def make_clip(rects, size=1200, margin=300, idx=0):
    window = Rect(0, 0, size, size)
    return Clip(window, window.expanded(-margin), rects=rects, index=idx)


@pytest.fixture(scope="module")
def clips():
    """17 geometrically distinct clips (ragged against chunk_size=4)."""
    return [
        make_clip(
            [
                Rect(100, 400 + 10 * i, 1100, 520 + 14 * i),
                Rect(150 + 20 * i, 700, 450 + 20 * i, 900),
            ],
            idx=i,
        )
        for i in range(17)
    ]


@pytest.fixture(scope="module")
def eager(clips):
    fx = FeatureExtractor(grid=96)
    tensors = np.stack([fx.encode(c) for c in clips])
    flats = np.stack([fx.flat_features(c) for c in clips])
    return tensors, flats


class TestBitIdentity:
    def test_chunked_serial_equals_eager(self, clips, eager):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=4)
        )
        batch = plane.extract(clips)
        np.testing.assert_array_equal(batch.tensors, eager[0])
        np.testing.assert_array_equal(batch.flats, eager[1])

    def test_thread_pool_equals_eager(self, clips, eager):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96),
            DataPlaneConfig(chunk_size=4, workers=3),
        )
        batch = plane.extract(clips)
        np.testing.assert_array_equal(batch.tensors, eager[0])
        np.testing.assert_array_equal(batch.flats, eager[1])

    def test_encode_and_flat_entrypoints(self, clips, eager):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=5)
        )
        np.testing.assert_array_equal(plane.encode_batch(clips), eager[0])
        np.testing.assert_array_equal(plane.flat_batch(clips), eager[1])

    def test_empty_batch(self):
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        batch = plane.extract([])
        assert batch.tensors.shape == (0, 64, 12, 12)
        assert batch.flats.shape[0] == 0


class TestCaching:
    def test_warm_cache_identical_outputs(self, clips, eager):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=4)
        )
        plane.extract(clips)
        warm = plane.extract(clips)  # every clip served from memory
        np.testing.assert_array_equal(warm.tensors, eager[0])
        np.testing.assert_array_equal(warm.flats, eager[1])
        assert plane.cache_stats["memory_hits"] >= len(clips)

    def test_duplicates_encoded_once(self, clips):
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=4)
        )
        doubled = clips + [
            make_clip([Rect(r.x0, r.y0, r.x1, r.y1) for r in c.rects],
                      idx=100 + i)
            for i, c in enumerate(clips)
        ]
        batch = plane.extract(doubled)
        n = len(clips)
        np.testing.assert_array_equal(batch.tensors[:n], batch.tensors[n:])
        assert plane.cache_stats["puts"] == 2 * n  # tensor + flat per clip

    def test_disk_tier_survives_new_plane(self, clips, eager, tmp_path):
        cfg = DataPlaneConfig(chunk_size=4, disk_cache_dir=str(tmp_path))
        BatchFeatureExtractor(FeatureExtractor(grid=96), cfg).extract(clips)
        fresh = BatchFeatureExtractor(FeatureExtractor(grid=96), cfg)
        batch = fresh.extract(clips)
        np.testing.assert_array_equal(batch.tensors, eager[0])
        np.testing.assert_array_equal(batch.flats, eager[1])
        assert fresh.cache_stats["disk_hits"] == 2 * len(clips)
        assert fresh.cache_stats["puts"] == 0

    def test_params_change_invalidates(self, clips):
        cache = FeatureCache(memory_items=256)
        coarse = BatchFeatureExtractor(
            FeatureExtractor(grid=96, coeffs=32), cache=cache
        )
        fine = BatchFeatureExtractor(FeatureExtractor(grid=96), cache=cache)
        coarse.encode_batch(clips)
        tensors = fine.encode_batch(clips)  # must NOT hit the 32-coeff keys
        assert tensors.shape[1] == 64
        assert cache.stats.hits == 0


class TestEvents:
    def test_features_extracted_payload(self, clips):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        plane = BatchFeatureExtractor(
            FeatureExtractor(grid=96),
            DataPlaneConfig(chunk_size=4),
            bus=bus,
        )
        plane.extract(clips + clips[:3])
        plane.extract(clips)
        cold, warm = [e.payload for e in log.of_kind("features_extracted")]
        assert cold["n_clips"] == len(clips) + 3
        assert cold["cache_hits"] == 0
        assert cold["cache_misses"] == len(clips)
        assert cold["deduped"] == 3
        assert cold["chunks"] == 5  # ceil(17 / 4)
        assert cold["kinds"] == ["tensor", "flat"]
        assert cold["extract_seconds"] > 0
        assert warm["cache_hits"] == len(clips)
        assert warm["cache_misses"] == 0
        assert warm["chunks"] == 0
        assert warm["cache_stats"]["memory_hits"] >= 2 * len(clips)

    def test_stage_seconds_sees_extraction(self, clips):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        BatchFeatureExtractor(
            FeatureExtractor(grid=96), bus=bus
        ).extract(clips)
        assert "extract" in log.stage_seconds()


class TestContentKeys:
    def test_given_keys_encode_and_cache_as_computed_ones(
        self, clips, eager, tmp_path
    ):
        keys = [clip.content_key() for clip in clips]
        dirs = {}
        for name, given in (("given", keys), ("computed", None)):
            dirs[name] = tmp_path / name
            plane = BatchFeatureExtractor(
                FeatureExtractor(grid=96),
                DataPlaneConfig(chunk_size=4, disk_cache_dir=str(dirs[name])),
            )
            tensors = plane.encode_batch(clips, keys=given)
            assert tensors.tobytes() == eager[0].tobytes()
        entries = {
            name: sorted(p.name for p in root.rglob("*.npz"))
            for name, root in dirs.items()
        }
        assert entries["given"] == entries["computed"]
        assert len(entries["given"]) == len(clips)
        for entry in entries["given"]:
            with np.load(dirs["given"] / entry) as given, np.load(
                dirs["computed"] / entry
            ) as computed:
                assert given["data"].tobytes() == computed["data"].tobytes()

    def test_wrong_number_of_keys_rejected(self, clips):
        plane = BatchFeatureExtractor(FeatureExtractor(grid=96))
        keys = [clip.content_key() for clip in clips]
        with pytest.raises(ValueError, match="content keys"):
            plane.encode_batch(clips, keys=keys[:-1])


class TestConfig:
    def test_defaults_are_safe(self):
        cfg = DataPlaneConfig()
        assert cfg.workers == 0  # in-process unless asked

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="chunk_size"):
            DataPlaneConfig(chunk_size=0)
        with pytest.raises(ValueError, match="workers"):
            DataPlaneConfig(workers=-1)
        with pytest.raises(ValueError, match="memory_cache_items"):
            DataPlaneConfig(memory_cache_items=-1)
        for timeout in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="task_timeout"):
                DataPlaneConfig(task_timeout=timeout)
