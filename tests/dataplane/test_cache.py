"""Tests for the content-addressed two-tier feature cache."""

import numpy as np
import pytest

from repro.dataplane import FeatureCache, feature_key
from repro.layout import Clip, Rect, boxes_of


def make_clip(rects, size=1200, margin=300, idx=0):
    window = Rect(0, 0, size, size)
    return Clip(window, window.expanded(-margin), boxes=boxes_of(rects), index=idx)


class TestFeatureKey:
    def test_key_combines_all_parts(self):
        key = feature_key("abc", "g96b12c32d8", "tensor")
        assert key == "abc-g96b12c32d8-tensor"

    def test_content_key_depends_on_geometry_only(self):
        a = make_clip([Rect(100, 550, 1100, 650)], idx=0)
        b = make_clip([Rect(100, 550, 1100, 650)], idx=9)
        c = make_clip([Rect(100, 550, 1100, 651)], idx=0)
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()

    def test_content_key_rect_order_invariant(self):
        rects = [Rect(100, 550, 1100, 650), Rect(200, 100, 400, 300)]
        a = make_clip(list(rects))
        b = make_clip(list(reversed(rects)))
        assert a.content_key() == b.content_key()


class TestMemoryTier:
    def test_roundtrip_identical(self):
        cache = FeatureCache(memory_items=4)
        array = np.random.default_rng(0).normal(size=(3, 4))
        cache.put("k", array)
        np.testing.assert_array_equal(cache.get("k"), array)
        assert cache.stats.memory_hits == 1

    def test_miss_returns_none_and_counts(self):
        cache = FeatureCache(memory_items=4)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_lru_evicts_oldest(self):
        cache = FeatureCache(memory_items=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")  # refresh a, so b is now the LRU entry
        cache.put("c", np.full(1, 2.0))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats.evictions == 1

    def test_zero_memory_items_disables_tier(self):
        cache = FeatureCache(memory_items=0)
        cache.put("k", np.zeros(3))
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_clear_keeps_disk(self, tmp_path):
        cache = FeatureCache(memory_items=4, disk_dir=tmp_path)
        cache.put("k", np.arange(3.0))
        cache.clear()
        assert len(cache) == 0
        np.testing.assert_array_equal(cache.get("k"), np.arange(3.0))
        assert cache.stats.disk_hits == 1


class TestDiskTier:
    def test_roundtrip_across_instances(self, tmp_path):
        array = np.random.default_rng(1).normal(size=(32, 12, 12))
        FeatureCache(memory_items=2, disk_dir=tmp_path).put("k", array)
        fresh = FeatureCache(memory_items=2, disk_dir=tmp_path)
        np.testing.assert_array_equal(fresh.get("k"), array)
        assert fresh.stats.disk_hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        FeatureCache(disk_dir=tmp_path).put("k", np.zeros(2))
        cache = FeatureCache(disk_dir=tmp_path)
        cache.get("k")
        cache.get("k")
        assert cache.stats.disk_hits == 1
        assert cache.stats.memory_hits == 1

    def test_torn_write_is_a_miss(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path)
        (tmp_path / "bad.npz").write_bytes(b"not an npz archive")
        assert cache.get("bad") is None
        assert cache.stats.misses == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path)
        for i in range(5):
            cache.put(f"k{i}", np.full(4, float(i)))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"k{i}.npz" for i in range(5)]


class TestCorruptQuarantine:
    def corrupt_entry(self, tmp_path, key="k"):
        FeatureCache(disk_dir=tmp_path).put(key, np.arange(8.0))
        path = tmp_path / f"{key}.npz"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # truncated archive
        return path

    def test_truncated_archive_quarantined(self, tmp_path):
        path = self.corrupt_entry(tmp_path)
        cache = FeatureCache(disk_dir=tmp_path)
        assert cache.get("k") is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists()  # the bad file cannot fail twice

    def test_second_read_is_a_plain_miss(self, tmp_path):
        self.corrupt_entry(tmp_path)
        cache = FeatureCache(disk_dir=tmp_path)
        cache.get("k")
        assert cache.get("k") is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    def test_emits_cache_corrupt_event(self, tmp_path):
        from repro.engine import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        path = self.corrupt_entry(tmp_path)
        cache = FeatureCache(disk_dir=tmp_path, bus=bus)
        cache.get("k")
        [event] = log.of_kind("cache_corrupt")
        assert event.payload["key"] == "k"
        assert event.payload["path"] == str(path)

    def test_entry_can_be_rewritten_after_quarantine(self, tmp_path):
        self.corrupt_entry(tmp_path)
        cache = FeatureCache(disk_dir=tmp_path)
        cache.get("k")
        cache.put("k", np.full(4, 7.0))
        fresh = FeatureCache(disk_dir=tmp_path)
        np.testing.assert_array_equal(fresh.get("k"), np.full(4, 7.0))

    def test_corrupt_counter_in_as_dict(self, tmp_path):
        self.corrupt_entry(tmp_path)
        cache = FeatureCache(disk_dir=tmp_path)
        cache.get("k")
        assert cache.stats.as_dict()["corrupt"] == 1


class TestShardedDisk:
    def test_entries_land_in_shard_dirs(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path, disk_shards=4)
        keys = [f"{i:08x}-p-tensor" for i in range(16)]
        for key in keys:
            cache.put(key, np.arange(4.0))
        shard_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert all(name.startswith("shard-") for name in shard_dirs)
        files = list(tmp_path.glob("shard-*/*.npz"))
        assert len(files) == 16
        assert not list(tmp_path.glob("*.npz"))

    def test_shard_of_key_is_stable(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path, disk_shards=8)
        key = "00bc614e-p-tensor"  # hex prefix 0x00bc614e
        assert cache._shard_of(key) == 0x00BC614E % 8
        # non-hex prefixes still shard deterministically
        assert cache._shard_of("zzz") == cache._shard_of("zzz")

    def test_flat_legacy_entries_remain_readable(self, tmp_path):
        FeatureCache(disk_dir=tmp_path).put("aabbccdd-k", np.full(3, 7.0))
        sharded = FeatureCache(
            disk_dir=tmp_path, disk_shards=4, memory_items=0
        )
        np.testing.assert_array_equal(
            sharded.get("aabbccdd-k"), np.full(3, 7.0)
        )
        assert sharded.stats.disk_hits == 1

    def test_sharded_roundtrip_across_instances(self, tmp_path):
        FeatureCache(disk_dir=tmp_path, disk_shards=4).put(
            "0000000a-k", np.arange(5.0)
        )
        fresh = FeatureCache(
            disk_dir=tmp_path, disk_shards=4, memory_items=0
        )
        np.testing.assert_array_equal(
            fresh.get("0000000a-k"), np.arange(5.0)
        )

    def test_negative_shards_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FeatureCache(disk_dir=tmp_path, disk_shards=-1)


class TestDiskByteBudget:
    def entry_size(self, tmp_path):
        probe = FeatureCache(disk_dir=tmp_path / "probe")
        probe.put("probe", np.arange(64.0))
        return (tmp_path / "probe" / "probe.npz").stat().st_size

    def test_eviction_honours_budget(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = FeatureCache(
            disk_dir=tmp_path, max_disk_bytes=3 * size + size // 2
        )
        for i in range(6):
            cache.put(f"{i:08x}", np.arange(64.0) + i)
        assert cache.stats.disk_evictions == 3
        assert cache.stats.disk_bytes <= 3 * size + size // 2
        remaining = sorted(p.stem for p in tmp_path.glob("*.npz"))
        assert remaining == ["00000003", "00000004", "00000005"]

    def test_eviction_is_lru_not_fifo(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = FeatureCache(
            disk_dir=tmp_path, memory_items=0,
            max_disk_bytes=2 * size + size // 2,
        )
        cache.put("00000000", np.arange(64.0))
        cache.put("00000001", np.arange(64.0) + 1)
        cache.get("00000000")  # refresh: 00000001 is now the LRU entry
        cache.put("00000002", np.arange(64.0) + 2)
        assert sorted(p.stem for p in tmp_path.glob("*.npz")) == [
            "00000000", "00000002",
        ]

    def test_newest_entry_never_evicted(self, tmp_path):
        # a budget smaller than one entry must keep the latest insert
        cache = FeatureCache(disk_dir=tmp_path, max_disk_bytes=1)
        cache.put("00000000", np.arange(64.0))
        assert (tmp_path / "00000000.npz").exists()
        cache.put("00000001", np.arange(64.0))
        assert (tmp_path / "00000001.npz").exists()
        assert not (tmp_path / "00000000.npz").exists()

    def test_emits_cache_evicted_event(self, tmp_path):
        from repro.engine import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        size = self.entry_size(tmp_path)
        cache = FeatureCache(
            disk_dir=tmp_path, max_disk_bytes=size + size // 2, bus=bus
        )
        cache.put("00000000", np.arange(64.0))
        cache.put("00000001", np.arange(64.0))
        [event] = log.of_kind("cache_evicted")
        assert event.payload["key"] == "00000000"
        assert event.payload["bytes"] > 0
        assert event.payload["max_disk_bytes"] == size + size // 2

    def test_budget_spans_cache_instances(self, tmp_path):
        size = self.entry_size(tmp_path)
        first = FeatureCache(disk_dir=tmp_path)
        for i in range(4):
            first.put(f"{i:08x}", np.arange(64.0) + i)
        fresh = FeatureCache(
            disk_dir=tmp_path, max_disk_bytes=2 * size + size // 2
        )
        # compressed sizes vary by a few bytes per entry; the rebuilt
        # index must account for all four (well over the budget)
        assert fresh.stats.disk_bytes > 2 * size + size // 2
        fresh.put("000000ff", np.arange(64.0))
        # pre-existing oldest entries were evicted to make room
        assert fresh.stats.disk_bytes <= 2 * size + size // 2

    def test_stats_in_as_dict(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path, max_disk_bytes=1)
        cache.put("00000000", np.arange(64.0))
        cache.put("00000001", np.arange(64.0))
        stats = cache.stats.as_dict()
        assert stats["disk_evictions"] == 1
        assert stats["evicted_bytes"] > 0
        assert stats["disk_bytes"] > 0


class TestCompaction:
    def test_removes_leftover_tmp_files(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path, disk_shards=2)
        cache.put("00000000", np.arange(4.0))
        (tmp_path / "dead.tmp").write_bytes(b"torn")
        (tmp_path / "shard-00").mkdir(exist_ok=True)
        (tmp_path / "shard-00" / "dead2.tmp").write_bytes(b"torn")
        report = cache.compact()
        assert report["removed_tmp"] == 2
        assert report["entries"] == 1
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_reapplies_budget_with_override(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path)
        for i in range(4):
            cache.put(f"{i:08x}", np.arange(64.0) + i)
        before = cache.stats.disk_bytes
        report = cache.compact(max_bytes=before // 2)
        assert report["disk_bytes"] <= before // 2
        assert cache.max_disk_bytes is None  # override did not stick

    def test_no_disk_tier_compacts_to_empty_report(self):
        report = FeatureCache().compact()
        assert report["entries"] == 0
        assert report["failed_tmp"] == 0

    def test_counts_and_reports_failed_tmp_removals(
        self, tmp_path, monkeypatch
    ):
        """An undeletable tmp file must not be silently swallowed: the
        report counts it and a ``cache_tmp_failed`` event fires."""
        from pathlib import Path

        from repro.engine.events import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        cache = FeatureCache(disk_dir=tmp_path, bus=bus)
        cache.put("00000000", np.arange(4.0))
        (tmp_path / "stuck.tmp").write_bytes(b"torn")

        real_unlink = Path.unlink

        def failing_unlink(self, *args, **kwargs):
            if self.suffix == ".tmp":
                raise OSError("unlink denied")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", failing_unlink)
        report = cache.compact()
        assert report["failed_tmp"] == 1
        assert report["removed_tmp"] == 0
        failures = log.of_kind("cache_tmp_failed")
        assert len(failures) == 1
        assert failures[0].payload["path"].endswith("stuck.tmp")
        assert "unlink denied" in failures[0].payload["error"]

        # once the filesystem recovers the same compact cleans up
        monkeypatch.undo()
        report = cache.compact()
        assert report["removed_tmp"] == 1
        assert report["failed_tmp"] == 0


class TestTenantStats:
    def test_counters_attributed_per_tenant(self):
        cache = FeatureCache(memory_items=4)
        cache.put("aaaa", np.ones(2), tenant="v1")
        assert cache.get("aaaa", tenant="v1") is not None
        assert cache.get("miss", tenant="v2") is None
        assert cache.get("aaaa") is not None  # untagged: not attributed

        stats = cache.tenant_stats()
        assert stats["v1"] == {
            "memory_hits": 1, "disk_hits": 0, "misses": 0, "puts": 1,
            "hits": 1,
        }
        assert stats["v2"]["misses"] == 1
        assert stats["v2"]["hits"] == 0

    def test_disk_hits_attributed(self, tmp_path):
        cache = FeatureCache(memory_items=1, disk_dir=tmp_path)
        cache.put("aaaa", np.ones(2), tenant="v1")
        cache.put("bbbb", np.zeros(2), tenant="v1")  # evicts aaaa
        assert cache.get("aaaa", tenant="v1") is not None  # disk tier
        stats = cache.tenant_stats()["v1"]
        assert stats["disk_hits"] == 1
        assert stats["puts"] == 2

    def test_clear_resets_tenant_stats(self):
        cache = FeatureCache(memory_items=2)
        cache.put("aaaa", np.ones(2), tenant="v1")
        cache.clear()
        assert cache.tenant_stats() == {}
