"""Tests for benchmark builders and the dataset cache."""

import numpy as np
import pytest

from repro.data import BENCHMARKS, benchmark_names, build_benchmark


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestSpecs:
    def test_table1_statistics_encoded(self):
        """The specs carry the exact Table I numbers."""
        assert BENCHMARKS["iccad12"].paper_hotspots == 3728
        assert BENCHMARKS["iccad12"].paper_nonhotspots == 159672
        assert BENCHMARKS["iccad12"].rules.tech_nm == 28
        assert BENCHMARKS["iccad16-1"].paper_hotspots == 0
        assert BENCHMARKS["iccad16-2"].paper_hotspots == 56
        assert BENCHMARKS["iccad16-3"].paper_hotspots == 1100
        assert BENCHMARKS["iccad16-4"].paper_hotspots == 157
        for name in ("iccad16-1", "iccad16-2", "iccad16-3", "iccad16-4"):
            assert BENCHMARKS[name].rules.tech_nm == 7

    def test_names(self):
        assert benchmark_names() == [
            "iccad12", "iccad16-1", "iccad16-2", "iccad16-3", "iccad16-4",
        ]

    def test_tiles_for_scale(self):
        spec = BENCHMARKS["iccad16-3"]
        tx, ty = spec.tiles_for_scale(1.0)
        assert abs(tx * ty - spec.paper_total) / spec.paper_total < 0.05
        with pytest.raises(ValueError):
            spec.tiles_for_scale(0.0)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            build_benchmark("iccad99")


class TestBuild:
    def test_build_small_case(self, cache_dir):
        ds = build_benchmark("iccad16-2", scale=0.1, seed=0)
        assert len(ds) >= 16
        assert ds.tech_nm == 7
        assert ds.tensors.shape[0] == len(ds)
        assert ds.flats.shape[0] == len(ds)
        assert len(ds.meta["hashes"]) == len(ds)

    def test_iccad16_1_is_hotspot_free(self, cache_dir):
        ds = build_benchmark("iccad16-1", scale=1.0, seed=0)
        assert ds.n_hotspots == 0
        # paper size is 63 clips; scale=1.0 should be close
        assert abs(len(ds) - 63) <= 10

    def test_hotspot_ratio_tracks_table1(self, cache_dir):
        """Realized hotspot ratio is within a factor ~2 of Table I."""
        ds = build_benchmark("iccad16-3", scale=0.1, seed=0)
        target = BENCHMARKS["iccad16-3"].paper_ratio
        assert 0.4 * target < ds.hotspot_ratio < 2.0 * target

    def test_deterministic_given_seed(self, cache_dir):
        a = build_benchmark("iccad16-2", scale=0.05, seed=3, use_cache=False)
        b = build_benchmark("iccad16-2", scale=0.05, seed=3, use_cache=False)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.tensors, b.tensors)

    def test_labels_match_simulator(self, cache_dir):
        """Stored ground truth equals a fresh litho run per clip."""
        from repro.litho import LithoSimulator

        ds = build_benchmark("iccad16-2", scale=0.05, seed=1, use_cache=False)
        sim = LithoSimulator.for_tech(ds.tech_nm, grid=ds.meta["grid"])
        fresh = np.array([sim.is_hotspot(c) for c in ds.clips], dtype=np.int64)
        np.testing.assert_array_equal(fresh, ds.labels)


class TestCache:
    def test_roundtrip_preserves_arrays(self, cache_dir):
        fresh = build_benchmark("iccad16-2", scale=0.05, seed=2)
        assert (cache_dir / "iccad16-2_s0.05_r2_g96_f64.npz").exists()
        cached = build_benchmark("iccad16-2", scale=0.05, seed=2)
        # bit-identical: a reload must never change what a run sees
        np.testing.assert_array_equal(cached.labels, fresh.labels)
        np.testing.assert_array_equal(cached.tensors, fresh.tensors)
        np.testing.assert_array_equal(cached.flats, fresh.flats)
        np.testing.assert_array_equal(
            cached.meta["hashes"], fresh.meta["hashes"]
        )

    def test_cache_preserves_clip_windows(self, cache_dir):
        fresh = build_benchmark("iccad16-2", scale=0.05, seed=2)
        cached = build_benchmark("iccad16-2", scale=0.05, seed=2)
        assert [c.window for c in cached.clips] == [
            c.window for c in fresh.clips
        ]
        assert cached.meta["geometry_available"] is False
        assert fresh.meta["geometry_available"] is True

    def test_scale_changes_cache_key(self, cache_dir):
        build_benchmark("iccad16-1", scale=0.5, seed=0)
        build_benchmark("iccad16-1", scale=1.0, seed=0)
        assert len(list(cache_dir.glob("iccad16-1*.npz"))) == 2
