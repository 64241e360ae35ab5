"""Tests for density features and the FeatureExtractor pipeline."""

import numpy as np
import pytest

from repro.features import FeatureExtractor, density_grid, density_stats
from repro.layout import Clip, Rect, boxes_of


def make_clip(rects, size=1200, margin=300, idx=0):
    window = Rect(0, 0, size, size)
    return Clip(window, window.expanded(-margin), boxes=boxes_of(rects), index=idx)


class TestDensityFeatures:
    def test_grid_values(self):
        image = np.zeros((16, 16))
        image[:8, :8] = 1.0
        grid = density_grid(image, cells=2)
        np.testing.assert_allclose(grid, [1.0, 0.0, 0.0, 0.0])

    def test_grid_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            density_grid(np.zeros((10, 10)), cells=3)

    def test_stats_shape_and_values(self):
        stats = density_stats(np.ones((8, 8)))
        assert stats.shape == (5,)
        assert stats[0] == 1.0  # mean
        assert stats[1] == 0.0  # std
        assert stats[3] == 0.0  # no x-edges in constant image

    def test_stats_edge_sensitivity(self):
        striped = np.zeros((8, 8))
        striped[:, ::2] = 1.0
        assert density_stats(striped)[3] > density_stats(np.ones((8, 8)))[3]


class TestFeatureExtractor:
    def test_tensor_shape(self):
        fx = FeatureExtractor(grid=96, blocks=12, coeffs=32)
        assert fx.tensor_shape == (32, 12, 12)
        clip = make_clip([Rect(100, 100, 600, 400)])
        assert fx.encode(clip).shape == (32, 12, 12)

    def test_batch_stacking(self):
        fx = FeatureExtractor(grid=48, blocks=12, coeffs=8)
        clips = [make_clip([Rect(100, 100, 600, 400)], idx=i) for i in range(3)]
        batch = fx.encode_batch(clips)
        assert batch.shape == (3, 8, 12, 12)
        np.testing.assert_allclose(batch[0], fx.encode(clips[0]))

    def test_empty_batch(self):
        fx = FeatureExtractor(grid=48, blocks=12, coeffs=8)
        assert fx.encode_batch([]).shape == (0, 8, 12, 12)
        assert fx.flat_batch([]).shape[0] == 0

    def test_flat_features_length(self):
        fx = FeatureExtractor(grid=96, blocks=12, coeffs=32, density_cells=8)
        clip = make_clip([Rect(100, 100, 600, 400)])
        flat = fx.flat_features(clip)
        assert flat.shape == (32 * 12 * 12 + 64,)

    def test_identical_clips_identical_features(self):
        fx = FeatureExtractor(grid=48, blocks=12, coeffs=8)
        a = make_clip([Rect(100, 100, 600, 400)], idx=0)
        b = make_clip([Rect(100, 100, 600, 400)], idx=1)
        np.testing.assert_allclose(fx.encode(a), fx.encode(b))

    def test_different_clips_differ(self):
        fx = FeatureExtractor(grid=48, blocks=12, coeffs=8)
        a = make_clip([Rect(100, 100, 600, 400)])
        b = make_clip([Rect(100, 500, 600, 900)])
        assert not np.allclose(fx.encode(a), fx.encode(b))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FeatureExtractor(grid=100, blocks=12)
        with pytest.raises(ValueError):
            FeatureExtractor(grid=24, blocks=12, coeffs=32)

    def test_rejects_nondivisible_density_cells(self):
        with pytest.raises(ValueError, match="density_cells"):
            FeatureExtractor(grid=96, density_cells=7)
        with pytest.raises(ValueError, match="density_cells"):
            FeatureExtractor(grid=96, density_cells=0)

    def test_params_key_covers_every_knob(self):
        fx = FeatureExtractor(grid=96, blocks=12, coeffs=32, density_cells=8)
        assert fx.params_key == "g96b12c32d8"
        assert fx.params_key != FeatureExtractor(grid=96).params_key

    def test_stack_kernels_match_per_clip(self):
        """The vectorized raster/encode/flat path must be bit-identical
        to the per-clip methods it replaced."""
        fx = FeatureExtractor(grid=48, blocks=12, coeffs=8, density_cells=4)
        clips = [
            make_clip([Rect(100, 100 + 50 * i, 600, 400 + 50 * i)], idx=i)
            for i in range(4)
        ]
        rasters = fx.raster_stack(clips)
        tensors = fx.encode_rasters(rasters)
        flats = fx.flats_from_rasters(rasters, tensors)
        for i, clip in enumerate(clips):
            np.testing.assert_array_equal(rasters[i], fx.raster(clip))
            np.testing.assert_array_equal(tensors[i], fx.encode(clip))
            np.testing.assert_array_equal(flats[i], fx.flat_features(clip))
