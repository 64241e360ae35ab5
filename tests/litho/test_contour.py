"""Tests for contour extraction and CD metrology."""

import numpy as np
import pytest

from repro.layout import Rect, rasterize
from repro.litho import (
    cd_uniformity,
    contour_crossings,
    duv_model,
    measure_cd,
)


def aerial_of(rects, grid=96, size=1200):
    mask = rasterize(rects, (size, size), grid)
    return duv_model().aerial_image(mask, size / grid), size / grid


class TestContourCrossings:
    def test_synthetic_ramp(self):
        """A linear ramp crosses 0.5 exactly halfway."""
        intensity = np.tile(np.linspace(0, 1, 11), (3, 1))
        crossings = contour_crossings(intensity, 0.5, row=1)
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(5.0)

    def test_no_crossings_on_flat(self):
        intensity = np.full((2, 10), 0.2)
        assert len(contour_crossings(intensity, 0.5, 0)) == 0

    def test_feature_has_two_crossings(self):
        intensity, _ = aerial_of([Rect(400, 100, 800, 1100)])
        crossings = contour_crossings(intensity, 0.35, row=48)
        assert len(crossings) == 2
        assert crossings[0] < crossings[1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            contour_crossings(np.zeros(5), 0.5, 0)
        with pytest.raises(IndexError):
            contour_crossings(np.zeros((3, 5)), 0.5, 7)


class TestMeasureCd:
    def test_wide_line_cd_close_to_drawn(self):
        """A robust 200 nm vertical line prints near its drawn width."""
        intensity, pixel_nm = aerial_of([Rect(500, 100, 700, 1100)])
        cd = measure_cd(intensity, 0.35, row=48, near_px=48,
                        pixel_nm=pixel_nm)
        assert cd == pytest.approx(200, abs=25)

    def test_narrow_line_prints_below_drawn(self):
        """Near-CD features print narrower than drawn (corner of the
        process window) — metrology should see that."""
        intensity, pixel_nm = aerial_of([Rect(570, 100, 630, 1100)])  # 60 nm
        cd = measure_cd(intensity, 0.35, row=48, near_px=48,
                        pixel_nm=pixel_nm)
        assert cd is not None
        assert cd < 60

    def test_returns_none_outside_features(self):
        intensity, pixel_nm = aerial_of([Rect(500, 100, 700, 1100)])
        assert measure_cd(intensity, 0.35, row=48, near_px=5,
                          pixel_nm=pixel_nm) is None

    def test_returns_none_when_nothing_prints(self):
        intensity, pixel_nm = aerial_of([Rect(595, 100, 605, 1100)])  # 10 nm
        assert measure_cd(intensity, 0.35, row=48, near_px=48,
                          pixel_nm=pixel_nm) is None


class TestCdUniformity:
    def test_uniform_line_low_std(self):
        intensity, pixel_nm = aerial_of([Rect(500, 100, 700, 1100)])
        stats = cd_uniformity(intensity, 0.35, rows=range(20, 76, 8),
                              near_px=48, pixel_nm=pixel_nm)
        assert stats["count"] == 7
        assert stats["std"] < 3.0
        assert stats["min"] <= stats["mean"] + 1e-9
        assert stats["mean"] <= stats["max"] + 1e-9

    def test_necked_line_detected_by_count_or_spread(self):
        intensity, pixel_nm = aerial_of(
            [
                Rect(500, 100, 700, 560),
                Rect(500, 640, 700, 1100),
                Rect(570, 560, 630, 640),  # 60 nm neck in a 200 nm line
            ]
        )
        stats = cd_uniformity(intensity, 0.35, rows=range(20, 76, 4),
                              near_px=48, pixel_nm=pixel_nm)
        # the neck shows up as a much smaller minimum CD
        assert stats["min"] < 0.5 * stats["max"]

    def test_empty_when_nothing_prints(self):
        intensity = np.zeros((10, 10))
        stats = cd_uniformity(intensity, 0.35, rows=[2, 5], near_px=5)
        assert stats["count"] == 0
        assert stats["mean"] == 0.0
