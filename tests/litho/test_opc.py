"""Tests for the OPC-lite mask correction loop."""

import numpy as np
import pytest

from repro.layout import Rect, boxes_of, rasterize
from repro.litho import (
    OPCConfig,
    ThresholdResist,
    duv_model,
    optimize_mask,
    print_error,
)


def neck_target(grid=96, size=1200):
    """A marginal 40 nm neck pattern (a known hotspot of the DUV stack)."""
    rects = [
        Rect(100, 540, 550, 660),
        Rect(650, 540, 1100, 660),
        Rect(550, 580, 650, 620),
    ]
    return rasterize(boxes_of(rects), (size, size), grid), size / grid


class TestPrintError:
    def test_zero_for_identical(self):
        target = np.zeros((8, 8), dtype=bool)
        target[2:6, 2:6] = True
        assert print_error(target, target) == 0.0

    def test_counts_fraction(self):
        a = np.zeros((4, 4), dtype=bool)
        b = a.copy()
        b[0, 0] = True
        assert print_error(b, a) == pytest.approx(1 / 16)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            print_error(np.zeros((2, 2)), np.zeros((3, 3)))


class TestOPCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OPCConfig(iterations=0)
        with pytest.raises(ValueError):
            OPCConfig(step=0)
        with pytest.raises(ValueError):
            OPCConfig(slope=-1)
        with pytest.raises(ValueError):
            OPCConfig(blur_px=-0.5)


class TestOptimizeMask:
    def test_reduces_print_error_on_marginal_pattern(self):
        target, pixel_nm = neck_target()
        result = optimize_mask(
            target, duv_model(), ThresholdResist(), pixel_nm,
            OPCConfig(iterations=15),
        )
        assert result.initial_error > 0  # the neck fails as drawn
        assert result.improved
        assert result.final_error < 0.5 * result.initial_error

    def test_mask_stays_in_unit_range(self):
        target, pixel_nm = neck_target()
        result = optimize_mask(
            target, duv_model(), ThresholdResist(), pixel_nm,
            OPCConfig(iterations=5),
        )
        assert result.mask.min() >= 0.0
        assert result.mask.max() <= 1.0

    def test_robust_pattern_stays_clean(self):
        """A pattern that already prints perfectly is left (near)
        unchanged in print error."""
        rects = [Rect(100, 500, 1100, 700)]  # fat 200 nm line
        target = rasterize(boxes_of(rects), (1200, 1200), 96)
        result = optimize_mask(
            target, duv_model(), ThresholdResist(), 12.5,
            OPCConfig(iterations=5),
        )
        assert result.initial_error == pytest.approx(0.0, abs=0.01)
        assert result.final_error <= result.initial_error + 1e-9

    def test_error_trace_recorded(self):
        target, pixel_nm = neck_target()
        result = optimize_mask(
            target, duv_model(), ThresholdResist(), pixel_nm,
            OPCConfig(iterations=7),
        )
        assert len(result.error_trace) == 7

    def test_corrected_mask_defuses_hotspot(self):
        """End-to-end: the corrected mask prints the neck without the
        nominal-corner defects that flagged the original clip."""
        target, pixel_nm = neck_target()
        optical = duv_model()
        resist = ThresholdResist()
        result = optimize_mask(
            target, optical, resist, pixel_nm, OPCConfig(iterations=20)
        )
        printed = resist.develop(optical.aerial_image(result.mask, pixel_nm))
        # the neck region now prints connected
        neck_rows = slice(int(96 * 580 / 1200), int(96 * 620 / 1200))
        neck_cols = slice(int(96 * 550 / 1200), int(96 * 650 / 1200))
        assert printed[neck_rows, neck_cols].mean() > 0.5
