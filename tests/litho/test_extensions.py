"""Tests for the litho extensions: process windows and DRC."""

import numpy as np
import pytest

from repro.layout import Clip, Rect
from repro.litho import (
    DRCRules,
    LithoSimulator,
    ProcessWindow,
    analyze_process_window,
    check_clip,
    drc_screen,
)


def make_clip(rects, size=1200, margin=300, idx=0):
    window = Rect(0, 0, size, size)
    return Clip(window, window.expanded(-margin), rects=rects, index=idx)


class TestProcessWindow:
    @pytest.fixture(scope="class")
    def simulator(self):
        return LithoSimulator.for_tech(28, grid=96)

    def test_robust_pattern_has_wide_window(self, simulator):
        clip = make_clip([Rect(100, 550, 1100, 650)])  # 100 nm line
        window = analyze_process_window(simulator, clip,
                                        dose_steps=5, defocus_steps=3)
        assert window.window_fraction > 0.9
        assert window.dose_latitude > 0.8

    def test_marginal_pattern_has_small_window(self, simulator):
        clip = make_clip(
            [
                Rect(100, 540, 550, 660),
                Rect(650, 540, 1100, 660),
                Rect(550, 575, 650, 625),  # 50 nm neck at the CD edge
            ]
        )
        robust = make_clip([Rect(100, 550, 1100, 650)])
        marginal = analyze_process_window(simulator, clip,
                                          dose_steps=5, defocus_steps=3)
        wide = analyze_process_window(simulator, robust,
                                      dose_steps=5, defocus_steps=3)
        assert marginal.window_fraction < wide.window_fraction

    def test_hopeless_pattern_zero_window(self, simulator):
        clip = make_clip([Rect(100, 590, 1100, 610)])  # 20 nm line
        window = analyze_process_window(simulator, clip,
                                        dose_steps=3, defocus_steps=2)
        assert window.window_fraction == 0.0
        assert window.dose_latitude == 0.0
        assert window.depth_of_focus_nm == 0.0

    def test_grid_shapes(self, simulator):
        clip = make_clip([Rect(100, 550, 1100, 650)])
        window = analyze_process_window(
            simulator, clip, dose_steps=4, defocus_steps=3
        )
        assert window.passes.shape == (4, 3)
        assert len(window.doses) == 4
        assert len(window.defocus_nm) == 3

    def test_rejects_bad_grid(self, simulator):
        clip = make_clip([Rect(100, 550, 1100, 650)])
        with pytest.raises(ValueError):
            analyze_process_window(simulator, clip, dose_steps=0)

    def test_window_dataclass_properties(self):
        passes = np.array([[True, False], [True, True], [False, False]])
        window = ProcessWindow(
            doses=np.array([0.9, 1.0, 1.1]),
            defocus_nm=np.array([0.0, 30.0]),
            passes=passes,
        )
        assert window.window_fraction == pytest.approx(0.5)
        assert window.depth_of_focus_nm == pytest.approx(30.0)


class TestDRC:
    RULES = DRCRules(min_width_nm=50, min_spacing_nm=50)

    def test_clean_clip_passes(self):
        clip = make_clip([Rect(100, 500, 1100, 620)])  # 120 nm line
        assert check_clip(clip, self.RULES) == []

    def test_narrow_wire_flagged(self):
        clip = make_clip([Rect(100, 580, 1100, 610)])  # 30 nm < 50 rule
        violations = check_clip(clip, self.RULES)
        assert any(v.kind == "width" for v in violations)

    def test_tight_spacing_flagged(self):
        clip = make_clip(
            [Rect(100, 450, 1100, 580), Rect(100, 610, 1100, 740)]  # 30 gap
        )
        violations = check_clip(clip, self.RULES)
        assert any(v.kind == "spacing" for v in violations)

    def test_violation_outside_core_ignored(self):
        # narrow sliver near the clip edge (outside the 300 nm core)
        clip = make_clip([Rect(100, 50, 1100, 80), Rect(100, 500, 1100, 650)])
        assert check_clip(clip, self.RULES) == []

    def test_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            DRCRules(min_width_nm=0, min_spacing_nm=10)

    def test_screen_vector(self):
        clean = make_clip([Rect(100, 500, 1100, 620)], idx=0)
        dirty = make_clip([Rect(100, 580, 1100, 610)], idx=1)
        verdicts = drc_screen([clean, dirty], self.RULES)
        assert verdicts.tolist() == [False, True]

    def test_hotspots_can_be_drc_clean(self):
        """The raison d'etre of litho hotspot detection: patterns at the
        drawn rules (DRC-clean) can still fail printing."""
        sim = LithoSimulator.for_tech(28, grid=96)
        # 40 nm neck: exactly at a 40 nm width rule (DRC-clean) but
        # below the simulator's ~50 nm lithographic CD
        clip = make_clip(
            [
                Rect(100, 540, 550, 660),
                Rect(650, 540, 1100, 660),
                Rect(550, 580, 650, 620),
            ]
        )
        assert check_clip(clip, DRCRules(40, 40)) == []
        assert sim.simulate(clip).hotspot
