"""Tests for the synthetic layout generator."""

import numpy as np
import pytest

from repro.data.synth import DUV_RULES, EUV_RULES, MOTIFS, generate_layout
from repro.layout import bounding_box, extract_clip_grid
from repro.litho import LithoSimulator


def _inside(inner, outer):
    """``inner`` lies within ``outer`` (edges may coincide)."""
    return (outer.x0 <= inner.x0 and outer.y0 <= inner.y0
            and inner.x1 <= outer.x1 and inner.y1 <= outer.y1)


class TestGenerateLayout:
    def test_deterministic_per_seed(self):
        a = generate_layout(DUV_RULES, 3, 3, 0.3, seed=7)
        b = generate_layout(DUV_RULES, 3, 3, 0.3, seed=7)
        assert a.rects == b.rects

    def test_different_seeds_differ(self):
        a = generate_layout(DUV_RULES, 3, 3, 0.3, seed=1)
        b = generate_layout(DUV_RULES, 3, 3, 0.3, seed=2)
        assert a.rects != b.rects

    def test_die_size_matches_tiles(self):
        layout = generate_layout(DUV_RULES, 4, 2, 0.0, seed=0)
        core = DUV_RULES.clip_size - 2 * DUV_RULES.core_margin
        assert layout.die.width == 2 * DUV_RULES.core_margin + 4 * core
        assert layout.die.height == 2 * DUV_RULES.core_margin + 2 * core

    def test_geometry_inside_die(self):
        layout = generate_layout(EUV_RULES, 5, 5, 0.5, seed=3)
        assert _inside(bounding_box(layout.rects), layout.die)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_layout(DUV_RULES, 0, 3, 0.5)
        with pytest.raises(ValueError):
            generate_layout(DUV_RULES, 3, 3, 1.5)

    def test_tiles_align_with_clip_grid(self):
        """Each extracted clip core contains exactly one motif tile."""
        layout = generate_layout(DUV_RULES, 3, 3, 0.0, seed=0)
        clips = extract_clip_grid(
            layout, DUV_RULES.clip_size, DUV_RULES.core_margin, drop_empty=False
        )
        assert len(clips) == 9

    def test_unstressed_layout_mostly_clean(self):
        """stress=0 produces (almost) no hotspots under simulation."""
        layout = generate_layout(DUV_RULES, 4, 4, 0.0, seed=5)
        clips = extract_clip_grid(
            layout, DUV_RULES.clip_size, DUV_RULES.core_margin, drop_empty=False
        )
        sim = LithoSimulator.for_tech(28, grid=96)
        hotspots = sum(sim.is_hotspot(c) for c in clips)
        assert hotspots == 0

    def test_stressed_layout_has_hotspots(self):
        layout = generate_layout(DUV_RULES, 5, 5, 1.0, seed=5)
        clips = extract_clip_grid(
            layout, DUV_RULES.clip_size, DUV_RULES.core_margin, drop_empty=False
        )
        sim = LithoSimulator.for_tech(28, grid=96)
        hotspots = sum(sim.is_hotspot(c) for c in clips)
        assert hotspots >= len(clips) // 4

    def test_motif_variety(self):
        """A moderately sized chip exercises every motif."""
        rng = np.random.default_rng(0)
        # generation draws motifs uniformly; 8 motifs x 49 tiles makes
        # missing one astronomically unlikely
        layout = generate_layout(EUV_RULES, 7, 7, 0.5, seed=9)
        assert len(layout.rects) > 49  # more than one rect per tile overall
        del rng

    def test_motif_functions_stay_in_region(self):
        from repro.data.synth import _MotifContext
        from repro.layout import Rect, bounding_box

        rng = np.random.default_rng(11)
        region = Rect(1000, 1000, 1600, 1600)
        for motif in MOTIFS:
            for stressed in (False, True):
                ctx = _MotifContext(rng, DUV_RULES, stressed)
                rects = motif(ctx, region)
                assert rects, motif.__name__
                box = bounding_box(rects)
                assert _inside(box, region.expanded(2)), motif.__name__
