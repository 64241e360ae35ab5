"""Tests for SVG visualization output."""

import numpy as np
import pytest

from repro.layout import Clip, Layout, Rect, boxes_of
from repro.viz import (
    render_clip_svg,
    render_detection_svg,
    render_layout_svg,
)


@pytest.fixture
def layout():
    return Layout(
        [Rect(10, 10, 200, 60), Rect(300, 100, 360, 400)],
        die=Rect(0, 0, 500, 500),
        name="viz",
    )


class TestSvg:
    def test_layout_svg_contains_geometry(self, layout, tmp_path):
        path = tmp_path / "layout.svg"
        text = render_layout_svg(layout, path)
        assert path.exists()
        assert text.startswith("<svg")
        assert text.endswith("</svg>")
        assert text.count("<rect") == 2
        assert 'viewBox="0 0 500 500"' in text

    def test_clip_svg_shows_core(self, tmp_path):
        window = Rect(0, 0, 100, 100)
        clip = Clip(window, window.expanded(-20),
                    boxes=boxes_of([Rect(10, 40, 90, 60)]))
        text = render_clip_svg(clip, tmp_path / "clip.svg")
        assert "stroke-dasharray" in text  # the core outline style
        assert text.count("<rect") == 2

    def test_detection_svg_marks_hotspots(self, tmp_path):
        window = Rect(0, 0, 100, 100)
        clips = [
            Clip(window.shifted(100 * i, 0),
                 window.shifted(100 * i, 0).expanded(-20), index=i)
            for i in range(4)
        ]
        from repro.data import ClipDataset

        labels = np.array([0, 1, 0, 1])
        ds = ClipDataset("v", 7, clips, labels,
                         np.zeros((4, 1, 2, 2)), np.zeros((4, 3)))
        text = render_detection_svg(ds, sampled_indices=[0, 1],
                                    path=tmp_path / "det.svg")
        assert text.count("<line") == 4  # two X marks
        assert text.count("fill:#f3d27a") == 2  # two sampled shadings

    def test_detection_rejects_empty(self, tmp_path):
        from repro.data import ClipDataset

        ds = ClipDataset("e", 7, [], np.zeros(0, dtype=int),
                         np.zeros((0, 1, 2, 2)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            render_detection_svg(ds, [], tmp_path / "x.svg")
