"""Tests for pure helper functions of the figure generators."""

import numpy as np

from repro.bench.figures import _ascii_scatter, _layout_map
from repro.data import ClipDataset
from repro.layout import Clip, Rect


class TestAsciiScatter:
    def test_dimensions(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(30, 2))
        highlight = np.zeros(30, dtype=bool)
        highlight[:3] = True
        text = _ascii_scatter(coords, highlight, width=40, height=10)
        lines = text.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_marks_present(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        text = _ascii_scatter(coords, [True, False], width=10, height=5)
        assert "O" in text
        assert "." in text

    def test_highlight_wins_cell(self):
        coords = np.array([[0.5, 0.5], [0.5, 0.5]])
        text = _ascii_scatter(coords, [False, True], width=8, height=4)
        assert "O" in text
        assert "." not in text


class TestLayoutMap:
    def _dataset(self):
        window = Rect(0, 0, 100, 100)
        clips = []
        for j in range(2):
            for i in range(3):
                w = window.shifted(100 * i, 100 * j)
                clips.append(Clip(w, w.expanded(-20),
                                  index=j * 3 + i))
        labels = np.array([0, 1, 0, 0, 0, 1])
        return ClipDataset("m", 7, clips, labels,
                           np.zeros((6, 1, 2, 2)), np.zeros((6, 3)))

    def test_grid_shape(self):
        text = _layout_map(self._dataset(), sampled=set())
        lines = text.splitlines()
        assert len(lines) == 2
        assert all(len(line) == 3 for line in lines)

    def test_symbols(self):
        ds = self._dataset()
        text = _layout_map(ds, sampled={0, 1})
        # clip 0: clean sampled '#'; clip 1: hotspot sampled 'H';
        # clip 5: hotspot unsampled 'x'
        assert "#" in text
        assert "H" in text
        assert "x" in text
        assert "." in text

    def test_row_orientation(self):
        """Low-y clips render at the bottom (EDA orientation)."""
        ds = self._dataset()
        text = _layout_map(ds, sampled=set())
        lines = text.splitlines()
        # clip 1 (hotspot) is at y=0 -> bottom line
        assert "x" in lines[-1]
