"""Tests for the Layout container, clips, raster and GLP I/O."""

import numpy as np
import pytest

from repro.layout import (
    Clip,
    Layout,
    Rect,
    boxes_of,
    extract_clip,
    extract_clip_grid,
    load_layout,
    rasterize,
    rasterize_stack,
    save_layout,
)
from tests.layout.oracles import total_area


def _clipped(layout, window):
    """One window's cut as ``Rect`` objects, in the order it returns."""
    _, boxes = layout.cut(window)
    return [Rect(*box) for box in boxes.tolist()]


def _density(layout, window):
    """Fraction of ``window`` the cut geometry covers (overlap-safe)."""
    return total_area(_clipped(layout, window)) / window.area


@pytest.fixture
def simple_layout():
    rects = [
        Rect(100, 100, 300, 200),
        Rect(500, 500, 700, 550),
        Rect(150, 150, 250, 400),
    ]
    return Layout(rects, die=Rect(0, 0, 1000, 1000), tech_nm=28, name="t")


class TestLayoutQuery:
    def test_query_finds_overlapping(self, simple_layout):
        hits = simple_layout.query(Rect(0, 0, 400, 400))
        assert len(hits) == 2

    def test_query_empty_region(self, simple_layout):
        assert simple_layout.query(Rect(800, 800, 900, 900)) == []

    def test_query_matches_brute_force(self):
        rng = np.random.default_rng(0)
        rects = []
        for _ in range(200):
            x0 = int(rng.integers(0, 5000))
            y0 = int(rng.integers(0, 5000))
            rects.append(Rect(x0, y0, x0 + int(rng.integers(10, 400)),
                              y0 + int(rng.integers(10, 400))))
        layout = Layout(rects, die=Rect(0, 0, 6000, 6000))
        for _ in range(20):
            x0 = int(rng.integers(0, 4000))
            y0 = int(rng.integers(0, 4000))
            window = Rect(x0, y0, x0 + 800, y0 + 800)
            expected = sorted(r for r in rects if r.intersects(window))
            assert sorted(layout.query(window)) == expected

    def test_cut_rebases(self, simple_layout):
        clipped = _clipped(simple_layout, Rect(100, 100, 400, 400))
        assert clipped == [Rect(0, 0, 200, 100), Rect(50, 50, 150, 300)]

    def test_density(self):
        layout = Layout([Rect(0, 0, 50, 100)], die=Rect(0, 0, 100, 100))
        assert _density(layout, Rect(0, 0, 100, 100)) == pytest.approx(0.5)

    def test_empty_layout_requires_die(self):
        with pytest.raises(ValueError):
            Layout([])
        layout = Layout([], die=Rect(0, 0, 10, 10))
        assert len(layout) == 0


class TestBucketBoundaries:
    """Windows that straddle bucket-grid cells must behave exactly like
    brute force — the bucket index is an accelerator, not a filter."""

    def bucketed_layout(self, rects, die, bucket_nm=100):
        return Layout(rects, die=die, bucket_nm=bucket_nm)

    def test_window_straddling_bucket_edge(self):
        # bucket_nm=100: the rect lives entirely in bucket (0, 0), the
        # window spans buckets (0..1, 0..1)
        layout = self.bucketed_layout(
            [Rect(10, 10, 90, 90)], Rect(0, 0, 400, 400)
        )
        window = Rect(50, 50, 150, 150)
        assert layout.query(window) == [Rect(10, 10, 90, 90)]
        clipped = _clipped(layout, window)
        assert clipped == [Rect(0, 0, 40, 40)]

    def test_rect_exactly_on_bucket_boundary(self):
        # a rect ending at x=100 (the bucket edge) must not leak into
        # bucket 1, and one starting at 100 must not appear in bucket 0
        layout = self.bucketed_layout(
            [Rect(0, 0, 100, 100), Rect(100, 0, 200, 100)],
            Rect(0, 0, 400, 400),
        )
        left = _clipped(layout, Rect(0, 0, 100, 100))
        assert left == [Rect(0, 0, 100, 100)]
        right = _clipped(layout, Rect(100, 0, 200, 100))
        assert right == [Rect(0, 0, 100, 100)]

    def test_touching_window_edge_is_not_overlap(self):
        # half-open rects: sharing an edge with the window is no overlap
        layout = self.bucketed_layout(
            [Rect(100, 100, 200, 200)], Rect(0, 0, 400, 400)
        )
        assert _clipped(layout, Rect(0, 0, 100, 100)) == []
        assert _clipped(layout, Rect(200, 200, 300, 300)) == []
        assert _density(layout, Rect(0, 0, 100, 100)) == 0.0

    def test_straddling_matches_brute_force(self):
        rng = np.random.default_rng(3)
        rects = []
        for _ in range(300):
            x0 = int(rng.integers(0, 2000))
            y0 = int(rng.integers(0, 2000))
            rects.append(Rect(x0, y0, x0 + int(rng.integers(5, 250)),
                              y0 + int(rng.integers(5, 250))))
        layout = self.bucketed_layout(rects, Rect(0, 0, 2500, 2500),
                                      bucket_nm=128)
        # windows deliberately aligned to and offset from the 128-nm
        # bucket pitch, including one-past-boundary positions
        for x0 in (0, 127, 128, 129, 255, 256, 1000):
            window = Rect(x0, x0, x0 + 300, x0 + 300)
            expected = [
                Rect(max(r.x0, window.x0), max(r.y0, window.y0),
                     min(r.x1, window.x1), min(r.y1, window.y1),
                     ).shifted(-window.x0, -window.y0)
                for r in rects if r.intersects(window)
            ]
            assert _clipped(layout, window) == expected

    def test_window_outside_die_is_empty(self):
        layout = self.bucketed_layout(
            [Rect(10, 10, 90, 90)], Rect(0, 0, 400, 400)
        )
        assert _clipped(layout, Rect(1000, 1000, 1200, 1200)) == []
        assert _density(layout, Rect(1000, 1000, 1200, 1200)) == 0.0

    def test_density_of_straddling_window(self):
        # one rect half inside the window, crossing a bucket edge
        layout = self.bucketed_layout(
            [Rect(50, 0, 150, 100)], Rect(0, 0, 400, 400)
        )
        assert _density(layout, Rect(0, 0, 100, 100)) == pytest.approx(0.5)
        assert _density(layout, Rect(100, 0, 200, 100)) == pytest.approx(0.5)

    def test_density_overlap_counted_once(self):
        layout = self.bucketed_layout(
            [Rect(0, 0, 100, 100), Rect(0, 0, 100, 100)],
            Rect(0, 0, 200, 200),
        )
        assert _density(layout, Rect(0, 0, 200, 200)) == pytest.approx(0.25)

    def test_zero_area_window_rejected(self):
        # degenerate windows cannot be constructed at all (half-open
        # Rects require positive extent), so density can never divide
        # by a zero window area
        with pytest.raises(ValueError):
            Rect(50, 50, 50, 150)
        with pytest.raises(ValueError):
            Rect(50, 50, 150, 50)


class TestClipExtraction:
    def test_extract_clip_core_centered(self, simple_layout):
        clip = extract_clip(simple_layout, Rect(0, 0, 600, 600), core_margin=150)
        assert clip.core == Rect(150, 150, 450, 450)
        assert clip.core_local() == Rect(150, 150, 450, 450)

    def test_extract_clip_rejects_huge_margin(self, simple_layout):
        with pytest.raises(ValueError, match="margin"):
            extract_clip(simple_layout, Rect(0, 0, 600, 600), core_margin=300)

    def test_grid_covers_die(self, simple_layout):
        clips = extract_clip_grid(
            simple_layout, clip_size=500, core_margin=100, drop_empty=False
        )
        # die 1000 wide, step 300: windows at 0 and 300 fit fully per axis?
        # x + 500 <= 1000 for x in {0, 300, 450(no)} -> x in {0, 300}
        assert len(clips) == 4
        assert all(c.window.width == 500 for c in clips)

    def test_grid_drop_empty(self, simple_layout):
        kept = extract_clip_grid(simple_layout, clip_size=500, core_margin=100)
        assert all(len(c.boxes) for c in kept)

    def test_clip_indices_sequential(self, simple_layout):
        clips = extract_clip_grid(simple_layout, clip_size=500, core_margin=100)
        assert [c.index for c in clips] == list(range(len(clips)))


class TestGeometryHash:
    def test_identical_patterns_hash_equal(self):
        rects = [Rect(10, 10, 50, 90), Rect(60, 10, 90, 90)]
        a = Clip(Rect(0, 0, 100, 100), Rect(20, 20, 80, 80), boxes=boxes_of(rects))
        b = Clip(Rect(500, 500, 600, 600), Rect(520, 520, 580, 580),
                 boxes=boxes_of(rects))
        assert a.geometry_hash() == b.geometry_hash()

    def test_different_patterns_hash_differently(self):
        a = Clip(Rect(0, 0, 100, 100), Rect(20, 20, 80, 80),
                 boxes=boxes_of([Rect(10, 10, 50, 90)]))
        b = Clip(Rect(0, 0, 100, 100), Rect(20, 20, 80, 80),
                 boxes=boxes_of([Rect(10, 10, 51, 90)]))
        assert a.geometry_hash() != b.geometry_hash()

    def test_quantum_absorbs_jitter(self):
        a = Clip(Rect(0, 0, 100, 100), Rect(20, 20, 80, 80),
                 boxes=boxes_of([Rect(10, 10, 50, 90)]))
        b = Clip(Rect(0, 0, 100, 100), Rect(20, 20, 80, 80),
                 boxes=boxes_of([Rect(11, 10, 51, 90)]))
        assert a.geometry_hash(quantum=8) == b.geometry_hash(quantum=8)
        assert a.geometry_hash(quantum=1) != b.geometry_hash(quantum=1)


class TestRasterize:
    def test_full_cover(self):
        image = rasterize(boxes_of([Rect(0, 0, 100, 100)]), (100, 100), 10)
        np.testing.assert_allclose(image, 1.0)

    def test_half_cover_exact(self):
        image = rasterize(boxes_of([Rect(0, 0, 50, 100)]), (100, 100), 10)
        np.testing.assert_allclose(image[:, :5], 1.0)
        np.testing.assert_allclose(image[:, 5:], 0.0)

    def test_subpixel_coverage_fraction(self):
        # one rect covering a quarter of the single pixel
        image = rasterize(boxes_of([Rect(0, 0, 5, 5)]), (10, 10), 1)
        np.testing.assert_allclose(image, 0.25)

    def test_total_flux_matches_area(self):
        """Antialiased raster conserves area for non-overlapping rects."""
        rects = [Rect(3, 3, 47, 17), Rect(60, 50, 95, 95)]
        image = rasterize(boxes_of(rects), (100, 100), 20)
        pixel_area = (100 / 20) ** 2
        assert image.sum() * pixel_area == pytest.approx(
            sum(r.area for r in rects)
        )

    def test_binary_mode(self):
        image = rasterize(boxes_of([Rect(0, 0, 50, 100)]), (100, 100), 10, antialias=False)
        assert set(np.unique(image)) <= {0.0, 1.0}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rasterize(boxes_of([]), (0, 100), 10)
        with pytest.raises(ValueError):
            rasterize(boxes_of([]), (100, 100), 0)

    def test_stack_rejects_bad_args(self):
        none, one = boxes_of([]), boxes_of([Rect(0, 0, 5, 5)])
        with pytest.raises(ValueError, match="1 box counts but 2"):
            rasterize_stack(none, [0], [(100, 100), (100, 100)], 10)
        with pytest.raises(ValueError, match="counts sum to 0 for 1 boxes"):
            rasterize_stack(one, [0], [(100, 100)], 10)
        with pytest.raises(ValueError, match="window must be positive"):
            rasterize_stack(none, [0, 0], [(100, 100), (100, 0)], 10)
        with pytest.raises(ValueError, match="grid must be positive"):
            rasterize_stack(none, [], [], 0)

    def test_empty_stack(self):
        stack = rasterize_stack(boxes_of([]), [], [], 12)
        assert stack.shape == (0, 12, 12) and stack.dtype == np.float64

    def test_orientation_row_is_y(self):
        """A rect at low y paints low rows."""
        image = rasterize(boxes_of([Rect(0, 0, 100, 10)]), (100, 100), 10)
        assert image[0].sum() > 0
        assert image[-1].sum() == 0


class TestGlpIO:
    def test_roundtrip(self, tmp_path, simple_layout):
        path = tmp_path / "chip.glp"
        save_layout(simple_layout, path)
        loaded = load_layout(path)
        assert loaded.name == simple_layout.name
        assert loaded.tech_nm == simple_layout.tech_nm
        assert loaded.die == simple_layout.die
        assert sorted(loaded.rects) == sorted(simple_layout.rects)

    def test_rejects_missing_magic(self, tmp_path):
        path = tmp_path / "bad.glp"
        path.write_text("RECT 0 0 1 1\n")
        with pytest.raises(ValueError, match="not a GLP"):
            load_layout(path)

    def test_rejects_missing_end(self, tmp_path):
        path = tmp_path / "bad.glp"
        path.write_text("GLP 1\nDIE 0 0 10 10\n")
        with pytest.raises(ValueError, match="missing END"):
            load_layout(path)

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.glp"
        path.write_text("GLP 1\nWIBBLE 1 2\nEND\n")
        with pytest.raises(ValueError, match="WIBBLE"):
            load_layout(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.glp"
        path.write_text("GLP 1\nRECT 0 0 x 1\nEND\n")
        with pytest.raises(ValueError, match=":2:"):
            load_layout(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.glp"
        path.write_text(
            "GLP 1\n# a comment\n\nDIE 0 0 10 10\nRECT 1 1 5 5\nEND\n"
        )
        layout = load_layout(path)
        assert len(layout) == 1
