"""Tests for rectilinear polygons."""

import pytest

from repro.layout import Rect, RectilinearPolygon, total_area


class TestRectilinearPolygon:
    def test_rectangle_decomposes_to_itself(self):
        poly = RectilinearPolygon.from_rect(Rect(2, 3, 10, 8))
        rects = poly.to_rects()
        assert rects == [Rect(2, 3, 10, 8)]
        assert poly.area == 40

    def test_l_shape(self):
        # L-shape: 10x10 square missing its top-right 5x5 quadrant
        poly = RectilinearPolygon(
            ((0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10))
        )
        rects = poly.to_rects()
        assert poly.area == 75
        assert total_area(rects) == 75
        box = poly.bbox
        assert box == Rect(0, 0, 10, 10)

    def test_u_shape(self):
        # U-shape: 12-wide, 10-tall with a 4-wide notch from the top
        poly = RectilinearPolygon(
            ((0, 0), (12, 0), (12, 10), (8, 10), (8, 4), (4, 4), (4, 10),
             (0, 10))
        )
        assert poly.area == 12 * 10 - 4 * 6

    def test_decomposition_is_disjoint(self):
        poly = RectilinearPolygon(
            ((0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10))
        )
        rects = poly.to_rects()
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.intersects(b)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError, match="4 vertices"):
            RectilinearPolygon(((0, 0), (1, 0), (1, 1)))

    def test_rejects_diagonal_edge(self):
        with pytest.raises(ValueError, match="axis-parallel"):
            RectilinearPolygon(((0, 0), (5, 5), (5, 10), (0, 10)))

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            RectilinearPolygon(
                ((0, 0), (5, 0), (10, 0), (10, 10), (5, 10), (0, 10))
            )

    def test_rejects_odd_vertex_count(self):
        with pytest.raises(ValueError, match="even"):
            RectilinearPolygon(
                ((0, 0), (10, 0), (10, 5), (5, 5), (5, 10))
            )
