"""Tests for geometry primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import Rect, bounding_box, boxes_of
from tests.layout.oracles import total_area

coords = st.integers(0, 1000)


@st.composite
def rects(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(1, 200))
    h = draw(st.integers(1, 200))
    return Rect(x0, y0, x0 + w, y0 + h)


class TestRect:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Rect(0, 0, 10, 0)
        with pytest.raises(ValueError):
            Rect(5, 5, 4, 10)

    def test_basic_properties(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3
        assert r.height == 6
        assert r.area == 18
        assert r.center == (2.5, 5.0)

    def test_touching_edges_do_not_intersect(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(10, 0, 20, 10)
        assert not a.intersects(b)

    def test_shifted_and_expanded(self):
        r = Rect(0, 0, 10, 10)
        assert r.shifted(5, -5) == Rect(5, -5, 15, 5)
        assert r.expanded(2) == Rect(-2, -2, 12, 12)
        assert r.expanded(-3) == Rect(3, 3, 7, 7)


class TestBoxesOf:
    def test_rows_in_given_order(self):
        boxes = boxes_of([Rect(5, 6, 7, 8), Rect(1, 2, 3, 4)])
        assert boxes.dtype == np.int64
        assert boxes.tolist() == [[5, 6, 7, 8], [1, 2, 3, 4]]

    def test_empty_has_four_columns(self):
        assert boxes_of([]).shape == (0, 4)


class TestBoundingBox:
    def test_single(self):
        r = Rect(1, 2, 3, 4)
        assert bounding_box([r]) == r

    def test_multiple(self):
        box = bounding_box([Rect(0, 0, 5, 5), Rect(10, -2, 12, 3)])
        assert box == Rect(0, -2, 12, 5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])


class TestTotalArea:
    def test_empty(self):
        assert total_area([]) == 0

    def test_disjoint_sums(self):
        assert total_area([Rect(0, 0, 2, 2), Rect(10, 10, 12, 12)]) == 8

    def test_full_overlap_counts_once(self):
        r = Rect(0, 0, 10, 10)
        assert total_area([r, r, r]) == 100

    def test_partial_overlap(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 0, 15, 10)
        assert total_area([a, b]) == 150

    def test_cross_shape(self):
        horizontal = Rect(0, 4, 12, 8)
        vertical = Rect(4, 0, 8, 12)
        assert total_area([horizontal, vertical]) == 12 * 4 * 2 - 16


@settings(max_examples=60, deadline=None)
@given(st.lists(rects(), min_size=1, max_size=6))
def test_total_area_bounds(rect_list):
    """Property: union area is bounded by max single area and sum of areas."""
    union = total_area(rect_list)
    assert max(r.area for r in rect_list) <= union <= sum(r.area for r in rect_list)
    box = bounding_box(rect_list)
    assert union <= box.area
