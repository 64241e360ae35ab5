"""Rectilinear geometry primitives.

Layout coordinates are integer nanometres, matching GDS conventions: a
:class:`Rect` is a half-open box ``[x0, x1) x [y0, y1)`` so that abutting
rectangles tile without double-counting area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Rect", "bounding_box", "boxes_of"]


@dataclass(frozen=True, order=True)
class Rect:
    """Axis-aligned rectangle with integer nm coordinates, half-open."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate rect {self!r}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def shifted(self, dx: int, dy: int) -> "Rect":
        """A copy translated by (dx, dy)."""
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def intersects(self, other: "Rect") -> bool:
        """True when the interiors overlap (touching edges do not count)."""
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def expanded(self, margin: int) -> "Rect":
        """Grow (or shrink, for negative margin) by ``margin`` on all sides."""
        return Rect(
            self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


def bounding_box(rects) -> Rect:
    """Smallest rect covering all ``rects``; raises on an empty input."""
    rects = list(rects)
    if not rects:
        raise ValueError("bounding_box of empty collection")
    return Rect(
        min(r.x0 for r in rects),
        min(r.y0 for r in rects),
        max(r.x1 for r in rects),
        max(r.y1 for r in rects),
    )


def boxes_of(rects) -> np.ndarray:
    """``rects`` as an ``(n, 4)`` int64 array of ``[x0, y0, x1, y1]``
    rows, in the order given: the form clip geometry is stored in."""
    return np.array(
        [r.as_tuple() for r in rects], dtype=np.int64
    ).reshape(-1, 4)
