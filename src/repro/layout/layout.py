"""Full-chip layout container with a uniform-grid spatial index.

A :class:`Layout` stores one layer of rectilinear mask shapes over a die
region.  Clip extraction — the operation active learning performs tens of
thousands of times — is served from a bucket grid, so window queries touch
only nearby shapes instead of scanning the whole chip.  The grid is a
pair of arrays built once and never written again, so threads may cut
windows from one layout at the same time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import Rect, bounding_box, boxes_of

__all__ = ["Layout"]


class Layout:
    """One routing/metal layer of a chip design.

    Parameters
    ----------
    rects:
        Mask shapes in integer nm coordinates.
    die:
        Die region; defaults to the bounding box of ``rects``.
    tech_nm:
        Technology node label (28 for ICCAD'12-style, 7 for ICCAD'16-style).
    name:
        Free-form identifier carried through to benchmarks and reports.
    """

    def __init__(
        self,
        rects: Sequence[Rect],
        die: Rect | None = None,
        tech_nm: int = 28,
        name: str = "layout",
        bucket_nm: int | None = None,
    ) -> None:
        self.rects: list[Rect] = list(rects)
        if die is None:
            if not self.rects:
                raise ValueError("empty layout requires an explicit die region")
            die = bounding_box(self.rects)
        self.die = die
        self.tech_nm = tech_nm
        self.name = name

        # Bucket size: a handful of typical pitches; default scales with die.
        if bucket_nm is None:
            bucket_nm = max(64, min(die.width, die.height) // 64 or 64)
        self._bucket_nm = bucket_nm
        self._boxes = boxes_of(self.rects)
        # every (bucket, shape) membership, sorted by bucket key, then by
        # shape; a bucket column (fixed x) is a run of consecutive keys
        first = self._boxes[:, :2] // bucket_nm
        last = (self._boxes[:, 2:] - 1) // bucket_nm
        self._origin = first.min(axis=0, initial=0)
        self._n_buckets = last.max(axis=0, initial=0) - self._origin + 1
        span = last - first + 1
        owner, k = _expand(span[:, 0] * span[:, 1])
        bx = first[owner, 0] + k // span[owner, 1] - self._origin[0]
        by = first[owner, 1] + k % span[owner, 1] - self._origin[1]
        key = bx * self._n_buckets[1] + by
        order = np.argsort(key, kind="stable")
        self._bucket_keys, self._bucket_shapes = key[order], owner[order]

    def __len__(self) -> int:
        return len(self.rects)

    def _candidates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending indices of the shapes sharing a bucket with the
        region ``[lo, hi)`` (a superset of the shapes that overlap it)."""
        b = self._bucket_nm
        first = np.maximum(lo // b - self._origin, 0)
        last = np.minimum((hi - 1) // b - self._origin, self._n_buckets - 1)
        if (first > last).any():
            return np.zeros(0, dtype=np.int64)
        column = np.arange(first[0], last[0] + 1) * self._n_buckets[1]
        start = np.searchsorted(self._bucket_keys, column + first[1], "left")
        stop = np.searchsorted(self._bucket_keys, column + last[1], "right")
        run, k = _expand(stop - start)
        return np.unique(self._bucket_shapes[start[run] + k])

    def query(self, window: Rect) -> list[Rect]:
        """All shapes whose interior overlaps ``window``."""
        lo, hi = np.array(window.as_tuple()).reshape(2, 2)
        hits = self._candidates(lo, hi)
        box = self._boxes[hits]
        overlap = ((box[:, :2] < hi) & (lo < box[:, 2:])).all(axis=1)
        return [self.rects[i] for i in hits[overlap].tolist()]

    def cut(
        self, window: Rect, step: int = 1, rows: int = 1, cols: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cut the ``rows x cols`` lattice of windows ``window`` shifted
        by ``(col * step, row * step)`` in one pass: ``(counts, boxes)``,
        window ``i`` (row-major) owning the next ``counts[i]`` int64
        ``[x0, y0, x1, y1]`` rows, its shapes clipped and re-based to its
        origin in the order :meth:`query` returns them."""
        size = np.array([window.width, window.height])
        origin = np.array([window.x0, window.y0])
        reach = origin + np.array([cols - 1, rows - 1]) * step + size
        shapes = self._boxes[self._candidates(origin, reach)]
        # the lattice columns (rows) whose windows overlap each shape:
        # origin + c * step < x1 and x0 < origin + c * step + width
        first = np.maximum((shapes[:, :2] - origin - size) // step + 1, 0)
        last = np.minimum(
            (shapes[:, 2:] - origin - 1) // step, np.array([cols, rows]) - 1
        )
        span = np.maximum(last - first + 1, 0)
        owner, k = _expand(span[:, 0] * span[:, 1])
        col = first[owner, 0] + k % span[owner, 0]
        row = first[owner, 1] + k // span[owner, 0]
        where = row * cols + col
        # a stable sort keeps each window's shapes in layout order
        order = np.argsort(where, kind="stable")
        corner = np.tile(origin + np.stack([col, row], axis=1)[order] * step, 2)
        boxes = np.clip(shapes[owner[order]], corner, corner + np.tile(size, 2))
        return np.bincount(where, minlength=rows * cols), boxes - corner

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Layout({self.name!r}, {len(self.rects)} rects, "
            f"die={self.die.as_tuple()}, tech={self.tech_nm}nm)"
        )


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, k)``: each position ``i`` repeated ``counts[i]`` times,
    and each repeat's rank ``0 .. counts[i] - 1``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
