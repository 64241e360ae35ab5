"""Rasterization of clip geometry to pixel grids.

The lithography simulator and the feature extractor both consume a binary
mask image of the clip window.  Rasterization uses area sampling on the
integer-nm grid: a pixel's value is the fraction of its area covered by
mask shapes, which keeps sub-pixel geometry (narrow necks, small gaps)
visible to the optics model instead of aliasing away.

:func:`rasterize_stack` rasterizes many clips in one vectorized pass; a
single clip is a stack of one.  A rect adds ``fy * fx`` to each pixel it
touches, where ``fx`` and ``fy`` are its column and row coverage
fractions, and overlapping rects add up before the image is clipped to
[0, 1].  Float addition is not associative, so a pixel's bits depend on
the order of its terms: the kernel lays every rect's terms out in rect
order and sums them with ``np.bincount``, whose float64 sums run
sequentially from 0.0, one term at a time.  Each pixel therefore gets the
sum a per-rect ``image[rows, cols] += fy[:, None] * fx`` loop would give,
bit for bit, and litho verdicts and DCT features do not depend on how
many clips share a pass.  Centre sampling (``antialias=False``, the DRC
screen's hard mask) only sets pixels to 1, so it keeps its per-rect loop.
"""

from __future__ import annotations

import numpy as np

from .geometry import Rect

__all__ = ["rasterize", "rasterize_stack"]

#: clips per pass of :func:`rasterize_stack`, so its per-pixel
#: temporaries stay bounded however many clips a stack holds.  Passes
#: of 16-32 clips ran fastest; one pass over 300 clips took twice as long
_PASS_CLIPS = 16


def rasterize(
    rects, window_size: tuple[int, int], grid: int, antialias: bool = True
) -> np.ndarray:
    """Rasterize clip-local ``rects`` into a ``(grid, grid)`` float image.

    Parameters
    ----------
    rects:
        Shapes already clipped and re-based to the window origin
        (see :meth:`repro.layout.Layout.query_clipped`).
    window_size:
        ``(width_nm, height_nm)`` of the clip window.
    grid:
        Output resolution in pixels per axis.
    antialias:
        When true, pixel values are exact coverage fractions; when false,
        a pixel is 1 if its centre is covered.

    Returns
    -------
    Image of shape ``(grid, grid)`` indexed ``[row, col]`` with row 0 at
    ``y = 0`` (layout coordinates; callers wanting screen orientation can
    flip).  Values lie in [0, 1].
    """
    if antialias:
        return rasterize_stack([rects], [window_size], grid)[0]
    _check_windows([window_size], grid)

    width_nm, height_nm = window_size
    image = np.zeros((grid, grid), dtype=np.float64)
    px_w = width_nm / grid
    px_h = height_nm / grid
    for rect in rects:
        _paint_centres(image, rect, px_w, px_h, grid)
    return image


def rasterize_stack(rect_lists, window_sizes, grid: int) -> np.ndarray:
    """Antialiased rasters of many clips, stacked into ``(N, grid, grid)``.

    ``rect_lists[i]`` holds clip ``i``'s clip-local rects and
    ``window_sizes[i]`` its own ``(width_nm, height_nm)``; each slice
    ``[i]`` equals ``rasterize(rect_lists[i], window_sizes[i], grid)``.
    """
    rect_lists, window_sizes = list(rect_lists), list(window_sizes)
    if len(rect_lists) != len(window_sizes):
        raise ValueError(
            f"{len(rect_lists)} rect lists but {len(window_sizes)} window sizes"
        )
    _check_windows(window_sizes, grid)
    sizes = np.array(window_sizes, dtype=np.float64).reshape(-1, 2)

    out = np.empty((len(rect_lists), grid, grid), dtype=np.float64)
    for start in range(0, len(rect_lists), _PASS_CLIPS):
        stop = start + _PASS_CLIPS
        coverage = _coverage(rect_lists[start:stop], sizes[start:stop], grid)
        np.clip(coverage.reshape(-1, grid, grid), 0.0, 1.0, out=out[start:stop])
    return out


def _check_windows(window_sizes, grid: int) -> None:
    for window_size in window_sizes:
        width_nm, height_nm = window_size
        if width_nm <= 0 or height_nm <= 0:
            raise ValueError(f"window must be positive, got {window_size}")
    if grid <= 0:
        raise ValueError(f"grid must be positive, got {grid}")


def _coverage(rect_lists, sizes: np.ndarray, grid: int) -> np.ndarray:
    """Unclipped coverage sums of a few clips, flat over (clip, row, col)."""
    counts = [len(rects) for rects in rect_lists]
    box = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for rects in rect_lists for r in rects],
        dtype=np.float64,
    ).reshape(-1, 4)
    clip = np.repeat(np.arange(len(rect_lists)), counts)
    pitch = sizes[clip] / grid  # (px_w, px_h) of each rect's clip
    # the pixels [lo, hi) each rect touches, per axis, inside the window
    lo = np.maximum(np.floor(box[:, :2] / pitch), 0.0)
    hi = np.minimum(np.ceil(box[:, 2:] / pitch), float(grid))
    keep = (lo < hi).all(axis=1)
    box, pitch, clip = box[keep], pitch[keep], clip[keep]
    lo = lo[keep].astype(np.int64)
    span = hi[keep].astype(np.int64) - lo

    _, fx = _fractions(lo[:, 0], span[:, 0], box[:, 0], box[:, 2], pitch[:, 0])
    rows, fy = _fractions(lo[:, 1], span[:, 1], box[:, 1], box[:, 3], pitch[:, 1])

    # one run of span_x pixels per (rect, row), rect by rect
    row_rect = np.repeat(np.arange(len(box)), span[:, 1])
    run = span[row_rect, 0]
    run_start = np.cumsum(run) - run
    col_start = np.cumsum(span[:, 0]) - span[:, 0]
    at = np.arange(run.sum())
    fx_at = at + np.repeat(col_start[row_rect] - run_start, run)
    row_pixel = (clip[row_rect] * grid + rows) * grid + lo[row_rect, 0]
    pixel = at + np.repeat(row_pixel - run_start, run)
    weight = np.repeat(fy, run) * fx[fx_at]
    return np.bincount(
        pixel, weights=weight, minlength=len(rect_lists) * grid * grid
    )


def _fractions(first, count, lo_nm, hi_nm, pitch):
    """``(index, fraction)`` of the ``count`` pixels from ``first`` that
    each rect's ``[lo_nm, hi_nm)`` touches along one axis, rect after
    rect: the float64 expressions of a per-rect loop, element by element."""
    run_start = np.cumsum(count) - count
    index = np.arange(count.sum()) + np.repeat(first - run_start, count)
    pitch = np.repeat(pitch, count)
    lo_px = np.maximum(index * pitch, np.repeat(lo_nm, count))
    hi_px = np.minimum((index + 1) * pitch, np.repeat(hi_nm, count))
    return index, np.minimum(np.maximum(hi_px - lo_px, 0.0), pitch) / pitch


def _paint_centres(
    image: np.ndarray, rect: Rect, px_w: float, px_h: float, grid: int
) -> None:
    """Set pixels whose centre lies inside the rect."""
    col0 = max(int(np.ceil(rect.x0 / px_w - 0.5)), 0)
    col1 = min(int(np.ceil(rect.x1 / px_w - 0.5)), grid)
    row0 = max(int(np.ceil(rect.y0 / px_h - 0.5)), 0)
    row1 = min(int(np.ceil(rect.y1 / px_h - 0.5)), grid)
    if col0 < col1 and row0 < row1:
        image[row0:row1, col0:col1] = 1.0
