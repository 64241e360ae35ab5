"""Rasterization of clip geometry to pixel grids.

The lithography simulator and the feature extractor both consume a binary
mask image of the clip window.  Rasterization uses area sampling on the
integer-nm grid: a pixel's value is the fraction of its area covered by
mask shapes, which keeps sub-pixel geometry (narrow necks, small gaps)
visible to the optics model instead of aliasing away.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Rect

__all__ = ["rasterize", "rasterize_binary"]


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
    width_nm, height_nm = window_size
    if width_nm <= 0 or height_nm <= 0:
        raise ValueError(f"window must be positive, got {window_size}")
    if grid <= 0:
        raise ValueError(f"grid must be positive, got {grid}")

    image = np.zeros((grid, grid), dtype=np.float64)
    px_w = width_nm / grid
    px_h = height_nm / grid

    for rect in rects:
        if antialias:
            _paint_coverage(image, rect, px_w, px_h, grid)
        else:
            _paint_centres(image, rect, px_w, px_h, grid)
    return np.clip(image, 0.0, 1.0)


def _paint_coverage(
    image: np.ndarray, rect: Rect, px_w: float, px_h: float, grid: int
) -> None:
    """Accumulate exact per-pixel coverage of one rect."""
    col0 = max(math.floor(rect.x0 / px_w), 0)
    col1 = min(math.ceil(rect.x1 / px_w), grid)
    row0 = max(math.floor(rect.y0 / px_h), 0)
    row1 = min(math.ceil(rect.y1 / px_h), grid)
    if col0 >= col1 or row0 >= row1:
        return

    cols = np.arange(col0, col1)
    rows = np.arange(row0, row1)
    # horizontal overlap of each pixel column with the rect
    x_lo = np.maximum(cols * px_w, rect.x0)
    x_hi = np.minimum((cols + 1) * px_w, rect.x1)
    frac_x = np.minimum(np.maximum(x_hi - x_lo, 0.0), px_w) / px_w
    y_lo = np.maximum(rows * px_h, rect.y0)
    y_hi = np.minimum((rows + 1) * px_h, rect.y1)
    frac_y = np.minimum(np.maximum(y_hi - y_lo, 0.0), px_h) / px_h

    image[row0:row1, col0:col1] += frac_y[:, None] * frac_x


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


def rasterize_binary(rects, window_size: tuple[int, int], grid: int) -> np.ndarray:
    """Convenience wrapper returning a hard 0/1 mask (centre sampling)."""
    return rasterize(rects, window_size, grid, antialias=False)
