"""Printability checking: EPE, pinch and bridge defect detection.

Given the intended pattern (the rasterized mask target) and the printed
image from the resist model, this module finds manufacturing defects in a
clip's core region:

* **pinch** — a target feature thins away or breaks: printed resist is
  missing well inside a target shape;
* **bridge** — two separate features merge: resist prints well outside any
  target shape;
* **EPE violation** — the printed contour lands farther than a tolerance
  from the target edge.

A clip is a hotspot when any defect occurs inside its core region at any
process corner (Definition 1 of the paper).

The EPE region needs no distance field: a target-edge pixel is farther
than ``tol`` from every printed-edge pixel exactly when it lies outside
the printed edge dilated by the integer disk ``sqrt(dy*dy + dx*dx) <=
tol`` (:func:`_dilate`).  The field (:func:`edge_placement_error`) is
computed only for the severity of a component large enough to report.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["Defect", "find_defects", "edge_placement_error"]

#: 4-connectivity for ``ndimage.label`` (scipy's default), built once:
#: scipy rebuilds its default structure at every call that names none
_CROSS = ndimage.generate_binary_structure(2, 1)
_CROSS.flags.writeable = False


@dataclass(frozen=True)
class Defect:
    """A single printability violation.

    ``kind`` is ``"pinch"``, ``"bridge"`` or ``"epe"``; ``row``/``col`` are
    the pixel coordinates of the defect's rounded centre of mass in the
    clip raster.  ``severity`` is, for an EPE defect, the largest edge
    placement error over its pixels (in pixels, above the tolerance);
    for a pinch or bridge, its area in pixels.
    """

    kind: str
    row: int
    col: int
    severity: float


def _check_settings(tol: float, margin: int) -> None:
    """Reject settings that would silently break the verdict."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"epe_tolerance_px must be finite and >= 0, got {tol}")
    if margin < 0:
        raise ValueError(f"morph_margin_px must be >= 0, got {margin}")


def _dilate(
    mask: np.ndarray, half_widths: tuple[int, ...], outside: bool = False
) -> np.ndarray:
    """OR of ``mask`` shifted by every ``(dy, dx)`` of a footprint that is
    symmetric about its centre: row ``dy = i - len(half_widths) // 2``
    spans ``|dx| <= half_widths[i]``.  Pixels beyond the border read as
    ``outside``, so ``~_dilate(~mask, ..., outside=True)`` is the erosion
    that ``scipy.ndimage.binary_erosion`` computes."""
    r, c = len(half_widths) // 2, max(half_widths)
    h, w = mask.shape
    padded = np.full((h + 2 * r, w + 2 * c), outside)
    padded[r : r + h, c : c + w] = mask
    out = np.zeros(mask.shape, dtype=bool)
    band = padded[:, c : c + w].copy()  # padded, dilated by k along x
    for k in range(c + 1):
        if k:
            band |= padded[:, c - k : c - k + w]
            band |= padded[:, c + k : c + k + w]
        for i, width in enumerate(half_widths):
            if width == k:
                out |= band[i : i + h]
    return out


@functools.lru_cache(maxsize=64)
def _disk(tol: float, limit: int) -> tuple[int, ...]:
    """:func:`_dilate` half-widths of the integer offsets within ``tol``,
    by the distance transform's own test ``sqrt(float(dy*dy + dx*dx))``.
    Offsets beyond ``limit`` join no two pixels of the image."""
    r = min(int(tol), limit)
    d = np.arange(-r, r + 1)
    inside = np.sqrt((d[:, None] ** 2 + d**2).astype(np.float64)) <= tol
    return tuple(int(n) // 2 for n in inside.sum(axis=1))


def edge_placement_error(
    target: np.ndarray, printed: np.ndarray
) -> np.ndarray:
    """Per-pixel edge placement error field in pixels.

    For every pixel on the target contour, the distance to the nearest
    printed contour pixel.  Returns an array of shape ``target.shape``
    that is 0 away from target edges.
    """
    return _epe_field(_edge(target.astype(bool)), _edge(printed.astype(bool)))


def _edge(mask: np.ndarray) -> np.ndarray:
    """Contour pixels of a binary mask: the mask minus its cross erosion."""
    return mask & _dilate(~mask, (0, 1, 0), outside=True)


def _epe_field(target_edge: np.ndarray, printed_edge: np.ndarray) -> np.ndarray:
    """:func:`edge_placement_error` given both contours."""
    field = np.zeros(target_edge.shape, dtype=np.float64)
    if not target_edge.any():
        return field
    if not printed_edge.any():
        # nothing printed at all: every target edge is maximally misplaced
        field[target_edge] = float(max(target_edge.shape))
        return field
    distance = ndimage.distance_transform_edt(~printed_edge)
    field[target_edge] = distance[target_edge]
    return field


def find_defects(
    target: np.ndarray,
    printed: np.ndarray,
    core: tuple[int, int, int, int],
    epe_tolerance_px: float = 2.0,
    morph_margin_px: int = 2,
    min_defect_px: int = 2,
) -> list[Defect]:
    """Locate pinch/bridge/EPE defects inside the core region.

    Parameters
    ----------
    target, printed:
        Binary images of intended and printed patterns (same shape).
    core:
        ``(row0, col0, row1, col1)`` half-open pixel bounds of the core.
    epe_tolerance_px:
        Maximum allowed contour displacement.
    morph_margin_px:
        Erosion/dilation margin defining "well inside"/"well outside";
        shields ordinary corner rounding from being flagged.
    min_defect_px:
        Connected components smaller than this are ignored (noise guard).
    """
    if target.shape != printed.shape:
        raise ValueError(
            f"shape mismatch: target {target.shape} vs printed {printed.shape}"
        )
    _check_settings(epe_tolerance_px, morph_margin_px)
    return _TargetChecks(target, core, morph_margin_px).defects(
        printed, epe_tolerance_px, min_defect_px
    )


class _TargetChecks:
    """The printed-independent half of :func:`find_defects` for one
    target: its morphology, contour and core mask, computed once and
    then checked against any number of printed images (one per process
    corner)."""

    def __init__(
        self,
        target: np.ndarray,
        core: tuple[int, int, int, int],
        morph_margin_px: int,
    ) -> None:
        row0, col0, row1, col1 = core
        if not (0 <= row0 < row1 <= target.shape[0]) or not (
            0 <= col0 < col1 <= target.shape[1]
        ):
            raise ValueError(f"core {core} outside image {target.shape}")
        target = target.astype(bool)
        self.core_mask = np.zeros(target.shape, dtype=bool)
        self.core_mask[row0:row1, col0:col1] = True
        square = (morph_margin_px,) * (2 * morph_margin_px + 1)
        # pinch: target interior (eroded by the margin) that failed to print
        self.pinch_zone = ~_dilate(~target, square, outside=True) & self.core_mask
        # bridge: printed resist well outside any target shape
        self.bridge_zone = ~_dilate(target, square) & self.core_mask
        self.edge = _edge(target)

    def defects(
        self,
        printed: np.ndarray,
        epe_tolerance_px: float,
        min_defect_px: int,
    ) -> list[Defect]:
        """Defects of one printed image (see :func:`find_defects`)."""
        printed = printed.astype(bool)
        defects = _component_defects(
            self.pinch_zone & ~printed, "pinch", min_defect_px
        )
        defects += _component_defects(
            printed & self.bridge_zone, "bridge", min_defect_px
        )
        # EPE: contour displacement beyond tolerance
        printed_edge = _edge(printed)
        if printed_edge.any():
            disk = _disk(epe_tolerance_px, max(printed.shape) - 1)
            far = ~_dilate(printed_edge, disk)
        else:
            # nothing printed at all: every target edge is max(shape) off
            far = max(printed.shape) > epe_tolerance_px
        epe_region = self.edge & far & self.core_mask
        defects += _component_defects(
            epe_region, "epe", min_defect_px,
            lambda: _epe_field(self.edge, printed_edge),
        )
        return defects


def _component_defects(
    region: np.ndarray,
    kind: str,
    min_defect_px: int,
    epe_field: Callable[[], np.ndarray] | None = None,
) -> list[Defect]:
    """One defect per connected component of ``region`` of at least
    ``min_defect_px`` pixels, at its rounded centre of mass.  The severity
    is the component's area, or its largest value of the field that
    ``epe_field()`` returns, called only when a component is kept."""
    if not region.any():
        return []
    labels, count = ndimage.label(region, _CROSS)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    keep = np.flatnonzero(sizes[1:] >= min_defect_px) + 1
    if keep.size == 0:
        return []
    centers = ndimage.center_of_mass(region, labels, keep)
    if epe_field is None:
        severities = sizes[keep]
    else:
        severities = ndimage.maximum(epe_field(), labels, keep)
    return [
        Defect(kind, int(round(row)), int(round(col)), float(severity))
        for severity, (row, col) in zip(severities, centers)
    ]
