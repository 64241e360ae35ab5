"""Printability checking: EPE, pinch and bridge defect detection.

Given the intended pattern (the rasterized mask target) and the printed
image from the resist model, this module finds manufacturing defects in a
clip's core region:

* **pinch** — a target feature thins away or breaks: printed resist is
  missing well inside a target shape;
* **bridge** — two separate features merge: resist prints well outside any
  target shape;
* **EPE violation** — the printed contour lands farther than a tolerance
  from the target edge (computed with distance transforms).

A clip is a hotspot when any defect occurs inside its core region at any
process corner (Definition 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["Defect", "find_defects", "edge_placement_error"]


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


def _interior(mask: np.ndarray, margin_px: int) -> np.ndarray:
    """Erode ``mask`` by ``margin_px`` (8-connected square element)."""
    if margin_px <= 0:
        return mask
    structure = np.ones((2 * margin_px + 1, 2 * margin_px + 1), dtype=bool)
    return ndimage.binary_erosion(mask, structure=structure)


def _exterior(mask: np.ndarray, margin_px: int) -> np.ndarray:
    """Dilate ``mask`` by ``margin_px``."""
    if margin_px <= 0:
        return mask
    structure = np.ones((2 * margin_px + 1, 2 * margin_px + 1), dtype=bool)
    return ndimage.binary_dilation(mask, structure=structure)


def edge_placement_error(
    target: np.ndarray, printed: np.ndarray
) -> np.ndarray:
    """Per-pixel edge placement error field in pixels.

    For every pixel on the target contour, the distance to the nearest
    printed contour pixel.  Returns an array of shape ``target.shape``
    that is 0 away from target edges.
    """
    return _epe_field(_edge(target.astype(bool)), printed.astype(bool))


def _edge(mask: np.ndarray) -> np.ndarray:
    """Contour pixels of a binary mask (the mask minus its erosion)."""
    return mask ^ ndimage.binary_erosion(mask)


def _epe_field(target_edge: np.ndarray, printed: np.ndarray) -> np.ndarray:
    """:func:`edge_placement_error` given the target contour."""
    field = np.zeros(target_edge.shape, dtype=np.float64)
    if not target_edge.any():
        return field
    printed_edge = _edge(printed)
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
        # pinch: target interior that failed to print
        self.pinch_zone = _interior(target, morph_margin_px) & self.core_mask
        # bridge: printed resist well outside any target shape
        self.bridge_zone = ~_exterior(target, morph_margin_px) & self.core_mask
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
        epe_field = _epe_field(self.edge, printed)
        epe_region = (epe_field > epe_tolerance_px) & self.core_mask
        defects += _component_defects(
            epe_region, "epe", min_defect_px, epe_field
        )
        return defects


def _component_defects(
    region: np.ndarray,
    kind: str,
    min_defect_px: int,
    epe_field: np.ndarray | None = None,
) -> list[Defect]:
    """One defect per connected component of ``region`` of at least
    ``min_defect_px`` pixels, at its rounded centre of mass.  The severity
    is the component's area, or its largest ``epe_field`` value when one
    is given."""
    if not region.any():
        return []
    labels, count = ndimage.label(region)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    keep = np.flatnonzero(sizes[1:] >= min_defect_px) + 1
    if keep.size == 0:
        return []
    centers = ndimage.center_of_mass(region, labels, keep)
    if epe_field is None:
        severities = sizes[keep]
    else:
        severities = ndimage.maximum(epe_field, labels, keep)
    return [
        Defect(kind, int(round(row)), int(round(col)), float(severity))
        for severity, (row, col) in zip(severities, centers)
    ]
