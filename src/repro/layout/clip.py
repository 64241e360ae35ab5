"""Clips: fixed-size windows cut from a full-chip layout.

A clip is the unit the whole pipeline operates on — it is rasterized for
lithography simulation, featurized for the CNN, and labeled hotspot /
non-hotspot according to defects inside its *core region* (the centre
portion; context geometry in the margin influences printing but defects
there belong to neighbouring clips).  This mirrors the ICCAD contest
clip/core convention used by Definitions 1–2 of the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import Rect
from .layout import Layout
from .raster import rasterize

__all__ = ["Clip", "content_keys", "cut_lattice", "extract_clip",
           "extract_clip_grid", "stack_boxes"]

#: windows :func:`extract_clip_grid` cuts per pass (whole lattice rows,
#: at least one), so a pass's temporaries stay bounded by a few rows
_BLOCK_WINDOWS = 1024


@dataclass(eq=False)
class Clip:
    """A layout window plus its clip-local geometry.

    Attributes
    ----------
    window:
        Absolute window rect on the chip.
    core:
        Absolute core-region rect (centered inside ``window``).
    boxes:
        Geometry clipped and re-based to the window origin, an
        ``(n, 4)`` int64 array of ``[x0, y0, x1, y1]`` rows in ascending
        layout order (anything that converts to one is accepted).
    layout_name:
        Name of the source layout.
    index:
        Position of the clip in its extraction order (stable identifier).
    """

    window: Rect
    core: Rect
    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    layout_name: str = ""
    index: int = -1

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=np.int64).reshape(-1, 4)

    @property
    def size(self) -> tuple[int, int]:
        return (self.window.width, self.window.height)

    def core_local(self) -> Rect:
        """Core region re-based to the window origin."""
        return self.core.shifted(-self.window.x0, -self.window.y0)

    def raster(self, grid: int, antialias: bool = True) -> np.ndarray:
        """Rasterize the clip geometry to a ``(grid, grid)`` image."""
        return rasterize(self.boxes, self.size, grid, antialias=antialias)

    def content_key(self) -> str:
        """Full-precision content address of this clip's geometry.

        Hashes the window dimensions and every rect at exact coordinates
        (no quantization, no truncation below 128 bits), so two ``Clip``
        instances that would rasterize identically — regardless of
        ``index``, absolute placement, or extraction order — share the
        key.  This is the identity used by content-addressed feature and
        litho-label caches.
        """
        width, height = self.size
        core = self.core_local()
        payload = f"{width}x{height}|{core.as_tuple()}|{_sorted(self.boxes)!r}"
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def core_geometry_hash(self, quantum: int = 1) -> str:
        """Hash of the geometry clipped to the core region.

        Pattern libraries match on the core pattern (the part whose
        printability the clip owns); margin context is excluded.
        """
        core = self.core_local()
        part = np.clip(self.boxes, [core.x0, core.y0] * 2, [core.x1, core.y1] * 2)
        inside = (part[:, :2] < part[:, 2:]).all(axis=1)
        parts = _sorted(part[inside] // quantum)
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]

    def geometry_hash(self, quantum: int = 1) -> str:
        """Deterministic hash of the clip geometry.

        ``quantum`` snaps coordinates to a grid before hashing so that
        patterns identical up to sub-quantum jitter hash equally — the
        basis of exact pattern matching.
        """
        parts = _sorted(self.boxes // quantum)
        digest = hashlib.sha256(repr(parts).encode()).hexdigest()
        return digest[:16]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Clip(#{self.index} window={self.window.as_tuple()} "
            f"{len(self.boxes)} rects)"
        )


def _sorted(boxes: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of ``boxes`` as int tuples in ascending order: the list
    whose ``repr`` the content key and geometry hashes digest."""
    return sorted(map(tuple, boxes.tolist()))


def stack_boxes(clips) -> tuple[np.ndarray, np.ndarray]:
    """``(boxes, counts)``: the clips' boxes concatenated in clip order,
    and the number of rows each clip owns."""
    parts = [np.zeros((0, 4), dtype=np.int64)] + [c.boxes for c in clips]
    counts = np.array([len(part) for part in parts[1:]], dtype=np.int64)
    return np.concatenate(parts), counts


def content_keys(clips, keys=None) -> list[str]:
    """Every clip's :meth:`Clip.content_key`, or ``keys`` (a caller's
    precomputed ones) checked against the clip count."""
    if keys is None:
        return [clip.content_key() for clip in clips]
    if len(keys) != len(clips):
        raise ValueError(
            f"got {len(keys)} content keys for {len(clips)} clips"
        )
    return list(keys)


def _check_margin(core_margin: int, width: int, height: int) -> None:
    if 2 * core_margin >= min(width, height):
        raise ValueError(
            f"core margin {core_margin} leaves no core in window "
            f"{width}x{height}"
        )


def extract_clip(
    layout: Layout, window: Rect, core_margin: int, index: int = -1
) -> Clip:
    """Cut one clip from ``layout``.

    ``core_margin`` is the border width excluded from the core region on
    each side (ICCAD'12 uses clips of 1200 nm with a 600 nm core, i.e. a
    300 nm margin).
    """
    _check_margin(core_margin, window.width, window.height)
    return next(cut_lattice(
        layout, window, core_margin, 1, 1, 1, index0=index, drop_empty=False
    ))


def cut_lattice(
    layout: Layout, window: Rect, core_margin: int, step: int, rows: int,
    cols: int, index0: int = 0, stride: int | None = None,
    drop_empty: bool = True,
) -> Iterator[Clip]:
    """The clips of a ``rows x cols`` block of windows, row-major, cut
    in one :meth:`~repro.layout.layout.Layout.cut` pass.

    The block's windows are ``window`` shifted by ``(col * step, row *
    step)``; the clip at ``(row, col)`` gets index ``index0 + row *
    stride + col`` (``stride`` defaults to ``cols``).  ``drop_empty``
    skips windows with no geometry.
    """
    stride = cols if stride is None else stride
    counts, boxes = layout.cut(window, step, rows, cols)
    start = 0
    for position, end in enumerate(np.cumsum(counts).tolist()):
        if end > start or not drop_empty:
            row, col = divmod(position, cols)
            x, y = window.x0 + col * step, window.y0 + row * step
            at = Rect(x, y, x + window.width, y + window.height)
            yield Clip(at, at.expanded(-core_margin), boxes[start:end],
                       layout.name, index0 + row * stride + col)
        start = end


def extract_clip_grid(
    layout: Layout,
    clip_size: int,
    core_margin: int,
    step: int | None = None,
    drop_empty: bool = True,
) -> list[Clip]:
    """Tile the die with clips of ``clip_size`` at ``step`` pitch.

    ``step`` defaults to the core width so that cores tile the die without
    gaps or double coverage, the standard full-chip scan pattern.  The
    windows are cut in blocks of whole lattice rows, at most
    ``_BLOCK_WINDOWS`` windows or one row per block.  With
    ``drop_empty`` (the default) windows with no geometry are skipped
    and the kept clips are numbered ``0, 1, ...``; otherwise a clip's
    index is its lattice position ``row * n_cols + col``.
    """
    if step is None:
        step = clip_size - 2 * core_margin
    if step <= 0:
        raise ValueError("step must be positive")

    die = layout.die
    n_cols = max((die.x1 - die.x0 - clip_size) // step + 1, 0)
    n_rows = max((die.y1 - die.y0 - clip_size) // step + 1, 0)
    if n_rows and n_cols:
        _check_margin(core_margin, clip_size, clip_size)
    block = max(_BLOCK_WINDOWS // max(n_cols, 1), 1)
    clips: list[Clip] = []
    for row in range(0, n_rows, block):
        y = die.y0 + row * step
        clips.extend(cut_lattice(
            layout, Rect(die.x0, y, die.x0 + clip_size, y + clip_size),
            core_margin, step, min(block, n_rows - row), n_cols,
            index0=row * n_cols, drop_empty=drop_empty,
        ))
    if drop_empty:
        for index, clip in enumerate(clips):
            clip.index = index
    return clips
