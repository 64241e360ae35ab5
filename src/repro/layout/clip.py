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

import numpy as np

from .geometry import Rect
from .layout import Layout
from .raster import rasterize

__all__ = ["Clip", "content_keys", "extract_clip", "extract_clip_grid"]


@dataclass
class Clip:
    """A layout window plus its clip-local geometry.

    Attributes
    ----------
    window:
        Absolute window rect on the chip.
    core:
        Absolute core-region rect (centered inside ``window``).
    rects:
        Geometry clipped and re-based to the window origin.
    layout_name:
        Name of the source layout.
    index:
        Position of the clip in its extraction order (stable identifier).
    """

    window: Rect
    core: Rect
    rects: list[Rect] = field(default_factory=list)
    layout_name: str = ""
    index: int = -1

    @property
    def size(self) -> tuple[int, int]:
        return (self.window.width, self.window.height)

    def core_local(self) -> Rect:
        """Core region re-based to the window origin."""
        return self.core.shifted(-self.window.x0, -self.window.y0)

    def raster(self, grid: int, antialias: bool = True) -> np.ndarray:
        """Rasterize the clip geometry to a ``(grid, grid)`` image."""
        return rasterize(self.rects, self.size, grid, antialias=antialias)

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
        parts = sorted((r.x0, r.y0, r.x1, r.y1) for r in self.rects)
        payload = f"{width}x{height}|{core.as_tuple()}|{parts!r}"
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def core_geometry_hash(self, quantum: int = 1) -> str:
        """Hash of the geometry clipped to the core region.

        Pattern libraries match on the core pattern (the part whose
        printability the clip owns); margin context is excluded.
        """
        core = self.core_local()
        clipped = []
        for rect in self.rects:
            part = rect.intersection(core)
            if part is not None:
                clipped.append(part)
        parts = sorted(
            (r.x0 // quantum, r.y0 // quantum, r.x1 // quantum, r.y1 // quantum)
            for r in clipped
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]

    def geometry_hash(self, quantum: int = 1) -> str:
        """Deterministic hash of the clip geometry.

        ``quantum`` snaps coordinates to a grid before hashing so that
        patterns identical up to sub-quantum jitter hash equally — the
        basis of exact pattern matching.
        """
        parts = sorted(
            (
                r.x0 // quantum,
                r.y0 // quantum,
                r.x1 // quantum,
                r.y1 // quantum,
            )
            for r in self.rects
        )
        digest = hashlib.sha256(repr(parts).encode()).hexdigest()
        return digest[:16]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Clip(#{self.index} window={self.window.as_tuple()} "
            f"{len(self.rects)} rects)"
        )


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


def extract_clip(
    layout: Layout, window: Rect, core_margin: int, index: int = -1
) -> Clip:
    """Cut one clip from ``layout``.

    ``core_margin`` is the border width excluded from the core region on
    each side (ICCAD'12 uses clips of 1200 nm with a 600 nm core, i.e. a
    300 nm margin).
    """
    if 2 * core_margin >= min(window.width, window.height):
        raise ValueError(
            f"core margin {core_margin} leaves no core in window "
            f"{window.width}x{window.height}"
        )
    core = window.expanded(-core_margin)
    return Clip(
        window=window,
        core=core,
        rects=layout.query_clipped(window),
        layout_name=layout.name,
        index=index,
    )


def extract_clip_grid(
    layout: Layout,
    clip_size: int,
    core_margin: int,
    step: int | None = None,
    drop_empty: bool = True,
) -> list[Clip]:
    """Tile the die with clips of ``clip_size`` at ``step`` pitch.

    ``step`` defaults to the core width so that cores tile the die without
    gaps or double coverage, the standard full-chip scan pattern.
    """
    if step is None:
        step = clip_size - 2 * core_margin
    if step <= 0:
        raise ValueError("step must be positive")

    die = layout.die
    clips: list[Clip] = []
    index = 0
    y = die.y0
    while y + clip_size <= die.y1:
        x = die.x0
        while x + clip_size <= die.x1:
            window = Rect(x, y, x + clip_size, y + clip_size)
            clip = extract_clip(layout, window, core_margin, index=index)
            if clip.rects or not drop_empty:
                clip.index = index
                clips.append(clip)
                index += 1
            x += step
        y += step
    return clips
