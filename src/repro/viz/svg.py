"""SVG rendering of layouts, clips and detection results.

Dependency-free visualization: hand-written SVG markup for geometry and
overlays (hotspot marks, sampled-clip shading) mirroring the paper's
Fig. 5.  Output opens in any browser.
"""

from __future__ import annotations

from pathlib import Path

from ..layout.clip import Clip
from ..layout.geometry import Rect
from ..layout.layout import Layout

__all__ = ["render_layout_svg", "render_clip_svg", "render_detection_svg"]

_STYLE = {
    "metal": "fill:#4a78b8;stroke:#1d3c63;stroke-width:1",
    "core": "fill:none;stroke:#c0392b;stroke-width:2;stroke-dasharray:8,4",
    "hotspot": "fill:none;stroke:#c0392b;stroke-width:3",
    "sampled": "fill:#f3d27a;fill-opacity:0.45;stroke:none",
    "window": "fill:none;stroke:#888;stroke-width:0.5",
}


def _svg_header(view: Rect, width_px: int) -> str:
    aspect = view.height / view.width
    height_px = max(int(width_px * aspect), 1)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="{view.x0} {view.y0} {view.width} {view.height}" '
        # flip y so layout coordinates read bottom-up as in EDA tools
        f'transform="scale(1,-1)">'
    )


def _rect_tag(box, style: str) -> str:
    x0, y0, x1, y1 = box
    return (
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" '
        f'height="{y1 - y0}" style="{style}"/>'
    )


def render_layout_svg(
    layout: Layout, path, width_px: int = 800, view: Rect | None = None
) -> str:
    """Render a layout's geometry; returns (and writes) the SVG text."""
    view = view if view is not None else layout.die
    parts = [_svg_header(view, width_px)]
    parts.extend(
        _rect_tag(rect.as_tuple(), _STYLE["metal"])
        for rect in layout.query(view)
    )
    parts.append("</svg>")
    text = "\n".join(parts)
    Path(path).write_text(text)
    return text


def render_clip_svg(clip: Clip, path, width_px: int = 400) -> str:
    """Render one clip with its core-region outline."""
    width, height = clip.size
    view = Rect(0, 0, width, height)
    parts = [_svg_header(view, width_px)]
    parts.extend(
        _rect_tag(box, _STYLE["metal"]) for box in clip.boxes.tolist()
    )
    parts.append(_rect_tag(clip.core_local().as_tuple(), _STYLE["core"]))
    parts.append("</svg>")
    text = "\n".join(parts)
    Path(path).write_text(text)
    return text


def render_detection_svg(
    dataset,
    sampled_indices,
    path,
    width_px: int = 800,
) -> str:
    """Fig. 5-style overview: clip windows, sampled shading, hotspots.

    ``dataset`` is a :class:`~repro.data.dataset.ClipDataset`;
    ``sampled_indices`` the litho-labeled clip indices of one method.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    sampled = set(int(i) for i in sampled_indices)
    windows = [clip.window for clip in dataset.clips]
    view = Rect(
        min(w.x0 for w in windows),
        min(w.y0 for w in windows),
        max(w.x1 for w in windows),
        max(w.y1 for w in windows),
    )
    parts = [_svg_header(view, width_px)]
    for i, clip in enumerate(dataset.clips):
        window = clip.window
        if i in sampled:
            parts.append(_rect_tag(window.as_tuple(), _STYLE["sampled"]))
        parts.append(_rect_tag(window.as_tuple(), _STYLE["window"]))
        if dataset.labels[i] == 1:
            cx, cy = window.center
            r = window.width // 6
            parts.append(
                f'<line x1="{cx - r}" y1="{cy - r}" x2="{cx + r}" '
                f'y2="{cy + r}" style="{_STYLE["hotspot"]}"/>'
                f'<line x1="{cx - r}" y1="{cy + r}" x2="{cx + r}" '
                f'y2="{cy - r}" style="{_STYLE["hotspot"]}"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts)
    Path(path).write_text(text)
    return text
