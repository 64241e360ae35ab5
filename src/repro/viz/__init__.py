"""Dependency-free SVG rendering of layouts, clips and detections."""

from .svg import render_clip_svg, render_detection_svg, render_layout_svg

__all__ = [
    "render_layout_svg",
    "render_clip_svg",
    "render_detection_svg",
]
