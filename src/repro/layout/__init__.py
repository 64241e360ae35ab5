"""Layout substrate (S2): rectilinear geometry, full-chip container,
clip extraction, rasterization and GLP text I/O."""

from .clip import Clip, extract_clip, extract_clip_grid, stack_boxes
from .gds import load_gds, save_gds
from .geometry import Rect, bounding_box, boxes_of
from .glp import load_layout, save_layout
from .layout import Layout
from .polygon import RectilinearPolygon
from .raster import rasterize, rasterize_stack
from .tiles import Tile, TileGrid

__all__ = [
    "Rect",
    "bounding_box",
    "boxes_of",
    "RectilinearPolygon",
    "Layout",
    "Clip",
    "extract_clip",
    "extract_clip_grid",
    "stack_boxes",
    "Tile",
    "TileGrid",
    "rasterize",
    "rasterize_stack",
    "save_layout",
    "load_layout",
    "save_gds",
    "load_gds",
]
