"""Synthetic full-chip layout generation.

The ICCAD'12/'16 contest layouts are proprietary, so benchmarks are built
from synthetic chips: the die is tiled with routing *motifs* (parallel
lines, necked wires, tip-to-tip gaps, jogs, via arrays, combs) whose
dimensions are sampled around each technology's lithographic critical
dimensions.  A tunable ``stress`` probability controls how often a motif
receives near-critical dimensions; ground-truth hotspot labels then come
from the lithography simulator, so label structure is physically driven
rather than randomly assigned — the property that makes learned features
and active sampling behave as on real data (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.geometry import Rect
from ..layout.layout import Layout

__all__ = ["TechRules", "DUV_RULES", "EUV_RULES", "generate_layout"]


@dataclass(frozen=True)
class TechRules:
    """Dimension rules for one technology node.

    ``safe_*`` ranges produce robustly printable geometry; ``risky_*``
    ranges straddle the simulator's critical dimension, so roughly half
    of stressed motifs become true hotspots.
    """

    tech_nm: int
    clip_size: int            # clip window edge, nm
    core_margin: int          # excluded border of the core region, nm
    safe_width: tuple[int, int]
    safe_gap: tuple[int, int]
    risky_width: tuple[int, int]
    risky_gap: tuple[int, int]
    grid_snap: int = 1        # manufacturing grid for coordinates


# DUV 28 nm metal: simulator CD ~50 nm line / ~30 nm gap (see litho
# tests).  Risky ranges sit mostly *below* the CD so stressed motifs fail
# with high probability; the top of each risky range overlaps the safe
# side to leave a thin band of hard negatives (marginal-but-printable).
DUV_RULES = TechRules(
    tech_nm=28,
    clip_size=1200,
    core_margin=300,
    safe_width=(70, 140),
    safe_gap=(60, 150),
    risky_width=(32, 54),
    risky_gap=(16, 32),
    grid_snap=2,
)

# EUV 7 nm metal: simulator CD ~25 nm line / ~15 nm gap
EUV_RULES = TechRules(
    tech_nm=7,
    clip_size=640,
    core_margin=160,
    safe_width=(32, 64),
    safe_gap=(24, 60),
    risky_width=(14, 26),
    risky_gap=(7, 16),
    grid_snap=1,
)


def _snap(value: float, quantum: int) -> int:
    return int(round(value / quantum)) * quantum


def _sample(rng: np.random.Generator, lo_hi: tuple[int, int], snap: int) -> int:
    lo, hi = lo_hi
    return max(_snap(rng.uniform(lo, hi), snap), snap)


class _MotifContext:
    """Per-tile sampling context handed to motif functions."""

    def __init__(self, rng: np.random.Generator, rules: TechRules, stressed: bool):
        self.rng = rng
        self.rules = rules
        self.stressed = stressed

    def width(self) -> int:
        rules = self.rules
        rng_range = rules.risky_width if self.stressed else rules.safe_width
        return _sample(self.rng, rng_range, rules.grid_snap)

    def safe_width(self) -> int:
        return _sample(self.rng, self.rules.safe_width, self.rules.grid_snap)

    def gap(self) -> int:
        rules = self.rules
        rng_range = rules.risky_gap if self.stressed else rules.safe_gap
        return _sample(self.rng, rng_range, rules.grid_snap)

    def safe_gap(self) -> int:
        return _sample(self.rng, self.rules.safe_gap, self.rules.grid_snap)


# ----------------------------------------------------------------------
# motifs: each returns rects inside ``region`` (absolute coordinates)
# ----------------------------------------------------------------------

def _motif_parallel_lines(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """Horizontal routing tracks; stress narrows one line's width."""
    rects = []
    y = region.y0 + ctx.safe_gap()
    stress_line = ctx.rng.integers(0, 3)
    index = 0
    while True:
        width = ctx.width() if (ctx.stressed and index == stress_line) else ctx.safe_width()
        if y + width > region.y1:
            break
        rects.append(Rect(region.x0, y, region.x1, y + width))
        y += width + ctx.safe_gap()
        index += 1
    return rects


def _motif_necked_line(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """A wide wire with a short narrow neck near the tile centre."""
    body_w = ctx.safe_width()
    neck_w = ctx.width() if ctx.stressed else ctx.safe_width()
    cy = (region.y0 + region.y1) // 2
    neck_len = max((region.x1 - region.x0) // 8, 3 * ctx.rules.grid_snap)
    cx = (region.x0 + region.x1) // 2
    y0 = cy - body_w // 2
    rects = [
        Rect(region.x0, y0, cx - neck_len // 2, y0 + body_w),
        Rect(cx + neck_len // 2, y0, region.x1, y0 + body_w),
        Rect(
            cx - neck_len // 2,
            cy - neck_w // 2,
            cx + neck_len // 2,
            cy - neck_w // 2 + neck_w,
        ),
    ]
    return rects


def _motif_tip_to_tip(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """Two collinear wires with an end-to-end gap (bridge risk)."""
    width = ctx.safe_width()
    gap = ctx.gap() if ctx.stressed else ctx.safe_gap()
    cy = (region.y0 + region.y1) // 2
    cx = (region.x0 + region.x1) // 2
    y0 = cy - width // 2
    return [
        Rect(region.x0, y0, cx - gap // 2, y0 + width),
        Rect(cx - gap // 2 + gap, y0, region.x1, y0 + width),
    ]


def _motif_side_gap(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """Two long parallel wires running at a (possibly tight) spacing."""
    width = ctx.safe_width()
    gap = ctx.gap() if ctx.stressed else ctx.safe_gap()
    cy = (region.y0 + region.y1) // 2
    return [
        Rect(region.x0, cy - gap // 2 - width, region.x1, cy - gap // 2),
        Rect(region.x0, cy - gap // 2 + gap, region.x1,
             cy - gap // 2 + gap + width),
    ]


def _motif_jog(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """A Z-shaped jog; stress narrows the vertical connecting segment."""
    body_w = ctx.safe_width()
    conn_w = ctx.width() if ctx.stressed else ctx.safe_width()
    third_y = (region.y1 - region.y0) // 3
    cx = (region.x0 + region.x1) // 2
    low_y = region.y0 + third_y
    high_y = region.y0 + 2 * third_y
    return [
        Rect(region.x0, low_y, cx + conn_w, low_y + body_w),
        Rect(cx, low_y, cx + conn_w, high_y + body_w),
        Rect(cx, high_y, region.x1, high_y + body_w),
    ]


def _motif_via_array(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """Square contact/via array; stress shrinks the via size.

    Isolated 2-D features need ~1.6x the line CD to print (less aerial
    intensity than an infinite line at equal width), so via sizes are
    scaled up from the line-width rules accordingly.
    """
    snap = ctx.rules.grid_snap
    base = ctx.width() if ctx.stressed else ctx.safe_width()
    via = _snap(base * 1.6, snap)
    pitch = via + ctx.safe_gap()
    rects = []
    y = region.y0 + ctx.safe_gap()
    while y + via <= region.y1:
        x = region.x0 + ctx.safe_gap()
        while x + via <= region.x1:
            rects.append(Rect(x, y, x + via, y + via))
            x += pitch
        y += pitch
    return rects


def _motif_comb(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """A comb: spine plus fingers; stress tightens finger spacing."""
    width = ctx.safe_width()
    gap = ctx.gap() if ctx.stressed else ctx.safe_gap()
    rects = [Rect(region.x0, region.y0, region.x0 + width, region.y1)]
    y = region.y0 + gap
    while y + width <= region.y1:
        rects.append(Rect(region.x0 + width, y, region.x1, y + width))
        y += width + gap
    return rects


def _motif_empty(ctx: _MotifContext, region: Rect) -> list[Rect]:
    """Sparse tile with one isolated island (always printable)."""
    width = ctx.safe_width() * 2
    cx = (region.x0 + region.x1) // 2
    cy = (region.y0 + region.y1) // 2
    return [Rect(cx - width, cy - width // 2, cx + width, cy + width // 2)]


MOTIFS = (
    _motif_parallel_lines,
    _motif_necked_line,
    _motif_tip_to_tip,
    _motif_side_gap,
    _motif_jog,
    _motif_via_array,
    _motif_comb,
    _motif_empty,
)


class PatternLibrary:
    """A finite pool of concrete pattern instances.

    Real chips are assembled from standard cells, so the same local
    patterns recur thousands of times across a die — the property that
    makes exact pattern matching viable and lets a CNN generalize from a
    labeled subset.  The library pre-generates ``n_patterns`` motif
    instances (each with frozen dimensions, stressed or safe) in a
    canonical tile at the origin; placement then translates instances to
    tile positions.
    """

    #: fraction of patterns generated as the safe/risky twin of the
    #: previous pattern — real hotspots are near-misses of legal
    #: patterns, which is also what makes fuzzy pattern matching risky
    FAMILY_FRACTION = 0.5

    def __init__(
        self,
        rules: TechRules,
        n_patterns: int,
        stress_probability: float,
        tile_size: int,
        inset: int,
        rng: np.random.Generator,
    ) -> None:
        if n_patterns <= 0:
            raise ValueError(f"n_patterns must be positive, got {n_patterns}")
        self.rules = rules
        region = Rect(inset, inset, tile_size - inset, tile_size - inset)
        self.patterns: list[list[Rect]] = []
        self.stressed: list[bool] = []
        child_seeds = rng.integers(0, 2**31, size=n_patterns)
        for i in range(n_patterns):
            if (
                i % 2 == 1
                and rng.random() < self.FAMILY_FRACTION
                and i > 0
            ):
                # twin of the previous pattern: identical rng stream, so
                # every non-critical dimension matches; the stress flag
                # is redrawn, so safe/risky near-pairs appear at a rate
                # proportional to stress_probability
                seed = child_seeds[i - 1]
            else:
                seed = child_seeds[i]
            stressed = bool(rng.random() < stress_probability)
            child = np.random.default_rng(seed)
            motif = MOTIFS[child.integers(0, len(MOTIFS))]
            ctx = _MotifContext(child, rules, stressed)
            self.patterns.append(motif(ctx, region))
            self.stressed.append(stressed)

    def __len__(self) -> int:
        return len(self.patterns)

    def place(self, pattern_id: int, dx: int, dy: int) -> list[Rect]:
        """Instance ``pattern_id`` translated by ``(dx, dy)``."""
        return [r.shifted(dx, dy) for r in self.patterns[pattern_id]]


def _zipf_probabilities(n: int, exponent: float = 0.8) -> np.ndarray:
    """Zipf-like frequency skew: a few patterns dominate, as on chips."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _pattern_fails(library: PatternLibrary) -> np.ndarray:
    """Litho-simulate every library pattern in a canonical clip."""
    from ..layout.clip import Clip
    from ..litho.simulator import LithoSimulator

    rules = library.rules
    margin = rules.core_margin
    window = Rect(0, 0, rules.clip_size, rules.clip_size)
    core = window.expanded(-margin)
    simulator = LithoSimulator.for_tech(rules.tech_nm, grid=96)
    return np.array(
        [
            simulator.is_hotspot(
                Clip(window, core, rects=library.place(i, margin, margin), index=i)
            )
            for i in range(len(library))
        ]
    )


def _target_weights(
    base: np.ndarray, fails: np.ndarray, target_ratio: float
) -> np.ndarray:
    """Rescale pattern frequencies so failing patterns carry
    ``target_ratio`` of the total placement probability.

    The fail mass is spread *uniformly* over failing patterns (instead of
    keeping their Zipf ranks): each hotspot pattern stays individually
    rarer than the frequent clean patterns, preserving the real-chip
    property that hotspots are rare patterns — the assumption behind the
    GMM low-posterior seeding of Algorithm 2.
    """
    clean_mass = base[~fails].sum()
    weights = base.astype(np.float64).copy()
    if target_ratio <= 0 or not fails.any():
        if fails.any():
            weights[fails] = 0.0
        return weights / weights.sum()
    if not (~fails).any():
        return weights / weights.sum()
    weights[fails] = target_ratio / fails.sum()
    weights[~fails] *= (1.0 - target_ratio) / clean_mass
    return weights / weights.sum()


def generate_layout(
    rules: TechRules,
    tiles_x: int,
    tiles_y: int,
    stress_probability: float,
    seed: int = 0,
    name: str = "synthetic",
    n_patterns: int | None = None,
    jitter: int = 2,
    target_ratio: float | None = None,
) -> Layout:
    """Generate a full-chip layout of ``tiles_x x tiles_y`` pattern tiles.

    Each tile occupies one clip-core area and receives one instance from
    a finite :class:`PatternLibrary` (Zipf-distributed, so frequent
    patterns recur many times), optionally shifted by a few manufacturing
    grid steps of placement ``jitter``.  Geometry keeps an inset from
    tile borders so neighbouring tiles provide optical context without
    accidental cross-tile shorts.

    ``n_patterns`` defaults to roughly one distinct pattern per 12 tiles
    (minimum 24), mirroring the limited pattern vocabulary of real
    designs.

    When ``target_ratio`` is given, every library pattern is lithography-
    simulated once and the placement frequencies are rescaled so failing
    patterns occupy ``target_ratio`` of the tiles in expectation — the
    knob the benchmark builders use to match Table I hotspot ratios.
    """
    if tiles_x <= 0 or tiles_y <= 0:
        raise ValueError("tile counts must be positive")
    if not 0.0 <= stress_probability <= 1.0:
        raise ValueError(
            f"stress_probability must be in [0, 1], got {stress_probability}"
        )
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    if target_ratio is not None and not 0.0 <= target_ratio < 1.0:
        raise ValueError(f"target_ratio must be in [0, 1), got {target_ratio}")

    rng = np.random.default_rng(seed)
    core = rules.clip_size - 2 * rules.core_margin
    margin = rules.core_margin
    inset = max(rules.safe_gap[0] // 2, rules.grid_snap) + jitter * rules.grid_snap
    n_tiles = tiles_x * tiles_y
    if n_patterns is None:
        n_patterns = max(24, n_tiles // 12)

    library = PatternLibrary(
        rules, n_patterns, stress_probability, core, inset, rng
    )
    frequencies = _zipf_probabilities(len(library))
    if target_ratio is not None:
        frequencies = _target_weights(
            frequencies, _pattern_fails(library), target_ratio
        )
    assignments = rng.choice(len(library), size=n_tiles, p=frequencies)

    rects: list[Rect] = []
    snap = rules.grid_snap
    for tile, pattern_id in enumerate(assignments):
        tx, ty = tile % tiles_x, tile // tiles_x
        dx = margin + tx * core + int(rng.integers(-jitter, jitter + 1)) * snap
        dy = margin + ty * core + int(rng.integers(-jitter, jitter + 1)) * snap
        rects.extend(library.place(int(pattern_id), dx, dy))

    die = Rect(0, 0, 2 * margin + tiles_x * core, 2 * margin + tiles_y * core)
    return Layout(rects, die=die, tech_nm=rules.tech_nm, name=name)
