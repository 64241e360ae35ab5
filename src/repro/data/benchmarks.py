"""ICCAD'12/'16-style benchmark construction (Table I of the paper).

Each spec reproduces one contest case's *statistics* — total clip count,
hotspot ratio, technology node — on synthetic layouts labeled by the
lithography simulator.  The ``scale`` knob shrinks clip counts
proportionally so experiments fit a CPU budget; ratios between methods
are preserved (DESIGN.md, substitutions table).

Because full-benchmark simulation is the dominant build cost, built
datasets are cached on disk (``REPRO_CACHE_DIR`` or ``.cache/`` in the
working tree) keyed by spec, scale and seed.  The cache stores float64
features, so a reloaded dataset is bit-identical to a fresh build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dataplane import BatchFeatureExtractor, DataPlaneConfig
from ..features.pipeline import FeatureExtractor
from ..layout.clip import Clip, extract_clip_grid
from ..layout.geometry import Rect
from ..litho.labeler import LithoLabeler
from ..litho.simulator import LithoSimulator
from .dataset import ClipDataset
from .synth import DUV_RULES, EUV_RULES, TechRules, generate_layout

__all__ = ["BenchmarkSpec", "BENCHMARKS", "build_benchmark", "benchmark_names"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Statistics of one contest case to reproduce."""

    name: str
    rules: TechRules
    paper_hotspots: int
    paper_nonhotspots: int
    stress_probability: float

    @property
    def paper_total(self) -> int:
        return self.paper_hotspots + self.paper_nonhotspots

    @property
    def paper_ratio(self) -> float:
        return self.paper_hotspots / self.paper_total

    def tiles_for_scale(self, scale: float) -> tuple[int, int]:
        """Square tile grid approximating ``paper_total * scale`` clips."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        target = max(self.paper_total * scale, 16.0)
        side = max(int(round(np.sqrt(target))), 4)
        return side, side


# ``stress_probability`` controls how many *library patterns* are drawn
# with near-critical dimensions (hotspot-type diversity); the realized
# clip-level hotspot ratio is pinned to Table I by the generator's
# ``target_ratio`` reweighting (see repro.data.synth.generate_layout).
BENCHMARKS: dict[str, BenchmarkSpec] = {
    "iccad12": BenchmarkSpec("iccad12", DUV_RULES, 3728, 159672, 0.30),
    "iccad16-1": BenchmarkSpec("iccad16-1", EUV_RULES, 0, 63, 0.0),
    "iccad16-2": BenchmarkSpec("iccad16-2", EUV_RULES, 56, 967, 0.30),
    "iccad16-3": BenchmarkSpec("iccad16-3", EUV_RULES, 1100, 3916, 0.40),
    "iccad16-4": BenchmarkSpec("iccad16-4", EUV_RULES, 157, 1678, 0.30),
}


def benchmark_names() -> list[str]:
    return list(BENCHMARKS)


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path.cwd() / ".cache" / "repro-datasets"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cache_key(name: str, scale: float, seed: int, grid: int) -> str:
    # the "_f64" suffix keeps the lossy float32 files of older builds
    # from ever being read
    return f"{name}_s{scale:g}_r{seed}_g{grid}_f64.npz"


def build_benchmark(
    name: str,
    scale: float = 0.02,
    seed: int = 0,
    grid: int = 96,
    use_cache: bool = True,
    dataplane: DataPlaneConfig | None = None,
) -> ClipDataset:
    """Build (or load from cache) one benchmark case.

    Parameters
    ----------
    name:
        One of :func:`benchmark_names`.
    scale:
        Fraction of the paper's clip count to generate (1.0 = full size;
        the default 0.02 keeps CPU experiments tractable).
    seed:
        Generator seed; different seeds give statistically equivalent but
        disjoint chips.
    grid:
        Raster/feature resolution (pixels per clip).
    dataplane:
        Chunking/pooling/feature-cache configuration of the build
        (fresh builds only; cached loads never extract).
    """
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {benchmark_names()}")
    spec = BENCHMARKS[name]

    cache_file = _cache_dir() / _cache_key(name, scale, seed, grid)
    if use_cache and cache_file.exists():
        return _load_cached(cache_file, spec)

    dataset = _build_fresh(spec, scale, seed, grid, dataplane)
    if use_cache:
        _save_cache(cache_file, dataset)
    return dataset


def _build_fresh(
    spec: BenchmarkSpec,
    scale: float,
    seed: int,
    grid: int,
    dataplane: DataPlaneConfig | None = None,
) -> ClipDataset:
    rules = spec.rules
    tiles_x, tiles_y = spec.tiles_for_scale(scale)
    layout = generate_layout(
        rules,
        tiles_x,
        tiles_y,
        stress_probability=spec.stress_probability,
        seed=seed,
        name=spec.name,
        target_ratio=spec.paper_ratio,
    )
    clips = extract_clip_grid(
        layout, rules.clip_size, rules.core_margin, drop_empty=False
    )
    plane_cfg = dataplane if dataplane is not None else DataPlaneConfig()

    # ground-truth labeling through the content-addressed batch labeler:
    # recurring library patterns simulate once, not once per placement
    labeler = LithoLabeler(LithoSimulator.for_tech(rules.tech_nm, grid=grid))
    labels = np.array(
        labeler.label_batch(
            clips,
            chunk_size=plane_cfg.chunk_size,
            workers=plane_cfg.workers,
        ),
        dtype=np.int64,
    )

    extractor = FeatureExtractor(grid=grid)
    batch = BatchFeatureExtractor(extractor, config=plane_cfg).extract(clips)
    tensors = batch.tensors
    flats = batch.flats
    hashes = np.array([clip.geometry_hash(quantum=rules.grid_snap)
                       for clip in clips])
    core_hashes = np.array(
        [clip.core_geometry_hash(quantum=rules.grid_snap) for clip in clips]
    )

    return ClipDataset(
        name=spec.name,
        tech_nm=rules.tech_nm,
        clips=clips,
        labels=labels,
        tensors=tensors,
        flats=flats,
        meta={
            "scale": scale,
            "seed": seed,
            "grid": grid,
            "density_cells": extractor.density_cells,
            "hashes": hashes,
            "core_hashes": core_hashes,
            "geometry_available": True,
        },
    )


def _save_cache(path: Path, dataset: ClipDataset) -> None:
    windows = np.array([c.window.as_tuple() for c in dataset.clips],
                       dtype=np.int64)
    cores = np.array([c.core.as_tuple() for c in dataset.clips],
                     dtype=np.int64)
    np.savez_compressed(
        path,
        labels=dataset.labels,
        tensors=dataset.tensors,
        flats=dataset.flats,
        windows=windows,
        cores=cores,
        hashes=dataset.meta["hashes"],
        core_hashes=dataset.meta["core_hashes"],
        tech_nm=np.int64(dataset.tech_nm),
        scale=np.float64(dataset.meta["scale"]),
        seed=np.int64(dataset.meta["seed"]),
        grid=np.int64(dataset.meta["grid"]),
        density_cells=np.int64(dataset.meta["density_cells"]),
    )


def _load_cached(path: Path, spec: BenchmarkSpec) -> ClipDataset:
    with np.load(path, allow_pickle=False) as archive:
        windows = archive["windows"]
        cores = archive["cores"]
        clips = [
            Clip(
                window=Rect(*map(int, windows[i])),
                core=Rect(*map(int, cores[i])),
                layout_name=spec.name,
                index=i,
            )
            for i in range(len(windows))
        ]
        return ClipDataset(
            name=spec.name,
            tech_nm=int(archive["tech_nm"]),
            clips=clips,
            labels=archive["labels"],
            tensors=archive["tensors"],
            flats=archive["flats"],
            meta={
                "scale": float(archive["scale"]),
                "seed": int(archive["seed"]),
                "grid": int(archive["grid"]),
                "density_cells": int(archive["density_cells"]),
                "hashes": archive["hashes"],
                "core_hashes": archive["core_hashes"],
                "geometry_available": False,
            },
        )
