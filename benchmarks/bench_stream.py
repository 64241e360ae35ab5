"""Extension — tiled streaming full-chip scan: memory, throughput,
incremental re-detection.

The eager detect path materializes every clip of a chip, then the whole
feature stack, before a single score is computed — peak memory grows
linearly with chip area.  The streaming plane
(``repro.dataplane.stream``) holds one tile at a time, so its peak
should stay *flat* as the chip grows.  This bench measures, on two
synthetic chips roughly 10x apart in clip count:

* **peak traced memory** of the eager stack-then-score path vs the
  streaming scan (``tracemalloc``, which sees NumPy buffers; RSS is
  recorded as context but is monotonic within a process);
* **sustained throughput** (clips/second) of the streaming scan;
* **incremental re-detection** after a one-tile layout edit: fraction
  of clips re-scored (< 5% required), wall-clock speedup vs the full
  scan, and bit-identical verdicts on untouched tiles.

Outputs ``BENCH_stream.json`` + a table under ``benchmarks/out``.
``REPRO_BENCH_QUICK=1`` shrinks both chips (CI smoke size).
"""

import json
import os
import time
import tracemalloc

import numpy as np

from repro.bench import format_table, write_report
from repro.data.synth import DUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.dataplane.stream import StreamConfig, StreamScanner
from repro.features import FeatureExtractor
from repro.layout import Layout, Rect, TileGrid, extract_clip_grid

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: pattern-tile edges of the small and large chip; the window lattice is
#: (edge - 1)^2, so these are ~13x apart in clip count in both modes
SMALL_TILES = 4 if QUICK else 8
LARGE_TILES = 14 if QUICK else 26

CLIP = DUV_RULES.clip_size
MARGIN = DUV_RULES.core_margin
TILE_CLIPS = 2 if QUICK else 4

#: small memory tier so the cache is not an accidental whole-chip buffer
PLANE = DataPlaneConfig(chunk_size=16, memory_cache_items=32)


def _chip(tiles, seed, name):
    return generate_layout(
        DUV_RULES, tiles_x=tiles, tiles_y=tiles, stress_probability=0.4,
        seed=seed, name=name,
    )


def _score(tensors):
    """Deterministic model stand-in: DCT energy squashed into (0, 1)."""
    energy = np.abs(tensors.reshape(len(tensors), -1)).mean(axis=1)
    return np.clip(energy * 40.0, 0.0, 1.0)


def _traced(fn):
    """(result, peak_traced_bytes) of ``fn`` under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _eager_scan(layout):
    """The seed path: materialize every clip, stack, score at once."""
    clips = [
        c for c in extract_clip_grid(layout, CLIP, MARGIN,
                                     drop_empty=False)
        if len(c.boxes)
    ]
    fx = FeatureExtractor(grid=96)
    tensors = np.stack([fx.encode(c) for c in clips])
    scores = _score(tensors)
    return sorted(c.index for c, s in zip(clips, scores) if s >= 0.5)


def _scanner(layout, state_dir=None):
    grid = TileGrid.for_layout(layout, CLIP, MARGIN,
                               tile_clips=TILE_CLIPS)
    plane = BatchFeatureExtractor(FeatureExtractor(grid=96), PLANE)
    config = StreamConfig(
        tile_clips=TILE_CLIPS,
        state_dir=None if state_dir is None else str(state_dir),
    )
    return grid, StreamScanner(grid, plane, _score, config)


def run_stream_bench(tmp_dir):
    small = _chip(SMALL_TILES, seed=5, name="bench-small")
    large = _chip(LARGE_TILES, seed=6, name="bench-large")

    # -- memory: eager vs streaming on both chip sizes ------------------
    (eager_small_hot, eager_small_peak) = _traced(
        lambda: _eager_scan(small)
    )
    (eager_large_hot, eager_large_peak) = _traced(
        lambda: _eager_scan(large)
    )
    _, small_scanner = _scanner(small)
    (stream_small, stream_small_peak) = _traced(
        lambda: small_scanner.scan(small)
    )
    _, large_scanner = _scanner(large)
    (stream_large, stream_large_peak) = _traced(
        lambda: large_scanner.scan(large)
    )

    # streaming changes memory, not answers
    assert [h["index"] for h in stream_small.hotspots] == eager_small_hot
    assert [h["index"] for h in stream_large.hotspots] == eager_large_hot

    # -- throughput: sustained clips/second, no tracer overhead --------
    _, timed_scanner = _scanner(large)
    start = time.perf_counter()
    timed = timed_scanner.scan(large)
    sustained_cps = timed.n_clips / (time.perf_counter() - start)

    # -- incremental re-detection after a one-tile edit ----------------
    state = os.path.join(tmp_dir, "scan-state")
    grid, base_scanner = _scanner(large, state_dir=state)
    start = time.perf_counter()
    base = base_scanner.scan(large)
    full_s = time.perf_counter() - start

    core = grid.window(0, 0).expanded(-MARGIN)
    edited = Layout(
        list(large.rects)
        + [Rect(core.x0 + 15, core.y0 + 15,
                core.x0 + 95, core.y0 + 95)],
        die=large.die, tech_nm=large.tech_nm, name=large.name,
    )
    _, redetect_scanner = _scanner(edited, state_dir=state)
    start = time.perf_counter()
    redetect = redetect_scanner.scan(edited)
    redetect_s = time.perf_counter() - start

    rescored_fraction = redetect.rescored_clips / max(redetect.n_clips, 1)
    edited_tile = grid.tile(0, 0)
    edited_indices = {i for i, _ in grid.iter_windows(edited_tile)}
    untouched_before = [
        h for h in base.hotspots if h["index"] not in edited_indices
    ]
    untouched_after = [
        h for h in redetect.hotspots if h["index"] not in edited_indices
    ]
    # replayed tiles are bit-identical, not merely close
    assert untouched_after == untouched_before

    return {
        "quick": QUICK,
        "n_clips_small": stream_small.n_clips,
        "n_clips_large": stream_large.n_clips,
        "clip_growth": stream_large.n_clips / max(stream_small.n_clips, 1),
        "eager_peak_small_mb": eager_small_peak / 2**20,
        "eager_peak_large_mb": eager_large_peak / 2**20,
        "stream_peak_small_mb": stream_small_peak / 2**20,
        "stream_peak_large_mb": stream_large_peak / 2**20,
        "eager_peak_growth": eager_large_peak / max(eager_small_peak, 1),
        "stream_peak_growth": (
            stream_large_peak / max(stream_small_peak, 1)
        ),
        "sustained_cps": sustained_cps,
        "full_scan_seconds": full_s,
        "redetect_seconds": redetect_s,
        "redetect_speedup": full_s / max(redetect_s, 1e-9),
        "rescored_clips": redetect.rescored_clips,
        "replayed_clips": redetect.replayed_clips,
        "rescored_fraction": rescored_fraction,
    }


def test_stream_scan(benchmark, tmp_path):
    stats = benchmark.pedantic(
        run_stream_bench, args=(str(tmp_path),), rounds=1, iterations=1
    )

    text = format_table(
        ["metric", "eager", "streaming"],
        [
            ["peak MiB, small chip", stats["eager_peak_small_mb"],
             stats["stream_peak_small_mb"]],
            ["peak MiB, large chip", stats["eager_peak_large_mb"],
             stats["stream_peak_large_mb"]],
            ["peak growth (large/small)", stats["eager_peak_growth"],
             stats["stream_peak_growth"]],
        ],
    ) + "\n" + format_table(
        ["streaming metric", "value"],
        [
            ["clip growth (large/small)", stats["clip_growth"]],
            ["sustained clips/sec", stats["sustained_cps"]],
            ["full scan seconds", stats["full_scan_seconds"]],
            ["re-detect seconds", stats["redetect_seconds"]],
            ["re-detect speedup", stats["redetect_speedup"]],
            ["re-scored fraction", stats["rescored_fraction"]],
        ],
    )
    write_report("stream", text)

    out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
    with open(os.path.join(out_dir, "BENCH_stream.json"), "w") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)

    # acceptance: clip count grows >= 10x, streaming peak stays flat
    # (< 2x) while the eager stack grows with the chip
    assert stats["clip_growth"] >= 10.0
    assert stats["stream_peak_growth"] <= 2.0
    assert stats["eager_peak_growth"] >= 4.0
    # acceptance: a one-tile edit re-scores < 5% of the chip's clips
    # and is substantially cheaper than the full scan
    assert stats["rescored_fraction"] < 0.05
    assert stats["redetect_speedup"] >= 2.0
