"""Extension — lock-discipline sanitizer overhead on the data-plane path.

The concurrency layer (``repro.analysis.concurrency``) instruments the
feature cache, the event bus and the ordered pool that Adam's split
step and the streaming scan share (``repro.nn.runtime.run_ordered``)
with tracked locks, ``guarded_by`` descriptors and interleaving trace
points.  Like the array contracts, all of it is meant to be free when
``REPRO_CHECK=off``.  This bench quantifies "free" on the path the
instrumentation actually sits on (chunked batch extraction through the
locked feature cache):

* **per-primitive cost** — off-mode tracked-lock cycle vs a bare
  ``threading.RLock``, off-mode guarded attribute read vs a plain
  attribute, and an inactive ``trace_point`` call;
* **activations** — each primitive counted on one cache-warm
  ``BatchFeatureExtractor`` extraction via ``sys.setprofile`` (every
  primitive is a Python frame with an identifiable code object);
* **bounded overhead** — activations x per-primitive cost relative to
  the path's wall time, asserted under the 1% acceptance ceiling;
* **strict-mode cost** — the same extraction with the sanitizer fully
  on, for scale (strict is a debugging mode, not the default).

Outputs a table under ``benchmarks/out`` and ``BENCH_concurrency.json``.
"""

import json
import os
import sys
import threading
import time

from repro.analysis.concurrency import TrackedLock, TrackedRLock, guarded_by
from repro.analysis.contracts import checking
from repro.analysis.interleave import trace_point
from repro.bench import format_table, write_report
from repro.data.synth import EUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.features import FeatureExtractor
from repro.layout import extract_clip_grid

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
TILES = 6 if QUICK else 10

#: calls used to time each primitive's fast path (cheap: ~ns per call)
CALIBRATION_CALLS = 50_000 if QUICK else 200_000


def _clips():
    layout = generate_layout(
        EUV_RULES, tiles_x=TILES, tiles_y=TILES, stress_probability=0.3,
        seed=13, name="bench-concurrency", target_ratio=0.08,
    )
    return extract_clip_grid(
        layout, EUV_RULES.clip_size, EUV_RULES.core_margin, drop_empty=False
    )


def _best_of_3(loop, *args):
    loop(*args)  # warm-up
    return min(loop(*args) for _ in range(3))


def _lock_cycle_overhead(calls=CALIBRATION_CALLS):
    """Seconds added per with-statement cycle by an off-mode tracked
    lock over a bare ``threading.RLock``."""
    bare = threading.RLock()
    tracked = TrackedRLock("bench")

    def loop(lock):
        start = time.perf_counter()
        for _ in range(calls):
            with lock:
                pass
        return time.perf_counter() - start

    bare_s = _best_of_3(loop, bare)
    tracked_s = _best_of_3(loop, tracked)
    return max(tracked_s - bare_s, 0.0) / calls


class _Guarded:
    value = guarded_by("_lock")

    def __init__(self):
        self._lock = TrackedRLock("bench-guarded")
        with self._lock:
            self.value = 1


class _Plain:
    def __init__(self):
        self.value = 1


def _guarded_read_overhead(calls=CALIBRATION_CALLS):
    """Seconds added per attribute read by an off-mode guarded_by
    descriptor over a plain instance attribute."""
    guarded, plain = _Guarded(), _Plain()

    def loop(obj):
        start = time.perf_counter()
        for _ in range(calls):
            obj.value
        return time.perf_counter() - start

    plain_s = _best_of_3(loop, plain)
    guarded_s = _best_of_3(loop, guarded)
    return max(guarded_s - plain_s, 0.0) / calls


def _trace_point_cost(calls=CALIBRATION_CALLS):
    """Absolute seconds per inactive trace_point call (one global load
    and a branch, plus the call itself)."""

    def loop():
        start = time.perf_counter()
        for _ in range(calls):
            trace_point("bench.point")
        return time.perf_counter() - start

    return _best_of_3(loop) / calls


class _PrimitiveCounter:
    """Counts sanitizer-frame activations on the profiled path."""

    def __init__(self):
        self.acquires = 0
        self.guarded = 0
        self.traces = 0
        self._acquire = TrackedLock.acquire.__code__
        self._get = guarded_by.__get__.__code__
        self._set = guarded_by.__set__.__code__
        self._trace = trace_point.__code__

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is self._acquire:
            self.acquires += 1
        elif code is self._get or code is self._set:
            self.guarded += 1
        elif code is self._trace:
            self.traces += 1

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(None)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_concurrency_bench():
    clips = _clips()
    lock_cost = _lock_cycle_overhead()
    guard_cost = _guarded_read_overhead()
    trace_cost = _trace_point_cost()

    def fresh_plane():
        return BatchFeatureExtractor(
            FeatureExtractor(grid=96), DataPlaneConfig(chunk_size=64)
        )

    # extraction with checks off (the production default), counting how
    # many sanitizer primitives the locked-cache path traverses
    with checking("off"):
        plane = fresh_plane()
        with _PrimitiveCounter() as counter:
            off_batch, off_s = _timed(lambda: plane.extract(clips))

        # profiling itself slows the run; re-time without the profiler
        plane = fresh_plane()
        off_batch, off_s = _timed(lambda: plane.extract(clips))

    with checking("strict"):
        plane = fresh_plane()
        strict_batch, strict_s = _timed(lambda: plane.extract(clips))

    import numpy as np

    assert np.array_equal(off_batch.tensors, strict_batch.tensors)
    assert counter.acquires > 0, "no tracked lock ran on the dataplane path"
    assert counter.guarded > 0, "no guarded access on the dataplane path"

    off_overhead = (
        counter.acquires * lock_cost
        + counter.guarded * guard_cost
        + counter.traces * trace_cost
    )
    return {
        "n_clips": len(clips),
        "lock_cycles_on_path": counter.acquires,
        "guarded_accesses_on_path": counter.guarded,
        "trace_points_on_path": counter.traces,
        "per_lock_cycle_off_seconds": lock_cost,
        "per_guarded_read_off_seconds": guard_cost,
        "per_trace_point_seconds": trace_cost,
        "off_path_seconds": off_s,
        "strict_path_seconds": strict_s,
        "off_overhead_seconds": off_overhead,
        "off_overhead_fraction": off_overhead / off_s,
        "strict_slowdown": strict_s / off_s,
    }


def test_sanitizer_overhead(benchmark):
    stats = benchmark.pedantic(run_concurrency_bench, rounds=1, iterations=1)

    text = format_table(
        ["metric", "value"],
        [
            ["clips", stats["n_clips"]],
            ["lock cycles on path", stats["lock_cycles_on_path"]],
            ["guarded accesses on path", stats["guarded_accesses_on_path"]],
            ["trace points on path", stats["trace_points_on_path"]],
            ["off-mode lock cycle (us)",
             stats["per_lock_cycle_off_seconds"] * 1e6],
            ["off-mode guarded read (us)",
             stats["per_guarded_read_off_seconds"] * 1e6],
            ["inactive trace point (us)",
             stats["per_trace_point_seconds"] * 1e6],
            ["extract seconds (REPRO_CHECK=off)", stats["off_path_seconds"]],
            ["extract seconds (REPRO_CHECK=strict)",
             stats["strict_path_seconds"]],
            ["off-mode overhead fraction", stats["off_overhead_fraction"]],
            ["strict slowdown (x)", stats["strict_slowdown"]],
        ],
    )
    write_report("concurrency", text)

    out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
    with open(
        os.path.join(out_dir, "BENCH_concurrency.json"), "w"
    ) as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)

    # acceptance: the sanitizer with checks off costs < 1% of the path
    assert stats["off_overhead_fraction"] < 0.01
