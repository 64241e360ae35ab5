"""Time one workload and turn what it did into the suite's metrics.

An untraced run times ``setup`` :data:`SETUP_REPEATS` times and repeats
``op`` until the measured time is used up; its metrics are the
end-to-end ones.  A traced run times one traced set-up, then alternates
untraced and traced operations; its metrics are the per-layer ones,
each for one set-up plus one operation:

* ``<span>_pct`` — self time of a layer's spans as a share of that
  set-up-plus-operation wall time (``trace.wall_s``).  Threads run in
  parallel in ``serve_remote``, so its shares may sum past 100.
* counters — work counts of a layer over the same set-up plus operation.
* ``trace.overhead_pct`` — median traced operation latency over the
  median untraced one, minus one.
"""

from __future__ import annotations

import math
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np

from trace import Tracer

__all__ = ["SETUP_REPEATS", "run_workload"]

SETUP_REPEATS = 3
#: operations measured at least, so repetitions can be compared (and a
#: traced run has an untraced and a traced one)
MIN_OPS = 2


def _tail(latencies: list[float]) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    if len(latencies) < 20:
        return {}
    pct = math.floor(100.0 * (1.0 - 10.0 / len(latencies)))
    return {f"op_p{pct}_ms": 1e3 * float(np.percentile(latencies, pct))}


def _end_to_end(setup_s: list[float], results) -> tuple[dict, dict]:
    latencies = [x for result in results for x in result.latencies]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "clips_per_s": sum(r.clips for r in results)
        / sum(r.busy_s for r in results),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    samples = {
        "setup_s": len(setup_s),
        "op_p50_ms": len(latencies),
        "clips_per_s": len(results),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _per_layer(tracer: Tracer, setup_wall: float, ops, closed: dict):
    traced = [(wall, result) for is_traced, wall, result in ops if is_traced]
    untraced = [result for is_traced, _, result in ops if not is_traced]
    n = len(traced)
    empty = {"self_s": {}, "calls": {}, "counts": {}}
    summary = tracer.summary()
    setup = summary.get("setup", empty)
    op = summary.get("op", empty)
    window = setup_wall + sum(wall for wall, _ in traced) / n

    values: dict[str, float] = {}
    for part, suffix in (("self_s", "_pct"), ("counts", "")):
        for key in set(setup[part]) | set(op[part]):
            value = setup[part].get(key, 0) + op[part].get(key, 0) / n
            values[key + suffix] = (
                100.0 * value / window if suffix else float(value)
            )
    observed: dict[str, float] = dict(closed)
    for _, result in traced:
        for key, value in result.layer.items():
            observed[key] = observed.get(key, 0.0) + value / n
    for key, value in observed.items():
        if key.endswith("_s"):
            values[key[:-2] + "_pct"] = 100.0 * value / window
        else:
            values[key] = float(value)

    requested = values.get("litho.clips_requested", 0.0)
    values["litho.sim_ratio"] = (
        values.get("litho.simulated", 0.0) / requested if requested else 0.0
    )
    hits = values.get("dataplane.cache_hits", 0.0)
    lookups = hits + values.get("dataplane.cache_misses", 0.0)
    values["dataplane.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    traced_p50 = statistics.median(
        x for _, result in traced for x in result.latencies
    )
    untraced_p50 = statistics.median(
        x for result in untraced for x in result.latencies
    )
    values["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    values["trace.wall_s"] = window
    return values, {name: n for name in values}


def _repeat_failures(ops) -> list[str]:
    first = ops[0][2].fingerprint
    return [
        f"operation {index} ({'traced' if is_traced else 'untraced'}) "
        "output differs from operation 0"
        for index, (is_traced, _, result) in enumerate(ops)
        if result.fingerprint != first
    ]


def run_workload(workload, seconds: float, trace: bool):
    """Set up, measure, check and close ``workload``.

    Returns ``(record, tracer)``: the record holds ``correct``,
    ``failures``, ``attempted``, ``failed``, ``metrics``, ``samples``,
    ``details`` and the set-up times; ``tracer`` is ``None`` untraced.
    """
    tracer = Tracer() if trace else None
    setup_s: list[float] = []
    state = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        if tracer is not None:
            tracer.install()
        started = perf_counter()
        try:
            state = workload.setup(traced=trace)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(perf_counter() - started)

    ops: list[tuple[bool, float, object]] = []
    failures: list[str] = []
    errors = 0
    try:
        workload.start(state)
        measured = perf_counter()
        while True:
            # untraced first, so a traced run always has both kinds
            traced = tracer is not None and len(ops) % 2 == 1
            if traced:
                tracer.phase = "op"
                tracer.install()
            started = perf_counter()
            try:
                result = workload.op(state, tracer if traced else None)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                traceback.print_exc()
                errors += 1
                break
            finally:
                if traced:
                    tracer.uninstall()
            wall = perf_counter() - started
            ops.append((traced, wall, result))
            elapsed = perf_counter() - measured
            if len(ops) >= MIN_OPS and elapsed + wall > seconds:
                break
        if ops:
            failures += _repeat_failures(ops)
            failures += workload.check(state, [result for *_, result in ops])
        else:
            failures.append("no operation completed")
    finally:
        closed = workload.close(state)

    results = [result for *_, result in ops]
    record = {
        "attempted": max(sum(r.attempted for r in results) + errors, 1),
        "failed": sum(r.failed for r in results) + errors,
        "setup_s": setup_s,
        "ops": len(ops),
        "metrics": {},
        "samples": {},
        "details": {},
    }
    if results:
        latencies = [x for r in results for x in r.latencies]
        record["details"] = {**results[-1].details, **_tail(latencies)}
        if trace and len({is_traced for is_traced, *_ in ops}) < 2:
            failures.append("a traced run needs a traced and an untraced "
                            "operation")
            metrics, samples = {}, {}
        elif trace:
            metrics, samples = _per_layer(tracer, setup_s[0], ops, closed)
        else:
            metrics, samples = _end_to_end(setup_s, results)
            record["details"].update(closed)
        record["metrics"], record["samples"] = metrics, samples
    bad = [name for name, value in record["metrics"].items()
           if not math.isfinite(value)]
    if bad:
        failures.append(f"non-finite metrics: {bad}")
    record["failures"] = failures
    record["correct"] = not failures
    return record, tracer
