"""In-memory timing spans around the program's public entry points.

The traced run of a workload installs one wrapper per entry point listed
in :data:`PROBES`.  Each call records a span — name, start, end, parent
(the enclosing span on the same thread), thread, phase and a request or
batch tag — plus the probe's counters.  Nothing in ``src/`` changes: the
wrappers are rebound onto the classes and onto every module global that
holds the original function, and :meth:`Tracer.uninstall` puts the
originals back.

A span's *self time* is its duration minus the time its child spans
cover.  Children of one span run on the same thread and do not overlap,
so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

__all__ = ["PROBES", "Probe", "Tracer"]


def _rows(value) -> int:
    """Leading dimension of an array result (or of a FeatureBatch)."""
    value = getattr(value, "tensors", value)
    return len(value)


def _cache_snapshot(args, kwargs) -> tuple[int, int]:
    stats = args[0].cache.stats
    return stats.hits, stats.misses


def _cache_counts(args, kwargs, result, before) -> dict:
    stats = args[0].cache.stats
    return {
        "dataplane.encoded_clips": _rows(result),
        "dataplane.cache_hits": stats.hits - before[0],
        "dataplane.cache_misses": stats.misses - before[1],
    }


def _is_training_forward(args, kwargs) -> bool:
    # Sequential.forward(self, x, train=False, taps=None)
    return bool(kwargs.get("train", args[2] if len(args) > 2 else False))


@dataclass(frozen=True)
class Probe:
    """One traced entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``when`` filters which calls open a span, ``before`` snapshots state
    ahead of the call and ``counts`` turns ``(args, kwargs, result,
    before)`` into counter increments.  ``generator`` probes time each
    ``next()`` of a lazy iterator as its own span.
    """

    target: str
    name: str
    counts: Callable | None = None
    before: Callable | None = None
    when: Callable | None = None
    generator: bool = False


#: every traced entry point; span names are the per-layer metric stems
PROBES: tuple[Probe, ...] = (
    Probe("repro.data.benchmarks:build_benchmark", "data.build"),
    Probe("repro.data.synth:generate_layout", "layout.generate"),
    Probe("repro.layout.clip:extract_clip_grid", "layout.clip_cut"),
    Probe("repro.layout.tiles:TileGrid.iter_clips", "layout.clip_cut",
          generator=True),
    Probe("repro.litho.labeler:LithoLabeler.label_batch", "litho.label",
          before=lambda args, kwargs: args[0].query_count,
          counts=lambda args, kwargs, result, before: {
              "litho.clips_requested": len(result),
              "litho.simulated": args[0].query_count - before,
          }),
    Probe("repro.dataplane.extract:BatchFeatureExtractor.encode_batch",
          "dataplane.encode", before=_cache_snapshot, counts=_cache_counts),
    Probe("repro.dataplane.extract:BatchFeatureExtractor.extract",
          "dataplane.encode", before=_cache_snapshot, counts=_cache_counts),
    Probe("repro.dataplane.extract:BatchFeatureExtractor.flat_batch",
          "dataplane.encode", before=_cache_snapshot, counts=_cache_counts),
    Probe("repro.features.pipeline:FeatureExtractor.raster_stack",
          "features.raster"),
    Probe("repro.features.pipeline:FeatureExtractor.encode_rasters",
          "features.dct"),
    Probe("repro.features.pipeline:FeatureExtractor.flats_from_rasters",
          "features.density"),
    Probe("repro.model.classifier:HotspotClassifier.fit", "model.fit"),
    Probe("repro.nn.network:Sequential.forward", "nn.forward_train",
          when=_is_training_forward,
          counts=lambda args, kwargs, result, before: {
              "model.train_samples": len(args[1]),
          }),
    Probe("repro.nn.network:Sequential.backward", "nn.backward"),
    Probe("repro.nn.optim:Optimizer.step", "nn.optim_step",
          counts=lambda args, kwargs, result, before: {"nn.optim_steps": 1}),
    Probe("repro.nn.im2col:im2col", "nn.im2col"),
    Probe("repro.nn.im2col:im2col_nhwc", "nn.im2col"),
    Probe("repro.nn.im2col:col2im", "nn.col2im",
          counts=lambda args, kwargs, result, before: {"nn.col2im_calls": 1}),
    *(
        Probe(f"repro.model.classifier:HotspotClassifier.{method}",
              "model.predict",
              counts=lambda args, kwargs, result, before: {
                  "model.predicted_clips": len(args[1]),
              })
        for method in ("predict_logits", "predict_full", "embeddings")
    ),
    *(
        Probe(f"repro.engine.session:InferenceSession.{method}",
              "engine.session")
        for method in ("logits", "predict_full", "embeddings",
                       "scale_tensors", "predict_tensors")
    ),
    Probe("repro.stats.pca:PCA.fit", "stats.pca_fit"),
    Probe("repro.stats.gmm:GaussianMixture.fit", "stats.gmm_fit"),
    Probe("repro.calibration.temperature:TemperatureScaler.fit",
          "calibration.temperature_fit"),
    Probe("repro.core.sampling:entropy_sampling", "core.entropy_sampling"),
    Probe("repro.engine.checkpoint:ScanCursor.save", "engine.cursor_save",
          counts=lambda args, kwargs, result, before: {
              "engine.cursor_saves": 1,
          }),
    Probe("repro.dataplane.stream:TileVerdictStore.save",
          "dataplane.store_save"),
    *(
        Probe(f"repro.serve.transport.frames:{function}", "serve.frame_codec")
        for function in ("encode_clips", "decode_clips", "encode_result",
                         "decode_result")
    ),
)


class _ThreadState:
    """Open-span stack, finished spans and counters of one thread."""

    def __init__(self, tracer: "Tracer") -> None:
        self.name = threading.current_thread().name
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.tag: str | None = None
        with tracer._lock:
            tracer._threads.append(self)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``phase`` labels every span opened while it is set (the runner uses
    ``"setup"`` and ``"op"``); :meth:`set_tag` attaches a request or
    batch id to the spans the calling thread opens next.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = self._resolve(PROBES)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _resolve(self, probes) -> list[tuple[object, str, object, object]]:
        """``(holder, attribute, original, wrapper)`` for every rebinding:
        the defining class or module, plus each loaded module global
        bound to the same function object."""
        patches = []
        for probe in probes:
            module_name, _, path = probe.target.partition(":")
            holder = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner)
            original = holder.__dict__[attr]
            wrapper = self._wrap(original, probe)
            patches.append((holder, attr, original, wrapper))
            if owners:
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if module is holder or not isinstance(namespace, dict):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        patches.append((module, name, original, wrapper))
        return patches

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(self)
        return state

    def set_tag(self, tag: str | None) -> None:
        self._state().tag = tag

    def _open(self, name: str) -> tuple[_ThreadState, list]:
        state = self._state()
        parent = state.stack[-1][0] if state.stack else 0
        frame = [next(self._ids), parent, name, self.phase, 0.0, perf_counter()]
        state.stack.append(frame)
        return state, frame

    @staticmethod
    def _close(state: _ThreadState, frame: list) -> None:
        end = perf_counter()
        state.stack.pop()
        span_id, parent, name, phase, child_s, start = frame
        duration = end - start
        if state.stack:
            state.stack[-1][4] += duration
        state.spans.append(
            (span_id, parent, name, phase, start, end, duration - child_s,
             state.tag)
        )

    def _count(self, state: _ThreadState, phase: str, counts: dict) -> None:
        for key, value in counts.items():
            slot = (phase, key)
            state.counts[slot] = state.counts.get(slot, 0) + value

    def _wrap(self, fn, probe: Probe):
        tracer = self
        if probe.generator:
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    state, frame = tracer._open(probe.name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(state, frame)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.when is not None and not probe.when(args, kwargs):
                return fn(*args, **kwargs)
            before = probe.before(args, kwargs) if probe.before else None
            state, frame = tracer._open(probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(state, frame)
            if probe.counts is not None:
                tracer._count(
                    state, frame[3], probe.counts(args, kwargs, result, before)
                )
            return result

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """``{phase: {"self_s": {name: s}, "calls": {name: n},
        "counts": {key: n}}}`` over every thread."""
        out: dict[str, dict] = {}

        def slot(phase: str) -> dict:
            return out.setdefault(
                phase, {"self_s": {}, "calls": {}, "counts": {}}
            )

        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for _, _, name, phase, _, _, self_s, _ in state.spans:
                entry = slot(phase)
                entry["self_s"][name] = entry["self_s"].get(name, 0.0) + self_s
                entry["calls"][name] = entry["calls"].get(name, 0) + 1
            for (phase, key), value in state.counts.items():
                counts = slot(phase)["counts"]
                counts[key] = counts.get(key, 0) + value
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Every span plus the summary, as one JSON document."""
        with self._lock:
            threads = list(self._threads)
        spans = [
            [span_id, parent, name, phase, state.name, start, end, self_s, tag]
            for state in threads
            for span_id, parent, name, phase, start, end, self_s, tag
            in state.spans
        ]
        spans.sort(key=lambda span: span[5])
        document = dict(meta)
        document["span_fields"] = [
            "id", "parent", "name", "phase", "thread", "start_s", "end_s",
            "self_s", "tag",
        ]
        document["spans"] = spans
        document["summary"] = self.summary()
        path.write_text(json.dumps(document))
