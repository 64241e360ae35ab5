"""Chunked, cached, optionally threaded batch feature extraction.

:class:`BatchFeatureExtractor` is the data plane's front door for the
clip → tensor path.  It wraps a plain
:class:`~repro.features.pipeline.FeatureExtractor` and adds, without
changing a single output bit:

* **chunking** — clips are processed in fixed-size chunks, each encoded
  with one vectorized stacked-DCT call instead of a per-clip loop;
* **parallelism** — chunks optionally fan out over a thread pool
  (``DataPlaneConfig.workers``);
* **content-addressed caching** — every tensor/flat is stored under
  geometry-hash + extractor-params keys in a two-tier
  :class:`~repro.dataplane.cache.FeatureCache`, so repeated AL
  iterations, baseline sweeps and bench runs never re-encode an
  identical clip;
* **deduplication** — identical clips inside one request are encoded
  once;
* **observability** — each request emits one ``features_extracted``
  event with hit/miss counts and wall time.

The tensors and flats of one clip share a raster, so requesting both
through :meth:`extract` costs one rasterization — the eager path paid
three (encode, then flat's encode + density).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..analysis.contracts import contract
from ..engine.events import EventBus
from ..features.pipeline import FeatureExtractor
from ..layout.clip import content_keys
from .cache import FeatureCache, feature_key
from .config import DataPlaneConfig
from .pool import imap_chunks, on_timeout

__all__ = ["BatchFeatureExtractor", "FeatureBatch"]


@dataclass
class FeatureBatch:
    """Model-ready arrays of one clip batch."""

    tensors: np.ndarray  # (N, C, H, W) DCT tensors
    flats: np.ndarray    # (N, D) DCT + density vectors


def _encode_chunk(
    clips: list, extractor: FeatureExtractor, want_flat: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Encode one chunk of clips: one raster stack, one DCT call."""
    rasters = extractor.raster_stack(clips)
    tensors = extractor.encode_rasters(rasters)
    flats = (
        extractor.flats_from_rasters(rasters, tensors) if want_flat else None
    )
    return tensors, flats


class BatchFeatureExtractor:
    """Cache-aware chunked extraction over a :class:`FeatureExtractor`.

    Parameters
    ----------
    extractor:
        The parameter-fixing eager extractor; its outputs define
        correctness (the batched paths are asserted bit-identical).
    config:
        Chunk size, pool width and cache-tier sizing.
    cache:
        Share an existing :class:`FeatureCache` across planes (e.g. one
        cache for a whole bench sweep); by default a private cache is
        built from ``config``.
    bus:
        Optional :class:`~repro.engine.events.EventBus` receiving one
        ``features_extracted`` event per request.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        config: DataPlaneConfig | None = None,
        cache: FeatureCache | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.config = config if config is not None else DataPlaneConfig()
        # a non-default config precision overrides the extractor's mode
        # (cache keys follow via FeatureExtractor.params_key); the
        # default "exact" leaves an explicitly-built extractor alone
        if self.config.precision != "exact":
            extractor = extractor.with_precision(self.config.precision)
        self.extractor = extractor
        self.cache = (
            cache
            if cache is not None
            else FeatureCache(
                memory_items=self.config.memory_cache_items,
                disk_dir=self.config.disk_cache_dir,
                disk_shards=self.config.disk_cache_shards,
                max_disk_bytes=self.config.max_disk_cache_bytes,
                bus=bus,
            )
        )
        self.bus = bus
        #: optional cache-tenant tag: when set, every cache access of
        #: this plane is attributed to that tenant in the shared
        #: cache's per-tenant stats (the serving daemon sets it to the
        #: dispatched model version from its single dispatcher thread)
        self.tenant: str | None = None

    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> dict:
        """Lifetime hit/miss counters of the underlying cache."""
        return self.cache.stats.as_dict()

    @contract(returns="f8[N,C,H,W]")
    def encode_batch(self, clips, keys=None) -> np.ndarray:
        """DCT tensors ``(N, C, H, W)`` — chunked, cached, bit-identical
        to ``FeatureExtractor.encode_batch``.  ``keys`` passes the clips'
        content keys when the caller already computed them."""
        return self._gather(clips, want_flat=False, keys=keys).tensors

    @contract(returns="f8[N,D]")
    def flat_batch(self, clips) -> np.ndarray:
        """Flat vectors ``(N, D)`` — chunked, cached, bit-identical to
        ``FeatureExtractor.flat_batch``."""
        return self._gather(clips, want_flat=True).flats

    def extract(self, clips) -> FeatureBatch:
        """Tensors *and* flats from a single raster pass per clip."""
        return self._gather(clips, want_flat=True)

    # ------------------------------------------------------------------
    def _gather(self, clips, want_flat: bool, keys=None) -> FeatureBatch:
        started = time.perf_counter()
        clips = list(clips)
        keys = content_keys(clips, keys)
        fx = self.extractor
        n = len(clips)
        tensors = np.zeros((n,) + fx.tensor_shape)
        flats = np.zeros((n, fx.flat_size))

        # cache lookup, deduplicating identical geometry within the batch
        params = fx.params_key
        pending: dict[str, int] = {}   # content key -> representative pos
        positions: dict[str, list[int]] = {}
        cache_hits = 0
        for pos, key in enumerate(keys):
            if key in positions:
                positions[key].append(pos)
                continue
            positions[key] = [pos]
            tensor = self.cache.get(
                feature_key(key, params, "tensor"), tenant=self.tenant
            )
            flat = (
                self.cache.get(
                    feature_key(key, params, "flat"), tenant=self.tenant
                )
                if want_flat
                else None
            )
            if tensor is not None and (not want_flat or flat is not None):
                tensors[pos] = tensor
                if want_flat:
                    flats[pos] = flat
                cache_hits += 1
            else:
                pending[key] = pos

        # encode the misses in chunks, optionally in parallel; the lazy
        # iterator commits each chunk to the cache as it completes, so a
        # mid-request failure keeps the chunks already paid for
        cfg = self.config
        miss_keys = list(pending)
        miss_clips = [clips[pending[key]] for key in miss_keys]
        chunk_results = imap_chunks(
            partial(_encode_chunk, extractor=fx, want_flat=want_flat),
            miss_clips,
            chunk_size=cfg.chunk_size,
            workers=cfg.workers,
            timeout=cfg.task_timeout,
            on_timeout=on_timeout(self.bus, "extract", cfg.task_timeout),
        )
        cursor = 0
        n_chunks = 0
        for chunk_tensors, chunk_flats in chunk_results:
            n_chunks += 1
            for i in range(len(chunk_tensors)):
                key = miss_keys[cursor]
                pos = pending[key]
                tensors[pos] = chunk_tensors[i]
                self.cache.put(
                    feature_key(key, params, "tensor"), chunk_tensors[i],
                    tenant=self.tenant,
                )
                if want_flat:
                    flats[pos] = chunk_flats[i]
                    self.cache.put(
                        feature_key(key, params, "flat"), chunk_flats[i],
                        tenant=self.tenant,
                    )
                cursor += 1

        # replicate representatives onto duplicate positions
        for key, group in positions.items():
            for pos in group[1:]:
                tensors[pos] = tensors[group[0]]
                if want_flat:
                    flats[pos] = flats[group[0]]

        if self.bus is not None:
            self.bus.emit(
                "features_extracted",
                n_clips=n,
                cache_hits=cache_hits,
                cache_misses=len(pending),
                deduped=n - len(positions),
                chunks=n_chunks,
                chunk_size=cfg.chunk_size,
                workers=cfg.workers,
                kinds=["tensor", "flat"] if want_flat else ["tensor"],
                cache_stats=self.cache_stats,
                extract_seconds=time.perf_counter() - started,
            )
        return FeatureBatch(tensors=tensors, flats=flats)
