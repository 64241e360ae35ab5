"""Data plane (S13): chunked parallel extraction + content-addressed
caching + batched labeling.

The layer that turns layout clips into model-ready tensors and litho
labels for every consumer — benchmark builders, the CLI detect flow,
the AL framework's labelers and the bench harness:

* :class:`BatchFeatureExtractor` — chunked, vectorized, optionally
  thread-pooled clip → DCT-tensor/flat extraction, bit-identical to the
  eager :class:`~repro.features.pipeline.FeatureExtractor` loops it
  replaces.
* :class:`FeatureCache` — content-addressed two-tier cache (in-memory
  LRU + on-disk ``.npz``) keyed by clip geometry hash and extractor
  parameters.
* :func:`imap_chunks` — the shared chunk runner (serial default or a
  thread pool; yields per-chunk results lazily for
  partial-progress commits) also used by the batched labelers in
  :mod:`repro.litho.labeler` and :mod:`repro.data.dataset`.
* :class:`DataPlaneConfig` — chunk size, worker count and cache-tier
  sizing in one value (also embedded in
  :class:`~repro.core.framework.FrameworkConfig`).
* :class:`StreamScanner` / :func:`scan_layout` — tiled streaming
  full-chip detection over a :class:`~repro.layout.tiles.TileGrid`:
  tiles worked on every CPU and committed in lattice order, per-tile
  verdict persistence, crash resume and incremental re-detection after
  layout edits (see :mod:`repro.dataplane.stream`).

Every request reports ``features_extracted`` / ``labels_computed``
events with cache hit/miss counts on an optional
:class:`~repro.engine.events.EventBus`.
"""

from .cache import CacheStats, FeatureCache, feature_key
from .config import DataPlaneConfig
from .extract import BatchFeatureExtractor, FeatureBatch
from .pool import chunked, imap_chunks
from .stream import (
    ScanReport,
    StreamConfig,
    StreamScanner,
    TileVerdictStore,
    model_score_fn,
    scan_layout,
)

__all__ = [
    "BatchFeatureExtractor",
    "FeatureBatch",
    "CacheStats",
    "FeatureCache",
    "feature_key",
    "DataPlaneConfig",
    "chunked",
    "imap_chunks",
    "ScanReport",
    "StreamConfig",
    "StreamScanner",
    "TileVerdictStore",
    "model_score_fn",
    "scan_layout",
]
