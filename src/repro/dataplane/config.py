"""Configuration of the data plane (chunking, pooling, cache tiers)."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DataPlaneConfig", "PRECISIONS"]

#: supported feature-encoding precision modes (mirrors
#: ``repro.nn.runtime.PRECISION_MODES``; duplicated literally so this
#: config module stays importable without numpy)
PRECISIONS = ("exact", "fast")


@dataclass(frozen=True)
class DataPlaneConfig:
    """How clips are turned into features and labels.

    Parameters
    ----------
    chunk_size:
        Clips per extraction/labeling chunk.  Chunks are the unit of
        vectorization (one stacked DCT call per chunk) and of pool
        dispatch.
    workers:
        Thread-pool width; ``0`` (the default) runs everything
        in-process with no pool at all — the safe single-thread
        fallback.  Threads suit the NumPy/SciPy kernels, which release
        the GIL.
    memory_cache_items:
        Capacity of the in-memory LRU tier of the feature cache
        (entries, not bytes); ``0`` disables the tier.
    disk_cache_dir:
        Directory of the on-disk ``.npz`` tier; ``None`` (default)
        disables it.
    disk_cache_shards:
        Shard subdirectories of the disk tier (0 = flat layout); see
        :class:`~repro.dataplane.cache.FeatureCache`.  Full-chip scans
        should shard so entry counts per directory stay bounded.
    max_disk_cache_bytes:
        Byte budget of the disk tier with LRU eviction (``None`` =
        unbounded, the legacy behaviour).
    task_timeout:
        Watchdog deadline in seconds for each pooled chunk; a chunk
        that does not answer in time is cancelled and re-run serially
        (see :func:`repro.dataplane.pool.imap_chunks`).  ``None``
        (default) disables the watchdog.
    precision:
        Feature-encoding precision: ``"exact"`` (default) keeps the
        bit-exact float64 DCT kernel; ``"fast"`` computes the basis
        matmul in float32 (outputs upcast to float64, cache keys
        disambiguated — see ``FeatureExtractor.params_key``).
    """

    chunk_size: int = 64
    workers: int = 0
    memory_cache_items: int = 1024
    disk_cache_dir: str | None = None
    disk_cache_shards: int = 0
    max_disk_cache_bytes: int | None = None
    task_timeout: float | None = None
    precision: str = "exact"

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.memory_cache_items < 0:
            raise ValueError(
                "memory_cache_items must be >= 0, got "
                f"{self.memory_cache_items}"
            )
        if self.disk_cache_shards < 0:
            raise ValueError(
                "disk_cache_shards must be >= 0, got "
                f"{self.disk_cache_shards}"
            )
        if self.max_disk_cache_bytes is not None and (
            self.max_disk_cache_bytes <= 0
        ):
            raise ValueError(
                "max_disk_cache_bytes must be positive or None, got "
                f"{self.max_disk_cache_bytes}"
            )
        if self.task_timeout is not None and not (
            self.task_timeout > 0 and math.isfinite(self.task_timeout)
        ):
            raise ValueError(
                "task_timeout must be positive and finite, or None, got "
                f"{self.task_timeout}"
            )
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, "
                f"got {self.precision!r}"
            )
