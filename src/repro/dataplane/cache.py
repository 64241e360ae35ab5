"""Content-addressed feature cache with memory and disk tiers.

Keys are content addresses: clip geometry hash + extractor parameter
signature + feature kind (see
:meth:`repro.layout.clip.Clip.content_key` and
:attr:`repro.features.pipeline.FeatureExtractor.params_key`).  Equal
geometry therefore hits regardless of which ``Clip`` instance, AL
iteration, or benchmark sweep asks.

Two tiers:

* **memory** — an LRU of the most recent ``memory_items`` arrays; hits
  are free.
* **disk** — optional ``.npz`` files under ``disk_dir``; survives the
  process, so repeated bench runs and CLI invocations skip re-encoding
  entirely.  Disk hits are promoted into the memory tier.

The disk tier scales to full-chip streaming scans:

* **sharding** — with ``disk_shards > 0`` entries spread over
  ``shard-XX/`` subdirectories keyed by the content-hash prefix of the
  key, so millions of entries never pile into one directory (flat
  legacy entries remain readable).
* **byte budget** — ``max_disk_bytes`` bounds the tier; per-entry sizes
  are tracked in an LRU index and the oldest entries are evicted (one
  ``cache_evicted`` event each) when an insert would overflow the
  budget.  :meth:`compact` reclaims leftover temp files and re-applies
  the budget offline.

Thread safety: streaming-scan tile workers and pool workers call
``get``/``put`` concurrently, so every access to the LRU structures
happens under one re-entrant cache lock (a
:class:`~repro.analysis.concurrency.TrackedRLock`, so lock-order
inversions against the event bus are detected under
``REPRO_CHECK``).  The ``_memory``/``_disk_index`` ``OrderedDict``\\ s
are declared :func:`~repro.analysis.concurrency.guarded_by` the lock —
an unlocked access raises in strict mode and is flagged statically by
reprolint R007.  Array I/O deliberately stays inside the critical
section: eviction accounting must observe the same index state the
filesystem operation was decided on.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.concurrency import TrackedRLock, guarded_by
from ..analysis.interleave import trace_point

if TYPE_CHECKING:  # avoid importing the engine at runtime
    from ..engine.events import EventBus

__all__ = ["CacheStats", "FeatureCache", "feature_key"]


def feature_key(content_key: str, params_key: str, kind: str) -> str:
    """Full cache key of one feature array."""
    return f"{content_key}-{params_key}-{kind}"


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`FeatureCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: corrupt disk entries detected and quarantined (each also counts
    #: as a miss)
    corrupt: int = 0
    #: disk-tier entries evicted to honour ``max_disk_bytes``
    disk_evictions: int = 0
    #: bytes reclaimed by disk-tier eviction (cumulative)
    evicted_bytes: int = 0
    #: bytes currently resident in the disk tier (kept in step with the
    #: cache's per-entry size index)
    disk_bytes: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "disk_evictions": self.disk_evictions,
            "evicted_bytes": self.evicted_bytes,
            "disk_bytes": self.disk_bytes,
        }


@dataclass
class FeatureCache:
    """Two-tier (LRU memory + ``.npz`` disk) array cache.

    ``memory_items == 0`` disables the memory tier; ``disk_dir is None``
    disables the disk tier.  A fully disabled cache is valid and simply
    misses everything.  ``disk_shards > 0`` spreads disk entries over
    that many subdirectories (content-hash-prefix keyed);
    ``max_disk_bytes`` bounds the disk tier with LRU eviction.

    All public methods are thread-safe; see the module docstring for
    the locking discipline.
    """

    memory_items: int = 1024
    disk_dir: str | os.PathLike | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    #: optional event bus receiving one ``cache_corrupt`` event per
    #: quarantined disk entry and one ``cache_evicted`` event per
    #: budget-evicted entry
    bus: "EventBus | None" = None
    #: shard subdirectories of the disk tier (0 = flat legacy layout)
    disk_shards: int = 0
    #: byte budget of the disk tier (None = unbounded)
    max_disk_bytes: int | None = None

    # class-level (not dataclass fields): the LRU structures and the
    # per-tenant counters may only be touched while self._lock is held
    _memory = guarded_by("_lock")
    _disk_index = guarded_by("_lock")
    _tenant = guarded_by("_lock")

    def __post_init__(self) -> None:
        if self.memory_items < 0:
            raise ValueError(
                f"memory_items must be >= 0, got {self.memory_items}"
            )
        if self.disk_shards < 0:
            raise ValueError(
                f"disk_shards must be >= 0, got {self.disk_shards}"
            )
        if self.max_disk_bytes is not None and self.max_disk_bytes <= 0:
            raise ValueError(
                "max_disk_bytes must be positive or None, got "
                f"{self.max_disk_bytes}"
            )
        self._lock = TrackedRLock("feature-cache")
        with self._lock:
            self._memory = OrderedDict()  #: guarded_by: _lock
            #: key -> on-disk bytes, LRU-ordered (oldest first); the
            #: single source of truth for the byte budget
            self._disk_index = OrderedDict()  #: guarded_by: _lock
            #: tenant name -> hit/miss/put counters; tenants are the
            #: serving daemon's model versions sharing one cache
            self._tenant = {}  #: guarded_by: _lock
            if self.disk_dir is not None:
                self.disk_dir = Path(self.disk_dir)
                self.disk_dir.mkdir(parents=True, exist_ok=True)
                self._scan_disk()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _shard_of(self, key: str) -> int:
        """Shard number from the content-hash prefix of ``key`` (keys
        start with the hex clip digest; non-hex keys fall back to a
        CRC so arbitrary keys still shard deterministically)."""
        try:
            return int(key[:8], 16) % self.disk_shards
        except ValueError:
            return zlib.crc32(key.encode()) % self.disk_shards

    def _disk_path(self, key: str) -> Path:
        root = Path(self.disk_dir)  # type: ignore[arg-type]
        if self.disk_shards > 0:
            root = root / f"shard-{self._shard_of(key):02x}"
        return root / f"{key}.npz"

    def _lookup_path(self, key: str) -> Path | None:
        """The existing on-disk file of ``key``, honouring both sharded
        and flat legacy placement; ``None`` when absent."""
        path = self._disk_path(key)
        if path.exists():
            return path
        if self.disk_shards > 0:
            flat = Path(self.disk_dir) / f"{key}.npz"  # type: ignore[arg-type]
            if flat.exists():
                return flat
        return None

    def _scan_disk(self) -> None:  #: requires: _lock
        """Build the size/LRU index of pre-existing disk entries
        (oldest modification first, so eviction drops stale runs)."""
        root = Path(self.disk_dir)  # type: ignore[arg-type]
        entries = []
        for path in root.glob("*.npz"):
            entries.append(path)
        for path in root.glob("shard-*/*.npz"):
            entries.append(path)
        records = []
        for path in entries:
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted by a concurrent process mid-scan
            records.append((stat.st_mtime_ns, path.stem, stat.st_size))
        records.sort()
        self._disk_index.clear()
        for _, key, size in records:
            self._disk_index[key] = size
        self.stats.disk_bytes = sum(self._disk_index.values())

    @property
    def disk_bytes(self) -> int:
        """Bytes currently accounted to the disk tier."""
        return self.stats.disk_bytes

    def get(
        self, key: str, tenant: str | None = None
    ) -> np.ndarray | None:
        """The cached array for ``key``, or ``None`` on a miss.

        Returned arrays are the cache's own storage — treat them as
        read-only (batch assembly copies them into the output anyway).
        ``tenant`` additionally attributes the hit/miss to a named
        cache tenant (see :meth:`tenant_stats`).
        """
        with self._lock:
            if key in self._memory:
                trace_point("cache.get.hit")
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                self._tenant_note(tenant, "memory_hits")
                return self._memory[key]
            if self.disk_dir is not None:
                path = self._lookup_path(key)
                if path is not None:
                    try:
                        with np.load(path, allow_pickle=False) as archive:
                            array = archive["data"]
                    except (OSError, ValueError, KeyError,
                            zipfile.BadZipFile):
                        # a torn write is a miss — quarantine the file
                        # so it cannot fail again on every future read
                        self._quarantine(key, path)
                        self.stats.misses += 1
                        self._tenant_note(tenant, "misses")
                        return None
                    self.stats.disk_hits += 1
                    self._tenant_note(tenant, "disk_hits")
                    if key in self._disk_index:
                        self._disk_index.move_to_end(key)
                    self._store_memory(key, array)
                    return array
            self.stats.misses += 1
            self._tenant_note(tenant, "misses")
            trace_point("cache.get.miss")
            return None

    def put(
        self, key: str, array: np.ndarray, tenant: str | None = None
    ) -> None:
        """Insert ``array`` into every enabled tier."""
        array = np.asarray(array)
        with self._lock:
            self.stats.puts += 1
            self._tenant_note(tenant, "puts")
            self._store_memory(key, array)
            if self.disk_dir is not None:
                path = self._disk_path(key)
                if self._lookup_path(key) is None:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    # atomic publish: concurrent writers race benignly
                    fd, tmp = tempfile.mkstemp(
                        dir=str(path.parent), suffix=".tmp"
                    )
                    try:
                        with os.fdopen(fd, "wb") as handle:
                            np.savez_compressed(handle, data=array)
                        os.replace(tmp, path)
                    except OSError:
                        if os.path.exists(tmp):
                            os.unlink(tmp)
                        return
                    self._account_disk_entry(key, path)
                    self._evict_disk()
            trace_point("cache.put.done")

    def _account_disk_entry(self, key: str, path: Path) -> None:  #: requires: _lock
        try:
            size = path.stat().st_size
        except OSError:
            return  # concurrently evicted/removed; nothing to account
        if key in self._disk_index:
            self.stats.disk_bytes -= self._disk_index[key]
        self._disk_index[key] = size
        self._disk_index.move_to_end(key)
        self.stats.disk_bytes += size

    def _evict_disk(self) -> None:  #: requires: _lock
        """Drop least-recently-used disk entries until the tier fits
        the byte budget (one ``cache_evicted`` event per entry)."""
        if self.max_disk_bytes is None:
            return
        while (
            self.stats.disk_bytes > self.max_disk_bytes
            and len(self._disk_index) > 1
        ):
            key, size = self._disk_index.popitem(last=False)
            path = self._lookup_path(key)
            if path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass  # concurrent removal; the accounting stands
            self.stats.disk_bytes -= size
            self.stats.disk_evictions += 1
            self.stats.evicted_bytes += size
            if self.bus is not None:
                self.bus.emit(
                    "cache_evicted",
                    key=key,
                    bytes=size,
                    disk_bytes=self.stats.disk_bytes,
                    max_disk_bytes=self.max_disk_bytes,
                )

    def compact(self, max_bytes: int | None = None) -> dict:
        """Offline maintenance of the disk tier.

        Removes leftover ``*.tmp`` files from interrupted writes,
        rebuilds the size/LRU index from disk, and re-applies the byte
        budget (``max_bytes`` overrides ``max_disk_bytes`` for this
        pass).  Returns a report dict; a no-disk cache compacts to an
        empty report.  Temp files that cannot be removed are counted in
        ``failed_tmp`` (one ``cache_tmp_failed`` event each) instead of
        vanishing silently — a persistently failing unlink means the
        tier's directory needs operator attention.
        """
        report = {
            "removed_tmp": 0,
            "failed_tmp": 0,
            "disk_evictions_before": self.stats.disk_evictions,
            "disk_bytes": 0,
            "entries": 0,
        }
        if self.disk_dir is None:
            return report
        root = Path(self.disk_dir)
        for tmp in list(root.glob("*.tmp")) + list(root.glob("shard-*/*.tmp")):
            try:
                tmp.unlink()
                report["removed_tmp"] += 1
            except OSError as exc:
                report["failed_tmp"] += 1
                if self.bus is not None:
                    self.bus.emit(
                        "cache_tmp_failed", path=str(tmp), error=str(exc)
                    )
        with self._lock:
            self._scan_disk()
            budget = (
                max_bytes if max_bytes is not None else self.max_disk_bytes
            )
            if budget is not None:
                original = self.max_disk_bytes
                self.max_disk_bytes = budget
                try:
                    self._evict_disk()
                finally:
                    self.max_disk_bytes = original
            report["disk_bytes"] = self.stats.disk_bytes
            report["entries"] = len(self._disk_index)
        return report

    def _quarantine(self, key: str, path: Path) -> None:  #: requires: _lock
        """Delete a corrupt disk entry and account for it."""
        self.stats.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass  # concurrent repair/removal; the count still stands
        if key in self._disk_index:
            self.stats.disk_bytes -= self._disk_index.pop(key)
        if self.bus is not None:
            self.bus.emit("cache_corrupt", key=key, path=str(path))

    def _tenant_note(self, tenant: str | None, field: str) -> None:  #: requires: _lock
        """Attribute one counter bump to a named cache tenant."""
        if tenant is None:
            return
        counters = self._tenant.get(tenant)
        if counters is None:
            counters = {
                "memory_hits": 0, "disk_hits": 0, "misses": 0, "puts": 0,
            }
            self._tenant[tenant] = counters
        counters[field] += 1

    def tenant_stats(self) -> dict:
        """Per-tenant hit/miss/put counters (tenants that never tagged
        an access are absent).  The serving daemon keys tenants by model
        version, so one shared cache stays attributable per model."""
        with self._lock:
            return {
                tenant: dict(
                    counters,
                    hits=counters["memory_hits"] + counters["disk_hits"],
                )
                for tenant, counters in self._tenant.items()
            }

    def _store_memory(self, key: str, array: np.ndarray) -> None:  #: requires: _lock
        if self.memory_items == 0:
            return
        if key in self._memory:
            self._memory.move_to_end(key)
            return
        self._memory[key] = array
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the memory tier and reset counters (disk is kept)."""
        with self._lock:
            self._memory.clear()
            self._tenant = {}
            self.stats = CacheStats(
                disk_bytes=sum(self._disk_index.values())
            )
