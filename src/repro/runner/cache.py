"""Content-addressed result caches for the simulation runner.

Cache keys are the :attr:`~repro.runner.job.SimulationJob.cache_key`
fingerprints — SHA-256 hashes over the canonical serialization of every
simulation input — so a cache entry is valid for *any* job with the same
content, regardless of which sweep, experiment or process produced it.

Two implementations are provided:

* :class:`InMemoryResultCache` — a bounded in-memory LRU, the default for a
  runner.
* :class:`DiskResultCache` — pickled results in a content-addressed directory
  layout (``<root>/<key[:2]>/<key>.pkl``), which lets warm results survive
  process restarts and be shared between concurrent runs.

Hit/miss/store accounting lives in :class:`CacheStats`; the
:class:`~repro.runner.runner.SimulationRunner` owns one stats object and
updates it on every lookup so tests and the CLI can audit cache behaviour.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..analysis.results import GanResult, LayerResult
from ..errors import AnalysisError
from ..telemetry import get_metrics

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CachePruneStats:
    """Outcome of one :meth:`DiskResultCache.prune` pass."""

    removed_entries: int
    removed_bytes: int
    remaining_entries: int
    remaining_bytes: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "removed_entries": self.removed_entries,
            "removed_bytes": self.removed_bytes,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
        }


@dataclass
class CacheStats:
    """Counters describing how a runner used its cache.

    Attributes
    ----------
    hits:
        Jobs answered directly from the cache.
    misses:
        Jobs that had to be executed.
    stores:
        Results written into the cache (== misses unless storing failed).
    deduplicated:
        Jobs that were dropped before dispatch because an identical job
        (same cache key) was already in the same batch.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    deduplicated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "deduplicated": self.deduplicated,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.deduplicated = 0


class ResultCache:
    """Interface of a content-addressed result cache."""

    def get(self, key: str) -> Optional[GanResult]:
        """The cached result for ``key``, or None on a miss."""
        raise NotImplementedError

    def put(self, key: str, result: GanResult) -> None:
        """Store ``result`` under ``key`` (overwrites silently)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class InMemoryResultCache(ResultCache):
    """Thread-safe LRU of results; the default for a :class:`SimulationRunner`.

    Bounded, like :class:`LayerMemoStore`, so a long-lived runner (the one a
    :class:`~repro.service.server.SimulationServer` builds, say) does not
    grow with every distinct job: past :attr:`MAX_ENTRIES` results, a store
    evicts the least recently stored or hit one.
    """

    #: No benchmark workload comes near it: the largest cache one builds
    #: holds 822 results (dse-sweep, 15 s).
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, GanResult]" = OrderedDict()

    def get(self, key: str) -> Optional[GanResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: str, result: GanResult) -> None:
        with self._lock:
            entries = self._entries
            entries[key] = result
            entries.move_to_end(key)
            if len(entries) > self.MAX_ENTRIES:
                entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskResultCache(ResultCache):
    """Pickle-on-disk cache with a content-addressed directory layout.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` — the two-character
    fingerprint-prefix shard keeps any one directory to at most 1/256th of
    the entries, so millions of cached results never sit in a single
    directory.  The cache holds no results in memory: every ``get`` reads
    the entry from disk, so a long-running process (``serve --cache-dir``)
    stays bounded however many results pass through it.
    """

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise AnalysisError(
                f"cache root '{self._root}' exists and is not a directory"
            )
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def _path_for(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    def _entry_paths(self):
        """Every stored entry; in-flight writers' ``.tmp`` files never match."""
        return self._root.glob("*/*.pkl")

    def get(self, key: str) -> Optional[GanResult]:
        path = self._path_for(key)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            # Absent — or deleted by a concurrent prune()/clear() between any
            # earlier existence check and the open.  Nothing to unlink.
            return None
        except Exception:
            # A truncated/corrupt entry (e.g. torn write from a crashed run)
            # is a miss, not a fatal error; drop it so it gets rewritten.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            # Refresh recency so prune() evicts cold entries first.  The entry
            # may vanish between the read and the touch (concurrent prune);
            # the pickled bytes are already in hand, so serve them regardless.
            os.utime(path)
        except OSError:
            pass
        return result

    def put(self, key: str, result: GanResult) -> None:
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique temp file per writer: concurrent runs storing the same key
        # never interleave bytes, and the rename publishes atomically
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> None:
        for path in self._entry_paths():
            path.unlink()

    def size_bytes(self) -> int:
        """Total size of every stored entry."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # pruned concurrently: no longer occupies space
        return total

    def prune(self, max_bytes: int) -> CachePruneStats:
        """Evict oldest entries (by mtime) until the cache fits ``max_bytes``.

        Content-addressed entries are all equally re-creatable, so the only
        signal worth keeping is recency: a warm entry that was just read or
        written has a fresh mtime (``get`` touches entries it serves) and
        survives longest.  ``prune(0)`` empties the cache.  Entries that
        vanish concurrently (another run pruning the same directory) are
        counted as already removed, not errors; entries that cannot be
        deleted (permissions) stay accounted as remaining.
        """
        if max_bytes < 0:
            raise AnalysisError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
        entries.sort()  # oldest first; name tie-break keeps order deterministic
        total = sum(size for _mtime, _name, size, _path in entries)
        removed_entries = removed_bytes = 0
        for _mtime, _name, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # another run pruned it concurrently: already gone
            except OSError:
                continue  # undeletable (permissions?): still occupies space
            total -= size
            removed_entries += 1
            removed_bytes += size
        return CachePruneStats(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=len(entries) - removed_entries,
            remaining_bytes=total,
        )


# ----------------------------------------------------------------------
# Layer-grain memoization (below the job-level result cache)
# ----------------------------------------------------------------------
@dataclass
class LayerMemoStats:
    """Counters for the layer-grain memo (one tier below :class:`CacheStats`).

    ``hits`` and ``misses`` count layer lookups; ``stores`` counts entries
    written — the runner writes each distinct missing key of a network once,
    however often its shape repeats in that network.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0


class LayerMemoStore:
    """Thread-safe LRU memo of per-layer simulation results.

    Keys are :func:`~repro.analysis.serialization.layer_memo_key` tuples —
    (simulation-context digest, layer-structure digest), whose content digest
    is :func:`~repro.analysis.serialization.layer_fingerprint` — so any two
    jobs whose networks share a layer shape under the same simulation context
    share one entry, across workloads and across sweeps.

    The memo is an in-memory ``OrderedDict`` LRU bounded by ``max_entries``;
    it lives and dies with the process.  The runner looks up and stores one
    network's layers at a time (:meth:`get_many` / :meth:`put_many`): one
    lock and one metrics update per batch.  :meth:`get` and :meth:`put` are
    the one-key case.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise AnalysisError(f"max_entries must be > 0, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, LayerResult]" = OrderedDict()
        self._stats = LayerMemoStats()
        # Cached registry instruments for the hot path: resolved once per
        # installed registry instead of per batch (the registry can be
        # swapped by configure_metrics, hence the identity check).
        self._metrics_for: Optional[object] = None
        self._m_hits = self._m_misses = self._m_stores = self._m_resident = None

    @property
    def stats(self) -> LayerMemoStats:
        return self._stats

    def _refresh_instruments(self) -> bool:
        """Bind registry instruments for the current registry (if enabled)."""
        registry = get_metrics()
        if registry is None:
            return False
        if self._metrics_for is not registry:
            self._metrics_for = registry
            self._m_hits = registry.counter("runner.layer_memo.hits")
            self._m_misses = registry.counter("runner.layer_memo.misses")
            self._m_stores = registry.counter("runner.layer_memo.stores")
            self._m_resident = registry.gauge("runner.layer_memo.resident")
        return True

    def get_many(self, keys: Sequence[Hashable]) -> List[Optional[LayerResult]]:
        """The memoized result for each key (None on a miss), in key order.

        Every key counts as one lookup, and each hit refreshes its LRU
        recency in key order, exactly as a loop of :meth:`get` calls would.
        """
        with self._lock:
            entries = self._entries
            results = [entries.get(key) for key in keys]
            hits = 0
            for key, result in zip(keys, results):
                if result is not None:
                    entries.move_to_end(key)
                    hits += 1
            misses = len(keys) - hits
            self._stats.hits += hits
            self._stats.misses += misses
        if self._refresh_instruments():
            if hits:
                self._m_hits.inc(hits)
            if misses:
                self._m_misses.inc(misses)
        return results

    def put_many(self, items: Sequence[Tuple[Hashable, LayerResult]]) -> None:
        """Memoize each ``(key, result)`` in order (overwrites silently).

        Counts one store per item and evicts exactly as a loop of
        :meth:`put` calls would.
        """
        with self._lock:
            entries = self._entries
            for key, result in items:
                entries[key] = result
                entries.move_to_end(key)
                while len(entries) > self._max_entries:
                    entries.popitem(last=False)
            self._stats.stores += len(items)
            resident = len(entries)
        if items and self._refresh_instruments():
            self._m_stores.inc(len(items))
            self._m_resident.set(resident)

    def get(self, key: Hashable) -> Optional[LayerResult]:
        """The memoized layer result for ``key``, or None on a miss."""
        return self.get_many((key,))[0]

    def put(self, key: Hashable, result: LayerResult) -> None:
        """Memoize ``result`` under ``key`` (overwrites silently)."""
        self.put_many(((key, result),))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_layer_memo_lock = threading.Lock()
_layer_memo: Optional[LayerMemoStore] = None
_layer_memo_configured = False


def configure_layer_memo(
    enabled: bool = True, max_entries: int = 65536
) -> Optional[LayerMemoStore]:
    """(Re)configure the process-global layer memo; returns the new store.

    Pass ``enabled=False`` to disable layer memoization entirely (returns
    None).
    """
    global _layer_memo, _layer_memo_configured
    with _layer_memo_lock:
        store = LayerMemoStore(max_entries=max_entries) if enabled else None
        _layer_memo = store
        _layer_memo_configured = True
        return store


def get_layer_memo() -> Optional[LayerMemoStore]:
    """The process-global layer memo, or None when disabled.

    A process that never called :func:`configure_layer_memo` gets a default
    in-memory store on first use.
    """
    global _layer_memo, _layer_memo_configured
    with _layer_memo_lock:
        if not _layer_memo_configured:
            _layer_memo = LayerMemoStore()
            _layer_memo_configured = True
        return _layer_memo
