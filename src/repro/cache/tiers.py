"""The tiered, process-wide query cache.

Two bounded, thread-safe LRU tiers:

* the **covering tier** holds region-derived planner artifacts -- one
  covering per ``(cell space, region fingerprint, level)`` and one
  interior rectangle per ``(cell space, region fingerprint)`` -- shared
  by every planner in the process, so datasets, filtered views, shards,
  and baselines covering the same polygon at the same level share one
  entry;
* the **result tier** holds exact :class:`~repro.engine.executor.QueryResult`
  objects keyed by ``(dataset token, predicate key, version, request
  key)`` (:mod:`repro.cache.results`), short-circuiting covering *and*
  execution on repeat queries.

Both tiers are sized by :data:`DEFAULT_COVERING_ENTRIES` and
:data:`DEFAULT_RESULT_ENTRIES`; whole-answer caching is switched off
per dataset or service with ``result_cache=False``, never by sizing a
tier to zero.

Invalidation is version-based and lazy: the dataset version is part of
every result key, so an append (which bumps the version) makes all
prior entries unreachable; the LRU bound reclaims them.  Nothing is
eagerly swept on the write path.

All tier operations take one lock per call (plain dict/OrderedDict
mutation underneath), so handles are safe to share across the sharded
blocks' batch fan-out pool and any threaded serving adapter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default entry bounds per tier.  Serving workloads in the paper query
#: a few hundred distinct polygons; the defaults keep every covering
#: and hot result of several concurrent workloads resident.
DEFAULT_COVERING_ENTRIES = 4096
DEFAULT_RESULT_ENTRIES = 8192

#: Sentinel distinguishing "not cached" from a cached ``None`` value
#: (degenerate regions legitimately derive a ``None`` interior rect).
MISSING = object()


class CacheTier:
    """One bounded, thread-safe LRU tier with hit/miss/eviction/bytes
    telemetry."""

    __slots__ = ("name", "_entries", "_max_entries", "_lock", "hits", "misses", "evictions", "_bytes")

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate bytes held by cached values."""
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: object, default: object = None) -> object:
        with self._lock:
            entry = self._entries.get(key, MISSING)
            if entry is MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: object, value: object, nbytes: int = 0) -> None:
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._entries.move_to_end(key)
            self._bytes += nbytes
            while len(self._entries) > self._max_entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1

    def drop(self, predicate) -> int:  # noqa: ANN001 - key -> bool
        """Eagerly remove every entry whose key satisfies ``predicate``;
        returns how many were dropped (counted as evictions)."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
                self.evictions += 1
            return len(doomed)

    def clear(self) -> None:
        """Drop all entries and reset the telemetry counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """JSON-compatible telemetry snapshot."""
        with self._lock:
            entries = len(self._entries)
            nbytes = self._bytes
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": entries,
            "bytes": nbytes,
            "hit_rate": self.hits / total if total else 0.0,
        }


class TieredCache:
    """The covering + result tier pair one process (or one service,
    when configured privately) shares."""

    __slots__ = ("coverings", "results")

    def __init__(self) -> None:
        self.coverings = CacheTier("covering", DEFAULT_COVERING_ENTRIES)
        self.results = CacheTier("result", DEFAULT_RESULT_ENTRIES)

    def invalidate_dataset(self, token: int) -> int:
        """Eagerly drop every result-tier entry of dataset ``token``
        (all versions, all views).  The lazy version-key invalidation
        makes this optional; it exists as the explicit hook for
        operators reclaiming memory after bulk writes."""
        return self.results.drop(lambda key: key[0] == token)

    def clear(self) -> None:
        self.coverings.clear()
        self.results.clear()

    def stats(self) -> dict:
        """Telemetry of both tiers (the ``GeoService.stats()`` payload)."""
        return {"covering": self.coverings.stats(), "result": self.results.stats()}


# -- the process-wide shared instance ------------------------------------

_shared = TieredCache()


def get_cache() -> TieredCache:
    """The process-wide shared cache every planner and dataset uses
    unless explicitly bound to a private one."""
    return _shared


def reset_cache() -> TieredCache:
    """Clear the shared cache in place (test isolation helper): every
    component that already holds the instance sees the empty state."""
    _shared.clear()
    return _shared
