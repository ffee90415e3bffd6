"""The per-dataset materialized-view store: admission, LRU, refresh.

One :class:`MaterializedStore` lives on every :class:`Dataset` (each
filtered view holds its own -- the predicate is implicit in which
store a view lives in), keyed by the request's
:class:`~repro.cache.results.RequestKey`.  It owns three things:

* a **bounded query log** feeding auto-admission: every single-region
  request that misses the MV tier records an observation under its
  key; once a key accumulates :data:`DEFAULT_ADMIT_AFTER` observations
  it is admitted using the answer the request just produced (engine
  execution or result-tier hit -- both are the exact cold answer at the
  current version).  The log is an LRU of bounded size, so a client
  cycling through endless distinct regions can neither grow it without
  bound nor keep any one key's count alive forever;
* the **view map**, also LRU-bounded: auto-admitted views evict
  least-recently-served first once :data:`DEFAULT_MAX_VIEWS` is
  exceeded; pinned views (explicit ``materialize`` ops) are never
  auto-evicted and only leave through ``drop_view``;
* the **refresh walk** the write path drives: on append the dataset
  calls :meth:`refresh_all` inside its exclusive section with the
  appended rows' leaf ids, and every view delta-applies
  (:meth:`MaterializedView.refresh`).

A view serves only at the aggregates' ``data_version`` it is stamped
with (:meth:`lookup`): a write through another facade over the same
block bumps that version without refreshing this store, and the view
then misses until the next :meth:`refresh_all` rebuilds it.

Thread model: lookups/observations run under the dataset's shared read
lock, concurrently; the store serialises its own map and counter
mutations with an internal lock.  ``refresh_all`` runs only inside the
dataset write section, which excludes all readers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.cache.results import RequestKey
from repro.materialize.view import MaterializedView, materializable

#: Observations (initial miss included) before a key is auto-admitted.
DEFAULT_ADMIT_AFTER = 3

#: Bounded query-log entries (admission candidates tracked at once).
DEFAULT_LOG_SIZE = 256

#: Materialized views kept per store before auto-admitted ones are
#: evicted least-recently-served first.
DEFAULT_MAX_VIEWS = 32


class QueryLog:
    """Bounded hit-count / recency log of MV-admission candidates."""

    __slots__ = ("capacity", "threshold", "_counts")

    def __init__(
        self, capacity: int = DEFAULT_LOG_SIZE, threshold: int = DEFAULT_ADMIT_AFTER
    ) -> None:
        self.capacity = capacity
        self.threshold = threshold
        self._counts: OrderedDict[RequestKey, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._counts)

    def observe(self, key: RequestKey) -> bool:
        """Record one observation; True when ``key`` crossed the
        admission threshold (the entry is retired either way then)."""
        count = self._counts.pop(key, 0) + 1
        if count >= self.threshold:
            return True
        self._counts[key] = count
        while len(self._counts) > self.capacity:
            self._counts.popitem(last=False)
        return False

    def forget(self, key: RequestKey) -> None:
        self._counts.pop(key, None)


class MaterializedStore:
    """Admission log + LRU view map + telemetry for one dataset."""

    def __init__(
        self,
        max_views: int = DEFAULT_MAX_VIEWS,
        admit_after: int = DEFAULT_ADMIT_AFTER,
        log_size: int = DEFAULT_LOG_SIZE,
    ) -> None:
        self._lock = threading.Lock()
        self._views: OrderedDict[RequestKey, MaterializedView] = OrderedDict()
        self._by_name: dict[str, MaterializedView] = {}
        self._log = QueryLog(capacity=log_size, threshold=admit_after)
        self._auto_names = 0
        self.max_views = max_views
        # -- telemetry (service stats' ``mv`` block) --
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.evictions = 0
        self.drops = 0
        self.disk_bytes = 0
        self.incremental_refreshes = 0
        self.full_refreshes = 0
        self.delta_rows = 0

    def __len__(self) -> int:
        return len(self._views)

    # -- read path -------------------------------------------------------

    def lookup(self, key: RequestKey | None, data_version: int) -> MaterializedView | None:
        """The view serving ``key`` exactly at ``data_version``, or
        None; hits bump recency.  Keys no view may serve (see
        :func:`materializable`) neither hit nor count a miss."""
        if not materializable(key):
            return None
        with self._lock:
            view = self._views.get(key)
            if view is None or view.data_version != data_version:
                self.misses += 1
                return None
            self._views.move_to_end(key)
            view.hits += 1
            self.hits += 1
            return view

    def observe(self, key: RequestKey | None) -> bool:
        """Feed the admission log; True when ``key`` should be admitted
        now (the caller holds the exact current answer)."""
        if not materializable(key):
            return False
        with self._lock:
            if key in self._views:
                return False
            return self._log.observe(key)

    # -- admission / removal ---------------------------------------------

    def auto_name(self) -> str:
        with self._lock:
            self._auto_names += 1
            return f"mv-{self._auto_names}"

    def admit(self, view: MaterializedView) -> MaterializedView:
        """Install ``view``; raises KeyError on a duplicate key or name
        (the API layer maps it to the ``duplicate_view`` error code)."""
        with self._lock:
            if view.key in self._views:
                raise KeyError("a materialized view already serves this query")
            if view.name in self._by_name:
                raise KeyError(f"materialized view {view.name!r} already exists")
            self._views[view.key] = view
            self._by_name[view.name] = view
            self._log.forget(view.key)
            self.admissions += 1
            self._evict_over_bound()
            return view

    def _evict_over_bound(self) -> None:
        """Drop least-recently-served auto-admitted views over the
        bound (pinned views never auto-evict); lock held by caller."""
        if len(self._views) <= self.max_views:
            return
        for key in list(self._views):
            if len(self._views) <= self.max_views:
                break
            view = self._views[key]
            if view.pinned:
                continue
            del self._views[key]
            self._by_name.pop(view.name, None)
            self.evictions += 1

    def drop(self, name: str) -> MaterializedView | None:
        """Remove the view named ``name``; None when unknown."""
        with self._lock:
            view = self._by_name.pop(name, None)
            if view is None:
                return None
            self._views.pop(view.key, None)
            self.drops += 1
            return view

    def clear(self) -> int:
        """Drop every view (explicit invalidation); returns how many."""
        with self._lock:
            dropped = len(self._views)
            self._views.clear()
            self._by_name.clear()
            self.drops += dropped
            return dropped

    # -- the write path ---------------------------------------------------

    def refresh_all(
        self, handle, leaves: np.ndarray, version: int, data_version: int  # noqa: ANN001
    ) -> int:
        """Delta-refresh every view after an append; returns the total
        appended-row contributions applied.  ``data_version`` is the
        aggregates' version before the append: views stamped otherwise
        rebuild in full.  Caller holds the dataset write lock (readers
        excluded), so no internal lock is needed
        for the per-view mutation -- but take it anyway to stay safe
        against direct store use outside a Dataset."""
        with self._lock:
            views = list(self._views.values())
        applied = 0
        for view in views:
            incremental = view.incremental_refreshes
            full = view.full_refreshes
            applied += view.refresh(handle, leaves, version, data_version)
            self.incremental_refreshes += view.incremental_refreshes - incremental
            self.full_refreshes += view.full_refreshes - full
        self.delta_rows += applied
        return applied

    # -- introspection ----------------------------------------------------

    def views(self) -> list[MaterializedView]:
        with self._lock:
            return list(self._views.values())

    def views_info(self, current_version: int) -> list[dict]:
        return [view.info(current_version) for view in self.views()]

    def stats(self) -> dict:
        """The service ``mv`` telemetry block for this store."""
        with self._lock:
            views = list(self._views.values())
            return {
                "views": len(views),
                "pinned": sum(1 for view in views if view.pinned),
                "hits": self.hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "evictions": self.evictions,
                "drops": self.drops,
                "incremental_refreshes": self.incremental_refreshes,
                "full_refreshes": self.full_refreshes,
                "delta_rows": self.delta_rows,
                "bytes": sum(view.nbytes() for view in views),
                "disk_bytes": self.disk_bytes,
            }
