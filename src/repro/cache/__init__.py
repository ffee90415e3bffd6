"""The unified query-cache subsystem.

The paper's headline contribution is a query cache (Sections 3.2 and
4.3, Figures 8 and 17): spatial aggregation workloads are dominated by
repeated and overlapping polygons, so caching region-derived work wins
on exactly the traffic that matters.  This package is that idea applied
to every layer of the serving stack, as one process-wide, bounded,
thread-safe cache with three conceptual tiers:

=====================  ===============================================
Tier                   Paper analogue
=====================  ===============================================
covering tier          the ``s2.coverPolygon`` reuse the paper treats
(:class:`CacheTier`    as negligible shared work (Section 3.2): one
via ``coverings``)     covering per ``(cell space, region fingerprint,
                       level)``, shared by every dataset, filtered
                       view, shard planner, and baseline in the
                       process
result tier            the AggregateTrie's end goal taken one step
(``results``)          further (Sections 3.6/4.3): where the trie
                       short-circuits *per covering cell*, the result
                       tier short-circuits the *whole query* -- exact
                       :class:`~repro.engine.executor.QueryResult`
                       objects keyed by the request key (region
                       fingerprint, aggregates, execution model)
                       behind the dataset token, filter, and data
                       version
AggregateTrie          unchanged -- the per-cell adaptive cache of
(:mod:`repro.core.     Figure 8 remains inside ``AdaptiveGeoBlock``;
trie`)                 this package caches *around* it
=====================  ===============================================

Keys are content-addressed (:func:`repro.cells.fingerprint.region_fingerprint`):
a polygon parsed from the same GeoJSON twice fingerprints identically,
so wire traffic -- which re-parses every request -- shares cache
entries with fluent and batch queries.  A single-region request builds
its :class:`~repro.cache.results.RequestKey` once
(:func:`~repro.cache.results.request_key`); the result tier and the
materialized views of :mod:`repro.materialize` both key by it.
Invalidation is version-based and lazy: appends bump the data version
that is part of every result key, so stale entries become unreachable
and age out of the LRU; nothing blocks the write path.

Entry points: :func:`get_cache` (the shared process-wide instance),
:class:`TieredCache` (a private instance, e.g. per
:class:`~repro.api.service.GeoService`), and
:class:`~repro.cache.results.ResultCacheScope` (the per-dataset result
handle).
"""

from repro.cache.results import (
    RequestKey,
    ResultCacheScope,
    aggregate_key,
    new_dataset_token,
    request_key,
)
from repro.cache.tiers import (
    DEFAULT_COVERING_ENTRIES,
    DEFAULT_RESULT_ENTRIES,
    CacheTier,
    TieredCache,
    get_cache,
    reset_cache,
)
from repro.cells.fingerprint import region_fingerprint

__all__ = [
    "DEFAULT_COVERING_ENTRIES",
    "DEFAULT_RESULT_ENTRIES",
    "CacheTier",
    "RequestKey",
    "ResultCacheScope",
    "TieredCache",
    "aggregate_key",
    "get_cache",
    "new_dataset_token",
    "region_fingerprint",
    "request_key",
    "reset_cache",
]
