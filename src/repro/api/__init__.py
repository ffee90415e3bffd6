"""The stable service API: datasets, declarative queries, GeoJSON wire.

This package is the serving-oriented façade over the whole stack -- the
layer a dashboard backend or HTTP adapter talks to instead of
hand-assembling ``extract`` -> ``GeoBlock.build`` -> ``AggSpec`` lists:

* :class:`GeoService` -- a registry of named :class:`Dataset` handles
  plus request routing (single, batched, grouped, and wire-dict entry
  points with the unified error envelope);
* :class:`Dataset` -- one uniform handle over plain, sharded, and
  adaptive blocks: ``build``/``open``/``save`` dispatch on kind,
  filtered views (``view``/``where``), the write path (``append``,
  bumping the version stamped into every response), and the fluent
  ``ds.over(region).agg("avg:fare").run()`` builder;
* :class:`QueryRequest` / :class:`QueryResponse` -- declarative v2
  queries (region or ``group_by`` FeatureCollection; ``where`` filter
  predicates; aggregates as compact ``"sum:fare"`` strings;
  planner/executor hints) that round-trip to/from plain JSON dicts;
  every wire dict carries ``"v": 2`` (a versionless dict is a
  ``bad_request``);
* :class:`ApiError` -- every boundary failure, with a machine-readable
  code and the ``{"ok": false, "error": ...}`` envelope.

Serving is cache-accelerated end to end (:mod:`repro.cache`): coverings
are shared process-wide under content-addressed keys, and repeated
single-region requests -- wire dicts included, which re-parse their
polygon every time -- build one request key
(:func:`repro.cache.results.request_key`) and serve the exact prior
engine result from a materialized view (:mod:`repro.materialize`) or
the versioned result tier (appends bump the data version, lazily
invalidating).  ``GeoService(cache=TieredCache())`` isolates a service
on a private cache and ``result_cache=False`` turns whole-answer
caching off; ``GeoService.stats()`` exposes per-tier telemetry; every
v2 response carries a ``stats.cache`` block.

Query v2 quickstart::

    from repro.api import Dataset, GeoService

    service = GeoService()
    service.register("taxi", Dataset.build(base, level=15))

    # Single region, filtered through a per-predicate view (the
    # paper's GeoBlock-per-filter design, built once and cached).
    response = service.run_dict({
        "v": 2,
        "dataset": "taxi",
        "region": {"type": "Polygon", "coordinates": [[...]]},
        "where": {"col": "distance", "op": ">=", "value": 4},
        "aggregates": ["count", "avg:fare"],
    })

    # Choropleth: one grouped request answers every neighbourhood of a
    # FeatureCollection in a single engine pass, plus a rollup.
    response = service.run_dict({
        "v": 2,
        "dataset": "taxi",
        "group_by": {"type": "FeatureCollection", "features": [...]},
        "aggregates": ["sum:fare"],
    })
    rows = response["data"]["groups"]          # per-feature values
    total = response["data"]["values"]         # combined rollup

    # The write path: fold new rows into the block in place; every
    # subsequent response carries the bumped dataset version.
    service.run_dict({
        "v": 2, "op": "append", "dataset": "taxi",
        "rows": [{"x": -73.98, "y": 40.75, "fare": 12.5, "distance": 2.1}],
    })

Results are identical to the equivalent direct ``select``/``count``
calls on the underlying blocks; the API adds naming, wire formats,
filtered views, grouped execution, writes, and observability -- not a
second query semantics.
"""

from repro.api.aggregates import format_agg, parse_agg, parse_aggs
from repro.api.dataset import Dataset
from repro.api.errors import ApiError, error_envelope, wrap_error
from repro.api.fluent import QueryBuilder
from repro.api.geojson import (
    features_from_geojson,
    region_from_geojson,
    region_to_geojson,
)
from repro.api.request import (
    AppendRequest,
    AppendResponse,
    GroupRow,
    MaterializeRequest,
    QueryRequest,
    QueryResponse,
    QueryStats,
    as_request,
    parse_features,
    parse_region,
    parse_where,
    requests_from_workload,
    serialise_region,
)
from repro.api.service import GeoService
from repro.cache import TieredCache
from repro.storage.expr import col, predicate_from_wire, predicate_to_wire

__all__ = [
    "ApiError",
    "AppendRequest",
    "AppendResponse",
    "Dataset",
    "GeoService",
    "TieredCache",
    "GroupRow",
    "MaterializeRequest",
    "QueryBuilder",
    "QueryRequest",
    "QueryResponse",
    "QueryStats",
    "as_request",
    "col",
    "error_envelope",
    "features_from_geojson",
    "format_agg",
    "parse_agg",
    "parse_aggs",
    "parse_features",
    "parse_region",
    "parse_where",
    "predicate_from_wire",
    "predicate_to_wire",
    "region_from_geojson",
    "region_to_geojson",
    "requests_from_workload",
    "serialise_region",
    "wrap_error",
]
