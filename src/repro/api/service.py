"""GeoService: the registry of named datasets and the request router.

This is the object a serving process holds: register datasets once,
then feed it declarative queries -- :class:`QueryRequest` objects, wire
dicts, or fluent builders -- singly or in batches.  ``run_dict`` is the
transport-facing entry point: it never raises for request-shaped
failures; every outcome is an envelope, ``{"ok": true, ...}`` or the
unified error envelope, so an HTTP layer reduces to
``json.dumps(service.run_dict(json.loads(body)))``.  Every wire dict
must carry ``"v": 2``; anything else answers a ``bad_request``
envelope.

Batches are fanned out per dataset into the engine's batched executor
(shared binary searches, dedup'd range records, per-shard thread-pool
materialisation on sharded datasets) and stitched back into request
order.
"""

from __future__ import annotations

import pathlib
import threading
from collections.abc import Iterator, Mapping, Sequence

from repro.api.dataset import Dataset, Handle
from repro.cache.tiers import TieredCache, get_cache
from repro.api.errors import (
    BAD_REQUEST,
    UNKNOWN_DATASET,
    ApiError,
    error_envelope,
)
from repro.api.request import (
    WIRE_VERSION,
    AppendRequest,
    AppendResponse,
    MaterializeRequest,
    QueryRequest,
    QueryResponse,
    as_request,
)


class GeoService:
    """A registry of named :class:`Dataset` handles plus query routing.

    ``cache`` binds every registered dataset to a private
    :class:`~repro.cache.tiers.TieredCache` instead of the process-wide
    shared one (multi-tenant isolation); ``result_cache=False`` turns
    off whole-answer caching (result tier and MV auto-admission)
    service-wide while keeping covering reuse.  :meth:`stats` exposes
    both tiers' telemetry and :meth:`invalidate` is the eager
    result-tier drop (appends already invalidate lazily through the
    dataset version).
    """

    def __init__(
        self,
        cache: TieredCache | None = None,
        result_cache: bool | None = None,
    ) -> None:
        self._datasets: dict[str, Dataset] = {}
        self._cache = cache
        self._result_cache = result_cache
        # Registry lock: a threaded serving adapter may register/replace
        # datasets while other threads route requests, and iterating a
        # dict that another thread mutates raises.  Re-entrant because
        # ``open`` registers and ``invalidate`` resolves under the same
        # lock.  Query execution itself is NOT serialised here -- the
        # lock only covers registry lookups and snapshots; per-dataset
        # read/write coordination lives on :class:`Dataset`.
        self._lock = threading.RLock()

    # -- registry ----------------------------------------------------------

    def register(self, name: str, dataset: Dataset | Handle) -> Dataset:
        """Register a dataset (or bare block, which gets wrapped) under
        ``name``; re-registering a name replaces the handle."""
        if not isinstance(name, str) or not name:
            raise ApiError(BAD_REQUEST, "dataset name must be a non-empty string")
        if not isinstance(dataset, Dataset):
            dataset = Dataset(dataset)
        dataset.name = name
        if self._cache is not None or self._result_cache is not None:
            # With only the result_cache flag configured, keep the
            # dataset's own cache binding (it may be private) and just
            # toggle the flag.
            cache = self._cache if self._cache is not None else dataset.cache_scope.cache
            dataset.bind_cache(cache, self._result_cache)
        with self._lock:
            self._datasets[name] = dataset
        return dataset

    def open(self, name: str, path: str | pathlib.Path) -> Dataset:
        """Load a saved block of any kind and register it."""
        return self.register(name, Dataset.open(path))

    def dataset(self, name: str | None = None) -> Dataset:
        """Look up a dataset; ``None`` resolves to the sole registered
        dataset (the common single-tenant case)."""
        with self._lock:
            if name is None:
                if len(self._datasets) == 1:
                    return next(iter(self._datasets.values()))
                raise ApiError(
                    UNKNOWN_DATASET,
                    "query names no dataset and the service has "
                    f"{len(self._datasets)} registered; set 'dataset'",
                    details={"registered": sorted(self._datasets)},
                )
            try:
                return self._datasets[name]
            except KeyError:
                raise ApiError(
                    UNKNOWN_DATASET,
                    f"unknown dataset {name!r}",
                    details={"registered": sorted(self._datasets)},
                ) from None

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def __iter__(self) -> Iterator[Dataset]:
        with self._lock:
            return iter(list(self._datasets.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def _snapshot(self) -> dict[str, Dataset]:
        """A point-in-time copy of the registry (safe to iterate while
        other threads register)."""
        with self._lock:
            return dict(self._datasets)

    def describe(self) -> dict:
        """Catalog endpoint payload: every dataset's summary."""
        datasets = self._snapshot()
        return {"datasets": [datasets[name].describe() for name in sorted(datasets)]}

    # -- cache telemetry and invalidation ----------------------------------

    @property
    def cache(self) -> TieredCache:
        """The tiered cache this service's datasets answer through (the
        process-wide shared one unless configured privately)."""
        return self._cache if self._cache is not None else get_cache()

    def stats(self) -> dict:
        """Serving telemetry: per-tier cache counters (hits, misses,
        evictions, entries, bytes) plus each dataset's version,
        result-cache state, and partition-routing counters -- the
        payload a metrics endpoint scrapes.

        Counters aggregate over every *distinct* cache the registered
        datasets actually serve through (a dataset bound to a private
        cache at build time keeps it).  Note that the default shared
        cache is process-wide: when this service serves through it,
        the counters include every other component sharing it (other
        services, raw engine use); bind a private ``TieredCache`` for
        strictly per-service numbers.
        """
        datasets = self._snapshot()
        caches: list = []
        for dataset in datasets.values():
            cache = dataset.cache_scope.cache
            if not any(cache is seen for seen in caches):
                caches.append(cache)
        if not caches:
            caches.append(self.cache)
        snapshots = [cache.stats() for cache in caches]  # one snapshot per cache
        merged: dict = {}
        for tier in ("covering", "result"):
            totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "bytes": 0}
            for snapshot in snapshots:
                for key, value in snapshot[tier].items():
                    if key in totals:
                        totals[key] += value
            lookups = totals["hits"] + totals["misses"]
            merged[tier] = dict(totals, hit_rate=totals["hits"] / lookups if lookups else 0.0)
        per_dataset_mv = {name: dataset.mv_stats() for name, dataset in datasets.items()}
        mv_totals: dict = {}
        for stats in per_dataset_mv.values():
            for key, value in stats.items():
                mv_totals[key] = mv_totals.get(key, 0) + value
        return {
            "cache": merged,
            "mv": mv_totals,
            "datasets": {
                name: {
                    "version": dataset.version,
                    "result_cache": dataset.cache_scope.enabled,
                    "materialized": per_dataset_mv[name]["views"],
                    "routing": dataset.routing_stats(),
                }
                for name, dataset in sorted(datasets.items())
            },
        }

    def versions(self) -> dict[str, int]:
        """Current data version per registered dataset -- the snapshot
        an HTTP edge cache stamps into entries so that the same version
        bump that invalidates the result tier invalidates edge
        responses too."""
        return {name: dataset.version for name, dataset in self._snapshot().items()}

    def invalidate(self, name: str | None = None) -> int:
        """Eagerly drop result-tier entries: one dataset's (by name) or
        every registered dataset's; returns how many entries were
        dropped.  Version keys already invalidate lazily on append --
        this is the explicit memory-reclaim hook."""
        if name is not None:
            return self.dataset(name).invalidate_cache()
        # repro-lint: allow[FD001] invalidate_cache returns an int entry count
        return sum(dataset.invalidate_cache() for dataset in self._snapshot().values())

    # -- query routing -----------------------------------------------------

    def run(self, request) -> QueryResponse:  # noqa: ANN001 - request-shaped
        """Route one request to its dataset and answer it."""
        request = as_request(request)
        return self.dataset(request.dataset).query(request)

    def run_batch(self, requests: Sequence) -> list[QueryResponse]:
        """Answer a mixed-dataset batch through the batched executor.

        Requests are grouped per dataset, each group runs as one
        :meth:`Dataset.run_batch` (one engine pass; thread-pool fan-out
        on sharded datasets), and responses return in input order.
        """
        parsed = [as_request(request) for request in requests]
        by_dataset: dict[str | None, list[int]] = {}
        for index, request in enumerate(parsed):
            by_dataset.setdefault(request.dataset, []).append(index)
        # Resolve every dataset before executing anything: a bad name
        # must fail the batch up front, not after other members have
        # already run (and, on adaptive datasets, recorded statistics).
        datasets = {name: self.dataset(name) for name in by_dataset}
        responses: list[QueryResponse | None] = [None] * len(parsed)
        for name, indices in by_dataset.items():
            for index, response in zip(
                indices, datasets[name].run_batch([parsed[i] for i in indices])
            ):
                responses[index] = response
        return [response for response in responses if response is not None]

    # -- the write path ----------------------------------------------------

    def append(self, request, rows: Sequence | None = None) -> AppendResponse:  # noqa: ANN001
        """Route an append to its dataset.

        Accepts an :class:`AppendRequest` (or its wire dict), or a
        dataset name plus ``rows``: ``service.append("taxi", rows)``.

        Concurrency contract: reads may run concurrently with each
        other (the view cache is internally synchronised), but appends
        mutate aggregate arrays in place and follow the paper's
        single-writer, no-concurrent-reader model -- a threaded adapter
        must serialise writes against reads per dataset.
        """
        if isinstance(request, str) or (request is None and rows is not None):
            request = AppendRequest(rows=rows, dataset=request)
        elif isinstance(request, Mapping):
            request = AppendRequest.from_dict(request)
        elif not isinstance(request, AppendRequest):
            raise ApiError(
                BAD_REQUEST,
                f"cannot interpret {type(request).__name__} as an append; "
                "pass an AppendRequest, a wire dict, or (name, rows)",
            )
        return self.dataset(request.dataset).append(request.rows)

    # -- materialized-view management --------------------------------------

    def materialize(self, request, name: str | None = None) -> dict:  # noqa: ANN001
        """Pin one query as a materialized view on its dataset; returns
        the view's info row.  Accepts a :class:`MaterializeRequest` (or
        its wire dict via :meth:`run_dict`) or any query-shaped input
        plus ``name``."""
        if isinstance(request, MaterializeRequest):
            name = request.name if name is None else name
            request = request.query
        request = as_request(request)
        return self.dataset(request.dataset).materialize(request, name)

    def views(self, dataset: str | None = None) -> dict:
        """One dataset's cached views -- filtered and materialized --
        with hit counts, versions, and staleness."""
        return self.dataset(dataset).views_info()

    def drop_view(self, name: str, dataset: str | None = None) -> dict:
        """Drop a materialized view by name (``unknown_view`` when no
        store on the dataset holds it)."""
        return self.dataset(dataset).drop_view(name)

    # -- wire-format entry points -----------------------------------------

    _VIEWS_KEYS = ("v", "op", "dataset")
    _DROP_VIEW_KEYS = ("v", "op", "dataset", "name")

    def _check_op_payload(self, payload: Mapping, op: str, keys: tuple) -> None:
        """Envelope discipline shared by the view-management ops:
        exact version, no unknown keys (same strictness as queries)."""
        if payload.get("v") != WIRE_VERSION:
            raise ApiError(
                BAD_REQUEST,
                f"{op} needs the v{WIRE_VERSION} envelope ('\"v\": {WIRE_VERSION}')",
            )
        unknown = sorted(set(payload) - set(keys))
        if unknown:
            raise ApiError(
                BAD_REQUEST,
                f"unknown {op} key(s) {unknown}; expected {list(keys)}",
                details={"unknown": unknown},
            )
        dataset = payload.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            raise ApiError(BAD_REQUEST, "'dataset' must be a string name")

    def run_dict(self, payload: dict) -> dict:
        """Transport entry point: wire dict in, envelope out, never
        raises for request-shaped failures.

        Dispatches on ``"op"``: queries (the default), appends, and the
        view-management ops (``materialize`` / ``views`` /
        ``drop_view``) share the one entry point, so an HTTP adapter
        stays a single route.
        """
        try:
            op = payload.get("op") if isinstance(payload, Mapping) else None
            if op == "append":
                return self.append(AppendRequest.from_dict(payload)).to_dict()
            if op == "materialize":
                request = MaterializeRequest.from_dict(payload)
                info = self.materialize(request)
                return {"ok": True, "v": WIRE_VERSION, "data": info}
            if op == "views":
                self._check_op_payload(payload, "views", self._VIEWS_KEYS)
                return {
                    "ok": True,
                    "v": WIRE_VERSION,
                    "data": self.views(payload.get("dataset")),
                }
            if op == "drop_view":
                self._check_op_payload(payload, "drop_view", self._DROP_VIEW_KEYS)
                name = payload.get("name")
                if not isinstance(name, str) or not name:
                    raise ApiError(
                        BAD_REQUEST, "drop_view needs 'name', a non-empty string"
                    )
                return {
                    "ok": True,
                    "v": WIRE_VERSION,
                    "data": self.drop_view(name, payload.get("dataset")),
                }
            return self.run(QueryRequest.from_dict(payload)).to_dict()
        except Exception as error:  # noqa: BLE001 - envelope boundary
            return error_envelope(error)

    def run_batch_dict(self, payloads: Sequence[dict]) -> list[dict]:
        """Batched wire entry point (queries only; appends go through
        :meth:`run_dict` one at a time -- batching writes with reads
        would make the version stamped on sibling responses ambiguous).

        A malformed member fails the whole batch with one error envelope
        per member (the engine pass is all-or-nothing; partial execution
        would make retries ambiguous).
        """
        try:
            requests = [QueryRequest.from_dict(payload) for payload in payloads]
            return [response.to_dict() for response in self.run_batch(requests)]
        except Exception as error:  # noqa: BLE001 - envelope boundary
            return [error_envelope(error) for _ in payloads]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GeoService(datasets={self.names})"
