"""Admission-policy and store-bookkeeping unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, TieredCache
from repro.cache import RequestKey
from repro.cells import EARTH
from repro.engine.executor import QueryResult
from repro.geometry import Polygon
from repro.materialize import MaterializedStore, MaterializedView, QueryLog
from repro.storage import PointTable, Schema, extract

LEVEL = 14

REGION = Polygon([(-74.05, 40.65), (-73.85, 40.63), (-73.82, 40.80), (-74.02, 40.82)])


def make_base(count=4000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def make_dataset(**kwargs):
    kwargs.setdefault("cache", TieredCache())
    return Dataset.build(make_base(), LEVEL, "geoblock", name="taxi", **kwargs)


def stub_key(fingerprint):
    return RequestKey(fingerprint, "count_only", None, False, True)


def stub_view(name, key, pinned=False):
    from repro.cells.union import CellUnion

    return MaterializedView(
        name=name,
        region=REGION,
        aggs=(),
        key=key,
        covering=CellUnion(np.asarray([3], dtype=np.int64)),
        records=None,
        result=QueryResult(values={}, count=0),
        version=1,
        data_version=0,
        pinned=pinned,
    )


class TestQueryLog:
    def test_threshold_crossing(self):
        log = QueryLog(threshold=3)
        assert log.observe("k") is False
        assert log.observe("k") is False
        assert log.observe("k") is True
        # Admission retires the entry: the count restarts.
        assert log.observe("k") is False

    def test_capacity_evicts_least_recent(self):
        log = QueryLog(capacity=2, threshold=3)
        log.observe("a")
        log.observe("b")
        log.observe("c")  # evicts "a"
        log.observe("a")
        log.observe("a")
        assert log.observe("a") is True  # re-observed from scratch: 3 needed

    def test_forget(self):
        log = QueryLog(threshold=2)
        log.observe("k")
        log.forget("k")
        assert log.observe("k") is False


class TestStoreBookkeeping:
    def test_duplicate_key_and_name_raise(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=stub_key("k")))
        with pytest.raises(KeyError):
            store.admit(stub_view("b", key=stub_key("k")))
        with pytest.raises(KeyError):
            store.admit(stub_view("a", key=stub_key("other")))

    def test_eviction_skips_pinned(self):
        store = MaterializedStore(max_views=2)
        store.admit(stub_view("pinned", key=stub_key("p"), pinned=True))
        store.admit(stub_view("a", key=stub_key("a")))
        store.admit(stub_view("b", key=stub_key("b")))  # over bound: "a" evicts
        assert store.lookup(stub_key("p"), 0) is not None
        assert store.lookup(stub_key("a"), 0) is None
        assert store.lookup(stub_key("b"), 0) is not None
        assert store.evictions == 1

    def test_drop_and_clear(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=stub_key("a")))
        assert store.drop("missing") is None
        assert store.drop("a").name == "a"
        store.admit(stub_view("b", key=stub_key("b")))
        assert store.clear() == 1
        assert len(store) == 0

    def test_stats_shape(self):
        store = MaterializedStore()
        store.admit(stub_view("a", key=stub_key("a"), pinned=True))
        stats = store.stats()
        assert stats["views"] == 1
        assert stats["pinned"] == 1
        assert stats["admissions"] == 1
        assert stats["bytes"] > 0


class TestAutoAdmission:
    def request(self):
        return QueryRequest(
            region=REGION, dataset="taxi", aggregates=("count", "sum:fare")
        )

    def test_third_observation_admits(self):
        dataset = make_dataset()
        for _ in range(2):
            response = dataset.query(self.request())
            assert response.stats.mv_cached == 0
        dataset.query(self.request())  # third observation: admitted
        served = dataset.query(self.request())
        assert served.stats.mv_cached == 1
        # The MV hit still probes (and counts on) the result tier.
        assert served.stats.result_cached == 1
        assert dataset.materialized.stats()["admissions"] == 1
        assert not dataset.materialized.views()[0].pinned

    def test_cache_off_dataset_never_admits(self):
        dataset = make_dataset(result_cache=False)
        for _ in range(5):
            assert dataset.query(self.request()).stats.mv_cached == 0
        assert len(dataset.materialized) == 0

    def test_batch_members_serve_but_do_not_feed_admission(self):
        dataset = make_dataset()
        for _ in range(5):
            dataset.run_batch([self.request()])
        assert len(dataset.materialized) == 0  # batches never admit
        dataset.materialize(self.request(), name="hot")
        responses = dataset.run_batch([self.request()])
        assert responses[0].stats.mv_cached == 1  # but they do serve

    def test_explicit_invalidate_clears_views(self):
        dataset = make_dataset()
        dataset.materialize(self.request(), name="hot")
        assert len(dataset.materialized) == 1
        assert dataset.invalidate_cache() == 1  # result-tier count, as before
        assert len(dataset.materialized) == 0
