"""One request key per single-region answer.

Every single-region request builds exactly one
:class:`~repro.cache.results.RequestKey`; the materialized-view store
keys its views by it and the result tier prefixes it with the scope's
token, predicate key and data version.
"""

from __future__ import annotations

import pytest

import repro.api.dataset as dataset_module
from repro.api import Dataset, QueryRequest, TieredCache
from repro.cache import RequestKey, request_key
from repro.cells import CellUnion
from repro.core import AggSpec
from repro.materialize import materializable

AGGS = ("count", "sum:fare", "avg:distance")
WHERE = {"col": "fare", "op": ">=", "value": 10}


@pytest.fixture
def key_calls(monkeypatch):
    """Every request_key call the serving paths make."""
    calls = []

    def counting(*args, **kwargs):
        key = request_key(*args, **kwargs)
        calls.append(key)
        return key

    monkeypatch.setattr(dataset_module, "request_key", counting)
    return calls


@pytest.fixture(params=["geoblock", "adaptive"])
def dataset(request, small_base):
    return Dataset.build(small_base, 13, request.param, name="taxi", cache=TieredCache())


class TestOneKeyPerRequest:
    def test_single_queries_build_one_key_each(self, dataset, key_calls, quad_polygon):
        request = QueryRequest(region=quad_polygon, aggregates=AGGS)
        served = []
        # Cold, result-tier hits, admission, then MV hits.
        for _ in range(5):
            response = dataset.query(request)
            served.append((response.stats.result_cached, response.stats.mv_cached))
        assert len(key_calls) == 5
        assert served[0] == (0, 0) and served[-1] == (1, 1)
        assert len(set(key_calls)) == 1

    @pytest.mark.parametrize(
        "hints", [{"count_only": True}, {"mode": "scalar"}, {"cache": False}]
    )
    def test_hinted_and_filtered_queries_build_one_key(self, dataset, key_calls, quad_polygon, hints):
        dataset.query(QueryRequest(region=quad_polygon, aggregates=AGGS, **hints))
        dataset.query(QueryRequest(region=quad_polygon, aggregates=AGGS, where=WHERE, **hints))
        assert len(key_calls) == 2

    def test_batch_members_build_one_key_each(self, dataset, key_calls, small_polygons):
        requests = [QueryRequest(region=polygon, aggregates=AGGS) for polygon in small_polygons[:4]]
        requests.append(QueryRequest(region=small_polygons[0], count_only=True))
        requests.append(QueryRequest(region=small_polygons[1], aggregates=AGGS, where=WHERE))
        dataset.run_batch(requests)
        assert len(key_calls) == len(requests)
        dataset.run_batch(requests)  # warm: every member probes, none executes
        assert len(key_calls) == 2 * len(requests)

    def test_grouped_requests_build_no_key(self, dataset, key_calls, small_polygons):
        features = [{"name": str(index), "region": polygon} for index, polygon in enumerate(small_polygons[:3])]
        dataset.query(QueryRequest(group_by=features, aggregates=AGGS))
        assert key_calls == []

    def test_views_and_result_tier_share_the_key(self, dataset, key_calls, quad_polygon):
        request = QueryRequest(region=quad_polygon, aggregates=AGGS)
        dataset.materialize(request, name="hot")
        (key,) = key_calls
        assert dataset.materialized.views()[0].key == key
        scope_key = dataset.cache_scope.key(key, dataset.block.aggregates.data_version)
        assert scope_key[-1] == key
        assert dataset.cache_scope.probe(scope_key) is not None


class TestRequestKey:
    def test_count_only_normalises_aggregates_mode_and_trie(self, quad_polygon):
        one = request_key(quad_polygon, [AggSpec("count")], "kernel", True, True)
        other = request_key(quad_polygon, [], "vector", False, True)
        assert one == other == RequestKey(one.fingerprint, "count_only", None, False, True)

    def test_value_keys_keep_every_component(self, quad_polygon):
        key = request_key(quad_polygon, [AggSpec("sum", "fare")], "vector", True, False)
        assert key.aggregates == "sum(fare)"
        assert (key.mode, key.trie, key.count_only) == ("vector", True, False)

    def test_cell_union_targets_have_no_key(self):
        assert request_key(CellUnion([]), [], "kernel", False, False) is None

    def test_scalar_model_is_not_materializable(self, quad_polygon):
        aggs = [AggSpec("count")]
        assert not materializable(request_key(quad_polygon, aggs, "scalar", False, False))
        assert materializable(request_key(quad_polygon, aggs, "kernel", False, False))
        assert materializable(request_key(quad_polygon, aggs, "scalar", False, True))
        assert not materializable(None)
