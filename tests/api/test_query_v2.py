"""Query v2: grouped requests, filtered views, envelopes, versioning."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from repro.api import (
    ApiError,
    Dataset,
    GeoService,
    QueryRequest,
    QueryResponse,
    col,
    features_from_geojson,
    parse_features,
    region_to_geojson,
)
from repro.api.errors import (
    BAD_PREDICATE,
    BAD_REGION,
    BAD_REQUEST,
    UNKNOWN_COLUMN,
    UNSUPPORTED_OP,
)
from repro.core import AggSpec, CachePolicy

LEVEL = 14

AGG_STRINGS = ["count", "sum:fare", "min:fare", "max:distance", "avg:distance"]

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "distance"),
]


def feature(polygon, name=None, **extra):
    payload = {
        "type": "Feature",
        "properties": {"name": name} if name else {},
        "geometry": region_to_geojson(polygon),
    }
    payload.update(extra)
    return payload


def collection(polygons, names=None):
    names = names or [f"zone_{index}" for index in range(len(polygons))]
    return {
        "type": "FeatureCollection",
        "features": [feature(polygon, name) for polygon, name in zip(polygons, names)],
    }


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def dataset(request, small_base, small_polygons) -> Dataset:
    kind = request.param
    if kind == "adaptive":
        built = Dataset.build(
            small_base, LEVEL, kind, name="small", policy=CachePolicy(threshold=0.5)
        )
        # Populate the trie so grouped execution exercises cache hits.
        for polygon in small_polygons:
            built.handle.select(polygon, AGGS)
        built.handle.adapt()
    elif kind == "sharded":
        built = Dataset.build(small_base, LEVEL, kind, name="small", shard_count=8)
    else:
        built = Dataset.build(small_base, LEVEL, kind, name="small")
    return built


class TestFeatureParsing:
    def test_named_features(self, small_polygons):
        named = features_from_geojson(collection(small_polygons[:3], ["a", "b", "c"]))
        assert [name for name, _ in named] == ["a", "b", "c"]

    def test_id_and_positional_fallbacks(self, small_polygons):
        payload = {
            "type": "FeatureCollection",
            "features": [
                feature(small_polygons[0], "named"),
                feature(small_polygons[1], None, id=17),
                feature(small_polygons[2], None),
                region_to_geojson(small_polygons[3]),  # bare geometry member
            ],
        }
        named = features_from_geojson(payload)
        assert [name for name, _ in named] == ["named", "17", "feature_2", "feature_3"]

    def test_empty_collection_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            features_from_geojson({"type": "FeatureCollection", "features": []})
        assert excinfo.value.code == BAD_REGION

    def test_mixed_geometry_types(self, small_polygons):
        from repro.geometry import MultiPolygon

        multi = MultiPolygon([small_polygons[0], small_polygons[1]])
        payload = {
            "type": "FeatureCollection",
            "features": [feature(small_polygons[2], "poly"), feature(multi, "multi")],
        }
        named = features_from_geojson(payload)
        assert isinstance(named[1][1], MultiPolygon)

    def test_unsupported_member_geometry_blames_feature(self, small_polygons):
        payload = {
            "type": "FeatureCollection",
            "features": [
                feature(small_polygons[0], "ok"),
                {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": [0, 1]}},
            ],
        }
        with pytest.raises(ApiError) as excinfo:
            features_from_geojson(payload)
        assert excinfo.value.code == BAD_REGION
        assert excinfo.value.details.get("feature") == 1

    def test_named_region_list_with_bbox(self):
        named = parse_features(
            [
                {"name": "box", "region": {"bbox": [-74.0, 40.7, -73.9, 40.8]}},
                {"region": {"bbox": [-74.1, 40.6, -74.0, 40.7]}},
            ]
        )
        assert [name for name, _ in named] == ["box", "feature_1"]

    def test_duplicate_names_rejected(self, small_polygons):
        with pytest.raises(ApiError) as excinfo:
            parse_features(collection(small_polygons[:2], ["dup", "dup"]))
        assert excinfo.value.code == BAD_REGION

    @pytest.mark.parametrize(
        "payload",
        [
            7,
            {"type": "GeometryCollection"},
            [],
            [{"name": "x"}],  # missing region
            [{"name": "x", "region": {"bbox": [0, 0, 1, 1]}, "extra": 1}],
            [{"name": 5, "region": {"bbox": [0, 0, 1, 1]}}],
            ["not-a-member"],
        ],
    )
    def test_malformed_group_by(self, payload):
        with pytest.raises(ApiError):
            parse_features(payload)


class TestGroupByParity:
    def test_grouped_bit_identical_to_sequential(self, dataset, small_polygons):
        """The acceptance gate: one group-by over N features answers
        bit-identically to N sequential single-region requests, and
        the grouped pass reuses the planner's covering cache across
        features (asserted via QueryStats.covering_cached)."""
        fc = collection(small_polygons)
        grouped_request = QueryRequest(
            group_by=fc, aggregates=AGG_STRINGS, dataset="small"
        )
        # Sequential requests over the same compiled regions (the
        # dashboard's old N-request pattern; same identities warm the
        # planner's covering LRU).
        sequential = [
            dataset.query(QueryRequest(region=target, aggregates=AGG_STRINGS, dataset="small"))
            for _, target in grouped_request.feature_targets
        ]
        grouped = dataset.query(grouped_request)
        assert grouped.groups is not None and len(grouped.groups) == len(sequential)
        for row, want in zip(grouped.groups, sequential):
            assert row.count == want.count
            assert set(row.values) == set(want.values)
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(row.values[key])
                else:
                    assert row.values[key] == value  # exact, not approx
        assert grouped.stats.covering_cached >= 1
        assert grouped.stats.covering_cached == len(small_polygons)

    def test_rollup_folds_per_feature_rows(self, dataset, small_polygons):
        fc = collection(small_polygons[:5])
        response = dataset.query(
            QueryRequest(group_by=fc, aggregates=AGG_STRINGS, dataset="small")
        )
        rows = response.groups
        assert response.count == sum(row.count for row in rows)
        assert response.values["sum(fare)"] == math.fsum(
            row.values["sum(fare)"] for row in rows
        )
        finite_mins = [
            row.values["min(fare)"] for row in rows if not np.isnan(row.values["min(fare)"])
        ]
        assert response.values["min(fare)"] == min(finite_mins)
        weighted = math.fsum(
            row.values["avg(distance)"] * row.count for row in rows if row.count
        )
        assert response.values["avg(distance)"] == pytest.approx(
            weighted / response.count, rel=1e-12
        )

    def test_grouped_count_only(self, dataset, small_polygons):
        fc = collection(small_polygons[:4])
        response = dataset.query(
            QueryRequest(group_by=fc, dataset="small", count_only=True)
        )
        counts = [dataset.handle.count(target) for _, target in
                  QueryRequest(group_by=fc).feature_targets]
        assert [row.count for row in response.groups] == counts
        assert response.count == sum(counts)
        assert response.values == {}

    def test_group_lookup_by_name(self, dataset, small_polygons):
        fc = collection(small_polygons[:3], ["a", "b", "c"])
        response = dataset.query(QueryRequest(group_by=fc, dataset="small"))
        assert response.group("b").count == response.groups[1].count
        with pytest.raises(KeyError):
            response.group("missing")

    def test_grouped_in_run_batch_preserves_order(self, dataset, small_polygons):
        requests = [
            QueryRequest(region=small_polygons[0], dataset="small"),
            QueryRequest(group_by=collection(small_polygons[1:4]), dataset="small"),
            QueryRequest(region=small_polygons[4], dataset="small"),
        ]
        responses = dataset.run_batch(requests)
        assert len(responses) == 3
        assert responses[0].groups is None
        assert len(responses[1].groups) == 3
        assert responses[0].count == dataset.handle.count(requests[0].target)


class TestFilteredViews:
    WHERE = {"col": "distance", "op": ">=", "value": 4}

    def test_where_matches_fresh_filtered_build(self, dataset, small_base, small_polygons):
        """A 'where' query answers exactly like a dataset built with the
        predicate from scratch (the paper's per-filter GeoBlock)."""
        fresh = Dataset.build(
            small_base,
            LEVEL,
            dataset.kind,
            predicate=col("distance") >= 4,
            shard_count=8 if dataset.kind == "sharded" else None,
        )
        for polygon in small_polygons[:4]:
            got = dataset.query(
                QueryRequest(region=polygon, aggregates=AGG_STRINGS, dataset="small", where=self.WHERE)
            )
            want = fresh.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == value

    def test_view_is_cached_per_predicate_key(self, dataset):
        first = dataset.view(self.WHERE)
        second = dataset.view(col("distance") >= 4)
        assert first is second  # wire dict and expression share the key
        assert dataset.view({"col": "distance", "op": ">=", "value": 5}) is not first

    def test_view_keeps_kind_and_level(self, dataset):
        view = dataset.view(self.WHERE)
        assert view.kind == dataset.kind
        assert view.level == dataset.level
        assert view.is_view and not dataset.is_view
        if dataset.kind == "sharded":
            assert np.array_equal(view.handle.splits, dataset.handle.splits)

    def test_view_of_view_composes_conjunctively(self, dataset):
        view = dataset.view(self.WHERE)
        nested = view.view({"col": "fare", "op": "<", "value": 30})
        composed = dataset.view((col("distance") >= 4) & (col("fare") < 30))
        assert nested is composed

    def test_nested_view_on_filtered_root_shares_cache_key(self, small_base):
        """On a root built with its own predicate, a nested view and
        the equivalent direct view must resolve to ONE cached block --
        composing the root predicate twice would build and cache a
        duplicate (code-review regression)."""
        root = Dataset.build(small_base, LEVEL, name="rich", predicate=col("fare") > 1)
        nested = root.view(col("distance") >= 4).view(col("fare") < 30)
        direct = root.view((col("distance") >= 4) & (col("fare") < 30))
        assert nested is direct
        assert len(root._views) == 2  # the intermediate view + the composed one

    def test_unknown_column_rejected(self, dataset):
        with pytest.raises(ApiError) as excinfo:
            dataset.view({"col": "surge_fee", "op": ">", "value": 0})
        assert excinfo.value.code == UNKNOWN_COLUMN

    def test_malformed_predicate_maps_to_bad_predicate(self, dataset, small_polygons):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest(
                region=small_polygons[0],
                where={"col": "fare", "op": "LIKE", "value": 1},
            )
        assert excinfo.value.code == BAD_PREDICATE

    def test_root_build_predicate_composes_with_where(self, small_base, small_polygons):
        """A dataset built with its own filter must answer 'where'
        queries over the *conjunction* -- never rows its own predicate
        excludes (code-review regression)."""
        filtered_root = Dataset.build(
            small_base, LEVEL, name="rich", predicate=col("fare") > 20
        )
        combined = Dataset.build(
            small_base, LEVEL, predicate=(col("fare") > 20) & (col("distance") >= 4)
        )
        for polygon in small_polygons[:4]:
            got = filtered_root.query(
                QueryRequest(region=polygon, dataset="rich", where=self.WHERE)
            )
            want = combined.query(QueryRequest(region=polygon))
            assert got.count == want.count

    def test_near_identical_predicates_get_distinct_views(self, small_base):
        """6-significant-digit display collisions must not alias views
        (code-review regression)."""
        dataset = Dataset.build(small_base, LEVEL, name="small")
        first = dataset.view({"col": "fare", "op": ">=", "value": 1234567.0})
        second = dataset.view({"col": "fare", "op": ">=", "value": 1234568.0})
        assert first is not second

    def test_view_cache_is_bounded_lru(self, small_base):
        from repro.api.dataset import MAX_VIEWS

        dataset = Dataset.build(small_base, LEVEL, name="small")
        first = dataset.view({"col": "fare", "op": ">=", "value": 0.0})
        for value in range(1, MAX_VIEWS + 4):
            dataset.view({"col": "fare", "op": ">=", "value": float(value)})
        assert len(dataset._views) == MAX_VIEWS
        # The first view was least recently used and evicted; asking
        # again rebuilds an equivalent (but fresh) dataset.
        rebuilt = dataset.view({"col": "fare", "op": ">=", "value": 0.0})
        assert rebuilt is not first
        assert rebuilt.block.predicate.key == first.block.predicate.key

    def test_view_without_base_data_unsupported(self, small_block, small_polygons):
        bare = Dataset(small_block, name="bare")  # no base retained
        with pytest.raises(ApiError) as excinfo:
            bare.query(QueryRequest(region=small_polygons[0], where=self.WHERE))
        assert excinfo.value.code == UNSUPPORTED_OP

    def test_where_with_group_by(self, dataset, small_base, small_polygons):
        fc = collection(small_polygons[:3])
        got = dataset.query(
            QueryRequest(group_by=fc, aggregates=["count", "sum:fare"], dataset="small", where=self.WHERE)
        )
        fresh = Dataset.build(small_base, LEVEL, predicate=col("distance") >= 4)
        for row, (_, target) in zip(got.groups, QueryRequest(group_by=fc).feature_targets):
            want = fresh.query(QueryRequest(region=target, aggregates=["count", "sum:fare"]))
            assert row.count == want.count


class TestEnvelopes:
    def test_v2_request_round_trip(self, small_polygons):
        request = QueryRequest(
            group_by=collection(small_polygons[:2], ["a", "b"]),
            aggregates=["count", "sum:fare"],
            dataset="taxi",
            where={"col": "fare", "op": ">", "value": 10},
        )
        wire = request.to_dict()
        assert wire["v"] == 2
        assert QueryRequest.from_dict(wire).to_dict() == wire
        json.dumps(wire)

    def test_region_and_group_by_are_exclusive(self, small_polygons):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest(region=small_polygons[0], group_by=collection(small_polygons[:2]))
        assert excinfo.value.code == BAD_REQUEST
        with pytest.raises(ApiError):
            QueryRequest()

    def test_unsupported_version_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"v": 3, "region": {"bbox": [0, 0, 1, 1]}})
        assert excinfo.value.code == BAD_REQUEST

    def test_v2_keys_need_v2_envelope(self, small_polygons):
        payload = {
            "region": region_to_geojson(small_polygons[0]),
            "where": {"col": "fare", "op": ">", "value": 1},
        }
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict(payload)
        assert excinfo.value.code == BAD_REQUEST
        assert "v2" in excinfo.value.message

    def test_v1_envelope_rejected(self, small_polygons):
        payload = {"v": 1, "region": region_to_geojson(small_polygons[0])}
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict(payload)
        assert excinfo.value.code == BAD_REQUEST

    def test_grouped_response_round_trip(self, dataset, small_polygons):
        response = dataset.query(
            QueryRequest(group_by=collection(small_polygons[:3]), dataset="small")
        )
        wire = json.loads(json.dumps(response.to_dict()))
        back = QueryResponse.from_dict(wire)
        assert back == response
        assert back.version == dataset.version
        assert wire["v"] == 2


class TestEnvelopeVersion:
    """Every wire dict must say ``"v": 2``; the versionless v1 envelope
    is gone and answers a typed ``bad_request``."""

    @pytest.fixture()
    def service(self, small_block) -> GeoService:
        service = GeoService()
        service.register("only", Dataset(small_block))
        return service

    @staticmethod
    def assert_needs_v2(envelope: dict) -> None:
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == BAD_REQUEST
        assert '"v": 2' in envelope["error"]["message"]

    def test_versionless_run_dict_is_bad_request(self, service, quad_polygon):
        self.assert_needs_v2(service.run_dict({"region": region_to_geojson(quad_polygon)}))

    def test_versionless_batch_fails_every_member(self, service, quad_polygon):
        region = region_to_geojson(quad_polygon)
        envelopes = service.run_batch_dict([{"v": 2, "region": region}, {"region": region}])
        assert len(envelopes) == 2
        for envelope in envelopes:
            self.assert_needs_v2(envelope)

    @pytest.mark.parametrize("version", [1, 3, "2", None])
    def test_other_versions_are_bad_request(self, service, quad_polygon, version):
        envelope = service.run_dict({"v": version, "region": region_to_geojson(quad_polygon)})
        self.assert_needs_v2(envelope)

    def test_versionless_query_dict_raises(self, small_block, quad_polygon):
        with pytest.raises(ApiError) as caught:
            Dataset(small_block).query_dict({"region": region_to_geojson(quad_polygon)})
        assert caught.value.code == BAD_REQUEST

    def test_versionless_append_is_bad_request(self, service):
        self.assert_needs_v2(service.run_dict({"op": "append", "rows": [{"x": 0.0, "y": 0.0}]}))

    def test_v2_payload_never_warns(self, service, quad_polygon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            envelope = service.run_dict({"v": 2, "region": region_to_geojson(quad_polygon)})
        assert envelope["ok"] is True
        assert "cache_hits" not in envelope["stats"]
        assert "covering_cached" not in envelope["stats"]
