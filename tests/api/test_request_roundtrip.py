"""Request/response wire round-trips and strict parsing."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ApiError,
    QueryRequest,
    QueryResponse,
    QueryStats,
    format_agg,
    parse_agg,
)
from repro.api.errors import BAD_AGGREGATE, BAD_HINT, BAD_REGION, BAD_REQUEST
from repro.core import AggSpec
from repro.geometry import BoundingBox, MultiPolygon, Polygon

SQUARE = [[-74.0, 40.7], [-73.9, 40.7], [-73.9, 40.8], [-74.0, 40.8], [-74.0, 40.7]]

REGIONS = [
    Polygon.regular(-73.95, 40.75, 0.05, 6),
    MultiPolygon([Polygon.regular(-73.95, 40.75, 0.02, 4), Polygon.regular(-73.8, 40.6, 0.02, 5)]),
    BoundingBox(-74.0, 40.7, -73.9, 40.8),
    {"type": "Polygon", "coordinates": [SQUARE]},
    {"bbox": [-74.0, 40.7, -73.9, 40.8]},
]

AGG_COMBOS = [
    None,  # default: count
    ["count"],
    ["count:*"],
    ["sum:fare"],
    ["count", "sum:fare", "avg:fare", "min:fare", "max:distance"],
    [AggSpec("avg", "fare"), "count"],  # mixed programmatic + wire specs
]

HINT_COMBOS = [
    {},
    {"mode": "vector"},
    {"mode": "scalar"},
    {"cache": False},
    {"count_only": True},
    {"mode": "scalar", "cache": False, "count_only": True},
]


class TestRequestRoundTrip:
    @pytest.mark.parametrize("region", REGIONS)
    @pytest.mark.parametrize("aggs", AGG_COMBOS)
    def test_region_and_aggregate_combinations(self, region, aggs):
        request = (
            QueryRequest(region=region)
            if aggs is None
            else QueryRequest(region=region, aggregates=aggs)
        )
        wire = request.to_dict()
        assert QueryRequest.from_dict(wire).to_dict() == wire
        json.dumps(wire)  # JSON-compatible by construction

    @pytest.mark.parametrize("region", REGIONS)
    @pytest.mark.parametrize("hints", HINT_COMBOS)
    def test_hint_combinations(self, region, hints):
        request = QueryRequest(
            region=region,
            dataset="taxi",
            mode=hints.get("mode"),
            cache=hints.get("cache", True),
            count_only=hints.get("count_only", False),
        )
        wire = request.to_dict()
        parsed = QueryRequest.from_dict(wire)
        assert parsed.to_dict() == wire
        assert parsed.mode == request.mode
        assert parsed.cache == request.cache
        assert parsed.count_only == request.count_only
        assert parsed.dataset == "taxi"

    def test_defaults_are_omitted_from_wire_form(self):
        wire = QueryRequest(region=REGIONS[0]).to_dict()
        assert set(wire) == {"v", "region", "aggregates"}
        assert wire["v"] == 2
        assert wire["aggregates"] == ["count"]

    def test_bbox_region_keeps_compact_form(self):
        wire = QueryRequest(region={"bbox": [0.0, 0.0, 1.0, 1.0]}).to_dict()
        assert wire["region"] == {"bbox": [0.0, 0.0, 1.0, 1.0]}

    def test_target_is_stable_across_calls(self):
        """Covering caches key on region identity, so a reused request
        must resolve its bbox to the same polygon object every time."""
        request = QueryRequest(region=BoundingBox(0.0, 0.0, 1.0, 1.0))
        assert request.target is request.target


class TestStrictParsing:
    def test_missing_region(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"v": 2, "aggregates": ["count"]})
        assert excinfo.value.code == BAD_REQUEST

    def test_unknown_top_level_key(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"v": 2, "region": {"bbox": [0, 0, 1, 1]}, "aggrgates": ["count"]})
        assert excinfo.value.code == BAD_REQUEST
        assert excinfo.value.details["unknown"] == ["aggrgates"]

    def test_unknown_hint(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict(
                {"v": 2, "region": {"bbox": [0, 0, 1, 1]}, "hints": {"mod": "scalar"}}
            )
        assert excinfo.value.code == BAD_HINT

    def test_bad_mode(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict(
                {"v": 2, "region": {"bbox": [0, 0, 1, 1]}, "hints": {"mode": "turbo"}}
            )
        assert excinfo.value.code == BAD_HINT

    @pytest.mark.parametrize("spec", ["", "median:fare", "sum", "sum:", 7, None])
    def test_bad_aggregate_specs(self, spec):
        with pytest.raises(ApiError) as excinfo:
            parse_agg(spec)
        assert excinfo.value.code == BAD_AGGREGATE

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
    def test_bbox_needs_finite_numbers(self, bad):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict({"v": 2, "region": {"bbox": [0, 0, 1, bad]}})
        assert excinfo.value.code == BAD_REGION

    def test_non_dict_payload(self):
        with pytest.raises(ApiError) as excinfo:
            QueryRequest.from_dict("region=...")
        assert excinfo.value.code == BAD_REQUEST


class TestAggSpecStrings:
    @pytest.mark.parametrize(
        ("text", "spec"),
        [
            ("count", AggSpec("count")),
            ("count:*", AggSpec("count")),
            ("sum:fare", AggSpec("sum", "fare")),
            ("AVG: tip_rate ", AggSpec("avg", "tip_rate")),
        ],
    )
    def test_parse(self, text, spec):
        assert parse_agg(text) == spec

    def test_format_is_inverse_of_parse(self):
        for text in ("count", "sum:fare", "avg:tip_rate", "min:x", "max:y"):
            assert format_agg(parse_agg(text)) == text


class TestResponseRoundTrip:
    def test_success_envelope(self):
        response = QueryResponse(
            values={"count(*)": 12.0, "sum(fare)": 88.5},
            count=12,
            stats=QueryStats(cells_probed=9, cache_hits=4, latency_ms=1.25),
            dataset="taxi",
        )
        wire = response.to_dict()
        assert wire["ok"] is True
        back = QueryResponse.from_dict(json.loads(json.dumps(wire)))
        assert back == response

    def test_error_envelope_reraises(self):
        envelope = {
            "ok": False,
            "error": {"code": "unknown_dataset", "message": "unknown dataset 'x'"},
        }
        with pytest.raises(ApiError) as excinfo:
            QueryResponse.from_dict(envelope)
        assert excinfo.value.code == "unknown_dataset"

    def test_unrecognised_error_code_still_raises_api_error(self):
        """A server with a newer code set must surface as ApiError on
        this client, never as a ValueError from code validation."""
        envelope = {"ok": False, "error": {"code": "rate_limited", "message": "slow down"}}
        with pytest.raises(ApiError) as excinfo:
            QueryResponse.from_dict(envelope)
        assert excinfo.value.code == "internal"
        assert excinfo.value.details["code"] == "rate_limited"

    def test_getitem_reads_values(self):
        response = QueryResponse(values={"sum(fare)": 3.5}, count=1)
        assert response["sum(fare)"] == 3.5
