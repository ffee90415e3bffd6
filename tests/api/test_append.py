"""The write path: appends, versioning, view propagation, error gaps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ApiError,
    AppendRequest,
    Dataset,
    GeoService,
    QueryRequest,
    col,
    region_to_geojson,
)
from repro.api.errors import BAD_REQUEST, UNSUPPORTED_OP
from repro.cells import EARTH
from repro.core import AggSpec, CachePolicy
from repro.engine.shards import ShardedGeoBlock
from repro.storage import PointTable, Schema, extract

LEVEL = 14

AGG_STRINGS = ["count", "sum:fare", "min:fare", "max:distance", "avg:distance"]


def make_base(count=8000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def make_rows(count=60, seed=7):
    rng = np.random.default_rng(seed)
    return [
        {
            "x": float(x),
            "y": float(y),
            "fare": float(fare),
            "distance": float(distance),
        }
        for x, y, fare, distance in zip(
            rng.normal(-73.93, 0.06, count),
            rng.normal(40.74, 0.05, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


def rebuilt_base(base, rows):
    """Base data of original tuples plus the appended rows."""
    table = base.table
    xs = np.concatenate([table.xs, [row["x"] for row in rows]])
    ys = np.concatenate([table.ys, [row["y"] for row in rows]])
    columns = {
        name: np.concatenate([table.column(name), [row[name] for row in rows]])
        for name in table.schema.names
    }
    return extract(PointTable(table.schema, xs, ys, columns), EARTH)


def build_dataset(base, kind, **kwargs):
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    return Dataset.build(base, LEVEL, kind, name="taxi", **kwargs)


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


class TestAppendThenQueryParity:
    def test_matches_fresh_rebuild(self, kind, small_polygons):
        """The acceptance gate: append followed by a query answers like
        a from-scratch rebuild over the combined rows, on every kind."""
        base = make_base()
        dataset = build_dataset(base, kind)
        rows = make_rows()
        response = dataset.append(rows)
        assert response.appended == len(rows)
        assert response.version == 2
        fresh = build_dataset(rebuilt_base(base, rows), kind)
        for polygon in small_polygons[:6]:
            got = dataset.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            want = fresh.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == pytest.approx(value, rel=1e-12)

    def test_adaptive_trie_refreshes_in_place(self, small_polygons):
        """Cached trie records absorb appended rows (Section 5's
        root-to-leaf refresh) -- cached answers match a cache bypass."""
        base = make_base()
        dataset = build_dataset(base, "adaptive")
        for polygon in small_polygons:
            dataset.handle.select(polygon, [AggSpec("count"), AggSpec("sum", "fare")])
        dataset.handle.adapt()
        dataset.append(make_rows())
        for polygon in small_polygons[:6]:
            cached = dataset.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            direct = dataset.query(
                QueryRequest(region=polygon, aggregates=AGG_STRINGS, cache=False)
            )
            assert cached.count == direct.count
            for key, value in direct.values.items():
                if np.isnan(value):
                    assert np.isnan(cached.values[key])
                else:
                    assert cached.values[key] == pytest.approx(value, rel=1e-12)


class TestVersioning:
    def test_version_bumps_monotonically_and_stamps_responses(self, quad_polygon):
        dataset = build_dataset(make_base(), "geoblock")
        request = QueryRequest(region=quad_polygon, dataset="taxi")
        assert dataset.query(request).version == 1
        first = dataset.append(make_rows(5, seed=1))
        assert first.version == 2
        second = dataset.append(make_rows(5, seed=2))
        assert second.version == 3
        assert dataset.version == 3
        assert dataset.query(request).version == 3
        [batched] = dataset.run_batch([request])
        assert batched.version == 3

    def test_describe_reports_version(self):
        dataset = build_dataset(make_base(), "geoblock")
        dataset.append(make_rows(3))
        assert dataset.describe()["version"] == 2


class TestViewPropagation:
    def test_matching_rows_reach_views(self, quad_polygon):
        dataset = build_dataset(make_base(), "geoblock")
        view = dataset.view(col("distance") >= 4)
        before = view.query(QueryRequest(region=quad_polygon)).count
        rows = [
            {"x": -73.95, "y": 40.75, "fare": 10.0, "distance": 9.0},  # matches
            {"x": -73.95, "y": 40.75, "fare": 10.0, "distance": 1.0},  # filtered out
        ]
        dataset.append(rows)
        after = view.query(QueryRequest(region=quad_polygon))
        assert after.count == before + 1
        assert after.version == dataset.version == 2

    def test_view_append_parity_with_rebuild(self, kind, small_polygons):
        """Views updated through parent appends answer like a filtered
        dataset rebuilt from the combined base."""
        base = make_base()
        dataset = build_dataset(base, kind)
        predicate = col("distance") >= 4
        dataset.view(predicate)  # materialise before the append
        rows = make_rows()
        dataset.append(rows)
        fresh = Dataset.build(rebuilt_base(base, rows), LEVEL, predicate=predicate)
        for polygon in small_polygons[:4]:
            got = dataset.query(QueryRequest(region=polygon, where=predicate, aggregates=AGG_STRINGS))
            want = fresh.query(QueryRequest(region=polygon, aggregates=AGG_STRINGS))
            assert got.count == want.count
            for key, value in want.values.items():
                if np.isnan(value):
                    assert np.isnan(got.values[key])
                else:
                    assert got.values[key] == pytest.approx(value, rel=1e-12)

    def test_replay_is_immune_to_caller_row_mutation(self, quad_polygon):
        """Appended rows are snapshotted: a caller mutating its dicts
        afterwards must not corrupt later view replays (code-review
        regression)."""
        dataset = build_dataset(make_base(), "geoblock")
        row = {"x": -73.95, "y": 40.75, "fare": 10.0, "distance": 9.0}
        dataset.append([row])
        row["distance"] = 0.0  # would fail the view predicate if read
        view = dataset.view(col("distance") >= 4)
        got = view.query(QueryRequest(region=quad_polygon)).count
        fresh = build_dataset(make_base(), "geoblock")
        fresh_count = fresh.view(col("distance") >= 4).query(
            QueryRequest(region=quad_polygon)
        ).count
        assert got == fresh_count + 1

    def test_view_created_after_append_sees_rows(self, quad_polygon):
        """Views rebuild from the retained base, which predates earlier
        appends -- the parent replays the qualifying appended rows into
        freshly built views so they agree with its block."""
        dataset = build_dataset(make_base(), "geoblock")
        before = build_dataset(make_base(), "geoblock").view(
            col("distance") >= 4
        ).query(QueryRequest(region=quad_polygon)).count
        dataset.append([{"x": -73.95, "y": 40.75, "fare": 10.0, "distance": 9.0}])
        view = dataset.view(col("distance") >= 4)
        assert view.version == dataset.version
        assert view.query(QueryRequest(region=quad_polygon)).count == before + 1


class TestUnsupportedAndErrors:
    def test_append_to_view_unsupported(self):
        dataset = build_dataset(make_base(), "geoblock")
        view = dataset.view(col("distance") >= 4)
        with pytest.raises(ApiError) as excinfo:
            view.append(make_rows(2))
        assert excinfo.value.code == UNSUPPORTED_OP
        assert "filtered view" in excinfo.value.message

    def test_fluent_where_append_unsupported(self):
        dataset = build_dataset(make_base(), "geoblock")
        with pytest.raises(ApiError) as excinfo:
            dataset.over({"bbox": [-74.0, 40.7, -73.9, 40.8]}).where(
                col("distance") >= 4
            ).append(make_rows(2))
        assert excinfo.value.code == UNSUPPORTED_OP
        # The rejected write must not have built (and cached) the view
        # it was never going to append to (code-review regression).
        assert len(dataset._views) == 0

    def test_fluent_grouped_append_unsupported(self, small_polygons):
        """A grouped builder must reject .append the same way a
        filtered one does -- silently writing the whole dataset would
        discard the scoping the caller expressed (code-review
        regression)."""
        from repro.api import region_to_geojson

        dataset = build_dataset(make_base(), "geoblock")
        fc = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "properties": {"name": "a"},
                 "geometry": region_to_geojson(small_polygons[0])},
            ],
        }
        with pytest.raises(ApiError) as excinfo:
            dataset.group_by(fc).append(make_rows(2))
        assert excinfo.value.code == UNSUPPORTED_OP
        assert dataset.version == 1  # nothing was written

    def test_wire_append_error_is_enveloped_not_raised(self):
        service = GeoService()
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        view_payload = {"v": 2, "op": "append", "dataset": "taxi", "rows": [{"x": 1}]}
        envelope = service.run_dict(view_payload)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == BAD_REQUEST  # malformed row

    def test_malformed_rows_rejected_atomically(self, quad_polygon):
        dataset = build_dataset(make_base(), "geoblock")
        count_before = dataset.query(QueryRequest(region=quad_polygon)).count
        rows = make_rows(3) + [{"x": -73.95, "y": 40.75, "fare": 1.0}]  # missing distance
        with pytest.raises(ApiError) as excinfo:
            dataset.append(rows)
        assert excinfo.value.code == BAD_REQUEST
        assert "distance" in excinfo.value.message
        assert dataset.version == 1  # nothing applied
        assert dataset.query(QueryRequest(region=quad_polygon)).count == count_before

    @pytest.mark.parametrize("x, y", [(float("nan"), 40.75), (-73.95, float("inf"))])
    def test_non_finite_coordinates_rejected_atomically(self, x, y):
        """Extract drops such points, so a rebuild could never contain
        the row; the wire answer is a typed bad_request, not internal."""
        service = GeoService()
        dataset = service.register("taxi", build_dataset(make_base(), "geoblock"))
        rows = make_rows(2) + [{"x": x, "y": y, "fare": 1.0, "distance": 1.0}]
        envelope = service.run_dict({"v": 2, "op": "append", "dataset": "taxi", "rows": rows})
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == BAD_REQUEST
        assert "non-finite" in envelope["error"]["message"]
        assert dataset.version == 1

    def test_empty_rows_rejected(self):
        dataset = build_dataset(make_base(), "geoblock")
        with pytest.raises(ApiError):
            dataset.append([])

    def test_append_requires_v2_envelope(self):
        with pytest.raises(ApiError) as excinfo:
            AppendRequest.from_dict({"op": "append", "rows": [{"x": 1}]})
        assert excinfo.value.code == BAD_REQUEST
        assert "v2" in excinfo.value.message or "v1" in excinfo.value.message


class TestWirePath:
    def test_append_round_trip_and_service_dispatch(self, quad_polygon):
        service = GeoService()
        dataset = build_dataset(make_base(), "geoblock")
        service.register("taxi", dataset)
        rows = make_rows(10)
        request = AppendRequest(rows=rows, dataset="taxi")
        assert AppendRequest.from_dict(request.to_dict()).to_dict() == request.to_dict()
        envelope = service.run_dict(request.to_dict())
        assert envelope["ok"] is True
        assert envelope["data"]["appended"] == 10
        assert envelope["version"] == 2
        follow_up = service.run_dict(
            {"v": 2, "dataset": "taxi", "region": region_to_geojson(quad_polygon)}
        )
        assert follow_up["version"] == 2

    def test_programmatic_service_append(self):
        service = GeoService()
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        response = service.append("taxi", make_rows(4))
        assert response.appended == 4
        assert response.dataset == "taxi"

    def test_append_unknown_dataset_envelope(self):
        service = GeoService()
        service.register("taxi", build_dataset(make_base(), "geoblock"))
        envelope = service.run_dict(
            {"v": 2, "op": "append", "dataset": "nope", "rows": make_rows(1)}
        )
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "unknown_dataset"


class TestShardedBookkeeping:
    def test_append_keeps_partition_contiguous(self):
        dataset = build_dataset(make_base(), "sharded")
        handle = dataset.handle
        assert isinstance(handle, ShardedGeoBlock)
        dataset.append(make_rows(20))
        # Partition stays contiguous after splices.
        bounds = [(shard.lo, shard.hi) for shard in handle.shards]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == handle.num_cells
        for (_, prev_hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert next_lo == prev_hi
