"""Tests for the updates extension (Section 5) and block persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import EARTH
from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock
from repro.core.serialize import load, save
from repro.core.updates import apply_batch, apply_update, apply_update_adaptive
from repro.errors import BuildError, QueryError
from repro.geometry import Polygon
from repro.storage import PointTable, Schema, extract

AGGS = [AggSpec("count"), AggSpec("sum", "fare"), AggSpec("min", "fare"), AggSpec("max", "fare")]


def _fresh_block(level: int = 13) -> tuple[GeoBlock, object]:
    rng = np.random.default_rng(55)
    count = 8000
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    base = extract(table, EARTH)
    return GeoBlock.build(base, level), base


class TestUpdates:
    def test_update_in_existing_cell(self, quad_polygon):
        block, base = _fresh_block()
        # Use an existing point's location: its cell aggregate exists.
        x, y = float(base.table.xs[100]), float(base.table.ys[100])
        before = block.select(quad_polygon, AGGS)
        in_place = apply_update(block, x, y, {"fare": 1000.0, "distance": 1.0})
        assert in_place
        after = block.select(quad_polygon, AGGS)
        if quad_polygon.contains_point(x, y):
            assert after.count == before.count + 1
            assert after["max(fare)"] == 1000.0
        assert block.header.total_count == 8001

    def test_update_in_new_region_splices(self):
        block, _ = _fresh_block()
        cells_before = block.num_cells
        # Far away from the data: no cell aggregate exists there.
        in_place = apply_update(block, -73.5, 40.95, {"fare": 5.0, "distance": 2.0})
        assert not in_place
        assert block.num_cells == cells_before + 1
        probe = Polygon.regular(-73.5, 40.95, 0.01, 4)
        assert block.count(probe) == 1

    def test_update_result_matches_rebuild(self):
        """Updating tuple-by-tuple equals rebuilding from scratch."""
        block, base = _fresh_block()
        rng = np.random.default_rng(6)
        new_xs = rng.normal(-73.95, 0.04, 50)
        new_ys = rng.normal(40.75, 0.03, 50)
        new_fare = rng.gamma(3.0, 4.0, 50)
        new_distance = rng.gamma(2.0, 2.0, 50)
        apply_batch(block, new_xs, new_ys, {"fare": new_fare, "distance": new_distance})

        merged = base.table.concat(
            PointTable(
                base.table.schema,
                new_xs,
                new_ys,
                {"fare": new_fare, "distance": new_distance},
            )
        )
        rebuilt = GeoBlock.build(extract(merged, EARTH), 13)
        region = Polygon.regular(-73.95, 40.75, 0.05, 8)
        updated_result = block.select(region, AGGS)
        rebuilt_result = rebuilt.select(region, AGGS)
        assert updated_result.count == rebuilt_result.count
        assert updated_result["sum(fare)"] == pytest.approx(rebuilt_result["sum(fare)"])
        assert updated_result["max(fare)"] == pytest.approx(rebuilt_result["max(fare)"])

    def test_offsets_stay_consistent(self):
        block, _ = _fresh_block()
        apply_update(block, -73.95, 40.75, {"fare": 1.0, "distance": 1.0})
        aggregates = block.aggregates
        rebuilt = np.concatenate([[aggregates.offsets[0]],
                                  aggregates.offsets[:-1] + aggregates.counts[:-1]])
        assert bool((aggregates.offsets == rebuilt).all())

    def test_missing_column_rejected(self):
        block, _ = _fresh_block()
        with pytest.raises(QueryError):
            apply_update(block, -73.95, 40.75, {"fare": 1.0})

    def test_adaptive_update_refreshes_cached_ancestors(self):
        block, base = _fresh_block()
        adaptive = AdaptiveGeoBlock(GeoBlock.build(base, 13), CachePolicy(threshold=1.0))
        region = Polygon.regular(-73.95, 40.75, 0.05, 8)
        for _ in range(3):
            adaptive.select(region, AGGS)
        adaptive.adapt()
        cached_before = adaptive.select(region, AGGS)
        assert cached_before.cache_hits > 0
        x, y = float(base.table.xs[0]), float(base.table.ys[0])
        inside = region.contains_point(x, y)
        apply_update_adaptive(adaptive, x, y, {"fare": 999.0, "distance": 0.5})
        cached_after = adaptive.select(region, AGGS)
        plain = adaptive.block.select(region, AGGS)
        # Cache and base agree after the update.
        assert cached_after.count == plain.count
        assert cached_after["sum(fare)"] == pytest.approx(plain["sum(fare)"])
        if inside:
            assert cached_after.count == cached_before.count + 1


class TestSerialization:
    def test_roundtrip(self, tmp_path, quad_polygon):
        block, _ = _fresh_block()
        path = tmp_path / "block.npz"
        save(block, path)
        loaded = load(path)
        assert loaded.level == block.level
        assert loaded.num_cells == block.num_cells
        original = block.select(quad_polygon, AGGS)
        restored = loaded.select(quad_polygon, AGGS)
        assert restored.count == original.count
        for key, value in original.values.items():
            if not np.isnan(value):
                assert restored.values[key] == pytest.approx(value)

    def test_roundtrip_preserves_count_path(self, tmp_path, quad_polygon):
        block, _ = _fresh_block()
        path = tmp_path / "block.npz"
        save(block, path)
        assert load(path).count(quad_polygon) == block.count(quad_polygon)

    def test_version_check(self, tmp_path):
        block, _ = _fresh_block()
        path = tmp_path / "block.npz"
        save(block, path)
        # Corrupt the version field.
        import json

        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(BuildError):
            load(path)

    def test_schema_kinds_roundtrip(self, tmp_path):
        from repro.storage import ColumnKind, ColumnSpec

        rng = np.random.default_rng(1)
        table = PointTable(
            Schema([ColumnSpec("ts", ColumnKind.TEMPORAL)]),
            rng.uniform(-74, -73.9, 100),
            rng.uniform(40.7, 40.8, 100),
            {"ts": rng.integers(0, 1000, 100)},
        )
        block = GeoBlock.build(extract(table, EARTH), 10)
        path = tmp_path / "temporal.npz"
        save(block, path)
        loaded = load(path)
        assert loaded.aggregates.schema.spec("ts").kind is ColumnKind.TEMPORAL
