"""Serialize round-trips for adaptive and sharded blocks, older sharded
archives, and atomic saves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaptiveGeoBlock, AggSpec, CachePolicy, GeoBlock, load, save, serialize
from repro.engine.shards import ShardedGeoBlock

AGGS = [
    AggSpec("count"),
    AggSpec("sum", "fare"),
    AggSpec("min", "fare"),
    AggSpec("max", "distance"),
    AggSpec("avg", "distance"),
]

LEVEL = 14


def assert_same_answers(want_block, got_block, polygons):  # noqa: ANN001
    for polygon in polygons:
        want = want_block.select(polygon, AGGS)
        got = got_block.select(polygon, AGGS)
        assert got.count == want.count
        assert got.cache_hits == want.cache_hits
        for key, value in want.values.items():
            if np.isnan(value):
                assert np.isnan(got.values[key])
            else:
                assert got.values[key] == value


def assert_bit_identical(wants, gots):  # noqa: ANN001
    assert len(gots) == len(wants)
    for want, got in zip(wants, gots):
        assert got.count == want.count
        for key, value in want.values.items():
            assert np.float64(got.values[key]).tobytes() == np.float64(value).tobytes(), key


class TestShardedRoundTrip:
    def test_sharded_block_survives_save_load(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "sharded.npz"
        save(block, path)
        loaded = load(path)
        assert isinstance(loaded, ShardedGeoBlock)
        assert loaded.num_shards == block.num_shards
        assert [(s.lo, s.hi, s.key_lo, s.key_hi) for s in loaded.shards] == [
            (s.lo, s.hi, s.key_lo, s.key_hi) for s in block.shards
        ]
        assert_same_answers(block, loaded, small_polygons)

    def test_sharded_batch_after_load(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL)
        path = tmp_path / "sharded.npz"
        save(block, path)
        loaded = load(path)
        for want, got in zip(
            block.run_batch(small_polygons, aggs=AGGS),
            loaded.run_batch(small_polygons, aggs=AGGS),
        ):
            assert got.count == want.count

    def test_curve_layout_round_trips_splits(self, small_base, small_polygons, tmp_path):
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        path = tmp_path / "curve.npz"
        save(block, path)
        with np.load(path) as archive:
            assert serialize.read_archive_meta(archive)["layout"] == "curve"
        loaded = load(path)
        assert isinstance(loaded, ShardedGeoBlock)
        assert np.array_equal(np.array(loaded.splits), np.array(block.splits))
        assert [(s.lo, s.hi, s.key_lo, s.key_hi) for s in loaded.shards] == [
            (s.lo, s.hi, s.key_lo, s.key_hi) for s in block.shards
        ]
        assert_same_answers(block, loaded, small_polygons)



class TestOlderShardedArchives:
    """Sharded archives without usable split points -- format v2 (a
    shard level only) and v3 files written with the retired "prefix"
    layout -- load as curve partitions that answer like the plain
    block, bit for bit."""

    @staticmethod
    def _rewrite(small_base, tmp_path, name: str, edit) -> ShardedGeoBlock:  # noqa: ANN001
        block = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        save(block, tmp_path / "current.npz")
        with np.load(tmp_path / "current.npz") as archive:
            meta = serialize.read_archive_meta(archive)
            arrays = {key: archive[key] for key in archive.files if key != "meta"}
        del meta["shard_splits"]
        edit(meta)
        path = tmp_path / name
        serialize.write_archive(path, meta, arrays)
        loaded = load(path)
        assert isinstance(loaded, ShardedGeoBlock)
        return loaded

    @staticmethod
    def _as_v2(meta: dict) -> None:
        meta["version"] = 2
        del meta["layout"]
        meta["shard_level"] = 11

    @staticmethod
    def _as_v3_prefix(meta: dict) -> None:
        meta["layout"] = "prefix"
        meta["shard_level"] = 11

    @pytest.fixture(params=["v2", "v3-prefix"])
    def legacy(self, request, small_base, tmp_path) -> ShardedGeoBlock:
        edit = self._as_v2 if request.param == "v2" else self._as_v3_prefix
        return self._rewrite(small_base, tmp_path, f"{request.param}.npz", edit)

    def test_loads_as_curve_partition(self, legacy):
        from repro.cells import sfc

        assert legacy.splits is not None
        assert legacy.num_shards >= 1
        assert legacy.shards[0].key_lo == 0
        assert legacy.shards[-1].key_hi == sfc.KEY_SPACE
        assert legacy.shards[0].lo == 0
        assert legacy.shards[-1].hi == legacy.num_cells

    def test_answers_bit_identical_to_plain(self, legacy, small_base, small_polygons):
        plain = GeoBlock.build(small_base, LEVEL)
        polygons = list(small_polygons) * 4  # force the fan-out path
        assert_bit_identical(
            [plain.select(polygon, AGGS) for polygon in small_polygons],
            [legacy.select(polygon, AGGS) for polygon in small_polygons],
        )
        assert_bit_identical(
            plain.run_batch(polygons, aggs=AGGS), legacy.run_batch(polygons, aggs=AGGS)
        )
        want_rows, want_total = plain.run_grouped(small_polygons, aggs=AGGS)
        got_rows, got_total = legacy.run_grouped(small_polygons, aggs=AGGS)
        assert_bit_identical([*want_rows, want_total], [*got_rows, got_total])


class TestAdaptiveRoundTrip:
    @pytest.fixture()
    def warmed(self, small_base, small_polygons) -> AdaptiveGeoBlock:
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL),
            CachePolicy(threshold=0.5, rebuild_every=500),
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        return adaptive

    def test_trie_and_statistics_survive(self, warmed, small_polygons, tmp_path):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        # Policy round-trips.
        assert loaded.policy.threshold == warmed.policy.threshold
        assert loaded.policy.rebuild_every == warmed.policy.rebuild_every
        # Statistics round-trip exactly.
        assert loaded.statistics.queries_recorded == warmed.statistics.queries_recorded
        cells, hits = warmed.statistics.export_counts()
        for cell, count in zip(cells.tolist(), hits.tolist()):
            assert loaded.statistics.hits(cell) == count
        # Trie round-trips: same layout, same cached cells.
        assert loaded.trie is not None
        assert loaded.trie.root_cell == warmed.trie.root_cell
        assert loaded.trie.num_nodes == warmed.trie.num_nodes
        assert loaded.trie.num_cached == warmed.trie.num_cached
        assert loaded.trie.memory_bytes() == warmed.trie.memory_bytes()
        assert loaded.trie.cached_cells() == warmed.trie.cached_cells()

    def test_identical_query_answers_with_cache_hits(
        self, warmed, small_polygons, tmp_path
    ):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        assert_same_answers(warmed, loaded, small_polygons)
        # The loaded cache actually answers queries.
        hit_totals = sum(
            loaded.select(p, AGGS).cache_hits for p in small_polygons
        )
        assert hit_totals > 0

    def test_adapt_continues_from_persisted_statistics(
        self, warmed, small_polygons, tmp_path
    ):
        path = tmp_path / "adaptive.npz"
        save(warmed, path)
        loaded = load(path)
        trie = loaded.adapt()  # rebuild purely from persisted statistics
        assert trie.num_cached == warmed.trie.num_cached

    def test_cold_adaptive_round_trip(self, small_base, small_polygons, tmp_path):
        """No trie yet: statistics-only persistence."""
        adaptive = AdaptiveGeoBlock(GeoBlock.build(small_base, LEVEL))
        for polygon in small_polygons[:4]:
            adaptive.select(polygon, AGGS)
        path = tmp_path / "cold.npz"
        save(adaptive, path)
        loaded = load(path)
        assert loaded.trie is None
        assert loaded.statistics.queries_recorded == 4
        assert_same_answers(adaptive, loaded, small_polygons)

    def test_cache_refreshes_survive_save_load(self, warmed, small_polygons, tmp_path):
        """Regression: apply_update_adaptive mutates the trie's live
        record rows; persistence must capture those, not the build-time
        array, or loaded blocks silently answer with stale aggregates."""
        from repro.core import apply_update_adaptive

        # Update inside a cached region so a trie record is refreshed.
        polygon = small_polygons[0]
        box = polygon.bounding_box
        x = (box.min_x + box.max_x) / 2
        y = (box.min_y + box.max_y) / 2
        apply_update_adaptive(warmed, x, y, {"fare": 1000.0, "distance": 1.0})
        path = tmp_path / "updated.npz"
        save(warmed, path)
        loaded = load(path)
        assert_same_answers(warmed, loaded, small_polygons)

    def test_sharded_base_block_round_trips(self, small_base, small_polygons, tmp_path):
        adaptive = AdaptiveGeoBlock(
            ShardedGeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5)
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        path = tmp_path / "adaptive-sharded.npz"
        save(adaptive, path)
        loaded = load(path)
        assert isinstance(loaded.block, ShardedGeoBlock)
        assert_same_answers(adaptive, loaded, small_polygons)


class TestUnifiedSaveLoad:
    """The kind-dispatching save()/load() pair."""

    def _handles(self, small_base, small_polygons):
        plain = GeoBlock.build(small_base, LEVEL)
        sharded = ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)
        adaptive = AdaptiveGeoBlock(
            GeoBlock.build(small_base, LEVEL), CachePolicy(threshold=0.5)
        )
        for polygon in small_polygons:
            adaptive.select(polygon, AGGS)
        adaptive.adapt()
        return {"geoblock": plain, "sharded": sharded, "adaptive": adaptive}

    def test_load_restores_each_kind(self, small_base, small_polygons, tmp_path):
        for kind, block in self._handles(small_base, small_polygons).items():
            path = tmp_path / f"{kind}.npz"
            save(block, path)
            loaded = load(path)
            assert type(loaded) is type(block)
            assert_same_answers(block, loaded, small_polygons)

    def test_kind_property_matches_serialized_kind(self, small_base):
        assert GeoBlock.build(small_base, LEVEL).kind == "geoblock"
        assert ShardedGeoBlock.build(small_base, LEVEL).kind == "sharded"


class TestAtomicSave:
    def test_writes_exactly_the_named_path(self, small_base, tmp_path):
        """No ``.npz`` is appended to a bare name, and no temporary file
        is left behind."""
        block = GeoBlock.build(small_base, LEVEL)
        path = tmp_path / "block"
        save(block, path)
        assert [entry.name for entry in tmp_path.iterdir()] == ["block"]
        assert load(path).num_cells == block.num_cells

    def test_failed_save_keeps_the_old_file(self, small_base, small_polygons, tmp_path, monkeypatch):
        old = GeoBlock.build(small_base, LEVEL)
        path = tmp_path / "block.npz"
        save(old, path)
        before = path.read_bytes()

        def torn(handle, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(serialize.np, "savez_compressed", torn)
        with pytest.raises(OSError, match="disk full"):
            save(GeoBlock.build(small_base, LEVEL - 2), path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["block.npz"]
        assert_same_answers(old, load(path), small_polygons)
