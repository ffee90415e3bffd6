"""MV sidecar persistence: round-trip, warm restart, stamp guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Dataset, QueryRequest, TieredCache
from repro.cells import EARTH
from repro.core import CachePolicy
from repro.geometry import Polygon
from repro.materialize import sidecar_path
from repro.storage import PointTable, Schema, extract

LEVEL = 14

AGGS = ("count", "sum:fare", "min:fare", "avg:distance")

REGION = Polygon([(-74.05, 40.65), (-73.85, 40.63), (-73.82, 40.80), (-74.02, 40.82)])


def make_base(count=6000, seed=55):
    rng = np.random.default_rng(seed)
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    return extract(table, EARTH)


def build_dataset(kind="geoblock", seed=55, **kwargs):
    if kind == "adaptive":
        kwargs.setdefault("policy", CachePolicy(threshold=0.5))
    elif kind == "sharded":
        kwargs.setdefault("shard_count", 8)
    kwargs.setdefault("cache", TieredCache())
    return Dataset.build(make_base(seed=seed), LEVEL, kind, name="taxi", **kwargs)


def request(**kwargs) -> QueryRequest:
    kwargs.setdefault("aggregates", AGGS)
    return QueryRequest(region=REGION, dataset="taxi", **kwargs)


@pytest.fixture(params=["geoblock", "sharded", "adaptive"])
def kind(request) -> str:
    return request.param


class TestRoundTrip:
    def test_views_survive_save_open_bit_identically(self, kind, tmp_path):
        dataset = build_dataset(kind)
        dataset.materialize(request(), name="hot")
        dataset.materialize(request(count_only=True, aggregates=()), name="hot-count")
        want = dataset.query(request())
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert sidecar_path(path).exists()

        reopened = Dataset.open(path, name="taxi")
        assert len(reopened.materialized) == 2
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()
        count_served = reopened.query(request(count_only=True, aggregates=()))
        assert count_served.stats.mv_cached == 1
        assert count_served.count == want.count

    def test_pinned_and_hits_survive(self, tmp_path):
        dataset = build_dataset()
        dataset.materialize(request(), name="hot")
        dataset.query(request())
        dataset.query(request())
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        view = Dataset.open(path).materialized.views()[0]
        assert view.name == "hot"
        assert view.pinned
        assert view.hits == 2

    def test_refresh_still_exact_after_reopen(self, kind, tmp_path):
        """The restored records must keep refreshing bit-identically --
        the JSON/npz round-trip preserved every byte."""
        dataset = build_dataset(kind)
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        reopened = Dataset.open(path, name="taxi")
        rng = np.random.default_rng(3)
        rows = [
            {
                "x": float(x),
                "y": float(y),
                "fare": float(fare),
                "distance": float(distance),
            }
            for x, y, fare, distance in zip(
                rng.normal(-73.93, 0.05, 40),
                rng.normal(40.74, 0.05, 40),
                rng.gamma(3.0, 4.0, 40),
                rng.gamma(2.0, 2.0, 40),
            )
        ]
        reopened.append(rows)
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        block = reopened.block
        cold = block.executor.select(
            block.plan(request().target), list(request().aggregates), mode=block.query_mode
        )
        assert served.count == cold.count
        for key, value in cold.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()


class TestSidecarGuards:
    def test_empty_store_removes_stale_sidecar(self, tmp_path):
        dataset = build_dataset()
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert sidecar_path(path).exists()
        dataset.drop_view("hot")
        dataset.save(path)
        assert not sidecar_path(path).exists()

    def test_content_stamp_mismatch_yields_empty_store(self, tmp_path):
        from repro.core.serialize import save

        dataset = build_dataset(seed=55)
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        # Rebuild the block file out-of-band from different data: the
        # sidecar must refuse to serve answers for it.
        other = build_dataset(seed=77)
        save(other.handle, path)
        reopened = Dataset.open(path)
        assert len(reopened.materialized) == 0

    def test_missing_sidecar_is_fine(self, tmp_path):
        dataset = build_dataset()
        path = tmp_path / "taxi.npz"
        dataset.save(path)
        assert not sidecar_path(path).exists()
        assert len(Dataset.open(path).materialized) == 0


def make_rows(count=40, seed=3):
    rng = np.random.default_rng(seed)
    return [
        {"x": float(x), "y": float(y), "fare": float(fare), "distance": float(distance)}
        for x, y, fare, distance in zip(
            rng.normal(-73.93, 0.05, count),
            rng.normal(40.74, 0.05, count),
            rng.gamma(3.0, 4.0, count),
            rng.gamma(2.0, 2.0, count),
        )
    ]


class TestCrashMidSave:
    """Saves are atomic: a write that dies partway leaves the previous
    block and sidecar on disk, never a torn archive."""

    @staticmethod
    def fail_on_write(monkeypatch, call: int) -> None:
        """Make the ``call``-th archive write (1 = block, 2 = sidecar)
        emit half an archive and then raise."""
        from repro.core import serialize

        real = serialize.np.savez_compressed
        calls = []

        def torn(handle, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003
            calls.append(handle)
            if len(calls) != call:
                return real(handle, *args, **kwargs)
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(serialize.np, "savez_compressed", torn)

    def test_failed_block_write_keeps_old_block_and_views(self, kind, tmp_path, monkeypatch):
        dataset = build_dataset(kind)
        dataset.materialize(request(), name="hot")
        want = dataset.query(request())
        old_keys = dataset.block.aggregates.keys.copy()
        old_counts = dataset.block.aggregates.counts.copy()
        path = tmp_path / "taxi.npz"
        dataset.save(path)

        dataset.append(make_rows())
        dataset.materialize(request(count_only=True, aggregates=()), name="hot-count")
        self.fail_on_write(monkeypatch, call=1)
        with pytest.raises(OSError, match="disk full"):
            dataset.save(path)
        monkeypatch.undo()

        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["taxi.mv.npz", "taxi.npz"]
        reopened = Dataset.open(path, name="taxi")
        assert np.array_equal(reopened.block.aggregates.keys, old_keys)
        assert np.array_equal(reopened.block.aggregates.counts, old_counts)
        assert [view.name for view in reopened.materialized.views()] == ["hot"]
        served = reopened.query(request())
        assert served.stats.mv_cached == 1
        assert served.count == want.count
        for key, value in want.values.items():
            assert np.float64(served.values[key]).tobytes() == np.float64(value).tobytes()

    def test_failed_sidecar_write_never_serves_stale_views(self, tmp_path, monkeypatch):
        dataset = build_dataset()
        dataset.materialize(request(), name="hot")
        path = tmp_path / "taxi.npz"
        dataset.save(path)

        dataset.append(make_rows())
        self.fail_on_write(monkeypatch, call=2)
        with pytest.raises(OSError, match="disk full"):
            dataset.save(path)
        monkeypatch.undo()

        # The new block landed whole; the old sidecar's content stamp
        # no longer matches it, so no view answers for the wrong data.
        reopened = Dataset.open(path, name="taxi")
        assert np.array_equal(reopened.block.aggregates.keys, dataset.block.aggregates.keys)
        assert len(reopened.materialized) == 0
        assert reopened.query(request()).count == dataset.query(request()).count
