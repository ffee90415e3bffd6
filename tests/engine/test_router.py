"""PartitionRouter: pruning, conservativeness, epoch invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import EARTH, cellid, sfc
from repro.cells.union import CellUnion
from repro.core.updates import apply_update
from repro.engine.shards import ShardedGeoBlock

LEVEL = 14


@pytest.fixture(scope="module")
def curve_block(small_base) -> ShardedGeoBlock:
    return ShardedGeoBlock.build(small_base, LEVEL, shard_count=8)


@pytest.fixture(scope="module")
def fine_block(small_base) -> ShardedGeoBlock:
    return ShardedGeoBlock.build(small_base, LEVEL, shard_count=32)


def brute_force_candidates(block, ids) -> set[int]:
    """Per-cell Python reference for the vectorised interval routing."""
    lo, hi = sfc.cell_key_spans(np.asarray(ids, dtype=np.int64))
    hits: set[int] = set()
    for m, M in zip(lo.tolist(), hi.tolist()):
        for idx, shard in enumerate(block.shards):
            if shard.key_lo < M and shard.key_hi > m:
                hits.add(idx)
    return hits


class TestRouting:
    def test_empty_union_prunes_everything(self, curve_block):
        decision = curve_block.router.route(CellUnion(np.empty(0, dtype=np.int64)))
        assert decision.candidates.size == 0
        assert decision.total == curve_block.num_shards
        assert decision.pruned == curve_block.num_shards

    def test_candidates_cover_every_matching_row(self, curve_block):
        """Conservativeness: any shard owning a covered cell's row must
        be a candidate."""
        keys = curve_block.aggregates.keys
        rng = np.random.default_rng(23)
        sample = np.sort(rng.choice(keys, size=40, replace=False))
        decision = curve_block.router.route(CellUnion(sample, assume_sorted=True))
        candidates = set(decision.candidates.tolist())
        rows = np.searchsorted(keys, sample)
        for row in rows.tolist():
            owner = next(
                idx
                for idx, s in enumerate(curve_block.shards)
                if s.lo <= row < s.hi
            )
            assert owner in candidates

    @pytest.mark.parametrize("shards", [8, 32])
    def test_matches_brute_force(self, shards, curve_block, fine_block):
        block = curve_block if shards == 8 else fine_block
        keys = block.aggregates.keys
        rng = np.random.default_rng(31)
        sample = rng.choice(keys, size=30, replace=False)
        # Mixed-level covering, as a real coverer produces: coarse
        # parents plus fine cells outside them (unions must be disjoint).
        parents = np.unique(
            np.array([cellid.parent(int(k), 10) for k in sample[:10]], dtype=np.int64)
        )
        parent_set = set(parents.tolist())
        fine = np.array(
            [
                int(k)
                for k in sample[10:]
                if cellid.parent(int(k), 10) not in parent_set
            ],
            dtype=np.int64,
        )
        union = CellUnion(np.concatenate([fine, parents]))
        decision = block.router.route(union)
        assert set(decision.candidates.tolist()) == brute_force_candidates(
            block, union.ids
        )

    def test_some_pruning_on_clustered_data(self, curve_block):
        """A tight covering over one corner of the data should not touch
        all eight shards."""
        keys = curve_block.aggregates.keys
        union = CellUnion(keys[:5].copy(), assume_sorted=True)
        decision = curve_block.router.route(union)
        assert 0 < decision.candidates.size < curve_block.num_shards
        assert decision.pruned > 0


class TestSegmentOwners:
    def test_inside_boundary_and_empty(self, curve_block):
        router = curve_block.router
        s0, s1 = curve_block.shards[0], curve_block.shards[1]
        lo = np.array([s0.lo, s0.hi - 1, s0.lo], dtype=np.int64)
        hi = np.array([s0.hi - 1, s1.lo + 1, s0.lo], dtype=np.int64)
        owners = router.segment_owners(lo, hi)
        assert owners[0] == 0  # fully inside shard 0
        assert owners[1] == -1  # spans the 0/1 boundary
        assert owners[2] == -1  # empty segment

    def test_owner_agrees_with_partition(self, curve_block):
        router = curve_block.router
        n = curve_block.num_cells
        rng = np.random.default_rng(37)
        lo = rng.integers(0, n - 1, 64, dtype=np.int64)
        hi = lo + rng.integers(1, 50, 64, dtype=np.int64)
        hi = np.minimum(hi, n)
        owners = router.segment_owners(lo, hi)
        for a, b, owner in zip(lo.tolist(), hi.tolist(), owners.tolist()):
            inside = [
                idx
                for idx, s in enumerate(curve_block.shards)
                if s.lo <= a and b <= s.hi
            ]
            if owner == -1:
                assert not inside
            else:
                assert owner in inside


class TestEpochInvalidation:
    def _fresh(self) -> ShardedGeoBlock:
        from repro.storage import PointTable, Schema, extract

        rng = np.random.default_rng(55)
        count = 4000
        table = PointTable(
            Schema(["fare"]),
            rng.normal(-73.95, 0.04, count),
            rng.normal(40.75, 0.03, count),
            {"fare": rng.gamma(3.0, 4.0, count)},
        )
        return ShardedGeoBlock.build(extract(table, EARTH), 13, shard_count=4)

    def test_in_place_update_keeps_cache(self):
        block = self._fresh()
        epoch = block.partition_epoch
        block.router.route(CellUnion(block.aggregates.keys[:3].copy()))
        apply_update(block, -73.95, 40.75, {"fare": 9.0})
        assert block.partition_epoch == epoch  # rows did not move
        assert block.router._layout()[0] == epoch

    def test_splice_bumps_epoch_and_refreshes_cache(self):
        block = self._fresh()
        epoch = block.partition_epoch
        router = block.router
        router.route(CellUnion(block.aggregates.keys[:3].copy()))
        assert router._cache[0] == epoch
        in_place = apply_update(block, -73.5, 40.95, {"fare": 5.0})
        assert not in_place
        assert block.partition_epoch > epoch
        # Next routing call rebuilds the layout for the new epoch and
        # still covers all rows.
        router.route(CellUnion(block.aggregates.keys[:3].copy()))
        assert router._cache[0] == block.partition_epoch
        starts = router._cache[3]
        assert starts[0] == 0
        assert bool((np.diff(starts) >= 0).all())
