"""Sharded GeoBlocks: curve-key partitioning of the aggregate array.

A :class:`ShardedGeoBlock` behaves exactly like a plain
:class:`~repro.core.geoblock.GeoBlock` -- same construction, query, and
serialisation API -- but partitions its sorted aggregate array into
independent shards: **equi-depth ranges of the space-filling-curve key
space**.  The aggregate array is sorted by cell id, and cell-id order
*is* curve order (:mod:`repro.cells.sfc`), so any key interval is a
contiguous row range -- the partition stays zero-copy -- while the
split points adapt to the data: the cost model
(:mod:`repro.engine.cost`) places them at tuple-weighted quantiles of
the key distribution, so skewed data still yields balanced shards.
Explicit ``shard_count=`` / ``splits=`` overrides keep layouts
reproducible.

Every shard carries both its row range ``[lo, hi)`` and its curve-key
range ``[key_lo, key_hi)``; the latter is what the
:class:`~repro.engine.router.PartitionRouter` intersects a query's
covering cells against, so shards no covering cell touches are pruned
*before* any work is scheduled -- they never enter the thread pool.
Routing decisions surface as ``shards_total`` / ``shards_pruned`` on
every :class:`~repro.engine.executor.QueryResult`.

What sharding buys:

* **batched execution fans out per shard**: the executor's dominant
  fold -- segment partials under the kernel model, record
  materialisation under the vector model -- is split at shard
  boundaries and dispatched to a thread pool, one numpy segment
  per shard (threads release the GIL inside numpy reductions);
* **partition pruning**: clustered workloads touch a handful of curve
  ranges, and the router proves the remaining shards disjoint from
  int64 interval arithmetic alone;
* **cheap incremental updates**: an update through ``core/updates.py``
  that splices a new cell grows the owning shard (routed by curve key)
  and shifts its successors in O(num_shards) instead of re-deriving
  the whole partition.

Caching: a sharded block plans through the same tiered cache handle as
every other block (:mod:`repro.cache`).  The covering and result tiers
take one lock per operation, so the handle is safe to use from the
batch fan-out pool below -- shard workers only *read* materialisation
inputs, and any cache traffic they generate serialises on the tier
lock, never on planner state.  ``from_block`` and ``coarsened`` keep
the source block's cache binding, so a service-configured private
cache survives re-wrapping.

Note on float determinism: results are bit-identical to the unsharded
block, including sums, whatever the split points.  Ranges contained in
one shard (the common case) fan out per shard; ranges *spanning* a
shard boundary are materialised over the full row range of the shared
arrays -- the partition is zero-copy, so the full range is directly
addressable -- which reproduces the plain block's fold order exactly.
Merging rounded per-shard float partials (even with ``math.fsum``)
cannot do that: the unsharded ``np.sum`` fold has its own rounding
sequence, and no combination of the partials recovers its bits.
Pruning cannot perturb results either: the router's candidate set is
conservative (it only drops shards whose key range no covering cell
intersects), and the executor's owner bucketing never scheduled empty
buckets in the first place -- routing changes what is *submitted*,
never what is *summed*.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.cells import cellid, cellops
from repro.core.aggregates import AggSpec, CellAggregates
from repro.core.geoblock import GeoBlock
from repro.engine import kernels
from repro.engine.cost import CostModel
from repro.engine.executor import Executor, QueryResult
from repro.engine.kernels import SegmentPartials
from repro.engine.router import PartitionRouter
from repro.errors import BuildError
from repro.storage.etl import PHASE_BUILDING, BaseData
from repro.storage.expr import ALWAYS_TRUE, Predicate
from repro.util.timing import Stopwatch

#: Below this many distinct ranges a thread pool costs more than it
#: saves; the executor then materialises inline.
MIN_RANGES_FOR_FANOUT = 32


class Shard:
    """One contiguous row range of the block's aggregate arrays, owning
    one half-open curve-key range."""

    __slots__ = ("lo", "hi", "key_lo", "key_hi")

    def __init__(self, lo: int, hi: int, key_lo: int, key_hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.key_lo = key_lo  #: first leaf curve key owned (inclusive)
        self.key_hi = key_hi  #: one past the last leaf curve key owned

    def __len__(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Shard(keys=[{self.key_lo}, {self.key_hi}), rows=[{self.lo}, {self.hi}))"


class ShardedExecutor(Executor):
    """Executor whose batch folds fan out per shard: record
    materialisation for the vector model, segment partials for the
    kernel model.  Routing telemetry is attached to every result."""

    def select(
        self,
        plan,  # noqa: ANN001 - QueryPlan
        aggs: Sequence[AggSpec] | None = None,
        mode: str | None = None,
    ) -> QueryResult:
        return self._with_routing(plan, super().select(plan, aggs, mode))

    def run_batch(
        self,
        items,  # noqa: ANN001 - Sequence[tuple[QueryPlan, aggs]]
        mode: str | None = None,
    ) -> list[QueryResult]:
        results = super().run_batch(items, mode)
        return [
            self._with_routing(plan, result)
            for (plan, _), result in zip(items, results)
        ]

    def _with_routing(self, plan, result: QueryResult) -> QueryResult:  # noqa: ANN001
        """Attach the router's pruning decision to a result.

        The decision is pure int64 interval arithmetic over the shard
        table (no aggregate data is touched) and describes exactly what
        execution submitted: the owner bucketing below only ever
        schedules segments inside candidate shards.
        """
        decision = self._block.router.route(plan.union)
        return replace(
            result, shards_total=decision.total, shards_pruned=decision.pruned
        )

    def segment_partials(
        self, lo: np.ndarray, hi: np.ndarray, columns: Sequence[str]
    ) -> SegmentPartials:
        """Kernel-model stage 1, fanned out per shard.

        Segments are bucketed by owning shard through the router's
        vectorised interval search and each bucket reduces on a pool
        worker over the *shared* zero-copy arrays.  Per-segment partials
        are independent of the partition (each worker gathers the same
        rows the plain executor would), so the merge is a pure scatter
        and the PR-4 determinism note holds trivially: boundary-spanning
        segments reduce over the full row range on whichever worker
        draws them, reproducing the unsharded fold order bit for bit.
        """
        block: "ShardedGeoBlock" = self._block  # type: ignore[assignment]
        if block.num_shards <= 1 or lo.size < MIN_RANGES_FOR_FANOUT:
            return super().segment_partials(lo, hi, columns)
        # -1 buckets boundary-spanning and empty segments together;
        # both are safe on any worker (full arrays are addressable,
        # empties reduce to the identity).
        owner = block.router.segment_owners(lo, hi)
        out = SegmentPartials.identity(int(lo.size), columns)
        aggregates = self.aggregates

        def bucket_partials(positions: np.ndarray) -> tuple[np.ndarray, SegmentPartials]:
            return positions, kernels.segment_partials(
                aggregates, lo[positions], hi[positions], columns
            )

        buckets = [
            np.flatnonzero(owner == shard_index)
            for shard_index in np.unique(owner).tolist()
        ]
        for positions, partials in block.thread_pool.map(bucket_partials, buckets):
            out.scatter_from(partials, positions)
        return out

    def materialise_slices(
        self, pairs: Sequence[tuple[int, int]]
    ) -> dict[tuple[int, int], np.ndarray]:
        block: "ShardedGeoBlock" = self._block  # type: ignore[assignment]
        shards = block.shards
        if len(shards) <= 1 or len(pairs) < MIN_RANGES_FOR_FANOUT:
            return super().materialise_slices(pairs)
        # Bucket each range by its owning shard (one vectorised interval
        # search via the router).  Boundary-spanning ranges form their
        # own buckets and are materialised over the *full* row range:
        # the shards are contiguous views of one shared array, so the
        # full range is directly addressable, and computing it whole
        # keeps the fold order -- and therefore every float sum bit --
        # identical to the unsharded block (see the module note).
        pair_lo = np.fromiter((pair[0] for pair in pairs), dtype=np.int64, count=len(pairs))
        pair_hi = np.fromiter((pair[1] for pair in pairs), dtype=np.int64, count=len(pairs))
        owner = block.router.segment_owners(pair_lo, pair_hi)
        per_shard: list[list[tuple[int, int, int]]] = [[] for _ in shards]
        spanning: list[tuple[int, int, int]] = []
        for pair_index, (lo, hi) in enumerate(pairs):
            if hi <= lo:
                continue
            shard_index = int(owner[pair_index])
            if shard_index >= 0:
                per_shard[shard_index].append((pair_index, lo, hi))
            else:
                spanning.append((pair_index, lo, hi))
        aggregates = self.aggregates

        def shard_records(work: list[tuple[int, int, int]]) -> list[tuple[int, np.ndarray]]:
            return [
                (pair_index, aggregates.slice_record(lo, hi))
                for pair_index, lo, hi in work
            ]

        busy = [work for work in per_shard if work]
        if spanning:
            # Spread spanning ranges across the pool too -- one bucket
            # would serialise them on a single worker.
            step = max(1, -(-len(spanning) // (self._block.max_workers or 1)))
            busy.extend(
                spanning[start : start + step] for start in range(0, len(spanning), step)
            )
        chunks = list(block.thread_pool.map(shard_records, busy))
        records: dict[tuple[int, int], np.ndarray] = {}
        computed: dict[int, np.ndarray] = {}
        for chunk in chunks:
            for pair_index, record in chunk:
                computed[pair_index] = record
        for pair_index, pair in enumerate(pairs):
            record = computed.get(pair_index)
            if record is None:
                # Empty ranges land here by design (slice_record yields
                # the combine identity for them).
                record = aggregates.slice_record(pair[0], pair[1])
            records[pair] = record
        return records


class ShardedGeoBlock(GeoBlock):
    """A GeoBlock partitioned into contiguous curve-key shards.

    Drop-in replacement: every inherited query path works unchanged
    (shards are ranges over the same sorted arrays); only batch
    execution, routing telemetry, and update bookkeeping differ.
    """

    def __init__(
        self,
        space,  # noqa: ANN001 - CellSpace
        level: int,
        aggregates: CellAggregates,
        predicate: Predicate = ALWAYS_TRUE,
        max_workers: int | None = None,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> None:
        if shard_count is not None and splits is not None:
            raise BuildError("pass shard_count or explicit splits, not both")
        if shard_count is not None and shard_count <= 0:
            raise BuildError(f"shard_count must be positive, got {shard_count}")
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._shards: list[Shard] = []
        self._shard_count_hint = shard_count
        self._splits = None if splits is None else np.asarray(splits, dtype=np.int64)
        self._cost = cost or CostModel()
        self._partition_epoch = 0
        self._router: PartitionRouter | None = None
        super().__init__(space, level, aggregates, predicate)
        self._rebuild_shards()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        base: BaseData,
        level: int,
        predicate: Predicate = ALWAYS_TRUE,
        stopwatch: Stopwatch | None = None,
        max_workers: int | None = None,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> "ShardedGeoBlock":
        """Build from sorted base data, then partition by curve key."""
        watch = stopwatch or Stopwatch()
        with watch.phase(PHASE_BUILDING):
            filtered = base if isinstance(predicate, type(ALWAYS_TRUE)) else base.filtered(predicate)
            aggregates = CellAggregates.build(filtered, level)
        return cls(
            base.space,
            level,
            aggregates,
            predicate,
            max_workers=max_workers,
            shard_count=shard_count,
            splits=splits,
            cost=cost,
        )

    @classmethod
    def from_block(
        cls,
        block: GeoBlock,
        max_workers: int | None = None,
        shard_count: int | None = None,
        splits: Sequence[int] | np.ndarray | None = None,
        cost: CostModel | None = None,
    ) -> "ShardedGeoBlock":
        """Re-wrap an existing block's aggregates (zero-copy)."""
        wrapped = cls(
            block.space,
            block.level,
            block.aggregates,
            block.predicate,
            max_workers=max_workers,
            shard_count=shard_count,
            splits=splits,
            cost=cost,
        )
        wrapped.planner.use_cache(block.planner.cache)
        return wrapped

    def coarsened(self, level: int) -> "ShardedGeoBlock":
        """A coarser *sharded* block (drop-in contract: coarsening must
        not silently lose the shard fan-out and update bookkeeping).

        Curve splits are ranges of the level-independent leaf key
        space, so the coarse block reuses the parent's split points --
        same routing boundaries, recomputed row bounds.
        """
        return ShardedGeoBlock.from_block(
            super().coarsened(level),
            splits=self._splits,
            shard_count=self._shard_count_hint if self._splits is None else None,
            max_workers=self._max_workers,
            cost=self._cost,
        )

    def _make_executor(self) -> Executor:
        return ShardedExecutor(self)

    def _rebuild_shards(self) -> None:
        """Derive the partition from the sorted key array.

        Split points come from the cost model's equi-depth plan on first
        derivation and are *kept* across rebuilds, so a re-partition
        after appends preserves the routing boundaries (and therefore
        every serialized layout) -- only the row bounds move.
        """
        self._partition_epoch += 1
        keys = self._aggregates.keys
        if keys.size == 0:
            self._shards = []
            return
        bounds = self._splits
        if bounds is None:
            workers = self._max_workers or os.cpu_count() or 1
            plan = self._cost.plan(
                keys,
                self._aggregates.counts,
                shard_count=self._shard_count_hint,
                workers=workers,
            )
            bounds = plan.bounds
            self._splits = bounds
        rows = np.searchsorted(keys, cellops.leaf_ids_from_pos(bounds[1:-1]), side="left")
        row_bounds = [0, *rows.tolist(), int(keys.size)]
        self._shards = [
            Shard(row_bounds[i], row_bounds[i + 1], int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(row_bounds) - 1)
        ]

    # -- accessors -------------------------------------------------------

    @property
    def kind(self) -> str:
        """Block-kind discriminator ("sharded"); see :class:`GeoBlock`."""
        return "sharded"

    @property
    def splits(self) -> np.ndarray | None:
        """Curve-key split bounds (full ``[0, ..., KEY_SPACE]`` array;
        ``None`` before any keys exist)."""
        return self._splits

    @property
    def shard_count_hint(self) -> int | None:
        """The explicit shard count this block was built with, if any."""
        return self._shard_count_hint

    @property
    def partition_epoch(self) -> int:
        """Monotonic shard-table version; bumped whenever shard bounds
        change (rebuild, splice).  The router keys its layout cache on
        it."""
        return self._partition_epoch

    @property
    def router(self) -> PartitionRouter:
        """The block's partition router (created lazily, epoch-cached)."""
        if self._router is None:
            self._router = PartitionRouter(self)
        return self._router

    @property
    def shards(self) -> list[Shard]:
        return self._shards

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def max_workers(self) -> int | None:
        if self._max_workers is not None:
            return self._max_workers
        return min(max(len(self._shards), 1), os.cpu_count() or 1)

    @property
    def thread_pool(self) -> ThreadPoolExecutor:
        """The block's persistent fan-out pool (created lazily).

        One pool per block: spawning a fresh pool per batch would put
        thread-creation latency on the hot path that sharding exists to
        speed up.  Call :meth:`close` (or use the block as a context
        manager) to release the workers when cycling through many
        blocks; a closed block lazily re-creates the pool if queried
        again.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the fan-out pool (no-op if it was never created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedGeoBlock":
        return self

    def __exit__(self, *exc_info) -> None:  # noqa: ANN002
        self.close()

    # -- update bookkeeping ----------------------------------------------

    def _note_update(self, cell: int, row: int, in_place: bool) -> None:
        """Adjust shard bounds after ``core/updates.py`` touched ``row``.

        In-place folds leave the partition (and the router cache)
        intact.  A spliced row grows the owning shard and shifts every
        later shard by one -- O(num_shards), never a re-partition -- and
        bumps the partition epoch, because row bounds moved under the
        router.  Appends route by curve key: the owner is the shard
        whose key range holds the new cell's leaf key (the full-key-space
        bounds guarantee one exists).
        """
        if in_place:
            return
        self._partition_epoch += 1
        pos = cellid.range_min(cell) >> 1
        for index, shard in enumerate(self._shards):
            if shard.key_lo <= pos < shard.key_hi:
                if row < shard.lo or row > shard.hi:
                    break  # inconsistent hint; fall back to a re-partition
                shard.hi += 1
                for later in self._shards[index + 1 :]:
                    later.lo += 1
                    later.hi += 1
                return
        self._rebuild_shards()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedGeoBlock(level={self._level}, shards={self.num_shards}, "
            f"cells={self.num_cells})"
        )
