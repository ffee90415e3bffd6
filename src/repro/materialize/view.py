"""One materialized view: a pinned query with per-covering-cell state.

A :class:`MaterializedView` persists a hot single-region query as a
first-class read model: the query's identity (its
:class:`~repro.cache.results.RequestKey` -- region fingerprint,
aggregates, execution hints -- plus the region and aggregate specs),
its current exact answer, and -- the part that makes incremental
refresh possible -- the *unpruned* covering union together with one
full-schema aggregate record per covering cell.  Each view is stamped
with the aggregates' ``data_version`` it is exact at, so a write
through another facade over the same block (which this view's store
never sees) makes the view miss instead of serving a stale answer.

The refresh contract is bit-identity with a cold rebuild, and it holds
by construction rather than by tolerance:

* the stored records are exactly what the vector model materialises per
  covering cell (:meth:`CellAggregates.slice_record` over the cell's
  aggregate-row range), and re-folding the non-empty ones in covering
  order through :meth:`Accumulator.add_record` performs the identical
  float operation sequence as the executor's vector select -- which the
  kernel model is in turn gated bit-identical to;
* an append only changes the records of covering cells that received a
  row (membership via :meth:`CellUnion.contains_leaves` on the appended
  leaf ids; the covering is stored *unpruned*, so membership is
  append-invariant), while a splice merely shifts the row *indices* of
  the other cells -- their slice contents, and therefore their record
  bytes, are unchanged.  Refresh recomputes exactly the touched
  records and re-folds;
* ``count_only`` views refresh through the same pure-integer
  :func:`kernels.count_segments` reduction the Listing 2 path runs;
* views pinned with the trie hint on an adaptive handle whose trie has
  been trained re-execute in full through the statistics-free
  ``handle.plan`` + ``executor.select`` pair (trie partial hits fold
  cached trie records, a different -- equally exact -- grouping that a
  record re-fold cannot reproduce).  Before the trie exists the
  record re-fold applies as on every other kind.

The scalar execution model is deliberately not materializable
(:func:`materializable`): unlike the kernel model it carries no
bit-identity gate against the vector fold, so a re-fold could drift
from a scalar cold rebuild by rounding.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.results import RequestKey
from repro.cells import cellid
from repro.cells.union import CellUnion
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.aggregates import Accumulator, AggSpec
from repro.core.geoblock import GeoBlock
from repro.engine import kernels
from repro.engine.executor import QueryResult

def materializable(key: RequestKey | None) -> bool:
    """Whether a view may serve ``key``: it needs a region fingerprint
    (pre-computed cell unions have none), and the scalar model is
    excluded (see the module doc)."""
    return key is not None and key.mode != "scalar"


def base_block(handle) -> GeoBlock:  # noqa: ANN001 - Handle union
    """The flat-array block under any handle kind (adaptive unwrapped;
    sharded blocks share the plain block's arrays zero-copy)."""
    if isinstance(handle, AdaptiveGeoBlock):
        return handle.block
    return handle


def build_records(block: GeoBlock, covering: CellUnion) -> np.ndarray:
    """One full-schema aggregate record per covering cell, in covering
    order -- the vector model's materialisation, fanned out per shard
    on sharded blocks (``materialise_slices`` is the executor seam)."""
    lo, hi = block.executor.ranges(covering)
    pairs = [(int(start), int(stop)) for start, stop in zip(lo, hi)]
    materialised = block.executor.materialise_slices(pairs)
    records = np.empty((len(pairs), block.aggregates.record_width()), dtype=np.float64)
    for index, pair in enumerate(pairs):
        records[index] = materialised[pair]
    return records


class MaterializedView:
    """A pinned query answer refreshed incrementally on append."""

    __slots__ = (
        "name",
        "region",
        "aggs",
        "key",
        "covering",
        "records",
        "result",
        "pinned",
        "hits",
        "refreshed_version",
        "data_version",
        "incremental_refreshes",
        "full_refreshes",
        "delta_rows",
    )

    def __init__(
        self,
        name: str,
        region,  # noqa: ANN001 - Polygon | MultiPolygon | BoundingBox
        aggs: Sequence[AggSpec],
        key: RequestKey,
        covering: CellUnion,
        records: np.ndarray | None,
        result: QueryResult,
        version: int,
        data_version: int,
        pinned: bool = False,
        hits: int = 0,
    ) -> None:
        self.name = name
        self.region = region
        self.aggs = tuple(aggs)
        self.key = key
        self.covering = covering
        self.records = records
        self.result = result
        self.pinned = pinned
        self.hits = hits
        self.refreshed_version = version
        self.data_version = data_version
        self.incremental_refreshes = 0
        self.full_refreshes = 0
        self.delta_rows = 0

    # -- refresh ---------------------------------------------------------

    def refresh(self, handle, leaves: np.ndarray, version: int, data_version: int) -> int:  # noqa: ANN001
        """Delta-apply an append's rows and restamp; returns the number
        of appended rows that landed inside this view's covering.

        ``data_version`` is the aggregates' version *before* the append:
        a view stamped with another one missed a write made through
        another facade, so every record is rebuilt (a full refresh)
        instead of delta-applied.  Must run inside the dataset's
        exclusive write section, after the block's arrays and header
        are refreshed.
        """
        block = base_block(handle)
        stale = self.data_version != data_version
        self.refreshed_version = version
        self.data_version = block.aggregates.data_version
        delta = 0
        if leaves.size:
            inside = self.covering.contains_leaves(leaves)
            delta = int(inside.sum())
        if delta == 0 and not stale:
            # No appended row can change any covering-cell slice: the
            # stored records and answer are still exact.
            return 0
        lo, hi = block.executor.ranges(self.covering)
        if self.records is not None and stale:
            self.records = build_records(block, self.covering)
        elif self.records is not None:
            touched = np.unique(
                np.searchsorted(
                    self.covering.range_mins, leaves[inside], side="right"
                )
                - 1
            )
            for index in touched.tolist():
                self.records[index] = block.aggregates.slice_record(
                    int(lo[index]), int(hi[index])
                )
        self.delta_rows += delta
        probed = self._pruned_cells(block)
        full = stale
        if self.key.count_only:
            aggregates = block.aggregates
            count = kernels.count_segments(aggregates.offsets, aggregates.counts, lo, hi)
            self.result = QueryResult(
                values={}, count=count, cells_probed=probed, covering_cached=True
            )
        elif (
            self.key.trie
            and isinstance(handle, AdaptiveGeoBlock)
            and handle.trie is not None
        ):
            # A trained trie folds cached ancestor records -- a grouping
            # a record re-fold cannot reproduce bit for bit.  Re-execute
            # through the statistics-free plan/select pair (identical
            # arithmetic to the adaptive cold path, no training side
            # effects inside the write section).
            plan = handle.plan(self.region)
            self.result = block.executor.select(plan, list(self.aggs), mode=self.key.mode)
            full = True
        else:
            self.result = self._refold(block, lo, hi, probed)
        if full:
            self.full_refreshes += 1
        else:
            self.incremental_refreshes += 1
        return delta

    def _refold(
        self, block: GeoBlock, lo: np.ndarray, hi: np.ndarray, probed: int
    ) -> QueryResult:
        """Fold the stored records exactly as the vector select folds
        covering-cell slices: non-empty cells only, covering order."""
        accumulator = Accumulator.for_aggs(block.aggregates.schema, list(self.aggs))
        for index in np.flatnonzero(hi > lo).tolist():
            accumulator.add_record(self.records[index])
        values = {spec.key: accumulator.extract(spec) for spec in self.aggs}
        return QueryResult(
            values=values,
            count=int(accumulator.count),
            cells_probed=probed,
            covering_cached=True,
        )

    def _pruned_cells(self, block: GeoBlock) -> int:
        """``cells_probed`` of a cold plan at the current header (the
        stored covering is unpruned; the stat mirrors the planner)."""
        header = block.header
        if header.is_empty:
            return 0
        pruned = self.covering.prune_outside(
            cellid.range_min(header.min_cell), cellid.range_max(header.max_cell)
        )
        return len(pruned)

    # -- introspection ---------------------------------------------------

    def info(self, current_version: int) -> dict:
        """JSON-compatible summary (the ``views`` wire op's row)."""
        return {
            "name": self.name,
            "kind": "materialized",
            "aggregates": [spec.key for spec in self.aggs],
            "mode": self.key.mode,
            "trie": self.key.trie,
            "count_only": self.key.count_only,
            "pinned": self.pinned,
            "hits": self.hits,
            "version": self.refreshed_version,
            "stale": self.refreshed_version < current_version,
            "cells": len(self.covering),
            "incremental_refreshes": self.incremental_refreshes,
            "full_refreshes": self.full_refreshes,
            "delta_rows": self.delta_rows,
        }

    def nbytes(self) -> int:
        """Approximate in-memory footprint (store accounting)."""
        records = 0 if self.records is None else int(self.records.nbytes)
        return 256 + int(self.covering.ids.nbytes) + records

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MaterializedView({self.name!r}, cells={len(self.covering)}, "
            f"hits={self.hits}, refreshes={self.incremental_refreshes}"
            f"+{self.full_refreshes}full)"
        )
