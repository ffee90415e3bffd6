"""Updates for GeoBlocks (Section 5 of the paper).

GeoBlocks are designed write-once/read-only, but the paper sketches how
the layout admits updates, and this module implements that sketch:

* if a cell aggregate for the new tuple's grid cell already exists, the
  stored aggregates (count, sums, mins, maxs, key extremes) are updated
  in place, and tuple offsets of later cells are shifted;
* for the adaptive variant, every cached ancestor of the grid cell in
  the AggregateTrie is refreshed in a single root-to-leaf walk (the
  prefix property makes the path unique);
* tuples arriving in a previously empty region require re-building the
  aggregate array (it must stay sorted); this is the paper's "rebuild
  the aggregate layout" case, handled here by an insertion into the
  arrays, which the paper notes costs about as much as a fresh build.

Batched usage is recommended, exactly as the paper suggests.

Sharded blocks (:mod:`repro.engine.shards`) get a post-update callback
(``_note_update``) so only the owning shard's bounds are adjusted --
never a full re-partition.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cells import cellid
from repro.core.adaptive import AdaptiveGeoBlock
from repro.core.geoblock import GeoBlock
from repro.errors import QueryError


def apply_update(
    block: GeoBlock,
    x: float,
    y: float,
    values: Mapping[str, float],
    refresh: bool = True,
) -> bool:
    """Fold one new tuple into the block's aggregates.

    Returns True when the tuple landed in an existing cell aggregate
    (the cheap in-place path) and False when a new cell had to be
    spliced into the aggregate arrays.  Batch callers pass
    ``refresh=False`` and call :func:`refresh_header` once at the end
    -- the header rebuild scans every cell aggregate, so doing it per
    row would make a batch O(rows x cells); nothing inside the update
    loop reads the header.
    """
    aggregates = block.aggregates
    missing = [spec.name for spec in aggregates.schema if spec.name not in values]
    if missing:
        raise QueryError(f"update is missing values for columns {missing}")

    leaf = block.space.leaf_id(x, y)
    cell = cellid.parent(leaf, block.level)
    keys = aggregates.keys
    row = int(np.searchsorted(keys, cell, side="left"))
    in_place = row < keys.size and int(keys[row]) == cell
    if in_place:
        _fold_row(aggregates, row, leaf, values)
    else:
        _splice_row(aggregates, row, cell, leaf, values)
    # Later cells start one tuple further into the base data.
    aggregates.offsets[row + 1 :] += 1
    # Any version-keyed cache over this data (repro.cache) must miss
    # from now on, whichever facade wraps these aggregates.
    aggregates.data_version += 1
    if refresh:
        refresh_header(block)
    # Sharded blocks adjust only the owning shard's bounds here.
    block._note_update(cell, row, in_place)
    return in_place


def refresh_header(block: GeoBlock) -> None:
    """Rebuild the global header (block-wide aggregate + pruning range)
    from the current cell aggregates."""
    from repro.core.header import GlobalHeader

    block._header = GlobalHeader.from_aggregates(block.aggregates, block.level)


def apply_update_adaptive(
    adaptive: AdaptiveGeoBlock,
    x: float,
    y: float,
    values: Mapping[str, float],
    refresh: bool = True,
) -> bool:
    """Update an adaptive block: the base aggregates plus every cached
    ancestor of the tuple's grid cell (one depth-first trie walk)."""
    in_place = apply_update(adaptive.block, x, y, values, refresh=refresh)
    trie = adaptive.trie
    if trie is None:
        return in_place
    leaf = adaptive.block.space.leaf_id(x, y)
    schema = adaptive.block.aggregates.schema
    root_level = cellid.level_of(trie.root_cell)
    for level in range(root_level, adaptive.block.level + 1):
        ancestor = cellid.parent(leaf, level)
        probe = trie.probe(ancestor)
        if probe.status == "hit" and probe.record is not None:
            record = probe.record
            record[0] += 1.0
            for position, spec in enumerate(schema):
                value = float(values[spec.name])
                record[1 + 3 * position] += value
                record[2 + 3 * position] = min(record[2 + 3 * position], value)
                record[3 + 3 * position] = max(record[3 + 3 * position], value)
        elif probe.status == "miss":
            break  # no node: no cached descendants along this path either
    return in_place


def apply_batch(block: GeoBlock, xs, ys, columns: Mapping[str, np.ndarray]) -> int:  # noqa: ANN001
    """Apply a batch of updates; returns how many hit existing cells.

    The header refresh is amortised over the whole batch (the paper's
    recommended batched usage)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    hits = 0
    for index in range(xs.size):
        row_values = {name: float(arr[index]) for name, arr in columns.items()}
        hits += int(
            apply_update(
                block, float(xs[index]), float(ys[index]), row_values, refresh=False
            )
        )
    if xs.size:
        refresh_header(block)
    return hits


def append_rows(handle, rows: "Sequence[Mapping[str, float]]") -> tuple[int, int]:  # noqa: ANN001
    """Fold row dicts (``{"x": ..., "y": ..., <column>: ...}``) into a
    block of any kind -- the write path of the service API.

    Dispatches per row: adaptive handles additionally refresh every
    cached trie ancestor (:func:`apply_update_adaptive`); sharded
    blocks adjust shard bounds through their ``_note_update`` hook.
    Rows are validated *before* anything is applied, so a malformed row
    never leaves the block half-updated.  Returns ``(appended,
    in_place)`` -- how many rows were folded, and how many landed in an
    existing cell aggregate (the cheap path).
    """
    adaptive = isinstance(handle, AdaptiveGeoBlock)
    block = handle.block if adaptive else handle
    names = block.aggregates.schema.names
    parsed: list[tuple[float, float, dict[str, float]]] = []
    for index, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise QueryError(f"row {index} must be an object, got {type(row).__name__}")
        missing = [key for key in ("x", "y", *names) if key not in row]
        if missing:
            raise QueryError(f"row {index} is missing {missing}")
        try:
            parsed.append(
                (
                    float(row["x"]),
                    float(row["y"]),
                    {name: float(row[name]) for name in names},
                )
            )
        except (TypeError, ValueError) as error:
            raise QueryError(f"row {index} has a non-numeric value: {error}") from error
        if not (math.isfinite(parsed[-1][0]) and math.isfinite(parsed[-1][1])):
            # Extract drops such points (CleaningRules.mask); a rebuild
            # would never contain this row.
            raise QueryError(f"row {index} has a non-finite coordinate")
    in_place = 0
    for x, y, values in parsed:
        if adaptive:
            in_place += int(apply_update_adaptive(handle, x, y, values, refresh=False))
        else:
            in_place += int(apply_update(block, x, y, values, refresh=False))
    if parsed:
        refresh_header(block)
    return len(parsed), in_place


def _fold_row(aggregates, row: int, leaf: int, values: Mapping[str, float]) -> None:  # noqa: ANN001
    aggregates.counts[row] += 1
    aggregates.key_mins[row] = min(int(aggregates.key_mins[row]), leaf)
    aggregates.key_maxs[row] = max(int(aggregates.key_maxs[row]), leaf)
    for spec in aggregates.schema:
        value = float(values[spec.name])
        aggregates.sums[spec.name][row] += value
        if value < aggregates.mins[spec.name][row]:
            aggregates.mins[spec.name][row] = value
        if value > aggregates.maxs[spec.name][row]:
            aggregates.maxs[spec.name][row] = value


def _splice_row(aggregates, row: int, cell: int, leaf: int, values: Mapping[str, float]) -> None:  # noqa: ANN001
    """Insert a brand-new cell aggregate at ``row`` (the rebuild case)."""
    offset = int(aggregates.offsets[row]) if row < aggregates.offsets.size else (
        int(aggregates.offsets[-1] + aggregates.counts[-1]) if aggregates.offsets.size else 0
    )
    aggregates.keys = np.insert(aggregates.keys, row, cell)
    aggregates.offsets = np.insert(aggregates.offsets, row, offset)
    aggregates.counts = np.insert(aggregates.counts, row, 1)
    aggregates.key_mins = np.insert(aggregates.key_mins, row, leaf)
    aggregates.key_maxs = np.insert(aggregates.key_maxs, row, leaf)
    for spec in aggregates.schema:
        value = float(values[spec.name])
        aggregates.sums[spec.name] = np.insert(aggregates.sums[spec.name], row, value)
        aggregates.mins[spec.name] = np.insert(aggregates.mins[spec.name], row, value)
        aggregates.maxs[spec.name] = np.insert(aggregates.maxs[spec.name], row, value)
