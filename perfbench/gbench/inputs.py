"""Every benchmark input, derived from the workload seed alone.

The program only ever sees what these functions generate: raw NYC taxi
points, ``nyc_neighborhoods`` tessellations used as query regions, and
fixed-size append batches.  The same seed always yields the same
inputs (``tests/test_machinery.py`` checks it).
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from repro.api import region_to_geojson
from repro.core.policy import CachePolicy
from repro.data import nyc_neighborhoods, nyc_taxi
from repro.geometry.polygon import Polygon

#: Raw points before cleaning (~3.96M remain after the cleaning rules).
RAW_POINTS = 4_000_000
#: The density-matched block level for ~4M NYC points: the paper's 17.
LEVEL = 17
#: Name the dataset is served under.
DATASET = "taxi"
#: Five aggregates over three columns, asked by every read.
AGGREGATES = (
    "count",
    "sum:fare_amount",
    "avg:fare_amount",
    "max:trip_distance",
    "avg:tip_amount",
)
#: The skewed 10% of a 195-polygon tessellation that repeats.
HOT_SET = 20
#: The paper's 5% trie threshold.  The rebuild cadence puts exactly one
#: ``adapt()`` inside an ``api_unique_polygons`` run, which makes ~1700
#: to ~3200 engine selects in 10 s on a loaded or idle 2-CPU host (1
#: request in 1650 pays it, far from the 1% a p99 would see), and none
#: on the wire workloads, whose engine passes stay below the cadence.
POLICY = CachePolicy(threshold=0.05, rebuild_every=1650)
#: Rows per ``POST /append`` batch.
APPEND_ROWS = 200

_TAG_RAW, _TAG_TESSELLATION, _TAG_SKEW, _TAG_APPEND = 1, 2, 3, 4


def sub_seed(seed: int, *tags: int) -> int:
    """An independent 32-bit seed for one input stream of ``seed``."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def raw_table(seed: int, points: int = RAW_POINTS):  # noqa: ANN201 - PointTable
    """Synthetic raw taxi points (dirty rows included, as the extract
    phase expects)."""
    return nyc_taxi(points, seed=sub_seed(seed, _TAG_RAW))


def tessellation(seed: int, index: int) -> list[Polygon]:
    """The ``index``-th fresh neighbourhood tessellation of ``seed``."""
    return nyc_neighborhoods(seed=sub_seed(seed, _TAG_TESSELLATION, index))


def query_payload(polygon: Polygon) -> dict:
    """The v2 wire dict of one read."""
    return {
        "v": 2,
        "dataset": DATASET,
        "region": region_to_geojson(polygon),
        "aggregates": list(AGGREGATES),
    }


def query_body(polygon: Polygon) -> bytes:
    """The exact request bytes of one read; a repeat sends identical
    bytes, as a dashboard re-issuing its query would."""
    return json.dumps(query_payload(polygon), separators=(",", ":")).encode()


def skewed_inputs(seed: int, repeats: int) -> tuple[list[Polygon], list[int], list[int]]:
    """The paper's combined workload: ``(polygons, hot, order)``.

    ``order`` indexes ``polygons``: one base pass over every
    neighbourhood, then ``repeats`` draws from the ``hot`` subset.
    """
    polygons = tessellation(seed, 0)
    rng = np.random.default_rng(sub_seed(seed, _TAG_SKEW))
    hot = sorted(int(i) for i in rng.choice(len(polygons), HOT_SET, replace=False))
    draws = rng.choice(hot, size=repeats)
    return polygons, hot, list(range(len(polygons))) + [int(i) for i in draws]


def unique_polygons(seed: int) -> Iterator[Polygon]:
    """Fresh polygons forever: tessellation after tessellation, with any
    polygon whose vertices were already seen skipped, so no request
    ever repeats."""
    seen: set[bytes] = set()
    index = 1
    while True:
        for polygon in tessellation(seed, index):
            key = polygon.xs.tobytes() + polygon.ys.tobytes()
            if key not in seen:
                seen.add(key)
                yield polygon
        index += 1


def append_batches(seed: int, count: int, rows: int = APPEND_ROWS) -> list[list[dict]]:
    """``count`` batches of clean taxi rows in the wire's row format."""
    table = nyc_taxi(count * rows, seed=sub_seed(seed, _TAG_APPEND), dirty=False)
    names = list(table.schema.names)
    columns = [np.asarray(table.column(name), dtype=np.float64).tolist() for name in names]
    xs = np.asarray(table.xs, dtype=np.float64).tolist()
    ys = np.asarray(table.ys, dtype=np.float64).tolist()
    flat = [
        {"x": x, "y": y, **dict(zip(names, values))}
        for x, y, *values in zip(xs, ys, *columns)
    ]
    return [flat[start : start + rows] for start in range(0, len(flat), rows)]
