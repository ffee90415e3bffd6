"""Reference answers from a separately built, cache-free plain block.

The served dataset is an adaptive block behind result, covering,
materialized-view and edge tiers.  The reference is a plain
:class:`~repro.core.geoblock.GeoBlock` built from the same extracted
base data; it covers each region with its own
:class:`~repro.cells.coverer.RegionCoverer` (no covering tier) and has
no trie, result tier or views.  Appends are replayed onto it in version
order with the same ``append_rows`` fold, so a read stamped with
version ``v`` is checked against the reference after exactly the
acknowledged appends up to ``v``.

Counts, minima and maxima must match exactly.  Sums and averages may
differ in the last bits, because answers served from trie nodes fold
their partial aggregates in a different order than a plain block does;
they must agree to :data:`REL_TOL`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.api.aggregates import parse_aggs
from repro.cells.coverer import RegionCoverer
from repro.core.geoblock import GeoBlock
from repro.core.updates import append_rows

#: Relative tolerance on sums and averages (see module docstring).
REL_TOL = 1e-9
_EXACT_PREFIXES = ("count", "min(", "max(")


@dataclass(frozen=True)
class Read:
    """One answered read: which region, which data version the
    response was stamped with, and the response's ``data`` block."""

    region: int
    version: int
    data: Mapping


class Reference:
    """The cache-free reference block."""

    def __init__(self, base, level: int, aggregates: Sequence[str]) -> None:  # noqa: ANN001
        self.block = GeoBlock.build(base, level)
        self.level = level
        self.coverer = RegionCoverer(base.space)
        self.aggs = parse_aggs(list(aggregates))
        self.version = 1
        #: Covering size (cells) of every answer computed.
        self.covering_cells: list[int] = []

    def covering(self, region):  # noqa: ANN001, ANN201 - CellUnion
        return self.coverer.covering(region, self.level)

    def answer(self, region) -> dict:  # noqa: ANN001
        """The expected ``data`` block of a read of ``region``."""
        covering = self.covering(region)
        self.covering_cells.append(int(covering.ids.size))
        result = self.block.select(covering, self.aggs)
        return {"values": dict(result.values), "count": int(result.count)}

    def append(self, rows: Sequence[Mapping]) -> None:
        append_rows(self.block, rows)
        self.version += 1


def mismatch(served: Mapping, expected: Mapping) -> str | None:
    """Why ``served`` differs from ``expected``, or ``None``."""
    if int(served.get("count", -1)) != expected["count"]:
        return f"count {served.get('count')} != {expected['count']}"
    values = served.get("values", {})
    if set(values) != set(expected["values"]):
        return f"aggregates {sorted(values)} != {sorted(expected['values'])}"
    for name, want in expected["values"].items():
        got = float(values[name])
        if math.isnan(want) and math.isnan(got):
            continue
        if name.startswith(_EXACT_PREFIXES):
            if got != want:
                return f"{name} {got!r} != {want!r}"
        elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
            return f"{name} {got!r} != {want!r}"
    return None


def verify(
    reference: Reference,
    regions: Sequence,
    reads: Iterable[Read],
    appends: Mapping[int, Sequence[Mapping]],
    memo: dict | None = None,
) -> tuple[int, list[str]]:
    """Check every read against the reference at its stamped version.

    ``appends`` maps each acknowledged append's resulting version to its
    rows.  ``memo`` caches answers by ``(region, version)`` across calls
    whose appends are the same batches in the same order.  Returns
    ``(distinct reference answers computed, mismatch descriptions)``; a
    read stamped with a version the acknowledged appends cannot reach is
    a mismatch too.
    """
    memo = {} if memo is None else memo
    by_version: dict[int, list[Read]] = {}
    for read in reads:
        by_version.setdefault(read.version, []).append(read)
    problems: list[str] = []
    computed = 0
    for version in sorted(by_version):
        while reference.version < version and reference.version + 1 in appends:
            reference.append(appends[reference.version + 1])
        if reference.version != version:
            problems.append(f"reads stamped v{version} but acknowledged appends reach v{reference.version}")
            continue
        for read in by_version[version]:
            key = (read.region, version)
            if key not in memo:
                memo[key] = reference.answer(regions[read.region])
                computed += 1
            problem = mismatch(read.data, memo[key])
            if problem is not None:
                problems.append(f"region {read.region} at v{version}: {problem}")
    return computed, problems
