"""Per-layer metrics of a traced pass.

Time metrics marked *per read* are self times summed over a pass's
reads and divided by the number of reads, so they add up (with the
layers' other spans) to the traced end-to-end time.  Metrics of an
operation that not every request performs (``adapt``, an append, an MV
refresh or admission) are the mean inclusive duration per call, 0 when
the pass made no such call.  Ratios come from span notes or from the
program's own telemetry counters (``GET /stats`` or
``GeoService.stats()``) read before and after the pass.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from gbench.trace import CLIENT_SPAN, attribution

#: Per-layer metric -> unit, in the order they are reported.
UNITS: dict[str, str] = {
    "server.transport_ms": "ms",
    "server.execute_ms": "ms",
    "server.edge_ms": "ms",
    "server.edge_hit_rate": "ratio",
    "server.edge_stale_rate": "ratio",
    "api.parse_ms": "ms",
    "api.self_ms": "ms",
    "api.lock_wait_ms": "ms",
    "cache.result_hit_rate": "ratio",
    "cache.covering_hit_rate": "ratio",
    "cache.probe_ms": "ms",
    "materialize.hit_rate": "ratio",
    "materialize.refresh_ms": "ms",
    "materialize.admit_ms": "ms",
    "cells.cover_ms": "ms",
    "cells.coverings_per_query": "count",
    "engine.plan_ms": "ms",
    "engine.exec_ms": "ms",
    "engine.cells_per_query": "count",
    "core.select_ms": "ms",
    "core.trie_hit_rate": "ratio",
    "core.adapt_ms": "ms",
    "core.adapts": "count",
    "core.append_ms": "ms",
    "storage.extract_s": "s",
    "core.save_s": "s",
    "core.open_s": "s",
    "workload.repeat_share": "ratio",
    "loadgen.late_p95_ms": "ms",
    "failed_frac": "ratio",
    "trace.e2e_ms": "ms",
    "trace.selfsum_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Span names whose per-read self time forms each per-read metric.
_PER_READ_SELF = {
    "server.transport_ms": (CLIENT_SPAN, "server.handler"),
    "server.edge_ms": ("server.edge",),
    "api.parse_ms": ("api.parse",),
    "api.self_ms": ("api.run_dict", "api.query"),
    "api.lock_wait_ms": ("api.lock_wait",),
    "cache.probe_ms": ("cache.probe",),
    "cells.cover_ms": ("cells.cover",),
    "engine.plan_ms": ("engine.plan",),
    "engine.exec_ms": ("engine.exec",),
    "core.select_ms": ("core.select",),
}

#: Operations reported as mean inclusive duration per call (ms).
_PER_CALL = {
    "materialize.refresh_ms": "materialize.refresh",
    "materialize.admit_ms": "materialize.admit",
    "core.adapt_ms": "core.adapt",
    "core.append_ms": "core.append",
}

#: Set-up steps reported as the duration of their last span (s).
_SETUP = {
    "storage.extract_s": "storage.extract",
    "core.save_s": "core.save",
    "core.open_s": "core.open",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(spans: Sequence[Sequence], reads: set[int], writes: set[int]) -> dict[str, float]:
    """Every span-derived metric of one traced pass."""
    selfsum, per_request = attribution(spans, reads | writes)
    count = max(1, len(reads))
    metrics: dict[str, float] = {}
    for metric, names in _PER_READ_SELF.items():
        total = sum(per_request[rid].get(name, 0) for rid in reads for name in names)
        metrics[metric] = total / count / 1e6
    durations: dict[str, list[int]] = {}
    exec_cells = exec_hits = exec_calls = 0
    execute_ns = coverings = 0
    root_ns = 0
    for name, start, end, parent, rid, note in spans:
        # Set-up steps run outside any request; every other call counts
        # only inside the pass's requests (not, say, the reference block).
        if rid in reads or rid in writes or name in _SETUP.values():
            durations.setdefault(name, []).append(end - start)
        if rid not in reads:
            continue
        if parent < 0:
            root_ns += end - start
        if name == "server.execute":
            execute_ns += end - start
        elif name == "cells.cover":
            coverings += 1
        elif name == "engine.exec" and note is not None:
            exec_calls += 1
            exec_cells += note[0]
            exec_hits += note[1]
    metrics["server.execute_ms"] = execute_ns / count / 1e6
    metrics["cells.coverings_per_query"] = coverings / count
    metrics["engine.cells_per_query"] = _ratio(exec_cells, exec_calls)
    metrics["core.trie_hit_rate"] = _ratio(exec_hits, exec_cells)
    for metric, name in _PER_CALL.items():
        calls = durations.get(name, [])
        metrics[metric] = _ratio(sum(calls), len(calls)) / 1e6
    metrics["core.adapts"] = float(len(durations.get("core.adapt", [])))
    for metric, name in _SETUP.items():
        calls = durations.get(name, [])
        metrics[metric] = calls[-1] / 1e9 if calls else 0.0
    metrics["trace.e2e_ms"] = root_ns / count / 1e6
    metrics["trace.selfsum_frac"] = selfsum
    return metrics


def _delta(after: Mapping, before: Mapping, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def telemetry_metrics(before: Mapping, after: Mapping) -> dict[str, float]:
    """Hit rates from the program's own counters over one pass.

    ``before``/``after`` are ``GET /stats`` bodies or
    ``GeoService.stats()`` dicts (which carry no ``edge`` block).
    """
    edge_hits = _delta(after, before, "edge", "hits")
    edge_stale = _delta(after, before, "edge", "stale_served")
    edge_lookups = edge_hits + edge_stale + _delta(after, before, "edge", "misses")
    metrics = {
        "server.edge_hit_rate": _ratio(edge_hits + edge_stale, edge_lookups),
        "server.edge_stale_rate": _ratio(edge_stale, edge_lookups),
    }
    for tier in ("result", "covering"):
        hits = _delta(after, before, "cache", tier, "hits")
        misses = _delta(after, before, "cache", tier, "misses")
        metrics[f"cache.{tier}_hit_rate"] = _ratio(hits, hits + misses)
    mv_hits = _delta(after, before, "mv", "hits")
    metrics["materialize.hit_rate"] = _ratio(mv_hits, mv_hits + _delta(after, before, "mv", "misses"))
    return metrics
