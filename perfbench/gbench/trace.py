"""Span recording around the program's public functions.

Only a traced run installs anything: :func:`installed` replaces each
function in :data:`TARGETS` with a wrapper that records one span
``[name, start_ns, end_ns, parent, request id, note]`` and restores the
originals on exit.  Spans stay in memory and are written out when the
run ends.  The parent is the innermost open span on the same thread;
the request id is a thread-local the load generator (in-process) or the
wrapped HTTP handler (from an ``X-Bench-Rid`` header) sets.  Span
clocks are ``perf_counter_ns``, which on Linux reads the system-wide
monotonic clock, so server spans line up with the client's.

A span's *self time* is its duration minus the part of it that its
children cover.  Within one request the self times of all spans sum to
the root span's duration exactly when every child lies inside its
parent; :func:`attribution` measures how close a trace comes to that.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence

#: Header carrying the benchmark's request id to the server.
RID_HEADER = "X-Bench-Rid"

#: Span name of the client-observed round trip (the root of a wire
#: request); in-process requests are rooted at ``api.run_dict``.
CLIENT_SPAN = "client.request"


def _exec_note(args: tuple, result) -> tuple[int, int]:  # noqa: ANN001
    results = result if isinstance(result, list) else [result]
    return (
        sum(int(r.cells_probed) for r in results),
        sum(int(r.cache_hits) for r in results),
    )


def _lookup_note(args: tuple, result) -> int:  # noqa: ANN001
    return int(result is not None)


#: ``(module, class or None, attribute, span name, note)``: every
#: public function the traced run wraps.  The span name's prefix is the
#: layer (the repository's module).
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("repro.server.http", "WireHandler", "do_POST", "server.handler", None),
    ("repro.server.http", "GeoHTTPServer", "execute", "server.execute", None),
    ("repro.server.edge", "EdgeCache", "lookup", "server.edge", None),
    ("repro.server.edge", "EdgeCache", "store", "server.edge", None),
    ("repro.api.service", "GeoService", "run_dict", "api.run_dict", None),
    ("repro.api.request", "QueryRequest", "from_dict", "api.parse", None),
    ("repro.api.dataset", "Dataset", "query", "api.query", None),
    ("repro.api.dataset", "Dataset", "append", "api.append", None),
    ("repro.util.sync", "RWLock", "acquire_read", "api.lock_wait", None),
    ("repro.util.sync", "RWLock", "acquire_write", "api.lock_wait", None),
    ("repro.cache.results", "ResultCacheScope", "probe", "cache.probe", _lookup_note),
    ("repro.cache.results", "ResultCacheScope", "fill", "cache.probe", None),
    ("repro.materialize.store", "MaterializedStore", "lookup", "materialize.lookup", _lookup_note),
    ("repro.materialize.store", "MaterializedStore", "refresh_all", "materialize.refresh", None),
    ("repro.api.dataset", None, "build_records", "materialize.admit", None),
    ("repro.cells.coverer", "RegionCoverer", "covering", "cells.cover", None),
    ("repro.engine.planner", "Planner", "plan", "engine.plan", None),
    ("repro.engine.executor", "Executor", "select", "engine.exec", _exec_note),
    ("repro.engine.executor", "Executor", "run_batch", "engine.exec", _exec_note),
    ("repro.core.adaptive", "AdaptiveGeoBlock", "select", "core.select", None),
    ("repro.core.adaptive", "AdaptiveGeoBlock", "adapt", "core.adapt", None),
    ("repro.core.updates", None, "append_rows", "core.append", None),
    ("repro.core.serialize", None, "save", "core.save", None),
    ("repro.core.serialize", None, "load", "core.open", None),
    ("repro.storage.etl", None, "extract", "storage.extract", None),
)


class Tracer:
    """An in-memory span list plus the per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    # -- request identity ----------------------------------------------------

    def set_rid(self, rid: int | None) -> None:
        self._local.rid = rid

    def record(self, name: str, start_ns: int, end_ns: int, rid: int) -> None:
        """Add a span measured outside any wrapper (the client's round
        trip)."""
        self.spans.append([name, start_ns, end_ns, None, rid, None])

    # -- wrapping ------------------------------------------------------------

    def wrap(self, func: Callable, name: str, note: Callable | None = None) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0, stack[-1] if stack else None, getattr(local, "rid", None), None]
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def wrap_handler(self, func: Callable) -> Callable:
        """``WireHandler.do_POST``: adopt the request id the client sent,
        then record the handler span under it."""
        traced = self.wrap(func, "server.handler")
        local = self._local

        @functools.wraps(func)
        def handler(handler_self):  # noqa: ANN001, ANN202
            rid = handler_self.headers.get(RID_HEADER)
            local.rid = int(rid) if rid is not None else None
            try:
                return traced(handler_self)
            finally:
                local.rid = None

        return handler

    # -- export --------------------------------------------------------------

    def export(self) -> list[list]:
        """Spans with parents as indices into the returned list."""
        spans = list(self.spans)
        index = {id(span): position for position, span in enumerate(spans)}
        return [
            [name, start, end, -1 if parent is None else index.get(id(parent), -1), rid, note]
            for name, start, end, parent, rid, note in spans
        ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TARGETS` function for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, name, note in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if isinstance(raw, classmethod):
                replacement: object = classmethod(tracer.wrap(raw.__func__, name, note))
            elif owner_name == "WireHandler":
                replacement = tracer.wrap_handler(raw)
            else:
                replacement = tracer.wrap(raw, name, note)
            setattr(owner, attr, replacement)
            restore.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


# -- arithmetic over exported spans ------------------------------------------


def covered_ns(intervals: Sequence[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each exported span's duration minus what its children cover
    (children clipped to the parent's interval)."""
    children: dict[int, list[int]] = defaultdict(list)
    for position, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(position)
    result = []
    for position, span in enumerate(spans):
        start, end = span[1], span[2]
        clipped = [
            (max(spans[child][1], start), min(spans[child][2], end))
            for child in children.get(position, ())
        ]
        result.append((end - start) - covered_ns(clipped))
    return result


def graft(roots: Sequence[Sequence], server: Sequence[Sequence]) -> list[list]:
    """One span list: the client's root spans followed by the server's,
    each top-level server span re-parented onto the client root of its
    request id (server spans of unknown requests stay top-level)."""
    merged = [list(span) for span in roots]
    root_of = {span[4]: position for position, span in enumerate(merged) if span[3] < 0}
    offset = len(merged)
    for span in server:
        parent = span[3] + offset if span[3] >= 0 else root_of.get(span[4], -1)
        merged.append([span[0], span[1], span[2], parent, span[4], span[5]])
    return merged


def attribution(spans: Sequence[Sequence], rids: set[int]) -> tuple[float, dict[int, dict[str, int]]]:
    """Per-request self time by span name, and the share of the summed
    root durations that the summed self times account for (1.0 when
    every child nests inside its parent).

    Only spans reachable from a root span of a request in ``rids``
    count; work on threads without a request id is background work.
    """
    selfs = self_times(spans)
    root_ns = 0
    per_request: dict[int, dict[str, int]] = {rid: defaultdict(int) for rid in rids}
    for position, span in enumerate(spans):
        rid = span[4]
        if rid not in per_request:
            continue
        if span[3] < 0:
            root_ns += span[2] - span[1]
        per_request[rid][span[0]] += selfs[position]
    attributed = sum(sum(names.values()) for names in per_request.values())
    return (attributed / root_ns if root_ns else 0.0), per_request
