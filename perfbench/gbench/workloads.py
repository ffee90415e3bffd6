"""The three workloads, their set-up, and the result line.

Every workload builds the same dataset: ~3.96M cleaned NYC taxi points
in an adaptive block at level 17 (``inputs.POLICY``).  Set-up is timed
``SETUP_REPS`` times per run and reported as the median.  A run then
makes one measured *pass*: reads (a closed loop, then an open-loop rate
ladder) and writes (fixed-rate appends), every answer checked against
the reference block afterwards.  A traced run (``--trace 1``) makes an
untraced pass and a traced pass on two separately set-up copies, and
reports per-layer metrics plus the tracing overhead between the two.

* ``wire_skewed_reads`` -- HTTP; a base pass over every neighbourhood,
  then repeats of the hot 10%, from 2 keep-alive clients; then the
  ladder; then the append probe (back-to-back appends).
* ``api_unique_polygons`` -- in-process ``GeoService.run_dict``; every
  request a polygon never asked before; the ladder, then the closed loop
  with appends placed by read count through the part of it before the
  single trie rebuild (which lands in the closed loop, never in the
  ladder).
* ``wire_ingest_mix`` -- HTTP; one closed-loop reader over the hot set
  while one writer appends at a fixed rate, then the reader's ladder
  with the writer still running.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import pathlib
import platform
import statistics
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from gbench import inputs
from repro.api import Dataset, GeoService
from repro.cache.tiers import DEFAULT_COVERING_ENTRIES, DEFAULT_RESULT_ENTRIES, TieredCache
from repro.cells import EARTH
from repro.data import nyc_cleaning_rules
from repro.materialize.store import DEFAULT_MAX_VIEWS
from repro.server.edge import DEFAULT_MAX_ENTRIES
from repro.storage import etl
from gbench.layers import UNITS as LAYER_UNITS, span_metrics, telemetry_metrics
from gbench.loadgen import (
    HttpSender,
    Outcome,
    Request,
    ServiceSender,
    closed_loop,
    ladder,
    open_loop,
)
from gbench.oracle import Read, Reference, verify
from gbench.server import ServerProcess, index_size, peak_rss_mb
from gbench.stats import median, nearest_rank, supported_quantile
from gbench.trace import Tracer, graft, installed

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Ladder rungs (requests/s) per workload, placed so that today's
#: capacity sits about halfway (in log scale) between two rungs.  The
#: CPU-bound in-process capacity swings between ~160/s and ~360/s with
#: host load, so its rungs quadruple where the stall-bound wire rungs
#: double.
WIRE_RATES = tuple(16.0 * 2**k for k in range(8))
API_RATES = tuple(30.0 * 4**k for k in range(5))
INGEST_RATES = tuple(15.0 * 2**k for k in range(8))
#: Appends/s (of ``inputs.APPEND_ROWS`` rows) of the ingest writer.
WRITE_RATE = 8.0
#: Appends of ``wire_skewed_reads`` (sent back to back after the ladder).
PROBE_WRITES = 32
#: Appends of ``api_unique_polygons``, spread through its closed loop.
API_WRITES = 96
#: Share of the in-process closed loop's reads before the trie rebuild
#: over which its appends spread.
APPEND_SHARE = 0.85
#: Segments of the in-process closed loop (answers are checked between).
SEGMENTS = 3
#: Hot-set draws generated for the wire read streams (never exhausted).
REPEATS = 200_000
#: Allowed deviation of summed self times from the traced end-to-end.
SELFSUM_TOLERANCE = 0.05

#: End-to-end metric -> unit (``--trace 0`` prints exactly these).
E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_qps": "1/s",
    "read_slo_qps": "1/s",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "index_bytes_per_point": "B/point",
}

_clock = time.perf_counter


@dataclass
class Pass:
    """One measured pass and what it left behind."""

    closed: list[Outcome]
    closed_s: float
    rungs: list
    best: object
    writes: list[Outcome]
    before: dict
    after: dict
    index: dict
    peak_rss_mb: float
    spans: list = field(default_factory=list)

    @property
    def reads(self) -> list[Outcome]:
        return self.closed + [o for rung in self.rungs for o in rung.outcomes]

    @property
    def outcomes(self) -> list[Outcome]:
        return self.reads + self.writes


class Rids:
    """Request ids, unique across a run."""

    def __init__(self) -> None:
        self._next = 0

    def __call__(self) -> int:
        self._next += 1
        return self._next


# -- set-up --------------------------------------------------------------


def _extract_and_build(raw):  # noqa: ANN001, ANN202
    # ``etl.extract`` through its module, so a traced set-up sees it.
    base = etl.extract(raw, EARTH, nyc_cleaning_rules())
    dataset = Dataset.build(
        base,
        inputs.LEVEL,
        kind="adaptive",
        name=inputs.DATASET,
        policy=inputs.POLICY,
        cache=TieredCache(),
    )
    return base, dataset


def _setups(count: int, make: Callable[[int], tuple], keep: Callable[[int], bool], tracer: Tracer | None):
    """Run ``make(rep)`` ``count`` times, timing each; the last rep runs
    under ``tracer`` when given.  Returns the timings, the kept reps'
    products, and the last rep's base data."""
    timings, kept = [], []
    base = None
    for rep in range(count):
        traced = tracer is not None and rep == count - 1
        base = None  # release the previous rep's base data first
        with installed(tracer) if traced else contextlib.nullcontext():
            start = _clock()
            base, product = make(rep)
            timings.append(_clock() - start)
        if keep(rep):
            kept.append(product)
        elif hasattr(product, "stop"):
            product.stop()
        del product
    return timings, kept, base


# -- passes --------------------------------------------------------------


def _read(rids: Rids, region: int, body: object) -> Request:
    return Request("read", rids(), region, body)


def _writes(rids: Rids, batches: Sequence[list], wire: bool) -> list[Request]:
    requests = []
    for rows in batches:
        payload = {"dataset": inputs.DATASET, "rows": rows}
        if wire:
            body: object = json.dumps(payload).encode()
        else:
            body = {"v": 2, "op": "append", **payload}
        requests.append(Request("write", rids(), -1, body))
    return requests


def wire_pass(workload: str, server: ServerProcess, seconds: float, order: Sequence[int],
              bodies: Sequence[bytes], batches: Sequence[list], rids: Rids,
              tracer: Tracer | None) -> Pass:
    clients = [HttpSender(server.port, tracer) for _ in range(2)]
    position = {"next": 0}
    start = len(bodies) if workload == "wire_ingest_mix" else 0

    def source() -> Request:
        region = order[start + position["next"]]
        position["next"] += 1
        return _read(rids, region, bodies[region])

    def take(count: int) -> list[Request]:
        return [source() for _ in range(count)]

    try:
        before = clients[0].get("/stats")
        if workload == "wire_skewed_reads":
            closed, closed_s = closed_loop(clients, source, seconds)
            best, rungs = ladder(clients, take, WIRE_RATES)
            writes = [clients[0].send(r) for r in _writes(rids, batches[:PROBE_WRITES], True)]
        else:
            stop = threading.Event()
            writes: list[Outcome] = []
            requests = _writes(rids, batches, True)
            writer = threading.Thread(
                target=lambda: writes.extend(
                    open_loop(clients[1:], requests, WRITE_RATE, stop=stop)
                )
            )
            writer.start()
            try:
                closed, closed_s = closed_loop(clients[:1], source, seconds)
                best, rungs = ladder(clients[:1], take, INGEST_RATES)
            finally:
                stop.set()
                writer.join()
        after = clients[0].get("/stats")
    finally:
        for client in clients:
            client.close()
    report = server.stop()
    return Pass(
        closed, closed_s, rungs, best, writes, before, after,
        {"index_bytes": report.get("index_bytes", 0), "points": report.get("points", 1)},
        float(report.get("peak_rss_mb", 0.0)),
        report.get("spans", []),
    )


class UniqueRequests:
    """The never-repeating polygon stream of ``api_unique_polygons``,
    materialised on demand so that two passes can replay it."""

    def __init__(self, seed: int) -> None:
        self._stream = inputs.unique_polygons(seed)
        self.polygons: list = []
        self._payloads: list[dict] = []

    def payload(self, index: int) -> dict:
        while len(self.polygons) <= index:
            polygon = next(self._stream)
            self.polygons.append(polygon)
            self._payloads.append(inputs.query_payload(polygon))
        return self._payloads[index]


def api_pass(service, dataset, seconds: float, unique: UniqueRequests,  # noqa: ANN001
             batches: Sequence[list], rids: Rids, tracer: Tracer | None,
             checker: Checker) -> Pass:
    sender = ServiceSender(service, tracer)
    cursor = {"next": 0}

    def take(count: int) -> list[Request]:
        first = cursor["next"]
        cursor["next"] += count
        return [_read(rids, i, unique.payload(i)) for i in range(first, first + count)]

    def traced():  # noqa: ANN202
        return installed(tracer) if tracer is not None else contextlib.nullcontext()

    before = service.stats()
    appends = _writes(rids, batches[:API_WRITES], False)
    with traced():
        best, rungs = ladder([sender], take, API_RATES)
    ladder_reads = sum(len(rung.outcomes) for rung in rungs)
    checker.feed([o for rung in rungs for o in rung.outcomes], [])
    closed: list[Outcome] = []
    writes: list[Outcome] = []
    busy_ns = 0
    # Every read is one engine select, so the trie rebuild comes after
    # the closed loop's first ``rebuild_every - ladder_reads`` reads.  An
    # append folds every row into each cached trie ancestor, which makes
    # it ~3x dearer once a trie exists; placing the appends by read
    # count, over APPEND_SHARE of the reads before the rebuild, keeps
    # every one of them in the trie-less regime whatever the host's
    # speed, and spreads them over most of the loop's first half.
    before_rebuild = inputs.POLICY.rebuild_every - ladder_reads
    step = APPEND_SHARE * before_rebuild / len(appends)
    for segment in range(1, SEGMENTS + 1):
        first = len(closed)
        with traced():
            while busy_ns < segment * seconds * 1e9 / SEGMENTS:
                if len(writes) < len(appends) and len(closed) >= (len(writes) + 1) * step:
                    writes.append(sender.send(appends[len(writes)]))
                    continue
                # Generating the next polygon is not request time: only
                # the calls themselves accrue towards the loop's length.
                (request,) = take(1)
                outcome = sender.send(request)
                closed.append(outcome)
                busy_ns += outcome.end - outcome.start
        # Checking a segment's answers (untimed) between segments spreads
        # the measured seconds over a longer stretch of host time.
        checker.feed(closed[first:], writes)
    # A host too slow to reach them in the loop still makes every append,
    # and still before the rebuild, which needs more reads than were made.
    with traced():
        writes.extend(sender.send(request) for request in appends[len(writes):])
    checker.feed([], writes)
    after = service.stats()
    return Pass(
        closed, busy_ns / 1e9, rungs, best, writes, before, after, index_size(dataset),
        peak_rss_mb(),
        tracer.export() if tracer is not None else [],
    )


# -- checking and metrics -------------------------------------------------


class Checker:
    """Checks one pass's answers against its own reference block.

    :meth:`feed` may be called repeatedly as long as later reads carry
    versions no older than earlier ones (true of a single in-process
    client); acknowledged appends accumulate across calls.
    """

    def __init__(self, base, regions: Sequence, memo: dict | None) -> None:  # noqa: ANN001
        self.reference = Reference(base, inputs.LEVEL, inputs.AGGREGATES)
        self.cells = int(self.reference.block.num_cells)
        self.regions = regions
        self.memo = memo
        self.problems: list[str] = []
        self.computed = 0
        self._appends: dict[int, list] = {}
        self._writes_seen = 0

    def feed(self, reads: Sequence[Outcome], writes: Sequence[Outcome]) -> None:
        for outcome in writes[self._writes_seen:]:
            if outcome.ok:
                envelope = outcome.envelope()
                rows = _rows_of(outcome.request)
                if int(envelope["data"]["appended"]) != len(rows):
                    self.problems.append(
                        f"append acknowledged {envelope['data']['appended']} of {len(rows)} rows"
                    )
                self._appends[int(envelope["version"])] = rows
        self._writes_seen = len(writes)
        answered = []
        for outcome in reads:
            if outcome.ok:
                envelope = outcome.envelope()
                answered.append(
                    Read(outcome.request.region, int(envelope["version"]), envelope["data"])
                )
        computed, problems = verify(self.reference, self.regions, answered, self._appends, self.memo)
        self.computed += computed
        self.problems.extend(problems)


def _rows_of(request: Request) -> list:
    body = request.body
    if isinstance(body, bytes):
        body = json.loads(body)
    return body["rows"]


def e2e_metrics(run: Pass, setup_s: Sequence[float]) -> tuple[dict[str, float], dict]:
    ok_closed = [o.latency_ms for o in run.closed if o.ok]
    tail_q, tail_ms = supported_quantile(ok_closed, 0.99) if ok_closed else (0.0, 0.0)
    ok_writes = [o.latency_ms for o in run.writes if o.ok]
    write_q, write_tail = supported_quantile(ok_writes, 0.95) if ok_writes else (0.0, 0.0)
    attempted = len(run.outcomes)
    failed = sum(not o.ok for o in run.outcomes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "read_p50_ms": median(ok_closed) if ok_closed else 0.0,
        "read_p99_ms": tail_ms,
        "read_qps": len(ok_closed) / run.closed_s if run.closed_s else 0.0,
        "read_slo_qps": run.best.achieved_qps if run.best is not None else 0.0,
        "write_p50_ms": median(ok_writes) if ok_writes else 0.0,
        "write_p95_ms": write_tail,
        "success_frac": 1.0 - failed / attempted if attempted else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
        "index_bytes_per_point": run.index["index_bytes"] / max(1, run.index["points"]),
    }
    detail = {
        "read_samples": len(ok_closed),
        "read_p99_quantile_used": tail_q,
        "write_samples": len(ok_writes),
        "write_p95_quantile_used": write_q,
        "ladder": [
            {"rate": r.rate, "planned": r.planned, "sent": len(r.outcomes), "passed": r.passed,
             "tail_ms": r.tail_ms, "achieved_qps": r.achieved_qps}
            for r in run.rungs
        ],
        "setup_s_samples": list(setup_s),
    }
    return metrics, detail


def repeat_share(reads: Sequence[Outcome]) -> float:
    seen: set[int] = set()
    repeats = 0
    for outcome in sorted(reads, key=lambda o: o.start):
        region = outcome.request.region
        repeats += region in seen
        seen.add(region)
    return repeats / len(reads) if reads else 0.0


def layer_metrics(run: Pass, baseline: Pass) -> dict[str, float]:
    reads = {o.request.rid for o in run.reads}
    writes = {o.request.rid for o in run.writes}
    metrics = span_metrics(run.spans, reads, writes)
    metrics.update(telemetry_metrics(run.before, run.after))
    metrics["workload.repeat_share"] = repeat_share(run.reads)
    metrics["loadgen.late_p95_ms"] = (
        nearest_rank([o.lateness_ms for o in run.writes], 0.95) if run.writes else 0.0
    )
    outcomes = run.outcomes
    metrics["failed_frac"] = sum(not o.ok for o in outcomes) / max(1, len(outcomes))
    traced = [o.latency_ms for o in run.closed if o.ok]
    untraced = [o.latency_ms for o in baseline.closed if o.ok]
    metrics["trace.overhead_frac"] = (
        median(traced) / median(untraced) - 1.0 if traced and untraced else 0.0
    )
    return {name: metrics[name] for name in LAYER_UNITS}


# -- the run ---------------------------------------------------------------


def _settle() -> None:
    """Collect set-up garbage and exempt everything alive (the generated
    inputs above all) from later collections, so that collector pauses
    during a pass scan what the pass allocates, not the benchmark's
    input lists."""
    gc.collect()
    gc.freeze()


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
    }


def _capacities() -> dict:
    return {
        "mv": DEFAULT_MAX_VIEWS,
        "edge": DEFAULT_MAX_ENTRIES,
        "result": DEFAULT_RESULT_ENTRIES,
        "covering": DEFAULT_COVERING_ENTRIES,
    }


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    shape: dict
    problems: list[str]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: pathlib.Path) -> RunResult:
    rids = Rids()
    tracer = Tracer() if trace else None
    raw = inputs.raw_table(seed)
    raw_points = len(raw)
    servers: list[ServerProcess] = []
    try:
        if workload == "api_unique_polygons":
            unique = UniqueRequests(seed)
            regions = unique.polygons
            batches = inputs.append_batches(seed, API_WRITES)
            timings, kept, base = _setups(
                SETUP_REPS,
                lambda rep: _extract_and_build(raw),
                lambda rep: rep >= SETUP_REPS - (2 if trace else 1),
                tracer,
            )
            del raw
            _settle()
            passes, checkers = [], []
            # Both passes of a traced run append the same batches in the
            # same order, so equal (region, version) pairs share answers.
            memo: dict = {}
            for number, dataset in enumerate(kept):
                service = GeoService()
                service.register(inputs.DATASET, dataset)
                traced = tracer if number == len(kept) - 1 else None
                checkers.append(Checker(base, regions, memo))
                passes.append(
                    api_pass(service, dataset, seconds, unique, batches, rids, traced, checkers[-1])
                )
                kept[number] = None
            hot: list[int] = []
        else:
            polygons, hot, order = inputs.skewed_inputs(seed, REPEATS)
            regions = polygons
            bodies = [inputs.query_body(p) for p in polygons]
            write_count = PROBE_WRITES
            if workload == "wire_ingest_mix":
                write_count = math.ceil(WRITE_RATE * (seconds + 30))
            batches = inputs.append_batches(seed, write_count)

            def make(rep: int) -> tuple:
                base, dataset = _extract_and_build(raw)
                path = workdir / f"block{rep}.npz"
                dataset.save(path)
                traced = trace and rep == SETUP_REPS - 1
                server = ServerProcess(path, workdir, f"server{rep}", traced)
                servers.append(server)
                server.wait_ready()
                return base, server

            timings, kept, base = _setups(
                SETUP_REPS, make, lambda rep: rep >= SETUP_REPS - (2 if trace else 1), tracer
            )
            del raw
            _settle()
            passes, checkers = [], []
            for number, server in enumerate(kept):
                traced = tracer if number == len(kept) - 1 else None
                result = wire_pass(workload, server, seconds, order, bodies, batches, rids, traced)
                if traced is not None:
                    result.spans = graft(tracer.export(), result.spans)
                passes.append(result)
            for result in passes:
                checkers.append(Checker(base, regions, None))
                checkers[-1].feed(result.reads, result.writes)
    finally:
        for server in servers:
            server.stop()

    problems = [problem for checker in checkers for problem in checker.problems]
    covering_cells = [n for checker in checkers for n in checker.reference.covering_cells]
    measured = passes[-1]
    e2e, detail = e2e_metrics(measured, timings)
    if trace:
        metrics = layer_metrics(measured, passes[0])
        units = LAYER_UNITS
        selfsum = metrics["trace.selfsum_frac"]
        if abs(selfsum - 1.0) > SELFSUM_TOLERANCE:
            problems.append(f"self times sum to {selfsum:.3f} of the traced end-to-end time")
    else:
        metrics, units = e2e, E2E_UNITS
    shape = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **_environment(),
        "raw_points": raw_points,
        "stored_points": len(base.table),
        "level": inputs.LEVEL,
        "cells": checkers[-1].cells,
        "policy": {"threshold": inputs.POLICY.threshold, "rebuild_every": inputs.POLICY.rebuild_every},
        "hot_set": len(hot),
        "capacities": _capacities(),
        "reads": len(measured.reads),
        "writes": len(measured.writes),
        "distinct_requests": len({o.request.region for o in measured.reads}),
        "repeat_share": repeat_share(measured.reads),
        "reference_answers": checkers[-1].computed,
        "cells_per_query": float(np.mean(covering_cells)) if covering_cells else 0.0,
        **detail,
        "e2e": e2e,
    }
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(sum(not o.ok for o in p.outcomes) for p in passes)
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={name: (metrics[name], units[name]) for name in units},
        shape=shape,
        problems=problems,
    )
