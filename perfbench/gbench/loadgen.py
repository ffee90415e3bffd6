"""Load generation: closed loops, open-loop rate ladders, a fixed-rate
writer.

A *closed loop* sends a client's next request only after the previous
one completed; an *open loop* sends each request at its due time
whatever the backlog, and its latency is timed from that due time, so
a stall also charges the requests queued behind it.  How late the
generator itself sent (``start - due``) is kept per request.

Senders hide the transport: :class:`HttpSender` owns one keep-alive
connection to the serving process, :class:`ServiceSender` calls
``GeoService.run_dict`` in-process.  Each sender is used by one thread.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from gbench.stats import TAIL_BEYOND, median, tail
from gbench.trace import CLIENT_SPAN, RID_HEADER, Tracer

#: Latency limit of the rate ladder (ms) on the tail percentile.
SLO_MS = 100.0
#: Smallest rung, in requests and in seconds (whichever is larger).
RUNG_REQUESTS = 40
RUNG_SECONDS = 1.0
#: A rung whose completions fall below this share of its offered rate
#: is building a backlog.
KEEP_UP = 0.95
#: Per-request socket timeout; a timeout counts as a failure.
TIMEOUT_S = 30.0

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Request:
    """One operation: ``kind`` is ``"read"`` or ``"write"``; ``region``
    indexes the workload's region list (-1 for writes); ``body`` is the
    wire bytes (HTTP) or the wire dict (in-process)."""

    kind: str
    rid: int
    region: int
    body: object


@dataclass
class Outcome:
    request: Request
    due: int | None
    start: int
    end: int
    status: int
    payload: object
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """From the due time in an open loop, else from the send."""
        return (self.end - (self.start if self.due is None else self.due)) / 1e6

    @property
    def lateness_ms(self) -> float:
        return 0.0 if self.due is None else max(0, self.start - self.due) / 1e6

    def envelope(self) -> dict | None:
        """The decoded response envelope, or ``None`` if undecodable."""
        if isinstance(self.payload, dict):
            return self.payload
        if not self.payload:
            return None
        try:
            decoded = json.loads(self.payload)
        except ValueError:
            return None
        return decoded if isinstance(decoded, dict) else None

    @property
    def ok(self) -> bool:
        """A 2xx status carrying an ``ok: true`` envelope."""
        if self.error is not None or not 200 <= self.status < 300:
            return False
        envelope = self.envelope()
        return envelope is not None and envelope.get("ok") is True


class HttpSender:
    """One keep-alive connection to the serving process."""

    def __init__(self, port: int, tracer: Tracer | None = None) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        self._tracer = tracer

    def send(self, request: Request, due: int | None = None) -> Outcome:
        path = "/query" if request.kind == "read" else "/append"
        headers = {"Content-Type": "application/json", RID_HEADER: str(request.rid)}
        start = _clock()
        try:
            self._conn.request("POST", path, body=request.body, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
            status, error = response.status, None
        except (OSError, http.client.HTTPException) as exc:
            # The next request reconnects; this one failed.
            self._conn.close()
            payload, status, error = None, 0, repr(exc)
        end = _clock()
        if self._tracer is not None:
            self._tracer.record(CLIENT_SPAN, start, end, request.rid)
        return Outcome(request, due, start, end, status, payload, error)

    def get(self, path: str) -> dict:
        """A GET route's decoded envelope (telemetry, health)."""
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


class ServiceSender:
    """In-process ``GeoService.run_dict`` calls."""

    def __init__(self, service, tracer: Tracer | None = None) -> None:  # noqa: ANN001
        self._service = service
        self._tracer = tracer

    def send(self, request: Request, due: int | None = None) -> Outcome:
        tracer = self._tracer
        if tracer is not None:
            tracer.set_rid(request.rid)
        start = _clock()
        envelope = self._service.run_dict(request.body)
        end = _clock()
        if tracer is not None:
            tracer.set_rid(None)
        status = 200 if envelope.get("ok") else 500
        return Outcome(request, due, start, end, status, envelope)


def _sleep_until(due: int) -> None:
    remaining = due - _clock()
    if remaining > 0:
        time.sleep(remaining / 1e9)


def closed_loop(senders: Sequence, source: Callable[[], Request], seconds: float) -> tuple[list[Outcome], float]:
    """Each sender on its own thread sends ``source()`` requests back to
    back for ``seconds``; returns the outcomes and the phase's wall
    time (up to the last completion)."""
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    begin = _clock()
    deadline = begin + int(seconds * 1e9)

    def client(sender) -> None:  # noqa: ANN001
        while _clock() < deadline:
            with lock:
                request = source()
            outcomes.append(sender.send(request))

    _run_threads(client, senders)
    end = max((o.end for o in outcomes), default=_clock())
    return outcomes, (end - begin) / 1e9


def open_loop(
    senders: Sequence,
    requests: Sequence[Request],
    rate: float,
    stop: threading.Event | None = None,
    abort_after: int | None = None,
) -> list[Outcome]:
    """Send ``requests`` at ``rate`` per second, each at its due time,
    over the senders (a request waits for the next free sender).

    Stops early when ``stop`` is set, or once more than ``abort_after``
    requests missed ``SLO_MS`` (the rung has failed either way).
    """
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    start = _clock() + 5_000_000
    step = 1e9 / rate
    state = {"next": 0, "missed": 0}

    def client(sender) -> None:  # noqa: ANN001
        while True:
            with lock:
                index = state["next"]
                if index >= len(requests) or (stop is not None and stop.is_set()):
                    return
                if abort_after is not None and state["missed"] > abort_after:
                    return
                state["next"] = index + 1
            due = start + int(index * step)
            while stop is not None and not stop.is_set() and due - _clock() > 50_000_000:
                stop.wait(0.05)
            _sleep_until(due)
            outcome = sender.send(requests[index], due)
            outcomes.append(outcome)
            if not outcome.ok or outcome.latency_ms > SLO_MS:
                with lock:
                    state["missed"] += 1

    _run_threads(client, senders)
    return outcomes


def _run_threads(target: Callable, senders: Sequence) -> None:
    if len(senders) == 1:
        target(senders[0])
        return
    threads = [threading.Thread(target=target, args=(sender,)) for sender in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@dataclass(frozen=True)
class Rung:
    rate: float
    planned: int
    outcomes: list
    passed: bool
    tail_ms: float
    achieved_qps: float


def evaluate_rung(rate: float, planned: int, outcomes: Sequence[Outcome]) -> Rung:
    """A rung passes when every planned request was sent, its tail (the
    highest percentile with ``TAIL_BEYOND`` samples beyond) stays within
    ``SLO_MS`` counting failures as misses, and no backlog grew: the
    rung completed at least ``KEEP_UP`` of its offered rate, and the
    median of its last ``TAIL_BEYOND`` requests also meets ``SLO_MS``."""
    latencies = [o.latency_ms if o.ok else math.inf for o in outcomes]
    supported = tail(latencies)
    tail_ms = supported[1] if supported is not None else math.inf
    last = sorted(outcomes, key=lambda o: o.due or 0)[-TAIL_BEYOND:]
    drained = bool(last) and median([o.latency_ms if o.ok else math.inf for o in last]) <= SLO_MS
    achieved = 0.0
    if outcomes:
        first_due = min(o.due for o in outcomes)
        span_s = (max(o.end for o in outcomes) - first_due) / 1e9
        achieved = sum(o.ok for o in outcomes) / span_s if span_s > 0 else 0.0
    passed = (
        len(outcomes) == planned
        and tail_ms <= SLO_MS
        and drained
        and achieved >= KEEP_UP * rate
    )
    return Rung(rate, planned, list(outcomes), passed, tail_ms, achieved)


def rung_size(rate: float) -> int:
    return max(RUNG_REQUESTS, math.ceil(rate * RUNG_SECONDS))


def ladder(senders: Sequence, take: Callable[[int], list[Request]], rates: Sequence[float]) -> tuple[Rung | None, list[Rung]]:
    """Climb ``rates`` until a rung fails; returns the highest passing
    rung (``None`` if none passed) and every rung run."""
    best: Rung | None = None
    rungs: list[Rung] = []
    for rate in rates:
        planned = rung_size(rate)
        outcomes = open_loop(senders, take(planned), rate, abort_after=TAIL_BEYOND)
        rung = evaluate_rung(rate, planned, outcomes)
        rungs.append(rung)
        if not rung.passed:
            break
        best = rung
    return best, rungs
