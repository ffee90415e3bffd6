"""Tests of the benchmark's own machinery: percentile and self-time
arithmetic, rung evaluation, the oracle, tracing install/restore, and
seed determinism of the generated inputs."""

from __future__ import annotations

import math

import pytest

from gbench import inputs
from gbench.loadgen import Outcome, Request, evaluate_rung
from gbench.oracle import Read, Reference, mismatch, verify
from gbench.stats import median, nearest_rank, supported_quantile, tail
from gbench.trace import Tracer, attribution, covered_ns, graft, installed, self_times

# -- percentiles --------------------------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.95) == 95
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([7.0], 0.01) == 7.0
    assert median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    quantile, value = tail(values)
    assert quantile == pytest.approx(0.9)
    assert sum(v > value for v in values) == 10
    assert tail(list(range(10))) is None


def test_p99_needs_a_thousand_samples():
    assert supported_quantile(list(range(1000)), 0.99) == (0.99, 989)
    quantile, value = supported_quantile(list(range(200)), 0.99)
    assert quantile == pytest.approx(0.95)
    assert sum(v > value for v in range(200)) == 10
    assert supported_quantile(list(range(200)), 0.5) == (0.5, 99)
    assert supported_quantile([1.0, 2.0], 0.95) == (1.0, 2.0)


# -- self times -----------------------------------------------------------------


def test_covered_ns_merges_overlaps():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 25), (24, 24)]) == 20
    assert covered_ns([(3, 4), (0, 10)]) == 10


def test_self_time_subtracts_children():
    # root [0, 100) with children [10, 40) and [30, 60); grandchild [15, 20).
    spans = [
        ["root", 0, 100, -1, 1, None],
        ["a", 10, 40, 0, 1, None],
        ["b", 30, 60, 0, 1, None],
        ["c", 15, 20, 1, 1, None],
    ]
    assert self_times(spans) == [50, 25, 30, 5]
    # a and b overlap (concurrent children): their selves add up past
    # the root, which the attribution share exposes.
    share, per_request = attribution(spans, {1})
    assert share == pytest.approx(110 / 100)
    assert per_request[1]["root"] == 50


def test_attribution_is_exact_for_nested_spans():
    spans = [
        ["root", 0, 100, -1, 1, None],
        ["a", 10, 40, 0, 1, None],
        ["b", 50, 90, 0, 1, None],
        ["other", 0, 1000, -1, 2, None],  # another request, not asked for
    ]
    share, per_request = attribution(spans, {1})
    assert share == 1.0
    assert sum(per_request[1].values()) == 100
    assert 2 not in per_request


def test_graft_reparents_server_spans_by_request_id():
    client = [["client.request", 0, 100, -1, 7, None]]
    server = [
        ["server.handler", 10, 90, -1, 7, None],
        ["server.execute", 20, 80, 0, 7, None],
        ["core.open", 0, 5, -1, None, None],
    ]
    merged = graft(client, server)
    assert [span[3] for span in merged] == [-1, 0, 1, -1]
    share, per_request = attribution(merged, {7})
    assert share == 1.0
    assert per_request[7]["client.request"] == 20
    assert per_request[7]["server.execute"] == 60


def test_installed_wraps_and_restores():
    from repro.api.request import QueryRequest
    from repro.cells.coverer import RegionCoverer

    original = RegionCoverer.__dict__["covering"]
    original_parse = QueryRequest.__dict__["from_dict"]
    tracer = Tracer()
    with installed(tracer):
        assert RegionCoverer.__dict__["covering"] is not original
        QueryRequest.from_dict(inputs.query_payload(inputs.tessellation(1, 0)[0]))
    assert RegionCoverer.__dict__["covering"] is original
    assert QueryRequest.__dict__["from_dict"] is original_parse
    assert [span[0] for span in tracer.export()] == ["api.parse"]


# -- rungs --------------------------------------------------------------------


def _outcome(index: int, latency_ms: float, ok: bool = True) -> Outcome:
    due = index * 10_000_000
    return Outcome(
        Request("read", index, 0, b""),
        due,
        due,
        due + int(latency_ms * 1e6),
        200 if ok else 0,
        {"ok": True} if ok else None,
        None if ok else "refused",
    )


def test_rung_passes_within_the_limit():
    outcomes = [_outcome(i, 5.0) for i in range(40)]
    rung = evaluate_rung(100.0, 40, outcomes)
    assert rung.passed
    assert rung.tail_ms == 5.0
    assert rung.achieved_qps == pytest.approx(40 / 0.395)


def test_rung_fails_on_tail_failures_or_backlog():
    slow_tail = [_outcome(i, 5.0 if i < 29 else 150.0) for i in range(40)]
    assert not evaluate_rung(100.0, 40, slow_tail).passed
    # Ten slow samples are tolerated beyond the tail ...
    ten_slow = [_outcome(i, 150.0 if i % 2 == 0 and i < 20 else 5.0) for i in range(40)]
    assert evaluate_rung(100.0, 40, ten_slow).passed
    # ... a rung that falls behind its offered rate is not ...
    backlog = [_outcome(i, 2.0 * i) for i in range(40)]
    rung = evaluate_rung(100.0, 40, backlog)
    assert rung.tail_ms <= 100.0 and not rung.passed
    # ... but failures count as misses, and an aborted rung fails.
    failing = [_outcome(i, 5.0, ok=i % 3 != 0) for i in range(40)]
    assert math.isinf(evaluate_rung(100.0, 40, failing).tail_ms)
    assert not evaluate_rung(100.0, 40, [_outcome(i, 5.0) for i in range(30)]).passed


# -- the oracle ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    from repro.api import Dataset, GeoService
    from repro.cache.tiers import TieredCache
    from repro.cells import EARTH
    from repro.data import nyc_cleaning_rules
    from repro.storage import extract

    base = extract(inputs.raw_table(5, points=20_000), EARTH, nyc_cleaning_rules())
    dataset = Dataset.build(
        base, 14, kind="adaptive", name=inputs.DATASET, policy=inputs.POLICY, cache=TieredCache()
    )
    service = GeoService()
    service.register(inputs.DATASET, dataset)
    regions = inputs.tessellation(5, 0)[:12]
    return base, service, regions


def _served(service, region) -> dict:  # noqa: ANN001
    envelope = service.run_dict(inputs.query_payload(region))
    assert envelope["ok"], envelope
    return envelope


def test_oracle_accepts_served_answers(small_world):
    base, service, regions = small_world
    reference = Reference(base, 14, inputs.AGGREGATES)
    for region in regions:
        assert mismatch(_served(service, region)["data"], reference.answer(region)) is None


def test_oracle_rejects_an_injected_wrong_answer(small_world):
    base, service, regions = small_world
    reference = Reference(base, 14, inputs.AGGREGATES)
    region = max(regions, key=lambda r: _served(service, r)["data"]["count"])
    served = _served(service, region)["data"]
    expected = reference.answer(region)
    assert served["count"] > 0

    wrong_sum = {"count": served["count"], "values": dict(served["values"])}
    wrong_sum["values"]["sum(fare_amount)"] *= 1 + 1e-6
    assert "sum(fare_amount)" in mismatch(wrong_sum, expected)

    wrong_count = dict(served, count=served["count"] + 1)
    assert "count" in mismatch(wrong_count, expected)

    wrong_max = {"count": served["count"], "values": dict(served["values"])}
    wrong_max["values"]["max(trip_distance)"] = math.nextafter(
        wrong_max["values"]["max(trip_distance)"], math.inf
    )
    assert mismatch(wrong_max, expected) is not None

    reads = [Read(0, 1, served), Read(0, 1, wrong_sum)]
    computed, problems = verify(Reference(base, 14, inputs.AGGREGATES), [region], reads, {})
    assert computed == 1
    assert len(problems) == 1


def test_oracle_replays_appends_by_version():
    from repro.api import Dataset, GeoService
    from repro.cache.tiers import TieredCache
    from repro.cells import EARTH
    from repro.data import nyc_cleaning_rules
    from repro.storage import extract

    base = extract(inputs.raw_table(6, points=20_000), EARTH, nyc_cleaning_rules())
    service = GeoService()
    service.register(
        inputs.DATASET,
        Dataset.build(base, 14, kind="adaptive", policy=inputs.POLICY, cache=TieredCache()),
    )
    regions = inputs.tessellation(6, 0)[:5]
    batches = inputs.append_batches(6, 2, rows=50)
    reads, appends = [], {}
    for batch in batches:
        for index, region in enumerate(regions):
            envelope = _served(service, region)
            reads.append(Read(index, envelope["version"], envelope["data"]))
        ack = service.run_dict({"v": 2, "op": "append", "dataset": inputs.DATASET, "rows": batch})
        appends[ack["version"]] = batch
    for index, region in enumerate(regions):
        envelope = _served(service, region)
        reads.append(Read(index, envelope["version"], envelope["data"]))
    assert {read.version for read in reads} == {1, 2, 3}

    computed, problems = verify(Reference(base, 14, inputs.AGGREGATES), regions, reads, appends)
    assert problems == []
    assert computed == 15
    # Without the last acknowledged append the v3 reads cannot be checked.
    _, problems = verify(Reference(base, 14, inputs.AGGREGATES), regions, reads, {2: batches[0]})
    assert any("v3" in problem for problem in problems)


# -- inputs -------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    first, second = inputs.skewed_inputs(3, 50), inputs.skewed_inputs(3, 50)
    assert first[1:] == second[1:]
    assert [p.vertices() for p in first[0]] == [p.vertices() for p in second[0]]
    assert len(first[1]) == inputs.HOT_SET
    assert set(first[2][len(first[0]):]) <= set(first[1])
    assert first[1] != inputs.skewed_inputs(4, 50)[1]

    assert inputs.append_batches(3, 2, rows=10) == inputs.append_batches(3, 2, rows=10)
    a, b = inputs.raw_table(3, points=500), inputs.raw_table(3, points=500)
    assert (a.xs == b.xs).all() and (a.column("fare_amount") == b.column("fare_amount")).all()


def test_unique_polygons_never_repeat():
    stream, again = inputs.unique_polygons(3), inputs.unique_polygons(3)
    polygons = [next(stream) for _ in range(400)]  # spans three tessellations
    assert [p.vertices() for p in polygons] == [next(again).vertices() for _ in range(400)]
    keys = {p.xs.tobytes() + p.ys.tobytes() for p in polygons}
    assert len(keys) == len(polygons)
    assert inputs.query_body(polygons[0]) == inputs.query_body(polygons[0])
