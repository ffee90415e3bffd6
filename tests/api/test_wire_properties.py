"""Property tests of the wire entry points: whatever JSON a client
sends, ``run_dict`` and ``run_batch_dict`` answer with typed envelopes.

Every outcome must be a JSON-serialisable dict carrying a boolean
``ok``; every failure carries an error code from ``HTTP_STATUS`` and is
never ``internal`` (a wire payload must not be able to provoke an
untyped library error, which the HTTP tier would turn into a 500).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Dataset, GeoService, TieredCache
from repro.api.errors import HTTP_STATUS, INTERNAL
from repro.cells import EARTH
from repro.storage import PointTable, Schema, extract

# Finite coordinates near the float limit overflow intermediate
# products in the geometry kernel; the property is about envelopes.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def service() -> GeoService:
    """One small service shared by every example of the module (appends
    that succeed grow it, which only widens what later examples hit)."""
    rng = np.random.default_rng(5)
    count = 1500
    table = PointTable(
        Schema(["fare", "distance"]),
        rng.normal(-73.95, 0.04, count),
        rng.normal(40.75, 0.03, count),
        {"fare": rng.gamma(3.0, 4.0, count), "distance": rng.gamma(2.0, 2.0, count)},
    )
    service = GeoService(cache=TieredCache())
    service.register("taxi", Dataset.build(extract(table, EARTH), 12, "adaptive"))
    return service


# -- strategies -------------------------------------------------------------

numbers = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-74.2, max_value=-73.7),
    st.floats(min_value=40.5, max_value=40.95),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)



def mostly(valid, hostile):
    """``valid`` three times in four, otherwise ``hostile``: every field
    must stay valid often enough for the others to reach deep code."""
    return st.one_of(valid, valid, valid, hostile)


longitudes = st.floats(min_value=-74.2, max_value=-73.7)
latitudes = st.floats(min_value=40.5, max_value=40.95)
coordinates = mostly(st.one_of(longitudes, latitudes), numbers)
positions = mostly(
    st.tuples(longitudes, latitudes).map(list),
    st.one_of(st.tuples(coordinates, coordinates).map(list), json_values),
)
rings = mostly(
    # A closed ring, possibly degenerate or self-intersecting.
    st.lists(positions, min_size=3, max_size=7).map(lambda ring: ring + ring[:1]),
    st.one_of(st.lists(positions, max_size=3), json_values),
)
polygon_coordinates = mostly(st.lists(rings, min_size=1, max_size=1), st.lists(rings, max_size=3))
geometries = mostly(
    st.one_of(
        st.fixed_dictionaries({"type": st.just("Polygon"), "coordinates": polygon_coordinates}),
        st.fixed_dictionaries(
            {
                "type": st.just("MultiPolygon"),
                "coordinates": st.lists(polygon_coordinates, min_size=1, max_size=2),
            }
        ),
    ),
    st.fixed_dictionaries(
        {
            "type": st.sampled_from(["Point", "LineString", "polygon", "FeatureCollection"]),
            "coordinates": json_values,
        }
    ),
)
regions = mostly(
    st.one_of(
        geometries,
        st.fixed_dictionaries(
            {"type": st.just("Feature"), "geometry": geometries},
            optional={"properties": json_values},
        ),
        st.fixed_dictionaries({"bbox": st.lists(coordinates, min_size=4, max_size=4)}),
    ),
    json_values,
)
feature_collections = mostly(
    st.one_of(
        st.fixed_dictionaries(
            {
                "type": st.just("FeatureCollection"),
                "features": st.lists(
                    st.fixed_dictionaries(
                        {"type": st.just("Feature"), "geometry": geometries},
                        optional={"properties": st.fixed_dictionaries({"name": st.text(max_size=4)})},
                    ),
                    max_size=3,
                ),
            }
        ),
        st.lists(
            st.fixed_dictionaries({"name": st.text(min_size=1, max_size=4), "region": regions}),
            max_size=3,
        ),
    ),
    json_values,
)
comparisons = st.fixed_dictionaries(
    {
        "col": mostly(st.sampled_from(["fare", "distance"]), json_values),
        "op": st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "between", "in", "like"]),
        "value": mostly(st.one_of(numbers, st.lists(numbers, max_size=3)), json_values),
    }
)
predicates = st.recursive(
    mostly(comparisons, json_values),
    lambda children: st.one_of(
        st.fixed_dictionaries({"and": st.lists(children, max_size=3)}),
        st.fixed_dictionaries({"or": st.lists(children, max_size=3)}),
        st.fixed_dictionaries({"not": children}),
    ),
    max_leaves=6,
)
aggregates = mostly(
    st.lists(st.sampled_from(["count", "sum:fare", "avg:distance", "min:fare", "max:fare"]), max_size=3),
    st.lists(
        st.one_of(st.sampled_from(["sum:nope", "median:fare", "sum", "count:"]), json_values),
        max_size=3,
    ),
)
hints = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "mode": st.sampled_from(["kernel", "vector", "scalar"]),
            "cache": st.booleans(),
            "count_only": st.booleans(),
        },
    ),
    st.one_of(
        st.dictionaries(st.sampled_from(["mode", "cache", "count_only", "bogus"]), json_values),
        json_values,
    ),
)
datasets = mostly(st.just("taxi"), json_values)
names = mostly(st.text(min_size=1, max_size=6), json_values)
query_fields = {"dataset": datasets, "where": predicates, "aggregates": aggregates, "hints": hints}

queries = st.one_of(
    st.fixed_dictionaries({"v": st.just(2), "region": regions}, optional=query_fields),
    st.fixed_dictionaries({"v": st.just(2), "group_by": feature_collections}, optional=query_fields),
)
rows = mostly(
    st.lists(
        st.fixed_dictionaries(
            {"x": coordinates, "y": coordinates, "fare": numbers, "distance": numbers}
        ),
        min_size=1,
        max_size=3,
    ),
    st.one_of(
        st.lists(
            st.dictionaries(st.sampled_from(["x", "y", "fare", "distance", "z"]), json_values),
            max_size=3,
        ),
        json_values,
    ),
)
appends = st.fixed_dictionaries(
    {"v": st.just(2), "op": st.just("append"), "rows": rows}, optional={"dataset": datasets}
)
materializes = st.fixed_dictionaries(
    {"v": st.just(2), "op": st.just("materialize"), "region": regions},
    optional=dict(query_fields, name=names),
)
management = st.one_of(
    st.fixed_dictionaries({"v": st.just(2), "op": st.just("views")}, optional={"dataset": datasets}),
    st.fixed_dictionaries(
        {"v": st.just(2), "op": st.sampled_from(["drop_view", "bogus"]), "name": names},
        optional={"dataset": datasets},
    ),
)
#: Any payload of the wire surface, hostile in every field, plus
#: arbitrary JSON and envelopes carrying one unknown extra key.
wire_payloads = st.one_of(
    queries,
    queries,
    appends,
    materializes,
    management,
    json_values,
    st.tuples(queries, st.text(max_size=6), json_values).map(
        lambda item: {**item[0], item[1]: item[2]}
    ),
)


def assert_typed_envelope(envelope: object) -> None:
    assert isinstance(envelope, dict)
    assert isinstance(envelope.get("ok"), bool)
    json.dumps(envelope)
    if not envelope["ok"]:
        code = envelope["error"]["code"]
        assert code in HTTP_STATUS
        assert code != INTERNAL, envelope["error"]


class TestWireProperties:
    @PROPERTY_SETTINGS
    @given(payload=wire_payloads)
    def test_run_dict_always_answers_a_typed_envelope(self, service, payload):
        assert_typed_envelope(service.run_dict(payload))

    @PROPERTY_SETTINGS
    @given(payloads=st.lists(wire_payloads, max_size=4))
    def test_run_batch_dict_answers_one_typed_envelope_per_member(self, service, payloads):
        envelopes = service.run_batch_dict(payloads)
        assert isinstance(envelopes, list)
        assert len(envelopes) == len(payloads)
        for envelope in envelopes:
            assert_typed_envelope(envelope)
