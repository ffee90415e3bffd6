"""Tests for the utility modules and the public API surface."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.util.rng import DEFAULT_SEED, derive_rng, spawn_rngs
from repro.util.tables import format_series, format_table
from repro.util.timing import Stopwatch, time_call


class TestRng:
    def test_same_scope_same_stream(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(1, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_scope_different_stream(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(1, "y").random(5)
        assert not np.array_equal(a, b)

    def test_none_seed_uses_default(self):
        a = derive_rng(None, "x").random(3)
        b = derive_rng(DEFAULT_SEED, "x").random(3)
        assert np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(2, 3, "workers")
        assert len(rngs) == 3
        draws = [generator.random() for generator in rngs]
        assert len(set(draws)) == 3

    def test_int_scope_parts(self):
        a = derive_rng(1, "x", 5).random(3)
        b = derive_rng(1, "x", 6).random(3)
        assert not np.array_equal(a, b)


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.phase("a"):
            time.sleep(0.01)
        with watch.phase("a"):
            pass
        with watch.phase("b"):
            pass
        assert watch.seconds("a") >= 0.01
        assert watch.millis("a") == watch.seconds("a") * 1e3
        assert watch.total_seconds() >= watch.seconds("a")
        assert watch.seconds("missing") == 0.0

    def test_time_call_returns_best_and_result(self):
        seconds, result = time_call(lambda: 42, repeats=3)
        assert result == 42
        assert seconds >= 0.0

    def test_time_call_validates_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: 1, repeats=0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 22222.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "22,222" in text

    def test_format_table_title_and_nan(self):
        text = format_table(["x"], [[float("nan")]], title="T")
        assert text.startswith("T\n")
        assert "nan" in text

    def test_format_series(self):
        text = format_series("runtime", [1, 2], [0.5, 100.0])
        assert text.startswith("runtime:")
        assert "1:0.5000" in text


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "3.0.0"

    def test_error_hierarchy(self):
        from repro import BuildError, CellError, GeometryError, QueryError, ReproError, SchemaError

        for exc in (GeometryError, CellError, SchemaError, QueryError, BuildError):
            assert issubclass(exc, ReproError)

    def test_quickstart_docstring_flow(self):
        """The module docstring example must keep working."""
        import numpy as np

        from repro import EARTH, AggSpec, GeoBlock, PointTable, Polygon, Schema, extract

        table = PointTable(
            Schema(["fare"]),
            xs=np.array([-73.99, -73.97]),
            ys=np.array([40.73, 40.75]),
            columns={"fare": np.array([12.5, 9.0])},
        )
        base = extract(table, EARTH)
        block = GeoBlock.build(base, level=17)
        region = Polygon([(-74.0, 40.7), (-73.9, 40.7), (-73.9, 40.8), (-74.0, 40.8)])
        result = block.select(region, [AggSpec("count"), AggSpec("sum", "fare")])
        assert result.count == 2
        assert result["sum(fare)"] == pytest.approx(21.5)
