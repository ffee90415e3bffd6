"""Tests for the CellSpace coordinate <-> id mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cellid
from repro.cells.curves import MAX_LEVEL, MORTON
from repro.cells.space import EARTH, EARTH_BOUNDS, CellSpace
from repro.errors import CellError
from repro.geometry.bbox import BoundingBox

lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


class TestKeying:
    @given(lon, lat)
    @settings(max_examples=200, deadline=None)
    def test_leaf_contains_point(self, x, y):
        leaf = EARTH.leaf_id(x, y)
        bounds = EARTH.cell_bounds(leaf)
        # The owning cell's bounds contain the point (allowing for the
        # half-open split convention at the exact upper domain edge).
        assert bounds.expanded(1e-12).contains_point(min(x, bounds.max_x), min(y, bounds.max_y))

    @given(lon, lat, st.integers(min_value=0, max_value=MAX_LEVEL))
    @settings(max_examples=200, deadline=None)
    def test_cell_at_is_ancestor_of_leaf(self, x, y, level):
        leaf = EARTH.leaf_id(x, y)
        coarse = EARTH.cell_at(x, y, level)
        assert cellid.level_of(coarse) == level
        assert cellid.contains(coarse, leaf)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-180, 180, 300)
        ys = rng.uniform(-90, 90, 300)
        leaves = EARTH.leaf_ids(xs, ys)
        for index in range(0, 300, 17):
            assert int(leaves[index]) == EARTH.leaf_id(float(xs[index]), float(ys[index]))

    def test_out_of_domain_points_clamp(self):
        inside = EARTH.leaf_id(180.0, 90.0)
        outside = EARTH.leaf_id(200.0, 95.0)
        assert inside == outside

    def test_far_points_clamp_to_the_nearest_edge(self):
        """Finite points so far out that the scaled coordinate
        overflows still land in the edge cell on their side, in the
        scalar (append) and vectorised (extract) keying alike."""
        points = [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]
        corners = [(180.0, 90.0), (-180.0, -90.0), (180.0, -90.0)]
        scalar = [EARTH.leaf_id(x, y) for x, y in points]
        assert scalar == [EARTH.leaf_id(x, y) for x, y in corners]
        xs, ys = (np.array(axis) for axis in zip(*points))
        assert EARTH.leaf_ids(xs, ys).tolist() == scalar


class TestCellGeometry:
    def test_cell_bounds_nest(self):
        cell = EARTH.cell_at(-73.98, 40.75, 10)
        child_bounds = [EARTH.cell_bounds(kid) for kid in cellid.children(cell)]
        parent_bounds = EARTH.cell_bounds(cell)
        for bounds in child_bounds:
            assert parent_bounds.contains_box(bounds)
        total_area = sum(bounds.area() for bounds in child_bounds)
        assert total_area == pytest.approx(parent_bounds.area())

    def test_cell_size_halves_per_level(self):
        for level in range(0, MAX_LEVEL):
            w0, h0 = EARTH.cell_size(level)
            w1, h1 = EARTH.cell_size(level + 1)
            assert w1 == pytest.approx(w0 / 2)
            assert h1 == pytest.approx(h0 / 2)

    def test_cell_center_inside_bounds(self):
        cell = EARTH.cell_at(10.0, 20.0, 8)
        cx, cy = EARTH.cell_center(cell)
        assert EARTH.cell_bounds(cell).contains_point(cx, cy)


class TestEnclosingCell:
    def test_small_box_gets_deep_cell(self):
        box = BoundingBox(-73.99, 40.74, -73.98, 40.75)
        cell = EARTH.smallest_enclosing_cell(box)
        assert cellid.level_of(cell) >= 8
        assert EARTH.cell_bounds(cell).contains_box(box)

    def test_whole_domain_gets_root(self):
        cell = EARTH.smallest_enclosing_cell(EARTH_BOUNDS)
        assert cellid.level_of(cell) == 0

    def test_box_outside_domain_raises(self):
        space = CellSpace(BoundingBox(0.0, 0.0, 10.0, 10.0))
        with pytest.raises(CellError):
            space.smallest_enclosing_cell(BoundingBox(20.0, 20.0, 30.0, 30.0))


class TestCustomSpaces:
    def test_custom_domain(self):
        space = CellSpace(BoundingBox(0.0, 0.0, 100.0, 50.0))
        leaf = space.leaf_id(50.0, 25.0)
        bounds = space.cell_bounds(leaf)
        assert bounds.contains_point(50.0, 25.0)

    def test_morton_space_differs_from_hilbert(self):
        morton_space = CellSpace(EARTH_BOUNDS, curve=MORTON)
        assert morton_space.leaf_id(-73.9, 40.7) != EARTH.leaf_id(-73.9, 40.7)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(CellError):
            CellSpace(BoundingBox(0.0, 0.0, 0.0, 10.0))
