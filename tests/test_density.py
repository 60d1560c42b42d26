import math

import numpy as np
import pytest

from gnbdim.density import (
    EARTH_RADIUS_KM,
    DensityGrid,
    DeploymentArea,
    GridSpec,
    area_to_geojson,
    bin_records,
    find_5gda,
    grid_to_csv,
    project,
    subscriber_density,
    unproject,
)
from gnbdim.errors import NonPositiveScaleError, WindowTooLargeError

from conftest import tile_center_records, towers


def spec_at(lon=0.0, lat=0.0, cols=7, rows=7, tile=1.0) -> GridSpec:
    return GridSpec(origin_lon=lon, origin_lat=lat, n_cols=cols, n_rows=rows, tile_km=tile)


def grid_from(weights, tile=1.0) -> DensityGrid:
    w = np.asarray(weights, dtype=np.float64)
    spec = GridSpec(
        origin_lon=0.0, origin_lat=0.0, n_cols=w.shape[1], n_rows=w.shape[0], tile_km=tile
    )
    return DensityGrid(spec=spec, weight=w, towers=(w > 0).astype(np.int64))


def brute_force_window(weights, w_cols, h_rows):
    """Exhaustive window enumeration, first maximum in row-major order."""
    weights = np.asarray(weights)
    rows, cols = weights.shape
    best = None
    for r0 in range(rows - h_rows + 1):
        for c0 in range(cols - w_cols + 1):
            total = weights[r0 : r0 + h_rows, c0 : c0 + w_cols].sum()
            if best is None or total > best[2]:
                best = (c0, r0, total)
    return best


class TestProject:
    def test_origin_maps_to_zero(self):
        assert project(12.5, 48.1, spec_at(12.5, 48.1)) == (0.0, 0.0)

    def test_hundredth_degree_at_equator(self):
        x, y = project(0.01, 0.0, spec_at())
        assert x == pytest.approx(EARTH_RADIUS_KM * 0.01 * math.pi / 180.0)
        assert x == pytest.approx(1.11195, abs=1e-5)
        assert y == 0.0

    def test_longitude_shrinks_with_cos_of_origin_latitude(self):
        x_eq, _ = project(0.01, 0.0, spec_at(lat=0.0))
        x_60, _ = project(0.01, 60.0, spec_at(lat=60.0))
        assert x_60 == pytest.approx(0.5 * x_eq)

    def test_unproject_inverts(self):
        spec = spec_at(lon=-87.7, lat=41.8)
        for x, y in [(0.0, 0.0), (3.5, 1.2), (6.9, 6.9), (-2.0, 5.0)]:
            lon, lat = unproject(x, y, spec)
            assert project(lon, lat, spec) == pytest.approx((x, y), abs=1e-12)


class TestBinRecords:
    def test_single_record_lands_in_its_tile(self):
        spec = spec_at(lon=-87.7, lat=41.8)
        centers = tile_center_records(spec, samples=57)
        records = towers(centers.lon[:1], centers.lat[:1], [57])
        # conftest places the first tower at tile (0, 0).
        grid = bin_records(records, spec)
        assert grid.weight[0, 0] == 57.0
        assert grid.weight.sum() == 57.0
        assert grid.towers[0, 0] == 1
        assert grid.n_outside == 0

    def test_empty_input(self):
        grid = bin_records(towers([], [], []), spec_at())
        assert grid.weight.sum() == 0.0
        assert grid.towers.sum() == 0
        assert grid.weight.dtype == np.float64

    def test_same_tile_accumulates(self):
        spec = spec_at(lon=-87.7, lat=41.8)
        centers = tile_center_records(spec, samples=10)
        grid = bin_records(towers(centers.lon[[3, 3]], centers.lat[[3, 3]], [10, 20]), spec)
        assert grid.weight.max() == 30.0
        assert grid.towers.max() == 2

    def test_out_of_grid_counted_and_dropped(self):
        spec = spec_at(lon=-87.7, lat=41.8, cols=2, rows=2)
        records = tile_center_records(spec_at(lon=-87.7, lat=41.8, cols=7, rows=7), samples=5)
        grid = bin_records(records, spec)
        assert grid.n_outside == 49 - 4
        assert grid.weight.sum() == 4 * 5.0

    def test_matches_sequential_loop(self):
        # Samples up to 1e17 are not all exact in float64, so sums depend on
        # the order of addition: the reference adds row by row, in input order.
        rng = np.random.default_rng(11)
        spec = spec_at(lon=-87.7, lat=41.8, cols=9, rows=6, tile=0.5)
        wider = spec_at(lon=-87.75, lat=41.75, cols=14, rows=12, tile=0.5)
        centers = tile_center_records(wider, samples=1)
        # Three towers per tile center, in shuffled order.
        at = np.repeat(np.arange(len(centers)), 3)
        rng.shuffle(at)
        records = towers(
            centers.lon[at], centers.lat[at], [int(rng.integers(0, 10**17)) for _ in at]
        )
        weight = np.zeros((spec.n_rows, spec.n_cols))
        count = np.zeros((spec.n_rows, spec.n_cols), dtype=np.int64)
        outside = 0
        for lon, lat, n in zip(records.lon.tolist(), records.lat.tolist(), records.samples):
            x, y = project(lon, lat, spec)
            col, row = math.floor(x / spec.tile_km), math.floor(y / spec.tile_km)
            if 0 <= col < spec.n_cols and 0 <= row < spec.n_rows:
                weight[row, col] += float(n)
                count[row, col] += 1
            else:
                outside += 1
        grid = bin_records(records, spec)
        assert np.array_equal(grid.weight, weight)
        assert np.array_equal(grid.towers, count)
        assert grid.n_outside == outside > 0

    def test_mass_conservation_exact(self):
        rng = np.random.default_rng(5)
        spec = spec_at(lon=-87.7, lat=41.8, cols=9, rows=6)
        records = tile_center_records(spec, samples=1)
        import dataclasses
        records = dataclasses.replace(
            records, samples=[int(rng.integers(0, 10_000)) for _ in range(len(records))]
        )
        grid = bin_records(records, spec)
        assert grid.weight.sum() == float(sum(records.samples))


class TestFind5gda:
    def test_worked_grid(self):
        grid = grid_from([[1, 2, 0], [0, 3, 0], [4, 0, 0]])
        area = find_5gda(grid, 2, 2)
        assert (area.col0, area.row0) == (0, 1)
        assert area.total_weight == 7.0
        assert area.area_km2 == 4.0

    def test_uniform_grid_ties_to_south_west(self):
        grid = grid_from(np.ones((5, 5)))
        area = find_5gda(grid, 2, 3)
        assert (area.col0, area.row0) == (0, 0)

    def test_full_window_takes_everything(self):
        grid = grid_from(np.arange(12.0).reshape(3, 4))
        area = find_5gda(grid, 4, 3)
        assert area.total_weight == grid.weight.sum()

    def test_window_too_large(self):
        grid = grid_from(np.ones((3, 3)))
        with pytest.raises(WindowTooLargeError):
            find_5gda(grid, 4, 1)
        with pytest.raises(WindowTooLargeError):
            find_5gda(grid, 1, 0)

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            rows = int(rng.integers(1, 15))
            cols = int(rng.integers(1, 15))
            weights = rng.integers(0, 50, size=(rows, cols)).astype(float)
            w = int(rng.integers(1, cols + 1))
            h = int(rng.integers(1, rows + 1))
            area = find_5gda(grid_from(weights), w, h)
            c0, r0, total = brute_force_window(weights, w, h)
            assert (area.col0, area.row0) == (c0, r0)
            assert area.total_weight == total

    def test_total_monotone_in_window_size(self):
        rng = np.random.default_rng(23)
        weights = rng.integers(0, 100, size=(10, 10)).astype(float)
        grid = grid_from(weights)
        prev = -1.0
        for size in range(1, 11):
            total = find_5gda(grid, size, size).total_weight
            assert total >= prev
            prev = total

    def test_translation_moves_the_anchor(self):
        rng = np.random.default_rng(29)
        weights = rng.integers(0, 50, size=(6, 6)).astype(float)
        padded = np.zeros((9, 9))
        padded[0:6, 0:6] = weights
        shifted = np.zeros((9, 9))
        shifted[2:8, 3:9] = weights
        a = find_5gda(grid_from(padded), 3, 3)
        b = find_5gda(grid_from(shifted), 3, 3)
        assert (b.col0 - a.col0, b.row0 - a.row0) == (3, 2)
        assert a.total_weight == b.total_weight


class TestSubscriberDensity:
    def area(self, weight, km2=49.0):
        return DeploymentArea(
            col0=0, row0=0, w_cols=7, h_rows=7, total_weight=weight, area_km2=km2
        )

    def test_reference_density(self):
        assert subscriber_density(self.area(4900.0), 1.0) == 100.0

    def test_zero_weight(self):
        assert subscriber_density(self.area(0.0), 1.0) == 0.0

    def test_linear_in_scale(self):
        assert subscriber_density(self.area(4900.0), 2.0) == 200.0

    def test_rejects_non_positive_scale(self):
        with pytest.raises(NonPositiveScaleError):
            subscriber_density(self.area(4900.0), 0.0)


class TestExports:
    def test_csv_shape(self):
        grid = grid_from([[1, 2], [3, 4]])
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "row,col,weight,towers"
        assert len(lines) == 1 + 4
        assert lines[1] == "0,0,1.0,1"

    def test_area_geojson_properties(self):
        grid = grid_from([[1, 2, 0], [0, 3, 0], [4, 0, 0]])
        area = find_5gda(grid, 2, 2)
        doc = area_to_geojson(area, grid.spec)
        assert doc["geometry"]["type"] == "Polygon"
        assert doc["properties"]["total_weight"] == 7.0
        assert doc["properties"]["area_km2"] == 4.0
        ring = doc["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert len(ring) == 5
