import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim.capacity import TrafficModel
from gnbdim.density import (
    EARTH_RADIUS_KM,
    KM_PER_DEG,
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
from gnbdim.errors import GnbdimError

from conftest import grid_of, tile_center_records, towers


def spec_at(lon=0.0, lat=0.0, cols=7, rows=7, tile=1.0) -> GridSpec:
    return GridSpec(origin_lon=lon, origin_lat=lat, n_cols=cols, n_rows=rows, tile_km=tile)


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

    def test_a_tower_across_the_antimeridian_lands_east_of_the_origin(self):
        spec = spec_at(lon=179.95, lat=0.0)
        x, _ = project(-179.995, 0.0, spec)
        assert x == pytest.approx(0.055 * KM_PER_DEG)
        assert unproject(x, 0.0, spec)[0] == pytest.approx(-179.995)
        assert project(179.9, 0.0, spec)[0] == pytest.approx(-0.05 * KM_PER_DEG)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-180, 180), st.floats(-80, 80), st.floats(0.01, 359),
        st.floats(0, 0.999), st.floats(-180, 180),
    )
    @example(179.95, 0.0, 0.1, 0.9, -179.995)
    @example(-100.0, 10.0, 300.0, 0.95, 179.0)
    def test_unproject_inverts_across_the_antimeridian(self, origin_lon, lat, span, f, lon):
        n_cols = 100
        tile_km = span * KM_PER_DEG * math.cos(math.radians(lat)) / n_cols
        spec = GridSpec(origin_lon=origin_lon, origin_lat=lat, n_cols=n_cols, n_rows=1,
                        tile_km=tile_km)
        # A point inside the grid: its longitude is in range, and it projects
        # back to where it came from.
        x = f * n_cols * tile_km
        back_lon, back_lat = unproject(x, 0.0, spec)
        assert -180 <= back_lon <= 180
        assert project(back_lon, back_lat, spec) == pytest.approx((x, 0.0), abs=1e-6 * tile_km)
        # Any longitude lands in the 360 degrees that end at the grid's east
        # edge, or at [-180, 180) for a grid up to 180 degrees wide, where a
        # difference already in range is projected unchanged.
        d_lon = lon - origin_lon
        west = max(-180.0, spec.span_lon - 360.0)
        km_per_deg_lon = KM_PER_DEG * math.cos(math.radians(lat))
        got, _ = project(lon, lat, spec)
        assert west * km_per_deg_lon - 1e-6 <= got <= (west + 360.0) * km_per_deg_lon + 1e-6
        if west == -180.0 and -180 <= d_lon < 180:
            assert got == KM_PER_DEG * d_lon * math.cos(lat * (math.pi / 180.0))


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

    def test_mass_conservation_exact(self):
        rng = np.random.default_rng(5)
        spec = spec_at(lon=-87.7, lat=41.8, cols=9, rows=6)
        records = tile_center_records(spec, samples=1)
        import dataclasses
        records = dataclasses.replace(
            records,
            samples=np.array([int(rng.integers(0, 10_000)) for _ in range(len(records))]),
        )
        grid = bin_records(records, spec)
        assert grid.weight.sum() == float(sum(records.samples))


class TestFind5gda:
    def test_worked_grid(self):
        grid = grid_of([[1, 2, 0], [0, 3, 0], [4, 0, 0]])
        area = find_5gda(grid, 2, 2)
        assert (area.col0, area.row0) == (0, 1)
        assert area.total_weight == 7.0
        assert area.area_km2 == 4.0

    def test_uniform_grid_ties_to_south_west(self):
        grid = grid_of(np.ones((5, 5)))
        area = find_5gda(grid, 2, 3)
        assert (area.col0, area.row0) == (0, 0)

    def test_full_window_takes_everything(self):
        grid = grid_of(np.arange(12.0).reshape(3, 4))
        area = find_5gda(grid, 4, 3)
        assert area.total_weight == grid.weight.sum()

    def test_window_too_large(self):
        grid = grid_of(np.ones((3, 3)))
        with pytest.raises(GnbdimError, match="window 4x1 does not fit the 3x3 grid"):
            find_5gda(grid, 4, 1)
        with pytest.raises(GnbdimError, match="window 1x0 does not fit the 3x3 grid"):
            find_5gda(grid, 1, 0)

    def test_total_monotone_in_window_size(self):
        rng = np.random.default_rng(23)
        weights = rng.integers(0, 100, size=(10, 10)).astype(float)
        grid = grid_of(weights)
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
        a = find_5gda(grid_of(padded), 3, 3)
        b = find_5gda(grid_of(shifted), 3, 3)
        assert (b.col0 - a.col0, b.row0 - a.row0) == (3, 2)
        assert a.total_weight == b.total_weight


class TestSubscriberDensity:
    def area(self, weight, km2=49.0):
        return DeploymentArea(
            col0=0, row0=0, w_cols=7, h_rows=7, total_weight=weight, area_km2=km2
        )

    def traffic(self, subs_per_weight):
        return TrafficModel(demand_per_sub_mbps=1.0, subs_per_weight=subs_per_weight)

    def test_reference_density(self):
        assert subscriber_density(self.area(4900.0), self.traffic(1.0)) == 100.0

    def test_zero_weight(self):
        assert subscriber_density(self.area(0.0), self.traffic(1.0)) == 0.0

    def test_linear_in_scale(self):
        assert subscriber_density(self.area(4900.0), self.traffic(2.0)) == 200.0

    def test_rejects_non_positive_scale(self):
        # The scale is the traffic model's, which checks its range.
        with pytest.raises(ValueError, match="subs_per_weight must be > 0"):
            self.traffic(0.0)


class TestExports:
    def test_csv_shape(self):
        grid = grid_of([[1, 2], [3, 4]])
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "row,col,weight,towers"
        assert len(lines) == 1 + 4
        assert lines[1] == "0,0,1.0,1"

    def test_csv_lists_only_tiles_with_towers(self):
        grid = grid_of([[0, 2], [0, 0]])
        grid.towers[1, 0] = 3  # towers whose samples are all zero
        assert grid_to_csv(grid) == "row,col,weight,towers\n0,1,2.0,1\n1,0,0.0,3\n"

    def test_area_geojson_properties(self):
        grid = grid_of([[1, 2, 0], [0, 3, 0], [4, 0, 0]])
        area = find_5gda(grid, 2, 2)
        doc = area_to_geojson(area, grid.spec)
        assert doc["geometry"]["type"] == "Polygon"
        assert doc["properties"]["total_weight"] == 7.0
        assert doc["properties"]["area_km2"] == 4.0
        ring = doc["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert len(ring) == 5


@st.composite
def rasters(draw):
    """A binned raster: a tile without towers holds weight +0.0."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = rows * cols
    towers = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=n, max_size=n)))
    samples = st.just(0.0) | st.integers(0, 10**20).map(float) | st.floats(1e-300, 1e300)
    weight = np.array(draw(st.lists(samples, min_size=n, max_size=n))) * (towers > 0)
    return DensityGrid(
        spec=spec_at(cols=cols, rows=rows),
        weight=weight.reshape(rows, cols),
        towers=towers.reshape(rows, cols).astype(np.int64),
    )


def _empty_raster(rows, cols):
    zeros = np.zeros((rows, cols))
    spec = spec_at(cols=cols, rows=rows)
    return DensityGrid(spec=spec, weight=zeros, towers=zeros.astype(np.int64))


@settings(max_examples=200, deadline=None)
@given(rasters())
@example(_empty_raster(3, 4))  # header only
def test_csv_reads_back_onto_a_zero_raster(grid):
    weight = np.zeros(grid.weight.shape)
    towers = np.zeros(grid.towers.shape, dtype=np.int64)
    header, *lines = grid_to_csv(grid).splitlines()
    assert header == "row,col,weight,towers"
    for line in lines:
        row, col, w, t = line.split(",")
        weight[int(row), int(col)] = float(w)
        towers[int(row), int(col)] = int(t)
    assert weight.tobytes() == grid.weight.tobytes()
    assert np.array_equal(towers, grid.towers)
