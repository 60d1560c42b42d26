"""Traffic density rasterization and deployment-area selection.

Tower records are projected onto a local kilometer grid (equirectangular
around the grid origin; error is well under link-budget margins for
regions below ~100 km) and binned into tiles by their sample counts.
The deployment area is the fixed-size window of maximum total weight,
ties resolved to the south-west so runs are reproducible. Weights are
whole sample counts that total below 2**53, so every sum of them is an
exact float64 integer in any order of addition. A grid holds only the
tile rows that some record falls in: binning and the search work in
O(occupied rows * n_cols), the search in _CHUNK_BYTES beside the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GnbdimError
from .ingest import Cells

EARTH_RADIUS_KM = 6371.0088
MAX_TILES = 100_000_000
MAX_EXTENT_KM = 2.0 * math.pi * EARTH_RADIUS_KM  # once around the Earth
# Above this size, tile indices over MAX_EXTENT_KM are exact integers.
MIN_TILE_KM = MAX_EXTENT_KM / 2**53
_CHUNK_BYTES = 1 << 20  # bytes of the rows that the window search gathers at once

_DEG = math.pi / 180.0
KM_PER_DEG = EARTH_RADIUS_KM * _DEG  # along a meridian


@dataclass(frozen=True)
class GridSpec:
    """A south-west anchored raster of square kilometer tiles."""

    origin_lon: float
    origin_lat: float
    n_cols: int
    n_rows: int
    tile_km: float = 1.0

    def __post_init__(self) -> None:
        if not -180 <= self.origin_lon <= 180:
            raise ValueError(f"origin_lon must be in [-180, 180], got {self.origin_lon}")
        if not -90 < self.origin_lat < 90:  # project() divides by cos(origin_lat)
            raise ValueError(f"origin_lat must be in (-90, 90), got {self.origin_lat}")
        if not self.tile_km > MIN_TILE_KM:
            raise ValueError(f"tile_km must be > {MIN_TILE_KM:.3g}, got {self.tile_km!r}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("n_cols and n_rows must be >= 1")
        if self.n_cols * self.n_rows > MAX_TILES:
            raise ValueError(f"n_cols * n_rows exceeds the {MAX_TILES}-tile guard")
        if max(self.n_cols, self.n_rows) * self.tile_km > MAX_EXTENT_KM:
            raise ValueError(
                f"tile_km * max(n_cols, n_rows) exceeds {MAX_EXTENT_KM:.0f} km, "
                "once around the Earth"
            )
        north_lat = self.origin_lat + self.extent_y_km / KM_PER_DEG
        if north_lat >= 90:
            raise ValueError(
                f"n_rows * tile_km puts the grid's north edge at latitude {north_lat:g}, "
                "at or past the pole"
            )
        if self.span_lon > 360:
            raise ValueError(
                f"n_cols * tile_km spans {self.span_lon:g} degrees of longitude at latitude "
                f"{self.origin_lat:g}, more than 360"
            )

    @property
    def extent_y_km(self) -> float:
        return self.n_rows * self.tile_km

    @property
    def span_lon(self) -> float:
        """Degrees of longitude the grid spans east of its origin."""
        return self.n_cols * self.tile_km / (KM_PER_DEG * math.cos(self.origin_lat * _DEG))


def project(lon, lat, spec: GridSpec):
    """Local east/north kilometers of (lon, lat) relative to the grid origin.

    Equirectangular: one degree of longitude is scaled by the cosine of
    the origin latitude. The longitude difference from the origin is taken
    in [-180, 180), so a grid across the antimeridian holds the towers on
    both sides of it; on a grid wider than 180 degrees, in the 360 degrees
    that end at the grid's east edge. A difference outside that range is
    moved by 360, which suffices for longitudes in [-180, 180]; one inside
    it is used unchanged. Accepts scalars or numpy arrays.
    """
    d_lon = np.asarray(lon) - spec.origin_lon
    west = max(-180.0, spec.span_lon - 360.0)
    if d_lon.min(initial=west) < west or d_lon.max(initial=west) >= west + 360.0:
        d_lon = np.where(
            d_lon < west, d_lon + 360.0, np.where(d_lon >= west + 360.0, d_lon - 360.0, d_lon)
        )
    x = KM_PER_DEG * d_lon * math.cos(spec.origin_lat * _DEG)
    y = KM_PER_DEG * (np.asarray(lat) - spec.origin_lat)
    if np.ndim(x) == 0:
        return float(x), float(y)
    return x, y


def unproject(x_km, y_km, spec: GridSpec):
    """Inverse of :func:`project`, for exporting grid geometry; a longitude
    past the antimeridian is moved by 360 into [-180, 180]."""
    lon = spec.origin_lon + np.asarray(x_km) / (KM_PER_DEG * math.cos(spec.origin_lat * _DEG))
    if lon.max(initial=0.0) > 180.0 or lon.min(initial=0.0) < -180.0:
        lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    lat = spec.origin_lat + np.asarray(y_km) / KM_PER_DEG
    if np.ndim(lon) == 0:
        return float(lon), float(lat)
    return lon, lat


@dataclass
class DensityGrid:
    """Per-tile traffic weight (sample counts) and tower counts.

    Only the tile rows in ``rows`` are held, ascending: row i of
    ``weight`` and ``towers`` is grid row ``rows[i]``, and every tile of
    an unlisted row holds weight +0.0 and no tower. ``rows=None`` lists
    every row, so a full (n_rows, n_cols) raster is a grid too.
    """

    spec: GridSpec
    weight: np.ndarray  # (len(rows), n_cols) float64, south to north
    towers: np.ndarray  # (len(rows), n_cols) int64
    n_outside: int = 0
    rows: np.ndarray | None = None  # ascending grid rows; None: all of them


@dataclass(frozen=True)
class DeploymentArea:
    """The selected window: tile anchor, extent, and contained weight."""

    col0: int
    row0: int
    w_cols: int
    h_rows: int
    total_weight: float
    area_km2: float


def bin_records(records: Cells, spec: GridSpec) -> DensityGrid:
    """Accumulate each record's samples into its tile; out-of-grid is counted.

    The grid holds the rows that some in-grid record falls in, so its
    size follows the occupied rows, not n_rows.
    """
    samples = np.asarray(records.samples, dtype=np.float64)
    x, y = project(records.lon, records.lat, spec)
    col = np.floor(x / spec.tile_km).astype(np.int64)
    row = np.floor(y / spec.tile_km).astype(np.int64)
    inside = (col >= 0) & (col < spec.n_cols) & (row >= 0) & (row < spec.n_rows)
    row, col = row[inside], col[inside]

    occupied = np.zeros(spec.n_rows, dtype=bool)
    occupied[row] = True
    rows = np.flatnonzero(occupied)
    # rank[r] - 1: row r's place among the occupied rows.
    rank = np.add.accumulate(occupied, dtype=np.int64)
    # bincount adds in input order, as a sequential scatter-add would. With
    # no rows it returns integers even when given weights, hence the cast.
    tile = (rank[row] - 1) * spec.n_cols + col
    shape = (len(rows), spec.n_cols)
    weight = np.bincount(tile, weights=samples[inside], minlength=shape[0] * shape[1])
    towers = np.bincount(tile, minlength=shape[0] * shape[1])
    return DensityGrid(
        spec=spec,
        weight=weight.astype(np.float64, copy=False).reshape(shape),
        towers=towers.astype(np.int64, copy=False).reshape(shape),
        n_outside=int((~inside).sum()),
        rows=rows,
    )


def find_5gda(grid: DensityGrid, w_cols: int, h_rows: int) -> DeploymentArea:
    """Maximum-weight w x h window; the first maximum in row-major order,
    the south-west one, wins. A weight whose sign bit is set (-0.0
    included), a grid total not below 2**53, or a weight that is not whole
    raises GnbdimError, in that order.

    Step t takes row t into the window and drops row t - h_rows, for the
    anchor t - h_rows + 1; the steps before anchor 0 fill its window. A
    step is made where a listed row enters or leaves, and at anchor 0: an
    anchor skipped has the sums of the one before it and loses the tie.
    Each chunk of steps gathers its rows into at most _CHUNK_BYTES, checks
    the rows that enter to be whole, carries the column sums down the
    steps, then sums along the columns.
    """
    rows, cols = grid.spec.n_rows, grid.spec.n_cols
    if not (1 <= w_cols <= cols and 1 <= h_rows <= rows):
        raise GnbdimError(f"window {w_cols}x{h_rows} does not fit the {cols}x{rows} grid")
    weight = grid.weight if len(grid.weight) else np.zeros((1, cols))  # no row: take zeros
    if weight.view(np.int64).min() < 0:  # some sign bit is set
        negative = weight[np.signbit(weight)][0].item()
        raise GnbdimError(f"tile weights must not be negative, got {negative!r}")
    with np.errstate(over="ignore"):
        total = float(weight.sum())
    if not total < 2**53:
        raise GnbdimError(
            f"binned samples overflow: the grid's total weight is {total:.6g}, "
            f"not below 2**53 = {2**53}, where sums of sample counts are exact"
        )
    # listed[p]: row p - h_rows is listed, and k[p] - 1 is its place in weight.
    listed = np.zeros(rows + h_rows, dtype=bool)
    listed[slice(h_rows, None) if grid.rows is None else grid.rows + h_rows] = True
    k = np.add.accumulate(listed, dtype=np.int64)
    made = listed[h_rows:] | listed[:rows]
    made[h_rows - 1] = True
    steps = made.nonzero()[0]
    first = int(np.count_nonzero(made[: h_rows - 1]))  # anchor 0's step
    pos = np.add.outer((h_rows, 0), steps)  # each step's row in, and row out
    index, unlisted = k[pos] - 1, ~listed[pos]  # -1 below the first listed row: clipped
    chunk = max(1, min(len(steps), _CHUNK_BYTES // (16 * cols)))
    buf = np.empty(2 * chunk * cols)  # rows in and out; the window sums
    carry = np.zeros(cols)
    n_sums = cols - w_cols + 1
    best = (-1.0, 0)
    for i0 in range(0, len(steps), chunk):
        n = min(chunk, len(steps) - i0)
        gathered = buf[: 2 * n * cols].reshape(2, n, cols)
        entering = weight[k[steps[i0] + h_rows - 1] : k[steps[i0 + n - 1] + h_rows]]
        whole = np.floor(entering, out=gathered[0, : len(entering)])
        if np.count_nonzero(whole != entering):
            fraction = entering[whole != entering][0].item()
            raise GnbdimError(f"tile weights must be whole sample counts, got {fraction!r}")
        np.take(weight, index[:, i0 : i0 + n], 0, gathered, "clip")
        gathered[unlisted[:, i0 : i0 + n]] = 0.0
        s = np.subtract(gathered[0], gathered[1], out=gathered[0])  # each step's change
        s[0] += carry
        np.add.accumulate(s, axis=0, out=s)
        carry[:] = s[-1]
        j0 = max(first - i0, 0)  # the chunk's first anchor
        if j0 < n:
            prefix = np.add.accumulate(s[j0:], axis=1, out=s[j0:])
            window = buf[n * cols : n * cols + (n - j0) * n_sums].reshape(n - j0, n_sums)
            window[:, 0] = prefix[:, w_cols - 1]
            np.subtract(prefix[:, w_cols:], prefix[:, :-w_cols], out=window[:, 1:])
            flat = int(window.argmax())  # row-major: smallest row0 first, then col0
            if window.item(flat) > best[0]:  # an equal later chunk loses the tie
                best = (window.item(flat), (i0 + j0) * n_sums + flat)
    step, col0 = divmod(best[1], n_sums)
    row0 = int(steps[step]) - h_rows + 1
    area_km2 = w_cols * h_rows * grid.spec.tile_km**2
    return DeploymentArea(col0, row0, w_cols, h_rows, best[0], area_km2)


def subscriber_density(area: DeploymentArea, subs_per_weight: float) -> float:
    """Subscribers per km2 inside the deployment area."""
    if subs_per_weight <= 0:
        raise GnbdimError(f"subs_per_weight must be > 0, got {subs_per_weight}")
    if area.area_km2 <= 0:
        raise ValueError("deployment area must have positive extent")
    return area.total_weight * subs_per_weight / area.area_km2


# --- exports ---------------------------------------------------------------


def grid_to_csv(grid: DensityGrid) -> str:
    """Row-major CSV of the tiles that hold a tower: row,col,weight,towers.

    Every other tile holds no weight, so the raster reads back from the
    listed tiles alone.
    """
    listed, cols = np.nonzero(grid.towers > 0)
    rows = listed if grid.rows is None else grid.rows[listed]
    lines = ["row,col,weight,towers"]
    lines += [
        f"{row},{col},{weight!r},{towers}"
        for row, col, weight, towers in zip(
            rows.tolist(),
            cols.tolist(),
            grid.weight[listed, cols].tolist(),
            grid.towers[listed, cols].tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


def _area_ring(area: DeploymentArea, spec: GridSpec) -> list:
    """The area's outline as a closed ring of [lon, lat] corners."""
    x0, y0 = area.col0 * spec.tile_km, area.row0 * spec.tile_km
    x1 = (area.col0 + area.w_cols) * spec.tile_km
    y1 = (area.row0 + area.h_rows) * spec.tile_km
    corners_km = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return [list(unproject(x, y, spec)) for x, y in corners_km]


def area_to_geojson(area: DeploymentArea, spec: GridSpec) -> dict:
    """The deployment area as a single GeoJSON polygon feature; its
    properties are the area's fields."""
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [_area_ring(area, spec)]},
        "properties": dict(vars(area)),
    }
