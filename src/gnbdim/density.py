"""Traffic density rasterization and deployment-area selection.

Tower records are projected onto a local kilometer grid (equirectangular
around the grid origin; error is well under link-budget margins for
regions below ~100 km) and binned into tiles by their sample counts.
The deployment area is the fixed-size window of maximum total weight,
found exactly with 2-D prefix sums; ties resolve to the south-west
(smallest row, then smallest column) so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GnbdimError, NonPositiveScaleError, WindowTooLargeError
from .ingest import Cells

EARTH_RADIUS_KM = 6371.0088
MAX_TILES = 100_000_000
MAX_EXTENT_KM = 2.0 * math.pi * EARTH_RADIUS_KM  # once around the Earth

_DEG = math.pi / 180.0


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
        if not -90 <= self.origin_lat <= 90:
            raise ValueError(f"origin_lat must be in [-90, 90], got {self.origin_lat}")
        if self.tile_km <= 0:
            raise ValueError("tile_km must be > 0")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("n_cols and n_rows must be >= 1")
        if self.n_cols * self.n_rows > MAX_TILES:
            raise ValueError(f"n_cols * n_rows exceeds the {MAX_TILES}-tile guard")
        if max(self.n_cols, self.n_rows) * self.tile_km > MAX_EXTENT_KM:
            raise ValueError(
                f"tile_km * max(n_cols, n_rows) exceeds {MAX_EXTENT_KM:.0f} km, "
                "once around the Earth"
            )

    @property
    def extent_x_km(self) -> float:
        return self.n_cols * self.tile_km

    @property
    def extent_y_km(self) -> float:
        return self.n_rows * self.tile_km


def project(lon, lat, spec: GridSpec):
    """Local east/north kilometers of (lon, lat) relative to the grid origin.

    Equirectangular: one degree of longitude is scaled by the cosine of
    the origin latitude. Accepts scalars or numpy arrays.
    """
    k = EARTH_RADIUS_KM * _DEG
    x = k * (np.asarray(lon) - spec.origin_lon) * math.cos(spec.origin_lat * _DEG)
    y = k * (np.asarray(lat) - spec.origin_lat)
    if np.ndim(x) == 0:
        return float(x), float(y)
    return x, y


def unproject(x_km, y_km, spec: GridSpec):
    """Inverse of :func:`project`, for exporting grid geometry."""
    k = EARTH_RADIUS_KM * _DEG
    lon = spec.origin_lon + np.asarray(x_km) / (k * math.cos(spec.origin_lat * _DEG))
    lat = spec.origin_lat + np.asarray(y_km) / k
    if np.ndim(lon) == 0:
        return float(lon), float(lat)
    return lon, lat


@dataclass
class DensityGrid:
    """Per-tile traffic weight (sample counts) and tower counts."""

    spec: GridSpec
    weight: np.ndarray  # (n_rows, n_cols) float64, row 0 southernmost
    towers: np.ndarray  # (n_rows, n_cols) int64
    n_outside: int = 0

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())


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
    """Accumulate each record's samples into its tile; out-of-grid is counted."""
    samples = np.array(records.samples, dtype=np.float64)
    x, y = project(records.lon, records.lat, spec)
    col = np.floor(x / spec.tile_km).astype(np.int64)
    row = np.floor(y / spec.tile_km).astype(np.int64)
    inside = (col >= 0) & (col < spec.n_cols) & (row >= 0) & (row < spec.n_rows)

    # bincount adds in input order, as a sequential scatter-add would. With
    # no rows it returns integers even when given weights, hence the cast.
    tile = row[inside] * spec.n_cols + col[inside]
    n_tiles = spec.n_rows * spec.n_cols
    weight = np.bincount(tile, weights=samples[inside], minlength=n_tiles).astype(
        np.float64, copy=False
    )
    towers = np.bincount(tile, minlength=n_tiles).astype(np.int64, copy=False)
    return DensityGrid(
        spec=spec,
        weight=weight.reshape(spec.n_rows, spec.n_cols),
        towers=towers.reshape(spec.n_rows, spec.n_cols),
        n_outside=int((~inside).sum()),
    )


def find_5gda(grid: DensityGrid, w_cols: int, h_rows: int) -> DeploymentArea:
    """Maximum-weight w x h window, exact via 2-D prefix sums.

    All window placements are scored in O(n_rows * n_cols); the first
    maximum in row-major order wins, which is the south-west tie-break.
    Weights are sample counts, never negative, so the grid total is the
    largest prefix sum and bounds every window sum.
    """
    rows, cols = grid.weight.shape
    if not (1 <= w_cols <= cols and 1 <= h_rows <= rows):
        raise WindowTooLargeError(
            f"window {w_cols}x{h_rows} does not fit the {cols}x{rows} grid"
        )
    prefix = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow shows in the total, checked next
        np.cumsum(grid.weight, axis=0, out=prefix[1:, 1:])
        np.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
    total = float(prefix[-1, -1])
    if not math.isfinite(total):
        raise GnbdimError(
            f"binned samples overflow: the grid's total weight is {total}, "
            "beyond the float range"
        )
    # In place, in the order (a - b) - c + d, with no further full-grid temporary.
    sums = prefix[h_rows:, w_cols:] - prefix[:-h_rows, w_cols:]
    sums -= prefix[h_rows:, :-w_cols]
    sums += prefix[:-h_rows, :-w_cols]
    flat = int(np.argmax(sums))  # row-major: smallest row0 first, then col0
    row0, col0 = divmod(flat, sums.shape[1])
    return DeploymentArea(
        col0=col0,
        row0=row0,
        w_cols=w_cols,
        h_rows=h_rows,
        total_weight=float(sums[row0, col0]),
        area_km2=w_cols * h_rows * grid.spec.tile_km**2,
    )


def subscriber_density(area: DeploymentArea, subs_per_weight: float) -> float:
    """Subscribers per km2 inside the deployment area."""
    if subs_per_weight <= 0:
        raise NonPositiveScaleError(f"subs_per_weight must be > 0, got {subs_per_weight}")
    if area.area_km2 <= 0:
        raise ValueError("deployment area must have positive extent")
    return area.total_weight * subs_per_weight / area.area_km2


# --- exports ---------------------------------------------------------------


def grid_to_csv(grid: DensityGrid) -> str:
    """Row-major CSV dump of the raster: row,col,weight,towers."""
    lines = ["row,col,weight,towers"]
    weight, towers = grid.weight, grid.towers
    for row in range(grid.spec.n_rows):
        for col in range(grid.spec.n_cols):
            lines.append(f"{row},{col},{float(weight[row, col])!r},{int(towers[row, col])}")
    return "\n".join(lines) + "\n"


def _tile_polygon(spec: GridSpec, col: int, row: int, d_cols: int, d_rows: int) -> list:
    x0, y0 = col * spec.tile_km, row * spec.tile_km
    x1, y1 = (col + d_cols) * spec.tile_km, (row + d_rows) * spec.tile_km
    corners_km = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return [list(unproject(x, y, spec)) for x, y in corners_km]


def area_to_geojson(area: DeploymentArea, spec: GridSpec) -> dict:
    """The deployment area as a single GeoJSON polygon feature."""
    return {
        "type": "Feature",
        "geometry": {
            "type": "Polygon",
            "coordinates": [
                _tile_polygon(spec, area.col0, area.row0, area.w_cols, area.h_rows)
            ],
        },
        "properties": {
            "col0": area.col0,
            "row0": area.row0,
            "w_cols": area.w_cols,
            "h_rows": area.h_rows,
            "total_weight": area.total_weight,
            "area_km2": area.area_km2,
        },
    }
